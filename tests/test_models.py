"""Click-model probabilities checked against brute-force latent enumeration."""

import itertools
import json
import math

import numpy as np
import pytest

import oracles
from intentclick.common import DataError
from intentclick.models import (
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    load_params,
    resolve_params,
    save_params,
    session_log_likelihood,
    session_prob,
    ubm_cells,
)
from intentclick.sessions import Intent, KNOWN_INTENTS, Session


def _session(clicks, query="q1", intent=Intent.UNKNOWN, docs=None):
    if docs is None:
        docs = tuple(f"d{i}" for i in range(1, len(clicks) + 1))
    return Session("s", query, intent, docs, tuple(clicks))


def _click_prob(params, doc="d1"):
    """P(C_1 = 1): the probability of a one-position session with a click."""
    return session_prob(params, _session((1,), docs=(doc,)))


def _pbm(gammas, rels, query="q1"):
    exam = {i + 1: g for i, g in enumerate(gammas)}
    rel = {(query, f"d{i + 1}"): r for i, r in enumerate(rels)}
    return PbmParams(exam=exam, rel=rel, max_positions=len(gammas))


def _cascade(rels, query="q1"):
    return CascadeParams(rel={(query, f"d{i + 1}"): r for i, r in enumerate(rels)})


def _ubm(beta, rels, query="q1"):
    n = len(rels)
    return UbmParams(
        beta=beta,
        rel={(query, f"d{i + 1}"): r for i, r in enumerate(rels)},
        max_positions=n,
    )


def _dbn(rels, sats, gamma, query="q1"):
    rel = {(query, f"d{i + 1}"): r for i, r in enumerate(rels)}
    sat = {(query, f"d{i + 1}"): s for i, s in enumerate(sats)}
    return DbnParams(rel=rel, sat=sat, gamma_cont=gamma)


def _random_beta(rng, n):
    return {
        (l, i): float(rng.uniform(0.05, 0.95))
        for l in range(0, n)
        for i in range(l + 1, n + 1)
    }


class TestPbm:
    def test_click_prob_is_exam_times_relevance(self):
        params = _pbm([0.5], [0.4])
        assert _click_prob(params) == pytest.approx(0.2)

    def test_full_examination(self):
        params = _pbm([1.0], [0.73])
        assert _click_prob(params) == pytest.approx(0.73)

    def test_irrelevant_doc_never_clicked(self):
        params = _pbm([0.9], [0.0])
        assert _click_prob(params) == 0.0

    def test_position_out_of_range(self):
        params = _pbm([0.9], [0.5])
        with pytest.raises(ValueError, match="^session length 2 exceeds max_positions 1$"):
            session_prob(params, _session((0, 1)))

    def test_monotone_in_relevance_and_examination(self):
        for r1, r2 in [(0.1, 0.2), (0.4, 0.9)]:
            assert _click_prob(_pbm([0.7], [r1])) < _click_prob(_pbm([0.7], [r2]))
        for g1, g2 in [(0.1, 0.3), (0.5, 0.96)]:
            assert _click_prob(_pbm([g1], [0.5])) < _click_prob(_pbm([g2], [0.5]))

    def test_session_prob_matches_latent_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gammas = rng.uniform(0.05, 0.95, 3)
            rels = rng.uniform(0.05, 0.95, 3)
            params = _pbm(gammas, rels)
            for clicks in itertools.product((0, 1), repeat=3):
                expected = oracles.pbm_session_prob(gammas, rels, clicks)
                assert session_prob(params, _session(clicks)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_unseen_pair_defaults_to_half(self):
        params = _pbm([0.8], [0.3])
        assert _click_prob(params, "new-doc") == pytest.approx(0.4)


class TestCellLookup:
    """cell_of indexes cells_for in closed form, and the examination matrix
    covers only the batch width and agrees with the full one there."""

    @pytest.mark.parametrize("params_cls", [PbmParams, UbmParams])
    def test_lookup_is_the_full_table_sliced_to_the_width(self, params_cls):
        key_of = (lambda l, i: i) if params_cls is PbmParams else (lambda l, i: (l, i))
        for n in range(1, 6):
            cells = params_cls.cells_for(n)
            assert params_cls.cell_count(n) == len(cells)
            # Every (last click, position) a session can reach.
            for l, i in ubm_cells(n):
                assert cells[params_cls.cell_of(l, i, n)] == key_of(l, i)
            params = params_cls.prior(n)
            exam = getattr(params, params.exam_field)
            exam.update(zip(cells, np.random.default_rng(n).uniform(size=len(cells)).tolist()))
            full = params.exam_matrix(n)
            for l, i in np.ndindex(full.shape):
                assert full[l, i] == (exam[key_of(l, i)] if l < i else 0.0)
            for width in range(n + 1):
                np.testing.assert_array_equal(params.exam_matrix(width),
                                              full[:width + 1, :width + 1])

    @pytest.mark.parametrize("params_cls", [PbmParams, UbmParams])
    @pytest.mark.parametrize("max_positions", [0, -1, -3])
    def test_max_positions_below_one_is_refused(self, params_cls, max_positions):
        with pytest.raises(ValueError,
                           match=f"^max_positions must be >= 1, got {max_positions}$"):
            params_cls(**{params_cls.exam_field: {}}, rel={}, max_positions=max_positions)

    @pytest.mark.parametrize("params_cls", [PbmParams, UbmParams])
    def test_non_integer_max_positions_is_refused(self, params_cls):
        # Refused by the count rule, before any cell is counted.
        with pytest.raises(ValueError, match=r"^max_positions must be an integer, got 2\.0$"):
            params_cls(**{params_cls.exam_field: {}}, rel={}, max_positions=2.0)

    def test_large_max_positions_builds_only_the_batch_block(self):
        exam = dict.fromkeys(range(1, 2001), 0.5)
        exam[2] = 0.8
        params = PbmParams(exam=exam, rel={("q1", "d2"): 0.25}, max_positions=2000)
        assert params.conditional_click_probs(_session((0, 1))) == [0.25, 0.2]
        assert params.exam_matrix(2).shape == (3, 3)


class TestCascade:
    def test_single_click_product(self):
        params = _cascade([0.2, 0.3, 0.5])
        prob = session_prob(params, _session((0, 0, 1)))
        assert prob == pytest.approx(0.8 * 0.7 * 0.5)

    def test_no_click_product(self):
        params = _cascade([0.2, 0.3])
        assert session_prob(params, _session((0, 0))) == pytest.approx(0.8 * 0.7)

    def test_multiple_clicks_are_structurally_impossible(self):
        params = _cascade([0.2, 0.3, 0.5])
        assert session_prob(params, _session((1, 1, 0))) == 0.0

    def test_session_prob_matches_chain_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rels = rng.uniform(0.05, 0.95, 3)
            params = _cascade(rels)
            for clicks in itertools.product((0, 1), repeat=3):
                expected = oracles.cascade_session_prob(rels, clicks)
                assert session_prob(params, _session(clicks)) == pytest.approx(
                    expected, abs=1e-12
                )


class TestUbm:
    def test_click_prob_uses_transition_cell(self):
        beta = _random_beta(np.random.default_rng(2), 4)
        params = _ubm(beta, [0.5, 0.5, 0.5, 0.7])
        no_clicks = params.conditional_click_probs(_session((0, 0, 0, 0)))
        assert no_clicks[0] == pytest.approx(beta[(0, 1)] * 0.5)
        after_second = params.conditional_click_probs(_session((0, 1, 0, 0)))
        assert after_second[3] == pytest.approx(beta[(2, 4)] * 0.7)

    def test_zero_relevance_pins_all_mass_on_no_clicks(self):
        beta = _random_beta(np.random.default_rng(4), 3)
        params = _ubm(beta, [0.0, 0.0, 0.0])
        assert session_prob(params, _session((0, 0, 0))) == pytest.approx(1.0)

    def test_session_prob_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            beta = _random_beta(rng, 3)
            rels = rng.uniform(0.05, 0.95, 3)
            params = _ubm(beta, rels)
            for clicks in itertools.product((0, 1), repeat=3):
                expected = oracles.ubm_session_prob(beta, rels, clicks)
                assert session_prob(params, _session(clicks)) == pytest.approx(
                    expected, abs=1e-12
                )


class TestDbn:
    def test_certain_click_then_certain_satisfaction(self):
        params = _dbn([1.0, 0.5, 0.5], [1.0, 0.5, 0.5], gamma=0.7)
        assert session_prob(params, _session((1, 0, 0))) == pytest.approx(1.0)

    def test_zero_continuation_kills_later_clicks(self):
        params = _dbn([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], gamma=0.0)
        assert session_prob(params, _session((0, 1, 0))) == 0.0
        assert session_prob(params, _session((1, 0, 1))) == 0.0

    def test_all_click_vectors_sum_to_one(self):
        rng = np.random.default_rng(6)
        rels = rng.uniform(0.05, 0.95, 3)
        sats = rng.uniform(0.05, 0.95, 3)
        params = _dbn(rels, sats, gamma=0.83)
        total = sum(
            session_prob(params, _session(clicks))
            for clicks in itertools.product((0, 1), repeat=3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_forward_pass_matches_latent_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rels = rng.uniform(0.05, 0.95, 3)
            sats = rng.uniform(0.05, 0.95, 3)
            gamma = float(rng.uniform(0.05, 0.95))
            params = _dbn(rels, sats, gamma)
            for clicks in itertools.product((0, 1), repeat=3):
                expected = oracles.dbn_session_prob(rels, sats, gamma, clicks)
                assert session_prob(params, _session(clicks)) == pytest.approx(
                    expected, abs=1e-12
                )


class TestSessionLogLikelihood:
    def test_single_position_log(self):
        params = _pbm([0.5], [0.4])
        ll = session_log_likelihood("pbm", params, _session((1,)))
        assert ll == pytest.approx(math.log(0.2))

    def test_probability_one_gives_zero(self):
        params = _dbn([1.0], [1.0], gamma=0.5)
        assert session_log_likelihood("dbn", params, _session((1,))) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="^params are for 'pbm', not 'ubm'$"):
            session_log_likelihood("ubm", _pbm([0.5], [0.5]), _session((0,)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown model kind 'dcm'$"):
            session_log_likelihood("dcm", _pbm([0.5], [0.5]), _session((0,)))

    def test_exp_loglik_sums_to_one_over_vectors(self):
        rng = np.random.default_rng(8)
        n = 4
        gammas = rng.uniform(0.1, 0.9, n)
        rels = rng.uniform(0.1, 0.9, n)
        sats = rng.uniform(0.1, 0.9, n)
        beta = _random_beta(rng, n)
        models = {
            "pbm": _pbm(gammas, rels),
            "cascade": _cascade(rels),
            "ubm": _ubm(beta, rels),
            "dbn": _dbn(rels, sats, gamma=0.8),
        }
        for kind, params in models.items():
            total = sum(
                math.exp(session_log_likelihood(kind, params, _session(clicks)))
                for clicks in itertools.product((0, 1), repeat=n)
            )
            assert total == pytest.approx(1.0, abs=1e-9), kind

    def test_clamping_avoids_minus_infinity(self):
        params = _pbm([1.0], [0.0])
        ll = session_log_likelihood("pbm", params, _session((1,)))
        assert math.isfinite(ll)
        assert ll == pytest.approx(math.log(1e-12))


class TestNormalization:
    def test_all_kinds_random_draws(self):
        rng = np.random.default_rng(9)
        n = 5
        for _ in range(20):
            gammas = rng.uniform(0.05, 0.95, n)
            rels = rng.uniform(0.05, 0.95, n)
            sats = rng.uniform(0.05, 0.95, n)
            models = [
                _pbm(gammas, rels),
                _cascade(rels),
                _ubm(_random_beta(rng, n), rels),
                _dbn(rels, sats, float(rng.uniform(0.05, 0.95))),
            ]
            for params in models:
                total = sum(
                    session_prob(params, _session(clicks))
                    for clicks in itertools.product((0, 1), repeat=n)
                )
                assert total == pytest.approx(1.0, abs=1e-9), params.kind


class TestExaminationHypothesis:
    def test_zero_relevance_forces_zero_click_probability(self):
        n = 3
        rng = np.random.default_rng(10)
        gammas = rng.uniform(0.3, 0.9, n)
        zero_rels = [0.0] * n
        models = [
            _pbm(gammas, zero_rels),
            _cascade(zero_rels),
            _ubm(_random_beta(rng, n), zero_rels),
            _dbn(zero_rels, [0.5] * n, 0.9),
        ]
        for params in models:
            for clicks in itertools.product((0, 1), repeat=n):
                if any(clicks):
                    assert session_prob(params, _session(clicks)) == 0.0, params.kind

    def test_conditional_click_given_exam_equals_relevance(self):
        # PBM with certain examination reduces to the bare relevance.
        params = _pbm([1.0], [0.37])
        assert _click_prob(params) == pytest.approx(0.37)


class TestRelevanceEstimate:
    def test_one_key_view_of_the_arrays(self):
        rels, sats = [0.3, 0.8], [0.4, 0.6]
        models = [_pbm([0.9, 0.5], rels), _cascade(rels),
                  _ubm(_random_beta(np.random.default_rng(3), 2), rels), _dbn(rels, sats, 0.9)]
        for params in models:
            expected = {"d1": rels[0], "d2": rels[1], "unseen": 0.5}
            if params.kind == "dbn":
                # The chance of a click that satisfies.
                expected = {"d1": rels[0] * sats[0], "d2": rels[1] * sats[1], "unseen": 0.25}
            together = params.relevance_estimates([("q1", doc) for doc in expected]).tolist()
            for (doc, want), got in zip(expected.items(), together):
                assert type(got) is float
                assert got == params.relevance_estimates([("q1", doc)])[0] == want, params.kind


class TestIntentAware:
    def _make_ia(self):
        per_intent = {
            Intent.INFORMATIONAL: _pbm([0.9, 0.5], [0.2, 0.4]),
            Intent.NAVIGATIONAL: _pbm([0.9, 0.8], [0.7, 0.1]),
            Intent.TRANSACTIONAL: _pbm([0.9, 0.75], [0.6, 0.2]),
        }
        fallback = _pbm([0.85, 0.6], [0.5, 0.5])
        return IntentAwareParams(per_intent=per_intent, fallback=fallback)

    def test_dispatch_by_intent(self):
        ia = self._make_ia()
        assert resolve_params(ia, Intent.NAVIGATIONAL) is ia.per_intent[Intent.NAVIGATIONAL]
        assert resolve_params(ia, Intent.UNKNOWN) is ia.fallback

    def test_missing_intent_table_rejected(self):
        with pytest.raises(ValueError):
            IntentAwareParams(
                per_intent={Intent.INFORMATIONAL: _pbm([0.9], [0.5])},
                fallback=_pbm([0.9], [0.5]),
            )
        # Every table present, but the fallback is of another model kind.
        with pytest.raises(ValueError, match="mixed model kinds"):
            IntentAwareParams(
                per_intent={t: _pbm([0.9], [0.5]) for t in KNOWN_INTENTS},
                fallback=CascadeParams.prior(1),
            )

    def test_collapse_to_base_model_bit_for_bit(self):
        base = _pbm([0.9, 0.5, 0.3], [0.2, 0.4, 0.8])
        ia = IntentAwareParams(
            per_intent={t: base for t in KNOWN_INTENTS}, fallback=base
        )
        for intent in (*KNOWN_INTENTS, Intent.UNKNOWN):
            for clicks in itertools.product((0, 1), repeat=3):
                s = _session(clicks, intent=intent)
                assert session_log_likelihood("pbm", ia, s) == session_log_likelihood(
                    "pbm", base, s
                )

    def test_distinct_tables_change_predictions(self):
        ia = self._make_ia()
        s_inf = _session((1, 0), intent=Intent.INFORMATIONAL)
        s_nav = _session((1, 0), intent=Intent.NAVIGATIONAL)
        assert session_prob(ia, s_inf) != session_prob(ia, s_nav)


def _doc(kind, params):
    """A base parameter document around the raw JSON text of its params."""
    return f'{{"version": 1, "kind": "{kind}", "intent_aware": false, "params": {params}}}'


_PBM_EXAM = '"exam": {"1": 0.25, "2": 0.5}'
_PAIR = '{"q\\td": 0.75}'


class TestPersistence:
    def test_roundtrip_all_kinds(self, tmp_path):
        rng = np.random.default_rng(11)
        models = [
            _pbm(rng.uniform(0.1, 0.9, 3), rng.uniform(0.1, 0.9, 3)),
            _cascade(rng.uniform(0.1, 0.9, 3)),
            _ubm(_random_beta(rng, 3), rng.uniform(0.1, 0.9, 3)),
            _dbn(rng.uniform(0.1, 0.9, 3), rng.uniform(0.1, 0.9, 3), 0.88),
        ]
        for i, params in enumerate(models):
            path = tmp_path / f"m{i}.json"
            save_params(path, params)
            assert load_params(path) == params

    def test_roundtrip_intent_aware(self, tmp_path):
        ia = TestIntentAware()._make_ia()
        path = tmp_path / "ia.json"
        save_params(path, ia)
        assert load_params(path) == ia

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        params = _pbm([0.9, 0.5], [0.25, 0.75])
        path = tmp_path / "p.json"
        save_params(path, params)
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert load_params(path) == params

    @pytest.mark.parametrize(
        "params, doc",
        [
            (
                PbmParams(exam={1: 0.9, 2: 0.5}, rel={("q1", "d1"): 0.25}, max_positions=2),
                {"exam": {"1": 0.9, "2": 0.5}, "rel": {"q1\td1": 0.25}, "max_positions": 2},
            ),
            (
                UbmParams(beta={(0, 1): 0.9, (0, 2): 0.6, (1, 2): 0.7},
                          rel={("q1", "d2"): 0.3}, max_positions=2),
                {"beta": {"0:1": 0.9, "0:2": 0.6, "1:2": 0.7}, "rel": {"q1\td2": 0.3},
                 "max_positions": 2},
            ),
            (CascadeParams(rel={("q2", "d1"): 0.4}), {"rel": {"q2\td1": 0.4}}),
            (
                DbnParams(rel={("q1", "d1"): 0.6}, sat={("q1", "d1"): 0.2}, gamma_cont=0.85),
                {"rel": {"q1\td1": 0.6}, "sat": {"q1\td1": 0.2}, "gamma_cont": 0.85},
            ),
        ],
        ids=["pbm", "ubm", "cascade", "dbn"],
    )
    def test_golden_format(self, tmp_path, params, doc):
        # Files written by earlier versions must keep loading, so the
        # document is pinned byte for byte, not only round-tripped.
        path = tmp_path / "p.json"
        save_params(path, params)
        expected = {"version": 1, "kind": params.kind, "intent_aware": False, "params": doc}
        assert path.read_text() == json.dumps(expected, sort_keys=True, indent=1) + "\n"
        assert load_params(path) == params

    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 99, "kind": "pbm"}',
            '{"version": 1, "kind": "pbm", "intent_aware": false}',
            '{"version": 1, "kind": ["pbm"], "intent_aware": false, "params": {}}',
            "[1, 2]",
            '{"version": 1, "kind": "cascade", "intent_aware": false, "params": {"rel": []}}',
            '{"version": 1, "kind": "cascade", "intent_aware": true, '
            '"per_intent": {"inf": {"rel": {}}, "nav": {"rel": {}}}, "fallback": {"rel": {}}}',
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{}}, "max_positions": 2.9}}'),
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{}}, "max_positions": true}}'),
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{}}, "max_positions": "2"}}'),
            _doc("pbm", '{"exam": {"1": true, "2": 0.5}, "rel": {}, "max_positions": 2}'),
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{"q\\td": "0.5"}}, "max_positions": 2}}'),
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{"q\\td": null}}, "max_positions": 2}}'),
            _doc("dbn", f'{{"rel": {_PAIR}, "sat": {_PAIR}, "gamma_cont": "0.5"}}'),
            _doc("dbn", f'{{"rel": {_PAIR}, "sat": {_PAIR}, "gamma_cont": true}}'),
            _doc("dbn", f'{{"rel": {_PAIR}, "sat": {_PAIR}, "gamma_cont": null}}'),
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{"q1d1": 0.5}}, "max_positions": 2}}'),
            _doc("cascade", '{"rel": {"q1d1": 0.5}}'),
            _doc("pbm", '{"exam": {"1": 0.25, "2": 0.5, "99": 0.5}, "rel": {}, "max_positions": 2}'),
            _doc("ubm", '{"beta": {"0:1": 0.9, "0:2": 0.6, "1:2": 0.7, "2:1": 0.5}, "rel": {}, '
                        '"max_positions": 2}'),
            _doc("dbn", f'{{"rel": {_PAIR}, "sat": {{"q1d1": 0.5}}, "gamma_cont": 0.5}}'),
            _doc("pbm", f'{{{_PBM_EXAM}, "rel": {{"1": 0.5, "2": 0.5}}, "max_positions": 2}}'),
            '{"version": true, "kind": "cascade", "intent_aware": false, "params": {"rel": {}}}',
            '{"version": 1.0, "kind": "cascade", "intent_aware": false, "params": {"rel": {}}}',
            '{"version": "1", "kind": "cascade", "intent_aware": false, "params": {"rel": {}}}',
            '{"version": 1, "kind": "cascade", "intent_aware": 0, "params": {"rel": {}}}',
            '{"version": 1, "kind": "cascade", "intent_aware": "no", "params": {"rel": {}}}',
            '{"version": 1, "kind": "cascade", "intent_aware": null, "params": {"rel": {}}}',
            '{"version": 1, "kind": "cascade", "params": {"rel": {}}}',
            # Examination keys int() reads but save_params never writes.
            _doc("pbm", '{"exam": {%s, "1_0": 0.5}, "rel": {}, "max_positions": 10}'
                 % ", ".join(f'"{i}": 0.5' for i in range(1, 10))),
            _doc("pbm", '{"exam": {" 1": 0.25, "2": 0.5}, "rel": {}, "max_positions": 2}'),
            _doc("pbm", '{"exam": {"1": 0.25, "+2": 0.5}, "rel": {}, "max_positions": 2}'),
            _doc("pbm", '{"exam": {"1": 0.25, "2": 0.5, "\u0663": 0.5}, "rel": {}, '
                        '"max_positions": 3}'),
            _doc("ubm", '{"beta": {"00:1": 0.9, "0:2": 0.6, "1:2": 0.7}, "rel": {}, '
                        '"max_positions": 2}'),
            _doc("ubm", '{"beta": {"0:1": 0.9, "0: 2": 0.6, "1:2": 0.7}, "rel": {}, '
                        '"max_positions": 2}'),
        ],
        ids=["version-99", "no-params", "kind-list", "array", "rel-list", "missing-intent",
             "max-positions-float", "max-positions-bool", "max-positions-string",
             "exam-bool", "rel-string", "rel-null", "gamma-string", "gamma-bool",
             "gamma-null", "pbm-pair-without-tab", "cascade-pair-without-tab",
             "pbm-exam-beyond-max-positions", "ubm-cell-outside-table",
             "dbn-sat-pair-without-tab", "pbm-rel-keyed-like-exam", "version-true",
             "version-float", "version-string", "intent-aware-zero", "intent-aware-string",
             "intent-aware-null", "intent-aware-missing", "pbm-exam-underscore",
             "pbm-exam-space", "pbm-exam-plus", "pbm-exam-arabic-indic", "ubm-cell-leading-zero",
             "ubm-cell-space"],
    )
    def test_bad_document_is_a_data_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DataError):
            load_params(path)

    def test_tables_over_different_keys_load_apart(self, tmp_path):
        # DBN's rel and sat usually share their keys; here they do not.
        path = tmp_path / "p.json"
        path.write_text(_doc("dbn", '{"rel": {"q\\td": 0.75, "q\\te": 0.5}, '
                                    '"sat": {"q\\te": 0.25}, "gamma_cont": 0.5}'))
        assert load_params(path) == DbnParams(
            rel={("q", "d"): 0.75, ("q", "e"): 0.5}, sat={("q", "e"): 0.25}, gamma_cont=0.5
        )

    def test_tab_in_query_id_is_refused(self, tmp_path):
        # "a\tb" + "d1" would read back as the pair ("a", "b\td1").
        path = tmp_path / "p.json"
        with pytest.raises(DataError, match="query_id 'a\\\\tb' contains a tab"):
            save_params(path, CascadeParams(rel={("q", "d1"): 0.5, ("a\tb", "d1"): 0.5}))
        assert not path.exists()
        # A tab in a doc id is fine: keys split at the first tab.
        params = CascadeParams(rel={("q", "d\t1"): 0.5})
        save_params(path, params)
        assert load_params(path) == params

    def test_json_integers_load_as_probabilities(self, tmp_path):
        # The bad cases above differ from these valid documents in one
        # value; an integer probability reads as a float.
        path = tmp_path / "p.json"
        path.write_text(_doc("pbm", f'{{{_PBM_EXAM}, "rel": {_PAIR}, "max_positions": 2}}'))
        assert load_params(path) == PbmParams(
            exam={1: 0.25, 2: 0.5}, rel={("q", "d"): 0.75}, max_positions=2
        )
        path.write_text(_doc("dbn", '{"rel": {"q\\td": 0.75}, "sat": {"q\\td": 1}, "gamma_cont": 1}'))
        params = load_params(path)
        assert params == DbnParams(rel={("q", "d"): 0.75}, sat={("q", "d"): 1.0}, gamma_cont=1.0)
        assert type(params.gamma_cont) is float and type(params.sat[("q", "d")]) is float

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            _pbm([1.5], [0.5])
        with pytest.raises(ValueError):
            PbmParams(exam={1: 0.5}, rel={}, max_positions=2)
        with pytest.raises(ValueError):
            PbmParams(exam={1: 0.5, 2: 0.5, 3: 0.5}, rel={}, max_positions=2)
        with pytest.raises(ValueError):
            UbmParams(beta={(0, 1): 0.5}, rel={}, max_positions=2)
        with pytest.raises(ValueError):
            DbnParams(rel={}, sat={}, gamma_cont=1.2)
