"""EM fitting: posteriors, recovery against the simulator oracle, ascent."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracles
from intentclick.common import NumericError
from intentclick.inference import EmConfig, alternating_fit, em_fit, factor_posterior
from intentclick.models import (
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    resolve_params,
    session_log_likelihood,
    ubm_cells,
)
from intentclick.sessions import Intent, Session, encode_sessions
from intentclick.simulate import SimConfig, generate_ground_truth, simulate_sessions


def _assert_monotone(trace, slack=1e-9):
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs >= -slack), f"trace decreased by {diffs.min()}"


def _posteriors(gamma, r):
    """(P(E=1 | C=0), P(R=1 | C=0)) at examination gamma and relevance r."""
    return factor_posterior(gamma, r), factor_posterior(r, gamma)


class TestPbmPosteriors:
    def test_half_half_unclicked(self):
        p_exam, p_rel = _posteriors(0.5, 0.5)
        assert p_exam == pytest.approx(1 / 3)
        assert p_rel == pytest.approx(1 / 3)

    def test_certain_examination_means_irrelevant(self):
        p_exam, p_rel = _posteriors(1.0, 0.4)
        assert p_exam == pytest.approx(1.0)
        assert p_rel == pytest.approx(0.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        gammas, rels = rng.uniform(0.01, 0.99, (200, 2)).T
        p_exam, p_rel = _posteriors(gammas, rels)
        for k in range(200):
            expected = oracles.pbm_unclicked_posteriors(gammas[k], rels[k])
            assert (p_exam[k], p_rel[k]) == pytest.approx(expected, abs=1e-12)
        assert np.all((0.0 <= p_exam) & (p_exam <= 1.0))
        assert np.all((0.0 <= p_rel) & (p_rel <= 1.0))

    def test_no_click_probability_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gamma, r = rng.uniform(0.0, 1.0, 2)
            # P(C=0) decomposed over examination equals 1 - gamma*r
            assert (1.0 - gamma) + gamma * (1.0 - r) == pytest.approx(
                1.0 - gamma * r, abs=1e-12
            )

    def test_degenerate_product_is_clamped(self):
        p_exam, p_rel = _posteriors(1.0, 1.0)
        assert np.isfinite(p_exam) and np.isfinite(p_rel)


def _as_sessions(batch):
    """The batch's rows as Session records, for the per-session checks."""
    return [Session(f"s{i}", q, t, tuple(d), tuple(c))
            for i, (q, t, d, c) in enumerate(batch.records())]


def _simulate(kind, seed, *, queries=60, sessions_per_query=300, positions=6, **kwargs):
    config = SimConfig(
        model_kind=kind,
        num_queries=queries,
        sessions_per_query=sessions_per_query,
        positions=positions,
        seed=seed,
        **kwargs,
    )
    truth = generate_ground_truth(config)
    return truth, simulate_sessions(truth, config), config


@pytest.fixture(scope="module")
def fitted():
    truth, batch, _ = _simulate("pbm", seed=21, shuffle_serps=True)
    params, report = em_fit("pbm", batch, EmConfig(max_iters=150))
    return truth, batch, params, report


class TestPbmFit:
    def test_recovers_examination_curve(self, fitted):
        truth, _, params, _ = fitted
        g_true = np.array([truth.params.exam[i] for i in range(1, 7)])
        g_est = np.array([params.exam[i] for i in range(1, 7)])
        mae = np.abs(g_true / g_true[0] - g_est / g_est[0]).mean()
        assert mae < 0.03

    def test_recovers_click_probabilities(self, fitted):
        truth, _, params, _ = fitted
        errors = []
        for key, r in truth.params.rel.items():
            for pos in range(1, 7):
                errors.append(
                    abs(truth.params.exam[pos] * r - params.exam[pos] * params.rel[key])
                )
        assert np.mean(errors) < 0.02

    def test_loglik_trace_non_decreasing(self, fitted):
        _, _, _, report = fitted
        _assert_monotone(report.loglik_trace)

    def test_converges_at_default_tol(self, fitted):
        _, _, _, report = fitted
        assert report.converged
        assert report.final_delta < EmConfig().tol

    def test_smoothing_keeps_params_strictly_inside_unit_interval(self, fitted):
        _, _, params, _ = fitted
        values = list(params.exam.values()) + list(params.rel.values())
        assert all(0.0 < v < 1.0 for v in values)

    def test_permutation_invariance(self, fitted):
        _, batch, params, _ = fitted
        rng = np.random.default_rng(5)
        shuffled = _as_sessions(batch)
        rng.shuffle(shuffled)
        params2, _ = em_fit("pbm", encode_sessions(shuffled), EmConfig(max_iters=150))
        for pos in params.exam:
            assert abs(params.exam[pos] - params2.exam[pos]) < 1e-9
        for key in params.rel:
            assert abs(params.rel[key] - params2.rel[key]) < 1e-9


class TestPbmSingleIteration:
    def test_matches_hand_computed_posteriors(self):
        # One E+M step from the uniform init, reconstructed with the scalar
        # posterior operation and Beta(1,1) smoothing.
        sessions = [
            Session("s1", "q", Intent.UNKNOWN, ("a", "b"), (1, 0)),
            Session("s2", "q", Intent.UNKNOWN, ("a", "b"), (0, 0)),
        ]
        params, _ = em_fit("pbm", encode_sessions(sessions), EmConfig(max_iters=1, tol=1e-15))

        p_exam_u, p_rel_u = map(float, _posteriors(0.5, 0.5))
        exam1 = (1.0 + 1.0 + p_exam_u) / (2.0 + 2.0)
        exam2 = (1.0 + 2.0 * p_exam_u) / (2.0 + 2.0)
        rel_a = (1.0 + 1.0 + p_rel_u) / (2.0 + 2.0)
        rel_b = (1.0 + 2.0 * p_rel_u) / (2.0 + 2.0)
        assert params.exam[1] == pytest.approx(exam1, abs=1e-12)
        assert params.exam[2] == pytest.approx(exam2, abs=1e-12)
        assert params.rel[("q", "a")] == pytest.approx(rel_a, abs=1e-12)
        assert params.rel[("q", "b")] == pytest.approx(rel_b, abs=1e-12)


class TestUbmFit:
    def test_recovers_click_probabilities(self):
        truth, batch, _ = _simulate(
            "ubm", seed=22, queries=50, sessions_per_query=400, positions=5
        )
        params, report = em_fit("ubm", batch, EmConfig(max_iters=120))
        _assert_monotone(report.loglik_trace)
        errors = []
        for key, r in truth.params.rel.items():
            for (l, i), b in truth.params.beta.items():
                errors.append(abs(b * r - params.beta[(l, i)] * params.rel[key]))
        assert np.mean(errors) < 0.04

    def test_conditional_probability_prediction_error(self):
        truth, batch, _ = _simulate(
            "ubm", seed=23, queries=40, sessions_per_query=300, positions=5
        )
        params, _ = em_fit("ubm", batch, EmConfig(max_iters=120))
        diffs = []
        for s in _as_sessions(batch)[:2000]:
            p_true = truth.params.conditional_click_probs(s)
            p_est = params.conditional_click_probs(s)
            diffs.extend(abs(a - b) for a, b in zip(p_true, p_est))
        assert np.mean(diffs) < 0.03


class TestDbnFit:
    def test_recovers_continuation_and_click_probabilities(self):
        truth, batch, _ = _simulate(
            "dbn", seed=24, queries=60, sessions_per_query=400, positions=5
        )
        params, report = em_fit("dbn", batch, EmConfig(max_iters=120))
        _assert_monotone(report.loglik_trace)
        assert abs(params.gamma_cont - truth.params.gamma_cont) < 0.05
        diffs = []
        for s in _as_sessions(batch)[:3000]:
            p_true = truth.params.conditional_click_probs(s)
            p_est = params.conditional_click_probs(s)
            diffs.extend(abs(a - b) for a, b in zip(p_true, p_est))
        assert np.mean(diffs) < 0.03

    def test_permutation_invariance(self):
        _, batch, _ = _simulate(
            "dbn", seed=32, queries=20, sessions_per_query=60, positions=4
        )
        a, _ = em_fit("dbn", batch, EmConfig(max_iters=40))
        shuffled = _as_sessions(batch)
        np.random.default_rng(1).shuffle(shuffled)
        b, _ = em_fit("dbn", encode_sessions(shuffled), EmConfig(max_iters=40))
        assert abs(a.gamma_cont - b.gamma_cont) < 1e-9
        for key in a.rel:
            assert abs(a.rel[key] - b.rel[key]) < 1e-9
            assert abs(a.sat[key] - b.sat[key]) < 1e-9

    def test_one_step_matches_enumeration_oracle(self):
        # Every click pattern of lengths 1-5 (no click, a click at the last
        # position, several clicks) in one fit, some sessions repeated,
        # against one EM step computed by enumerating the latent chains.
        rng = np.random.default_rng(12)
        docs = "abcdefg"
        sessions = []
        for n in range(1, 6):
            for clicks in itertools.product((0, 1), repeat=n):
                for q in ("q0", "q1"):
                    shown = tuple(docs[k] for k in rng.permutation(len(docs))[:n])
                    sessions.append(Session(f"s{len(sessions)}", q, Intent.UNKNOWN, shown, clicks))
        sessions += sessions[::7]
        keys = sorted({(s.query_id, d) for s in sessions for d in s.docs})
        rels = dict(zip(keys, rng.uniform(0.05, 0.95, len(keys)).tolist()))
        sats = dict(zip(keys, rng.uniform(0.05, 0.95, len(keys)).tolist()))
        start = DbnParams(rel=rels, sat=sats, gamma_cont=0.7)
        cfg = EmConfig(max_iters=1, prior=0.0)
        params, report = em_fit("dbn", encode_sessions(sessions), cfg, init_params=start)
        assert report.iterations == 1
        rel, sat, gamma = oracles.dbn_em_step(rels, sats, 0.7, sessions)
        assert rel.keys() == params.rel.keys() and sat.keys() == params.sat.keys()
        for key in keys:
            assert params.rel[key] == pytest.approx(rel[key], abs=1e-12)
            assert params.sat[key] == pytest.approx(sat[key], abs=1e-12)
        assert params.gamma_cont == pytest.approx(gamma, abs=1e-12)

    def test_satisfaction_posteriors_respect_click_structure(self):
        # A session with a later click forces unsatisfied earlier clicks, so
        # satisfaction estimates of docs always followed by clicks sink.
        q = "q0"
        docs = ("a", "b")
        always_followed = [
            Session(f"s{i}", q, Intent.UNKNOWN, docs, (1, 1)) for i in range(200)
        ]
        params, _ = em_fit("dbn", encode_sessions(always_followed), EmConfig(max_iters=60))
        assert params.sat[(q, "a")] < 0.1


class TestCascadeFit:
    def test_reaches_closed_form_immediately(self):
        truth, batch, _ = _simulate(
            "cascade", seed=25, queries=50, sessions_per_query=300, positions=5
        )
        params, report = em_fit("cascade", batch, EmConfig())
        assert report.converged
        assert report.iterations <= 3
        _assert_monotone(report.loglik_trace)
        # exact closed form: smoothed clicks over examinations, where a doc
        # is examined up to and including the session's first click
        exams, clicks = {}, {}
        for s in _as_sessions(batch):
            for doc, c in zip(s.docs, s.clicks):
                key = (s.query_id, doc)
                exams[key] = exams.get(key, 0) + 1
                clicks[key] = clicks.get(key, 0) + c
                if c:
                    break
        for key, r_est in params.rel.items():
            expected = (1.0 + clicks[key]) / (2.0 + exams[key])
            assert r_est == pytest.approx(expected, abs=1e-12)
        # recovery is only meaningful for pairs examined often
        errors = [
            abs(params.rel[k] - truth.params.rel[k])
            for k, n in exams.items()
            if n >= 200
        ]
        assert len(errors) > 50
        assert np.mean(errors) < 0.03


class TestIntentAwareFit:
    def test_collapse_property_at_finite_sample(self):
        # Data from one intent-agnostic truth, sessions labeled with mixed
        # intents: the intent-aware fit must agree with the base fit.
        truth, batch, _ = _simulate(
            "pbm", seed=26, queries=50, sessions_per_query=600, positions=5,
            intent_mix=(0.4, 0.4, 0.2),
        )
        base_params, _ = em_fit("pbm", batch, EmConfig(max_iters=120))
        ia_params, _ = em_fit("pbm", batch, EmConfig(max_iters=120), intent_aware=True)
        diffs = []
        for s in _as_sessions(batch)[:3000]:
            p_base = base_params.conditional_click_probs(s)
            p_ia = resolve_params(ia_params, s.intent).conditional_click_probs(s)
            diffs.extend(abs(a - b) for a, b in zip(p_base, p_ia))
        assert np.mean(diffs) < 0.02

    @staticmethod
    def _isolation_fits(cfg):
        """Intent-aware fits before and after flipping the clicks of the
        informational sessions only; navigational tables must not move."""
        truth, batch, _ = _simulate(
            "pbm", seed=27, queries=30, sessions_per_query=100, positions=4,
            intent_mix=(0.5, 0.5, 0.0), intent_aware=True,
        )
        ia1, report1 = em_fit("pbm", batch, cfg, intent_aware=True)
        mutated = [
            Session(
                s.session_id, s.query_id, s.intent, s.docs,
                tuple(1 - c for c in s.clicks)
                if s.intent is Intent.INFORMATIONAL
                else s.clicks,
            )
            for s in _as_sessions(batch)
        ]
        ia2, report2 = em_fit("pbm", encode_sessions(mutated), cfg, intent_aware=True)
        nav1 = ia1.per_intent[Intent.NAVIGATIONAL]
        nav2 = ia2.per_intent[Intent.NAVIGATIONAL]
        assert nav1.exam == nav2.exam
        assert nav1.rel == nav2.rel
        inf1 = ia1.per_intent[Intent.INFORMATIONAL]
        inf2 = ia2.per_intent[Intent.INFORMATIONAL]
        assert inf1.rel != inf2.rel
        return report1, report2

    def test_intent_partition_isolation(self):
        self._isolation_fits(EmConfig(max_iters=50))

    def test_intent_partition_isolation_when_partitions_converge(self):
        # At the default max_iters both partitions converge, and the two fits
        # take different numbers of steps, so in at least one of them the
        # navigational partition stops while the other still runs.
        report1, report2 = self._isolation_fits(EmConfig())
        assert report1.converged and report2.converged
        assert report1.iterations != report2.iterations

    def test_unknown_sessions_feed_the_fallback(self):
        q = "q0"
        docs = ("a", "b")
        sessions = [
            Session(f"k{i}", q, Intent.UNKNOWN, docs, (1, 0)) for i in range(50)
        ] + [
            Session(f"n{i}", q, Intent.NAVIGATIONAL, docs, (0, 1)) for i in range(50)
        ]
        ia, _ = em_fit("pbm", encode_sessions(sessions), EmConfig(max_iters=50), intent_aware=True)
        assert isinstance(ia, IntentAwareParams)
        # fallback learned from the Unknown sessions (doc a always clicked)
        assert ia.fallback.rel[(q, "a")] > 0.8
        # intents with no sessions keep the uninformative prior mean
        assert all(v == 0.5 for v in ia.per_intent[Intent.TRANSACTIONAL].exam.values())

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"prior": -1.0}, "priors must be non-negative"),
        # A NaN prior would return the prior itself as a converged fit.
        ({"prior": math.nan}, "priors must be non-negative"),
        ({"prior": math.inf}, "priors must be non-negative"),
        # A count that is not an integer would fail only in the middle of a fit.
        ({"max_iters": 1e3}, "max_iters must be an integer, got 1000.0"),
        ({"max_iters": "5"}, "max_iters must be an integer, got '5'"),
        ({"max_iters": None}, "max_iters must be an integer, got None"),
    ])
    def test_bad_config_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EmConfig(**kwargs)

    def test_numpy_integer_max_iters_accepted(self):
        batch = encode_sessions([Session("s", "q", Intent.UNKNOWN, ("a", "b"), (1, 0))])
        _, report = em_fit("pbm", batch, EmConfig(max_iters=np.int64(3), tol=1e-15))
        assert report.iterations == 3

    def test_overflowing_objective_is_a_numeric_error(self):
        # The data terms are clamped, so only a prior near the float range
        # can push the objective to -inf; the command line's priors are 1.
        batch = encode_sessions([Session("s1", "q", Intent.UNKNOWN, ("a", "b", "c"), (1, 0, 0)),
                                 Session("s2", "q", Intent.UNKNOWN, ("b", "a", "c"), (0, 1, 0))])
        with pytest.raises(NumericError, match="log-likelihood became non-finite"):
            em_fit("pbm", batch, EmConfig(prior=1e308))

    def test_empty_sessions_rejected(self):
        with pytest.raises(ValueError):
            em_fit("pbm", encode_sessions([]), EmConfig())

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError):
            em_fit("dcm", encode_sessions([Session("s", "q", Intent.UNKNOWN, ("a",), (0,))]),
                   EmConfig())

    @pytest.mark.parametrize("kind", ["pbm", "ubm", "dbn", "cascade"])
    @pytest.mark.parametrize("max_positions, message", [
        (4.0, "max_positions must be an integer, got 4.0"),
        ("4", "max_positions must be an integer, got '4'"),
        (0, "max_positions must be >= 1, got 0"),
    ])
    def test_max_positions_must_be_a_count(self, kind, max_positions, message):
        # Refused at entry for every kind: a float used to die inside the
        # PBM/UBM cell lists and pass unchecked through DBN and cascade.
        batch = encode_sessions([Session("s", "q", Intent.UNKNOWN, ("a", "b"), (1, 0))])
        with pytest.raises(ValueError, match=f"^{message}$"):
            em_fit(kind, batch, EmConfig(), max_positions=max_positions)

    def test_numpy_integer_max_positions_accepted(self):
        batch = encode_sessions([Session("s", "q", Intent.UNKNOWN, ("a", "b"), (1, 0))])
        params, _ = em_fit("ubm", batch, EmConfig(max_iters=2), max_positions=np.int64(3))
        assert params.max_positions == 3

    def test_partition_stopped_at_max_iters_is_not_converged(self):
        # Each partition runs as it would alone. At the faster partition's
        # step count that one has converged and the other has not, so the
        # joint fit reports the slower partition's delta and no convergence.
        _, batch, _ = _simulate("pbm", seed=27, queries=10, sessions_per_query=40, positions=4,
                                intent_mix=(0.5, 0.5, 0.0), intent_aware=True)
        parts = {intent: batch.take(rows) for intent, rows in batch.by_intent()}
        alone = {intent: em_fit("pbm", part, EmConfig())[1] for intent, part in parts.items()}
        fast, slow = sorted(alone, key=lambda intent: alone[intent].iterations)
        assert alone[fast].converged
        assert alone[fast].iterations < alone[slow].iterations
        cfg = EmConfig(max_iters=alone[fast].iterations)
        _, slow_report = em_fit("pbm", parts[slow], cfg)
        assert not slow_report.converged
        _, report = em_fit("pbm", batch, cfg, intent_aware=True)
        assert report.iterations == cfg.max_iters
        assert not report.converged
        assert report.final_delta == slow_report.final_delta > alone[fast].final_delta

    def test_sessions_deeper_than_max_positions_rejected(self):
        session = Session("s", "q", Intent.UNKNOWN, ("a", "b", "c"), (0, 1, 0))
        with pytest.raises(ValueError):
            em_fit("pbm", encode_sessions([session]), EmConfig(), max_positions=2)

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf"), -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # The CLI refuses such a --tol itself; library callers meet this check.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            EmConfig(tol=tol)

    @pytest.mark.parametrize("kind", ["pbm", "ubm", "dbn", "cascade"])
    def test_other_kinds_support_intent_aware_fits(self, kind):
        _, batch, _ = _simulate(
            kind, seed=31, queries=20, sessions_per_query=80, positions=4,
            intent_mix=(0.5, 0.5, 0.0), intent_aware=True,
        )
        params, report = em_fit(kind, batch, EmConfig(max_iters=40), intent_aware=True)
        assert isinstance(params, IntentAwareParams)
        assert params.kind == kind
        _assert_monotone(report.loglik_trace)
        # No transactional or unknown sessions: both slots hold the starting
        # tables, each its own object.
        empty = params.per_intent[Intent.TRANSACTIONAL]
        assert empty == _initial_params(kind, 4)
        assert params.fallback == _initial_params(kind, 4)
        assert empty is not params.fallback and empty.rel is not params.fallback.rel


@pytest.fixture(scope="module")
def data():
    config = SimConfig(
        model_kind="pbm", num_queries=50, sessions_per_query=200, positions=6,
        intent_mix=(0.5, 0.5, 0.0), seed=28, intent_aware=True, shuffle_serps=True,
    )
    truth = generate_ground_truth(config)
    return truth, simulate_sessions(truth, config)


class TestAlternatingFit:
    def test_agrees_with_joint_em(self, data):
        # The alternating fit is the joint intent-aware fit, value for value.
        _, batch = data
        cfg = EmConfig(tol=1e-7, max_iters=400)
        em_params, em_report = em_fit("pbm", batch, cfg, intent_aware=True)
        alt_params, alt_report = alternating_fit("pbm", batch, cfg)
        assert alt_report.converged
        assert _parameters(alt_params) == _parameters(em_params)
        assert alt_report.to_json() == em_report.to_json()

    def test_phase_a_alone_recovers_relevance_with_true_examination(self):
        config = SimConfig(
            model_kind="pbm", num_queries=50, sessions_per_query=1500, positions=5,
            seed=29,
        )
        truth = generate_ground_truth(config)
        params, report = em_fit(
            "pbm",
            simulate_sessions(truth, config),
            EmConfig(max_iters=200),
            families=frozenset(("rel",)),
            init_params=truth.params,
        )
        # examination stayed frozen at the truth
        assert params.exam == truth.params.exam
        errors = [abs(params.rel[k] - r) for k, r in truth.params.rel.items()]
        assert np.mean(errors) < 0.02
        _assert_monotone(report.loglik_trace)

    def test_cascade_alternating_degenerates_to_relevance_phase(self, data):
        # Cascade has no examination side, so each step is a relevance step
        # and the fit is the joint intent-aware one, value for value.
        _, batch = data
        params, report = alternating_fit("cascade", batch, EmConfig(max_iters=30))
        joint, joint_report = em_fit("cascade", batch, EmConfig(max_iters=30), intent_aware=True)
        assert report.converged
        assert _parameters(params) == _parameters(joint)
        assert report.to_json() == joint_report.to_json()

    @pytest.mark.parametrize("kind", ["pbm", "cascade"])
    def test_max_iters_bounds_the_fit(self, data, kind):
        _, batch = data
        _, report = alternating_fit(kind, batch, EmConfig(max_iters=1))
        assert report.iterations == len(report.loglik_trace) == 1
        assert not report.converged


@pytest.mark.parametrize("mode", ["base", "intent_aware"])
@pytest.mark.parametrize("kind, family, frozen", [
    ("pbm", "rel", "exam"),
    ("ubm", "rel", "beta"),
    ("dbn", "rel", "gamma_cont"),
    ("cascade", "exam", "rel"),
])
def test_m_step_updates_only_the_named_side(kind, family, frozen, mode):
    # Started at the truth, a fit whose M-step updates one side leaves every
    # field of the other side exactly where it started. Cascade has no
    # examination side, so an examination-only fit is its start, converged.
    intent_aware = mode == "intent_aware"
    truth, batch, _ = _simulate(kind, seed=36, queries=10, sessions_per_query=60, positions=4,
                                intent_mix=(0.5, 0.5, 0.0), intent_aware=intent_aware)
    params, report = em_fit(kind, batch, EmConfig(max_iters=5), intent_aware=intent_aware,
                            families=frozenset((family,)), init_params=truth.params)
    intents = [intent for intent, _ in batch.by_intent()] if intent_aware else [Intent.UNKNOWN]
    for intent in intents:
        start, fit = resolve_params(truth.params, intent), resolve_params(params, intent)
        kept = getattr(fit, frozen)
        if isinstance(kept, dict):
            assert kept == {k: getattr(start, frozen)[k] for k in kept}
        else:
            assert kept == getattr(start, frozen)
        if kind != "cascade":
            assert any(v != start.rel[k] for k, v in fit.rel.items())
    if kind == "cascade":
        assert report.converged and report.iterations == 1
    _assert_monotone(report.loglik_trace)


def _parameters(params):
    """Every fitted value, keyed by (intent table, field, key)."""
    if isinstance(params, IntentAwareParams):
        parts = {i.value: p for i, p in params.per_intent.items()}
        parts["fallback"] = params.fallback
    else:
        parts = {"": params}
    values = {}
    for name, part in parts.items():
        for f in dataclasses.fields(part):
            value = getattr(part, f.name)
            if isinstance(value, dict):
                values.update({(name, f.name, k): v for k, v in value.items()})
            elif isinstance(value, float):
                values[(name, f.name)] = value
    return values


@pytest.mark.parametrize(
    "kind,mode",
    [(k, m) for k in ("pbm", "ubm", "dbn") for m in ("base", "intent_aware")],
)
def test_accelerated_fit_lands_on_em_fixed_point(kind, mode):
    # One plain EM step from the returned parameters must barely move them:
    # SQUAREM changes how fast EM gets there, not where it stops.
    _, batch, _ = _simulate(
        kind, seed=34, queries=15, sessions_per_query=80, positions=4,
        intent_mix=(0.5, 0.5, 0.0), intent_aware=True, shuffle_serps=True,
    )
    cfg = EmConfig()
    params, report = em_fit(kind, batch, cfg, intent_aware=mode == "intent_aware")
    assert report.converged
    _assert_monotone(report.loglik_trace)
    stepped, _ = em_fit(
        kind, batch, EmConfig(max_iters=1), intent_aware=mode != "base",
        init_params=params,
    )
    before, after = _parameters(params), _parameters(stepped)
    assert before.keys() == after.keys()
    assert max(abs(after[k] - before[k]) for k in before) <= 10 * cfg.tol


@pytest.mark.parametrize("mode", ["base", "intent_aware"])
@pytest.mark.parametrize("kind", ["pbm", "ubm", "dbn", "cascade"])
def test_fit_is_independent_of_session_order(kind, mode):
    # fit writes the same bytes for any session order, so every fitted value
    # and the report must be exactly equal, not merely close.
    _, simulated, _ = _simulate(
        kind, seed=35, queries=12, sessions_per_query=50, positions=4,
        intent_mix=(0.5, 0.5, 0.0), intent_aware=True, shuffle_serps=True,
    )
    rng = np.random.default_rng(6)
    sessions = []
    for s in _as_sessions(simulated):
        n = int(rng.integers(1, len(s) + 1))
        sessions.append(Session(s.session_id, s.query_id, s.intent, s.docs[:n], s.clicks[:n]))
    shuffled = list(sessions)
    rng.shuffle(shuffled)
    cfg = EmConfig(max_iters=30)
    a, report_a = em_fit(kind, encode_sessions(sessions), cfg, intent_aware=mode == "intent_aware")
    b, report_b = em_fit(kind, encode_sessions(shuffled), cfg, intent_aware=mode == "intent_aware")
    assert _parameters(a) == _parameters(b)
    assert report_a.to_json() == report_b.to_json()


class TestFitReportShape:
    def test_one_trace_value_per_iteration(self):
        _, batch, _ = _simulate("pbm", seed=30, queries=10, sessions_per_query=50, positions=3)
        _, report = em_fit("pbm", batch, EmConfig(max_iters=17, tol=1e-15))
        assert report.iterations == 17
        assert len(report.loglik_trace) == 17
        assert not report.converged
        assert report.final_delta > 0

    def test_verbose_logs_one_line_per_recorded_step(self, caplog):
        _, batch, _ = _simulate("pbm", seed=30, queries=10, sessions_per_query=50, positions=3)
        with caplog.at_level("INFO", logger="intentclick.inference"):
            _, report = em_fit("pbm", batch)
        lines = [r.getMessage() for r in caplog.records if " loglik " in r.getMessage()]
        assert len(lines) == report.iterations == len(report.loglik_trace)
        assert report.extrapolated > 0
        # One partition, so each marked line stands for one step.
        assert sum("extrapolated=1" in line for line in lines) == report.extrapolated
        assert sum("rejected=1" in line for line in lines) == report.rejected
        assert report.to_json()["extrapolated"] == report.extrapolated

    @pytest.mark.parametrize("kind", ["pbm", "ubm"])
    def test_uncovered_positions_stay_at_prior_mean(self, caplog, kind):
        sessions = [Session("s", "q", Intent.UNKNOWN, ("a", "b"), (1, 0))] * 30
        with caplog.at_level("WARNING"):
            params, _ = em_fit(kind, encode_sessions(sessions), EmConfig(max_iters=40),
                               max_positions=4)
        if kind == "pbm":
            uncovered = [params.exam[3], params.exam[4]]
        else:
            uncovered = [b for (l, i), b in params.beta.items() if i in (3, 4)]
            assert len(uncovered) == 7
        assert all(v == 0.5 for v in uncovered)
        assert "no sessions cover positions 3-4;" in caplog.text
        assert "prior mean" in caplog.text


def _initial_params(kind, max_positions):
    """The parameters EM starts from: every table at 0.5, DBN continuation 0.9."""
    if kind == "pbm":
        exam = dict.fromkeys(range(1, max_positions + 1), 0.5)
        return PbmParams(exam=exam, rel={}, max_positions=max_positions)
    if kind == "ubm":
        beta = dict.fromkeys(ubm_cells(max_positions), 0.5)
        return UbmParams(beta=beta, rel={}, max_positions=max_positions)
    if kind == "dbn":
        return DbnParams(rel={}, sat={}, gamma_cont=0.9)
    return CascadeParams(rel={})


def _no_prior(max_iters):
    return EmConfig(max_iters=max_iters, tol=1e-15, prior=0.0)


@pytest.mark.parametrize("kind", ["pbm", "ubm", "dbn", "cascade"])
def test_loglik_trace_matches_per_session_log_likelihood(kind):
    # The batched E-step and the per-session chain rule in models.py are
    # separate routes to the same likelihood: for DBN, the last-click
    # factors and tail weights of the E-step and the click probabilities of
    # the forward pass. The
    # second trace value, at the parameters after one M-step, also checks
    # which examination cell each event uses.
    _, simulated, _ = _simulate(kind, seed=33, queries=8, sessions_per_query=40, positions=5)
    rng = np.random.default_rng(3)
    sessions = []
    for s in _as_sessions(simulated):
        n = int(rng.integers(1, len(s) + 1))
        sessions.append(Session(s.session_id, s.query_id, s.intent, s.docs[:n], s.clicks[:n]))
    if kind == "cascade":
        sessions = [s for s in sessions if sum(s.clicks) <= 1]
    one_step, _ = em_fit(kind, encode_sessions(sessions), _no_prior(max_iters=1), max_positions=5)
    _, report = em_fit(kind, encode_sessions(sessions), _no_prior(max_iters=2), max_positions=5)
    assert len(report.loglik_trace) == 2
    for params, ll in zip((_initial_params(kind, 5), one_step), report.loglik_trace):
        expected = sum(session_log_likelihood(kind, params, s) for s in sessions)
        assert ll == pytest.approx(expected, abs=1e-9)


def test_cascade_trace_floors_each_multi_click_session():
    # A session with two or more clicks is impossible under the cascade
    # model: the trace adds log(PROB_CLAMP) for it, which is also its
    # clamped session_log_likelihood. A PBM log has such sessions.
    _, simulated, _ = _simulate("pbm", seed=34, queries=8, sessions_per_query=40, positions=5)
    sessions = _as_sessions(simulated)
    n_clicks = [sum(s.clicks) for s in sessions]
    assert n_clicks.count(2) and max(n_clicks) > 2 and min(n_clicks) <= 1
    one_step, _ = em_fit("cascade", simulated, _no_prior(max_iters=1), max_positions=5)
    _, report = em_fit("cascade", simulated, _no_prior(max_iters=2), max_positions=5)
    assert len(report.loglik_trace) == 2
    for params, ll in zip((_initial_params("cascade", 5), one_step), report.loglik_trace):
        expected = sum(session_log_likelihood("cascade", params, s) for s in sessions)
        assert ll == pytest.approx(expected, abs=1e-9)
