"""Simulator determinism, distributional fidelity, drawn clicks, and the calibrated preset."""

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from intentclick.cli import EXIT_OK, run
from intentclick.models import IntentAwareParams, click_probs, resolve_params
from intentclick.sessions import ALL_INTENTS, Intent, KNOWN_INTENTS, Session, encode_sessions
from intentclick.simulate import (
    PRESET_NAV_TARGET4_TOTAL_MASS,
    SimConfig,
    click_behavior_preset,
    generate_ground_truth,
    grade_from_relevance,
    session_ids,
    simulate_sessions,
)


class TestGroundTruth:
    def test_same_seed_same_truth(self):
        config = SimConfig(model_kind="dbn", num_queries=8, sessions_per_query=5, seed=3)
        a = generate_ground_truth(config)
        b = generate_ground_truth(config)
        assert a.params == b.params
        assert a.judgments == b.judgments
        assert a.serps == b.serps

    def test_examination_tables_monotone_non_increasing(self):
        for seed in range(5):
            config = SimConfig(model_kind="pbm", num_queries=2, sessions_per_query=2,
                               positions=10, seed=seed)
            truth = generate_ground_truth(config)
            curve = [truth.params.exam[i] for i in range(1, 11)]
            assert curve == sorted(curve, reverse=True)

    def test_relevance_range(self):
        config = SimConfig(model_kind="pbm", num_queries=5, sessions_per_query=2, seed=4)
        truth = generate_ground_truth(config)
        assert all(0.05 <= r <= 0.95 for r in truth.params.rel.values())

    def test_grade_thresholding(self):
        assert grade_from_relevance(0.95) == 4
        assert grade_from_relevance(0.05) == 0
        assert grade_from_relevance(0.59) == 2
        assert grade_from_relevance(1.0) == 4

    def test_every_pair_has_a_judgment(self):
        config = SimConfig(model_kind="ubm", num_queries=6, sessions_per_query=2,
                           positions=4, seed=5)
        truth = generate_ground_truth(config)
        judged = set(truth.judgments.keys)
        served = {(q, d) for q, docs in truth.serps.items() for d in docs}
        assert judged == served

    def test_intent_aware_truth_has_three_tables(self):
        config = SimConfig(model_kind="pbm", num_queries=3, sessions_per_query=2,
                           seed=6, intent_aware=True)
        truth = generate_ground_truth(config)
        assert isinstance(truth.params, IntentAwareParams)
        assert set(truth.params.per_intent) == set(KNOWN_INTENTS)


class TestSimulateSessions:
    def test_same_seed_byte_identical(self):
        config = SimConfig(model_kind="pbm", num_queries=5, sessions_per_query=50, seed=7)
        truth = generate_ground_truth(config)
        a, b = simulate_sessions(truth, config), simulate_sessions(truth, config)
        assert a.keys == b.keys and a.queries == b.queries
        for name in ("pair", "clicks", "lengths", "intent", "query"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_canonical_ordering(self):
        config = SimConfig(model_kind="pbm", num_queries=3, sessions_per_query=4, seed=8)
        truth = generate_ground_truth(config)
        batch = simulate_sessions(truth, config)
        ids = session_ids(truth, config)
        assert ids == sorted(ids)
        assert [i.split(":")[0] for i in ids] == [batch.queries[k] for k in batch.query]

    def test_pure_intent_mix(self):
        config = SimConfig(model_kind="pbm", num_queries=4, sessions_per_query=30,
                           intent_mix=(0.0, 1.0, 0.0), seed=9)
        truth = generate_ground_truth(config)
        batch = simulate_sessions(truth, config)
        assert all(intent is Intent.NAVIGATIONAL for _, intent, _, _ in batch.records())

    def test_intent_mix_proportions(self):
        config = SimConfig(model_kind="pbm", num_queries=20, sessions_per_query=5000,
                           positions=3, intent_mix=(0.5, 0.3, 0.2), seed=10)
        truth = generate_ground_truth(config)
        batch = simulate_sessions(truth, config)
        counts = Counter(ALL_INTENTS[k] for k in batch.intent.tolist())
        total = len(batch)
        assert total == 100_000
        assert counts[Intent.INFORMATIONAL] / total == pytest.approx(0.5, abs=0.01)
        assert counts[Intent.NAVIGATIONAL] / total == pytest.approx(0.3, abs=0.01)
        assert counts[Intent.TRANSACTIONAL] / total == pytest.approx(0.2, abs=0.01)

    def test_intents_per_query_pins_one_intent(self):
        config = SimConfig(model_kind="pbm", num_queries=12, sessions_per_query=20,
                           seed=11, intents_per_query=True)
        truth = generate_ground_truth(config)
        per_query = {}
        for query, intent, _, _ in simulate_sessions(truth, config).records():
            per_query.setdefault(query, set()).add(intent)
        assert all(len(v) == 1 for v in per_query.values())
        assert all(truth.query_intents[q] in v for q, v in per_query.items())

    def test_shuffled_serps_permute_docs(self):
        config = SimConfig(model_kind="pbm", num_queries=2, sessions_per_query=40,
                           positions=6, seed=12, shuffle_serps=True)
        truth = generate_ground_truth(config)
        rows = list(simulate_sessions(truth, config).records())
        for query, _, docs, _ in rows:
            assert sorted(docs) == sorted(truth.serps[query])
        orders = {tuple(docs) for query, _, docs, _ in rows if query == rows[0][0]}
        assert len(orders) > 1

    def test_fixed_serps_by_default(self):
        config = SimConfig(model_kind="pbm", num_queries=2, sessions_per_query=10, seed=13)
        truth = generate_ground_truth(config)
        for query, _, docs, _ in simulate_sessions(truth, config).records():
            assert tuple(docs) == truth.serps[query]

    def test_model_and_queries_come_from_the_truth(self):
        # The config's kind and query count are the truth's to say: a config
        # naming others samples the same batch as the truth's own.
        for kind, other in (("pbm", "dbn"), ("dbn", "ubm")):
            config = SimConfig(model_kind=kind, num_queries=2, sessions_per_query=20, seed=14)
            truth = generate_ground_truth(config)
            own = simulate_sessions(truth, config)
            for stray in (replace(config, model_kind=other), replace(config, num_queries=3)):
                batch = simulate_sessions(truth, stray)
                assert batch.keys == own.keys and batch.queries == own.queries
                for name in ("pair", "clicks", "lengths", "intent", "query"):
                    assert np.array_equal(getattr(batch, name), getattr(own, name)), name


# sha256 over the files `simulate` writes (name, then bytes, in name order;
# the manifest excluded), per configuration. They pin the random stream:
# any change to the order or shape of the draws, to how a model's
# click_probs turns a draw into a click, or to how sessions, truth tables,
# judgments or intents are written, changes a digest. Refresh a digest only
# for a change meant to alter what `simulate` writes (a numpy upgrade that
# changes np.random.Generator's streams, or a new way of drawing a kind's
# clicks), only for the configurations it alters, and name them in
# CHANGES.md.
_STREAM_FLAGS = {
    "shuffled": ["--shuffle-serps"],
    "mixed": ["--intent-aware", "--intent-mix", "0.5,0.3,0.2"],
    "pinned": ["--intent-aware", "--intents-per-query"],
}
STREAM_DIGESTS = {
    "pbm-shuffled": "b5b0afe50ce3ec27f4a4b28ae1b732ca2ad937706e3d9389ff2fc18b10101e5b",
    "pbm-mixed": "7af0cd08fecd218531777cd08bfdf14efab65b5286f6f159df64425df6e7b5af",
    "pbm-pinned": "87ee3e247c189b7554fc8ccf4ac59eaf88efb1ebf39bf5ecdb5779509daa6896",
    "cascade-shuffled": "cb80e4e83ee7448961c126b9044c889c5556f9fe2b1c7cab03800fbe85ea3454",
    "cascade-mixed": "86f38295155d67f4cda97ada6a5f9736e309982e5d85bf215b54f18e22127343",
    "cascade-pinned": "687598d044522fae915f9ec1592d2512f951007a3bc13bde3b9201e962b77e94",
    "ubm-shuffled": "089e4fd96973f4a6f669887ae7bbf7026ba648665c093d710f78230650fe6efe",
    "ubm-mixed": "1862060f0c84cf1c93cd990ea4efafb2b018260641599331fda8eeb640e59e18",
    "ubm-pinned": "a4f43a0a8152e83df7d411254830bc6e69a37f49d85ce594a6eee5cad43e34f4",
    "dbn-shuffled": "6310e5d6e10814641c66b47b985a744be62ebd8d91c2c3b6b438ca70361d7e91",
    "dbn-mixed": "0487c84c8942a3484c3985c7280635329a35d92fdd46381b7cc75192d4fe33c4",
    "dbn-pinned": "d6810e3f59aad4dfbe49070d0f1b13cca512093005914dc008bb02e76dcfc63c",
    "preset": "ecd9d03c48e62535404a4c72f352bb9e5e38a14c4d4e98fb2d56cd69f60f18bb",
}


def _stream_argv(name: str, out_dir) -> list[str]:
    if name == "preset":
        return ["simulate", "--out-dir", str(out_dir), "--behavior-preset",
                "--sessions-per-query", "30"]
    kind, flags = name.split("-")
    return ["simulate", "--out-dir", str(out_dir), "--model", kind, "--queries", "6",
            "--sessions-per-query", "25", "--positions", "5", "--seed", "21",
            *_STREAM_FLAGS[flags]]


class TestStreamPin:
    @pytest.mark.parametrize("name", list(STREAM_DIGESTS))
    def test_outputs_match_pinned_digest(self, tmp_path, name):
        assert run(_stream_argv(name, tmp_path)) == EXIT_OK
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            if not path.name.endswith(".manifest.json"):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == STREAM_DIGESTS[name]


def _oracle_session_prob(params, query, docs, clicks):
    """A base table's probability of one click vector, by brute force."""
    keys = [(query, d) for d in docs]
    rels = [params.rel[k] for k in keys]
    if params.kind == "pbm":
        return oracles.pbm_session_prob([params.exam[i] for i in range(1, len(docs) + 1)],
                                        rels, clicks)
    if params.kind == "cascade":
        return oracles.cascade_session_prob(rels, clicks)
    if params.kind == "ubm":
        return oracles.ubm_session_prob(params.beta, rels, clicks)
    return oracles.dbn_session_prob(rels, [params.sat[k] for k in keys], params.gamma_cont,
                                    clicks)


class TestDistributionalFidelity:
    @pytest.mark.parametrize("kind, flags", [
        ("pbm", {}), ("cascade", {}), ("ubm", {}), ("dbn", {}),
        ("dbn", {"intent_aware": True, "intents_per_query": True}),
    ], ids=["pbm", "cascade", "ubm", "dbn", "dbn-intents-per-query"])
    def test_click_vector_frequencies_match_analytic_probabilities(self, kind, flags):
        config = SimConfig(model_kind=kind, num_queries=1, sessions_per_query=100_000,
                           positions=3, seed=15, **flags)
        truth = generate_ground_truth(config)
        batch = simulate_sessions(truth, config)
        counts = Counter(tuple(clicks) for _, _, _, clicks in batch.records())
        n = len(batch)
        query = next(iter(truth.serps))
        docs = truth.serps[query]
        intent = truth.query_intents[query] if truth.query_intents else Intent.UNKNOWN
        params = resolve_params(truth.params, intent)
        for clicks in itertools.product((0, 1), repeat=3):
            p = _oracle_session_prob(params, query, docs, clicks)
            se = max((p * (1 - p) / n) ** 0.5, 1e-6)
            observed = counts.get(clicks, 0) / n
            assert abs(observed - p) < 3.0 * se + 1e-4, (kind, clicks, observed, p)


class TestDrawnClicks:
    """click_probs with draws returns the probabilities of the clicks it
    draws, clicks exactly where a draw falls below its probability, and
    never clicks in padding."""

    @pytest.mark.parametrize("intent_aware", [False, True], ids=["base", "intent-aware"])
    @pytest.mark.parametrize("kind", ["pbm", "cascade", "ubm", "dbn"])
    def test_drawing_returns_the_drawn_batch_probabilities(self, kind, intent_aware):
        config = SimConfig(model_kind=kind, num_queries=4, positions=5, seed=16,
                           intent_aware=intent_aware)
        truth = generate_ground_truth(config)
        rng = np.random.default_rng(17)
        # Sessions of every intent, Unknown included, cut to lengths 1..5.
        batch = encode_sessions(
            Session("s", q, ALL_INTENTS[t], docs[:m], (0,) * m)
            for q, docs in truth.serps.items()
            for m, t in rng.integers([1, 0], [6, 4], size=(40, 2)).tolist())
        draws = rng.random(batch.pair.shape)
        drawn = click_probs(truth.params, batch, draws)
        assert np.array_equal(batch.clicks, (draws < drawn) & batch.valid)
        assert batch.clicks[batch.valid].any() and not batch.clicks[~batch.valid].any()
        assert np.array_equal(drawn, click_probs(truth.params, batch))


class TestSimConfigValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SimConfig(intent_mix=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("mix", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan)])
    def test_nan_mix_rejected(self, mix):
        with pytest.raises(ValueError):
            SimConfig(intent_mix=mix)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            SimConfig(num_queries=0)

    @pytest.mark.parametrize("field", ["num_queries", "sessions_per_query", "positions"])
    def test_non_integer_counts_rejected(self, field):
        # Accepted, 2.0 would fail later, inside generate_ground_truth.
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.0"):
            SimConfig(**{field: 2.0})

    def test_numpy_integer_counts_accepted(self):
        config = SimConfig(num_queries=np.int64(2), sessions_per_query=np.int32(3),
                           positions=np.int64(4))
        assert len(simulate_sessions(generate_ground_truth(config), config)) == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SimConfig(model_kind="dcm")


@pytest.fixture(scope="module")
def preset():
    return click_behavior_preset()


class TestBehaviorPreset:
    def test_calibrated_cells_are_exact_in_the_parameters(self, preset):
        truth, _ = preset
        params = truth.params

        def rate(intent, query, pos):
            table = params.per_intent[intent]
            doc = truth.serps[query][pos - 1]
            return table.exam[pos] * table.rel[(query, doc)]

        assert rate(Intent.INFORMATIONAL, "preset_inf_t1", 1) == pytest.approx(0.92)
        assert rate(Intent.NAVIGATIONAL, "preset_nav_t1", 1) == pytest.approx(0.96)
        assert rate(Intent.NAVIGATIONAL, "preset_nav_t2", 2) == pytest.approx(0.92)
        total = sum(rate(Intent.NAVIGATIONAL, "preset_nav_t4", p) for p in range(1, 11))
        assert total == pytest.approx(PRESET_NAV_TARGET4_TOTAL_MASS, abs=1e-12)

    def test_informational_examination_decays_faster(self, preset):
        truth, _ = preset
        inf = truth.params.per_intent[Intent.INFORMATIONAL].exam
        nav = truth.params.per_intent[Intent.NAVIGATIONAL].exam
        for pos in range(3, 11):
            assert inf[pos] < nav[pos]

    def test_transactional_copies_navigational_scaled(self, preset):
        truth, _ = preset
        nav = truth.params.per_intent[Intent.NAVIGATIONAL].exam
        tra = truth.params.per_intent[Intent.TRANSACTIONAL].exam
        for pos in range(1, 11):
            assert tra[pos] == pytest.approx(0.98 * nav[pos])

    def test_each_scenario_query_is_intent_pinned(self, preset):
        truth, config = preset
        assert config.intent_aware
        assert truth.query_intents is not None
        assert len(truth.serps) == config.num_queries
        for query, intent in truth.query_intents.items():
            assert query.startswith(f"preset_{intent.value}_")
