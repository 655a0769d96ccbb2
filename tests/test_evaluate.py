"""Perplexity, improvement arithmetic, NDCG, and comparison tables."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from intentclick.common import DataError, write_json
from intentclick.evaluate import (
    dcg,
    evaluate_model,
    intent_distributions,
    mixture_relevance_scorer,
    ndcg_at_k,
    ndcg_for_scores,
    perplexity_report,
    position_perplexity,
)
from intentclick.reports import (
    ComparabilityError,
    EvalReport,
    compare_models,
    format_comparison_table,
    format_report,
    load_report,
    perplexity_improvement,
    save_report,
)
from intentclick.models import IntentAwareParams, PbmParams, resolve_params
from intentclick.sessions import (ALL_INTENTS, KNOWN_INTENTS, Intent, Judgments,
                                  Session, encode_sessions)


def _session(clicks, query="q1", intent=Intent.UNKNOWN, sid="s"):
    docs = tuple(f"d{i}" for i in range(1, len(clicks) + 1))
    return Session(sid, query, intent, docs, tuple(clicks))


def _pbm(gammas, rels, query="q1"):
    exam = {i + 1: g for i, g in enumerate(gammas)}
    rel = {(query, f"d{i + 1}"): r for i, r in enumerate(rels)}
    return PbmParams(exam=exam, rel=rel, max_positions=len(gammas))


class TestPositionPerplexity:
    def test_coin_flip_predictor_is_exactly_two(self):
        assert position_perplexity([0.5, 0.5, 0.5], [1, 0, 1]) == 2.0

    def test_near_perfect_predictions_approach_one(self):
        eps = 1e-9
        q = [1 - eps, eps, 1 - eps, eps]
        c = [1, 0, 1, 0]
        assert position_perplexity(q, c) == pytest.approx(1.0, abs=1e-6)

    def test_single_session_quarter_probability(self):
        assert position_perplexity([0.25], [1]) == pytest.approx(4.0)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.uniform(0, 1, 20)
            c = rng.integers(0, 2, 20)
            assert position_perplexity(q.tolist(), c.tolist()) >= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            position_perplexity([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            position_perplexity([0.5], [1, 0])


class TestPerplexityImprovement:
    def test_published_overall_pair(self):
        assert perplexity_improvement(1.255, 1.268) == pytest.approx(4.85, abs=0.01)

    def test_published_position_pair(self):
        assert perplexity_improvement(1.089, 1.107) == pytest.approx(16.8, abs=0.05)

    def test_equal_perplexities_give_zero(self):
        assert perplexity_improvement(1.3, 1.3) == 0.0

    def test_degenerate_baseline_rejected(self):
        with pytest.raises(ValueError):
            perplexity_improvement(1.1, 1.0)

    def test_sign_tracks_direction(self):
        assert perplexity_improvement(1.2, 1.4) > 0
        assert perplexity_improvement(1.4, 1.2) < 0


class TestPerplexityReport:
    def test_short_sessions_only_count_where_present(self):
        params = _pbm([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        sessions = [
            _session((1, 0, 1), sid="a"),
            _session((0, 1), sid="b"),
            _session((1,), sid="c"),
        ]
        report = perplexity_report(params, encode_sessions(sessions))
        assert report.position_counts == [3, 2, 1]
        assert report.per_position == [2.0, 2.0, 2.0]
        assert report.overall == pytest.approx(2.0)
        assert report.n_sessions == 3 and report.n_queries == 1

    def test_overall_is_arithmetic_mean(self):
        params = _pbm([0.9, 0.4], [0.7, 0.2])
        rng = np.random.default_rng(1)
        sessions = [
            _session(tuple(int(x) for x in rng.integers(0, 2, 2)), sid=f"s{i}")
            for i in range(40)
        ]
        report = perplexity_report(params, encode_sessions(sessions))
        assert report.overall == pytest.approx(
            sum(report.per_position) / len(report.per_position)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perplexity_report(_pbm([0.5], [0.5]), encode_sessions([]))


class TestNdcg:
    def test_ideal_ranking_scores_one(self):
        assert ndcg_at_k([3, 2, 1, 0], [3, 2, 1, 0], 4) == 1.0

    def test_two_doc_example(self):
        value = ndcg_at_k([0, 1], [1, 0], 2)
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-4)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_matches_dcg_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            grades = [int(g) for g in rng.integers(0, 5, 6)]
            if not any(grades):
                continue
            served = list(grades)
            rng.shuffle(served)
            ideal = sorted(grades, reverse=True)
            k = int(rng.integers(1, 7))
            expected = oracles.dcg_at_k(served, k) / oracles.dcg_at_k(ideal, k)
            assert ndcg_at_k(served, ideal, k) == pytest.approx(expected)

    def test_log_base_cancels(self):
        rng = np.random.default_rng(3)
        grades = [int(g) for g in rng.integers(0, 5, 5)]
        served = list(grades)
        rng.shuffle(served)
        ideal = sorted(grades, reverse=True)
        for k in (1, 3, 5):
            base2 = oracles.dcg_at_k(served, k, base=2.0) / oracles.dcg_at_k(ideal, k, base=2.0)
            base_e = oracles.dcg_at_k(served, k, base=math.e) / oracles.dcg_at_k(ideal, k, base=math.e)
            assert base2 == pytest.approx(base_e, abs=1e-12)
            assert ndcg_at_k(served, ideal, k) == pytest.approx(base2)

    def test_all_zero_grades_are_undefined(self):
        assert ndcg_at_k([0, 0, 0], [0, 0, 0], 2) is None

    def test_cut_off_below_one_rejected(self):
        with pytest.raises(ValueError, match="K must be >= 1, got 0"):
            ndcg_at_k([1, 0], [1, 0], 0)
        judgments = Judgments([("q1", "a"), ("q1", "b")], [1, 0])
        with pytest.raises(ValueError, match="K must be >= 1, got 0"):
            ndcg_for_scores(np.array([0.5, 0.4]), judgments, (1, 0))

    def test_multiset_mismatch_rejected(self):
        with pytest.raises(DataError):
            ndcg_at_k([1, 2], [2, 2], 2)

    def test_unsorted_ideal_rejected(self):
        with pytest.raises(DataError):
            ndcg_at_k([1, 2], [1, 2], 2)

    def test_value_invariant_to_equal_grade_swaps(self):
        served_a = [2, 1, 1, 0]
        served_b = [2, 1, 1, 0]  # same grades, different docs behind them
        ideal = [2, 1, 1, 0]
        for k in (1, 2, 3, 4):
            assert ndcg_at_k(served_a, ideal, k) == ndcg_at_k(served_b, ideal, k)

    def test_maximal_iff_prefix_matches_ideal_grades(self):
        ideal = [3, 2, 1, 0]
        assert ndcg_at_k([3, 2, 0, 1], ideal, 2) == 1.0
        assert ndcg_at_k([2, 3, 1, 0], ideal, 2) < 1.0


def _scores(score, keys):
    """The score array of ``keys`` from a (query, doc) -> score function."""
    return np.array([score(q, d) for q, d in keys])


def _ndcg_of_order(params, grades, k_list=(1, 2, 3)):
    """ndcg_for_scores over one query judged with ``grades`` (doc -> grade),
    scored by the params' relevance estimates, each looked up on its own."""
    judgments = Judgments([("q1", doc) for doc in grades], list(grades.values()))
    scores = _scores(lambda q, d: params.relevance_estimates([(q, d)])[0], judgments.keys)
    return ndcg_for_scores(scores, judgments, k_list)[0]


def _expected_ndcg(order, grades, k_list=(1, 2, 3)):
    """NDCG@K of serving the docs in ``order``."""
    ideal = sorted(grades.values(), reverse=True)
    return {k: ndcg_at_k([grades[d] for d in order], ideal, k) for k in k_list}


class TestRanking:
    """ndcg_for_scores ranks each query's judged docs by score, ties by
    ascending doc id. Distinct grades make NDCG@1..3 identify the order."""

    def test_orders_by_relevance(self):
        params = _pbm([0.9, 0.9, 0.9], [0.9, 0.1, 0.5])
        grades = {"d1": 0, "d2": 2, "d3": 1}
        got = _ndcg_of_order(params, grades)
        assert got == _expected_ndcg(["d1", "d3", "d2"], grades)

    def test_ties_break_lexicographically(self):
        params = PbmParams(exam={1: 0.9}, rel={}, max_positions=1)
        grades = {"b": 1, "a": 0, "c": 2}
        got = _ndcg_of_order(params, grades)
        assert got == _expected_ndcg(["a", "b", "c"], grades)

    def test_intent_aware_tables_can_disagree(self):
        per_intent = {
            Intent.INFORMATIONAL: _pbm([0.9], [0.9]),
            Intent.NAVIGATIONAL: _pbm([0.9], [0.1]),
            Intent.TRANSACTIONAL: _pbm([0.9], [0.5]),
        }
        ia = IntentAwareParams(per_intent=per_intent, fallback=_pbm([0.9], [0.5]))
        grades = {"d1": 1, "zz": 0}
        inf = _ndcg_of_order(resolve_params(ia, Intent.INFORMATIONAL), grades, (1,))
        nav = _ndcg_of_order(resolve_params(ia, Intent.NAVIGATIONAL), grades, (1,))
        assert inf == {1: 1.0}  # d1 first
        assert nav == {1: 0.0}  # 0.1 below the 0.5 default of unseen zz


_QUERIES = ("q0", "q1", "q2", "q3")


@st.composite
def _ndcg_cases(draw):
    """Judgments interleaved across queries, some all-zero, over few doc
    ids and few relevance values (so ties are common); per-intent PBM
    tables; sessions with mixed intents for some queries and none for
    others; and cut-offs up to past the longest judged list."""
    judged = []
    for query in _QUERIES[: draw(st.integers(1, len(_QUERIES)))]:
        docs = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
        zero = draw(st.booleans())
        judged += [(query, d, 0 if zero else draw(st.integers(0, 4))) for d in docs]
    judged = draw(st.permutations(judged))
    tables = {
        t: {(q, d): draw(st.sampled_from((0.1, 0.3, 0.5, 0.7)))
            for q, d, _ in judged if draw(st.booleans())}
        for t in ALL_INTENTS
    }
    shown = draw(st.permutations([
        (q, t) for q in _QUERIES for t in draw(st.lists(st.sampled_from(ALL_INTENTS), max_size=6))
    ]))
    sessions = [Session(f"s{i}", q, t, ("a",), (0,)) for i, (q, t) in enumerate(shown)]
    k_list = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True))
    return judged, tables, sessions, k_list


class TestArrayNdcgOracle:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_ndcg_cases())
    def test_matches_per_query_loop_exactly(self, case):
        judged, tables, sessions, k_list = case
        pbm = {t: PbmParams(exam={1: 0.5}, rel=rel, max_positions=1) for t, rel in tables.items()}
        params = IntentAwareParams(per_intent={t: pbm[t] for t in KNOWN_INTENTS},
                                   fallback=pbm[Intent.UNKNOWN])

        def mixture(query, doc):
            counts = {}
            for s in sessions:
                if s.query_id == query:
                    counts[s.intent] = counts.get(s.intent, 0) + 1
            if not counts:
                return tables[Intent.UNKNOWN].get((query, doc), 0.5)
            n, total = sum(counts.values()), 0.0
            for intent in ALL_INTENTS:
                if intent in counts:
                    total += counts[intent] / n * tables[intent].get((query, doc), 0.5)
            return total

        judgments = Judgments([(q, d) for q, d, _ in judged], [g for _, _, g in judged])
        scores = mixture_relevance_scorer(params, encode_sessions(sessions), judgments.keys)
        assert scores.tolist() == [mixture(q, d) for q, d, _ in judged]
        got, counted = ndcg_for_scores(scores, judgments, k_list)
        want, want_counted = oracles.mean_ndcg_per_query(judged, mixture, k_list)
        assert counted == want_counted
        if counted:
            assert got == want
        else:
            assert all(math.isnan(v) for v in got.values())


    def test_query_mean_adds_queries_in_their_order(self):
        # Forty queries, so a pairwise sum would round differently.
        rng = np.random.default_rng(5)
        judged = [(f"q{i}", f"d{j}", int(rng.integers(0, 5))) for i in range(40) for j in range(5)]
        scores = {(q, d): float(rng.uniform()) for q, d, _ in judged}
        judgments = Judgments([(q, d) for q, d, _ in judged], [g for _, _, g in judged])
        got = ndcg_for_scores(_scores(lambda q, d: scores[(q, d)], judgments.keys), judgments,
                              (1, 3, 10))
        assert got == oracles.mean_ndcg_per_query(judged, lambda q, d: scores[(q, d)], (1, 3, 10))


class TestCtrAndScorers:
    def test_empirical_ctr(self):
        sessions = [_session((1, 0)), _session((1, 1)), _session((0, 0))]
        ctr = oracles.empirical_ctr(encode_sessions(sessions))
        assert ctr[("q1", "d1")] == pytest.approx(2 / 3)
        assert ctr[("q1", "d2")] == pytest.approx(1 / 3)

    def test_ndcg_for_scores_excludes_zero_grade_queries(self):
        judgments = Judgments([("q1", "a"), ("q1", "b"), ("q2", "a"), ("q2", "b")], [2, 0, 0, 0])
        values, counted = ndcg_for_scores(_scores(lambda q, d: 1.0, judgments.keys), judgments,
                                          (1, 2))
        assert counted == 1

    def test_mixture_scorer_weights_by_intent_shares(self):
        per_intent = {
            Intent.INFORMATIONAL: _pbm([0.9], [0.8]),
            Intent.NAVIGATIONAL: _pbm([0.9], [0.2]),
            Intent.TRANSACTIONAL: _pbm([0.9], [0.5]),
        }
        ia = IntentAwareParams(per_intent=per_intent, fallback=_pbm([0.9], [0.5]))
        sessions = [
            _session((0,), intent=Intent.INFORMATIONAL, sid="a"),
            _session((0,), intent=Intent.INFORMATIONAL, sid="b"),
            _session((0,), intent=Intent.NAVIGATIONAL, sid="c"),
            _session((0,), intent=Intent.NAVIGATIONAL, sid="d"),
        ]
        scores = mixture_relevance_scorer(ia, encode_sessions(sessions), [("q1", "d1")])
        assert scores[0] == pytest.approx(0.5 * 0.8 + 0.5 * 0.2)

    def test_intent_helpers(self):
        sessions = [
            _session((0,), intent=Intent.NAVIGATIONAL, sid="a"),
            _session((0,), intent=Intent.NAVIGATIONAL, sid="b"),
            _session((0,), intent=Intent.INFORMATIONAL, sid="c"),
        ]
        shares = intent_distributions(encode_sessions(sessions))
        nav = ALL_INTENTS.index(Intent.NAVIGATIONAL)
        assert shares[0, nav] == pytest.approx(2 / 3)


class TestSessionOrder:
    def test_mixed_scores_and_ndcg_ignore_session_order(self):
        # Four intents per query, so the order of adding the shares matters.
        rng = np.random.default_rng(11)
        queries, docs = [f"q{i}" for i in range(30)], [f"d{j}" for j in range(5)]
        pbm = {t: PbmParams(exam={1: 0.5}, max_positions=1,
                            rel={(q, d): float(rng.uniform()) for q in queries for d in docs})
               for t in ALL_INTENTS}
        params = IntentAwareParams(per_intent={t: pbm[t] for t in KNOWN_INTENTS},
                                   fallback=pbm[Intent.UNKNOWN])
        sessions = [Session(f"{q}:{k}", q, ALL_INTENTS[k % 4], ("d0",), (0,))
                    for q in queries for k in range(int(rng.integers(4, 12)))]
        judgments = Judgments([(q, d) for q in queries for d in docs],
                              rng.integers(0, 5, size=len(queries) * len(docs)).tolist())
        want = mixture_relevance_scorer(params, encode_sessions(sessions), judgments.keys)
        want_ndcg = evaluate_model(params, encode_sessions(sessions), judgments).ndcg
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(sessions))
            batch = encode_sessions([sessions[i] for i in order])
            assert mixture_relevance_scorer(params, batch, judgments.keys).tolist() == want.tolist()
            assert evaluate_model(params, batch, judgments).ndcg == want_ndcg


class TestCompareModels:
    def _report(self, per_position, counts=None, ndcg=None, label=""):
        counts = counts or [100] * len(per_position)
        return EvalReport(
            per_position=list(per_position),
            position_counts=list(counts),
            overall=sum(per_position) / len(per_position),
            n_sessions=counts[0],
            n_queries=10,
            ndcg=dict(ndcg or {}),
            label=label,
        )

    def test_identical_reports_give_zero_improvements(self):
        report = self._report([1.5, 1.3], ndcg={1: 0.7, 3: 0.8})
        cmp = compare_models(report, report)
        assert cmp.improvements == [0.0, 0.0]
        assert cmp.overall_improvement == 0.0
        assert cmp.ndcg_deltas == {1: 0.0, 3: 0.0}

    def test_strictly_better_treatment_is_positive_everywhere(self):
        base = self._report([1.8, 1.4, 1.2])
        treat = self._report([1.7, 1.35, 1.15])
        cmp = compare_models(base, treat)
        assert all(i > 0 for i in cmp.improvements)
        assert cmp.overall_improvement > 0

    def test_mismatched_session_sets_rejected(self):
        base = self._report([1.5, 1.3])
        treat = self._report([1.5, 1.3], counts=[99, 99])
        with pytest.raises(ComparabilityError):
            compare_models(base, treat)

    @pytest.mark.parametrize("count", ["n_queries", "ndcg_queries"])
    def test_mismatched_query_counts_rejected(self, count):
        # Equal cut-offs averaged over different queries are no comparison.
        base = self._report([1.5, 1.3], ndcg={1: 0.5})
        treat = replace(base, **{count: getattr(base, count) + 1})
        with pytest.raises(ComparabilityError):
            compare_models(base, treat)

    def test_mismatched_k_lists_rejected(self):
        base = self._report([1.5], ndcg={1: 0.5})
        treat = self._report([1.5], ndcg={3: 0.5})
        with pytest.raises(ComparabilityError):
            compare_models(base, treat)

    def test_published_improvement_row_recomputed(self):
        base = self._report([1.771, 1.310, 1.202, 1.088, 1.083])
        treat = self._report([1.731, 1.295, 1.197, 1.086, 1.082])
        cmp = compare_models(base, treat)
        printed = [5.1, 4.8, 2.4, 2.2, 1.2]
        for got, want in zip(cmp.improvements, printed):
            assert got == pytest.approx(want, abs=1.0)

    def test_table_rendering(self):
        base = self._report([1.771, 1.310], ndcg={1: 0.6, 3: 0.65}, label="ubm")
        treat = self._report([1.731, 1.295], ndcg={1: 0.66, 3: 0.7}, label="ia-ubm")
        text = format_comparison_table(compare_models(base, treat))
        assert "@1" in text and "Overall" in text and "Impr." in text
        assert "ubm" in text and "ia-ubm" in text
        assert "NDCG" in text

    def test_single_report_rendering(self):
        report = self._report([1.771, 1.310], ndcg={1: 0.6}, label="dbn")
        text = format_report(report)
        assert "@1" in text and "Overall" in text and "dbn" in text
        assert "1.771" in text and "NDCG" in text


class TestReportIo:
    def test_roundtrip(self, tmp_path):
        report = EvalReport(
            per_position=[1.5, 1.2],
            position_counts=[10, 8],
            overall=1.35,
            n_sessions=10,
            n_queries=3,
            ndcg={1: 0.5, 5: 0.75},
            ndcg_queries=3,
            label="pbm",
        )
        path = tmp_path / "report.json"
        save_report(path, report)
        assert load_report(path) == report

    def test_evaluate_model_attaches_ndcg(self):
        params = _pbm([0.9, 0.9], [0.8, 0.3])
        sessions = [_session((1, 0), sid=f"s{i}") for i in range(5)]
        judgments = Judgments([("q1", "d1"), ("q1", "d2")], [3, 1])
        report = evaluate_model(params, encode_sessions(sessions), judgments=judgments,
                                k_list=(1, 2))
        assert set(report.ndcg) == {1, 2}
        assert report.ndcg_queries == 1
        assert report.ndcg[1] == 1.0

    def test_dcg_helper(self):
        assert dcg([2, 1], 2) == pytest.approx((2 ** 2 - 1) / 1.0 + 1.0 / math.log2(3))


def _pinned_report(per_position, ndcg, label):
    return EvalReport(per_position=per_position, position_counts=[8, 6],
                      overall=sum(per_position) / len(per_position), n_sessions=8,
                      n_queries=3, ndcg=ndcg, ndcg_queries=3 if ndcg else 0, label=label)


class TestPinnedFormats:
    """Exact text and bytes of the rendered tables and saved JSON reports.

    Values are exact binary fractions, so every cell is pinned without
    rounding noise; K=10 pins the string order of the NDCG keys."""

    BASE = _pinned_report([1.5, 1.25], {1: 0.5, 3: 0.625, 10: 0.75}, "pbm")
    TREAT = _pinned_report([1.25, 1.125], {1: 0.75, 3: 0.625, 10: 0.5}, "ia-pbm")
    BASE_DOC = {"label": "pbm", "n_queries": 3, "n_sessions": 8,
                "ndcg": {"1": 0.5, "3": 0.625, "10": 0.75}, "ndcg_queries": 3,
                "overall": 1.375, "per_position": [1.5, 1.25], "position_counts": [8, 6]}
    TREAT_DOC = {**BASE_DOC, "label": "ia-pbm", "ndcg": {"1": 0.75, "3": 0.625, "10": 0.5},
                 "overall": 1.1875, "per_position": [1.25, 1.125]}

    def test_report_text(self):
        assert format_report(self.BASE) == (
            "         @1       @2       Overall\n"
            "pbm      1.500    1.250    1.375\n"
            "\n"
            "NDCG     @1       @3       @10\n"
            "pbm      0.5000   0.6250   0.7500"
        )
        assert format_report(_pinned_report([1.5, 1.25], {}, "")) == (
            "         @1       @2       Overall\n"
            "model    1.500    1.250    1.375"
        )

    def test_comparison_text_with_ndcg(self):
        assert format_comparison_table(compare_models(self.BASE, self.TREAT)) == (
            "         @1       @2       Overall\n"
            "pbm      1.500    1.250    1.375\n"
            "ia-pbm   1.250    1.125    1.188\n"
            "Impr.    50.0%    50.0%    50.0%\n"
            "\n"
            "NDCG     @1       @3       @10\n"
            "pbm      0.5000   0.6250   0.7500\n"
            "ia-pbm   0.7500   0.6250   0.5000\n"
            "delta    +0.2500  +0.0000  -0.2500"
        )

    def test_comparison_text_without_ndcg(self):
        base = _pinned_report([1.5, 1.25], {}, "")
        treat = _pinned_report([1.25, 1.125], {}, "")
        assert format_comparison_table(compare_models(base, treat)) == (
            "           @1         @2         Overall\n"
            "base       1.500      1.250      1.375\n"
            "treatment  1.250      1.125      1.188\n"
            "Impr.      50.0%      50.0%      50.0%"
        )

    def test_saved_report_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(path, self.BASE)
        assert path.read_text() == json.dumps(self.BASE_DOC, sort_keys=True, indent=1) + "\n"

    def test_comparison_json_bytes(self, tmp_path):
        path = tmp_path / "cmp.json"
        write_json(path, compare_models(self.BASE, self.TREAT).to_json())
        doc = {"base": self.BASE_DOC, "treatment": self.TREAT_DOC,
               "improvements": [50.0, 50.0], "overall_improvement": 50.0,
               "ndcg_deltas": {"1": 0.25, "3": 0.0, "10": -0.25}}
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
