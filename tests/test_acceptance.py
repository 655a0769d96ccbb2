"""Acceptance gate: one test per criterion, at the stated tolerances.

Expensive artifacts (simulated logs and fits) are built once, lazily, and
shared across criteria; wall-clock budgets are measured around the first
construction. Each test prints one PASS line; run with -s to see them.
"""

import itertools
import time

import numpy as np
import pytest

import oracles
from intentclick.evaluate import (
    mixture_relevance_scorer,
    ndcg_at_k,
    ndcg_for_scores,
    perplexity_report,
    position_perplexity,
)
from intentclick.inference import EmConfig, em_fit
from intentclick.intent import (
    FeatureVector,
    classify,
    evaluate_classifier,
    f1_score,
    train_classifier,
)
from intentclick.models import (
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    session_log_likelihood,
    session_prob,
)
from intentclick.reports import perplexity_improvement
from intentclick.sessions import Intent, KNOWN_INTENTS, Session
from intentclick.simulate import (
    SimConfig,
    click_behavior_preset,
    generate_ground_truth,
    simulate_sessions,
)

_CACHE: dict = {}


def _passed(criterion: int, message: str) -> None:
    print(f"CRITERION {criterion}: PASS - {message}")


# ---------------------------------------------------------------------- #
# Published perplexity table: per-position and overall values for the two
# baseline models and their intent-aware versions, with the printed
# improvement rows.
# ---------------------------------------------------------------------- #
PERPLEXITY_TABLE = {
    "ubm": {
        "original": [1.771, 1.310, 1.202, 1.088, 1.083, 1.268],
        "intent_aware": [1.731, 1.295, 1.197, 1.086, 1.082, 1.255],
        "printed_improvement": [5.1, 4.8, 2.4, 2.2, 1.2, 4.8],
    },
    "dbn": {
        "original": [1.765, 1.293, 1.211, 1.107, 1.089, 1.216],
        "intent_aware": [1.724, 1.278, 1.192, 1.089, 1.076, 1.203],
        "printed_improvement": [5.3, 5.1, 9.0, 16.8, 14.0, 6.0],
    },
}

# Published intent-identification metrics: (accuracy-as-precision, recall,
# printed F1) per corpus.
INTENT_METRICS_TABLE = {
    "aol": (0.84, 0.87, 0.85),
    "sogou": (0.78, 0.81, 0.79),
}


def test_criterion_1_perplexity_improvement_arithmetic():
    started = time.monotonic()
    cells = 0
    for rows in PERPLEXITY_TABLE.values():
        for p2, p1, printed in zip(
            rows["original"], rows["intent_aware"], rows["printed_improvement"]
        ):
            recomputed = perplexity_improvement(p1, p2)
            assert recomputed == pytest.approx(printed, abs=1.0), (p1, p2, printed)
            cells += 1
    elapsed = time.monotonic() - started
    assert cells == 12
    assert elapsed < 1.0
    _passed(1, f"all 12 published improvement cells reproduced within 1pp ({elapsed:.3f}s)")


def test_criterion_2_f1_arithmetic():
    started = time.monotonic()
    for precision, recall, printed in INTENT_METRICS_TABLE.values():
        assert f1_score(precision, recall) == pytest.approx(printed, abs=0.005)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(2, f"published F1 values 0.85 and 0.79 reproduced within 0.005 ({elapsed:.3f}s)")


def _recovery_artifacts():
    if "recovery" not in _CACHE:
        started = time.monotonic()
        config = SimConfig(
            model_kind="pbm",
            num_queries=200,
            sessions_per_query=500,
            positions=10,
            seed=42,
            shuffle_serps=True,
        )
        truth = generate_ground_truth(config)
        batch = simulate_sessions(truth, config)
        params, report = em_fit("pbm", batch, EmConfig())
        _CACHE["recovery"] = {
            "truth": truth,
            "params": params,
            "report": report,
            "elapsed": time.monotonic() - started,
        }
    return _CACHE["recovery"]


def test_criterion_3_parameter_recovery_oracle():
    art = _recovery_artifacts()
    truth, params = art["truth"].params, art["params"]
    g_true = np.array([truth.exam[i] for i in range(1, 11)])
    g_est = np.array([params.exam[i] for i in range(1, 11)])
    exam_mae = float(np.abs(g_true / g_true[0] - g_est / g_est[0]).mean())
    assert exam_mae < 0.03

    rel_errors = [
        abs(r * g_true[0] - params.rel[key] * g_est[0])
        for key, r in truth.rel.items()
    ]
    rel_mae = float(np.mean(rel_errors))
    assert rel_mae < 0.03

    click_errors = [
        abs(r * g_true[pos - 1] - params.rel[key] * g_est[pos - 1])
        for key, r in truth.rel.items()
        for pos in range(1, 11)
    ]
    click_mae = float(np.mean(click_errors))
    assert click_mae < 0.02

    assert art["elapsed"] < 60.0
    _passed(
        3,
        f"exam MAE {exam_mae:.4f}, rel MAE {rel_mae:.4f}, click-prob MAE "
        f"{click_mae:.4f} in {art['elapsed']:.1f}s",
    )


def _intent_bias_artifacts():
    if "intent_bias" not in _CACHE:
        started = time.monotonic()
        config = SimConfig(
            model_kind="pbm",
            num_queries=200,
            sessions_per_query=300,
            positions=10,
            intent_mix=(0.5, 0.5, 0.0),
            seed=77,
            intent_aware=True,
        )
        truth = generate_ground_truth(config)
        batch = simulate_sessions(truth, config)
        holdout_from = int(config.sessions_per_query * 0.7)
        # Rows come query by query, so a row's index within its query is
        # its position modulo sessions_per_query.
        in_query = np.arange(len(batch)) % config.sessions_per_query
        train_batch = batch.take(np.flatnonzero(in_query < holdout_from))
        ia_params, ia_report = em_fit("pbm", train_batch, EmConfig(), intent_aware=True)
        base_params, base_report = em_fit("pbm", train_batch, EmConfig())
        _CACHE["intent_bias"] = {
            "truth": truth,
            "train_batch": train_batch,
            "test": batch.take(np.flatnonzero(in_query >= holdout_from)),
            "ia_params": ia_params,
            "base_params": base_params,
            "ia_report": ia_report,
            "base_report": base_report,
            "elapsed": time.monotonic() - started,
        }
    return _CACHE["intent_bias"]


def test_criterion_4_intent_bias_benefit():
    art = _intent_bias_artifacts()
    started = time.monotonic()
    ia_eval = perplexity_report(art["ia_params"], art["test"], label="ia-pbm")
    base_eval = perplexity_report(art["base_params"], art["test"], label="pbm")
    improvement = perplexity_improvement(ia_eval.overall, base_eval.overall)
    elapsed = art["elapsed"] + (time.monotonic() - started)
    assert ia_eval.overall < base_eval.overall
    assert improvement >= 2.0
    assert elapsed < 120.0
    _passed(
        4,
        f"held-out perplexity {base_eval.overall:.4f} -> {ia_eval.overall:.4f}, "
        f"improvement {improvement:.1f}% (>= 2%) in {elapsed:.1f}s",
    )


def test_criterion_5_debiasing_benefit():
    art = _intent_bias_artifacts()
    started = time.monotonic()
    k_list = (1, 3, 5, 7, 10)
    judgments = art["truth"].judgments
    ctr = oracles.empirical_ctr(art["train_batch"])
    ndcg_ctr, _ = ndcg_for_scores(
        np.array([ctr.get(key, 0.0) for key in judgments.keys]), judgments, k_list
    )
    base_scores = art["base_params"].relevance_estimates(judgments.keys)
    ndcg_base, _ = ndcg_for_scores(base_scores, judgments, k_list)
    ia_scores = mixture_relevance_scorer(art["ia_params"], art["train_batch"], judgments.keys)
    ndcg_ia, _ = ndcg_for_scores(ia_scores, judgments, k_list)

    avg_ctr = sum(ndcg_ctr.values()) / len(k_list)
    avg_base = sum(ndcg_base.values()) / len(k_list)
    avg_ia = sum(ndcg_ia.values()) / len(k_list)
    elapsed = art["elapsed"] + (time.monotonic() - started)
    assert avg_base > avg_ctr
    assert avg_ia >= avg_base
    assert elapsed < 120.0
    _passed(
        5,
        f"average NDCG: ctr {avg_ctr:.4f} < em {avg_base:.4f} <= intent-aware "
        f"{avg_ia:.4f} in {elapsed:.1f}s",
    )


def test_criterion_6_normalization_suite():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 5
    query = "q"
    docs = tuple(f"d{i}" for i in range(1, n + 1))
    vectors = list(itertools.product((0, 1), repeat=n))
    checked = 0
    for _ in range(100):
        rels = {(query, d): float(r) for d, r in zip(docs, rng.uniform(0.02, 0.98, n))}
        sats = {(query, d): float(s) for d, s in zip(docs, rng.uniform(0.02, 0.98, n))}
        exam = {i + 1: float(g) for i, g in enumerate(rng.uniform(0.02, 0.98, n))}
        beta = {
            (l, i): float(rng.uniform(0.02, 0.98))
            for l in range(0, n)
            for i in range(l + 1, n + 1)
        }
        models = [
            PbmParams(exam=exam, rel=rels, max_positions=n),
            CascadeParams(rel=rels),
            UbmParams(beta=beta, rel=rels, max_positions=n),
            DbnParams(rel=rels, sat=sats, gamma_cont=float(rng.uniform(0.02, 0.98))),
        ]
        for params in models:
            total = sum(
                session_prob(params, Session("s", query, Intent.UNKNOWN, docs, c))
                for c in vectors
            )
            assert total == pytest.approx(1.0, abs=1e-9), params.kind
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 400
    assert elapsed < 10.0
    _passed(6, f"400 parameter draws normalize over all 32 click vectors ({elapsed:.1f}s)")


def test_criterion_7_em_monotonicity():
    reports = [
        ("recovery fit", _recovery_artifacts()["report"]),
        ("intent-aware fit", _intent_bias_artifacts()["ia_report"]),
        ("intent-agnostic fit", _intent_bias_artifacts()["base_report"]),
    ]
    for name, report in reports:
        diffs = np.diff(np.asarray(report.loglik_trace))
        assert diffs.size > 0
        assert np.all(diffs >= -1e-9), f"{name} decreased by {diffs.min()}"
    _passed(7, "all fit log-likelihood traces non-decreasing (slack 1e-9)")


def test_criterion_8_metric_fixed_points():
    # constant-0.5 predictor: perplexity exactly 2 at every position
    coin = PbmParams(exam={i: 1.0 for i in range(1, 6)}, rel={}, max_positions=5)
    rng = np.random.default_rng(8)
    sessions = [
        Session(
            f"s{i}",
            "q",
            Intent.UNKNOWN,
            tuple(f"d{j}" for j in range(5)),
            tuple(int(c) for c in rng.integers(0, 2, 5)),
        )
        for i in range(64)
    ]
    for j in range(5):
        probs = [coin.conditional_click_probs(s)[j] for s in sessions]
        clicks = [s.clicks[j] for s in sessions]
        assert position_perplexity(probs, clicks) == 2.0

    # ideal ranking scores exactly 1 at every cutoff
    for grades in ([4, 3, 2, 1, 0], [2, 2, 1, 0, 0], [4, 0, 0, 0, 0]):
        for k in range(1, 11):
            assert ndcg_at_k(grades, grades, k) == 1.0

    # identical per-intent tables collapse to the base model bit for bit
    base = PbmParams(
        exam={i + 1: g for i, g in enumerate([0.95, 0.7, 0.45, 0.3, 0.2])},
        rel={("q", f"d{j}"): float(r) for j, r in enumerate(rng.uniform(0.05, 0.95, 5))},
        max_positions=5,
    )
    collapsed = IntentAwareParams(
        per_intent={t: base for t in KNOWN_INTENTS}, fallback=base
    )
    for s in sessions:
        for intent in (*KNOWN_INTENTS, Intent.UNKNOWN):
            labeled = Session(s.session_id, s.query_id, intent, s.docs, s.clicks)
            assert session_log_likelihood(collapsed, labeled) == (
                session_log_likelihood(base, labeled)
            )
    _passed(8, "perplexity==2.0 on coin flips, NDCG==1.0 on ideal, intent collapse exact")


def test_criterion_9_preset_calibration():
    truth, config = click_behavior_preset()
    batch = simulate_sessions(truth, config)
    counts = dict(zip(batch.queries, np.bincount(batch.query).tolist()))
    rates = {
        q: batch.clicks[batch.query == k].sum(axis=0) / counts[q]
        for k, q in enumerate(batch.queries)
    }
    tol = 0.015
    checks = [
        ("informational target at 1", rates["preset_inf_t1"][0], 0.92),
        ("navigational target at 1", rates["preset_nav_t1"][0], 0.96),
        ("navigational target at 2", rates["preset_nav_t2"][1], 0.92),
        ("navigational target-at-4 mass", float(rates["preset_nav_t4"].sum()), 0.97),
    ]
    for name, observed, expected in checks:
        assert abs(observed - expected) < tol, (name, observed, expected)
    assert all(counts[q] == 50_000 for q in counts)
    summary = ", ".join(f"{obs:.3f}~{exp}" for _, obs, exp in checks)
    _passed(9, f"50k-session preset rates within 1.5pp: {summary}")


def _separable_intent_features(n_per_class=500, bow_dim=64, seed=1001):
    rng = np.random.default_rng(seed)
    centers = {
        Intent.INFORMATIONAL: (0.10, 0.25, 0.35, 0.45, 4.5),
        Intent.NAVIGATIONAL: (0.65, 0.85, 0.92, 0.95, 1.8),
        Intent.TRANSACTIONAL: (0.25, 0.55, 0.70, 0.70, 3.2),
    }
    marker = {
        Intent.INFORMATIONAL: 7,
        Intent.NAVIGATIONAL: 19,
        Intent.TRANSACTIONAL: 43,
    }
    features, labels = [], []
    for intent in KNOWN_INTENTS:
        head_center = np.asarray(centers[intent][:4])
        for _ in range(n_per_class):
            head = np.clip(head_center + rng.normal(0.0, 0.05, 4), 0.0, 1.0)
            bow = np.zeros(bow_dim)
            bow[marker[intent]] += 1.0
            bow[rng.integers(0, bow_dim)] += 1.0
            features.append(
                FeatureVector(
                    urlmr=float(head[0]),
                    max_click_ratio=float(head[1]),
                    ncs=float(head[2]),
                    nrs=float(head[3]),
                    query_length=max(1, int(round(centers[intent][4] + rng.normal(0, 0.6)))),
                    bow=bow,
                )
            )
            labels.append(intent)
    return features, labels


def test_criterion_10_classifier_sanity():
    features, labels = _separable_intent_features()
    split = len(features) // 2
    order = np.random.default_rng(5).permutation(len(features))
    train_idx, test_idx = order[:split], order[split:]
    model = train_classifier(
        [features[i] for i in train_idx], [labels[i] for i in train_idx]
    )
    predictions = [classify(model, features[i])[0] for i in test_idx]
    truth = [labels[i] for i in test_idx]
    metrics = evaluate_classifier(predictions, truth)
    assert metrics.macro.f1 >= 0.95
    _passed(10, f"macro-F1 {metrics.macro.f1:.4f} on held-out separable queries (>= 0.95)")
