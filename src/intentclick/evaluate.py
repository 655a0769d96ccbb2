"""Click-prediction perplexity and NDCG of a fitted model.

Perplexity at position j is two raised to the mean per-session click
log-loss at that position; 1 means perfect prediction and 2 matches a coin
flip. Dataset perplexity is the arithmetic mean over positions. NDCG@K
discounts graded relevance down the ranking and normalizes by the ideal
ordering. The report these fill in, and the comparison of two reports,
live in ``reports``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .common import DEFAULT_K_LIST, PROB_CLAMP, DataError, check_count
from .models import AnyParams, clamp_probability, click_probs, mixed_relevance
from .reports import EvalReport
from .sessions import ALL_INTENTS, Intent, Judgments, SessionBatch


def position_perplexity(predictions: Sequence[float], clicks: Sequence[int]) -> float:
    """Perplexity at one position across sessions.

    predictions[s] is the model's click probability for session s at this
    position, clicks[s] the observed outcome.
    """
    if len(predictions) != len(clicks):
        raise ValueError(f"{len(predictions)} predictions vs {len(clicks)} clicks")
    if not predictions:
        raise ValueError("no sessions cover this position")
    total = 0.0
    for q, c in zip(predictions, clicks):
        q = clamp_probability(q)
        total += math.log2(q) if c else math.log2(1.0 - q)
    return 2.0 ** (-total / len(predictions))


def perplexity_report(params: AnyParams, batch: SessionBatch, label: str = "") -> EvalReport:
    """Evaluate a model's click predictions on held-out sessions.

    Sessions shorter than the deepest one contribute only to the positions
    they contain.
    """
    if not batch:
        raise ValueError("no sessions to evaluate")
    if batch.width == 0:
        raise DataError("no session shows any document, so there is nothing to evaluate")
    q = np.clip(click_probs(params, batch), PROB_CLAMP, 1.0 - PROB_CLAMP)
    log_loss = np.where(batch.clicks > 0, np.log2(q), np.log2(1.0 - q))
    valid = batch.valid
    # Column sums add the sessions in order, one position at a time.
    sums = np.where(valid, log_loss, 0.0).sum(axis=0).tolist()
    position_counts = valid.sum(axis=0).tolist()
    per_position = [2.0 ** (-s / n) for s, n in zip(sums, position_counts)]
    return EvalReport(
        per_position=per_position,
        position_counts=position_counts,
        overall=sum(per_position) / len(per_position),
        n_sessions=len(batch),
        n_queries=batch.n_queries,
        label=label,
    )


def dcg(grades: Sequence[int], k: int) -> float:
    return sum(
        (2.0 ** g - 1.0) / math.log2(i + 1.0) for i, g in enumerate(grades[:k], start=1)
    )


def ndcg_at_k(
    ranked_grades: Sequence[int], ideal_grades: Sequence[int], k: int
) -> float | None:
    """NDCG of a served ranking against the ideal ordering of the same grades.

    Returns None for all-zero grade sets (no ranking signal); callers
    exclude those queries from averages.
    """
    check_count("K", k)
    if sorted(ranked_grades) != sorted(ideal_grades):
        raise DataError("served and ideal grades are not the same multiset")
    if list(ideal_grades) != sorted(ideal_grades, reverse=True):
        raise DataError("ideal grades must be sorted in descending order")
    ideal = dcg(ideal_grades, k)
    if ideal == 0.0:
        return None
    return dcg(ranked_grades, k) / ideal


def _dcg_at_each_k(grades: np.ndarray, query: np.ndarray, width: int) -> np.ndarray:
    """DCG@1..width per query (rows) of grades listed query by query, each
    query's grades in ranked order; positions beyond a query's list add
    nothing. Each row sums its terms in rank order, as ``dcg`` does."""
    counts = np.bincount(query)
    rank = np.arange(len(grades)) - np.repeat(np.cumsum(counts) - counts, counts)
    shown = rank < width
    discount = np.array([math.log2(i + 1.0) for i in range(1, width + 1)])
    terms = np.zeros((len(counts), width))
    terms[query[shown], rank[shown]] = (2.0 ** grades[shown] - 1.0) / discount[rank[shown]]
    return np.cumsum(terms, axis=1)


def ndcg_for_scores(
    scores: np.ndarray,
    judgments: Judgments,
    k_list: Sequence[int] = DEFAULT_K_LIST,
) -> tuple[dict[int, float], int]:
    """Mean NDCG@K over judged queries; ``scores[i]`` scores the pair
    ``judgments.keys[i]``.

    Each query's judged docs are ranked by descending score, ties by
    ascending doc id. Queries whose grades are all zero are excluded, and
    the others are averaged in the order the judgments first name them.
    Returns the averages and the number of queries that counted.
    """
    for k in k_list:
        check_count("K", k)
    keys = judgments.keys
    first: dict[str, int] = {}
    query = np.array([first.setdefault(q, len(first)) for q, _ in keys], dtype=np.int64)
    doc_order = np.empty(len(keys), dtype=np.int64)
    doc_order[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    grades = np.asarray(judgments.grades, dtype=np.int64)
    # Both orders list the queries in code order, so their rows align.
    served = np.lexsort((doc_order, -scores, query))
    ideal = np.lexsort((-grades, query))
    width = min(int(np.bincount(query).max(initial=0)), max(k_list))
    query_sorted = query[ideal]
    served_dcg = _dcg_at_each_k(grades[served], query_sorted, width)
    ideal_dcg = _dcg_at_each_k(grades[ideal], query_sorted, width)
    counted = np.bincount(query, weights=grades, minlength=len(first)) > 0
    n = int(np.count_nonzero(counted))
    if n == 0:
        return {k: float("nan") for k in k_list}, 0
    cols = [min(k, width) - 1 for k in k_list]
    ndcg = served_dcg[counted][:, cols] / ideal_dcg[counted][:, cols]
    # A running sum adds the queries one at a time, in order.
    totals = np.cumsum(ndcg, axis=0)[-1].tolist()
    return {k: total / n for k, total in zip(k_list, totals)}, n


def evaluate_model(
    params: AnyParams,
    batch: SessionBatch,
    judgments: Judgments | None = None,
    k_list: Sequence[int] = DEFAULT_K_LIST,
    label: str = "",
) -> EvalReport:
    """Full evaluation: perplexities always, NDCG when judgments are given.

    NDCG ranks by relevance marginalized over each query's observed intent
    shares, which reduces to the plain per-intent table when every session
    of a query carries the same intent.
    """
    report = perplexity_report(params, batch, label=label)
    if judgments is not None:
        if not judgments:
            raise DataError("no judgments: NDCG needs at least one judged pair")
        scores = mixture_relevance_scorer(params, batch, judgments.keys)
        report.ndcg, report.ndcg_queries = ndcg_for_scores(scores, judgments, k_list)
        if report.ndcg_queries == 0:
            raise DataError("every judged query has only zero grades, so NDCG is undefined")
    return report


def intent_distributions(batch: SessionBatch) -> np.ndarray:
    """Empirical intent shares per query: row q for batch.queries[q], and
    column t the share of its sessions with intent ALL_INTENTS[t]."""
    n_intents = len(ALL_INTENTS)
    cell = batch.query * n_intents + batch.intent
    counts = np.bincount(cell, minlength=batch.n_queries * n_intents).reshape(-1, n_intents)
    return counts / counts.sum(axis=1, keepdims=True)


def mixture_relevance_scorer(
    params: AnyParams, batch: SessionBatch, keys: Sequence[tuple[str, str]]
) -> np.ndarray:
    """Relevance of each (query, doc) key, marginalized over its query's intent mix.

    For intent-aware parameters this weights the per-intent relevance
    estimates by the query's empirical intent shares, which is the
    predicted relevance of a query whose sessions carry mixed intents; the
    order of the sessions does not matter. A query without sessions is
    scored by the Unknown table.
    """
    # Queries the batch never shows take the last row, Unknown's.
    unknown = np.eye(len(ALL_INTENTS))[ALL_INTENTS.index(Intent.UNKNOWN)]
    weights = np.vstack([intent_distributions(batch), unknown])
    code = {q: i for i, q in enumerate(batch.queries)}
    unknown_row = batch.n_queries
    return mixed_relevance(params, keys, weights[[code.get(q, unknown_row) for q, _ in keys]])
