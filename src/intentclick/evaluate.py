"""Click-prediction perplexity, NDCG, and model comparison reports.

Perplexity at position j is two raised to the mean per-session click
log-loss at that position; 1 means perfect prediction and 2 matches a coin
flip. Dataset perplexity is the arithmetic mean over positions. NDCG@K
discounts graded relevance down the ranking and normalizes by the ideal
ordering. Comparisons render in the familiar rows-by-positions layout with
an improvement row computed as (p2 - p1) / (p2 - 1) * 100%.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .models import AnyParams, PROB_CLAMP, clamp_probability, click_probs, resolve_params
from .sessions import (JSON_NUMBER_TYPES, Intent, RelevanceJudgment, Session,
                       encode_sessions, read_json, write_json)

DEFAULT_K_LIST = (1, 3, 5, 7, 10)


class ComparabilityError(DataError):
    """Two reports were not evaluated on the same data, so cells don't align."""


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


def perplexity_improvement(p1: float, p2: float) -> float:
    """Percent improvement of perplexity p1 over baseline p2."""
    if p2 <= 1.0:
        raise ValueError(f"baseline perplexity must exceed 1, got {p2}")
    return (p2 - p1) / (p2 - 1.0) * 100.0


@dataclass
class EvalReport:
    """Per-position and overall perplexities, NDCG, and coverage counts."""

    per_position: list[float]
    position_counts: list[int]
    overall: float
    n_sessions: int
    n_queries: int
    ndcg: dict[int, float] = field(default_factory=dict)
    ndcg_queries: int = 0
    label: str = ""

    def to_json(self) -> dict:
        return {**asdict(self), "ndcg": {str(k): v for k, v in self.ndcg.items()}}

    @classmethod
    def from_json(cls, doc: Mapping) -> "EvalReport":
        """Fields checked, not cast: perplexities and NDCG values must be
        JSON numbers, counts JSON integers and the label a string."""
        try:
            per_position, counts = doc["per_position"], doc["position_counts"]
            ndcg, label = doc.get("ndcg", {}), doc.get("label", "")
            numbers = [*per_position, doc["overall"], *ndcg.values()]
            integers = [*counts, doc["n_sessions"], doc["n_queries"], doc.get("ndcg_queries", 0)]
            # One pass over the value types, then the conversion.
            if not (type(per_position) is list and type(counts) is list and type(label) is str
                    and set(map(type, numbers)) <= JSON_NUMBER_TYPES
                    and set(map(type, integers)) <= {int}):
                raise TypeError("per_position and position_counts must be arrays, perplexities "
                                "and NDCG values numbers, counts integers and label a string")
            return cls(
                per_position=[float(x) for x in per_position],
                position_counts=counts,
                overall=float(doc["overall"]),
                n_sessions=doc["n_sessions"],
                n_queries=doc["n_queries"],
                ndcg={int(k): float(v) for k, v in ndcg.items()},
                ndcg_queries=doc.get("ndcg_queries", 0),
                label=label,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad evaluation report: {exc}") from None


def _render(rows: list[list[str]]) -> str:
    """Rows of cells, left-aligned in columns of one width; [] is a blank line."""
    width = max(len(cell) for row in rows for cell in row) + 2
    return "\n".join("".join(cell.ljust(width) for cell in row).rstrip() for row in rows)


def _perplexity_rows(labeled: list[tuple[str, EvalReport]]) -> list[list[str]]:
    """Header @1..@N and Overall, then one perplexity row per (label, report)."""
    n = len(labeled[0][1].per_position)
    rows = [[""] + [f"@{j}" for j in range(1, n + 1)] + ["Overall"]]
    for label, report in labeled:
        rows.append([label] + [f"{p:.3f}" for p in report.per_position] + [f"{report.overall:.3f}"])
    return rows


def _ndcg_rows(labeled: list[tuple[str, EvalReport]], ks: list[int]) -> list[list[str]]:
    """A blank line, header NDCG @K..., then one NDCG row per (label, report)."""
    rows = [[], ["NDCG"] + [f"@{k}" for k in ks]]
    for label, report in labeled:
        rows.append([label] + [f"{report.ndcg[k]:.4f}" for k in ks])
    return rows


def format_report(report: EvalReport) -> str:
    """Aligned text rendering of one report: positions, overall, NDCG."""
    labeled = [(report.label or "model", report)]
    rows = _perplexity_rows(labeled)
    if report.ndcg:
        rows += _ndcg_rows(labeled, sorted(report.ndcg))
    return _render(rows)


def save_report(path, report: EvalReport) -> None:
    write_json(path, report.to_json())


def load_report(path) -> EvalReport:
    return EvalReport.from_json(read_json(path, "report document"))


def perplexity_report(
    params: AnyParams, sessions: Sequence[Session], label: str = ""
) -> EvalReport:
    """Evaluate a model's click predictions on held-out sessions.

    Sessions shorter than the deepest one contribute only to the positions
    they contain.
    """
    if not sessions:
        raise ValueError("no sessions to evaluate")
    batch = encode_sessions(sessions)
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
        n_sessions=len(sessions),
        n_queries=len({s.query_id for s in sessions}),
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
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if sorted(ranked_grades) != sorted(ideal_grades):
        raise DataError("served and ideal grades are not the same multiset")
    if list(ideal_grades) != sorted(ideal_grades, reverse=True):
        raise DataError("ideal grades must be sorted in descending order")
    ideal = dcg(ideal_grades, k)
    if ideal == 0.0:
        return None
    return dcg(ranked_grades, k) / ideal


def empirical_ctr(sessions: Iterable[Session]) -> dict[tuple[str, str], float]:
    """Raw click-through rate per (query, doc): clicks over impressions."""
    clicks: dict[tuple[str, str], int] = {}
    shows: dict[tuple[str, str], int] = {}
    for s in sessions:
        for doc, c in zip(s.docs, s.clicks):
            key = (s.query_id, doc)
            shows[key] = shows.get(key, 0) + 1
            clicks[key] = clicks.get(key, 0) + c
    return {key: clicks[key] / shows[key] for key in shows}


def ndcg_for_scores(
    score: Callable[[str, str], float],
    judgments: Sequence[RelevanceJudgment],
    k_list: Sequence[int] = DEFAULT_K_LIST,
) -> tuple[dict[int, float], int]:
    """Mean NDCG@K over judged queries for an arbitrary (query, doc) scorer.

    Queries whose grades are all zero are excluded; returns the averages and
    the number of queries that counted.
    """
    by_query: dict[str, list[RelevanceJudgment]] = {}
    for j in judgments:
        by_query.setdefault(j.query_id, []).append(j)
    totals = {k: 0.0 for k in k_list}
    counted = 0
    for query_id, judged in by_query.items():
        grades = {j.doc_id: j.grade for j in judged}
        ranked_docs = sorted(grades, key=lambda d: (-score(query_id, d), d))
        ranked = [grades[d] for d in ranked_docs]
        ideal = sorted(grades.values(), reverse=True)
        values = {k: ndcg_at_k(ranked, ideal, k) for k in k_list}
        if any(v is None for v in values.values()):
            continue
        counted += 1
        for k in k_list:
            totals[k] += values[k]
    if counted == 0:
        return {k: float("nan") for k in k_list}, 0
    return {k: totals[k] / counted for k in k_list}, counted


def evaluate_model(
    params: AnyParams,
    sessions: Sequence[Session],
    judgments: Sequence[RelevanceJudgment] | None = None,
    k_list: Sequence[int] = DEFAULT_K_LIST,
    label: str = "",
) -> EvalReport:
    """Full evaluation: perplexities always, NDCG when judgments are given.

    NDCG ranks by relevance marginalized over each query's observed intent
    shares, which reduces to the plain per-intent table when every session
    of a query carries the same intent.
    """
    report = perplexity_report(params, sessions, label=label)
    if judgments:
        score = mixture_relevance_scorer(params, sessions)
        report.ndcg, report.ndcg_queries = ndcg_for_scores(score, judgments, k_list)
        if report.ndcg_queries == 0:
            raise DataError("every judged query has only zero grades, so NDCG is undefined")
    return report


def intent_distributions(sessions: Iterable[Session]) -> dict[str, dict[Intent, float]]:
    """Empirical intent shares per query."""
    counts: dict[str, dict[Intent, int]] = {}
    for s in sessions:
        per_query = counts.setdefault(s.query_id, {})
        per_query[s.intent] = per_query.get(s.intent, 0) + 1
    out = {}
    for query_id, per_query in counts.items():
        total = sum(per_query.values())
        out[query_id] = {t: n / total for t, n in per_query.items()}
    return out


def mixture_relevance_scorer(
    params: AnyParams, sessions: Iterable[Session]
) -> Callable[[str, str], float]:
    """Relevance scorer marginalized over each query's observed intent mix.

    For intent-aware parameters this weights the per-intent relevance
    estimates by the query's empirical intent shares, which is the
    predicted relevance of a query whose sessions carry mixed intents.
    """
    weights = intent_distributions(sessions)

    def score(query_id: str, doc_id: str) -> float:
        shares = weights.get(query_id)
        if not shares:
            return resolve_params(params).relevance_estimate(query_id, doc_id)
        return sum(
            share * resolve_params(params, intent).relevance_estimate(query_id, doc_id)
            for intent, share in shares.items()
        )

    return score


@dataclass
class ModelComparison:
    """Baseline vs treatment perplexities with improvement cells."""

    base: EvalReport
    treatment: EvalReport
    improvements: list[float]
    overall_improvement: float
    ndcg_deltas: dict[int, float]

    def to_json(self) -> dict:
        return {
            **asdict(self),
            "base": self.base.to_json(),
            "treatment": self.treatment.to_json(),
            "ndcg_deltas": {str(k): v for k, v in self.ndcg_deltas.items()},
        }


def compare_models(base: EvalReport, treatment: EvalReport) -> ModelComparison:
    """Improvement of the treatment model over the baseline, cell by cell."""
    if len(base.per_position) != len(treatment.per_position):
        raise ComparabilityError(
            f"position counts differ: {len(base.per_position)} vs "
            f"{len(treatment.per_position)}"
        )
    if base.position_counts != treatment.position_counts or base.n_sessions != treatment.n_sessions:
        raise ComparabilityError("reports were not evaluated on the same session set")
    if set(base.ndcg) != set(treatment.ndcg):
        raise ComparabilityError("reports use different NDCG cut-off lists")
    improvements = [
        perplexity_improvement(t, b)
        for t, b in zip(treatment.per_position, base.per_position)
    ]
    overall = perplexity_improvement(treatment.overall, base.overall)
    deltas = {k: treatment.ndcg[k] - base.ndcg[k] for k in sorted(base.ndcg)}
    return ModelComparison(
        base=base,
        treatment=treatment,
        improvements=improvements,
        overall_improvement=overall,
        ndcg_deltas=deltas,
    )


def format_comparison_table(cmp: ModelComparison) -> str:
    """Aligned text table: rows are models, columns @1..@N plus Overall."""
    labeled = [(cmp.base.label or "base", cmp.base),
               (cmp.treatment.label or "treatment", cmp.treatment)]
    rows = _perplexity_rows(labeled)
    rows.append(["Impr."] + [f"{imp:.1f}%" for imp in cmp.improvements]
                + [f"{cmp.overall_improvement:.1f}%"])
    if cmp.ndcg_deltas:
        ks = sorted(cmp.ndcg_deltas)
        rows += _ndcg_rows(labeled, ks)
        rows.append(["delta"] + [f"{cmp.ndcg_deltas[k]:+.4f}" for k in ks])
    return _render(rows)
