"""Evaluation reports and model comparisons: the JSON document, checks and
text tables.

No numpy here: to read two reports and write a table, ``compare`` needs
only this module and ``common``. Comparisons render in the
familiar rows-by-positions layout with an improvement row computed as
(p2 - p1) / (p2 - 1) * 100%, capped below at MIN_IMPROVEMENT.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

from .common import (JSON_NUMBER_TYPES, PROB_CLAMP, DataError, position_from_json, read_json,
                     write_json)

# The most eval can write, as it clamps click probabilities at PROB_CLAMP,
# with room for rounding.
MAX_PERPLEXITY = (1.0 + 1e-9) / PROB_CLAMP


# The lowest improvement cell a comparison holds, in percent: a treatment
# whose excess perplexity (p - 1) is 10,001 times its baseline's. Lower
# cells come from baselines all but at 1 and say nothing more; they are
# capped here, in the table and in the JSON alike.
MIN_IMPROVEMENT = -1e6


def perplexity_improvement(p1: float, p2: float) -> float:
    """Percent improvement of perplexity p1 over baseline p2."""
    if p2 <= 1.0:
        raise ValueError(f"baseline perplexity must exceed 1, got {p2}")
    return (p2 - p1) / (p2 - 1.0) * 100.0


def _improvement_cell(p1: float, p2: float) -> float:
    """perplexity_improvement(p1, p2), capped below at MIN_IMPROVEMENT."""
    return max(perplexity_improvement(p1, p2), MIN_IMPROVEMENT)


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
        """Fields checked, not cast: perplexities must be JSON numbers in
        [1, MAX_PERPLEXITY], NDCG values JSON numbers in [0, 1] keyed by
        str(K) for K >= 1, counts non-negative JSON integers, one per
        position, and the label a string, and at least one position must
        have a perplexity. ``eval`` never writes a report that breaks these."""
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
            report = cls(
                per_position=[float(x) for x in per_position],
                position_counts=counts,
                overall=float(doc["overall"]),
                n_sessions=doc["n_sessions"],
                n_queries=doc["n_queries"],
                ndcg={position_from_json(k): float(v) for k, v in ndcg.items()},
                ndcg_queries=doc.get("ndcg_queries", 0),
                label=label,
            )
        # OverflowError: an integer too large for a float.
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise DataError(f"bad evaluation report: {exc}") from None
        if not report.per_position:
            raise DataError("bad evaluation report: per_position is empty")
        if len(counts) != len(per_position) or min(integers) < 0 or min(report.ndcg, default=1) < 1:
            raise DataError("bad evaluation report: position_counts must have one count per "
                            "position, no count may be negative and NDCG cut-offs must be >= 1")
        if not (all(1.0 <= p <= MAX_PERPLEXITY for p in [*report.per_position, report.overall])
                and all(0.0 <= v <= 1.0 for v in report.ndcg.values())):
            raise DataError(f"bad evaluation report: perplexities must lie in "
                            f"[1, {MAX_PERPLEXITY:.6g}] and NDCG values in [0, 1]")
        return report


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
    """Improvement of the treatment model over the baseline, cell by cell;
    no cell is below MIN_IMPROVEMENT."""
    if len(base.per_position) != len(treatment.per_position):
        raise DataError(f"position counts differ: {len(base.per_position)} vs "
                        f"{len(treatment.per_position)}")
    if ((base.position_counts, base.n_sessions, base.n_queries)
            != (treatment.position_counts, treatment.n_sessions, treatment.n_queries)):
        raise DataError("reports were not evaluated on the same session set")
    if set(base.ndcg) != set(treatment.ndcg):
        raise DataError("reports use different NDCG cut-off lists")
    if base.ndcg_queries != treatment.ndcg_queries:
        raise DataError(f"NDCG averages over different query counts: "
                        f"{base.ndcg_queries} vs {treatment.ndcg_queries}")
    improvements = [
        _improvement_cell(t, b)
        for t, b in zip(treatment.per_position, base.per_position)
    ]
    overall = _improvement_cell(treatment.overall, base.overall)
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
