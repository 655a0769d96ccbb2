"""Synthetic click-log generation from known ground-truth parameters.

The simulator draws each session's clicks through the model's own
``click_probs``, so it samples exactly the model that evaluation scores.
That makes it the verification oracle for inference and evaluation:
fitted parameters and predicted click probabilities can be compared
against the truth that produced the data.

click_behavior_preset() builds an intent-aware PBM whose implied click
rates hit a small set of reference calibration targets (92% informational
clicks on a rank-1 target; 96%/92% navigational on rank-1/2 targets; 97%
total click mass with a navigational target at rank 4). Every other cell
of the grid is smooth synthetic interpolation, not a measured value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import (CASCADE, DEFAULT_INTENT_MIX, DEFAULT_MAX_POSITIONS, INTENT_MIX_RULE,
                     MODEL_KINDS, PBM, UBM, check_count, is_intent_mix)
from .models import (
    AnyParams,
    BaseParams,
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    click_probs,
    mixed_relevance,
    ubm_cells,
)
from .sessions import ALL_INTENTS, Intent, Judgments, KNOWN_INTENTS, SessionBatch

REL_LOW, REL_HIGH = 0.05, 0.95


@dataclass
class SimConfig:
    """Shape and seeding of a synthetic log."""

    model_kind: str = PBM
    num_queries: int = 10
    sessions_per_query: int = 100
    positions: int = DEFAULT_MAX_POSITIONS
    intent_mix: tuple[float, float, float] = DEFAULT_INTENT_MIX
    seed: int = 0
    intent_aware: bool = False
    intents_per_query: bool = False
    # Shuffling the served order per session breaks the tie between a doc
    # and a single position; without it the per-position examination/
    # relevance split is not identifiable from clicks.
    shuffle_serps: bool = False

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        for name in ("num_queries", "sessions_per_query", "positions"):
            check_count(name, getattr(self, name))
        if not is_intent_mix(self.intent_mix):
            raise ValueError(f"{INTENT_MIX_RULE}, got {self.intent_mix}")


@dataclass
class GroundTruth:
    """Known parameters plus the artifacts needed to score against them."""

    params: AnyParams
    judgments: Judgments
    serps: dict[str, tuple[str, ...]]
    query_intents: dict[str, Intent] | None = None


def grade_from_relevance(r: float) -> int:
    """Editorial grade by thresholding: floor(5r) clipped into [0, 4]."""
    return max(0, min(4, math.floor(5.0 * r)))


def _truth(params: AnyParams, serps: dict[str, tuple[str, ...]],
           query_intents: dict[str, Intent] | None,
           mix: tuple[float, float, float]) -> GroundTruth:
    """The ground truth of ``params`` on ``serps``. Its judgments grade the
    truth's relevance: the base table's; else its intent tables' weighted
    by the query's own intent, or by ``mix`` when intents are not per query."""
    keys = [(q, d) for q, docs in serps.items() for d in docs]
    if query_intents is not None:
        codes = [ALL_INTENTS.index(query_intents[q]) for q, _ in keys]
        weights = np.eye(len(ALL_INTENTS))[codes]
    else:
        weights = np.array([[*mix, 0.0]])
    grades = [grade_from_relevance(x) for x in mixed_relevance(params, keys, weights).tolist()]
    return GroundTruth(params, Judgments(keys, grades), serps, query_intents)


def _query_id(i: int) -> str:
    return f"q{i:04d}"


def _doc_ids(query_id: str, positions: int) -> tuple[str, ...]:
    return tuple(f"{query_id}_d{j:02d}" for j in range(1, positions + 1))


def _exam_curve(rng: np.random.Generator, positions: int,
                decay_lo: float, decay_hi: float) -> list[float]:
    """First-position examination, then one random decay factor per position."""
    first = rng.uniform(0.92, 0.98)
    decays = rng.uniform(decay_lo, decay_hi, size=positions - 1)
    return np.cumprod(np.append(first, decays)).tolist()

# Informational examination dies off fastest; navigational persists;
# transactional sits close to navigational. Unknown's range serves the
# fallback and every base truth.
_DECAY_RANGES = {
    Intent.INFORMATIONAL: (0.72, 0.85),
    Intent.NAVIGATIONAL: (0.88, 0.97),
    Intent.TRANSACTIONAL: (0.86, 0.95),
    Intent.UNKNOWN: (0.84, 0.96),
}


def _base_truth(rng: np.random.Generator, config: SimConfig, keys: list[tuple[str, str]],
                intent: Intent) -> BaseParams:
    """One truth table set; ``keys`` are the (query, doc) pairs in SERP order."""
    n = config.positions
    rel = dict(zip(keys, rng.uniform(REL_LOW, REL_HIGH, size=len(keys)).tolist()))
    if config.model_kind == PBM:
        exam = dict(zip(range(1, n + 1), _exam_curve(rng, n, *_DECAY_RANGES[intent])))
        return PbmParams(exam=exam, rel=rel, max_positions=n)
    if config.model_kind == CASCADE:
        return CascadeParams(rel=rel)
    if config.model_kind == UBM:
        curve = _exam_curve(rng, n, *_DECAY_RANGES[intent])
        # Examination decays with distance from the last click.
        beta = {(l, i): curve[i - l - 1] for l, i in ubm_cells(n)}
        return UbmParams(beta=beta, rel=rel, max_positions=n)
    # DBN: SimConfig admits no other kind.
    sat = dict(zip(keys, rng.uniform(REL_LOW, REL_HIGH, size=len(keys)).tolist()))
    return DbnParams(rel=rel, sat=sat, gamma_cont=float(rng.uniform(0.85, 0.95)))


def generate_ground_truth(config: SimConfig) -> GroundTruth:
    """Deterministic ground-truth parameters, SERPs, and judgments."""
    rng = np.random.default_rng(config.seed)
    serps = {
        _query_id(i): _doc_ids(_query_id(i), config.positions)
        for i in range(config.num_queries)
    }
    query_intents: dict[str, Intent] | None = None
    if config.intents_per_query:
        codes = rng.choice(3, size=config.num_queries, p=list(config.intent_mix))
        query_intents = {
            q: KNOWN_INTENTS[codes[i]] for i, q in enumerate(serps)
        }

    keys = [(q, d) for q, docs in serps.items() for d in docs]
    params: AnyParams
    if config.intent_aware:
        params = IntentAwareParams.build(lambda intent: _base_truth(rng, config, keys, intent))
    else:
        params = _base_truth(rng, config, keys, Intent.UNKNOWN)
    return _truth(params, serps, query_intents, config.intent_mix)


def simulate_sessions(truth: GroundTruth, config: SimConfig) -> SessionBatch:
    """Sample sessions from the truth's model on the truth's SERPs, one
    independent seeded stream per query. Rows are in (query, session index)
    order and the batch lists each query's (query, doc) pairs in SERP order.
    Of ``config`` only ``seed``, ``sessions_per_query``, ``shuffle_serps``
    and, when the truth has no per-query intents, ``intent_mix`` are read.
    A query's stream gives its intent codes, its shuffle, then one uniform
    per cell of each intent's rows in KNOWN_INTENTS order (of all its rows
    for a base truth); ``click_probs`` turns the uniforms into clicks."""
    streams = np.random.SeedSequence(config.seed).spawn(len(truth.serps))
    n = config.sessions_per_query
    lengths = np.repeat(np.array([len(d) for d in truth.serps.values()], dtype=np.int64), n)
    pair = np.zeros((len(lengths), lengths.max()), dtype=np.int64)
    draws = np.zeros(pair.shape)
    intents = np.zeros(len(lengths), dtype=np.int8)
    intent_aware = isinstance(truth.params, IntentAwareParams)
    # The served order of every session, before any shuffle, per SERP length.
    tiled = {m: np.tile(np.arange(m), (n, 1)) for m in set(map(len, truth.serps.values()))}
    every_row = np.arange(n)
    start = 0
    for i, (stream, (query, docs)) in enumerate(zip(streams, truth.serps.items())):
        rng = np.random.default_rng(stream)
        rows_of_query = slice(i * n, (i + 1) * n)
        # Intent codes index KNOWN_INTENTS, the head of ALL_INTENTS.
        if truth.query_intents is not None:
            codes = np.full(n, KNOWN_INTENTS.index(truth.query_intents[query]))
        else:
            codes = rng.choice(3, size=n, p=list(config.intent_mix))
        perms = tiled[len(docs)]
        if config.shuffle_serps:
            perms = rng.permuted(perms, axis=1)
        query_draws = draws[rows_of_query, :len(docs)]
        for k in range(len(KNOWN_INTENTS) if intent_aware else 1):
            rows = np.flatnonzero(codes == k) if intent_aware else every_row
            query_draws[rows] = rng.random((rows.size, len(docs)))
        pair[rows_of_query, :len(docs)] = perms + start
        intents[rows_of_query] = codes
        start += len(docs)
    query = np.repeat(np.arange(len(truth.serps), dtype=np.int64), n)
    batch = SessionBatch([(q, d) for q, docs in truth.serps.items() for d in docs], pair,
                         np.zeros(pair.shape, dtype=np.int8), lengths, intents,
                         list(truth.serps), query)
    click_probs(truth.params, batch, draws)
    return batch


def session_ids(truth: GroundTruth, config: SimConfig) -> list[str]:
    """Row ids of ``simulate_sessions(truth, config)``: ``<query>:s<session index>``."""
    return [f"{q}:s{k:05d}" for q in truth.serps for k in range(config.sessions_per_query)]


# ---------------------------------------------------------------------------
# Calibrated click-behavior preset.
#
# Hard calibration targets (everything else below is synthetic fill):
#   informational, target at rank 1 -> click rate 0.92 at rank 1
#   navigational, targets at ranks 1 and 2 -> click rates 0.96 and 0.92
#   navigational, target at rank 4 -> total click mass 0.97
# Transactional curves copy navigational scaled by 0.98.
# ---------------------------------------------------------------------------

PRESET_POSITIONS = 10
PRESET_TARGET_RANKS = (1, 2, 4, 5, 7, 8)
PRESET_SESSIONS_PER_QUERY = 50_000
PRESET_SEED = 1234

_PRESET_EXAM = {
    Intent.INFORMATIONAL: (0.98, 0.90, 0.70, 0.52, 0.38, 0.28, 0.21, 0.16, 0.12, 0.09),
    Intent.NAVIGATIONAL: (0.98, 0.95, 0.88, 0.80, 0.72, 0.64, 0.57, 0.50, 0.44, 0.38),
}
_PRESET_EXAM[Intent.TRANSACTIONAL] = tuple(0.98 * g for g in _PRESET_EXAM[Intent.NAVIGATIONAL])
# The fallback examines as navigational sessions do and knows no pair.
_PRESET_EXAM[Intent.UNKNOWN] = _PRESET_EXAM[Intent.NAVIGATIONAL]

# Off-target click-rate profiles; ranks 1-2 for the low-target navigational
# and informational rows follow the reported averages (25.5%/14.5% and
# 30.5%/18.8%), the tail is synthetic decay.
_PRESET_OFF_TARGET = {
    Intent.INFORMATIONAL: (0.305, 0.188, 0.080, 0.050, 0.035, 0.025, 0.018, 0.012, 0.008, 0.005),
    Intent.NAVIGATIONAL: (0.255, 0.145, 0.060, 0.040, 0.030, 0.020, 0.015, 0.010, 0.007, 0.005),
}
_PRESET_OFF_TARGET[Intent.TRANSACTIONAL] = tuple(
    0.98 * x for x in _PRESET_OFF_TARGET[Intent.NAVIGATIONAL]
)

_PRESET_TARGET_RATE = {
    Intent.INFORMATIONAL: {1: 0.92, 2: 0.55, 4: 0.19, 5: 0.15, 7: 0.10, 8: 0.08},
    Intent.NAVIGATIONAL: {1: 0.96, 2: 0.92, 4: None, 5: 0.33, 7: 0.26, 8: 0.22},
}
_PRESET_TARGET_RATE[Intent.TRANSACTIONAL] = {
    rank: (None if rate is None else 0.98 * rate)
    for rank, rate in _PRESET_TARGET_RATE[Intent.NAVIGATIONAL].items()
}

PRESET_NAV_TARGET4_TOTAL_MASS = 0.97


def _preset_profile(intent: Intent, target_rank: int) -> list[float]:
    rates = list(_PRESET_OFF_TARGET[intent])
    target = _PRESET_TARGET_RATE[intent][target_rank]
    if target is None:
        # Solve the target rate so the row's total click mass lands on the
        # quoted 0.97 (scaled for the transactional copy).
        mass = PRESET_NAV_TARGET4_TOTAL_MASS
        if intent is Intent.TRANSACTIONAL:
            mass *= 0.98
        target = mass - (sum(rates) - rates[target_rank - 1])
    rates[target_rank - 1] = target
    return rates


def click_behavior_preset() -> tuple[GroundTruth, SimConfig]:
    """Intent-aware PBM calibrated to the quoted click-behavior numbers."""
    serps: dict[str, tuple[str, ...]] = {}
    query_intents: dict[str, Intent] = {}
    rel_tables: dict[Intent, dict[tuple[str, str], float]] = {t: {} for t in ALL_INTENTS}

    for intent in KNOWN_INTENTS:
        exam = _PRESET_EXAM[intent]
        for rank in PRESET_TARGET_RANKS:
            query = f"preset_{intent.value}_t{rank}"
            docs = _doc_ids(query, PRESET_POSITIONS)
            serps[query] = docs
            query_intents[query] = intent
            for i, (doc, rate) in enumerate(zip(docs, _preset_profile(intent, rank))):
                rel_tables[intent][(query, doc)] = rate / exam[i]

    params = IntentAwareParams.build(lambda intent: PbmParams(
        exam=dict(enumerate(_PRESET_EXAM[intent], 1)), rel=rel_tables[intent],
        max_positions=PRESET_POSITIONS))
    config = SimConfig(
        model_kind=PBM,
        num_queries=len(serps),
        sessions_per_query=PRESET_SESSIONS_PER_QUERY,
        positions=PRESET_POSITIONS,
        intent_mix=DEFAULT_INTENT_MIX,
        seed=PRESET_SEED,
        intent_aware=True,
        intents_per_query=True,
    )
    return _truth(params, serps, query_intents, config.intent_mix), config
