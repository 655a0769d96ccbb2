"""Click models under the examination hypothesis.

Four model families are parameterized here: the position-based model (PBM),
the cascade model, the user browsing model (UBM), and the dynamic Bayesian
network model (DBN). Each defines one routine, ``click_probs``, for
P(C_i = 1 | earlier clicks) in every cell of a SessionBatch; session
probabilities, log-likelihoods and perplexity follow from it by the chain
rule. PBM and UBM share it and differ only in their examination cells.
DBN's forward recursion over the examination chain lives in
``DbnParams.click_probs`` and is written once; the EM fitter needs none,
since it works from each session's last click in closed form.
Intent-aware variants replicate a base parameter set per intent label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .common import (CASCADE, DBN, DEFAULT_MAX_POSITIONS, JSON_NUMBER_TYPES, MODEL_KINDS, PBM,
                     PROB_CLAMP, UBM, DataError, check_count, position_from_json, read_json,
                     write_json)
from .sessions import ALL_INTENTS, KNOWN_INTENTS, Intent, Session, SessionBatch, encode_sessions

DEFAULT_REL = 0.5  # uninformative prior mean: unseen pairs, prior examination cells

PARAMS_FORMAT_VERSION = 1


def clamp_probability(p: float) -> float:
    """Clamp into [PROB_CLAMP, 1 - PROB_CLAMP] before taking logs."""
    if p < PROB_CLAMP:
        return PROB_CLAMP
    if p > 1.0 - PROB_CLAMP:
        return 1.0 - PROB_CLAMP
    return p


def ubm_cells(max_positions: int) -> list[tuple[int, int]]:
    """UBM examination cells (l, i) in table order; l=0 means no earlier click."""
    return [(l, i) for l in range(max_positions) for i in range(l + 1, max_positions + 1)]


def table_values(table: Mapping, keys: Sequence) -> np.ndarray:
    """The table's value for each key, in key order; missing keys read DEFAULT_REL."""
    return np.fromiter(map(table.get, keys, repeat(DEFAULT_REL)), dtype=np.float64, count=len(keys))


def last_click(clicks: np.ndarray) -> np.ndarray:
    """1-based position of the last click before each cell of a (session,
    position) click matrix; 0 where no earlier click."""
    clicked_at = np.where(clicks > 0, np.arange(1, clicks.shape[1] + 1), 0)
    last = np.zeros_like(clicked_at)
    last[:, 1:] = np.maximum.accumulate(clicked_at, axis=1)[:, :-1]
    return last


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_table(name: str, table: Mapping) -> None:
    for key, value in table.items():
        # The name is formatted only for a failing value.
        if not 0.0 <= value <= 1.0:
            _check_unit(f"{name}[{key}]", value)


def _pairs_to_json(pairs: list) -> list[str]:
    """Pair keys as "query<TAB>doc"; load_params splits them at the first
    tab, so a query id must not hold one."""
    bad = next((pair for pair in pairs if "\t" in pair[0]), None)
    if bad is not None:
        raise DataError(f"query_id {bad[0]!r} contains a tab, so the pair {bad!r} "
                        "cannot be written to a parameter file")
    return list(map("\t".join, pairs))


def _pairs_from_json(texts: list) -> list[tuple[str, str]]:
    """Pair keys split at their first tab, in one pass."""
    pairs = [(q, d) for q, tab, d in map(str.partition, texts, repeat("\t")) if tab]
    if len(pairs) != len(texts):
        bad = next(text for text in texts if "\t" not in text)
        raise ValueError(f"pair key {bad!r} has no tab between query and doc")
    return pairs


def _cell_from_json(text: str) -> tuple[int, int]:
    last, _, pos = text.partition(":")
    return position_from_json(last), position_from_json(pos)


# How a table's key list is written in a parameter document and read back.
_POSITION_KEY = (lambda keys: list(map(str, keys)),
                 lambda texts: list(map(position_from_json, texts)))
_CELL_KEY = (lambda keys: [f"{l}:{i}" for l, i in keys],
             lambda texts: list(map(_cell_from_json, texts)))
_PAIR_KEY = (_pairs_to_json, _pairs_from_json)


def _table(json_key):
    """A table field: probabilities keyed as ``json_key`` says in JSON."""
    return field(metadata={"json_key": json_key})


def _is_table(f) -> bool:
    return "json_key" in f.metadata


class _TableParams:
    """What every base parameter set shares: its fields are its layout.

    Fields declared with ``_table`` are probability tables; the others are
    scalars with a default. Validation, the prior and the JSON codec read
    the layout from ``dataclasses.fields``; the EM fitters fill the same
    fields by name. Also here: ``relevance_estimates`` and the one-session
    view of ``click_probs``.
    """

    def __post_init__(self):
        for f in fields(self):
            if _is_table(f):
                _check_table(f.name, getattr(self, f.name))

    @classmethod
    def prior(cls, max_positions: int):
        """EM's starting point and the table of an intent without sessions:
        no pairs, every scalar at its default."""
        return cls(**{f.name: {} for f in fields(cls) if _is_table(f)})

    def relevance_estimates(self, keys: Sequence[tuple[str, str]]) -> np.ndarray:
        """Unbiased relevance of every (query, doc) key, as one array."""
        return table_values(self.rel, keys)

    def conditional_click_probs(self, session: Session) -> list[float]:
        """P(C_i = 1 | earlier clicks) per position of one session."""
        return self.click_probs(encode_sessions([session]))[0].tolist()


class _ExamRelParams(_TableParams):
    """PBM and UBM: P(C_i = 1 | earlier clicks) = exam[cell] * rel[(query, doc)].

    A subclass names its examination cells: ``cells_for(n)`` lists the table
    keys in order, ``cell_of(last, pos, n)`` is the index into that list of
    1-based position ``pos`` after a last click at ``last`` (0 for none), in
    closed form and elementwise over arrays, and ``exam_field`` is the
    attribute that holds the table.
    """

    def __post_init__(self):
        exam, n = getattr(self, self.exam_field), self.max_positions
        check_count("max_positions", n)
        # Sizes first, so a huge max_positions builds no cell list.
        if len(exam) != self.cell_count(n):
            raise ValueError(f"{self.exam_field} table has {len(exam)} cells, "
                             f"max_positions {n} needs {self.cell_count(n)}")
        odd = sorted(exam.keys() ^ set(self.cells_for(n)))
        if odd:
            raise ValueError(f"{self.exam_field} table cells {odd[:4]} (of {len(odd)}) "
                             f"missing or outside max_positions {n}")
        super().__post_init__()

    @classmethod
    def prior(cls, max_positions: int):
        """Every examination cell at DEFAULT_REL, no pairs."""
        exam = dict.fromkeys(cls.cells_for(max_positions), DEFAULT_REL)
        return cls(**{cls.exam_field: exam}, rel={}, max_positions=max_positions)

    @classmethod
    def cell_count(cls, max_positions: int) -> int:
        """Length of cells_for(max_positions): one past its last cell."""
        return cls.cell_of(max_positions - 1, max_positions, max_positions) + 1

    def exam_matrix(self, width: int) -> np.ndarray:
        """Examination as matrix[last, pos] for a last click and a 1-based
        position up to ``width``; cells with pos <= last, which no session
        reaches, are 0."""
        n = self.max_positions
        if width > n:
            raise ValueError(f"session length {width} exceeds max_positions {n}")
        exam = table_values(getattr(self, self.exam_field), self.cells_for(n))
        span = np.arange(width + 1)
        return np.triu(exam[self.cell_of(span[:, None], span, n)], 1)

    def click_probs(self, batch: SessionBatch) -> np.ndarray:
        exam = self.exam_matrix(batch.width)
        rel = table_values(self.rel, batch.keys)
        return exam[last_click(batch.clicks), np.arange(1, batch.width + 1)] * rel[batch.pair]


@dataclass
class PbmParams(_ExamRelParams):
    """Position-based model: click prob = exam[position] * rel[(query, doc)]."""

    exam: dict[int, float] = _table(_POSITION_KEY)
    rel: dict[tuple[str, str], float] = _table(_PAIR_KEY)
    max_positions: int = DEFAULT_MAX_POSITIONS

    kind = PBM
    exam_field = "exam"

    @staticmethod
    def cells_for(max_positions: int) -> list[int]:
        return list(range(1, max_positions + 1))

    @staticmethod
    def cell_of(last, pos, max_positions: int):
        # 0 * last broadcasts the index to the shape of both arguments.
        return 0 * last + pos - 1


@dataclass
class UbmParams(_ExamRelParams):
    """User browsing model: examination depends on (previous click, position)."""

    beta: dict[tuple[int, int], float] = _table(_CELL_KEY)
    rel: dict[tuple[str, str], float] = _table(_PAIR_KEY)
    max_positions: int = DEFAULT_MAX_POSITIONS

    kind = UBM
    exam_field = "beta"
    cells_for = staticmethod(ubm_cells)

    @staticmethod
    def cell_of(last, pos, max_positions: int):
        # ubm_cells gives each last click l the n - l cells (l, l+1..n), so
        # the last clicks before ``last`` hold last*n - last*(last-1)/2.
        return last * max_positions - last * (last - 1) // 2 + pos - last - 1


@dataclass
class CascadeParams(_TableParams):
    """Cascade model: sequential examination, stops at the first click."""

    rel: dict[tuple[str, str], float] = _table(_PAIR_KEY)

    kind = CASCADE

    def click_probs(self, batch: SessionBatch) -> np.ndarray:
        """Relevance up to the first click, zero after it."""
        rel = table_values(self.rel, batch.keys)[batch.pair]
        return np.where(last_click(batch.clicks) == 0, rel, 0.0)


@dataclass
class DbnParams(_TableParams):
    """DBN: click-given-exam rel, per-doc satisfaction, continuation gamma."""

    rel: dict[tuple[str, str], float] = _table(_PAIR_KEY)
    sat: dict[tuple[str, str], float] = _table(_PAIR_KEY)
    gamma_cont: float = 0.9

    kind = DBN

    def __post_init__(self):
        _check_unit("gamma_cont", self.gamma_cont)
        super().__post_init__()

    def relevance_estimates(self, keys: Sequence[tuple[str, str]]) -> np.ndarray:
        """Unbiased relevance is the chance of a click that satisfies: rel * sat."""
        return table_values(self.rel, keys) * table_values(self.sat, keys)

    def click_probs(self, batch: SessionBatch) -> np.ndarray:
        """P(E_i = 1 | earlier clicks) * rel, from the forward pass of the
        examination chain: a0[:, t] and a1[:, t] are P(clicks before t,
        E_t = 0 / 1), and stay / halt the mass that moves from E_t=1 to
        E_{t+1}=1 / 0 while emitting c_t."""
        r = table_values(self.rel, batch.keys)[batch.pair]
        s = table_values(self.sat, batch.keys)[batch.pair]
        gamma = self.gamma_cont
        clicked = batch.clicks > 0
        stay = np.where(clicked, r * (1.0 - s) * gamma, (1.0 - r) * gamma)
        halt = np.where(clicked, r * (s + (1.0 - s) * (1.0 - gamma)), (1.0 - r) * (1.0 - gamma))
        a0 = np.zeros(r.shape)
        a1 = np.zeros(r.shape)
        a1[:, :1] = 1.0
        for t in range(r.shape[1] - 1):
            # E=0 emits only non-clicks; clicks zero out the E=0 branch.
            a0[:, t + 1] = np.where(clicked[:, t], 0.0, a0[:, t]) + a1[:, t] * halt[:, t]
            a1[:, t + 1] = a1[:, t] * stay[:, t]
        total = a0 + a1
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(total > 0.0, a1 * r / total, 0.0)


BaseParams = Union[PbmParams, CascadeParams, UbmParams, DbnParams]
PARAMS_CLASSES = {cls.kind: cls for cls in (PbmParams, CascadeParams, UbmParams, DbnParams)}


@dataclass
class IntentAwareParams:
    """A full base parameter set per intent, plus a fallback for Unknown."""

    per_intent: dict[Intent, BaseParams]
    fallback: BaseParams

    def __post_init__(self):
        for intent in KNOWN_INTENTS:
            if intent not in self.per_intent:
                raise ValueError(f"per_intent missing table for {intent.value}")
        kinds = {p.kind for p in self.per_intent.values()} | {self.fallback.kind}
        if len(kinds) != 1:
            raise ValueError(f"mixed model kinds in intent-aware params: {kinds}")

    @classmethod
    def build(cls, table_of: Callable[[Intent], BaseParams]) -> IntentAwareParams:
        """The set of ``table_of(intent)`` for each intent, called in
        ALL_INTENTS order; Unknown's table is the fallback."""
        per_intent = {intent: table_of(intent) for intent in ALL_INTENTS}
        fallback = per_intent.pop(Intent.UNKNOWN)
        return cls(per_intent, fallback)

    @property
    def kind(self) -> str:
        return self.fallback.kind


AnyParams = Union[BaseParams, IntentAwareParams]


def resolve_params(params: AnyParams, intent: Intent = Intent.UNKNOWN) -> BaseParams:
    """The base params for sessions of the given intent; Unknown routes to the fallback."""
    if not isinstance(params, IntentAwareParams):
        return params
    if intent is Intent.UNKNOWN:
        return params.fallback
    return params.per_intent[intent]


def click_probs(params: AnyParams, batch: SessionBatch) -> np.ndarray:
    """P(C_i = 1 | earlier clicks) for every cell of the batch, each session
    scored by its intent's table; padding cells hold no meaning."""
    if not isinstance(params, IntentAwareParams):
        return params.click_probs(batch)
    out = np.zeros(batch.pair.shape)
    for intent, rows in batch.by_intent():
        part = batch.take(rows)
        out[rows, : part.width] = resolve_params(params, intent).click_probs(part)
    return out


def mixed_relevance(params: AnyParams, keys: Sequence[tuple[str, str]],
                    weights: np.ndarray) -> np.ndarray:
    """Relevance of each (query, doc) key: its intents' tables weighted by
    its row of ``weights`` (key x ALL_INTENTS, or one row for all keys) and
    summed in ALL_INTENTS order. Base params return relevance_estimates."""
    if not isinstance(params, IntentAwareParams):
        return params.relevance_estimates(keys)
    out = np.zeros(len(keys))
    for t, intent in enumerate(ALL_INTENTS):
        out += weights[:, t] * resolve_params(params, intent).relevance_estimates(keys)
    return out


def session_prob(params: AnyParams, session: Session) -> float:
    """Exact probability of the observed click vector (chain rule)."""
    q = resolve_params(params, session.intent).conditional_click_probs(session)
    return math.prod(p if c else 1.0 - p for p, c in zip(q, session.clicks))


def session_log_likelihood(params: AnyParams, session: Session) -> float:
    """Natural log of the session probability, clamped away from -inf."""
    return math.log(clamp_probability(session_prob(params, session)))


def _base_to_json(params: BaseParams) -> dict:
    doc = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if _is_table(f):
            to_json = f.metadata["json_key"][0]
            value = dict(zip(to_json(list(value)), value.values()))
        doc[f.name] = value
    return doc


def _base_from_json(params_cls: type, obj: Mapping) -> BaseParams:
    """Fields checked, not cast: table values and float scalars must be
    JSON numbers and int scalars JSON integers."""
    values = {}
    # (codec, JSON keys, keys) of the last table read: DBN's rel and sat
    # share their keys, which are then decoded once and held once.
    decoded = (None, None, None)
    for f in fields(params_cls):
        value = obj[f.name]
        if _is_table(f):
            # One pass over the value types, then the conversion.
            if not set(map(type, value.values())) <= JSON_NUMBER_TYPES:
                raise TypeError(f"{f.name} values must be numbers")
            from_json, texts = f.metadata["json_key"][1], list(value)
            if decoded[0] is not from_json or decoded[1] != texts:
                decoded = (from_json, texts, from_json(texts))
            values[f.name] = dict(zip(decoded[2], map(float, value.values())))
        else:
            kind = type(f.default)
            if type(value) not in (JSON_NUMBER_TYPES if kind is float else {kind}):
                raise TypeError(f"{f.name} must be a JSON {kind.__name__}, got {value!r}")
            values[f.name] = kind(value)
    return params_cls(**values)


def save_params(path, params: AnyParams) -> None:
    """Persist a parameter set as a versioned JSON document."""
    doc: dict = {"version": PARAMS_FORMAT_VERSION, "kind": params.kind}
    if isinstance(params, IntentAwareParams):
        doc["intent_aware"] = True
        doc["per_intent"] = {
            intent.value: _base_to_json(params.per_intent[intent])
            for intent in KNOWN_INTENTS
        }
        doc["fallback"] = _base_to_json(params.fallback)
    else:
        doc["intent_aware"] = False
        doc["params"] = _base_to_json(params)
    write_json(path, doc)


def load_params(path) -> AnyParams:
    """Read a parameter document; any malformed one is a DataError."""
    doc = read_json(path, "parameter document")
    if not isinstance(doc, dict):
        raise DataError("a parameter document must be a JSON object")
    version = doc.get("version")
    # The JSON integer only: Python reads true and 1.0 as equal to 1.
    if type(version) is not int or version != PARAMS_FORMAT_VERSION:
        raise DataError(f"unsupported parameter document version {version!r}")
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    intent_aware = doc.get("intent_aware")
    if not isinstance(intent_aware, bool):
        raise DataError(f"bad {kind} parameter document: intent_aware must be true or false, "
                        f"got {intent_aware!r}")
    params_cls = PARAMS_CLASSES[kind]
    try:
        if not intent_aware:
            return _base_from_json(params_cls, doc["params"])
        return IntentAwareParams.build(lambda intent: _base_from_json(
            params_cls, doc["fallback"] if intent is Intent.UNKNOWN
            else doc["per_intent"][intent.value]))
    except KeyError as exc:
        raise DataError(f"bad {kind} parameter document: missing {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"bad {kind} parameter document: {exc}") from None
