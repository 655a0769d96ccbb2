"""Click models under the examination hypothesis.

Four model families are parameterized here: the position-based model (PBM),
the cascade model, the user browsing model (UBM), and the dynamic Bayesian
network model (DBN). Each exposes one routine, ``conditional_click_probs``,
for the per-position click probability conditioned on the clicks observed
earlier in the session; session probabilities, log-likelihoods and
perplexity all follow from it by the chain rule. Intent-aware variants
replicate a base parameter set per intent label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import DataError
from .sessions import Intent, KNOWN_INTENTS, Session

PROB_CLAMP = 1e-12
DEFAULT_REL = 0.5  # uninformative prior mean for unseen (query, doc) pairs

PBM = "pbm"
CASCADE = "cascade"
UBM = "ubm"
DBN = "dbn"
MODEL_KINDS = (PBM, CASCADE, UBM, DBN)

PARAMS_FORMAT_VERSION = 1


class ModelKindError(ValueError):
    """Model kind does not match the supplied parameter set."""


class PositionRangeError(ValueError):
    """A position falls outside the parameterized range."""


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


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class PbmParams:
    """Position-based model: click prob = exam[position] * rel[(query, doc)]."""

    exam: dict[int, float]
    rel: dict[tuple[str, str], float]
    max_positions: int = 10

    kind = PBM

    def __post_init__(self):
        for pos in range(1, self.max_positions + 1):
            if pos not in self.exam:
                raise ValueError(f"exam table missing position {pos}")
        for pos, g in self.exam.items():
            _check_unit(f"exam[{pos}]", g)
        for key, r in self.rel.items():
            _check_unit(f"rel[{key}]", r)

    def relevance(self, query_id: str, doc_id: str) -> float:
        return self.rel.get((query_id, doc_id), DEFAULT_REL)

    relevance_estimate = relevance

    def conditional_click_probs(self, session: Session) -> list[float]:
        """P(C_i = 1) per position; PBM clicks are independent of history."""
        if len(session) > self.max_positions:
            raise PositionRangeError(
                f"session length {len(session)} exceeds max_positions {self.max_positions}"
            )
        return [
            self.exam[i + 1] * self.relevance(session.query_id, doc)
            for i, doc in enumerate(session.docs)
        ]


@dataclass
class CascadeParams:
    """Cascade model: sequential examination, stops at the first click."""

    rel: dict[tuple[str, str], float]

    kind = CASCADE

    def __post_init__(self):
        for key, r in self.rel.items():
            _check_unit(f"rel[{key}]", r)

    def relevance(self, query_id: str, doc_id: str) -> float:
        return self.rel.get((query_id, doc_id), DEFAULT_REL)

    relevance_estimate = relevance

    def conditional_click_probs(self, session: Session) -> list[float]:
        """P(C_i = 1 | earlier clicks); zero once any earlier click occurred."""
        probs = []
        seen_click = False
        for doc, c in zip(session.docs, session.clicks):
            probs.append(0.0 if seen_click else self.relevance(session.query_id, doc))
            seen_click = seen_click or bool(c)
        return probs


@dataclass
class UbmParams:
    """User browsing model: examination depends on (previous click, position)."""

    beta: dict[tuple[int, int], float]
    rel: dict[tuple[str, str], float]
    max_positions: int = 10

    kind = UBM

    def __post_init__(self):
        for l, i in ubm_cells(self.max_positions):
            if (l, i) not in self.beta:
                raise ValueError(f"beta table missing cell (l={l}, i={i})")
        for cell, b in self.beta.items():
            _check_unit(f"beta[{cell}]", b)
        for key, r in self.rel.items():
            _check_unit(f"rel[{key}]", r)

    def relevance(self, query_id: str, doc_id: str) -> float:
        return self.rel.get((query_id, doc_id), DEFAULT_REL)

    relevance_estimate = relevance

    def conditional_click_probs(self, session: Session) -> list[float]:
        if len(session) > self.max_positions:
            raise PositionRangeError(
                f"session length {len(session)} exceeds max_positions {self.max_positions}"
            )
        probs = []
        last_click = 0
        for i, (doc, c) in enumerate(zip(session.docs, session.clicks), start=1):
            probs.append(self.beta[(last_click, i)] * self.relevance(session.query_id, doc))
            if c:
                last_click = i
        return probs


@dataclass
class DbnParams:
    """DBN: click-given-exam rel, per-doc satisfaction, continuation gamma."""

    rel: dict[tuple[str, str], float]
    sat: dict[tuple[str, str], float]
    gamma_cont: float = 0.9

    kind = DBN

    def __post_init__(self):
        _check_unit("gamma_cont", self.gamma_cont)
        for key, r in self.rel.items():
            _check_unit(f"rel[{key}]", r)
        for key, s in self.sat.items():
            _check_unit(f"sat[{key}]", s)

    def relevance(self, query_id: str, doc_id: str) -> float:
        return self.rel.get((query_id, doc_id), DEFAULT_REL)

    def satisfaction(self, query_id: str, doc_id: str) -> float:
        return self.sat.get((query_id, doc_id), DEFAULT_REL)

    def relevance_estimate(self, query_id: str, doc_id: str) -> float:
        """Unbiased relevance is the chance of a click that satisfies."""
        return self.relevance(query_id, doc_id) * self.satisfaction(query_id, doc_id)

    def conditional_click_probs(self, session: Session) -> list[float]:
        """Forward pass over the examination chain given observed clicks.

        State is the unnormalized pair (P(prefix, E_i=0), P(prefix, E_i=1));
        the first position is always examined.
        """
        f0, f1 = 0.0, 1.0
        gamma = self.gamma_cont
        probs = []
        for doc, c in zip(session.docs, session.clicks):
            r = self.relevance(session.query_id, doc)
            s = self.satisfaction(session.query_id, doc)
            total = f0 + f1
            probs.append(f1 * r / total if total > 0.0 else 0.0)
            if c:
                # Click requires examination; the satisfied branch halts.
                f0, f1 = f1 * r * (s + (1.0 - s) * (1.0 - gamma)), f1 * r * (1.0 - s) * gamma
            else:
                f0, f1 = f0 + f1 * (1.0 - r) * (1.0 - gamma), f1 * (1.0 - r) * gamma
        return probs


BaseParams = Union[PbmParams, CascadeParams, UbmParams, DbnParams]


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

    @property
    def kind(self) -> str:
        return self.fallback.kind


AnyParams = Union[BaseParams, IntentAwareParams]


def ia_dispatch(ia_params: IntentAwareParams, intent: Intent) -> BaseParams:
    """Parameter table for the given intent; Unknown routes to the fallback."""
    if intent is Intent.UNKNOWN:
        return ia_params.fallback
    return ia_params.per_intent[intent]


def resolve_params(params: AnyParams, intent: Intent = Intent.UNKNOWN) -> BaseParams:
    if isinstance(params, IntentAwareParams):
        return ia_dispatch(params, intent)
    return params


def session_prob(params: AnyParams, session: Session) -> float:
    """Exact probability of the observed click vector (chain rule)."""
    base = resolve_params(params, session.intent)
    prob = 1.0
    for q, c in zip(base.conditional_click_probs(session), session.clicks):
        prob *= q if c else 1.0 - q
    return prob


def session_log_likelihood(model_kind: str, params: AnyParams, session: Session) -> float:
    """Natural log of the session probability, clamped away from -inf."""
    if model_kind not in MODEL_KINDS:
        raise ModelKindError(f"unknown model kind {model_kind!r}")
    if params.kind != model_kind:
        raise ModelKindError(
            f"params are for {params.kind!r}, not {model_kind!r}"
        )
    return math.log(clamp_probability(session_prob(params, session)))


def _rel_to_json(rel: Mapping[tuple[str, str], float]) -> dict[str, float]:
    return {f"{q}\t{d}": v for (q, d), v in rel.items()}


def _rel_from_json(obj: Mapping[str, float]) -> dict[tuple[str, str], float]:
    out = {}
    for key, v in obj.items():
        q, _, d = key.partition("\t")
        out[(q, d)] = float(v)
    return out


def _base_to_json(params: BaseParams) -> dict:
    if isinstance(params, PbmParams):
        return {
            "exam": {str(pos): g for pos, g in sorted(params.exam.items())},
            "rel": _rel_to_json(params.rel),
            "max_positions": params.max_positions,
        }
    if isinstance(params, CascadeParams):
        return {"rel": _rel_to_json(params.rel)}
    if isinstance(params, UbmParams):
        return {
            "beta": {f"{l}:{i}": b for (l, i), b in sorted(params.beta.items())},
            "rel": _rel_to_json(params.rel),
            "max_positions": params.max_positions,
        }
    if isinstance(params, DbnParams):
        return {
            "rel": _rel_to_json(params.rel),
            "sat": _rel_to_json(params.sat),
            "gamma_cont": params.gamma_cont,
        }
    raise TypeError(f"unsupported params type {type(params)!r}")


def _base_from_json(kind: str, obj: Mapping) -> BaseParams:
    try:
        if kind == PBM:
            return PbmParams(
                exam={int(pos): float(g) for pos, g in obj["exam"].items()},
                rel=_rel_from_json(obj["rel"]),
                max_positions=int(obj["max_positions"]),
            )
        if kind == CASCADE:
            return CascadeParams(rel=_rel_from_json(obj["rel"]))
        if kind == UBM:
            beta = {}
            for key, b in obj["beta"].items():
                l, _, i = key.partition(":")
                beta[(int(l), int(i))] = float(b)
            return UbmParams(
                beta=beta,
                rel=_rel_from_json(obj["rel"]),
                max_positions=int(obj["max_positions"]),
            )
        if kind == DBN:
            return DbnParams(
                rel=_rel_from_json(obj["rel"]),
                sat=_rel_from_json(obj["sat"]),
                gamma_cont=float(obj["gamma_cont"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad {kind} parameter document: {exc}") from None
    raise DataError(f"unknown model kind {kind!r}")


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_params(path) -> AnyParams:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid parameter document: {exc}") from None
    version = doc.get("version")
    if version != PARAMS_FORMAT_VERSION:
        raise DataError(f"unsupported parameter document version {version!r}")
    kind = doc.get("kind")
    if doc.get("intent_aware"):
        per_intent = {
            intent: _base_from_json(kind, doc["per_intent"][intent.value])
            for intent in KNOWN_INTENTS
        }
        return IntentAwareParams(
            per_intent=per_intent, fallback=_base_from_json(kind, doc["fallback"])
        )
    return _base_from_json(kind, doc["params"])
