"""EM parameter estimation for click models from session logs.

Every Bernoulli parameter is updated as a smoothed posterior mean:
(alpha + expected successes) / (alpha + beta + expected trials). The
E-step is vectorized over flattened (session, position) events.

PBM and UBM share one E/M step through the exam-cell factorisation
P(C=1) = exam[cell] * rel[(query, doc)]: they differ only in which
examination cell an event uses, its position for PBM or its (last click,
position) cell for UBM. DBN uses a forward-backward pass over the
examination chain, batched across sessions of equal length; it must agree
with the scalar forward pass in ``DbnParams.conditional_click_probs``,
which evaluation uses. Intent-aware fits partition sessions by their
intent label into independent estimation problems, so the ascent property
of EM holds for the summed log-likelihood.

The alternating fit mirrors the two-phase scheme for intent-aware models:
Phase A updates relevance-side parameters with the examination tables
frozen, Phase B updates the examination tables with relevance frozen,
repeating until the parameters jointly converge.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError
from .models import (
    CASCADE,
    DBN,
    PBM,
    PROB_CLAMP,
    UBM,
    AnyParams,
    BaseParams,
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    resolve_params,
    ubm_cells,
)
from .sessions import Intent, KNOWN_INTENTS, Session

logger = logging.getLogger(__name__)

REL_SIDE = "rel"
EXAM_SIDE = "exam"
ALL_FAMILIES = frozenset((REL_SIDE, EXAM_SIDE))

ALTERNATING_MAX_ROUNDS = 50
DBN_GAMMA_INIT = 0.9
INIT_PROB = 0.5


@dataclass
class EmConfig:
    """Knobs for the EM loop; defaults favor determinism."""

    tol: float = 1e-6
    max_iters: int = 200
    prior_alpha: float = 1.0
    prior_beta: float = 1.0
    seed: int = 0
    init_jitter: float = 0.0
    verbose: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.prior_alpha < 0 or self.prior_beta < 0:
            raise ValueError("priors must be non-negative")


@dataclass
class FitReport:
    """Fit diagnostics.

    loglik_trace[k] is the objective EM ascends, evaluated at the
    parameters entering iteration k: the data log-likelihood plus the
    Bernoulli pseudo-count terms alpha*ln(theta) + beta*ln(1-theta) per
    parameter. With zero priors it is the plain data log-likelihood. EM
    makes the trace non-decreasing either way.
    """

    iterations: int
    final_delta: float
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_delta": self.final_delta,
            "loglik_trace": self.loglik_trace,
            "converged": self.converged,
        }


def factor_posterior(x, y, clicked):
    """P(X=1 | C) for one factor of a click C = X*Y with independent
    X ~ Bernoulli(x), Y ~ Bernoulli(y); elementwise over scalars or arrays.

    Under the examination hypothesis (exam, rel) gives the examination
    posterior and (rel, exam) the relevance posterior. A click pins it to 1;
    otherwise Bayes over the three unclicked outcomes gives x(1-y) / (1-xy),
    with the denominator clamped away from zero. ``clicked`` is a boolean
    mask or an index array of the clicked events.
    """
    post = np.asarray(x * (1.0 - y) / np.maximum(1.0 - x * y, PROB_CLAMP))
    post[clicked] = 1.0
    return post


def _posterior_mean(succ, trials, cfg: EmConfig):
    denom = np.asarray(cfg.prior_alpha + cfg.prior_beta + trials, dtype=np.float64)
    num = cfg.prior_alpha + succ
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, num / np.maximum(denom, PROB_CLAMP), INIT_PROB)
    return np.clip(out, 0.0, 1.0)


def _smoothed_mean(index: np.ndarray, weights: np.ndarray, trials: np.ndarray, cfg: EmConfig):
    """M-step for a table indexed per event: expected successes over trials."""
    succ = np.bincount(index, weights=weights, minlength=len(trials))
    return _posterior_mean(succ, trials, cfg)


def _store(state: dict, key: str, new) -> float:
    """Replace state[key] by its M-step update; return the largest change."""
    delta = float(np.max(np.abs(new - state[key]), initial=0.0))
    state[key] = new
    return delta


def _init_table(n: int, rng: np.random.Generator, jitter: float) -> np.ndarray:
    table = np.full(n, INIT_PROB)
    if jitter > 0.0:
        table = np.clip(table + rng.uniform(-jitter, jitter, table.shape), 0.01, 0.99)
    return table


def _observed_log(p: np.ndarray, clicked: np.ndarray) -> np.ndarray:
    """Clamped log-probability of each event's outcome, given its click
    probability p and the indices of the clicked events."""
    q = 1.0 - p
    q[clicked] = p[clicked]
    return np.log(np.clip(q, PROB_CLAMP, 1.0 - PROB_CLAMP))


def _sum_ll(terms: np.ndarray) -> float:
    # Extended precision keeps the trace monotone beyond float64 rounding
    # on million-term sums.
    return float(np.sum(terms, dtype=np.longdouble))


def _prior_bonus(cfg: EmConfig, arrays) -> float:
    """Pseudo-count log terms of the EM objective for the current state."""
    total = 0.0
    for arr in arrays:
        a = np.atleast_1d(np.asarray(arr, dtype=np.float64))
        if cfg.prior_alpha > 0.0:
            total += cfg.prior_alpha * _sum_ll(np.log(np.clip(a, PROB_CLAMP, None)))
        if cfg.prior_beta > 0.0:
            total += cfg.prior_beta * _sum_ll(np.log(np.clip(1.0 - a, PROB_CLAMP, None)))
    return total


class _PairVocab:
    """First-seen indexing of (query_id, doc_id) pairs."""

    def __init__(self):
        self.index: dict[tuple[str, str], int] = {}

    def get(self, key: tuple[str, str]) -> int:
        return self.index.setdefault(key, len(self.index))

    def __len__(self) -> int:
        return len(self.index)

    def table(self, values: np.ndarray) -> dict[tuple[str, str], float]:
        return {key: float(values[idx]) for key, idx in self.index.items()}

    def seed(self, values: np.ndarray, table: dict) -> None:
        for key, idx in self.index.items():
            values[idx] = table.get(key, INIT_PROB)


class _ExamRelFitter:
    """The one E/M step for the exam-cell factorisation
    P(C=1) = exam[cell] * rel[(query, doc)], shared by PBM and UBM.

    A subclass supplies only its examination-cell layout: ``cells_for(n)``
    lists the table keys in order, ``cell_key(last, pos)`` names the cell
    of an event at 1-based ``pos`` after a last click at ``last`` (0 for
    none), and ``params_cls``/``exam_field`` name the table it fills. The
    observed click history fixes each event's cell, so cells are looked up
    once, at build time, in a (last click, position) table.
    """

    families = ALL_FAMILIES
    params_cls: type
    exam_field: str

    def __init__(self, sessions: Sequence[Session], max_positions: int):
        self.max_positions = max_positions
        self.cells = self.cells_for(max_positions)
        index = {key: k for k, key in enumerate(self.cells)}
        lookup = [
            [index.get(self.cell_key(last, pos), -1) for pos in range(max_positions + 1)]
            for last in range(max_positions + 1)
        ]
        self.vocab = _PairVocab()
        cell, pair, clicks = [], [], []
        for s in sessions:
            row = lookup[0]
            for pos, (doc, c) in enumerate(zip(s.docs, s.clicks), start=1):
                cell.append(row[pos])
                pair.append(self.vocab.get((s.query_id, doc)))
                clicks.append(c)
                if c:
                    row = lookup[pos]
        self.cell = np.asarray(cell, dtype=np.int64)
        self.pair = np.asarray(pair, dtype=np.int64)
        self.clicked = np.flatnonzero(clicks)
        self.exam_trials = np.bincount(self.cell, minlength=len(self.cells)).astype(np.float64)
        self.rel_trials = np.bincount(self.pair, minlength=len(self.vocab)).astype(np.float64)
        deepest = max(map(len, sessions), default=0)
        uncovered = list(range(deepest + 1, max_positions + 1))
        if uncovered:
            logger.warning(
                "no sessions cover positions %s; their examination stays at the prior mean",
                uncovered,
            )

    def init_state(self, rng: np.random.Generator, jitter: float) -> dict:
        return {
            "exam": _init_table(len(self.cells), rng, jitter),
            "rel": _init_table(len(self.vocab), rng, jitter),
        }

    def seed_state(self, state: dict, params: BaseParams) -> None:
        table = getattr(params, self.exam_field)
        for k, key in enumerate(self.cells):
            state["exam"][k] = table.get(key, INIT_PROB)
        self.vocab.seed(state["rel"], params.rel)

    def iterate(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, float]:
        g = state["exam"][self.cell]
        r = state["rel"][self.pair]
        p = g * r
        ll = _sum_ll(_observed_log(p, self.clicked))
        ll += _prior_bonus(cfg, (state["exam"], state["rel"]))
        delta = 0.0
        if REL_SIDE in families:
            p_rel = factor_posterior(r, g, self.clicked)
            new_rel = _smoothed_mean(self.pair, p_rel, self.rel_trials, cfg)
            delta = max(delta, _store(state, "rel", new_rel))
        if EXAM_SIDE in families:
            p_exam = factor_posterior(g, r, self.clicked)
            new_exam = _smoothed_mean(self.cell, p_exam, self.exam_trials, cfg)
            delta = max(delta, _store(state, "exam", new_exam))
        return ll, delta

    def make_params(self, state: dict) -> BaseParams:
        exam = {key: float(v) for key, v in zip(self.cells, state["exam"])}
        return self.params_cls(
            **{self.exam_field: exam},
            rel=self.vocab.table(state["rel"]),
            max_positions=self.max_positions,
        )

    @classmethod
    def empty_params(cls, max_positions: int) -> BaseParams:
        exam = dict.fromkeys(cls.cells_for(max_positions), INIT_PROB)
        return cls.params_cls(**{cls.exam_field: exam}, rel={}, max_positions=max_positions)


class _PbmLayout(_ExamRelFitter):
    """PBM: one examination cell per position, whatever was clicked before."""

    params_cls, exam_field = PbmParams, "exam"

    @staticmethod
    def cells_for(max_positions: int) -> list[int]:
        return list(range(1, max_positions + 1))

    @staticmethod
    def cell_key(last: int, pos: int) -> int:
        return pos


class _UbmLayout(_ExamRelFitter):
    """UBM: one examination cell per (last click, position) pair."""

    params_cls, exam_field = UbmParams, "beta"
    cells_for = staticmethod(ubm_cells)

    @staticmethod
    def cell_key(last: int, pos: int) -> tuple[int, int]:
        return (last, pos)


class _CascadeFitter:
    """Closed-form MLE written as a (one-step) EM fixed point.

    Events after a session's first click are outside the cascade's
    generative story and are excluded; sessions with multiple clicks are
    structurally impossible and contribute a clamped constant to the
    likelihood.
    """

    families = frozenset((REL_SIDE,))

    def __init__(self, sessions: Sequence[Session], max_positions: int):
        self.vocab = _PairVocab()
        pair, clicks = [], []
        self.n_impossible = 0
        for s in sessions:
            if s.total_clicks > 1:
                self.n_impossible += 1
                continue
            for doc, c in zip(s.docs, s.clicks):
                pair.append(self.vocab.get((s.query_id, doc)))
                clicks.append(c)
                if c:
                    break
        self.pair = np.asarray(pair, dtype=np.int64)
        self.clicks = np.asarray(clicks, dtype=np.float64)
        self.clicked = np.flatnonzero(self.clicks)
        self.rel_trials = np.bincount(self.pair, minlength=len(self.vocab)).astype(np.float64)
        if self.n_impossible:
            logger.warning(
                "%d sessions have multiple clicks and are impossible under the "
                "cascade model; they contribute only a clamped likelihood floor",
                self.n_impossible,
            )

    def init_state(self, rng: np.random.Generator, jitter: float) -> dict:
        return {"rel": _init_table(len(self.vocab), rng, jitter)}

    def seed_state(self, state: dict, params: BaseParams) -> None:
        self.vocab.seed(state["rel"], params.rel)

    def iterate(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, float]:
        r = state["rel"][self.pair]
        ll = _sum_ll(_observed_log(r, self.clicked))
        ll += self.n_impossible * float(np.log(PROB_CLAMP))
        ll += _prior_bonus(cfg, (state["rel"],))
        delta = 0.0
        if REL_SIDE in families:
            new_rel = _smoothed_mean(self.pair, self.clicks, self.rel_trials, cfg)
            delta = _store(state, "rel", new_rel)
        return ll, delta

    def make_params(self, state: dict) -> CascadeParams:
        return CascadeParams(rel=self.vocab.table(state["rel"]))

    @staticmethod
    def empty_params(max_positions: int) -> CascadeParams:
        return CascadeParams(rel={})


class _DbnFitter:
    """Forward-backward E-step over the examination chain, batched across
    sessions of equal length."""

    families = ALL_FAMILIES

    def __init__(self, sessions: Sequence[Session], max_positions: int):
        self.vocab = _PairVocab()
        by_length: dict[int, list[Session]] = {}
        for s in sessions:
            if len(s) == 0:
                continue
            by_length.setdefault(len(s), []).append(s)
        self.groups = []
        for length in sorted(by_length):
            members = by_length[length]
            pair = np.empty((len(members), length), dtype=np.int64)
            clicks = np.empty((len(members), length), dtype=np.float64)
            for row, s in enumerate(members):
                for t, (doc, c) in enumerate(zip(s.docs, s.clicks)):
                    pair[row, t] = self.vocab.get((s.query_id, doc))
                    clicks[row, t] = c
            self.groups.append((pair, clicks))
        n_pairs = len(self.vocab)
        # Clicks imply examination, so click counts are fixed statistics:
        # the relevance successes and the satisfaction trials.
        self.click_counts = np.zeros(n_pairs)
        for pair, clicks in self.groups:
            self.click_counts += np.bincount(
                pair.ravel(), weights=clicks.ravel(), minlength=n_pairs
            )

    def init_state(self, rng: np.random.Generator, jitter: float) -> dict:
        n = len(self.vocab)
        state = {
            "rel": _init_table(n, rng, jitter),
            "sat": _init_table(n, rng, jitter),
            "gamma": DBN_GAMMA_INIT,
        }
        if jitter > 0.0:
            gamma = DBN_GAMMA_INIT + rng.uniform(-jitter, jitter)
            state["gamma"] = float(np.clip(gamma, 0.01, 0.99))
        return state

    def seed_state(self, state: dict, params: BaseParams) -> None:
        self.vocab.seed(state["rel"], params.rel)
        self.vocab.seed(state["sat"], params.sat)
        state["gamma"] = params.gamma_cont

    def _forward_backward(self, pair, clicks, state):
        n, length = pair.shape
        r = state["rel"][pair]
        s = state["sat"][pair]
        g = state["gamma"]
        c = clicks > 0.5

        # stay[t] = P(E_{t+1}=1 | E_t=1, c_t); halt is the complement mass
        # that lands on E_{t+1}=0 while still emitting c_t from E_t=1.
        emit1 = np.where(c, r, 1.0 - r)
        stay = np.where(c, r * (1.0 - s) * g, (1.0 - r) * g)
        halt = np.where(c, r * (s + (1.0 - s) * (1.0 - g)), (1.0 - r) * (1.0 - g))

        a0 = np.zeros((n, length))
        a1 = np.zeros((n, length))
        a1[:, 0] = 1.0
        for t in range(length - 1):
            # E=0 emits only non-clicks; clicks zero out the E=0 branch.
            a0[:, t + 1] = np.where(c[:, t], 0.0, a0[:, t]) + a1[:, t] * halt[:, t]
            a1[:, t + 1] = a1[:, t] * stay[:, t]

        b0 = np.zeros((n, length))
        b1 = np.zeros((n, length))
        b1[:, -1] = emit1[:, -1]
        b0[:, -1] = np.where(c[:, -1], 0.0, 1.0)
        for t in range(length - 2, -1, -1):
            b1[:, t] = stay[:, t] * b1[:, t + 1] + halt[:, t] * b0[:, t + 1]
            b0[:, t] = np.where(c[:, t], 0.0, b0[:, t + 1])

        evidence = np.maximum(b1[:, 0], PROB_CLAMP)
        return r, s, c, a0, a1, b0, b1, evidence

    def iterate(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, float]:
        n_pairs = len(self.vocab)
        rel_trials = np.zeros(n_pairs)
        sat_succ = np.zeros(n_pairs)
        gamma_succ = 0.0
        gamma_trials = 0.0
        ll = _prior_bonus(cfg, (state["rel"], state["sat"], state["gamma"]))
        g = state["gamma"]
        for pair, clicks in self.groups:
            r, s, c, a0, a1, b0, b1, evidence = self._forward_backward(pair, clicks, state)
            ll += _sum_ll(np.log(evidence))
            length = pair.shape[1]

            p_exam = a1 * b1 / evidence[:, None]
            rel_trials += np.bincount(pair.ravel(), weights=p_exam.ravel(), minlength=n_pairs)

            # P(S_t=1 | obs): the satisfied branch forces E_{t+1}=0.
            future0 = np.concatenate([b0[:, 1:], np.ones((pair.shape[0], 1))], axis=1)
            p_sat = np.where(c, a1 * r * s * future0 / evidence[:, None], 0.0)
            sat_succ += np.bincount(pair.ravel(), weights=p_sat.ravel(), minlength=n_pairs)

            if length > 1:
                # Transition posteriors from (E_t=1, S_t=0), which are the
                # trials of the continuation Bernoulli.
                leave1 = np.where(c, r * (1.0 - s), 1.0 - r)[:, :-1]
                w_cont = a1[:, :-1] * leave1 * g * b1[:, 1:] / evidence[:, None]
                w_halt = a1[:, :-1] * leave1 * (1.0 - g) * b0[:, 1:] / evidence[:, None]
                gamma_succ += float(np.sum(w_cont, dtype=np.longdouble))
                gamma_trials += float(np.sum(w_cont + w_halt, dtype=np.longdouble))

        delta = 0.0
        if REL_SIDE in families:
            new_rel = _posterior_mean(self.click_counts, rel_trials, cfg)
            new_sat = _posterior_mean(sat_succ, self.click_counts, cfg)
            delta = max(_store(state, "rel", new_rel), _store(state, "sat", new_sat))
        if EXAM_SIDE in families:
            new_gamma = float(_posterior_mean(gamma_succ, gamma_trials, cfg))
            delta = max(delta, _store(state, "gamma", new_gamma))
        return ll, delta

    def make_params(self, state: dict) -> DbnParams:
        return DbnParams(
            rel=self.vocab.table(state["rel"]),
            sat=self.vocab.table(state["sat"]),
            gamma_cont=float(state["gamma"]),
        )

    @staticmethod
    def empty_params(max_positions: int) -> DbnParams:
        return DbnParams(rel={}, sat={}, gamma_cont=DBN_GAMMA_INIT)


_FITTERS = {PBM: _PbmLayout, CASCADE: _CascadeFitter, UBM: _UbmLayout, DBN: _DbnFitter}


class _FitProblem:
    """One or more partitions (by intent) fitted jointly over shared iterations."""

    def __init__(
        self,
        model_kind: str,
        sessions: Sequence[Session],
        config: EmConfig,
        intent_aware: bool,
        max_positions: int | None,
        init_params: AnyParams | None,
    ):
        if model_kind not in _FITTERS:
            raise ValueError(f"unknown model kind {model_kind!r}")
        sessions = list(sessions)
        if not sessions:
            raise ValueError("cannot fit on an empty session set")
        observed = max((len(s) for s in sessions), default=0)
        self.max_positions = max_positions if max_positions is not None else observed
        if observed > self.max_positions:
            raise ValueError(
                f"sessions reach position {observed} > max_positions {self.max_positions}"
            )
        self.model_kind = model_kind
        self.intent_aware = intent_aware
        self.config = config
        fitter_cls = _FITTERS[model_kind]
        rng = np.random.default_rng(config.seed)

        self.partitions: dict[Intent | None, tuple] = {}
        if intent_aware:
            buckets: dict[Intent, list[Session]] = {}
            for s in sessions:
                buckets.setdefault(s.intent, []).append(s)
            for intent in (*KNOWN_INTENTS, Intent.UNKNOWN):
                members = buckets.get(intent, [])
                if not members:
                    continue
                fitter = fitter_cls(members, self.max_positions)
                state = fitter.init_state(rng, config.init_jitter)
                if init_params is not None:
                    fitter.seed_state(state, resolve_params(init_params, intent))
                self.partitions[intent] = (fitter, state)
        else:
            fitter = fitter_cls(sessions, self.max_positions)
            state = fitter.init_state(rng, config.init_jitter)
            if init_params is not None:
                fitter.seed_state(state, resolve_params(init_params))
            self.partitions[None] = (fitter, state)
        self.fitter_cls = fitter_cls

    @property
    def model_families(self) -> frozenset:
        return self.fitter_cls.families

    def step(self, families: frozenset) -> tuple[float, float]:
        ll_total = 0.0
        delta = 0.0
        for fitter, state in self.partitions.values():
            ll, d = fitter.iterate(state, families, self.config)
            ll_total += ll
            delta = max(delta, d)
        if not np.isfinite(ll_total):
            raise NumericError(f"log-likelihood became non-finite ({ll_total})")
        return ll_total, delta

    def make_params(self) -> AnyParams:
        if not self.intent_aware:
            fitter, state = self.partitions[None]
            return fitter.make_params(state)
        per_intent = {}
        for intent in KNOWN_INTENTS:
            if intent in self.partitions:
                fitter, state = self.partitions[intent]
                per_intent[intent] = fitter.make_params(state)
            else:
                per_intent[intent] = self.fitter_cls.empty_params(self.max_positions)
        if Intent.UNKNOWN in self.partitions:
            fitter, state = self.partitions[Intent.UNKNOWN]
            fallback = fitter.make_params(state)
        else:
            fallback = self.fitter_cls.empty_params(self.max_positions)
        return IntentAwareParams(per_intent=per_intent, fallback=fallback)


def em_fit(
    model_kind: str,
    sessions: Iterable[Session],
    config: EmConfig | None = None,
    *,
    intent_aware: bool = False,
    max_positions: int | None = None,
    families: frozenset | None = None,
    init_params: AnyParams | None = None,
) -> tuple[AnyParams, FitReport]:
    """Fit click-model parameters by EM until the largest parameter change
    drops below config.tol or config.max_iters is reached.

    families restricts the M-step to "rel" / "exam" parameter sides (both
    by default); init_params seeds the starting tables.
    """
    config = config or EmConfig()
    problem = _FitProblem(
        model_kind, sessions, config, intent_aware, max_positions, init_params
    )
    update = problem.model_families if families is None else frozenset(families) & problem.model_families
    trace: list[float] = []
    delta = float("inf")
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        ll, delta = problem.step(update)
        trace.append(ll)
        if config.verbose:
            logger.info("iter %d loglik %.6f max_delta %.3e", iterations, ll, delta)
        if delta < config.tol:
            break
    converged = delta < config.tol
    if not converged:
        logger.warning(
            "EM stopped at max_iters=%d with max delta %.3e >= tol %.1e",
            config.max_iters, delta, config.tol,
        )
    report = FitReport(
        iterations=iterations, final_delta=delta, loglik_trace=trace, converged=converged
    )
    return problem.make_params(), report


def alternating_fit(
    model_kind: str,
    sessions: Iterable[Session],
    config: EmConfig | None = None,
    *,
    max_positions: int | None = None,
    init_params: AnyParams | None = None,
) -> tuple[AnyParams, FitReport]:
    """Two-phase intent-aware fit: Phase A updates relevance-side parameters
    with examination tables held fixed, Phase B the reverse, alternating
    until all parameters jointly converge.

    Both phases ascend the same likelihood, so the trace stays
    non-decreasing across phase boundaries.
    """
    config = config or EmConfig()
    problem = _FitProblem(
        model_kind, sessions, config, True, max_positions, init_params
    )
    phases = [f for f in (frozenset((REL_SIDE,)), frozenset((EXAM_SIDE,)))
              if f & problem.model_families]
    trace: list[float] = []
    total_iters = 0
    round_delta = float("inf")
    for round_no in range(1, ALTERNATING_MAX_ROUNDS + 1):
        round_delta = 0.0
        for phase in phases:
            for _ in range(config.max_iters):
                ll, delta = problem.step(phase)
                trace.append(ll)
                total_iters += 1
                round_delta = max(round_delta, delta)
                if config.verbose:
                    logger.info(
                        "round %d phase %s iter %d loglik %.6f max_delta %.3e",
                        round_no, "/".join(sorted(phase)), total_iters, ll, delta,
                    )
                if delta < config.tol:
                    break
        if round_delta < config.tol:
            break
    converged = round_delta < config.tol
    if not converged:
        logger.warning(
            "alternating fit stopped after %d rounds with max delta %.3e >= tol %.1e",
            ALTERNATING_MAX_ROUNDS, round_delta, config.tol,
        )
    report = FitReport(
        iterations=total_iters,
        final_delta=round_delta,
        loglik_trace=trace,
        converged=converged,
    )
    return problem.make_params(), report
