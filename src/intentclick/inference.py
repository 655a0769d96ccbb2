"""EM parameter estimation for click models from session logs.

Every Bernoulli parameter is updated as a smoothed posterior mean:
(alpha + expected successes) / (alpha + beta + expected trials). Sessions
arrive as one SessionBatch and each fitter reduces it to counts at build
time. A fitter writes only its E-step, ``expect``, giving expected
successes and trials per field; ``_Fitter.iterate`` is the one M-step.

PBM and UBM share one E-step through the exam-cell factorisation
P(C=1) = exam[cell] * rel[(query, doc)]: they differ only in which
examination cell an event uses, which their params class defines. Their
E-step runs once per distinct (pair, cell) combination, weighted by its
click and skip counts. DBN's E-step works from each session's last
click: the positions up to it give fixed counts, and the posterior over
how far the user examined the unclicked tail is a cumulative product,
run once per distinct (last-click pair, tail pairs) row. Every fitter
keeps its tables in sorted key order and its counts in sorted order, so a
fit is bit-identical under any order of the input sessions.
The params class owns the table layout: a fitter names only its table
fields with their keys and its scalar fields, ``_Fitter`` reads the state
from a params object and writes it back, and EM starts from the class's
``prior`` (every table at 0.5, DBN continuation at its default), which is
also the table of an intent partition without sessions.
Intent-aware fits partition sessions by their intent label into
independent estimation problems, so the ascent property of EM holds for
the summed log-likelihood.

One loop, ``_FitProblem.ascend``, runs every fit. It
accelerates EM by monotone SQUAREM (Varadhan & Roland, Scand. J. Statist.
35, 2008), separately in each partition: two plain EM steps, an
extrapolated point, and one EM step from that point, kept only if the
objective there is at least the partition's last recorded value;
otherwise the partition takes a plain step instead. A partition stops
once a step moves none of its parameters by tol or more. The problem owns
its ``FitReport``: ``ascend`` records and logs each step in it, and
``_FitProblem.result`` finishes it and builds the params.

The alternating fit takes ECM steps (Meng & Rubin, Biometrika 80, 1993)
in that loop: a relevance M-step, then, after a fresh E-step, an
examination M-step. Like EM's, the step is a monotone fixed-point map, so
SQUAREM accelerates it unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np

from .common import CASCADE, DBN, PBM, UBM
from .errors import DataError, NumericError
from .models import (
    PROB_CLAMP,
    DEFAULT_REL,
    PARAMS_CLASSES,
    AnyParams,
    BaseParams,
    IntentAwareParams,
    last_click,
    resolve_params,
    table_values,
)
from .sessions import Intent, KNOWN_INTENTS, SessionBatch

logger = logging.getLogger(__name__)

REL_SIDE = "rel"
EXAM_SIDE = "exam"
ALL_FAMILIES = frozenset((REL_SIDE, EXAM_SIDE))

# How a recorded step started: from the EM iterate, from a SQUAREM point,
# or from the EM iterate after the SQUAREM point lowered the objective.
PLAIN = "plain"
EXTRAPOLATED = "extrapolated"
REJECTED = "rejected"


@dataclass
class EmConfig:
    """Knobs for the EM loop. EM starts from the params class's ``prior``
    (or init_params) and has no random part, so it takes no seed."""

    tol: float = 1e-6
    max_iters: int = 200
    prior_alpha: float = 1.0
    prior_beta: float = 1.0

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.prior_alpha < 0 or self.prior_beta < 0:
            raise ValueError("priors must be non-negative")


@dataclass
class FitReport:
    """Fit diagnostics.

    An iteration is one recorded step: every partition that has not yet
    stopped takes one EM step (in an alternating fit, one ECM step: the
    relevance M-step, then the examination M-step), from its current
    parameters or from a SQUAREM point. loglik_trace[k] is the objective
    EM ascends, evaluated at the parameters entering step k: the data
    log-likelihood plus the Bernoulli pseudo-count terms
    alpha*ln(theta) + beta*ln(1-theta) per parameter. With zero priors it
    is the plain data log-likelihood. A stopped partition adds its
    objective at its final tables. EM and the monotone acceptance rule make
    the trace non-decreasing.

    Each probability factor is clamped at PROB_CLAMP before its log, so
    the trace is exactly the objective the E-step ascends. For DBN the
    factors are the per-position terms up to a session's last click and
    the total weight Z of its unclicked tail, whose posteriors divide by
    the same clamped Z. Summing ``session_log_likelihood``, which clamps
    each whole session's probability instead, gives the same value unless
    a session's probability falls below PROB_CLAMP.

    extrapolated counts partition steps taken from a SQUAREM point;
    rejected counts SQUAREM points dropped because their objective was
    lower than the partition's last recorded value. Rejected points are
    not recorded, so iterations == len(loglik_trace).
    """

    iterations: int
    final_delta: float
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False
    extrapolated: int = 0
    rejected: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def factor_posterior(x, y):
    """P(X=1 | C=0) for one factor of an unclicked event C = X*Y with
    independent X ~ Bernoulli(x), Y ~ Bernoulli(y); elementwise over
    scalars or arrays.

    Under the examination hypothesis (exam, rel) gives the examination
    posterior and (rel, exam) the relevance posterior. Bayes over the three
    unclicked outcomes gives x(1-y) / (1-xy), with the denominator clamped
    away from zero. A click pins both posteriors to 1.
    """
    return x * (1.0 - y) / np.maximum(1.0 - x * y, PROB_CLAMP)


def _posterior_mean(succ, trials, cfg: EmConfig):
    denom = np.asarray(cfg.prior_alpha + cfg.prior_beta + trials, dtype=np.float64)
    num = cfg.prior_alpha + succ
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, num / np.maximum(denom, PROB_CLAMP), DEFAULT_REL)
    return np.clip(out, 0.0, 1.0)


def _sum_ll(terms: np.ndarray) -> float:
    # Extended precision keeps the trace monotone beyond float64 rounding
    # on million-term sums.
    return float(np.sum(terms, dtype=np.longdouble))


def _binomial_ll(p: np.ndarray, clicks: np.ndarray, skips: np.ndarray) -> float:
    """Log-likelihood of click and skip counts at click probabilities p,
    each outcome's probability clamped before the log."""
    log_click = np.log(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))
    log_skip = np.log(np.clip(1.0 - p, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return _sum_ll(clicks * log_click + skips * log_skip)


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


def _sorted_keys(keys: list, codes: np.ndarray) -> tuple[list, np.ndarray]:
    """The keys the codes use, in sorted order, and the codes renumbered
    into that list.

    Tables keep this order, so the prior terms of the objective and the
    SQUAREM step length are summed in an order no session order changes.
    """
    used = np.flatnonzero(np.bincount(codes, minlength=len(keys)))
    order = sorted(used.tolist(), key=keys.__getitem__)
    rank = np.zeros(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return [keys[k] for k in order], rank[codes]


def _extrapolate(start: dict, mid: dict, end: dict) -> dict:
    """The SQUAREM point from two EM steps start -> mid -> end.

    With r = mid - start and v = end - 2 mid + start over all updated
    tables, the point is start - 2a r + a^2 v for the step length
    a = -|r| / |v| (Varadhan & Roland's SqS3), capped at -1, where the
    point is ``end`` itself. Values are clipped into the open unit
    interval. Tables the step did not update keep their object in ``end``
    and are carried over untouched.
    """
    moved = [k for k in end if end[k] is not start[k]]
    r = {k: np.subtract(mid[k], start[k]) for k in moved}
    v = {k: np.subtract(end[k], mid[k]) - r[k] for k in moved}
    rr = sum(float(np.sum(np.square(r[k]))) for k in moved)
    vv = sum(float(np.sum(np.square(v[k]))) for k in moved)
    alpha = min(-math.sqrt(rr / vv), -1.0) if vv > 0.0 else -1.0
    point = dict(end)
    for k in moved:
        value = start[k] - 2.0 * alpha * r[k] + alpha * alpha * v[k]
        point[k] = np.clip(value, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return point


def _squarem(fitter, state: dict, phases: tuple, cfg: EmConfig) -> Iterator[tuple]:
    """Monotone SQUAREM on one partition, without end.

    Yields (objective entering the step, largest change, how the step
    started) for each recorded step and leaves ``state`` at the step's
    result. A cycle is two plain steps, then one step from the
    extrapolated point, kept only if its objective is at least the last
    recorded one; otherwise a plain step from where the second step ended.
    """
    def step(at: dict) -> tuple[float, float]:
        results = [fitter.iterate(at, families, cfg) for families in phases]
        return results[0][0], max(delta for _, delta in results)

    while True:
        start = dict(state)
        yield (*step(state), PLAIN)
        mid = dict(state)
        ll_mid, delta = step(state)
        yield ll_mid, delta, PLAIN
        point = _extrapolate(start, mid, state)
        ll, delta = step(point)
        if ll >= ll_mid:
            state.update(point)
            yield ll, delta, EXTRAPOLATED
        else:
            yield (*step(state), REJECTED)


class _Fitter:
    """The one mapping between a params object and a fitter's state: an
    array per table field over the keys in ``tables``, then the fields
    named in ``scalars``. That is all a fitter says about the layout.

    A fitter is built as ``fitter_cls(batch, params_cls, max_positions)``;
    its ``expect`` is the E-step that ``iterate`` completes.
    """

    tables: dict[str, list]
    scalars: tuple[str, ...] = ()

    def state_from(self, params: BaseParams) -> dict:
        """State arrays read from params; keys they lack read DEFAULT_REL."""
        state = {name: table_values(getattr(params, name), keys)
                 for name, keys in self.tables.items()}
        state.update((name, getattr(params, name)) for name in self.scalars)
        return state

    def params_from(self, state: dict, prior: BaseParams) -> BaseParams:
        """The prior with every fitted field replaced by the state's values."""
        fitted = {name: dict(zip(keys, state[name].tolist()))
                  for name, keys in self.tables.items()}
        fitted.update((name, float(state[name])) for name in self.scalars)
        return replace(prior, **fitted)

    def iterate(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, float]:
        """One EM step: ``expect``, then each field it counts set to its posterior
        mean. Returns the objective entering the step and the largest change."""
        ll, counts = self.expect(state, families, cfg)
        delta = 0.0
        for name, (succ, trials) in counts.items():
            new = _posterior_mean(succ, trials, cfg)
            delta = max(delta, float(np.max(np.abs(new - state[name]), initial=0.0)))
            state[name] = new
        return ll, delta


class _ExamRelFitter(_Fitter):
    """The one E-step for the exam-cell factorisation
    P(C=1) = exam[cell] * rel[(query, doc)], shared by PBM and UBM.

    The params class (PbmParams or UbmParams) gives the examination-cell
    layout and the table it fills through ``cells_for``, ``cell_of`` and
    ``exam_field``. Events that share a (pair, cell) combination share their
    posteriors, so the E-step runs once per combination, weighted by its
    click and skip counts; combinations are in (pair, cell) order.
    """

    families = ALL_FAMILIES

    def __init__(self, batch: SessionBatch, params_cls: type, max_positions: int):
        cells = params_cls.cells_for(max_positions)
        n_cells = len(cells)
        valid = batch.valid
        self.keys, code = _sorted_keys(batch.keys, batch.pair[valid])
        code *= n_cells
        positions = np.arange(1, batch.width + 1)
        code += params_cls.cell_of(last_click(batch.clicks), positions, max_positions)[valid]
        code *= 2
        code += batch.clicks[valid]
        code, count = np.unique(code, return_counts=True)
        # Sorted codes put a combination's skip and click rows side by side.
        combo = code // 2
        first = np.flatnonzero(np.diff(combo, prepend=-1))
        self.pair, self.cell = np.divmod(combo[first], n_cells)
        self.clicks = np.add.reduceat(count * (code % 2), first).astype(np.float64)
        trials = np.add.reduceat(count, first).astype(np.float64)
        self.skips = trials - self.clicks
        self.exam_trials = np.bincount(self.cell, weights=trials, minlength=n_cells)
        self.rel_trials = np.bincount(self.pair, weights=trials, minlength=len(self.keys))
        self.exam_field = params_cls.exam_field
        self.tables = {self.exam_field: cells, "rel": self.keys}
        uncovered = list(range(batch.width + 1, max_positions + 1))
        if uncovered:
            logger.warning(
                "no sessions cover positions %s; their examination stays at the prior mean",
                uncovered,
            )

    def expect(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, dict]:
        exam = state[self.exam_field]
        g = exam[self.cell]
        r = state["rel"][self.pair]
        ll = _binomial_ll(g * r, self.clicks, self.skips)
        ll += _prior_bonus(cfg, (exam, state["rel"]))
        counts = {}
        if REL_SIDE in families:
            p_rel = self.clicks + self.skips * factor_posterior(r, g)
            counts["rel"] = (np.bincount(self.pair, p_rel, len(self.keys)), self.rel_trials)
        if EXAM_SIDE in families:
            p_exam = self.clicks + self.skips * factor_posterior(g, r)
            counts[self.exam_field] = (np.bincount(self.cell, p_exam, len(self.exam_trials)),
                                       self.exam_trials)
        return ll, counts


class _CascadeFitter(_Fitter):
    """Closed-form MLE written as a (one-step) EM fixed point.

    Events after a session's first click are outside the cascade's
    generative story and are excluded; sessions with multiple clicks are
    structurally impossible and contribute a clamped constant to the
    likelihood.
    """

    families = frozenset((REL_SIDE,))

    def __init__(self, batch: SessionBatch, params_cls: type, max_positions: int):
        possible = batch.clicks.sum(axis=1) <= 1
        self.n_impossible = int(np.count_nonzero(~possible))
        # A doc is examined up to and including the session's first click.
        events = batch.valid & (last_click(batch.clicks) == 0) & possible[:, None]
        self.keys, pair = _sorted_keys(batch.keys, batch.pair[events])
        self.clicks = np.bincount(pair, weights=batch.clicks[events], minlength=len(self.keys))
        self.trials = np.bincount(pair, minlength=len(self.keys)).astype(np.float64)
        self.tables = {"rel": self.keys}
        if self.n_impossible:
            logger.warning(
                "%d sessions have multiple clicks and are impossible under the "
                "cascade model; they contribute only a clamped likelihood floor",
                self.n_impossible,
            )

    def expect(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, dict]:
        ll = _binomial_ll(state["rel"], self.clicks, self.trials - self.clicks)
        ll += self.n_impossible * float(np.log(PROB_CLAMP))
        ll += _prior_bonus(cfg, (state["rel"],))
        return ll, {"rel": (self.clicks, self.trials)} if REL_SIDE in families else {}


class _DbnFitter(_Fitter):
    """DBN EM over each session's last click L (Chapelle & Zhang, WWW 2009).

    Every position up to L is examined and every click before L was not
    satisfying, so those positions give fixed counts at build time: the
    relevance trials, the click counts (relevance successes and
    satisfaction trials) and L - 1 continuation trials that all succeed.
    Only the examination depth D in {L .. n} is latent, D = L meaning the
    user stopped at L, satisfied or not. Its weights are a cumulative
    product over the unclicked tail; their suffix sums give P(E_t = 1)
    past L, and the satisfied share of D = L gives P(S_L = 1). Latent rows
    (last-click pair, tail pairs) are grouped by (has a click, tail length)
    into dense arrays; equal rows are one row weighted by their count, in
    sorted order.
    """

    families = ALL_FAMILIES
    scalars = ("gamma_cont",)

    def __init__(self, batch: SessionBatch, params_cls: type, max_positions: int):
        valid = batch.valid
        self.keys, codes = _sorted_keys(batch.keys, batch.pair[valid])
        self.tables = {"rel": self.keys, "sat": self.keys}
        pair = np.zeros(batch.pair.shape, dtype=np.int64)
        pair[valid] = codes
        clicked = batch.clicks > 0
        positions = np.arange(1, batch.width + 1)
        last = np.max(np.where(clicked, positions, 0), axis=1, initial=0)
        prefix = positions < last[:, None]

        def per_pair(mask):
            return np.bincount(pair[mask], minlength=len(self.keys)).astype(np.float64)

        self.clicks = per_pair(clicked)
        self.prefix_clicks = per_pair(prefix & clicked)
        self.prefix_skips = per_pair(prefix & ~clicked)
        self.prefix_cont = float(np.sum(np.maximum(last - 1, 0)))
        # Group key: 2 * tail length + has a click; empty sessions drop out.
        group = 2 * (batch.lengths - last) + (last > 0)
        group[batch.lengths == 0] = -1
        self.groups = []
        for key in np.flatnonzero(np.bincount(group[group >= 0])).tolist():
            rows = np.flatnonzero(group == key)
            tail, has_click = divmod(key, 2)
            start = last[rows] - has_click
            cells = pair[rows[:, None], start[:, None] + np.arange(tail + has_click)]
            cells = cells[np.lexsort(cells.T[::-1])]
            first = np.flatnonzero(np.any(np.diff(cells, axis=0, prepend=-1) != 0, axis=1))
            count = np.diff(first, append=len(cells)).astype(np.float64)
            cells = cells[first]
            self.groups.append((cells[:, 0] if has_click else None, cells[:, has_click:], count))

    def expect(self, state: dict, families: frozenset, cfg: EmConfig) -> tuple[float, dict]:
        n_pairs = len(self.keys)
        rel, sat, g = state["rel"], state["sat"], state["gamma_cont"]

        def log(p):
            return np.log(np.maximum(p, PROB_CLAMP))

        ll = _sum_ll(self.clicks * log(rel) + self.prefix_skips * log(1.0 - rel)
                     + self.prefix_clicks * log(1.0 - sat))
        ll += self.prefix_cont * float(log(g)) + _prior_bonus(cfg, (rel, sat, g))
        rel_trials = self.clicks + self.prefix_skips
        sat_succ = np.zeros(n_pairs)
        cont_succ = cont_trials = self.prefix_cont
        for last, tail, count in self.groups:
            # w[:, j]: the user examined the tail through its position j, then stopped.
            step = 1.0 - rel[tail]
            if last is None:
                # No click: the first position is examined for sure.
                step[:, 1:] *= g
                w, stop = np.cumprod(step, axis=1), 0.0
            else:
                s = sat[last]
                step *= g
                w = (1.0 - s)[:, None] * np.cumprod(step, axis=1)
                # Stopping at L: satisfied, or not and not going on.
                stop = s + (1.0 - s) * (1.0 - g) if tail.shape[1] else 1.0
            w[:, :-1] *= 1.0 - g
            z = np.maximum(stop + w.sum(axis=1), PROB_CLAMP)
            ll += _sum_ll(count * np.log(z))
            weight = count / z
            exam = np.cumsum(w[:, ::-1], axis=1)[:, ::-1] * weight[:, None]
            rel_trials += np.bincount(tail.ravel(), weights=exam.ravel(), minlength=n_pairs)
            # A continuation trial leaves each examined, unsatisfied position
            # but the last; it succeeds if the next position is examined.
            cont_trials += float(exam[:, :-1].sum())
            cont_succ += float(exam[:, 1:].sum())
            if last is not None:
                sat_post = s * weight
                sat_succ += np.bincount(last, weights=sat_post, minlength=n_pairs)
                if tail.shape[1]:
                    cont_trials += float(np.sum(count - sat_post))
                    cont_succ += float(exam[:, 0].sum())

        counts = {}
        if REL_SIDE in families:
            counts.update(rel=(self.clicks, rel_trials), sat=(sat_succ, self.clicks))
        if EXAM_SIDE in families:
            counts["gamma_cont"] = (cont_succ, cont_trials)
        return ll, counts


_FITTERS = {PBM: _ExamRelFitter, CASCADE: _CascadeFitter, UBM: _ExamRelFitter, DBN: _DbnFitter}


class _FitProblem:
    """One or more partitions (by intent) fitted jointly over shared
    iterations, and the report of that fit."""

    def __init__(
        self,
        model_kind: str,
        batch: SessionBatch,
        config: EmConfig | None,
        intent_aware: bool,
        max_positions: int | None,
        init_params: AnyParams | None,
    ):
        if model_kind not in _FITTERS:
            raise ValueError(f"unknown model kind {model_kind!r}")
        if not batch:
            raise ValueError("cannot fit on an empty session set")
        if batch.width == 0:
            raise DataError("no session shows any document, so there is nothing to fit")
        self.max_positions = max_positions if max_positions is not None else batch.width
        if batch.width > self.max_positions:
            raise ValueError(
                f"sessions reach position {batch.width} > max_positions {self.max_positions}"
            )
        self.intent_aware = intent_aware
        self.config = config or EmConfig()
        fitter_cls = _FITTERS[model_kind]
        self.model_families = fitter_cls.families
        self.params_cls = PARAMS_CLASSES[model_kind]
        if init_params is None:
            init_params = self.params_cls.prior(self.max_positions)

        if intent_aware:
            parts = [(intent, batch.take(rows)) for intent, rows in batch.by_intent()]
        else:
            parts = [(None, batch)]
        self.partitions: dict[Intent | None, tuple] = {}
        for intent, part in parts:
            fitter = fitter_cls(part, self.params_cls, self.max_positions)
            start = resolve_params(init_params, intent or Intent.UNKNOWN)
            self.partitions[intent] = (fitter, fitter.state_from(start))
        self.last_delta = dict.fromkeys(self.partitions, float("inf"))
        self.report = FitReport(iterations=0, final_delta=float("inf"))

    def ascend(self, phases: tuple, label: str) -> None:
        """Up to max_iters accelerated steps over every partition in
        lockstep, each recorded in the report and logged at INFO level
        after ``label``. A step runs an E-step and an M-step of each family
        set in ``phases`` in turn: one EM step, or one ECM step.

        Each partition runs its own monotone SQUAREM cycle (``_squarem``)
        and stops after a step that moves none of its parameters by tol or
        more; from then on it adds its objective at its final tables. The
        steps end early once every partition has stopped. ``last_delta``
        keeps each partition's latest change.
        """
        config, report = self.config, self.report
        runs = {
            key: _squarem(fitter, state, phases, config)
            for key, (fitter, state) in self.partitions.items()
        }
        # A stopped partition's objective, computed when a later step needs it.
        stopped: dict = {}
        for _ in range(config.max_iters):
            if len(stopped) == len(runs):
                break
            ll_total, delta, kinds = 0.0, 0.0, []
            for key, run in runs.items():
                if key in stopped:
                    if stopped[key] is None:
                        fitter, state = self.partitions[key]
                        stopped[key] = fitter.expect(state, frozenset(), config)[0]
                    ll_total += stopped[key]
                    continue
                ll, d, kind = next(run)
                ll_total += ll
                delta = max(delta, d)
                kinds.append(kind)
                self.last_delta[key] = d
                if d < config.tol:
                    stopped[key] = None
            if not np.isfinite(ll_total):
                raise NumericError(f"log-likelihood became non-finite ({ll_total})")
            report.iterations += 1
            report.loglik_trace.append(ll_total)
            report.extrapolated += kinds.count(EXTRAPOLATED)
            report.rejected += kinds.count(REJECTED)
            if logger.isEnabledFor(logging.INFO):
                marks = "".join(
                    f" {k}={kinds.count(k)}" for k in (EXTRAPOLATED, REJECTED) if k in kinds
                )
                logger.info(
                    "%siter %d loglik %.6f max_delta %.3e%s",
                    label, report.iterations, ll_total, delta, marks,
                )

    def result(self, fit_name: str) -> tuple[AnyParams, FitReport]:
        """The fitted params and the finished report. Its final_delta is
        the largest of the partitions' latest changes, and the fit
        converged if that is below tol; if not, a warning says that
        ``fit_name`` stopped at max_iters."""
        report, tol = self.report, self.config.tol
        report.final_delta = final_delta = max(self.last_delta.values())
        report.converged = final_delta < tol
        if not report.converged:
            logger.warning("%s stopped at max_iters=%d with max delta %.3e >= tol %.1e",
                           fit_name, self.config.max_iters, final_delta, tol)

        def fitted(key):
            # A fresh prior per slot, so no two slots share a table.
            prior = self.params_cls.prior(self.max_positions)
            if key not in self.partitions:
                return prior
            fitter, state = self.partitions[key]
            return fitter.params_from(state, prior)

        if not self.intent_aware:
            return fitted(None), report
        return IntentAwareParams(
            per_intent={intent: fitted(intent) for intent in KNOWN_INTENTS},
            fallback=fitted(Intent.UNKNOWN),
        ), report


def em_fit(
    model_kind: str,
    batch: SessionBatch,
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
    problem = _FitProblem(model_kind, batch, config, intent_aware, max_positions, init_params)
    update = problem.model_families if families is None else frozenset(families) & problem.model_families
    problem.ascend((update,), "")
    return problem.result("EM")


def alternating_fit(
    model_kind: str,
    batch: SessionBatch,
    config: EmConfig | None = None,
    *,
    max_positions: int | None = None,
) -> tuple[AnyParams, FitReport]:
    """Intent-aware fit by ECM steps: each updates the relevance side with
    the examination tables held fixed, then, after a fresh E-step, the
    examination tables with relevance held fixed.

    A step records the objective entering it and the largest change of
    either M-step. Both ascend the same objective, so the trace is
    non-decreasing and the fit stops at the joint intent-aware EM's fixed
    point. Cascade has no examination side, so its fit is the joint one.
    """
    problem = _FitProblem(model_kind, batch, config, True, max_positions, None)
    sides = [side for side in (REL_SIDE, EXAM_SIDE) if side in problem.model_families]
    problem.ascend(tuple(frozenset((side,)) for side in sides), f"phases {','.join(sides)} ")
    return problem.result("alternating fit")
