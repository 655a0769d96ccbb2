"""EM parameter estimation for click models from session logs.

Every Bernoulli parameter is updated as a smoothed posterior mean:
(prior + expected successes) / (2 prior + expected trials). Sessions arrive
as one SessionBatch and each fitter reduces it to counts at build time. A
fitter writes only its E-step, ``expect``, giving expected successes and
trials of every field it fits; ``_Fitter.iterate`` is the one M-step and
alone reads ``families``, the sides ("rel", "exam") whose fields it updates.

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

One loop, ``_ascend``, runs every fit. It accelerates EM by monotone
SQUAREM (Varadhan & Roland, Scand. J. Statist. 35, 2008), separately in
each partition: two plain EM steps, an extrapolated point, and one EM step
from that point, kept only if the objective there is at least the
partition's last recorded value; otherwise the partition takes a plain
step instead. A partition stops once a step moves none of its parameters
by tol or more. ``_ascend`` records and logs each step in the fit's
``FitReport`` and finishes it; ``em_fit`` builds the partitions and the
params.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np

from .common import (CASCADE, DBN, DEFAULT_MAX_ITERS, DEFAULT_TOL, PBM, PROB_CLAMP, UBM,
                     DataError, NumericError, check_count)
from .models import (
    DEFAULT_REL,
    PARAMS_CLASSES,
    AnyParams,
    BaseParams,
    IntentAwareParams,
    last_click,
    resolve_params,
    table_values,
)
from .sessions import Intent, SessionBatch

logger = logging.getLogger(__name__)

REL_SIDE = "rel"
EXAM_SIDE = "exam"
_SIDE_OF = dict(rel=REL_SIDE, sat=REL_SIDE, exam=EXAM_SIDE, beta=EXAM_SIDE, gamma_cont=EXAM_SIDE)

# How a recorded step started: from the EM iterate, from a SQUAREM point,
# or from the EM iterate after the SQUAREM point lowered the objective.
PLAIN = "plain"
EXTRAPOLATED = "extrapolated"
REJECTED = "rejected"


@dataclass
class EmConfig:
    """EM loop knobs; ``prior`` is each outcome's Beta pseudo-count. EM starts
    from init_params or the params class's ``prior``, with no random part."""

    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    prior: float = 1.0

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        check_count("max_iters", self.max_iters)
        if not (self.prior >= 0 and math.isfinite(self.prior)):
            raise ValueError(f"priors must be non-negative and finite, got {self.prior}")


@dataclass
class FitReport:
    """Fit diagnostics.

    An iteration is one recorded step: every partition that has not yet
    stopped takes one EM step, from its current parameters or from a
    SQUAREM point. loglik_trace[k] is the objective EM ascends, evaluated
    at the parameters entering step k: the data log-likelihood plus the
    Bernoulli pseudo-count terms
    prior*(ln(theta) + ln(1-theta)) per parameter. With a zero prior it
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
    denom = np.asarray(cfg.prior + cfg.prior + trials, dtype=np.float64)
    num = cfg.prior + succ
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
        if cfg.prior > 0.0:
            total += cfg.prior * _sum_ll(np.log(np.clip(a, PROB_CLAMP, None)))
            total += cfg.prior * _sum_ll(np.log(np.clip(1.0 - a, PROB_CLAMP, None)))
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


def _squarem(fitter, state: dict, families: frozenset, cfg: EmConfig) -> Iterator[tuple]:
    """Monotone SQUAREM on one partition, without end.

    Yields (objective entering the step, largest change, how the step
    started) for each recorded EM step, whose M-step updates ``families``,
    and leaves ``state`` at the step's result. A cycle is two plain steps,
    then one step from the extrapolated point, kept only if its objective
    is at least the last recorded one; otherwise a plain step from where
    the second step ended.
    """
    while True:
        start = dict(state)
        yield (*fitter.iterate(state, families, cfg), PLAIN)
        mid = dict(state)
        ll_mid, delta = fitter.iterate(state, families, cfg)
        yield ll_mid, delta, PLAIN
        point = _extrapolate(start, mid, state)
        ll, delta = fitter.iterate(point, families, cfg)
        if ll >= ll_mid:
            state.update(point)
            yield ll, delta, EXTRAPOLATED
        else:
            yield (*fitter.iterate(state, families, cfg), REJECTED)


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
        """One EM step: ``expect``, then each field on a side in ``families`` set to its
        posterior mean. Returns the objective entering the step and the largest change."""
        ll, counts = self.expect(state, cfg)
        delta = 0.0
        for name, (succ, trials) in counts.items():
            if _SIDE_OF[name] in families:
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
        # Sessions cover positions 1..width, so the uncovered ones are the tail.
        if batch.width < max_positions:
            logger.warning(
                "no sessions cover positions %d-%d; their examination stays at the prior mean",
                batch.width + 1, max_positions,
            )

    def expect(self, state: dict, cfg: EmConfig) -> tuple[float, dict]:
        exam = state[self.exam_field]
        g = exam[self.cell]
        r = state["rel"][self.pair]
        ll = _binomial_ll(g * r, self.clicks, self.skips)
        ll += _prior_bonus(cfg, (exam, state["rel"]))
        p_rel = self.clicks + self.skips * factor_posterior(r, g)
        p_exam = self.clicks + self.skips * factor_posterior(g, r)
        return ll, {
            "rel": (np.bincount(self.pair, p_rel, len(self.keys)), self.rel_trials),
            self.exam_field: (np.bincount(self.cell, p_exam, len(self.exam_trials)),
                              self.exam_trials),
        }


class _CascadeFitter(_Fitter):
    """Closed-form MLE written as a (one-step) EM fixed point.

    Events after a session's first click are outside the cascade's
    generative story and are excluded; sessions with multiple clicks are
    structurally impossible and contribute a clamped constant to the
    likelihood.
    """

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

    def expect(self, state: dict, cfg: EmConfig) -> tuple[float, dict]:
        ll = _binomial_ll(state["rel"], self.clicks, self.trials - self.clicks)
        ll += self.n_impossible * float(np.log(PROB_CLAMP))
        ll += _prior_bonus(cfg, (state["rel"],))
        return ll, {"rel": (self.clicks, self.trials)}


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

    def expect(self, state: dict, cfg: EmConfig) -> tuple[float, dict]:
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

        return ll, {"rel": (self.clicks, rel_trials), "sat": (sat_succ, self.clicks),
                    "gamma_cont": (cont_succ, cont_trials)}


_FITTERS = {PBM: _ExamRelFitter, CASCADE: _CascadeFitter, UBM: _ExamRelFitter, DBN: _DbnFitter}


def _ascend(partitions: dict, families: frozenset, config: EmConfig) -> FitReport:
    """Up to max_iters accelerated EM steps over every partition in
    lockstep, each recorded in the returned report and logged at INFO
    level; ``partitions`` maps each intent to its (fitter, state).

    Each partition runs its own monotone SQUAREM cycle (``_squarem``) and
    stops after a step that moves none of its parameters by tol or more;
    from then on it adds its objective at its final tables. The steps end
    early once every partition has stopped. The report's final_delta is
    the largest of the partitions' latest changes, and the fit converged
    if that is below tol; if not, a warning says it stopped at max_iters.
    """
    report = FitReport(iterations=0, final_delta=float("inf"))
    runs = {
        key: _squarem(fitter, state, families, config)
        for key, (fitter, state) in partitions.items()
    }
    last_delta = dict.fromkeys(partitions, float("inf"))
    # A stopped partition's objective, computed when a later step needs it.
    stopped: dict = {}
    for _ in range(config.max_iters):
        if len(stopped) == len(runs):
            break
        ll_total, delta, kinds = 0.0, 0.0, []
        for key, run in runs.items():
            if key in stopped:
                if stopped[key] is None:
                    fitter, state = partitions[key]
                    stopped[key] = fitter.expect(state, config)[0]
                ll_total += stopped[key]
                continue
            ll, d, kind = next(run)
            ll_total += ll
            delta = max(delta, d)
            kinds.append(kind)
            last_delta[key] = d
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
            logger.info("iter %d loglik %.6f max_delta %.3e%s",
                        report.iterations, ll_total, delta, marks)
    report.final_delta = max(last_delta.values())
    report.converged = report.final_delta < config.tol
    if not report.converged:
        logger.warning("EM stopped at max_iters=%d with max delta %.3e >= tol %.1e",
                       config.max_iters, report.final_delta, config.tol)
    return report


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

    An intent-aware fit partitions the sessions by intent and fits every
    partition jointly over shared iterations. families restricts the
    M-step to "rel" / "exam" parameter sides (both by default);
    init_params, which must be of model_kind, seeds the starting tables.
    """
    if model_kind not in _FITTERS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if max_positions is not None:
        check_count("max_positions", max_positions)
    if not batch:
        raise ValueError("cannot fit on an empty session set")
    if batch.width == 0:
        raise DataError("no session shows any document, so there is nothing to fit")
    if max_positions is None:
        max_positions = batch.width
    if batch.width > max_positions:
        raise ValueError(f"sessions reach position {batch.width} > max_positions {max_positions}")
    fitter_cls, params_cls = _FITTERS[model_kind], PARAMS_CLASSES[model_kind]
    if init_params is None:
        init_params = params_cls.prior(max_positions)
    elif init_params.kind != model_kind:
        raise ValueError(f"init_params are for {init_params.kind!r}, not {model_kind!r}")

    # A base fit is one partition, which starts from Unknown's table.
    if intent_aware:
        parts = [(intent, batch.take(rows)) for intent, rows in batch.by_intent()]
    else:
        parts = [(Intent.UNKNOWN, batch)]
    partitions: dict[Intent, tuple] = {}
    for intent, part in parts:
        fitter = fitter_cls(part, params_cls, max_positions)
        partitions[intent] = (fitter, fitter.state_from(resolve_params(init_params, intent)))
    update = frozenset(_SIDE_OF.values() if families is None else families)
    report = _ascend(partitions, update, config or EmConfig())

    def fitted(key):
        # A fresh prior per slot, so no two slots share a table.
        prior = params_cls.prior(max_positions)
        if key not in partitions:
            return prior
        fitter, state = partitions[key]
        return fitter.params_from(state, prior)

    if not intent_aware:
        return fitted(Intent.UNKNOWN), report
    return IntentAwareParams.build(fitted), report


def alternating_fit(
    model_kind: str,
    batch: SessionBatch,
    config: EmConfig | None = None,
    *,
    max_positions: int | None = None,
) -> tuple[AnyParams, FitReport]:
    """``em_fit(..., intent_aware=True)``; ``fit --alternating`` is a
    synonym of ``--intent-aware``."""
    return em_fit(model_kind, batch, config, intent_aware=True, max_positions=max_positions)
