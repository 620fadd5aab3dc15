"""Internal risk-set engine shared by the model modules.

Subjects are sorted once by decreasing ``y`` and, within one ``y``,
censored before events.  The risk set of interval ``j`` is then the
first ``n_j`` rows, its event-free members the first ``n_j - T_j`` rows
and its events the ``T_j`` rows in between, so every per-interval
aggregate is a cumulative sum over that order read at two boundaries
per event interval (the reverse-cumulative-sum recipe of Cox-model
software).  The rows are cut into blocks at those boundaries, each block
is summed once with ``np.add.reduceat`` and the block sums are
accumulated: a pass costs O(n d) time and memory.  It writes
``[w | w X]`` into one buffer and block-sums it with one call into one
``(blocks, width)`` array, a payload's sums ``w Z`` into further
columns, each summed on its own.  No per-interval d x d sum is formed:
the models need only ``sum_k c_k S2_k`` (and the like over event-free
members, events and ``w^2`` weights), which is ``sum_i w_i C_i X_i X_i'``
with ``C`` one cumulative sum of ``c`` over the intervals, so one
``Xc' diag(u) Xc`` per epoch (``Aggregates.contract``).

Exponential weights are shifted by the largest linear predictor among
the rows summed so far, which for a risk set is the per-interval
shift of the literal form; the accumulation rescales in bands of
``_BAND`` so no sum underflows however far ``eta`` spreads.  When the
shift rises by less than ``_BAND`` over the epoch, the usual case, the
accumulation is one cumulative sum with no band loop.

Time-varying covariates are piecewise constant in ``j``.  Each run of
intervals over which no subject at risk changes its covariates (an
epoch) is summed in one pass.  Sums are taken over covariates centred
at the mean of the epoch's largest risk set; every aggregate the models
use is location invariant, and ``Aggregates.center`` restores the
origin where a caller needs it.

Each dataset has one engine (``DiscreteSurvivalData.risk_sets``), which
every fit, variance, influence row and curve on it shares.  The engine
keeps a few results in a store of one entry per slot, each under the
exact coefficients (or settings) it was computed at, so that an
analysis computes each of them once:

* its last full (payload-free) pass: a Newton step's accepted candidate
  is the next iterate's pass;
* per model (``"prob"``, ``"odds"``), the full pass the last fit of that
  model returned from, which its variances read after the other model's
  fit has made passes of its own;
* the ``prob`` fit's converged root under its ``(tol, max_iter)``, the
  default start of the ``odds`` fit;
* per model, the influence rows at one coefficient vector, which the
  robust variance and the curve share (read-only);
* ``"person_period"``: the ``plogit`` person-period, which the fit and
  its variances share (``plogit._person_period``).  It keeps the layout
  arrays it reads, not the engine, so the two form no reference cycle,
  and it holds no tiles between passes.

The same store keeps, per epoch, positions that depend on the layout
alone: the interval each row of the epoch sums through
(``subject_sums``).  For every span but a subject's own event the rows
that sum through some interval are a prefix of the engine's order,
since that interval never increases down the order; such a pass reads
the prefix ``Xc[:r]`` and adds into ``out[:r]`` with no row gather.
Every other gather of rows is one ``np.take`` along axis 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import DiscreteSurvivalData, risk_summary

# width of the exponent range one rescaled cumulative sum spans; twice
# this stays far from the limits of double precision
_BAND = 300.0

# elements of one dense (event intervals x subjects) block: bounds the
# working memory of every pass that visits risk-set members one by one
_TILE = 2 ** 16


def _scaled_cumsum(log_scale, values):
    """Cumulative sums of ``e^{log_scale[k]} values[k]`` along axis 0.

    Returns ``(sums, top)`` with ``top`` the running maximum of
    ``log_scale`` and ``sums[k] e^{top[k]}`` the k-th cumulative sum.
    Terms are accumulated in bands over which ``top`` rises by less
    than ``_BAND``, each relative to its value at the band's start, so
    every returned sum is finite and, where nonzero, not subnormal.
    ``log_scale`` may hold ``-inf`` for zero terms.
    """
    top = np.maximum.accumulate(log_scale)
    live = np.flatnonzero(np.isfinite(top))
    if live.size == 0:
        return np.zeros_like(values), top
    first = live[0]
    lead = (slice(None),) + (None,) * (values.ndim - 1)
    if np.floor((top[-1] - top[first]) / _BAND) == 0:
        # one band, the usual case: no rescaling between bands
        ref = top[first]
        out = np.cumsum(np.exp(log_scale[first:] - ref)[lead] * values[first:],
                        axis=0)
        out *= np.exp(ref - top[first:])[lead]
        if first:
            out = np.concatenate([np.zeros_like(values[:first]), out])
        return out, top
    out = np.zeros_like(values)
    band = np.floor((top[first:] - top[first]) / _BAND)
    cuts = np.flatnonzero(np.diff(band)) + first + 1
    carry, prev = None, None
    for lo, hi in zip(np.r_[first, cuts], np.r_[cuts, top.size]):
        # the band's lowest running maximum: the sums that need no
        # rescaling (a first risk set of one subject) stay exact
        ref = top[lo]
        part = np.cumsum(np.exp(log_scale[lo:hi] - ref)[lead] * values[lo:hi],
                         axis=0)
        if carry is not None:
            part += carry * np.exp(prev - ref)
        carry, prev = part[-1], ref
        out[lo:hi] = part * np.exp(ref - top[lo:hi])[lead]
    return out, top


@dataclass
class Aggregates:
    """Risk-set sums of every event interval at one coefficient vector.

    Entry ``i`` of each array belongs to event interval ``k[i]``.  The
    sums run over covariates centred at ``center`` and carry weights
    ``w = e^{eta - shift}``, with ``eta`` the centred linear predictor
    and ``shift`` its largest value in the risk set; the true linear
    predictor is ``eta + offset``.  Names follow the kernels of the
    estimating equations: ``S0, S1`` sum ``w, w X`` over the risk set,
    ``s0d, M1`` over its event-free members and ``Tw, SDw1`` over its
    events; ``SD1`` is the unweighted event sum.  ``Q0, Q1`` (risk set),
    ``Qf0, Qf1`` (event-free) and ``Qe0`` (events) weight by ``w^2``;
    ``Z, Zf, Ze`` are the ``w``-weighted sums of a per-subject payload.
    ``log_s0`` and ``log_s0d`` are the true-scale logs of ``sum e^{eta}``
    over the risk set and its event-free part, and ``me = M1 / s0d`` is
    the event-free weighted mean, read at the event-free part's own
    scale so that it stays finite where ``s0d`` underflows (0 without
    event-free members).  Sums a call did not request are ``None``.
    ``rows`` holds per epoch what ``contract`` reads; ``index`` places
    a subset's intervals in the whole pass.
    """

    k: np.ndarray
    T: np.ndarray
    m: np.ndarray
    shift: np.ndarray
    offset: np.ndarray
    center: np.ndarray
    SD1: np.ndarray
    log_s0: np.ndarray
    log_s0d: np.ndarray
    S0: np.ndarray
    s0d: np.ndarray
    Tw: np.ndarray
    S1: np.ndarray = None
    M1: np.ndarray = None
    SDw1: np.ndarray = None
    Q0: np.ndarray = None
    Qf0: np.ndarray = None
    Qe0: np.ndarray = None
    Q1: np.ndarray = None
    Qf1: np.ndarray = None
    Z: np.ndarray = None
    Zf: np.ndarray = None
    Ze: np.ndarray = None
    me: np.ndarray = None
    rows: tuple = ()
    index: np.ndarray = None

    def subset(self, mask):
        """The aggregates of the event intervals selected by ``mask``
        (``self`` when it selects them all)."""
        if np.all(mask):
            return self
        picked = {f.name: getattr(self, f.name) for f in fields(self)}
        picked["index"] = np.arange(self.k.size) if self.index is None else self.index
        return Aggregates(**{name: value[mask] if isinstance(value, np.ndarray)
                             else value for name, value in picked.items()})

    @property
    def mixed(self):
        """The aggregates of the risk sets holding both events and
        event-free members, split once per object."""
        split = self.__dict__.get("_mixed")
        if split is None:
            split = self.subset(self.T < self.m)
            if split is not self:  # no reference cycle to keep it alive
                self._mixed = split
        return split

    def contract(self, risk=None, free=None, events=None, risk_sq=None,
                 free_sq=None):
        """``sum_k risk_k S2_k + free_k M2_k + events_k SDw2_k + risk_sq_k
        Q2_k + free_sq_k Qf2_k``, with ``S2, M2, SDw2`` the sums of
        ``w X X'`` over the risk set, its event-free part and its events
        and ``Q2, Qf2`` of ``w^2 X X'``: per epoch ``Xc' diag(u) Xc``,
        ``u_i = w_i C_i + w_i^2 C'_i`` (see ``_Layout.spread``)."""
        total = np.zeros((self.center.shape[1],) * 2)
        if events is not None:  # the unit's event-free risk set has no event block
            events = np.where(self.T > 0, events, 0.0)
        coefs = [risk, free, events, risk_sq, free_sq]
        if self.index is not None:  # zero at the pass's other intervals
            coefs = [None if c is None else
                     np.bincount(self.index, c, self.rows[-1][-1].stop)
                     for c in coefs]
        for lay, Xc, w, blkmax, shift, sel in self.rows:
            c = [None if v is None else v[sel] for v in coefs]
            u = w * np.repeat(lay.spread(blkmax, shift, *c[:3]), lay.lengths)
            if c[3] is not None or c[4] is not None:
                u += w * w * np.repeat(
                    lay.spread(2.0 * blkmax, 2.0 * shift, *c[3:]), lay.lengths)
            total += Xc.T @ (u[:, None] * Xc)
        return total


# names of the w-weighted and w^2-weighted sums by set, in the order
# risk set, event-free members, events
_W_NAMES = {0: ("S0", "s0d", "Tw"), 1: ("S1", "M1", "SDw1"),
            "Z": ("Z", "Zf", "Ze")}
_Q_NAMES = {0: ("Q0", "Qf0", "Qe0"), 1: ("Q1", "Qf1", None)}


class _Layout:
    """Row blocks of one epoch: boundaries at ``n_k - T_k`` and ``n_k``
    for each of its event intervals ``ks``, and where each interval's
    risk set, event-free part and events sit among the blocks."""

    def __init__(self, ks, n_at_risk, n_events):
        self.ks = ks
        r = n_at_risk[ks - 1]
        f = r - n_events[ks - 1]
        bounds = np.unique(np.concatenate(([0], f, r)))
        self.rows = int(bounds[-1])
        self.starts = bounds[:-1]
        self.lengths = np.diff(bounds)
        self.risk = np.searchsorted(bounds, r) - 1    # prefix through block
        self.free = np.searchsorted(bounds, f) - 1    # -1: no event-free member
        self.events = self.free + 1                   # the block [f, r)
        self.has_free = self.free >= 0
        self.at_free = np.maximum(self.free, 0)
        # per block, the last interval whose risk set (event-free part) holds it
        blocks = -np.arange(self.starts.size)
        self.last_risk = np.searchsorted(-self.risk, blocks, side="right") - 1
        self.last_free = np.searchsorted(-self.free, blocks[:self.free[0] + 1], side="right") - 1

    def block_sums(self, values):
        return np.add.reduceat(values, self.starts, axis=0)

    def read(self, prefix, blocks, top, block_top, scale):
        """Risk-set, event-free and event sums from block sums and their
        prefix sums, rescaled from the blocks' scales to ``scale``."""
        risk = prefix[self.risk]
        lead = (slice(None),) + (None,) * (prefix.ndim - 1)
        f_fac = np.where(self.has_free, np.exp(top[self.at_free] - scale), 0.0)
        free = prefix[self.at_free] * f_fac[lead]
        events = (blocks[self.events]
                  * np.exp(block_top[self.events] - scale)[lead])
        return risk, free, events

    def spread(self, block_top, scale, risk=None, free=None, events=None):
        """Per block ``b``, ``sum_k c_k e^{block_top_b - scale_k}`` over the
        intervals whose risk set (``c = risk``), event-free part or
        events hold it: for the first two one log-scale cumulative sum
        of ``c_k e^{-scale_k}`` over ``k``.  No exponent read exceeds 0."""
        out = np.zeros(self.starts.size)
        for c, last in ((risk, self.last_risk), (free, self.last_free)):
            if c is not None:
                sums, top = _scaled_cumsum(-scale, c)
                out[:last.size] += sums[last] * np.exp(
                    block_top[:last.size] + top[last])
        if events is not None:
            out[self.events] += events * np.exp(block_top[self.events] - scale)
        return out


def _weighted_sums(lay, Xc, eta, order, squares, Z):
    """Risk-set, event-free and event sums of one epoch (see Aggregates),
    the per-row weights ``w`` and the block maxima of ``eta``."""
    d = Xc.shape[1]
    blkmax = np.maximum.reduceat(eta, lay.starts)
    w = np.exp(eta - np.repeat(blkmax, lay.lengths))
    out = {}

    def moments(weight, max_order, payload, log_scale, names):
        # block sums of [w | w X | w Z] in one (blocks, width) array:
        # [w | w X] from one (rows, 1 + d) buffer, a payload's on its own
        lin = 1 + d if max_order >= 1 else 1
        width = lin + (0 if payload is None else payload.shape[1])
        blocks = np.empty((lay.starts.size, width))
        buf = np.empty((lay.rows, lin))
        buf[:, 0] = weight
        if max_order >= 1:
            np.multiply(weight[:, None], Xc, out=buf[:, 1:])
        np.add.reduceat(buf, lay.starts, axis=0, out=blocks[:, :lin])
        del buf
        if payload is not None:
            np.add.reduceat(weight[:, None] * payload, lay.starts, axis=0,
                            out=blocks[:, lin:])
        prefix, top = _scaled_cumsum(log_scale, blocks)
        scale = top[lay.risk]
        groups = [(names[0], slice(0, 1), ())]
        if max_order >= 1:
            groups.append((names[1], slice(1, lin), (d,)))
        if payload is not None:
            groups.append((names["Z"], slice(lin, width), payload.shape[1:]))
        for at, arr in enumerate(lay.read(prefix, blocks, top, log_scale,
                                          scale)):
            for set_names, cols, shape in groups:
                if set_names[at] is not None:
                    out[set_names[at]] = arr[:, cols].reshape((-1,) + shape)
        return prefix, top, scale

    prefix, top, scale = moments(w, order, Z, blkmax, _W_NAMES)
    has_free, at_free = lay.has_free, lay.at_free
    out["shift"] = scale
    out["log_s0"] = np.log(out["S0"]) + scale
    with np.errstate(divide="ignore"):
        out["log_s0d"] = np.where(has_free,
                                  np.log(prefix[at_free, 0]) + top[at_free],
                                  -np.inf)
    if order >= 1:
        # columns 1..d of the prefix sums hold the M1 group
        own = prefix[at_free]
        out["me"] = np.divide(own[:, 1:1 + d], own[:, :1],
                              out=np.zeros((own.shape[0], d)),
                              where=has_free[:, None])
    if squares is not None:
        moments(w * w, squares, None, 2.0 * blkmax, _Q_NAMES)
    return out, w, blkmax


class RiskSets:
    """Risk-set layout of one dataset and the prefix-sum aggregates over it.

    ``order`` sorts subjects by decreasing ``y_index``, censored before
    events within one ``y_index`` (stably otherwise); the risk set of
    interval ``j`` is the first ``n_j`` subjects of that order.
    ``rank`` is its inverse, each subject's position in it, which puts
    rows in that order back in subject order with one ``np.take``.
    """

    def __init__(self, data: DiscreteSurvivalData):
        self.n, self.d = data.n, data.d
        summary = risk_summary(data)
        self.n_at_risk = summary.n_at_risk
        self.n_events = summary.n_events
        self.order = np.lexsort((data.delta, -data.y))
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(self.n)
        self.event_intervals = np.flatnonzero(self.n_events > 0) + 1
        self._y = data.y[self.order]
        self._delta = data.delta[self.order]
        J = data.n_intervals
        firsts = np.r_[1, data.covariate_changes()]
        lasts = np.r_[firsts[1:] - 1, J]
        self._epochs = []
        for lo, hi in zip(firsts, lasts):
            X = np.take(data.covariates_at(int(lo)), self.order, axis=0)
            ks = self.event_intervals[(self.event_intervals >= lo)
                                      & (self.event_intervals <= hi)]
            lay = _Layout(ks, self.n_at_risk, self.n_events) if ks.size else None
            if lay is None:
                center = np.zeros(self.d)
                Xc = SD1 = X[:0]
            else:
                center = X[:lay.rows].mean(axis=0)
                Xc = X[:lay.rows] - center
                SD1 = lay.block_sums(Xc)[lay.events]
                SD1.flags.writeable = False  # every pass shares it
            self._epochs.append((int(lo), int(hi), X, lay, center, Xc, SD1))
        # slot -> (key, value); see the module docstring
        self._kept = {}

    def _live_epochs(self):
        """(first, last, layout, centre, centred rows, event sums, slice
        of the event intervals) of each epoch with event intervals."""
        at = 0
        for lo, hi, _, lay, center, Xc, SD1 in self._epochs:
            if lay is None:
                continue
            yield lo, hi, lay, center, Xc, SD1, slice(at, at + lay.ks.size)
            at += lay.ks.size

    def _sorted(self, values, e, rows):
        """The first ``rows`` rows, in the engine's order, of a
        per-subject array (or of its epoch ``e`` slice)."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 3:
            values = values[e]
        return np.take(values, self.order[:rows], axis=0)

    def aggregates(self, coef, squares: int | None = None,
                   payload=None) -> Aggregates:
        """Aggregates (see the class) of every event interval at ``coef``.

        ``squares`` is the highest order in X of the ``w^2``-weighted
        sums (``None``: none).  ``payload`` is an ``(n, p)`` per-subject
        array, or one such array for each epoch of ``epoch_spans``
        stacked ``(epochs, n, p)``, whose ``w``-weighted sums fill
        ``Z, Zf, Ze``.  A full pass (no payload) is kept for ``full``.
        """
        coef = np.asarray(coef, dtype=float)
        parts, rows = [], []
        for e, (_, _, lay, center, Xc, SD1, sel) in enumerate(self._live_epochs()):
            Z = None
            if payload is not None:
                Z = self._sorted(payload, e, lay.rows)
            part, w, blkmax = _weighted_sums(lay, Xc, Xc @ coef, 1, squares, Z)
            part["offset"] = np.full(lay.ks.size, float(center @ coef))
            part["center"] = np.broadcast_to(center, (lay.ks.size, self.d))
            part["SD1"] = SD1
            part["log_s0"] = part["log_s0"] + part["offset"]
            part["log_s0d"] = part["log_s0d"] + part["offset"]
            parts.append(part)
            rows.append((lay, Xc, w, blkmax, part["shift"], sel))
        if not parts:
            return _empty_aggregates(self.d, squares, payload)
        ks = self.event_intervals
        merged = parts[0] if len(parts) == 1 else {
            key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
        agg = Aggregates(k=ks, T=self.n_events[ks - 1].astype(float),
                         m=self.n_at_risk[ks - 1].astype(float),
                         rows=tuple(rows), **merged)
        if payload is None:
            self.keep("pass", coef.tobytes(), (squares, agg))
        return agg

    def recall(self, slot, key):
        """The value kept in ``slot`` under ``key``, else ``None``."""
        held = self._kept.get(slot)
        if held is not None and held[0] == key:
            return held[1]
        return None

    def keep(self, slot, key, value):
        """Keep ``value`` in ``slot`` under ``key``, in place of the
        slot's previous entry."""
        self._kept[slot] = (key, value)

    def _kept_pass(self, key, squares):
        """The kept ``(squares, Aggregates)`` of a full pass under ``key``
        that holds the ``w^2`` sums through ``squares``, else ``None``."""
        for slot in ("pass", ("pass", "prob"), ("pass", "odds")):
            held = self.recall(slot, key)
            if held is not None and (squares is None or (
                    held[0] is not None and held[0] >= squares)):
                return held
        return None

    def full(self, coef, squares: int | None = None) -> Aggregates:
        """Aggregates at ``coef`` with ``w^2`` sums through ``squares``:
        a kept full pass at these exact coefficients that
        holds those sums, else a new pass.  Callers share the returned
        object and must not change it."""
        coef = np.asarray(coef, dtype=float)
        held = self._kept_pass(coef.tobytes(), squares)
        if held is not None:
            return held[1]
        return self.aggregates(coef, squares=squares)

    def hold(self, model, coef):
        """Keep the full pass at ``coef``, which the caller has just
        read, as ``model``'s: the pass that model's fit returned from."""
        key = np.asarray(coef, dtype=float).tobytes()
        self.keep(("pass", model), key, self._kept_pass(key, None))

    def s0_change(self, coef, step):
        """``S0(coef + step) / S0(coef) - 1`` for every event interval,
        summed as ``sum_i w_i expm1(X_i' step) / S0`` over the risk set
        at the weights of ``coef``, so it keeps full relative precision
        however small the step.  ``None`` unless ``|X_i' step| <= 1``
        for every centred row."""
        coef, step = np.asarray(coef, dtype=float), np.asarray(step, dtype=float)
        live = [(lay, Xc, Xc @ step) for _, _, lay, _, Xc, *_ in self._live_epochs()]
        if any(np.any(np.abs(move) > 1.0) for *_, move in live):
            return None
        sums = [_weighted_sums(lay, Xc, Xc @ coef, 0, None, np.expm1(move)[:, None])
                for lay, Xc, move in live]
        return np.concatenate([p["Z"][:, 0] / p["S0"] for p, *_ in sums])

    def set_sums(self, values):
        """Unweighted sums of a per-subject ``(n, p)`` array (or one per
        epoch of ``epoch_spans``, stacked) over the event-free members
        and the events of every event interval: two ``(K, p)`` arrays."""
        out = ([], [])
        for e, (lo, hi, lay, *_) in enumerate(self._live_epochs()):
            blocks = lay.block_sums(self._sorted(values, e, lay.rows))
            out[1].append(blocks[lay.events])
            # the prefix sums overwrite the block sums: one (blocks, p) array
            prefix = np.cumsum(blocks, axis=0, out=blocks)
            out[0].append(np.where(lay.has_free[:, None], prefix[lay.at_free],
                                   0.0))
        p = np.shape(values)[-1]
        return tuple(np.concatenate(acc) if acc else np.zeros((0, p))
                     for acc in out)

    def subject_sums(self, coef, B, a=None, log_weight=None, span="all",
                     before=None):
        """Per-subject sums over event intervals ``k`` of
        ``e^{eta_ik + log_weight_k} (a_k X_ik + B_k)``.

        ``X_ik`` and ``eta_ik`` are subject i's centred covariates and
        true linear predictor at interval ``k``; ``B`` is ``(K, p)``
        (``p = d`` when ``a`` is given), ``a`` and ``log_weight``
        ``(K,)``, one entry per event interval; ``log_weight=None``
        drops the exponential factor.  ``span`` picks the intervals:
        ``"all"`` every ``k <= y_i``, ``"before_event"`` the same less
        the subject's own event interval, ``"event"`` only that one;
        ``before`` further keeps ``k < before``.  Returns ``(n, p)``.
        """
        coef = np.asarray(coef, dtype=float)
        B = np.asarray(B, dtype=float)
        out = np.zeros((self.n, B.shape[1]))
        for lo, hi, lay, center, Xc, _, sel in self._live_epochs():
            # a bound past the epoch keeps all of it, one at or before
            # its start none of it
            cut = before if before is not None and before <= hi else None
            if cut is not None and cut <= lo:
                continue
            rows, at = self._sum_positions(lo, hi, lay, span, cut)
            if span == "event":
                vals = np.take(B[sel], at, axis=0)
                if a is not None or log_weight is not None:
                    Xr = np.take(Xc, rows, axis=0)
                if a is not None:
                    vals = np.take(a[sel], at)[:, None] * Xr + vals
                if log_weight is not None:
                    vals = vals * np.exp(Xr @ coef + float(center @ coef)
                                         + np.take(log_weight[sel], at))[:, None]
                out[rows] += vals
                continue
            V = B[sel] if a is None else np.column_stack([a[sel], B[sel]])
            if log_weight is None:
                cum, top = np.cumsum(V, axis=0), np.zeros(V.shape[0])
            else:
                cum, top = _scaled_cumsum(log_weight[sel] + float(center @ coef), V)
            vals = np.take(cum, at, axis=0)
            if a is not None:
                vals = vals[:, :1] * Xc[:rows] + vals[:, 1:]
            if log_weight is not None:
                vals = vals * np.exp(Xc[:rows] @ coef + np.take(top, at))[:, None]
            out[:rows] += vals
        return np.take(out, self.rank, axis=0)

    def _sum_positions(self, lo, hi, lay, span, before):
        """``(rows, at)`` of ``subject_sums`` in the epoch ``lo..hi``: the
        rows, in the engine's order, that sum over some of its event
        intervals, and the index in ``lay.ks`` of the last interval each
        sums through (its own event interval for ``span="event"``).

        For ``span="event"``, ``rows`` are the event rows' positions.
        For the other spans the last interval a row sums through never
        increases down the order (``y`` decreases, censored rows come
        first within one ``y``), so the rows that sum over any are a
        prefix and ``rows`` is its length.  Both depend on the layout
        alone, so each is computed once and kept, positions in the
        narrowest integer type that holds the epoch's rows."""
        slot = ("positions", lo, span)
        got = self.recall(slot, before)
        if got is None:
            y, delta = self._y[:lay.rows], self._delta[:lay.rows]
            own = delta & (y <= hi)
            index = np.min_scalar_type(lay.rows)
            if span == "event":
                if before is not None:
                    own = own & (y < before)
                take = np.flatnonzero(own)
                got = (take.astype(index),
                       np.searchsorted(lay.ks, y[take]).astype(index))
            else:
                last = np.minimum(y, hi)
                if span == "before_event":
                    last = last - own
                if before is not None:
                    last = np.minimum(last, before - 1)
                at = np.searchsorted(lay.ks, last, side="right") - 1
                rows = int(np.count_nonzero(at >= 0))
                got = (rows, at[:rows].astype(index))
            self.keep(slot, before, got)
        return got

    def count_positive(self, coef, g):
        """Number of pairs (event interval k, member i of its risk set)
        with ``eta_ik + g_k > 0``, ``eta`` the true linear predictor."""
        coef = np.asarray(coef, dtype=float)
        count = 0
        for lo, hi, lay, center, Xc, _, sel in self._live_epochs():
            gk = g[sel]
            rows, at = self._sum_positions(lo, hi, lay, "all", None)
            eta = (Xc @ coef + float(center @ coef))[:rows]
            cand = np.flatnonzero(eta + np.maximum.accumulate(gk)[at] > 0)
            # the few candidates are counted exactly, a bounded chunk at a time
            step = max(1, _TILE // gk.size)
            for s in range(0, cand.size, step):
                c = cand[s:s + step]
                hit = (gk[None, :] + eta[c, None] > 0) & (
                    np.arange(gk.size)[None, :] <= at[c, None])
                count += int(hit.sum())
        return count

    def epoch_rows(self, intervals):
        """``(X, span)`` of each epoch that holds some of ``intervals``
        (1-based, increasing): ``X`` the epoch's covariates in the
        engine's order over the largest risk set of those intervals and
        ``span`` the slice of ``intervals`` in the epoch."""
        intervals = np.asarray(intervals)
        firsts = [lo for lo, *_ in self._epochs]
        edges = np.searchsorted(intervals, firsts + [np.inf])
        for e, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
            if start < stop:
                rows = self.n_at_risk[intervals[start] - 1]
                yield self._epochs[e][2][:rows], slice(start, stop)

    def epoch_predictors(self, coef):
        """(first interval, last interval, true linear predictor per
        subject) for every epoch, in subject order."""
        coef = np.asarray(coef, dtype=float)
        return [(lo, hi, np.take(X @ coef, self.rank))
                for lo, hi, X, *_ in self._epochs]

    def epoch_spans(self):
        """(first interval, slice of the event intervals) of every epoch
        that holds event intervals."""
        return [(lo, sel) for lo, *_, sel in self._live_epochs()]


def _empty_aggregates(d, squares, payload):
    """Aggregates of a dataset without event intervals: zero-length
    arrays of the shapes a call with these arguments returns."""
    one = risk_set_aggregates(np.zeros((1, d)), [False], [0.0], squares)
    agg = one.subset(np.zeros(1, dtype=bool))
    if payload is not None:
        p = np.shape(payload)[-1]
        agg.Z = agg.Zf = agg.Ze = np.zeros((0, p))
    return agg


def risk_set_aggregates(X, D, eta, squares: int | None = None) -> Aggregates:
    """Aggregates of one risk set given its rows ``X``, event flags
    ``D`` and linear predictor ``eta`` (the enumeration oracles' unit)."""
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=bool)
    eta = np.asarray(eta, dtype=float)
    m, d = X.shape
    T = int(D.sum())
    perm = np.argsort(D, kind="stable")  # event-free rows first
    center = X.mean(axis=0)
    Xc = X[perm] - center
    lay = _Layout(np.array([1]), np.array([m]), np.array([T]))
    if T == 0:
        lay.events = lay.free  # no event block; its sums are zeroed below
    out, w, blkmax = _weighted_sums(lay, Xc, eta[perm], 1, squares, None)
    SD1 = Xc[m - T:].sum(axis=0)[None, :]
    if T == 0:
        for name in ("Tw", "SDw1", "Qe0"):
            if name in out:
                out[name] = np.zeros_like(out[name])
    return Aggregates(k=np.array([1]), T=np.array([float(T)]),
                      m=np.array([float(m)]), offset=np.zeros(1),
                      center=center[None, :], SD1=SD1, **out,
                      rows=((lay, Xc, w, blkmax, out["shift"], slice(0, 1)),))
