"""Internal risk-set engine shared by the model modules.

Subjects are sorted once by decreasing ``y`` and, within one ``y``,
censored before events.  The risk set of interval ``j`` is then the
first ``n_j`` rows, its event-free members the first ``n_j - T_j`` rows
and its events the ``T_j`` rows in between, so every per-interval
aggregate is a cumulative sum over that order read at two boundaries
per event interval (the reverse-cumulative-sum recipe of Cox-model
software).  The rows are cut into blocks at those boundaries, each block
is summed once with ``np.add.reduceat`` and the block sums are
accumulated: a call costs O(n d^2) time and O(n d + K d^2) memory for K
event intervals, never O(n d^2) memory.

Exponential weights are shifted by the largest linear predictor among
the rows summed so far, which for a risk set is the per-interval
shift of the literal form; the accumulation rescales in bands of
``_BAND`` so no sum underflows however far ``eta`` spreads.

Time-varying covariates are piecewise constant in ``j``.  Each run of
intervals over which no subject at risk changes its covariates (an
epoch) is summed in one pass.  Sums are taken over covariates centred
at the mean of the epoch's largest risk set; every aggregate the models
use is location invariant, and ``Aggregates.center`` restores the
origin where a caller needs it.

Each dataset has one engine (``DiscreteSurvivalData.risk_sets``), which
every fit, variance, influence row and curve on it shares.  The engine
keeps its last full (order-2, payload-free) aggregates, keyed by the
exact coefficients: a Newton step's accepted candidate is the next
iterate's pass, and a variance or curve at a fit's estimate reads the
pass the fit ended on.
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
    out = np.zeros_like(values)
    live = np.flatnonzero(np.isfinite(top))
    if live.size == 0:
        return out, top
    first = live[0]
    band = np.floor((top[first:] - top[first]) / _BAND)
    cuts = np.flatnonzero(np.diff(band)) + first + 1
    lead = (slice(None),) + (None,) * (values.ndim - 1)
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
    estimating equations: ``S0, S1, S2`` sum ``w, w X, w X X'`` over the
    risk set, ``s0d, M1, M2`` over its event-free members and
    ``Tw, SDw1, SDw2`` over its events; ``SD1`` is the unweighted event
    sum.  ``Q*`` (risk set), ``Qf*`` (event-free) and ``Qe0`` (events)
    weight by ``w^2``; ``Z, Zf, Ze`` are the ``w``-weighted sums of a
    per-subject payload.  ``log_s0`` and ``log_s0d`` are the true-scale
    logs of ``sum e^{eta}`` over the risk set and its event-free part,
    and ``me = M1 / s0d`` is the event-free weighted mean, read at the
    event-free part's own scale so that it stays finite where ``s0d``
    underflows (0 without event-free members).  Sums a call did not
    request are ``None``.
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
    S2: np.ndarray = None
    M2: np.ndarray = None
    SDw2: np.ndarray = None
    Q0: np.ndarray = None
    Qf0: np.ndarray = None
    Qe0: np.ndarray = None
    Q1: np.ndarray = None
    Qf1: np.ndarray = None
    Q2: np.ndarray = None
    Qf2: np.ndarray = None
    Z: np.ndarray = None
    Zf: np.ndarray = None
    Ze: np.ndarray = None
    me: np.ndarray = None

    def subset(self, mask):
        """The aggregates of the event intervals selected by ``mask``."""
        return Aggregates(**{f.name: None if getattr(self, f.name) is None
                             else getattr(self, f.name)[mask]
                             for f in fields(self)})


# names of the w-weighted and w^2-weighted sums by set, in the order
# risk set, event-free members, events
_W_NAMES = {0: ("S0", "s0d", "Tw"), 1: ("S1", "M1", "SDw1"),
            2: ("S2", "M2", "SDw2"), "Z": ("Z", "Zf", "Ze")}
_Q_NAMES = {0: ("Q0", "Qf0", "Qe0"), 1: ("Q1", "Qf1", None),
            2: ("Q2", "Qf2", None)}


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

    def block_sums(self, values):
        return np.add.reduceat(values, self.starts, axis=0)

    def read(self, prefix, blocks, top=None, block_top=None, scale=None):
        """Risk-set, event-free and event sums from block sums and their
        prefix sums, rescaled from the blocks' scales to ``scale``."""
        risk = prefix[self.risk]
        has_free = self.free >= 0
        free = prefix[np.maximum(self.free, 0)]
        events = blocks[self.events]
        lead = (slice(None),) + (None,) * (prefix.ndim - 1)
        if top is None:
            free = np.where(has_free[lead], free, 0.0)
        else:
            f_fac = np.where(has_free, np.exp(top[np.maximum(self.free, 0)]
                                              - scale), 0.0)
            free = free * f_fac[lead]
            events = events * np.exp(block_top[self.events] - scale)[lead]
        return risk, free, events


def _weighted_sums(lay, Xc, eta, order, squares, Z):
    """Risk-set, event-free and event sums of one epoch (see Aggregates)."""
    d = Xc.shape[1]
    blkmax = np.maximum.reduceat(eta, lay.starts)
    w = np.exp(eta - np.repeat(blkmax, lay.lengths))
    out = {}

    def moments(weight, max_order, payload, log_scale, names):
        # block sums of each moment, one (n, <= d) product at a time so
        # that no (n, d, d) array is made
        groups = [(names[0], (), lay.block_sums(weight)[:, None])]
        if max_order >= 1:
            groups.append((names[1], (d,), lay.block_sums(weight[:, None] * Xc)))
        if payload is not None:
            groups.append((names["Z"], payload.shape[1:],
                           lay.block_sums(weight[:, None] * payload)))
        if max_order >= 2:
            groups.append((names[2], (d, d), np.hstack(
                [lay.block_sums((weight * Xc[:, a])[:, None] * Xc)
                 for a in range(d)])))
        blocks = np.hstack([g for *_, g in groups])
        prefix, top = _scaled_cumsum(log_scale, blocks)
        scale = top[lay.risk]
        cuts = np.cumsum([g.shape[1] for *_, g in groups])[:-1]
        sets = [np.split(arr, cuts, axis=1)
                for arr in lay.read(prefix, blocks, top, log_scale, scale)]
        for i, (set_names, shape, _) in enumerate(groups):
            for name, parts in zip(set_names, sets):
                if name is not None:
                    out[name] = parts[i].reshape((-1,) + shape)
        return prefix, top, scale

    prefix, top, scale = moments(w, order, Z, blkmax, _W_NAMES)
    has_free = lay.free >= 0
    at_free = np.maximum(lay.free, 0)
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
    return out


class RiskSets:
    """Risk-set layout of one dataset and the prefix-sum aggregates over it.

    ``order`` sorts subjects by decreasing ``y_index``, censored before
    events within one ``y_index`` (stably otherwise); the risk set of
    interval ``j`` is the first ``n_j`` subjects of that order.
    """

    def __init__(self, data: DiscreteSurvivalData):
        self.n, self.d = data.n, data.d
        summary = risk_summary(data)
        self.n_at_risk = summary.n_at_risk
        self.n_events = summary.n_events
        self.order = np.lexsort((data.delta, -data.y))
        self.event_intervals = np.flatnonzero(self.n_events > 0) + 1
        self._y = data.y[self.order]
        self._delta = data.delta[self.order]
        J = data.n_intervals
        firsts = np.r_[1, data.covariate_changes()]
        lasts = np.r_[firsts[1:] - 1, J]
        self._epoch_of = np.repeat(np.arange(firsts.size), lasts - firsts + 1)
        self._epochs = []
        for lo, hi in zip(firsts, lasts):
            X = data.covariates_at(int(lo))[self.order]
            ks = self.event_intervals[(self.event_intervals >= lo)
                                      & (self.event_intervals <= hi)]
            lay = _Layout(ks, self.n_at_risk, self.n_events) if ks.size else None
            if lay is None:
                center = np.zeros(self.d)
                Xc = X[:0]
            else:
                center = X[:lay.rows].mean(axis=0)
                Xc = X[:lay.rows] - center
            self._epochs.append((int(lo), int(hi), X, lay, center, Xc))
        # (coefficient bytes, squares, Aggregates) of the last full pass
        self._last = None

    def interval(self, j: int, coef: np.ndarray):
        """Risk set of interval ``j``: (member indices, X, D, eta).

        ``eta = X @ coef`` evaluated at the interval's covariate values.
        The indices and ``X`` are views; empty risk sets yield empty
        arrays.
        """
        idx = self.order[: self.n_at_risk[j - 1]]
        m = idx.size
        X = self._epochs[self._epoch_of[j - 1]][2][:m]
        D = (self._y[:m] == j) & self._delta[:m]
        return idx, X, D, X @ coef

    def _live_epochs(self):
        """(first, last, layout, centre, centred rows, slice of the
        event intervals) of each epoch that holds event intervals."""
        at = 0
        for lo, hi, _, lay, center, Xc in self._epochs:
            if lay is None:
                continue
            yield lo, hi, lay, center, Xc, slice(at, at + lay.ks.size)
            at += lay.ks.size

    def _sorted(self, values, e):
        """Rows of a per-subject array (or of its epoch ``e`` slice) in
        the engine's order."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 3:
            values = values[e]
        return values[self.order]

    def aggregates(self, coef, order: int = 2, squares: int | None = None,
                   payload=None) -> Aggregates:
        """Aggregates (see the class) of every event interval at ``coef``.

        ``order`` is the highest order in X of the ``w``-weighted sums,
        ``squares`` that of the ``w^2``-weighted ones (``None``: none).
        ``payload`` is an ``(n, p)`` per-subject array, or one such array
        for each epoch of ``epoch_spans`` stacked ``(epochs, n, p)``,
        whose ``w``-weighted sums fill ``Z, Zf, Ze``.  A full pass
        (``order=2``, no payload) is kept for ``full``.
        """
        coef = np.asarray(coef, dtype=float)
        parts = []
        for e, (lo, hi, lay, center, Xc, _) in enumerate(self._live_epochs()):
            Z = None
            if payload is not None:
                Z = self._sorted(payload, e)[:lay.rows]
            eta = Xc @ coef
            part = _weighted_sums(lay, Xc, eta, order, squares, Z)
            part["offset"] = np.full(lay.ks.size, float(center @ coef))
            part["center"] = np.broadcast_to(center, (lay.ks.size, self.d))
            part["SD1"] = lay.block_sums(Xc)[lay.events]
            part["log_s0"] = part["log_s0"] + part["offset"]
            part["log_s0d"] = part["log_s0d"] + part["offset"]
            parts.append(part)
        if not parts:
            return _empty_aggregates(self.d, order, squares, payload)
        ks = self.event_intervals
        merged = {key: np.concatenate([p[key] for p in parts])
                  for key in parts[0]}
        agg = Aggregates(k=ks, T=self.n_events[ks - 1].astype(float),
                         m=self.n_at_risk[ks - 1].astype(float), **merged)
        if order == 2 and payload is None:
            self._last = (coef.tobytes(), squares, agg)
        return agg

    def full(self, coef, squares: int | None = None) -> Aggregates:
        """Order-2 aggregates at ``coef`` with ``w^2`` sums through
        ``squares``: the last full pass when it was at these exact
        coefficients and holds those sums, else a new pass.  Callers
        share the returned object and must not change it."""
        coef = np.asarray(coef, dtype=float)
        if self._last is not None:
            key, have, agg = self._last
            if key == coef.tobytes() and (squares is None or (
                    have is not None and have >= squares)):
                return agg
        return self.aggregates(coef, squares=squares)

    def s0_change(self, coef, step):
        """``S0(coef + step) / S0(coef) - 1`` for every event interval,
        summed as ``sum_i w_i expm1(X_i' step) / S0`` over the risk set
        at the weights of ``coef``, so it keeps full relative precision
        however small the step.  ``None`` unless ``|X_i' step| <= 1``
        for every centred row."""
        coef, step = np.asarray(coef, dtype=float), np.asarray(step, dtype=float)
        live = [(lay, Xc, Xc @ step) for _, _, lay, _, Xc, _ in self._live_epochs()]
        if any(np.any(np.abs(move) > 1.0) for *_, move in live):
            return None
        sums = [_weighted_sums(lay, Xc, Xc @ coef, 0, None, np.expm1(move)[:, None])
                for lay, Xc, move in live]
        return np.concatenate([part["Z"][:, 0] / part["S0"] for part in sums])

    def set_sums(self, values):
        """Unweighted sums of a per-subject ``(n, p)`` array (or one per
        epoch of ``epoch_spans``, stacked) over the risk set, the
        event-free members and the events of every event interval:
        three ``(K, p)`` arrays."""
        out = ([], [], [])
        for e, (lo, hi, lay, center, Xc, _) in enumerate(self._live_epochs()):
            V = self._sorted(values, e)[:lay.rows]
            blocks = lay.block_sums(V)
            for acc, arr in zip(out, lay.read(np.cumsum(blocks, axis=0), blocks)):
                acc.append(arr)
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
        for lo, hi, lay, center, Xc, sel in self._live_epochs():
            rows = lay.rows
            y, delta = self._y[:rows], self._delta[:rows]
            own = delta & (y <= hi)
            if span == "event":
                take = np.flatnonzero(own)
                at = np.searchsorted(lay.ks, y[take])
                vals = B[sel][at]
                if a is not None:
                    vals = a[sel][at, None] * Xc[take] + vals
                if log_weight is not None:
                    vals = vals * np.exp(Xc[take] @ coef + float(center @ coef)
                                         + log_weight[sel][at])[:, None]
                out[take] += vals
                continue
            last = np.minimum(y, hi)
            if span == "before_event":
                last = last - own
            if before is not None:
                last = np.minimum(last, before - 1)
            at = np.searchsorted(lay.ks, last, side="right") - 1
            take = np.flatnonzero(at >= 0)
            at = at[take]
            V = B[sel] if a is None else np.column_stack([a[sel], B[sel]])
            if log_weight is None:
                cum, top = np.cumsum(V, axis=0), np.zeros(V.shape[0])
            else:
                cum, top = _scaled_cumsum(log_weight[sel] + float(center @ coef), V)
            vals = cum[at]
            if a is not None:
                vals = vals[:, :1] * Xc[take] + vals[:, 1:]
            if log_weight is not None:
                vals = vals * np.exp(Xc[take] @ coef + top[at])[:, None]
            out[take] += vals
        result = np.empty_like(out)
        result[self.order] = out
        return result

    def count_positive(self, coef, g):
        """Number of pairs (event interval k, member i of its risk set)
        with ``eta_ik + g_k > 0``, ``eta`` the true linear predictor."""
        coef = np.asarray(coef, dtype=float)
        count = 0
        for lo, hi, lay, center, Xc, sel in self._live_epochs():
            eta = Xc @ coef + float(center @ coef)
            gk = g[sel]
            at = np.searchsorted(lay.ks, np.minimum(self._y[:lay.rows], hi),
                                 side="right") - 1
            reach = np.maximum.accumulate(gk)[np.maximum(at, 0)]
            cand = np.flatnonzero((at >= 0) & (eta + reach > 0))
            # the few candidates are counted exactly, a bounded chunk at a time
            step = max(1, _TILE // gk.size)
            for s in range(0, cand.size, step):
                c = cand[s:s + step]
                hit = (gk[None, :] + eta[c, None] > 0) & (
                    np.arange(gk.size)[None, :] <= at[c, None])
                count += int(hit.sum())
        return count

    def tiles(self, intervals):
        """Dense tiles over the risk sets of ``intervals`` (1-based,
        increasing).

        Yields ``(X, span, tiles)`` for each epoch that holds some of
        them: ``X`` the epoch's covariates in the engine's order over
        its largest risk set, ``span`` the slice of ``intervals`` in the
        epoch and ``tiles`` a list of ``(rows, cols)``, a slice of
        ``intervals`` and a slice of the rows of ``X``.  A tile covers
        the first ``n_j`` columns of each of its intervals ``j`` (members
        of later intervals come first, so these are the risk set) and
        columns past an interval's ``n_j``, which its caller masks; it
        holds at most ``_TILE`` entries.
        """
        intervals = np.asarray(intervals)
        width = self.n_at_risk[intervals - 1]
        firsts = [lo for lo, *_ in self._epochs]
        edges = np.searchsorted(intervals, firsts + [np.inf])
        for e, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
            if start == stop:
                continue
            tiles = []
            at = start
            while at < stop:
                m = int(width[at])
                rows = min(stop - at, max(1, _TILE // max(m, 1)))
                step = _TILE // rows
                tiles += [(slice(at, at + rows), slice(lo, min(lo + step, m)))
                          for lo in range(0, m, step)]
                at += rows
            yield (self._epochs[e][2][:width[start]], slice(start, stop),
                   tiles)

    def epoch_predictors(self, coef):
        """(first interval, last interval, true linear predictor per
        subject) for every epoch, in subject order."""
        coef = np.asarray(coef, dtype=float)
        out = []
        for lo, hi, X, *_ in self._epochs:
            eta = np.empty(self.n)
            eta[self.order] = X @ coef
            out.append((lo, hi, eta))
        return out

    def epoch_spans(self):
        """(first interval, slice of the event intervals) of every epoch
        that holds event intervals."""
        return [(lo, sel) for lo, _, _, _, _, sel in self._live_epochs()]


def _empty_aggregates(d, order, squares, payload):
    """Aggregates of a dataset without event intervals: zero-length
    arrays of the shapes a call with these arguments returns."""
    one = risk_set_aggregates(np.zeros((1, d)), [False], [0.0], order, squares)
    agg = one.subset(np.zeros(1, dtype=bool))
    if payload is not None:
        p = np.shape(payload)[-1]
        agg.Z = agg.Zf = agg.Ze = np.zeros((0, p))
    return agg


def risk_set_aggregates(X, D, eta, order: int = 2,
                        squares: int | None = None) -> Aggregates:
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
    out = _weighted_sums(lay, Xc, eta[perm], order, squares, None)
    SD1 = Xc[m - T:].sum(axis=0)[None, :]
    if T == 0:
        for name in ("Tw", "SDw1", "SDw2", "Qe0"):
            if name in out:
                out[name] = np.zeros_like(out[name])
    return Aggregates(k=np.array([1]), T=np.array([float(T)]),
                      m=np.array([float(m)]), offset=np.zeros(1),
                      center=center[None, :], SD1=SD1, **out)
