"""Pooled logistic regression baseline.

Maximizes the unconditional likelihood of the person-period expansion of
the hazard-odds model: each subject contributes one Bernoulli row per
interval at risk, with ``P(D[j,i] = 1) = expit(beta_0j + X_i' beta)``,
and all parameters ``(beta_01, ..., beta_0J, beta)`` are estimated
jointly rather than profiling the intercepts out.

Intervals in which every at-risk subject has an event, or none does,
send the corresponding intercept to ``+inf``/``-inf``; such intervals
are excluded from the likelihood with a warning (their rows' score
contributions vanish in that limit) and their ``beta0`` entries are
reported as infinite sentinels.

The joint Newton iteration exploits the arrow structure of the
information matrix (each intercept appears in exactly one risk set).
Risk sets are nested prefixes of one subject order.  One pass gives the
log likelihood, the scores and the arrow blocks: intervals whose odds are
small by power series over prefix sums, O(n M d) per epoch for M terms
(nearly every interval on the original time scale), the others as dense
tiles of the risk-set engine, O(sum_j n_j d).  Working memory is
O(n d + K d^2) for K included intervals plus buffers of at most
``_risksets._TILE`` entries, never proportional to sum_j n_j.  A fit
keeps the arrow blocks; its dense (J + d)^2 or (K + d)^2 information is
built on read.

A tile whose entries ``Z = b0_k + eta_i`` are all at most 0 (tested as
``max b0_k + max eta_i <= 0``) forms ``e^Z`` as the outer product of
``e^{b0_k + c}`` and ``e^{eta_i - c}``, ``c`` the tile's largest
``eta``, with no ``exp`` per entry; other tiles take the ``e^{-|Z|}``
form.  The fit's starting pass is closed form in O(n d^2) per epoch, so
a fit of k Newton steps makes k passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _risksets
from .data import DiscreteSurvivalData
from .errors import (ConvergenceError, InputError, SingularMatrixError,
                     check_settings)

__all__ = ["PlogitFit", "fit_plogit", "plogit_variances"]

# the power series of _PersonPeriod takes odds up to _RHO in at most
# _TERMS terms ((M + 1) rho^M / (1 - rho)^2 <= 2^-56 at M = 12), for an
# epoch whose rows outnumber _SERIES_GAIN x terms x subjects and whose
# eta spread x terms stays under _SPREAD, so no power over- or underflows
_RHO, _TERMS, _SERIES_GAIN, _SPREAD = 1.0 / 32.0, 12, 4.0, 600.0


@dataclass
class PlogitFit:
    """Converged pooled-logistic fit.

    Attributes
    ----------
    beta : (d,) ndarray
        Log odds-ratio coefficients.
    beta0 : (J,) ndarray
        Per-interval intercepts; ``-inf``/``+inf`` for excluded
        intervals (no events / all events).
    loglik : float
        Maximized log likelihood over the included person-period rows.
    iterations : int
    score_norm : float
        Scaled max norm of the score at the returned estimate.
    included : (J,) bool ndarray
        Which intervals enter the likelihood.
    n : int
    a, C, F : (K,), (K, d), (d, d) ndarrays
        Arrow blocks of the observed information at the optimum (raw sum
        scale) over the K included intervals.
    full_fisher : bool
    warnings : list of str
    fisher : ndarray, read only
        The dense information, built from the blocks on first access:
        by default ``(J + d)^2``, ordered as ``beta0`` then ``beta`` with
        excluded rows zero; with ``full_fisher=False``, ``(K + d)^2``.
    """

    beta: np.ndarray
    beta0: np.ndarray
    loglik: float
    iterations: int
    score_norm: float
    included: np.ndarray
    n: int
    a: np.ndarray
    C: np.ndarray
    F: np.ndarray
    full_fisher: bool
    warnings: list = field(default_factory=list)
    _fisher: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def fisher(self):
        if self._fisher is None:
            m = self.included.size if self.full_fisher else self.a.size
            pos = (np.flatnonzero(self.included) if self.full_fisher
                   else np.arange(m))
            self._fisher = _dense_information(self.a, self.C, self.F, pos, m)
        return self._fisher


def _dense_information(a, C, F, pos, m):
    """The ``(m + d)``-square arrow matrix over ``m`` intercept rows,
    with the blocks ``a`` and ``C`` at the intercept rows ``pos``."""
    fisher = np.zeros((m + F.shape[0],) * 2)
    fisher[pos, pos] = a
    fisher[pos, m:] = C
    fisher[m:, pos] = C.T
    fisher[m:, m:] = F
    return fisher


class _PersonPeriod:
    """The person-period rows of the intervals that carry a finite
    intercept, summed by ``_series`` where ``_split`` finds the odds
    small, else visited as the dense tiles of ``RiskSets.tiles``.

    Each tile holds the rows ``Z = b0_k + eta_i`` of a block of
    intervals ``k`` and a block of the subjects in the engine's order;
    at entries past an interval's risk set the fitted probability, its
    variance and ``log(1 + e^Z)`` are exactly 0.  Event rows enter in
    closed form: interval ``k``'s events are the rows
    ``[n_k - T_k, n_k)`` of its epoch.
    """

    def __init__(self, data):
        rs = self.rs = data.risk_sets
        self.live = (rs.n_events > 0) & (rs.n_events < rs.n_at_risk)
        self.js = np.flatnonzero(self.live) + 1
        self.K = self.js.size
        self.T = rs.n_events[self.js - 1].astype(float)
        self.m = rs.n_at_risk[self.js - 1]
        self.epochs = list(rs.tiles(self.js))
        # (event rows, their interval) of each epoch, and the event sum
        # of X over every included interval
        self.events = []
        self.SD = np.zeros(data.d)
        for X, span, _ in self.epochs:
            T = self.T[span].astype(np.intp)
            at = np.repeat(np.arange(T.size), T)
            rank = np.arange(at.size) - np.repeat(np.cumsum(T) - T, T)
            rows = self.m[span][at] - T[at] + rank
            self.events.append((rows, at))
            self.SD += X[rows].sum(axis=0)
        # four arrays of the largest tile over any of an epoch's
        # intervals, reused by every pass, and ones to sum a tile's rows
        # and columns with
        tile = [(span.stop - span.start, X.shape[0], _risksets._TILE)
                for X, span, _ in self.epochs]
        self._scratch = np.empty((4, max((min(t, k * m) for k, m, t in tile),
                                         default=0)))
        self._ones = np.ones(max((min(t, max(k, m)) for k, m, t in tile),
                                 default=0))

    def _clear(self, A, rows, cols, m, value):
        """Set the entries of tile ``A`` past each interval's risk set
        (sizes ``m[rows]``) to ``value``."""
        # columns before `full` lie in every row's risk set
        full = int(m[rows].min()) - cols.start
        if full < A.shape[1]:
            tail = A[:, full:]
            tail[np.arange(cols.start + full, cols.stop)[None, :]
                 >= m[rows, None]] = value

    def _probs(self, b0, eta, rows, cols, m):
        """``(Z, E, Q, P)`` of one tile, in the scratch space:
        ``E = e^{-|Z|}``, ``Q = 1/(1+E)`` and the fitted probabilities
        ``P``, with ``Z = -inf`` past a risk set."""
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        Z, E, Q, P = (w[:shape[0] * shape[1]].reshape(shape)
                      for w in self._scratch)
        np.add(b0[rows, None], eta[None, cols], out=Z)
        self._clear(Z, rows, cols, m, -np.inf)
        np.abs(Z, out=E)
        np.negative(E, out=E)
        np.exp(E, out=E)
        np.add(E, 1.0, out=Q)
        np.reciprocal(Q, out=Q)
        np.multiply(E, Q, out=P)
        np.copyto(P, Q, where=Z >= 0.0)
        return Z, E, Q, P

    def _tile(self, b0, eta, rows, cols, m, moments=True):
        """``(P, V, log)`` of one tile, in the scratch space: the fitted
        probabilities and, with ``moments``, their variances
        ``V = P (1 - P)`` and the sum of ``log(1 + e^Z)``.

        Where every ``Z`` of the tile is at most 0, ``E = e^Z`` is the
        outer product of ``e^{b0_k + c}`` and ``e^{eta_i - c}``.  Neither
        factor exceeds 1, and one underflows only where ``e^Z`` does.
        Then ``P = E / (1 + E)``, ``V = P / (1 + E)`` and
        ``log(1 + e^Z) = log1p(E)``, all three 0 where ``E = 0`` past a
        risk set.  Any other tile takes the ``e^{-|Z|}`` form of
        ``_probs``: with a row's ``b0_k + c > 0`` and an ``eta`` spread
        beyond 745, ``e^{eta_i - c}`` would underflow on entries that
        carry ``a_k``.
        """
        c = float(eta[cols].max())
        if float(b0[rows].max()) + c > 0.0:
            Z, E, Q, P = self._probs(b0, eta, rows, cols, m)
            if not moments:
                return P, None, None
            # log(1 + e^Z) = max(Z, 0) + log1p(E); V = E Q^2
            log = float(np.maximum(Z, 0.0, out=Z).sum()
                        + np.log1p(E, out=Z).sum())
            V = np.multiply(E, Q, out=E)
            V *= Q
            return P, V, log
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        L, E, W, P = (w[:shape[0] * shape[1]].reshape(shape)
                      for w in self._scratch)
        np.multiply(np.exp(b0[rows, None] + c), np.exp(eta[None, cols] - c),
                    out=E)
        self._clear(E, rows, cols, m, 0.0)
        np.add(E, 1.0, out=W)
        np.divide(E, W, out=P)
        if not moments:
            return P, None, None
        log = float(np.log1p(E, out=L).sum())
        return P, np.divide(P, W, out=E), log

    def _split(self, b0, eta, span, tiles):
        """``(ks, tiles, series)`` of one epoch: the intervals ``ks`` left
        to ``tiles``, and ``(positions, M)`` of those whose odds stay at
        most ``_RHO`` (or None), ``M`` the fewest terms that bound the
        truncation, ``(M + 1) rho^M / (1 - rho)^2``, by ``2^-56``."""
        m = self.m[span]
        top = b0[span] + np.maximum.accumulate(eta)[m - 1]
        ok = top <= np.log(_RHO)
        if ok.any():
            rows = int(m[ok][0])
            rho = float(np.exp(top[ok].max()))
            M = next(t for t in range(1, _TERMS + 1)
                     if (t + 1) * rho ** t <= 2.0 ** -56 * (1.0 - rho) ** 2)
            spread = float(eta[:rows].max() - eta[:rows].min())
            if M * spread <= _SPREAD and m[ok].sum() > _SERIES_GAIN * M * rows:
                ks = np.arange(span.start, span.stop)
                rest = ks[~ok]
                tiles = next(self.rs.tiles(self.js[rest]))[2] if rest.size else []
                return rest, tiles, (ks[ok], M)
        return np.arange(self.K), tiles, None

    def _series(self, eta, X, b0, at, M, out, ratio=None):
        """Adds each row's ``[P, V]`` (with ``ratio``, ``P [1 | ratio_k]``)
        over the intervals at ``at`` to ``out`` and returns their
        ``[P, log(1 + E), V, V X]`` (with ``ratio``, None), from ``M``
        terms of ``P = sum_t s_t E^t``, ``log(1 + E) = sum_t s_t E^t / t``
        and ``V = sum_t s_t t E^t``, ``s_t = (-1)^{t+1}``.  With
        ``E_ki = u_k v_i``, ``u_k = e^{b0_k + c}``, ``v_i = e^{eta_i - c}``,
        each term is ``u_k^t`` times a prefix sum of ``v^t [1 | X]``, or
        ``v_i^t`` times a suffix sum of ``u^t [1 | ratio]``, over chunks
        of rows and groups of terms of at most ``_TILE`` entries."""
        m = self.m[at]
        rows, w = int(m[0]), 1 + X.shape[1]
        c = float(eta[:rows].max())
        v, u = np.exp(eta[:rows] - c), np.exp(b0[at] + c)
        t = np.arange(1.0, M + 1)
        s = np.where(t % 2 == 1, 1.0, -1.0)
        coef = np.stack([s, s / t, s * t])
        g = -(-M // -(-M // max(1, _risksets._TILE // (rows * w))))
        step = max(1, _risksets._TILE // (w * g))

        def powers(x, last, k):
            out = np.empty((k, x.size))
            np.multiply(last, x, out=out[0])
            for j in range(1, k):
                np.multiply(out[j - 1], x, out=out[j])
            return out

        def chunks(los):
            # rows lo:hi, the intervals ks whose risk sets end there, and
            # per group ts of terms the powers of v and u on them
            for lo in los:
                hi = min(lo + step, rows)
                ks = slice(*np.searchsorted(-m, [-hi, -lo]))
                pv, pu = np.ones((1, hi - lo)), np.ones((1, ks.stop - ks.start))
                for a in range(0, M, g):
                    ts = slice(a, min(a + g, M))
                    pv = powers(v[lo:hi], pv[-1], ts.stop - a)
                    pu = powers(u[ks], pu[-1], ts.stop - a)
                    yield lo, hi, ks, ts, pv, pu

        sums, weights = None, coef[:1]
        if ratio is None:
            sums, weights = np.zeros((2 + w, m.size)), coef[::2]
            carry = np.zeros((w, M))
            for lo, hi, ks, ts, pv, pu in chunks(range(0, rows, step)):
                buf = np.empty((w,) + pv.shape)
                buf[0] = pv
                np.multiply(X.T[:, None, lo:hi], pv, out=buf[1:])
                np.cumsum(buf, axis=2, out=buf)
                if lo:
                    buf += carry[:, ts, None]
                carry[:, ts] = buf[:, :, -1]
                S = buf[:, :, m[ks] - 1 - lo]
                S *= pu
                sums[:2, ks] += coef[:2, ts] @ S[0]
                sums[2:, ks] += coef[2, ts] @ S
        carry = np.zeros((out.shape[0] // weights.shape[0], M))
        for lo, hi, ks, ts, pv, pu in chunks(reversed(range(0, rows, step))):
            # rows hi - 1 down to lo: cumulative sums are suffix sums
            buf = np.zeros((carry.shape[0],) + pv.shape)
            ends = hi - m[ks]
            buf[0][:, ends] = pu
            if ratio is not None:
                buf[1:][:, :, ends] = ratio[at[ks]].T[:, None, :] * pu
            np.cumsum(buf, axis=2, out=buf)
            if hi < rows:
                buf += carry[:, ts, None]
            carry[:, ts] = buf[:, :, -1]
            buf *= pv[:, ::-1]
            out[:, lo:hi] += (weights[:, ts] @ buf).reshape(out.shape[0],
                                                             -1)[:, ::-1]
        return sums

    def start(self):
        """``(b0, beta, pass)`` at the start point ``beta = 0``,
        ``b0_k = logit(p_k)`` with ``p_k = T_k / m_k``.

        Every fitted probability of interval ``k`` is then ``p_k``, so
        the pass is closed form in O(n d^2) per epoch: ``a_k = m_k v_k``
        and ``C_k = v_k sum_{i < m_k} X_i`` with ``v_k = p_k (1 - p_k)``,
        and each member's weights in ``rb`` and ``F`` are the sums of
        ``p_k`` and ``v_k`` over the intervals whose risk set holds it.
        """
        d = self.SD.size
        p = self.T / self.m
        v = p * (1.0 - p)
        b0 = np.log(self.T / (self.m - self.T))
        loglik = float(self.T @ b0 + self.m @ np.log1p(-p))
        C = np.empty((self.K, d))
        rb, F = self.SD.copy(), np.zeros((d, d))
        for X, span, _ in self.epochs:
            m = self.m[span]
            head = np.zeros((X.shape[0] + 1, d))
            np.cumsum(X, axis=0, out=head[1:])
            C[span] = v[span, None] * head[m]
            # member i's sums over the intervals k with i < m_k
            sums = np.bincount(m, weights=p[span], minlength=X.shape[0] + 1)
            rb -= sums[::-1].cumsum()[::-1][1:] @ X
            sums = np.bincount(m, weights=v[span], minlength=X.shape[0] + 1)
            F += X.T @ (X * sums[::-1].cumsum()[::-1][1:, None])
        return b0, np.zeros(d), _Pass(loglik, self.T - self.m * p, rb,
                                      self.m * v, C, F)

    def evaluate(self, b0, beta):
        """Log likelihood, scores and arrow-structured information blocks
        at ``(b0, beta)`` in one pass over the series and the tiles."""
        d = beta.size
        loglik = float(self.T @ b0 + self.SD @ beta)
        r0, a = self.T.copy(), np.zeros(self.K)
        C = np.zeros((self.K, d))
        rb, F = self.SD.copy(), np.zeros((d, d))
        for X, span, tiles in self.epochs:
            eta = X @ beta
            col = np.zeros((2, eta.size))  # each row's sums of P and V
            ks, tiles, series = self._split(b0, eta, span, tiles)
            if series is not None:
                sums = self._series(eta, X, b0, *series, col)
                at = series[0]
                loglik -= float(sums[1].sum())
                r0[at] -= sums[0]
                a[at] += sums[2]
                C[at] += sums[3:].T
            bk, mk = b0[ks], self.m[ks]
            for rows, cols in tiles:
                P, V, log = self._tile(bk, eta, rows, cols, mk)
                row_sum, col_sum = (self._ones[:P.shape[1]],
                                    self._ones[:P.shape[0]])
                at = ks[rows]
                loglik -= log
                r0[at] -= P @ row_sum
                a[at] += V @ row_sum
                C[at] += V @ X[cols]
                col[0, cols] += col_sum @ P
                col[1, cols] += col_sum @ V
            rb -= col[0] @ X
            F += X.T @ (X * col[1][:, None])
        return _Pass(loglik, r0, rb, a, C, F)

    def gain(self, b0, beta, step0, step):
        """Log-likelihood change from ``(b0, beta)`` to
        ``(b0 + step0, beta + step)``.

        Summed from the per-row changes of ``log(1 + e^Z)``, as
        ``log1p(P expm1(delta))`` where the row's ``|delta| <= 1``, so it
        resolves gains below the rounding of the log likelihood itself.
        """
        out = float(self.T @ step0 + self.SD @ step)
        for X, _, tiles in self.epochs:
            eta, shift = X @ beta, X @ step
            for rows, cols in tiles:
                Z, _, _, P = self._probs(b0, eta, rows, cols, self.m)
                delta = step0[rows, None] + shift[None, cols]
                change = np.log1p(P * np.expm1(np.clip(delta, -1.0, 1.0)))
                big = np.abs(delta) > 1.0
                if big.any():
                    z = Z[big]
                    change[big] = (np.logaddexp(0.0, z + delta[big])
                                   - np.logaddexp(0.0, z))
                out -= float(change.sum())
        return out

    def subject_scores(self, b0, beta, ratio):
        """Rows ``q_i = sum_k resid_ik (X_i - ratio_k)`` over subject i's
        person-period rows, ``(n, d)`` in subject order."""
        q = np.zeros((self.rs.n, beta.size))
        for (X, span, tiles), (ev_rows, ev_at) in zip(self.epochs,
                                                      self.events):
            eta = X @ beta
            # each row's sums of P [1 | ratio_k] over its intervals
            part = np.zeros((1 + beta.size, eta.size))
            ks, tiles, series = self._split(b0, eta, span, tiles)
            if series is not None:
                self._series(eta, X, b0, *series, part, ratio)
            bk, mk = b0[ks], self.m[ks]
            for rows, cols in tiles:
                P = self._tile(bk, eta, rows, cols, mk, moments=False)[0]
                part[0, cols] += self._ones[:P.shape[0]] @ P
                part[1:, cols] += (P.T @ ratio[ks[rows]]).T
            part = part[1:].T - X * part[0][:, None]
            part[ev_rows] += X[ev_rows] - ratio[span][ev_at]
            q[:eta.size] += part
        out = np.empty_like(q)
        out[self.rs.order] = q
        return out


@dataclass
class _Pass:
    """One evaluation: log likelihood, intercept scores ``r0``, beta
    score ``rb`` and information blocks ``a`` (intercepts), ``C``
    (couplings), ``F`` (beta)."""

    loglik: float
    r0: np.ndarray
    rb: np.ndarray
    a: np.ndarray
    C: np.ndarray
    F: np.ndarray

    def score_norm(self, n):
        return max(float(np.max(np.abs(self.r0))),
                   float(np.max(np.abs(self.rb)))) / n


def _expit(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_plogit(data: DiscreteSurvivalData, tol: float = 1e-9,
               max_iter: int = 50, full_fisher: bool = True) -> PlogitFit:
    """Joint Newton maximization of the pooled person-period likelihood.

    Starts at ``beta = 0`` with each included intercept at the empirical
    logit ``log(T_j / (n_j - T_j))``, takes Newton steps through the
    arrow-structured information with step-halving on the log
    likelihood, and declares convergence when the max-abs 1/n-scaled
    score component falls below ``tol``.  A step whose log likelihood
    does not exceed the current one is still taken when its gain,
    summed row by row from the step, is positive: near the optimum the
    gain falls below the rounding of the log likelihood itself.

    ``full_fisher`` picks the layout ``fit.fisher`` builds on first read:
    with ``full_fisher=False`` the compact one over included intervals
    only, ``(K + d) x (K + d)``, instead of the zero-padded
    ``(J + d) x (J + d)``.  ``plogit_variances`` reads the arrow blocks
    the fit stores, so it builds neither.

    Raises
    ------
    InputError
        No covariates, or no interval with both events and non-events;
        ``tol`` not positive and finite, or ``max_iter`` below 1.
    SingularMatrixError
        Rank-deficient design.
    ConvergenceError
        Separation/divergence (a parameter exceeding 50 in absolute
        value with non-vanishing score), stalled line search, or an
        exhausted iteration budget.
    """
    check_settings(tol, max_iter, "fit_plogit: tol", "fit_plogit: max_iter")
    if data.d < 1:
        raise InputError("no covariates to fit")
    pp = _PersonPeriod(data)
    if not pp.K:
        raise InputError("no interval has both events and event-free members")
    n, J, live = data.n, data.n_intervals, pp.live

    # the pass at the current estimate: its log likelihood, scores and
    # information
    b0, beta, cur = pp.start()

    converged = False
    score_norm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        score_norm = cur.score_norm(n)
        if score_norm <= tol:
            converged = True
            it -= 1
            break
        schur = cur.F - (cur.C / cur.a[:, None]).T @ cur.C
        rhs = cur.rb - cur.C.T @ (cur.r0 / cur.a)
        try:
            dbeta = np.linalg.solve(schur, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("fit_plogit: singular information") from exc
        if not np.all(np.isfinite(dbeta)):
            raise SingularMatrixError("fit_plogit: non-finite solve result")
        db0 = (cur.r0 - cur.C @ dbeta) / cur.a
        t = 1.0
        while t >= 2.0 ** -40:
            cand0, candb = b0 + t * db0, beta + t * dbeta
            cand = pp.evaluate(cand0, candb)
            # a gain below the log likelihood's rounding is resolved
            # from the step itself
            if (cand.loglik > cur.loglik
                    or pp.gain(b0, beta, t * db0, t * dbeta) > 0.0):
                b0, beta, cur = cand0, candb, cand
                break
            t /= 2.0
        else:
            raise ConvergenceError("fit_plogit: line search stalled",
                                   iterations=it, score_norm=score_norm)
        if max(np.max(np.abs(beta)), np.max(np.abs(b0))) > 50.0:
            raise ConvergenceError(
                "fit_plogit: divergence (separation suspected)",
                iterations=it, score_norm=score_norm)
    if not converged:
        score_norm = cur.score_norm(n)
        if score_norm > tol:
            raise ConvergenceError(
                f"fit_plogit: no convergence in {max_iter} iterations",
                iterations=max_iter, score_norm=score_norm)

    beta0 = np.full(J, -np.inf)
    beta0[pp.rs.n_events == pp.rs.n_at_risk] = np.inf
    beta0[live] = b0

    warnings = []
    n_excluded = int(np.sum(~live))
    if n_excluded:
        warnings.append(
            f"{n_excluded} interval(s) excluded from the pooled likelihood "
            "(no events or all events); their intercepts are infinite sentinels")
    return PlogitFit(beta=beta, beta0=beta0, loglik=cur.loglik,
                     iterations=it, score_norm=score_norm, included=live, n=n,
                     a=cur.a, C=cur.C, F=cur.F, full_fisher=full_fisher,
                     warnings=warnings)


def plogit_variances(data: DiscreteSurvivalData, fit: PlogitFit):
    """Covariance estimates for the pooled-logistic ``beta``.

    Returns
    -------
    (model_based, robust) : pair of (d, d) ndarrays
        ``model_based`` is the beta block of the inverse observed
        information.  ``robust`` is the beta block of the sandwich
        whose meat sums the full parameter score over each subject's
        person-period rows (clustering by subject), so repeated rows
        from one subject are not treated as independent.

    Notes
    -----
    The information is arrow shaped: intercepts ``a_k`` on the
    diagonal, their beta couplings ``C_k`` and the beta block ``F``, as
    the fit stores them.  Its inverse's beta block is the inverse ``S^-1``
    of the Schur complement ``S = F - sum_k C_k C_k' / a_k``, and the beta
    block of the sandwich is ``S^-1 (sum_i q_i q_i') S^-1`` with
    ``q_i = sum_k resid_ik (X_i - C_k / a_k)`` over subject i's rows, so
    neither the full inverse nor the per-subject score matrix is formed.
    A fit of another dataset (``n``, ``d`` or ``included``) is an
    ``InputError``.
    """
    pp = _PersonPeriod(data)
    if (fit.n != data.n or fit.beta.size != data.d
            or not np.array_equal(fit.included, pp.live)):
        raise InputError(
            "plogit_variances: the fit does not belong to this dataset")
    ratio = fit.C / fit.a[:, None]
    schur = fit.F - ratio.T @ fit.C
    try:
        inv = np.linalg.solve(schur, np.eye(data.d))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("plogit_variances: singular information") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMatrixError("plogit_variances: singular information")

    q = pp.subject_scores(fit.beta0[fit.included], fit.beta, ratio)
    robust = inv @ (q.T @ q) @ inv
    return 0.5 * (inv + inv.T), 0.5 * (robust + robust.T)
