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
Risk sets are nested prefixes of one subject order, so the person-period
rows are visited as dense (intervals x subjects) tiles of the risk-set
engine, and one pass over them gives the log likelihood, the scores and
the arrow blocks: per Newton step O(sum_j n_j) elementwise work, one
product of O(sum_j n_j d) for the couplings and O(n d^2) for the beta
block, plus one d x d solve.  Working memory is O(n d + K d^2) for K
included intervals plus a fixed tile budget (``_risksets._TILE``
entries), never proportional to sum_j n_j; only the information matrix
a fit returns is dense, (J + d)^2 or, compact, (K + d)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DiscreteSurvivalData
from .errors import ConvergenceError, InputError, SingularMatrixError

__all__ = ["PlogitFit", "fit_plogit", "plogit_variances"]


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
    fisher : (J + d, J + d) ndarray
        Observed information at the optimum (raw sum scale), with the
        intercept for interval ``j`` in row ``j - 1`` and ``beta`` in
        the last ``d`` rows.  Rows of excluded intervals are zero.
    iterations : int
    score_norm : float
        Scaled max norm of the score at the returned estimate.
    included : (J,) bool ndarray
        Which intervals enter the likelihood.
    n : int
    warnings : list of str
    """

    beta: np.ndarray
    beta0: np.ndarray
    loglik: float
    fisher: np.ndarray
    iterations: int
    score_norm: float
    included: np.ndarray
    n: int
    warnings: list = field(default_factory=list)


class _PersonPeriod:
    """The person-period rows of the intervals that carry a finite
    intercept, visited as the dense tiles of ``RiskSets.tiles``.

    Each tile holds ``Z = b0_k + eta_i`` for a block of consecutive
    included intervals ``k`` and a block of the subjects in the engine's
    order; entries past an interval's risk set are ``-inf``, where the
    fitted probability, its variance and ``log(1 + e^Z)`` are exactly 0.
    Event rows enter in closed form: interval ``k``'s events are the
    rows ``[n_k - T_k, n_k)`` of its epoch.
    """

    def __init__(self, data):
        rs = self.rs = data.risk_sets
        self.live = (rs.n_events > 0) & (rs.n_events < rs.n_at_risk)
        js = np.flatnonzero(self.live) + 1
        self.K = js.size
        self.T = rs.n_events[js - 1].astype(float)
        self.m = rs.n_at_risk[js - 1]
        self.epochs = list(rs.tiles(js))
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
        # four arrays of the largest tile, reused by every pass
        size = max(((r.stop - r.start) * (c.stop - c.start)
                    for _, _, tiles in self.epochs for r, c in tiles),
                   default=0)
        self._scratch = np.empty((4, size))

    def _probs(self, b0, eta, rows, cols):
        """``(Z, E, Q, P)`` of one tile, in the scratch space:
        ``E = e^{-|Z|}``, ``Q = 1/(1+E)`` and the fitted probabilities
        ``P``."""
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        Z, E, Q, P = (w[:shape[0] * shape[1]].reshape(shape)
                      for w in self._scratch)
        np.add(b0[rows, None], eta[None, cols], out=Z)
        # columns before `full` lie in every row's risk set
        full = int(self.m[rows].min()) - cols.start
        if full < shape[1]:
            tail = Z[:, full:]
            past = (np.arange(cols.start + full, cols.stop)[None, :]
                    >= self.m[rows, None])
            tail[past] = -np.inf
        np.abs(Z, out=E)
        np.negative(E, out=E)
        np.exp(E, out=E)
        np.add(E, 1.0, out=Q)
        np.reciprocal(Q, out=Q)
        np.multiply(E, Q, out=P)
        np.copyto(P, Q, where=Z >= 0.0)
        return Z, E, Q, P

    def evaluate(self, b0, beta):
        """Log likelihood, scores and arrow-structured information blocks
        at ``(b0, beta)`` in one pass over the tiles."""
        d = beta.size
        loglik = float(self.T @ b0 + self.SD @ beta)
        r0, a = self.T.copy(), np.zeros(self.K)
        C = np.zeros((self.K, d))
        rb, F = self.SD.copy(), np.zeros((d, d))
        for X, _, tiles in self.epochs:
            eta = X @ beta
            col_p, col_v = np.zeros(eta.size), np.zeros(eta.size)
            for rows, cols in tiles:
                Z, E, Q, P = self._probs(b0, eta, rows, cols)
                # log(1 + e^Z) = max(Z, 0) + log1p(E); V = E Q^2 = P (1 - P)
                loglik -= float(np.maximum(Z, 0.0, out=Z).sum()
                                + np.log1p(E, out=Z).sum())
                V = np.multiply(E, Q, out=E)
                V *= Q
                r0[rows] -= P.sum(axis=1)
                a[rows] += V.sum(axis=1)
                C[rows] += V @ X[cols]
                col_p[cols] += P.sum(axis=0)
                col_v[cols] += V.sum(axis=0)
            rb -= col_p @ X
            F += X.T @ (X * col_v[:, None])
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
                Z, _, _, P = self._probs(b0, eta, rows, cols)
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
            col_p = np.zeros(eta.size)
            part = np.zeros(X.shape)
            for rows, cols in tiles:
                P = self._probs(b0, eta, rows, cols)[3]
                col_p[cols] += P.sum(axis=0)
                part[cols] += P.T @ ratio[rows]
            part -= X * col_p[:, None]
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

    With ``full_fisher=False`` the stored information matrix is the
    compact one over included intervals only, ``(K + d) x (K + d)`` with
    ``K`` the number of included intervals, instead of the zero-padded
    ``(J + d) x (J + d)`` layout.  Useful when the grid is much finer
    than the events (simulation harness, ``dsurv fit``); downstream
    variance code accepts either layout.

    Raises
    ------
    InputError
        No covariates, or no interval with both events and non-events.
    SingularMatrixError
        Rank-deficient design.
    ConvergenceError
        Separation/divergence (a parameter exceeding 50 in absolute
        value with non-vanishing score), stalled line search, or an
        exhausted iteration budget.
    """
    if data.d < 1:
        raise InputError("no covariates to fit")
    pp = _PersonPeriod(data)
    if not pp.K:
        raise InputError("no interval has both events and event-free members")
    n, d, J = data.n, data.d, data.n_intervals
    K, live = pp.K, pp.live

    b0 = np.log(pp.T / (pp.m - pp.T))
    beta = np.zeros(d)
    # the pass at the current estimate: its log likelihood, scores and
    # information
    cur = pp.evaluate(b0, beta)

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
            if t == 1.0:
                newton = cand
            # a gain below the log likelihood's rounding is resolved
            # from the step itself
            if (cand.loglik > cur.loglik
                    or pp.gain(b0, beta, t * db0, t * dbeta) > 0.0):
                b0, beta, cur = cand0, candb, cand
                break
            t /= 2.0
        else:
            # near the optimum the quadratic gain can drop below the
            # log-likelihood's rounding noise while the score is still a
            # little above tol; accept a plain Newton step if it shrinks
            # the score
            if newton.score_norm(n) < score_norm:
                b0, beta, cur = b0 + db0, beta + dbeta, newton
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
    pos = np.flatnonzero(live)
    if full_fisher:
        fisher = np.zeros((J + d, J + d))
        fisher[pos, pos] = cur.a
        fisher[np.ix_(pos, range(J, J + d))] = cur.C
        fisher[np.ix_(range(J, J + d), pos)] = cur.C.T
        fisher[J:, J:] = cur.F
    else:
        fisher = np.zeros((K + d, K + d))
        fisher[np.arange(K), np.arange(K)] = cur.a
        fisher[:K, K:] = cur.C
        fisher[K:, :K] = cur.C.T
        fisher[K:, K:] = cur.F

    warnings = []
    n_excluded = int(np.sum(~live))
    if n_excluded:
        warnings.append(
            f"{n_excluded} interval(s) excluded from the pooled likelihood "
            "(no events or all events); their intercepts are infinite sentinels")
    return PlogitFit(beta=beta, beta0=beta0, loglik=cur.loglik, fisher=fisher,
                     iterations=it, score_norm=score_norm, included=live, n=n,
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
    diagonal, their beta couplings ``C_k`` and the beta block ``F``.
    Its inverse's beta block is the inverse ``S^-1`` of the Schur
    complement ``S = F - sum_k C_k C_k' / a_k``, and the beta block of
    the sandwich is ``S^-1 (sum_i q_i q_i') S^-1`` with
    ``q_i = sum_k resid_ik (X_i - C_k / a_k)`` over subject i's rows, so
    neither the full inverse nor the per-subject score matrix is formed.
    """
    pp = _PersonPeriod(data)
    d, J = data.d, data.n_intervals
    pos = np.flatnonzero(pp.live)
    K = pos.size
    info = fit.fisher
    if info.shape[0] == K + d:  # compact layout (full_fisher=False)
        a, C = np.diag(info)[:K], info[:K, K:]
    else:
        a, C = info[pos, pos], info[np.ix_(pos, np.arange(J, J + d))]
    ratio = C / a[:, None]
    schur = info[-d:, -d:] - ratio.T @ C
    try:
        inv = np.linalg.solve(schur, np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("plogit_variances: singular information") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMatrixError("plogit_variances: singular information")

    q = pp.subject_scores(fit.beta0[pos], fit.beta, ratio)
    robust = inv @ (q.T @ q) @ inv
    return 0.5 * (inv + inv.T), 0.5 * (robust + robust.T)
