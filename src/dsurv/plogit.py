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
information matrix (each intercept appears in exactly one risk set), so
a step costs O(sum_j n_j d^2) plus one d x d solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._risksets import RiskSets
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


def _person_period(data):
    """Triples ``(member indices, X rows, event indicators)`` for the
    intervals that carry a finite intercept."""
    rs = RiskSets(data)
    live = (rs.n_events > 0) & (rs.n_events < rs.n_at_risk)
    zero = np.zeros(data.d)
    triples = []
    for j in np.flatnonzero(live) + 1:
        idx, X, D, _ = rs.interval(j, zero)
        triples.append((idx, X, D.astype(float)))
    return rs, live, triples


def _loglik(triples, b0, beta):
    out = 0.0
    for k, (_, X, D) in enumerate(triples):
        z = b0[k] + X @ beta
        out += float(D @ z - np.logaddexp(0.0, z).sum())
    return out


def _score_info(triples, b0, beta, d):
    """Scores and the arrow-structured information blocks."""
    K = len(triples)
    r0 = np.empty(K)
    a = np.empty(K)
    C = np.empty((K, d))
    rb = np.zeros(d)
    F = np.zeros((d, d))
    for k, (_, X, D) in enumerate(triples):
        p = _expit(b0[k] + X @ beta)
        resid = D - p
        v = p * (1.0 - p)
        r0[k] = resid.sum()
        rb += resid @ X
        a[k] = v.sum()
        C[k] = v @ X
        F += X.T @ (X * v[:, None])
    return r0, rb, a, C, F


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
    score component falls below ``tol``.

    With ``full_fisher=False`` the stored information matrix is the
    compact one over included intervals only, ``(K + d) x (K + d)`` with
    ``K`` the number of included intervals, instead of the zero-padded
    ``(J + d) x (J + d)`` layout.  Useful when the grid is much finer
    than the events (simulation harness); downstream variance code
    accepts either layout.

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
    rs, live, triples = _person_period(data)
    if not triples:
        raise InputError("no interval has both events and event-free members")
    n, d, J = data.n, data.d, data.n_intervals
    K = len(triples)

    T, m = rs.n_events[live], rs.n_at_risk[live]
    b0 = np.log(T / (m - T))
    beta = np.zeros(d)
    obj = _loglik(triples, b0, beta)

    converged = False
    score_norm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        r0, rb, a, C, F = _score_info(triples, b0, beta, d)
        score_norm = max(float(np.max(np.abs(r0))), float(np.max(np.abs(rb)))) / n
        if score_norm <= tol:
            converged = True
            it -= 1
            break
        schur = F - (C / a[:, None]).T @ C
        rhs = rb - C.T @ (r0 / a)
        try:
            dbeta = np.linalg.solve(schur, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("fit_plogit: singular information") from exc
        if not np.all(np.isfinite(dbeta)):
            raise SingularMatrixError("fit_plogit: non-finite solve result")
        db0 = (r0 - C @ dbeta) / a
        t = 1.0
        while t >= 2.0 ** -40:
            cand0, candb = b0 + t * db0, beta + t * dbeta
            cand_obj = _loglik(triples, cand0, candb)
            if cand_obj > obj:
                b0, beta, obj = cand0, candb, cand_obj
                break
            t /= 2.0
        else:
            # near the optimum the quadratic gain can drop below the
            # log-likelihood's rounding noise while the score is still a
            # little above tol; accept a plain Newton step if it shrinks
            # the score
            cand0, candb = b0 + db0, beta + dbeta
            r0c, rbc, _, _, _ = _score_info(triples, cand0, candb, d)
            cand_norm = max(float(np.max(np.abs(r0c))),
                            float(np.max(np.abs(rbc)))) / n
            if cand_norm < score_norm:
                b0, beta = cand0, candb
                obj = _loglik(triples, b0, beta)
            else:
                raise ConvergenceError("fit_plogit: line search stalled",
                                       iterations=it, score_norm=score_norm)
        if max(np.max(np.abs(beta)), np.max(np.abs(b0))) > 50.0:
            raise ConvergenceError(
                "fit_plogit: divergence (separation suspected)",
                iterations=it, score_norm=score_norm)
    if not converged:
        r0, rb, _, _, _ = _score_info(triples, b0, beta, d)
        score_norm = max(float(np.max(np.abs(r0))), float(np.max(np.abs(rb)))) / n
        if score_norm > tol:
            raise ConvergenceError(
                f"fit_plogit: no convergence in {max_iter} iterations",
                iterations=max_iter, score_norm=score_norm)

    beta0 = np.full(J, -np.inf)
    beta0[rs.n_events == rs.n_at_risk] = np.inf
    beta0[live] = b0
    _, _, a, C, F = _score_info(triples, b0, beta, d)
    pos = np.flatnonzero(live)
    if full_fisher:
        fisher = np.zeros((J + d, J + d))
        fisher[pos, pos] = a
        fisher[np.ix_(pos, range(J, J + d))] = C
        fisher[np.ix_(range(J, J + d), pos)] = C.T
        fisher[J:, J:] = F
    else:
        fisher = np.zeros((K + d, K + d))
        fisher[np.arange(K), np.arange(K)] = a
        fisher[:K, K:] = C
        fisher[K:, :K] = C.T
        fisher[K:, K:] = F

    warnings = []
    n_excluded = int(np.sum(~live))
    if n_excluded:
        warnings.append(
            f"{n_excluded} interval(s) excluded from the pooled likelihood "
            "(no events or all events); their intercepts are infinite sentinels")
    return PlogitFit(beta=beta, beta0=beta0, loglik=obj, fisher=fisher,
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
    _, live, triples = _person_period(data)
    n, d, J = data.n, data.d, data.n_intervals
    pos = np.flatnonzero(live)
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

    q = np.zeros((n, d))
    for k, (idx, X, D) in enumerate(triples):
        resid = D - _expit(fit.beta0[pos[k]] + X @ fit.beta)
        q[idx] += resid[:, None] * (X - ratio[k])
    robust = inv @ (q.T @ q) @ inv
    return 0.5 * (inv + inv.T), 0.5 * (robust + robust.T)
