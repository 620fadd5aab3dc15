"""Hazard-probability regression.

Fits the model ``p_j(x) = exp(gamma_0j + x' gamma)`` for the conditional
probability of an event in interval ``j`` given risk-set membership, by
solving the pooled estimating equation

    sum_j sum_i R[j,i] D[j,i] { X_i - xbar_j(gamma) } = 0,

where ``xbar_j`` is the ``exp(X' gamma)``-weighted mean of covariates
over risk set ``j``.  This coincides with the Breslow/Peto tied-data
modification of Cox partial likelihood scoring, and equals the gradient
of the concave objective

    sum_j sum_i R[j,i] D[j,i] { X_i' gamma - log sum_l R[j,l] e^{X_l' gamma} }.

Baseline hazards follow by profiling:
``exp(gamma_0j) = T_j / sum_i R[j,i] e^{X_i' gamma}``.

Three variance estimators for the asymptotic variance ``V`` of
``sqrt(n) (gamma_hat - gamma_bar)`` are provided: the model-robust
sandwich (``var_robust``), the classical model-based form with
``p(1-p)`` weights (``var_model_based``) and the tie-aware estimator
built from conditionally unbiased per-interval pieces
(``var_model_based2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._risksets import RiskSets
from .data import DiscreteSurvivalData
from .errors import ConvergenceError, InputError, SingularMatrixError

__all__ = [
    "ProbFit",
    "ProbInfluence",
    "VarianceEstimate",
    "fit_gamma",
    "score_gamma",
    "hessian_gamma",
    "influence_prob",
    "var_robust",
    "var_model_based",
    "var_model_based2",
]


# ---------------------------------------------------------------------------
# per-interval kernels (raw sums; module-level wrappers divide by n)
# ---------------------------------------------------------------------------

def _weights(eta):
    """Shifted exponential weights and the log of their true-scale sum."""
    c = float(np.max(eta)) if eta.size else 0.0
    w = np.exp(eta - c)
    s0 = float(w.sum())
    return w, s0, c


def interval_score(X, D, eta):
    """Raw score contribution ``sum_i D_i (X_i - xbar)`` of one risk set."""
    T = int(D.sum())
    if T == 0:
        return np.zeros(X.shape[1])
    w, s0, _ = _weights(eta)
    xbar = (w @ X) / s0
    return X[D].sum(axis=0) - T * xbar


def interval_hessian(X, D, eta):
    """Raw Hessian contribution ``T * sum_i (w_i/S0)(X_i - xbar)^{x2}``."""
    d = X.shape[1]
    T = int(D.sum())
    if T == 0:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    xbar = (w @ X) / s0
    Xc = X - xbar
    return T * (Xc.T @ (Xc * (w / s0)[:, None]))


def interval_ab(X, D, eta):
    """Raw contribution ``sum_i p_i (1 - p_i) (X_i - xbar)^{x2}`` with ``p_i = T w_i / S0``."""
    d = X.shape[1]
    T = int(D.sum())
    if T == 0:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    xbar = (w @ X) / s0
    p = T * w / s0
    Xc = X - xbar
    return Xc.T @ (Xc * (p * (1.0 - p))[:, None])


def interval_vhat(X, D, eta):
    """Raw tie-aware piece ``n * vhat_j``: the triple sum

        sum_i (1-D_i) w_i [sum_l w_l (X_i - X_l)] [sum_k D_k (X_i - X_k)]' / S0^2

    expanded into rank-structured aggregates (O(m d^2), not O(m^3)).
    """
    d = X.shape[1]
    T = int(D.sum())
    if T == 0:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    S1 = w @ X
    SD1 = X[D].sum(axis=0)
    nd = ~D
    wn = w * nd
    s0d = float(wn.sum())
    M1 = wn @ X
    M2 = X.T @ (X * wn[:, None])
    out = (s0 * T * M2 - s0 * np.outer(M1, SD1)
           - T * np.outer(S1, M1) + s0d * np.outer(S1, SD1))
    return out / (s0 * s0)


def interval_influence(X, D, eta):
    """Per-member influence rows ``(D_i - T w_i / S0)(X_i - xbar)``."""
    w, s0, _ = _weights(eta)
    T = int(D.sum())
    xbar = (w @ X) / s0
    resid = D.astype(float) - T * w / s0
    return resid[:, None] * (X - xbar)


def _objective_term(X, D, eta):
    """Raw log-partial-likelihood contribution of one risk set."""
    T = int(D.sum())
    if T == 0:
        return 0.0
    w, s0, c = _weights(eta)
    return float(eta[D].sum()) - T * (np.log(s0) + c)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class ProbFit:
    """Converged hazard-probability fit.

    Attributes
    ----------
    gamma : (d,) ndarray
        Log probability-ratio coefficients.
    gamma0 : (J,) ndarray
        Baseline log hazards; ``-inf`` for intervals without events.
    hessian : (d, d) ndarray
        ``B_hat(gamma_hat)``, the 1/n-scaled negative objective Hessian.
    score_norm : float
        Max-abs component of the 1/n-scaled score at ``gamma``.
    iterations : int
    n : int
    warnings : list of str
    """

    gamma: np.ndarray
    gamma0: np.ndarray
    hessian: np.ndarray
    score_norm: float
    iterations: int
    n: int
    warnings: list = field(default_factory=list)


@dataclass
class ProbInfluence:
    """Per-subject influence vectors, summed over intervals: ``h_i`` for
    the probability model, ``g_i`` for the odds model.

    ``total`` has one row per subject.
    """

    total: np.ndarray


@dataclass
class VarianceEstimate:
    """A d x d estimate of the asymptotic variance of ``sqrt(n)(gamma_hat - gamma_bar)``.

    ``covariance`` rescales by 1/n to the sampling covariance of the
    coefficient estimate itself, and ``se`` is the square root of its
    diagonal.
    """

    kind: str
    matrix: np.ndarray
    n: int

    @property
    def covariance(self) -> np.ndarray:
        return self.matrix / self.n

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


# ---------------------------------------------------------------------------
# score / hessian / fitting
# ---------------------------------------------------------------------------

def _mean_over_intervals(data, coef, kernel):
    """``1/n`` times the total of ``kernel`` over the event intervals."""
    coef = np.asarray(coef, dtype=float)
    return RiskSets(data).sums(coef, kernel)[0] / data.n


def score_gamma(data: DiscreteSurvivalData, gamma) -> np.ndarray:
    """Pooled estimating function, scaled by 1/n."""
    return _mean_over_intervals(data, gamma, interval_score)


def hessian_gamma(data: DiscreteSurvivalData, gamma) -> np.ndarray:
    """``B_hat(gamma)``: 1/n times the negative Hessian of the sample objective."""
    return _mean_over_intervals(data, gamma, interval_hessian)


def _objective(data, rs, gamma):
    if data.is_static:
        # one cumulative log-sum-exp pass over the risk-set ordering
        # instead of a per-interval sweep (same recipe as
        # baseline_log_hazards)
        eta = data.covariates_at(1) @ gamma
        cum = np.logaddexp.accumulate(eta[rs.order])
        ev = rs.event_intervals
        T = rs.n_events[ev - 1]
        logS0 = cum[rs.n_at_risk[ev - 1] - 1]
        return float(eta[data.delta].sum() - T @ logS0)
    return rs.sums(gamma, _objective_term)[0]


def _solve_spd(mat, vec_or_mat, context):
    """``mat^-1 vec_or_mat``, raising SingularMatrixError when it does not exist."""
    try:
        out = np.linalg.solve(mat, vec_or_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{context}: singular matrix") from exc
    if not np.all(np.isfinite(out)):
        raise SingularMatrixError(f"{context}: non-finite solve result")
    return out


def baseline_log_hazards(data: DiscreteSurvivalData, gamma) -> np.ndarray:
    """Profiled baselines ``gamma_0j = log T_j - log sum_i R[j,i] e^{X_i' gamma}``."""
    gamma = np.asarray(gamma, dtype=float)
    rs = RiskSets(data)
    J = data.n_intervals
    out = np.full(J, -np.inf)
    if data.is_static:
        eta_ord = data.covariates_at(1)[rs.order] @ gamma
        cum = np.logaddexp.accumulate(eta_ord)
        for j in range(1, J + 1):
            T = rs.n_events[j - 1]
            if T > 0:
                out[j - 1] = np.log(T) - cum[rs.n_at_risk[j - 1] - 1]
    else:
        for j in range(1, J + 1):
            T = rs.n_events[j - 1]
            if T > 0:
                _, _, _, eta = rs.interval(j, gamma)
                c = eta.max()
                out[j - 1] = np.log(T) - (np.log(np.exp(eta - c).sum()) + c)
    return out


def fit_gamma(data: DiscreteSurvivalData, tol: float = 1e-9,
              max_iter: int = 50) -> ProbFit:
    """Damped Newton solve of the pooled estimating equation.

    Starts at ``gamma = 0`` and performs Newton steps with step-halving
    on the concave objective; convergence requires the max-abs
    1/n-scaled score component to fall below ``tol``.

    Raises
    ------
    InputError
        No events, or no covariates.
    SingularMatrixError
        Rank-deficient design (singular Hessian).
    ConvergenceError
        Iteration budget exhausted, stalled line search, or monotone
        likelihood (``|gamma|_inf > 50`` with non-vanishing score).
    """
    if data.d < 1:
        raise InputError("no covariates to fit")
    n = data.n
    gamma = np.zeros(data.d)
    rs = RiskSets(data)
    if rs.event_intervals.size == 0:
        raise InputError("dataset contains no events")

    score_norm = np.inf
    converged = False
    it = 0
    obj = _objective(data, rs, gamma)
    for it in range(1, max_iter + 1):
        score, hess = rs.sums(gamma, interval_score, interval_hessian)
        score_norm = float(np.max(np.abs(score))) / n
        if score_norm <= tol:
            converged = True
            it -= 1
            break
        step = _solve_spd(hess, score, "fit_gamma")
        t = 1.0
        while t >= 2.0 ** -40:
            cand = gamma + t * step
            cand_obj = _objective(data, rs, cand)
            if cand_obj > obj:
                gamma, obj = cand, cand_obj
                break
            t /= 2.0
        else:
            # near the optimum the quadratic objective gain can drop below
            # the rounding noise of the objective while the score is still
            # slightly above tol; fall back to a plain Newton step as long
            # as it shrinks the score
            cand = gamma + step
            cand_score, = rs.sums(cand, interval_score)
            if float(np.max(np.abs(cand_score))) / n < score_norm:
                gamma = cand
                obj = _objective(data, rs, cand)
            else:
                raise ConvergenceError("fit_gamma: line search stalled",
                                       iterations=it, score_norm=score_norm)
        if np.max(np.abs(gamma)) > 50.0:
            raise ConvergenceError(
                "fit_gamma: divergence (monotone likelihood suspected)",
                iterations=it, score_norm=score_norm)
    if not converged:
        score, = rs.sums(gamma, interval_score)
        score_norm = float(np.max(np.abs(score))) / n
        if score_norm > tol:
            raise ConvergenceError(
                f"fit_gamma: no convergence in {max_iter} iterations",
                iterations=max_iter, score_norm=score_norm)

    hess = rs.sums(gamma, interval_hessian)[0] / n
    gamma0 = baseline_log_hazards(data, gamma)
    warnings = []
    if np.max(np.abs(gamma)) > 10.0:
        warnings.append(
            "extreme coefficient (|gamma| > 10): the score vanishes in the "
            "tail, so the equation may have no finite root (separation)")
    n_over = _count_hazards_over_one(data, rs, gamma, gamma0)
    if n_over:
        warnings.append(
            f"fitted hazard probability exceeds 1 for {n_over} subject-interval(s)")
    return ProbFit(gamma=gamma, gamma0=gamma0, hessian=hess,
                   score_norm=score_norm, iterations=it, n=n,
                   warnings=warnings)


def _count_hazards_over_one(data, rs, gamma, gamma0):
    count = 0
    for j in rs.event_intervals:
        _, _, _, eta = rs.interval(j, gamma)
        count += int(np.sum(gamma0[j - 1] + eta > 0))
    return count


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def influence_prob(data: DiscreteSurvivalData, fit: ProbFit) -> ProbInfluence:
    """Per-subject influence sums ``h_i`` entering the robust sandwich."""
    return ProbInfluence(
        total=RiskSets(data).scatter(fit.gamma, interval_influence))


def _sandwich(bread, meat, n, kind, transpose_right=False):
    """``inv @ meat @ inv`` with ``inv = bread^-1``, or ``inv @ meat @ inv.T``
    for a non-symmetric bread, symmetrized."""
    inv = _solve_spd(bread, np.eye(bread.shape[0]), f"var_{kind}")
    mat = inv @ meat @ (inv.T if transpose_right else inv)
    return VarianceEstimate(kind=kind, matrix=0.5 * (mat + mat.T), n=n)


def _symmetric_part(kernel):
    """Kernel returning the symmetric part of ``kernel``'s matrix."""

    def symmetric(X, D, eta):
        v = kernel(X, D, eta)
        return 0.5 * (v + v.T)

    return symmetric


def var_robust(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Model-robust sandwich ``B^-1 A B^-1`` with empirical influence meat."""
    h = influence_prob(data, fit).total
    meat = (h.T @ h) / data.n
    return _sandwich(fit.hessian, meat, data.n, "robust")


def var_model_based(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Model-based sandwich with ``p(1-p)``-weighted meat (valid without ties)."""
    meat = _mean_over_intervals(data, fit.gamma, interval_ab)
    return _sandwich(fit.hessian, meat, data.n, "model_based")


def var_model_based2(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Tie-aware model-based sandwich from conditionally unbiased pieces."""
    meat = _mean_over_intervals(data, fit.gamma, _symmetric_part(interval_vhat))
    return _sandwich(fit.hessian, meat, data.n, "model_based2")


def var_oldstyle(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Inverse-Hessian variance ``B^-1`` (the conventional tied-data output)."""
    inv = _solve_spd(fit.hessian, np.eye(data.d), "var_oldstyle")
    return VarianceEstimate(kind="old", matrix=0.5 * (inv + inv.T), n=data.n)
