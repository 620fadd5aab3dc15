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

from .data import DiscreteSurvivalData
from .errors import (ConvergenceError, InputError, SingularMatrixError,
                     check_settings)

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
# terms over the risk-set aggregates (raw sums; the module-level wrappers
# divide by n): per-interval scores, d x d totals (Aggregates.contract)
# ---------------------------------------------------------------------------

def _xbar(a):
    return a.S1 / a.S0[:, None]


def score_terms(a):
    """Raw score terms ``sum_i D_i (X_i - xbar) = SD1 - T xbar``."""
    return a.SD1 - a.T[:, None] * _xbar(a)


def hessian_terms(a):
    """Raw Hessian total ``sum_j T sum_i (w_i/S0)(X_i - xbar)^{x2} = sum_j T (S2/S0 - xbar xbar')``."""
    xbar = _xbar(a)
    return a.contract(risk=a.T / a.S0) - (a.T[:, None] * xbar).T @ xbar


def ab_terms(a):
    """Raw total of ``sum_i p_i (1 - p_i) (X_i - xbar)^{x2}`` with ``p_i = T w_i / S0``."""
    xbar = _xbar(a)
    c = (a.T / a.S0) ** 2
    cross = (c[:, None] * a.Q1).T @ xbar
    return (a.contract(risk=a.T / a.S0, risk_sq=-c)
            - ((a.T + c * a.Q0)[:, None] * xbar).T @ xbar + cross + cross.T)


def vhat_terms(a):
    """Raw tie-aware total of the pieces ``n * vhat_j``: the triple sum

        sum_i (1-D_i) w_i [sum_l w_l (X_i - X_l)] [sum_k D_k (X_i - X_k)]' / S0^2

    expanded into the aggregates (O(d^2) per interval, not O(m^3)).
    """
    s0 = a.S0[:, None]
    return (a.contract(free=a.T / a.S0) - (a.M1 / s0).T @ a.SD1
            + a.S1.T @ ((a.s0d[:, None] * a.SD1 - a.T[:, None] * a.M1)
                        / (s0 * s0)))


def _objective(rs, gamma):
    """Log partial likelihood ``sum_j [sum_{D_j} eta - T_j log S0_j]``,
    from the full pass at ``gamma``."""
    a = rs.full(gamma)
    return float(np.sum(a.SD1 @ gamma - a.T * (np.log(a.S0) + a.shift)))


def _gain(rs, a, gamma, step):
    """Objective change from ``gamma`` (aggregates ``a``) to
    ``gamma + step``: ``sum_j [SD1_j' step - T_j log1p(Z_j / S0_j)]``
    with ``Z_j / S0_j`` the relative change of ``S0_j``, summed from the
    step itself, so it resolves gains below the objective's rounding.
    ``-inf`` where ``RiskSets.s0_change`` does not trust its sums."""
    change = rs.s0_change(gamma, step)
    if change is None:
        return -np.inf
    return float(np.sum(a.SD1 @ step - a.T * np.log1p(change)))


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

def _mean_terms(data, coef, total, squares=None):
    """``1/n`` times ``total`` of the full pass at ``coef``."""
    return total(data.risk_sets.full(coef, squares)) / data.n


def score_gamma(data: DiscreteSurvivalData, gamma) -> np.ndarray:
    """Pooled estimating function, scaled by 1/n."""
    return _mean_terms(data, gamma, lambda a: score_terms(a).sum(axis=0))


def hessian_gamma(data: DiscreteSurvivalData, gamma) -> np.ndarray:
    """``B_hat(gamma)``: 1/n times the negative Hessian of the sample objective."""
    return _mean_terms(data, gamma, hessian_terms)


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
    return _baselines(data.risk_sets.full(gamma), data.n_intervals)


def _baselines(a, J):
    out = np.full(J, -np.inf)
    out[a.k - 1] = np.log(a.T) - a.log_s0
    return out


def fit_gamma(data: DiscreteSurvivalData, tol: float = 1e-9,
              max_iter: int = 50) -> ProbFit:
    """Damped Newton solve of the pooled estimating equation.

    Starts at ``gamma = 0`` and performs Newton steps with step-halving
    on the concave objective; convergence requires the max-abs
    1/n-scaled score component to fall below ``tol``.  Each candidate
    costs one full pass, which gives its objective and, once accepted,
    the next step's score and Hessian.  A candidate whose objective does
    not exceed the current one is still taken when its gain, summed from
    the step (``_gain``), is positive: near the optimum the gain falls
    below the rounding of the objective itself.  The dataset's engine
    keeps the root (the default start of ``fit_beta`` at the same
    settings) and the pass it gave.

    Raises
    ------
    InputError
        No events, or no covariates; ``tol`` not positive and finite,
        or ``max_iter`` below 1.
    SingularMatrixError
        Rank-deficient design (singular Hessian).
    ConvergenceError
        Iteration budget exhausted, stalled line search, or monotone
        likelihood (``|gamma|_inf > 50`` with non-vanishing score).
    """
    check_settings(tol, max_iter, "fit_gamma: tol", "fit_gamma: max_iter")
    if data.d < 1:
        raise InputError("no covariates to fit")
    n = data.n
    gamma = np.zeros(data.d)
    rs = data.risk_sets
    if rs.event_intervals.size == 0:
        raise InputError("dataset contains no events")

    obj = _objective(rs, gamma)
    for it in range(max_iter + 1):
        a = rs.full(gamma)  # the pass that gave obj
        score = score_terms(a).sum(axis=0)
        score_norm = float(np.max(np.abs(score))) / n
        if score_norm <= tol:
            break
        if it == max_iter:
            raise ConvergenceError(
                f"fit_gamma: no convergence in {max_iter} iterations",
                iterations=max_iter, score_norm=score_norm)
        step = _solve_spd(hessian_terms(a), score, "fit_gamma")
        t = 1.0
        while t >= 2.0 ** -40:
            cand = gamma + t * step
            cand_obj = _objective(rs, cand)
            if cand_obj > obj or _gain(rs, a, gamma, t * step) > 0.0:
                gamma, obj = cand, cand_obj
                break
            t /= 2.0
        else:
            raise ConvergenceError("fit_gamma: line search stalled",
                                   iterations=it + 1, score_norm=score_norm)
        if np.max(np.abs(gamma)) > 50.0:
            raise ConvergenceError(
                "fit_gamma: divergence (monotone likelihood suspected)",
                iterations=it + 1, score_norm=score_norm)

    rs.hold("prob", gamma)
    rs.keep(("root", "prob"), (tol, max_iter), gamma.copy())
    hess = hessian_terms(a) / n
    gamma0 = _baselines(a, data.n_intervals)
    warnings = []
    if np.max(np.abs(gamma)) > 10.0:
        warnings.append(
            "extreme coefficient (|gamma| > 10): the score vanishes in the "
            "tail, so the equation may have no finite root (separation)")
    n_over = rs.count_positive(gamma, gamma0[a.k - 1])
    if n_over:
        warnings.append(
            f"fitted hazard probability exceeds 1 for {n_over} subject-interval(s)")
    return ProbFit(gamma=gamma, gamma0=gamma0, hessian=hess,
                   score_norm=score_norm, iterations=it, n=n,
                   warnings=warnings)


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def _kept_rows(rs, model, coef, make):
    """``make(rs, coef)``, kept read-only on the engine as ``model``'s
    influence rows at these exact coefficients."""
    key = np.asarray(coef, dtype=float).tobytes()
    rows = rs.recall(("rows", model), key)
    if rows is None:
        rows = make(rs, coef)
        rows.flags.writeable = False
        rs.keep(("rows", model), key, rows)
    return rows


def _prob_rows(rs, gamma):
    a = rs.full(gamma)
    xbar = _xbar(a)
    ones = np.ones(a.T.size)
    rows = rs.subject_sums(gamma, xbar, a=-ones,
                           log_weight=np.log(a.T) - a.log_s0)
    return rows + rs.subject_sums(gamma, -xbar, a=ones, span="event")


def _influence_rows(rs, gamma):
    """Rows ``h_i = sum_{j <= y_i} (D_ij - T_j w_ij / S0_j)(X_ij - xbar_j)``:
    the event term at ``y_i`` plus one cumulative sum over intervals.
    Read-only: the engine keeps them for the variance and the curve."""
    return _kept_rows(rs, "prob", gamma, _prob_rows)


def influence_prob(data: DiscreteSurvivalData, fit: ProbFit) -> ProbInfluence:
    """Per-subject influence sums ``h_i`` entering the robust sandwich."""
    return ProbInfluence(total=_influence_rows(data.risk_sets, fit.gamma).copy())


def _sandwich(bread, meat, n, kind, transpose_right=False):
    """``inv @ meat @ inv`` with ``inv = bread^-1``, or ``inv @ meat @ inv.T``
    for a non-symmetric bread, symmetrized."""
    inv = _solve_spd(bread, np.eye(bread.shape[0]), f"var_{kind}")
    mat = inv @ meat @ (inv.T if transpose_right else inv)
    return VarianceEstimate(kind=kind, matrix=0.5 * (mat + mat.T), n=n)


def var_robust(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Model-robust sandwich ``B^-1 A B^-1`` with empirical influence meat."""
    h = influence_prob(data, fit).total
    meat = (h.T @ h) / data.n
    return _sandwich(fit.hessian, meat, data.n, "robust")


def var_model_based(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Model-based sandwich with ``p(1-p)``-weighted meat (valid without ties)."""
    meat = _mean_terms(data, fit.gamma, ab_terms, squares=1)
    return _sandwich(fit.hessian, meat, data.n, "model_based")


def var_model_based2(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Tie-aware model-based sandwich from conditionally unbiased pieces."""
    meat = _mean_terms(data, fit.gamma, vhat_terms)
    meat = 0.5 * (meat + meat.T)
    return _sandwich(fit.hessian, meat, data.n, "model_based2")


def var_oldstyle(data: DiscreteSurvivalData, fit: ProbFit) -> VarianceEstimate:
    """Inverse-Hessian variance ``B^-1`` (the conventional tied-data output)."""
    inv = _solve_spd(fit.hessian, np.eye(data.d), "var_oldstyle")
    return VarianceEstimate(kind="old", matrix=0.5 * (inv + inv.T), n=data.n)
