"""Hazard-odds regression.

Fits the model ``p_j(x)/(1 - p_j(x)) = exp(beta_0j + x' beta)`` for the
conditional odds of an event in interval ``j`` given risk-set
membership, by solving the pooled estimating equation

    sum_j tau_j(beta) = 0,
    tau_j = sum_i R[j,i] { D[j,i] S0d_j - (1-D[j,i]) e^{X_i' beta} T_j } X_i / S0_j,

with ``S0_j = sum_l R[j,l] e^{X_l' beta}``, ``S0d_j`` the same sum over
event-free members and ``T_j`` the event count.  With binary X this is
the (weighted) Mantel-Haenszel estimating equation pooled over the
per-interval 2x2 tables.  Baselines follow by profiling:
``exp(beta_0j) = T_j / S0d_j``.

There is no concave objective behind this equation (the population
derivative matrix is non-symmetric), so Newton steps use the sample
analog ``H_hat`` of that derivative as an approximate Jacobian and
convergence is certified by the residual norm alone.

Four estimators of the asymptotic variance of ``sqrt(n)(beta_hat -
beta_bar)`` are provided: the model-robust sandwich (``var_robust_odds``),
the classical model-based form (``var_model_based_odds``), the tie-aware
form built from conditionally unbiased per-interval pieces
(``var_model_based2_odds``) and the older sparse-table-style form
(``var_model_based3_odds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DiscreteSurvivalData
from .errors import (ConvergenceError, InputError, SingularMatrixError,
                     check_settings)
from .prob import (ProbInfluence, VarianceEstimate, _kept_rows, _mean_terms,
                   _sandwich, _solve_spd, fit_gamma, var_model_based,
                   var_model_based2, var_oldstyle, var_robust)

__all__ = [
    "OddsFit",
    "OddsInfluence",
    "OddsVarianceEstimate",
    "fit_beta",
    "score_beta",
    "jacobian_beta",
    "influence_odds",
    "var_robust_odds",
    "var_model_based_odds",
    "var_model_based2_odds",
    "var_model_based3_odds",
]


# ---------------------------------------------------------------------------
# terms over the risk-set aggregates (raw sums; the module-level wrappers
# divide by n): per-interval scores, d x d totals (Aggregates.contract)
# ---------------------------------------------------------------------------
#
# Risk sets with no events or only events contribute zero, so each term
# function is applied to the aggregates of the mixed risk sets only.
# Every weight ratio carries equally many exponential factors above and
# below the line, so the aggregates' shift cancels exactly.

def _with_mixed(terms):
    """``terms`` of the mixed risk sets."""
    return lambda a: terms(a.mixed)


def score_odds_terms(a):
    """Raw score terms ``(S0d * sum_i D_i X_i - T * sum_i (1-D_i) w_i X_i) / S0``."""
    return (a.s0d[:, None] * a.SD1 - a.T[:, None] * a.M1) / a.S0[:, None]


def jacobian_odds_terms(a):
    """Raw Jacobian total of ``sum_i (1-D_i) w_i (T X_i - SD1)(X_i - xbar)' / S0``.

    This is the sample analog of the population derivative of the score
    in ``-beta'``; it is generally non-symmetric under ties.
    """
    s0 = a.S0[:, None]
    return (a.contract(free=a.T / a.S0) - (a.SD1 / s0).T @ a.M1
            + (score_odds_terms(a) / s0).T @ a.S1)


def gb_terms(a):
    """Raw classical model-based total of ``(T S0d / S0^2) sum_i w_i (X_i - me)^{x2}``
    with ``me`` the event-free-weighted covariate mean."""
    c = a.T * a.s0d / (a.S0 * a.S0)
    cross = (c[:, None] * a.S1).T @ a.me
    return (a.contract(risk=c) - cross - cross.T
            + ((c * a.S0)[:, None] * a.me).T @ a.me)


def sigma_hat_terms(a):
    """Raw tie-aware total of the pieces ``n * sigma_hat_j``: the triple sum

        sum_i { (1-D_i) w_i sum_l D_l w_l (X_i - X_l)^{x2}
                + w_i [sum_l (1-D_l) w_l (X_i - X_l)] [sum_k D_k (X_i - X_k)]' } / S0^2

    expanded into the aggregates.  Generally non-symmetric.
    """
    c = 1.0 / (a.S0 * a.S0)
    M1 = c[:, None] * a.M1
    return (a.contract(free=c * a.Tw, events=c * a.s0d, risk=c * a.s0d * a.T)
            - M1.T @ a.SDw1 - (c[:, None] * a.SDw1).T @ a.M1
            - ((c * a.s0d)[:, None] * a.S1).T @ a.SD1
            - (a.T[:, None] * M1).T @ a.S1 + (a.S0[:, None] * M1).T @ a.SD1)


def sigma_tilde_terms(a):
    """Raw total of the sparse-table-style pieces ``n * sigma_tilde_j``: the triple sum

        sum_i (1-D_i) w_i [sum_l {(1-D_l) w_l + D_l w_i}(X_i - X_l)]
                          [sum_k D_k (X_i - X_k)]' / S0^2
      = { T (S0d M2 - M1 M1') + sum_i (1-D_i) w_i^2 (T X_i - SD1)^{x2} } / S0^2,

    symmetric in exact arithmetic.
    """
    c = a.T / (a.S0 * a.S0)
    cross = (c[:, None] * a.Qf1).T @ a.SD1
    return (a.contract(free=c * a.s0d, free_sq=c * a.T)
            - (c[:, None] * a.M1).T @ a.M1 - cross - cross.T
            + ((a.Qf0 / (a.S0 * a.S0))[:, None] * a.SD1).T @ a.SD1)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class OddsFit:
    """Converged hazard-odds fit.

    Attributes
    ----------
    beta : (d,) ndarray
        Log odds-ratio coefficients.
    beta0 : (J,) ndarray
        Baseline log odds ``log T_j - log S0d_j``; ``-inf`` for intervals
        without events, ``+inf`` for all-event risk sets.
    jacobian : (d, d) ndarray
        ``H_hat(beta_hat)``, the 1/n-scaled approximate Jacobian
        (generally non-symmetric under ties).
    score_norm : float
        Max-abs component of the 1/n-scaled score at ``beta``.
    iterations : int
    init : str
        Description of the starting point used by the solver.
    n : int
    warnings : list of str
    """

    beta: np.ndarray
    beta0: np.ndarray
    jacobian: np.ndarray
    score_norm: float
    iterations: int
    init: str
    n: int
    warnings: list = field(default_factory=list)


# the influence vectors ``g_i = sum_j (g_j1 + g_j2)(i)`` and the variance
# estimates share the hazard-probability model's layout
OddsInfluence = ProbInfluence
OddsVarianceEstimate = VarianceEstimate


# ---------------------------------------------------------------------------
# score / jacobian / fitting
# ---------------------------------------------------------------------------

def score_beta(data: DiscreteSurvivalData, beta) -> np.ndarray:
    """Pooled estimating function, scaled by 1/n."""
    return _mean_terms(data, beta, lambda a: score_odds_terms(a.mixed).sum(axis=0))


def jacobian_beta(data: DiscreteSurvivalData, beta) -> np.ndarray:
    """``H_hat(beta)``: 1/n-scaled approximate Jacobian of the score.

    This is the sample analog of the population derivative matrix, not
    necessarily the exact derivative of the sample score under ties.
    """
    return _mean_terms(data, beta, _with_mixed(jacobian_odds_terms))


def _baselines(a, J):
    out = np.full(J, -np.inf)
    out[a.k - 1] = np.where(a.T < a.m, np.log(a.T) - a.log_s0d, np.inf)
    return out


def baseline_log_odds(data: DiscreteSurvivalData, beta) -> np.ndarray:
    """Profiled baselines ``beta_0j = log T_j - log sum_i R[j,i](1-D[j,i]) e^{X_i' beta}``."""
    return _baselines(data.risk_sets.full(beta), data.n_intervals)


def _newton(rs, n, start, tol, max_iter):
    """Newton iterates from ``start``, backtracking on the residual
    2-norm.  Each candidate costs one full pass; the accepted one's gives
    the next step's score and Jacobian."""
    beta = np.asarray(start, dtype=float).copy()
    for it in range(max_iter + 1):
        a = rs.full(beta).mixed
        score = score_odds_terms(a).sum(axis=0)
        score_norm = float(np.max(np.abs(score))) / n
        if score_norm <= tol:
            return beta, score_norm, it
        if it and np.max(np.abs(beta)) > 50.0:
            raise ConvergenceError(
                "fit_beta: divergence (monotone likelihood suspected)",
                iterations=it, score_norm=score_norm)
        if it == max_iter:
            raise ConvergenceError(
                f"fit_beta: no convergence in {max_iter} iterations",
                iterations=max_iter, score_norm=score_norm)
        step = _solve_spd(jacobian_odds_terms(a), score, "fit_beta")
        merit = float(np.linalg.norm(score))
        t = 1.0
        while t >= 2.0 ** -40:
            cand = beta + t * step
            cand_score = score_odds_terms(rs.full(cand).mixed).sum(axis=0)
            if np.linalg.norm(cand_score) < merit:
                beta = cand
                break
            t /= 2.0
        else:
            raise ConvergenceError("fit_beta: line search stalled",
                                   iterations=it + 1, score_norm=score_norm)


def fit_beta(data: DiscreteSurvivalData, tol: float = 1e-9,
             max_iter: int = 50, init=None, multistart: bool = False) -> OddsFit:
    """Newton solve of the pooled odds estimating equation.

    Steps use the sample Jacobian analog ``H_hat`` with backtracking on
    the residual 2-norm; convergence requires the max-abs 1/n-scaled
    score component to fall below ``tol``.  The default start is the
    hazard-probability estimate (the two roots are typically close): the
    root of the last ``fit_gamma`` on this dataset at the same ``tol``
    and ``max_iter``, which the engine keeps, else a new ``fit_gamma``
    solve, else zero when that solve fails.  Pass ``init`` to override,
    or ``multistart=True`` to also solve from zero and warn if the roots
    disagree.

    Raises
    ------
    InputError
        No covariates, no events, or no risk set with both events and
        event-free members; ``tol`` not positive and finite, or
        ``max_iter`` below 1.
    SingularMatrixError
        Singular Jacobian away from a root.
    ConvergenceError
        Iteration budget exhausted, stalled line search, or divergence
        (``|beta|_inf > 50`` with non-vanishing score).
    """
    check_settings(tol, max_iter, "fit_beta: tol", "fit_beta: max_iter")
    if data.d < 1:
        raise InputError("no covariates to fit")
    rs = data.risk_sets
    if rs.event_intervals.size == 0:
        raise InputError("dataset contains no events")
    mixed = (rs.n_events > 0) & (rs.n_events < rs.n_at_risk)
    if not np.any(mixed):
        raise InputError(
            "every risk set with events is all-events; odds score is identically zero")
    n, d = data.n, data.d

    warnings = []
    if init is not None:
        starts = [("user-supplied", np.asarray(init, dtype=float))]
    else:
        gamma = rs.recall(("root", "prob"), (tol, max_iter))
        if gamma is None:
            try:
                gamma = fit_gamma(data, tol=tol, max_iter=max_iter).gamma
            except (ConvergenceError, SingularMatrixError):
                pass
        starts = [("breslow-peto", gamma) if gamma is not None
                  else ("zero (breslow-peto start unavailable)", np.zeros(d))]
    if multistart:
        starts.append(("zero", np.zeros(d)))

    solved = []
    failures = []
    for label, start in starts:
        try:
            solved.append((label, _newton(rs, n, start, tol, max_iter)))
        except (ConvergenceError, SingularMatrixError) as exc:
            if not multistart:
                raise
            failures.append((label, exc))
    if not solved:
        raise failures[0][1]
    warnings.extend(f"multistart: solve from '{label}' failed"
                    for label, _ in failures)
    label, (beta, score_norm, iterations) = solved[0]
    if multistart and len(solved) == 2:
        other = solved[1][1][0]
        if np.max(np.abs(beta - other)) > 1e-6 * (1.0 + np.max(np.abs(beta))):
            warnings.append(
                "multistart: roots from the two starting points differ; "
                "the estimating equation may have multiple solutions")

    if np.max(np.abs(beta)) > 10.0:
        warnings.append(
            "extreme coefficient (|beta| > 10): the score vanishes in the "
            "tail, so the equation may have no finite root (separation)")
    n_all_events = int(np.sum((rs.n_events > 0) & (rs.n_events == rs.n_at_risk)))
    if n_all_events:
        warnings.append(
            f"{n_all_events} risk set(s) consist entirely of events; "
            "their baseline log-odds are +inf and they contribute nothing to the fit")
    a = rs.full(beta)
    rs.hold("odds", beta)
    beta0 = _baselines(a, data.n_intervals)
    jac = jacobian_odds_terms(a.mixed) / n
    return OddsFit(beta=beta, beta0=beta0, jacobian=jac, score_norm=score_norm,
                   iterations=iterations, init=label, n=n, warnings=warnings)


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def _influence_rows_odds(rs, beta):
    """Rows ``g_i``: over the mixed risk sets up to ``y_i``, subject i's
    event-free terms ``-(w_i/S0)[T (X_i - me) - (Tw/S0d) tau]`` as one
    cumulative sum, plus its event term ``(S0d/S0)(X_i - me) - (w_i/S0) tau``.
    Read-only: the engine keeps them for the variance and the curve."""
    return _kept_rows(rs, "odds", beta, _odds_rows)


def _odds_rows(rs, beta):
    a = rs.full(beta)
    mixed = a.T < a.m
    me = a.me
    tau = score_odds_terms(a)
    # (Tw / S0d) tau without the division, which s0d's underflow would
    # turn into inf * 0
    free_B = a.T[:, None] * me + (a.Tw / a.S0)[:, None] * (
        a.SD1 - a.T[:, None] * me)
    share = np.where(mixed, a.s0d / a.S0, 0.0)

    def keep(v):
        return np.where(mixed[:, None], v, 0.0)

    log_w = np.where(mixed, -a.log_s0, -np.inf)
    rows = rs.subject_sums(beta, keep(free_B), a=np.where(mixed, -a.T, 0.0),
                           log_weight=log_w, span="before_event")
    rows += rs.subject_sums(beta, keep(-share[:, None] * me), a=share,
                            span="event")
    rows += rs.subject_sums(beta, keep(-tau), log_weight=log_w, span="event")
    return rows


def influence_odds(data: DiscreteSurvivalData, fit: OddsFit) -> OddsInfluence:
    """Per-subject influence sums ``g_i`` entering the robust sandwich."""
    return OddsInfluence(
        total=_influence_rows_odds(data.risk_sets, fit.beta).copy())


def var_robust_odds(data: DiscreteSurvivalData, fit: OddsFit) -> OddsVarianceEstimate:
    """Model-robust sandwich ``H^-1 G H^-T`` with empirical influence meat."""
    g = influence_odds(data, fit).total
    meat = (g.T @ g) / data.n
    return _sandwich(fit.jacobian, meat, data.n, "robust", transpose_right=True)


def var_model_based_odds(data: DiscreteSurvivalData, fit: OddsFit) -> OddsVarianceEstimate:
    """Classical model-based sandwich ``H^-1 G_b H^-1`` (valid without ties)."""
    meat = _mean_terms(data, fit.beta, _with_mixed(gb_terms))
    return _sandwich(fit.jacobian, meat, data.n, "model_based")


def var_model_based2_odds(data: DiscreteSurvivalData, fit: OddsFit) -> OddsVarianceEstimate:
    """Tie-aware model-based sandwich from conditionally unbiased pieces."""
    meat = _mean_terms(data, fit.beta, _with_mixed(sigma_hat_terms))
    meat = 0.5 * (meat + meat.T)
    return _sandwich(fit.jacobian, meat, data.n, "model_based2")


def var_model_based3_odds(data: DiscreteSurvivalData, fit: OddsFit) -> OddsVarianceEstimate:
    """Sparse-table-style model-based sandwich (three-way event products)."""
    meat = _mean_terms(data, fit.beta, _with_mixed(sigma_tilde_terms),
                       squares=1)
    return _sandwich(fit.jacobian, meat, data.n, "model_based3")


# the variance estimators by model and by the short kind names the CLI
# and the simulation harness use
VARIANCES = {
    "prob": {"old": var_oldstyle, "mb": var_model_based,
             "mb2": var_model_based2, "robust": var_robust},
    "odds": {"mb2": var_model_based2_odds, "mb3": var_model_based3_odds,
             "robust": var_robust_odds},
}
