"""Survival curves with delta-method standard errors.

For a covariate profile ``x0``, both regression models yield
per-interval hazard estimates (``p_j(x0) = exp(gamma_0j + x0' gamma)``
or ``q_j(x0) = expit(beta_0j + x0' beta)``) and product-limit survival
curves ``prod_{j<=k} (1 - hazard_j)``.  This module computes those
curves together with standard errors for ``log`` survival obtained from
a first-order expansion: a model-robust version averaging squared
per-subject influence values, and a model-based version combining a
hazard-variation term with a quadratic form in the coefficient
variance.  ``SE(surv) = surv * SE(log surv)`` throughout.

Curves for arbitrary ``x0`` never refit: coefficients are location
invariant, so the covariates are recentered at ``x0`` and the baselines
shifted by ``x0' coef``.

The probability-model curve can exceed [0, 1]; non-positive survival
factors make the log-scale standard errors undefined and are reported
as NaN with a structured flag rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._risksets import RiskSets
from .data import DiscreteSurvivalData
from .errors import InputError
from .odds import OddsFit, influence_odds, var_model_based2_odds
from .plogit import _expit
from .prob import (ProbFit, VarianceEstimate, influence_prob,
                   var_model_based2, _solve_spd, _weights)

__all__ = [
    "SurvivalCurve",
    "SurvCurveWork",
    "prob_curve",
    "odds_curve",
    "prob_cumhaz_alt",
    "hazard_variation_terms",
]


@dataclass
class SurvCurveWork:
    """Per-interval accumulators and per-subject influence values
    behind a curve's standard errors.

    ``U`` holds the cumulative coefficient-sensitivity vectors (row
    ``k-1`` is ``U_k`` for the probability model, ``Gamma_k`` for the
    odds model), ``U_alt`` the cumulative-hazard variant (probability
    model only), and ``influence`` column ``k-1`` the per-subject
    expansion values of ``log`` survival through interval ``k``.
    """

    U: np.ndarray
    influence: np.ndarray
    U_alt: np.ndarray | None = None


@dataclass
class SurvivalCurve:
    """Hazard, survival and cumulative-hazard estimates at a profile.

    All arrays have one entry per interval ``k = 1..J``.  ``flags``
    holds per-interval markers (empty string when clean), currently
    ``nonpositive_survival`` and ``se_undefined``.
    """

    model: str
    hazards: np.ndarray
    survival: np.ndarray
    cumhaz: np.ndarray
    se_log_surv_robust: np.ndarray
    se_log_surv_model_based: np.ndarray
    se_surv_robust: np.ndarray
    se_surv_model_based: np.ndarray
    flags: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    work: SurvCurveWork | None = None


def _check_profile(data, fit, x0):
    if fit.n != data.n:
        raise InputError("fit and data disagree on the number of subjects")
    if x0 is None:
        return np.zeros(data.d)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (data.d,):
        raise InputError(f"x0 must be a length-{data.d} vector")
    return x0


def _recenter(data, x0):
    return data.recentered(x0) if np.any(x0 != 0.0) else data


def _small_risk_warning(rs):
    smallest = int(rs.n_at_risk.min()) if rs.n_at_risk.size else 0
    if smallest < 10:
        return [f"smallest risk set has {smallest} subject(s); "
                "large-sample standard errors may be unreliable"]
    return []


def _finish(model, hazards, survival, cumhaz, var_rob, var_mb, nan_from,
            warnings, work):
    J = hazards.size
    se_log_rob = np.sqrt(np.where(var_rob >= 0, var_rob, np.nan))
    se_log_mb = np.sqrt(np.where(var_mb >= 0, var_mb, np.nan))
    if nan_from is not None:
        se_log_rob[nan_from - 1:] = np.nan
        se_log_mb[nan_from - 1:] = np.nan
    flags = []
    for k in range(1, J + 1):
        marks = []
        if survival[k - 1] <= 0.0:
            marks.append("nonpositive_survival")
        if nan_from is not None and k >= nan_from:
            marks.append("se_undefined")
        flags.append(";".join(marks))
    return SurvivalCurve(
        model=model, hazards=hazards, survival=survival, cumhaz=cumhaz,
        se_log_surv_robust=se_log_rob, se_log_surv_model_based=se_log_mb,
        se_surv_robust=survival * se_log_rob,
        se_surv_model_based=survival * se_log_mb,
        flags=flags, warnings=warnings, work=work)


def prob_curve(data: DiscreteSurvivalData, fit: ProbFit, x0=None,
               variance: VarianceEstimate | None = None,
               keep_work: bool = False) -> SurvivalCurve:
    """Product-limit curve ``prod (1 - exp(gamma_0j + x0' gamma))`` with
    log-scale standard errors.

    The robust variance averages squared per-subject expansion values
    built from the martingale-type residuals and the coefficient
    influence; the model-based variance adds the hazard-variation term
    to ``U_k' V U_k`` with ``V`` from ``variance`` (defaults to the
    tie-aware model-based coefficient variance).
    """
    x0 = _check_profile(data, fit, x0)
    if variance is None:
        variance = var_model_based2(data, fit)
    dc = _recenter(data, x0)
    n, J = data.n, data.n_intervals
    gamma0 = fit.gamma0 + float(x0 @ fit.gamma)
    p0 = np.exp(gamma0)
    hazards = p0.copy()
    survival = np.cumprod(1.0 - p0)
    cumhaz = np.cumsum(p0)

    rs = RiskSets(dc)
    h = influence_prob(dc, fit).total
    W = _solve_spd(fit.hessian, h.T, "prob_curve")  # (d, n)
    cov = variance.covariance

    phi1 = np.zeros(n)
    U = np.zeros(data.d)
    mb1 = 0.0
    var_rob = np.empty(J)
    var_mb = np.empty(J)
    Urows = np.zeros((J, data.d)) if keep_work else None
    infl = np.zeros((n, J)) if keep_work else None
    nan_from = None
    for j in range(1, J + 1):
        T = int(rs.n_events[j - 1])
        if T > 0:
            p0j = p0[j - 1]
            one_m = 1.0 - p0j
            if one_m <= 0.0:
                if nan_from is None:
                    nan_from = j
            else:
                idx, X, D, eta = rs.interval(j, fit.gamma)
                phat = p0j * np.exp(eta)
                phi1[idx] += -(n * p0j / (one_m * T)) * (D - phat)
                w, s0, _ = _weights(eta)
                xbar = (w @ X) / s0
                U = U + (p0j / one_m) * xbar
                mb1 += (p0j ** 2 / (one_m ** 2 * T ** 2)) * float(
                    np.sum(phat * (1.0 - phat)))
        vec = phi1 + W.T @ U
        var_rob[j - 1] = float(vec @ vec) / n ** 2
        var_mb[j - 1] = mb1 + float(U @ cov @ U)
        if keep_work:
            Urows[j - 1] = U
            infl[:, j - 1] = vec

    warnings = list(_small_risk_warning(rs))
    if nan_from is not None:
        warnings.append(
            f"fitted baseline hazard >= 1 at interval {nan_from}; survival "
            "becomes non-positive and log-scale SEs are NaN from there on")
    work = None
    if keep_work:
        work = SurvCurveWork(U=Urows, influence=infl, U_alt=_ualt_rows(rs, p0, fit))
    return _finish("prob", hazards, survival, cumhaz, var_rob, var_mb,
                   nan_from, warnings, work)


def _ualt_rows(rs, p0, fit):
    J = p0.size
    rows = np.zeros((J, fit.gamma.size))
    U = np.zeros(fit.gamma.size)
    for j in range(1, J + 1):
        if rs.n_events[j - 1] > 0:
            _, X, _, eta = rs.interval(j, fit.gamma)
            w, s0, _ = _weights(eta)
            U = U + p0[j - 1] * ((w @ X) / s0)
        rows[j - 1] = U
    return rows


def prob_cumhaz_alt(data: DiscreteSurvivalData, fit: ProbFit, x0=None,
                    use_Binv: bool = True,
                    variance: VarianceEstimate | None = None):
    """Exponentiated-cumulative-hazard curve ``exp(-sum_j exp(gamma_0j + x0' gamma))``
    with the conventional variance of its log.

    This reproduces, for comparison only, the commonly used variant in
    which the hazard-variation term keeps ``p`` in place of ``p(1-p)``
    and the quadratic form uses plain ``B^-1`` (``use_Binv=True``) or a
    caller-supplied coefficient variance.

    Returns
    -------
    (estimate, variance) : pair of (J,) ndarrays
        Survival-style estimates and the variance of their log (equal
        to the variance of the cumulative hazard itself).
    """
    x0 = _check_profile(data, fit, x0)
    if not use_Binv and variance is None:
        raise InputError("supply a coefficient variance or set use_Binv=True")
    dc = _recenter(data, x0)
    n, J = data.n, data.n_intervals
    p0 = np.exp(fit.gamma0 + float(x0 @ fit.gamma))
    est = np.exp(-np.cumsum(p0))
    if use_Binv:
        cov = _solve_spd(fit.hessian, np.eye(data.d), "prob_cumhaz_alt") / n
    else:
        cov = variance.covariance
    rs = RiskSets(dc)
    var = np.empty(J)
    U = np.zeros(data.d)
    first = 0.0
    for j in range(1, J + 1):
        T = int(rs.n_events[j - 1])
        if T > 0:
            _, X, _, eta = rs.interval(j, fit.gamma)
            w, s0, _ = _weights(eta)
            first += p0[j - 1] ** 2 / T
            U = U + p0[j - 1] * ((w @ X) / s0)
        var[j - 1] = first + float(U @ cov @ U)
    return est, var


def hazard_variation_terms(data: DiscreteSurvivalData, fit: ProbFit) -> np.ndarray:
    """Per-interval comparison of the two hazard-variation ingredients.

    Column 0 is ``sum_i R[j,i] p_i (1 - p_i) / n`` (the product-limit
    form), column 1 is ``sum_i R[j,i] p_i / n`` (the cumulative-hazard
    form); they differ by ``sum_i R p_i^2 / n``, which grows with tied
    events.
    """
    rs = RiskSets(data)
    p0 = np.exp(fit.gamma0)
    out = np.zeros((data.n_intervals, 2))
    for j in rs.event_intervals:
        _, _, _, eta = rs.interval(j, fit.gamma)
        phat = p0[j - 1] * np.exp(eta)
        out[j - 1, 0] = float(np.sum(phat * (1.0 - phat))) / data.n
        out[j - 1, 1] = float(np.sum(phat)) / data.n
    return out


def odds_curve(data: DiscreteSurvivalData, fit: OddsFit, x0=None,
               variance: VarianceEstimate | None = None,
               keep_work: bool = False) -> SurvivalCurve:
    """Product-limit curve ``prod (1 - expit(beta_0j + x0' beta))`` with
    log-scale standard errors.

    Hazards and survival are automatically inside [0, 1].  Risk sets
    consisting entirely of events put the hazard at 1, after which the
    survival estimate is 0 and log-scale SEs are NaN.
    """
    x0 = _check_profile(data, fit, x0)
    if variance is None:
        variance = var_model_based2_odds(data, fit)
    dc = _recenter(data, x0)
    n, J = data.n, data.n_intervals
    beta0 = fit.beta0 + float(x0 @ fit.beta)
    q = _expit(beta0)
    hazards = q.copy()
    survival = np.cumprod(1.0 - q)
    cumhaz = np.cumsum(q)

    rs = RiskSets(dc)
    g = influence_odds(dc, fit).total
    W = _solve_spd(fit.jacobian, g.T, "odds_curve")  # (d, n)
    cov = variance.covariance

    psi1 = np.zeros(n)
    Gamma = np.zeros(data.d)
    mb1 = 0.0
    var_rob = np.empty(J)
    var_mb = np.empty(J)
    Grows = np.zeros((J, data.d)) if keep_work else None
    infl = np.zeros((n, J)) if keep_work else None
    nan_from = None
    for j in range(1, J + 1):
        T = int(rs.n_events[j - 1])
        m = int(rs.n_at_risk[j - 1])
        if T > 0 and T == m:
            if nan_from is None:
                nan_from = j
        elif T > 0:
            qj = q[j - 1]
            idx, X, D, eta = rs.interval(j, fit.beta)
            psi1[idx] += -(n * qj / ((1.0 - qj) * T)) * (
                D * (1.0 - qj) - (~D) * np.exp(eta) * qj)
            w, _, c = _weights(eta)
            wn = w * ~D
            s0d = float(wn.sum())
            me = (wn @ X) / s0d
            Gamma = Gamma + qj * me
            # T * S0 / (S0d * den^2) in log space; den = T + S0d (true scale)
            log_s0 = np.log(float(w.sum())) + c
            log_s0d = np.log(s0d) + c
            log_den = np.logaddexp(np.log(T), log_s0d)
            mb1 += float(np.exp(np.log(T) + log_s0 - log_s0d - 2.0 * log_den))
        vec = psi1 + W.T @ Gamma
        var_rob[j - 1] = float(vec @ vec) / n ** 2
        var_mb[j - 1] = mb1 + float(Gamma @ cov @ Gamma)
        if keep_work:
            Grows[j - 1] = Gamma
            infl[:, j - 1] = vec

    warnings = list(_small_risk_warning(rs))
    if nan_from is not None:
        warnings.append(
            f"all subjects at risk in interval {nan_from} have events; the "
            "fitted hazard is 1, survival is 0 and log-scale SEs are NaN "
            "from there on")
    work = SurvCurveWork(U=Grows, influence=infl) if keep_work else None
    return _finish("odds", hazards, survival, cumhaz, var_rob, var_mb,
                   nan_from, warnings, work)
