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

Curves for arbitrary ``x0`` never refit: coefficients and influence
rows are location invariant, so the baselines are shifted by
``x0' coef`` and the weighted covariate means by ``-x0``.  Every
per-interval accumulator is a cumulative sum over the risk-set
aggregates of ``_risksets``; the robust variance sums squared
per-subject expansion values through the subjects still at risk, whose
values share one factor per epoch, so no ``(n, J)`` array is formed
unless ``keep_work`` asks for one.

The probability-model curve can exceed [0, 1]; non-positive survival
factors make the log-scale standard errors undefined and are reported
as NaN with a structured flag rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DiscreteSurvivalData
from .errors import InputError
from .odds import OddsFit, _influence_rows_odds, var_model_based2_odds
from .plogit import _expit
from .prob import (ProbFit, VarianceEstimate, _influence_rows, _solve_spd,
                   var_model_based2)

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
    if not np.all(np.isfinite(x0)):
        raise InputError("x0 must be finite")
    return x0


def _cumulative(k, keep, steps, J):
    """Running totals over intervals ``1..J`` of the per-event-interval
    ``steps`` (one per entry of ``k``) selected by ``keep``."""
    full = np.zeros((J,) + steps.shape[1:])
    full[k[keep] - 1] = steps[keep]
    return np.cumsum(full, axis=0)


def _held(k, keep, values, J):
    """``values`` at the selected event intervals, held over the
    intervals up to the next one and zero before the first."""
    kept = values[keep]
    if kept.size == 0:
        return np.zeros(J)
    at = np.searchsorted(k[keep], np.arange(1, J + 1), side="right") - 1
    return np.where(at >= 0, kept[np.maximum(at, 0)], 0.0)


def _quad(U, M):
    """``U_k' M U_k`` for every row ``U_k``."""
    return np.einsum("jd,de,je->j", U, M, U)


def _robust_parts(data, rs, coef, keep, log_nu, eps, share, W):
    """Sums behind the robust standard errors of a curve.

    Subject i's expansion value through interval k is
    ``phi_i(k) = sum_{j <= k} [nu_j e^{eta_ij} + eps_j D_ij]`` over the
    kept event intervals j at which i is at risk, where events take the
    ``nu`` term at their own interval only when ``share`` holds.
    Returns the aggregates, ``sum_i phi_i(k)^2`` and
    ``G_k = sum_i phi_i(k) W_i`` for ``k = 1..J``.

    Subjects whose last interval is before k contribute their final
    values; for those still at risk ``phi_i(k) = F_i + e^{eta_i} P(k)``
    within an epoch, with ``F_i`` the epochs before and ``P`` a running
    sum over the epoch, so their squares need only risk-set sums of
    ``F^2``, ``F w`` and ``w^2``.
    """
    n, J = data.n, data.n_intervals
    d = W.shape[0]
    k = rs.event_intervals
    ones = np.ones((k.size, 1))
    span = "all" if share else "before_event"
    spans = rs.epoch_spans()
    F = np.zeros((len(spans), n))
    for e, (lo, _) in enumerate(spans):
        F[e] = rs.subject_sums(coef, ones, log_weight=log_nu, span=span,
                               before=lo)[:, 0]
    final = (rs.subject_sums(coef, ones, log_weight=log_nu, span=span)
             + rs.subject_sums(coef, eps[:, None], span="event"))[:, 0]
    payload = np.concatenate(
        [np.broadcast_to(W.T, (len(spans), n, d)), F[:, :, None]], axis=2)
    a = rs.aggregates(coef, squares=0, payload=payload)
    _, free, events = rs.set_sums(
        np.concatenate([payload, (F * F)[:, :, None]], axis=2))

    scale = a.shift + a.offset
    upto = np.full(k.size, -np.inf)   # log P(k) within the epoch
    before = np.full(k.size, -np.inf)  # log P(k - 1) within the epoch
    for _, sel in spans:
        acc = np.logaddexp.accumulate(log_nu[sel])
        upto[sel] = acc
        before[sel] = np.r_[-np.inf, acc[:-1]]
    p_free = np.exp(scale + upto)
    p_event = p_free if share else np.exp(scale + before)
    at_risk = (free[:, d + 1] + 2.0 * p_free * a.Zf[:, d] + p_free ** 2 * a.Qf0
               + events[:, d + 1] + 2.0 * p_event * a.Ze[:, d]
               + p_event ** 2 * a.Qe0
               + 2.0 * eps * (events[:, d] + p_event * a.Tw) + a.T * eps ** 2)
    done = np.cumsum(np.bincount(data.y, weights=final ** 2, minlength=J + 1))
    sq = _held(k, keep, done[k - 1] + at_risk, J)

    weighted = a.Zf[:, :d] + (a.Ze[:, :d] if share else 0.0)
    G_steps = (eps[:, None] * events[:, :d]
               + np.exp(log_nu + scale)[:, None] * weighted)
    return a, sq, _cumulative(k, keep, G_steps, J)


def _expansion_values(data, rs, coef, keep, log_nu, eps, share):
    """The ``(n, J)`` array of ``phi_i(k)`` (see ``_robust_parts``)."""
    k = rs.event_intervals
    y, delta = data.y[:, None], data.delta[:, None]
    steps = np.zeros((data.n, data.n_intervals))
    for lo, hi, eta in rs.epoch_predictors(coef):
        sel = keep & (k >= lo) & (k <= hi)
        ks = k[sel]
        own = delta & (y == ks)
        takes_nu = (y >= ks) if share else (y >= ks) & ~own
        with np.errstate(over="ignore"):
            nu = np.exp(eta[:, None] + log_nu[sel])
        steps[:, ks - 1] = (np.where(takes_nu, nu, 0.0)
                            + np.where(own, eps[sel], 0.0))
    return np.cumsum(steps, axis=1)


def _small_risk_warning(rs):
    smallest = int(rs.n_at_risk.min()) if rs.n_at_risk.size else 0
    if smallest < 10:
        return [f"smallest risk set has {smallest} subject(s); "
                "large-sample standard errors may be unreliable"]
    return []


# per-interval flags by 2 * (survival <= 0) + (standard errors undefined)
_FLAGS = np.array(["", "se_undefined", "nonpositive_survival",
                   "nonpositive_survival;se_undefined"], dtype=object)


def _finish(model, hazards, survival, cumhaz, var_rob, var_mb, nan_from,
            warnings, work):
    J = hazards.size
    se_log_rob = np.sqrt(np.where(var_rob >= 0, var_rob, np.nan))
    se_log_mb = np.sqrt(np.where(var_mb >= 0, var_mb, np.nan))
    if nan_from is not None:
        se_log_rob[nan_from - 1:] = np.nan
        se_log_mb[nan_from - 1:] = np.nan
    undefined = np.zeros(J, dtype=int)
    if nan_from is not None:
        undefined[nan_from - 1:] = 1
    flags = _FLAGS[2 * (survival <= 0.0) + undefined].tolist()
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
    n, J = data.n, data.n_intervals
    gamma0 = fit.gamma0 + float(x0 @ fit.gamma)
    p0 = np.exp(gamma0)
    hazards = p0.copy()
    survival = np.cumprod(1.0 - p0)
    cumhaz = np.cumsum(p0)

    rs = data.risk_sets
    k = rs.event_intervals
    T = rs.n_events[k - 1].astype(float)
    pk = p0[k - 1]
    keep = pk < 1.0
    nan_from = int(k[~keep][0]) if not np.all(keep) else None
    h = _influence_rows(rs, fit.gamma)
    W = _solve_spd(fit.hessian, h.T, "prob_curve")  # (d, n)

    # phi_i gains -rho (D_i - phat_i), phat_i = e^{gamma0_j + eta_i}
    rho = n * np.where(keep, pk, 1.0) / (np.where(keep, 1.0 - pk, 1.0) * T)
    log_nu = np.where(keep, np.log(rho) + fit.gamma0[k - 1], -np.inf)
    eps = np.where(keep, -rho, 0.0)
    a, sq, G = _robust_parts(data, rs, fit.gamma, keep, log_nu, eps, True, W)

    xbar = a.S1 / a.S0[:, None] + a.center - x0
    odds = np.where(keep, pk, 0.0) / np.where(keep, 1.0 - pk, 1.0)
    U = _cumulative(k, keep, odds[:, None] * xbar, J)
    # sum_i phat_i (1 - phat_i) over the risk set
    log_g = fit.gamma0[k - 1]
    spread = (np.exp(log_g + a.log_s0)
              - np.exp(2.0 * (log_g + a.shift + a.offset) + np.log(a.Q0)))
    mb1 = _cumulative(k, keep, odds ** 2 / T ** 2 * spread, J)

    var_rob = (sq + 2.0 * np.sum(U * G, axis=1) + _quad(U, W @ W.T)) / n ** 2
    var_mb = mb1 + _quad(U, variance.covariance)

    warnings = list(_small_risk_warning(rs))
    if nan_from is not None:
        warnings.append(
            f"fitted baseline hazard >= 1 at interval {nan_from}; survival "
            "becomes non-positive and log-scale SEs are NaN from there on")
    work = None
    if keep_work:
        phi = _expansion_values(data, rs, fit.gamma, keep, log_nu, eps, True)
        work = SurvCurveWork(
            U=U, influence=phi + W.T @ U.T,
            U_alt=_cumulative(k, np.ones(k.size, dtype=bool),
                              pk[:, None] * xbar, J))
    return _finish("prob", hazards, survival, cumhaz, var_rob, var_mb,
                   nan_from, warnings, work)


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
    n, J = data.n, data.n_intervals
    p0 = np.exp(fit.gamma0 + float(x0 @ fit.gamma))
    est = np.exp(-np.cumsum(p0))
    if use_Binv:
        cov = _solve_spd(fit.hessian, np.eye(data.d), "prob_cumhaz_alt") / n
    else:
        cov = variance.covariance
    a = data.risk_sets.full(fit.gamma)
    pk = p0[a.k - 1]
    every = np.ones(a.k.size, dtype=bool)
    first = _cumulative(a.k, every, pk ** 2 / a.T, J)
    U = _cumulative(a.k, every,
                    pk[:, None] * (a.S1 / a.S0[:, None] + a.center - x0), J)
    return est, first + _quad(U, cov)


def hazard_variation_terms(data: DiscreteSurvivalData, fit: ProbFit) -> np.ndarray:
    """Per-interval comparison of the two hazard-variation ingredients.

    Column 0 is ``sum_i R[j,i] p_i (1 - p_i) / n`` (the product-limit
    form), column 1 is ``sum_i R[j,i] p_i / n`` (the cumulative-hazard
    form); they differ by ``sum_i R p_i^2 / n``, which grows with tied
    events.
    """
    a = data.risk_sets.full(fit.gamma, squares=0)
    g = fit.gamma0[a.k - 1]
    total = np.exp(g + a.log_s0)
    squares = np.exp(2.0 * (g + a.shift + a.offset) + np.log(a.Q0))
    out = np.zeros((data.n_intervals, 2))
    out[a.k - 1, 0] = (total - squares) / data.n
    out[a.k - 1, 1] = total / data.n
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
    n, J = data.n, data.n_intervals
    beta0 = fit.beta0 + float(x0 @ fit.beta)
    q = _expit(beta0)
    hazards = q.copy()
    survival = np.cumprod(1.0 - q)
    cumhaz = np.cumsum(q)

    rs = data.risk_sets
    k = rs.event_intervals
    T = rs.n_events[k - 1].astype(float)
    keep = T < rs.n_at_risk[k - 1]
    nan_from = int(k[~keep][0]) if not np.all(keep) else None
    g = _influence_rows_odds(rs, fit.beta)
    W = _solve_spd(fit.jacobian, g.T, "odds_curve")  # (d, n)

    # psi_i gains (n q/T) e^{beta0_j + eta_i} while event-free and
    # -n q/T at its event
    qk = q[k - 1]
    rho = n * qk / T
    with np.errstate(divide="ignore", invalid="ignore"):
        log_nu = np.where(keep, np.log(rho) + fit.beta0[k - 1], -np.inf)
    eps = np.where(keep, -rho, 0.0)
    a, sq, G = _robust_parts(data, rs, fit.beta, keep, log_nu, eps, False, W)

    with np.errstate(divide="ignore", invalid="ignore"):
        me = a.M1 / a.s0d[:, None] + a.center - x0
    Gamma = _cumulative(k, keep, qk[:, None] * me, J)
    # T * S0 / (S0d * den^2) in log space; den = T + S0d, both sums of
    # e^{(X - x0)' beta}
    shift = float(x0 @ fit.beta)
    log_T = np.log(T)
    log_s0d = a.log_s0d - shift
    with np.errstate(invalid="ignore"):
        mb1_steps = np.exp(log_T + (a.log_s0 - shift) - log_s0d
                           - 2.0 * np.logaddexp(log_T, log_s0d))
    mb1 = _cumulative(k, keep, mb1_steps, J)

    var_rob = (sq + 2.0 * np.sum(Gamma * G, axis=1)
               + _quad(Gamma, W @ W.T)) / n ** 2
    var_mb = mb1 + _quad(Gamma, variance.covariance)

    warnings = list(_small_risk_warning(rs))
    if nan_from is not None:
        warnings.append(
            f"all subjects at risk in interval {nan_from} have events; the "
            "fitted hazard is 1, survival is 0 and log-scale SEs are NaN "
            "from there on")
    work = None
    if keep_work:
        psi = _expansion_values(data, rs, fit.beta, keep, log_nu, eps, False)
        work = SurvCurveWork(U=Gamma, influence=psi + W.T @ Gamma.T)
    return _finish("odds", hazards, survival, cumhaz, var_rob, var_mb,
                   nan_from, warnings, work)
