"""The prefix-sum risk-set engine against the literal per-interval loop.

Every aggregate, influence row and curve accumulator of the library is
compared with the per-interval kernels of ``_oracles`` summed over the
literal risk sets, on random designs with ties, all-event intervals,
intervals without subjects, ``y = 0`` subjects, step terms, and a
linear-predictor spread beyond what one global exponential shift can
hold.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as o
from dsurv import (ConvergenceError, DiscreteSurvivalData, OddsFit, ProbFit, Static,
                   SubjectRecord, TimeGrid, VarianceEstimate,
                   baseline_log_hazards, baseline_log_odds, expand_step_terms,
                   fit_beta, fit_gamma, hessian_gamma, influence_odds,
                   influence_prob, jacobian_beta, odds_curve, prob_curve,
                   score_beta, score_gamma, var_model_based,
                   var_model_based2, var_model_based2_odds,
                   var_model_based3_odds, var_model_based_odds, var_robust,
                   var_robust_odds)
from dsurv._risksets import RiskSets
from dsurv.io import SubjectTable, build_data
from dsurv.prob import _objective

_RTOL = 1e-10


def _close(got, want, scale=0.0):
    """Equal within ``_RTOL`` relative to the larger of ``scale`` and the
    largest entry of ``want``: entries that cancel to near zero are held
    to the rounding of the terms they cancel from, not to their own size."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    fin = np.isfinite(want)
    np.testing.assert_array_equal(got[~fin], want[~fin])
    scale = max(scale, float(np.max(np.abs(want[fin]), initial=0.0)), 1e-300)
    np.testing.assert_allclose(got[fin], want[fin], rtol=_RTOL,
                               atol=_RTOL * scale)


def _size(data, coef):
    """Largest covariate and linear-predictor magnitude of a design."""
    X = np.stack([data.covariates_at(j) for j in range(1, data.n_intervals + 1)])
    return max(1.0, float(np.max(np.abs(X)))), float(np.max(np.abs(X @ coef)))


@st.composite
def designs(draw):
    """(data, coef, extreme): a random design and coefficient vector.

    ``extreme`` designs put one subject's linear predictor 1,400 or more
    above everyone else's and let that subject leave the risk sets
    first, in interval 1.
    """
    J = draw(st.integers(1, 6))
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    y = np.array(draw(st.lists(st.integers(0, J), min_size=n, max_size=n)))
    delta = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    delta &= y > 0
    if draw(st.booleans()):
        # an all-event interval: everyone still at risk at the last
        # occupied level has an event there
        top = y.max()
        delta |= (y == top) & (top > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, d))
    coef = rng.normal(scale=0.8, size=d)
    extreme = draw(st.booleans())
    if extreme:
        y[0] = 1
        X[:, 0] = rng.uniform(-4.0, -3.0, n)
        X[0, 0] = 4.0
        coef[0] = 200.0
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(n)]
    data = DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)
    if J > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, J - 1)) + 0.5
        data = expand_step_terms(data, d - 1, [cut])
        coef = np.r_[coef, rng.normal(scale=0.5)]
    return data, coef, extreme


# the same examples on every run, so the suite gives the same verdict
# each time it runs
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _prob_fit(data, gamma, hessian):
    return ProbFit(gamma=gamma, gamma0=baseline_log_hazards(data, gamma),
                   hessian=hessian, score_norm=0.0, iterations=0, n=data.n)


def _odds_fit(data, beta, jacobian):
    return OddsFit(beta=beta, beta0=baseline_log_odds(data, beta),
                   jacobian=jacobian, score_norm=0.0, iterations=0, init="",
                   n=data.n)


def _meat(estimator, data, fit):
    """The meat of a sandwich estimator: with an identity bread the
    estimate is its symmetric part."""
    return estimator(data, fit).matrix


@_SETTINGS
@given(designs())
def test_prob_aggregates_and_influence_match_the_loop(case):
    data, gamma, _ = case
    n, d = data.n, data.d
    x, eta = _size(data, gamma)
    loop = o.LoopRiskSets(data)
    score, hess, ab, vhat, objective = loop.sums(
        gamma, o.interval_score, o.interval_hessian, o.interval_ab,
        o.interval_vhat, o.objective_term)
    _close(score_gamma(data, gamma), score / n, x)
    _close(hessian_gamma(data, gamma), hess / n, x * x)
    _close(_objective(RiskSets(data), gamma), objective, n * (1.0 + eta))
    fit = _prob_fit(data, gamma, np.eye(d))
    _close(_meat(var_model_based, data, fit), 0.5 * (ab + ab.T) / n, x * x)
    _close(_meat(var_model_based2, data, fit), 0.5 * (vhat + vhat.T) / n,
           x * x)
    _close(influence_prob(data, fit).total,
           loop.scatter(gamma, o.interval_influence), x)
    _close(fit.gamma0, o.baseline_log_hazards_loop(loop, gamma))
    g = fit.gamma0 + 0.3  # pushes some fitted hazards past 1
    assert (RiskSets(data).count_positive(gamma, g[loop.event_intervals - 1])
            == o.hazards_over_one_loop(loop, gamma, g))


@_SETTINGS
@given(designs())
def test_odds_aggregates_and_influence_match_the_loop(case):
    data, beta, _ = case
    n, d = data.n, data.d
    x, _ = _size(data, beta)
    loop = o.LoopRiskSets(data)
    score, jac, gb, sigma_hat, sigma_tilde = loop.sums(
        beta, o.interval_score_odds, o.interval_jacobian_odds, o.interval_gb,
        o.interval_sigma_hat, o.interval_sigma_tilde)
    _close(score_beta(data, beta), score / n, x)
    _close(jacobian_beta(data, beta), jac / n, x * x)
    fit = _odds_fit(data, beta, np.eye(d))
    _close(_meat(var_model_based_odds, data, fit), 0.5 * (gb + gb.T) / n,
           x * x)
    _close(_meat(var_model_based2_odds, data, fit),
           0.5 * (sigma_hat + sigma_hat.T) / n, x * x)
    _close(_meat(var_model_based3_odds, data, fit),
           0.5 * (sigma_tilde + sigma_tilde.T) / n, x * x)
    _close(influence_odds(data, fit).total,
           loop.scatter(beta, o.interval_influence_odds), x)
    _close(fit.beta0, o.baseline_log_odds_loop(loop, beta))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_odds_meats_and_influence_stay_finite_when_event_free_sums_underflow():
    # subject 0 sits 1,400 or more above everyone and has an event in
    # interval 1: at that risk set's scale its event-free sum underflows
    rng = np.random.default_rng(9)
    n, J = 16, 3
    y = rng.integers(1, J + 1, n)
    delta = rng.random(n) < 0.6
    y[0], delta[0] = 1, True
    X = np.column_stack([rng.uniform(-4.0, -3.0, n), rng.normal(size=n)])
    X[0, 0] = 4.0
    beta = np.array([200.0, 0.4])
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(n)]
    data = DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)
    loop = o.LoopRiskSets(data)
    gb, sigma_hat, sigma_tilde = loop.sums(
        beta, o.interval_gb, o.interval_sigma_hat, o.interval_sigma_tilde)
    fit = _odds_fit(data, beta, np.eye(2))
    x, _ = _size(data, beta)
    for estimator, want in ((var_model_based_odds, gb),
                            (var_model_based2_odds, sigma_hat),
                            (var_model_based3_odds, sigma_tilde)):
        got = _meat(estimator, data, fit)
        assert np.all(np.isfinite(got))
        _close(got, 0.5 * (want + want.T) / n, x * x)
    rows = influence_odds(data, fit).total
    assert np.all(np.isfinite(rows))
    _close(rows, loop.scatter(beta, o.interval_influence_odds), x)


def _bread(rng, d):
    A = rng.normal(size=(d, d))
    return np.eye(d) * d + 0.3 * A


@_SETTINGS
@given(designs(), st.integers(0, 2 ** 32 - 1))
def test_curve_accumulators_match_the_loop(case, seed):
    data, coef, extreme = case
    if extreme:
        # the per-interval curve exponentiates the unshifted linear
        # predictor, which overflows here; its aggregates are checked above
        return
    n, d = data.n, data.d
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=d)
    bread = _bread(rng, d)
    cov = VarianceEstimate(kind="test", matrix=np.eye(d) + 0.1, n=n)
    loop = o.LoopRiskSets(data)

    # U_k sums weighted covariate means less x0: its rounding scales
    # with the weights times the covariates' size
    size = max(_size(data, coef)[0], float(np.max(np.abs(x0))))
    T, m = loop.n_events, loop.n_at_risk

    fit = _prob_fit(data, coef, bread + bread.T)
    curve = prob_curve(data, fit, x0=x0, variance=cov, keep_work=True)
    h = loop.scatter(coef, o.interval_influence)
    U, U_alt, vec, var_rob, var_mb, phi_size = o.prob_curve_loop(
        data, coef, fit.gamma0, fit.hessian, cov.covariance, h, x0)
    p0 = np.exp(fit.gamma0 + x0 @ coef)
    kept = (T > 0) & (p0 < 1.0)
    _check_curve(curve, U, vec, var_rob, var_mb, fit.hessian, h,
                 size * np.sum(p0[kept] / (1.0 - p0[kept])), phi_size)
    _close(curve.work.U_alt, U_alt, size * np.sum(p0[T > 0]))

    fit = _odds_fit(data, coef, bread)
    curve = odds_curve(data, fit, x0=x0, variance=cov, keep_work=True)
    g = loop.scatter(coef, o.interval_influence_odds)
    G, vec, var_rob, var_mb, psi_size = o.odds_curve_loop(
        data, coef, fit.beta0, fit.jacobian, cov.covariance, g, x0)
    kept = (T > 0) & (T < m)
    q = 1.0 / (1.0 + np.exp(-(fit.beta0[kept] + x0 @ coef)))
    _check_curve(curve, G, vec, var_rob, var_mb, fit.jacobian, g,
                 size * np.sum(q), psi_size)


def _check_curve(curve, U, vec, var_rob, var_mb, bread, rows, u_scale,
                 phi_size):
    """``vec = phi + W'U`` per subject and interval; ``phi_size`` sums
    the absolute increments of ``phi``, the scale of its rounding."""
    n = rows.shape[0]
    W = np.linalg.solve(bread, rows.T)
    WU = W.T @ U.T
    _close(curve.work.U, U, u_scale)
    _close(curve.work.influence, vec,
           np.max(phi_size) + np.max(np.abs(W)) * u_scale)
    defined = np.array(["se_undefined" not in f for f in curve.flags])
    # the robust variance sums squares of vec; its rounding scales with
    # the squares of the two parts
    parts = (np.sum(phi_size ** 2, axis=0) + np.sum(WU ** 2, axis=0)) / n ** 2
    _close_variance(curve.se_log_surv_robust[defined], var_rob[defined],
                    scale=float(np.max(parts[defined], initial=0.0)))
    _close_variance(curve.se_log_surv_model_based[defined], var_mb[defined],
                    scale=u_scale ** 2)


def _close_variance(se, var, scale=0.0):
    """``se ** 2`` equals ``var`` where that is nonnegative and ``se`` is
    NaN where it is negative (up to rounding around zero)."""
    _close(np.where(np.isnan(se), 0.0, se * se), np.maximum(var, 0.0),
           max(scale, float(np.max(np.abs(var), initial=0.0))))
def test_a_lone_last_subject_has_hazard_one_not_above():
    # one interval per distinct time: the last risk set holds one subject
    # with an event, whose profiled hazard is 1 exactly
    rng = np.random.default_rng(5)
    n = 60
    X = rng.normal(size=(n, 3))
    subs = [SubjectRecord(str(i), i + 1, bool(i % 3 or i == n - 1),
                          Static(X[i])) for i in range(n)]
    data = DiscreteSurvivalData(TimeGrid(np.arange(1.0, n + 1)), subs)
    loop = o.LoopRiskSets(data)
    for gamma in rng.normal(scale=0.7, size=(20, 3)):
        g = baseline_log_hazards(data, gamma)[loop.event_intervals - 1]
        assert RiskSets(data).count_positive(gamma, g) == o.hazards_over_one_loop(
            loop, gamma, o.baseline_log_hazards_loop(loop, gamma))
    assert not any("exceeds 1" in w for w in fit_gamma(data).warnings)


def test_engine_interval_is_the_literal_risk_set():
    rng = np.random.default_rng(11)
    J, n = 5, 30
    y = rng.integers(0, J + 1, n)
    delta = (rng.random(n) < 0.6) & (y > 0)
    subs = [SubjectRecord(str(i), int(y[i]), bool(delta[i]),
                          Static(rng.normal(size=2))) for i in range(n)]
    data = expand_step_terms(
        DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs), 1, [2.5])
    rs = RiskSets(data)
    coef = np.array([0.3, -0.2, 0.5])
    for j in range(1, J + 1):
        idx, X, D, eta = rs.interval(j, coef)
        members = o.risk_sets(data.y, J)[j - 1]
        np.testing.assert_array_equal(np.sort(idx), members)
        np.testing.assert_array_equal(X, data.covariates_at(j)[idx])
        np.testing.assert_array_equal(D, o.event_mask(data.y, data.delta, idx, j))
        np.testing.assert_allclose(eta, X @ coef, rtol=0, atol=1e-15)


def test_step_terms_are_summed_once_per_epoch():
    rng = np.random.default_rng(2)
    J, n = 40, 60
    subs = [SubjectRecord(str(i), int(rng.integers(1, J + 1)), True,
                          Static(rng.normal(size=1))) for i in range(n)]
    data = expand_step_terms(
        DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs), 0,
        [10.5, 25.5])
    np.testing.assert_array_equal(data.covariate_changes(), [11, 26])
    assert [lo for lo, _ in RiskSets(data).epoch_spans()] == [1, 11, 26]


@pytest.mark.parametrize("steps", [None, [0.5]], ids=["static", "step"])
def test_original_scale_analysis_memory_is_linear_in_n(steps):
    # one interval per distinct time at n = 2e4: the per-interval form
    # needs memory quadratic in n (several GB here), and so would step
    # terms held as one covariate row per subject and interval
    n = 20_000
    rng = np.random.default_rng(np.random.SeedSequence([7, n]))
    X = np.column_stack([rng.integers(0, 2, n).astype(float),
                         rng.standard_normal((n, 3))])
    t_event = rng.exponential(np.exp(-X @ np.array([0.5, -0.3, 0.2, 0.1])))
    t_cens = rng.uniform(0.0, 3.0, n)
    table = SubjectTable(ids=[str(i + 1) for i in range(n)],
                         time=np.minimum(t_event, t_cens),
                         status=t_event <= t_cens, covariates=X,
                         names=["treat", "z1", "z2", "z3"])
    if steps is None:
        data = build_data(table)
        assert data.n_intervals > 0.99 * n
    tracemalloc.start()
    try:
        if steps is not None:
            data = expand_step_terms(build_data(table), 0, steps)
            assert data.n_intervals > 0.99 * n
        pfit = fit_gamma(data)
        fit_beta(data, init=pfit.gamma)
        mb2 = var_model_based2(data, pfit)
        var_robust(data, pfit)
        prob_curve(data, pfit, x0=np.ones(data.d), variance=mb2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


_EXTREME = {"prob": (fit_gamma, "gamma", var_model_based2, var_robust),
            "odds": (fit_beta, "beta", var_model_based2_odds, var_robust_odds)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("design", ["high", "low", "step"])
@pytest.mark.parametrize("scale", [1e2, 1e3])
@pytest.mark.parametrize("model", ["prob", "odds"])
def test_extreme_linear_predictors_give_a_finite_fit_or_a_clean_error(
        model, scale, design, monkeypatch):
    # separation along the first covariate: the subject with its largest
    # ("high", "step") or smallest ("low") value among those at risk has
    # the one event of each interval, so the iterates' linear predictors
    # spread over thousands inside one risk set
    rng = np.random.default_rng(4)
    n, J = 60, 8
    X = rng.normal(size=(n, 2)) * scale
    first = np.argsort(X[:, 0] if design == "low" else -X[:, 0])[:J]
    y = np.full(n, J)
    y[first] = np.arange(1, J + 1)
    data = DiscreteSurvivalData.from_arrays(TimeGrid(np.arange(1.0, J + 1)), y,
                                            np.isin(np.arange(n), first), X)
    if design == "step":
        data = expand_step_terms(data, 0, [J / 2 + 0.5])
    coefs = []  # every coefficient vector the fit evaluates
    aggregates = RiskSets.aggregates

    def recorded(self, coef, *args, **kwargs):
        coefs.append(np.array(coef))
        return aggregates(self, coef, *args, **kwargs)

    monkeypatch.setattr(RiskSets, "aggregates", recorded)
    fit_fn, name, mb2, robust = _EXTREME[model]
    try:
        fit = fit_fn(data)
    except ConvergenceError as exc:
        fit = None
        assert np.isfinite(exc.score_norm)
    spread = max(np.ptp(data.covariates_at(j)[data.y >= j] @ coef)
                 for coef in coefs for j in range(1, J + 1))
    assert spread > 745.0
    if fit is None:
        return
    assert np.all(np.isfinite(getattr(fit, name)))
    for variance in (mb2, robust):
        assert np.all(np.isfinite(variance(data, fit).covariance))
