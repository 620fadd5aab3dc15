from __future__ import annotations

import numpy as np
import pytest

import _oracles as o
from dsurv import (CensorOption, ConvergenceError, DiscreteSurvivalData,
                   InputError, Static, SubjectRecord, TimeGrid,
                   baseline_log_hazards, discretize, fit_gamma, hessian_gamma,
                   influence_prob, score_gamma, var_model_based,
                   var_model_based2, var_oldstyle, var_robust)
from _oracles import (interval_ab, interval_hessian, interval_influence,
                      interval_score, interval_vhat)


def _make(y, delta, X, J):
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(len(y))]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)


def _random_risk_set(rng, m, d):
    X = rng.normal(size=(m, d))
    D = rng.random(m) < 0.4
    eta = rng.normal(scale=0.7, size=m)
    return X, D, eta


def _random_data(rng, n=40, d=2, J=4):
    while True:
        y = rng.integers(1, J + 1, size=n)
        delta = rng.random(n) < 0.7
        if np.any(delta):
            break
    X = rng.normal(size=(n, d))
    return _make(y, delta, X, J), y, delta, X


# fixture A: one interval, ten subjects per group, 4 vs 2 events
_Y_A = np.ones(20, dtype=int)
_D_A = np.zeros(20, dtype=bool)
_D_A[:4] = True
_D_A[10:12] = True
_X_A = np.zeros((20, 1))
_X_A[:10, 0] = 1.0

# fixture B: nine subjects, three intervals with ties, two covariates
_Y_B = np.array([1, 1, 2, 2, 2, 3, 3, 3, 3])
_D_B = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0], dtype=bool)
_X_B = np.array([[0.5, 1.0], [-0.3, 0.0], [0.1, -1.2], [0.8, 0.4], [0.0, 0.6],
                 [-0.5, 1.1], [0.9, -0.7], [0.2, 0.3], [-0.8, -0.2]])


# ---------------------------------------------------------------------------
# per-interval kernels against literal sums
# ---------------------------------------------------------------------------

def test_interval_kernels_match_literal_sums():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        X, D, eta = _random_risk_set(rng, m, d)
        np.testing.assert_allclose(interval_score(X, D, eta),
                                   o.prob_score(X, D, eta), atol=1e-12)
        np.testing.assert_allclose(interval_hessian(X, D, eta),
                                   o.prob_hessian(X, D, eta), atol=1e-12)
        np.testing.assert_allclose(interval_ab(X, D, eta),
                                   o.prob_ab(X, D, eta), atol=1e-12)
        np.testing.assert_allclose(interval_vhat(X, D, eta),
                                   o.prob_vhat(X, D, eta), atol=1e-11)
        np.testing.assert_allclose(interval_influence(X, D, eta),
                                   o.prob_influence(X, D, eta), atol=1e-12)


def test_interval_kernels_ignore_eventless_risk_sets():
    X = np.array([[1.0], [2.0]])
    D = np.zeros(2, dtype=bool)
    eta = np.zeros(2)
    assert interval_score(X, D, eta).tolist() == [0.0]
    assert interval_hessian(X, D, eta).tolist() == [[0.0]]
    assert interval_vhat(X, D, eta).tolist() == [[0.0]]


def test_influence_rows_sum_to_the_interval_score():
    rng = np.random.default_rng(8)
    X, D, eta = _random_risk_set(rng, 7, 2)
    np.testing.assert_allclose(interval_influence(X, D, eta).sum(axis=0),
                               interval_score(X, D, eta), atol=1e-12)


def test_weight_shift_invariance():
    # kernels depend on eta only through differences
    rng = np.random.default_rng(9)
    X, D, eta = _random_risk_set(rng, 6, 2)
    np.testing.assert_allclose(interval_vhat(X, D, eta + 300.0),
                               interval_vhat(X, D, eta), rtol=1e-12)
    np.testing.assert_allclose(interval_score(X, D, eta - 300.0),
                               interval_score(X, D, eta), rtol=1e-12)


# ---------------------------------------------------------------------------
# pooled score / Hessian / baselines
# ---------------------------------------------------------------------------

def test_pooled_score_and_hessian_match_literal_totals():
    rng = np.random.default_rng(11)
    data, y, delta, X = _random_data(rng)
    gamma = np.array([0.3, -0.2])
    np.testing.assert_allclose(
        score_gamma(data, gamma),
        o.total_kernel(y, delta, X, gamma, o.prob_score, J=4) / data.n,
        atol=1e-12)
    np.testing.assert_allclose(
        hessian_gamma(data, gamma),
        o.total_kernel(y, delta, X, gamma, o.prob_hessian, J=4) / data.n,
        atol=1e-12)


def test_hessian_is_the_score_derivative():
    rng = np.random.default_rng(12)
    data, _, _, _ = _random_data(rng)
    gamma = np.array([0.1, 0.4])
    fd = o.fd_jac(lambda g: score_gamma(data, g), gamma, h=1e-6)
    np.testing.assert_allclose(hessian_gamma(data, gamma), -fd,
                               rtol=1e-6, atol=1e-8)


def test_baselines_match_literal_formula():
    rng = np.random.default_rng(13)
    data, y, delta, X = _random_data(rng)
    gamma = np.array([-0.4, 0.25])
    np.testing.assert_allclose(baseline_log_hazards(data, gamma),
                               o.prob_baselines(y, delta, X, gamma, J=4),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_one_interval_two_group_fit_is_the_log_ratio_of_event_fractions():
    data = _make(_Y_A, _D_A, _X_A, 1)
    fit = fit_gamma(data, tol=1e-12)
    # (4/10) / (2/10) = 2
    np.testing.assert_allclose(fit.gamma, [np.log(2.0)], atol=1e-10)
    assert fit.n == 20
    assert fit.score_norm <= 1e-12
    np.testing.assert_allclose(var_oldstyle(data, fit).covariance[0, 0],
                               0.75, atol=1e-10)
    np.testing.assert_allclose(var_model_based(data, fit).covariance[0, 0],
                               0.55, atol=1e-10)
    np.testing.assert_allclose(var_model_based2(data, fit).covariance[0, 0],
                               0.55, atol=1e-10)
    np.testing.assert_allclose(var_robust(data, fit).covariance[0, 0],
                               0.55, atol=1e-10)


def test_tied_three_interval_fit_matches_the_frozen_solution():
    data = _make(_Y_B, _D_B, _X_B, 3)
    fit = fit_gamma(data, tol=1e-12)
    np.testing.assert_allclose(fit.gamma, [1.0348481503829163, 0.9093253360834274],
                               atol=1e-9)
    np.testing.assert_allclose(
        fit.gamma0,
        [-2.7234160142888078, -1.6422937377392177, -0.9049419256025723],
        atol=1e-9)
    assert fit.iterations >= 1
    np.testing.assert_allclose(fit.gamma0, baseline_log_hazards(data, fit.gamma),
                               atol=1e-12)


def test_fit_agrees_with_an_independent_newton_solve():
    rng = np.random.default_rng(14)
    data, y, delta, X = _random_data(rng, n=60, d=2, J=5)
    fit = fit_gamma(data, tol=1e-12)

    gamma = np.zeros(2)
    for _ in range(60):
        s = o.total_kernel(y, delta, X, gamma, o.prob_score, J=5)
        if np.max(np.abs(s)) < 1e-13:
            break
        H = o.total_kernel(y, delta, X, gamma, o.prob_hessian, J=5)
        gamma = gamma + np.linalg.solve(H, s)
    np.testing.assert_allclose(fit.gamma, gamma, atol=1e-9)


def test_no_ties_fit_matches_continuous_partial_likelihood():
    rng = np.random.default_rng(15)
    n, d = 60, 2
    X = rng.normal(size=(n, d))
    time = rng.exponential(scale=np.exp(-X @ np.array([0.5, -0.3])))
    status = rng.random(n) < 0.75
    assert np.unique(time[status]).size == status.sum()
    grid = TimeGrid(np.unique(time[status]))
    data = discretize([(time[i], bool(status[i]), X[i]) for i in range(n)],
                      grid, CensorOption.CENSORED_EARLY)
    fit = fit_gamma(data, tol=1e-12)
    beta, bread = o.cox_fit(time, status, X)
    np.testing.assert_allclose(fit.gamma, beta, atol=1e-9)
    np.testing.assert_allclose(fit.hessian, bread, atol=1e-9)


def test_fit_requires_events_and_covariates():
    with pytest.raises(InputError):
        fit_gamma(_make([1, 2], [0, 0], [[0.0], [1.0]], 2))
    no_cov = DiscreteSurvivalData(TimeGrid([1.0]), [
        SubjectRecord("a", 1, True, Static(np.empty(0))),
        SubjectRecord("b", 1, False, Static(np.empty(0)))])
    with pytest.raises(InputError):
        fit_gamma(no_cov)


def test_fit_flags_a_separated_sample():
    # every event sits in the high-covariate group: the score only
    # vanishes in the tail, so the estimate runs out along the axis
    y = np.ones(6, dtype=int)
    delta = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
    X = np.array([[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]])
    fit = fit_gamma(_make(y, delta, X, 1))
    assert fit.gamma[0] > 10.0
    assert any("separation" in w for w in fit.warnings)


def test_fit_reports_iteration_budget_exhaustion():
    data = _make(_Y_B, _D_B, _X_B, 3)
    with pytest.raises(ConvergenceError) as err:
        fit_gamma(data, tol=1e-14, max_iter=1)
    assert err.value.iterations == 1
    assert np.isfinite(err.value.score_norm)


def test_fit_warns_when_fitted_hazards_exceed_one():
    y = np.array([1, 1, 1, 2, 2, 2, 2, 3, 3, 3])
    delta = np.array([1, 1, 0, 1, 1, 0, 0, 1, 1, 0], dtype=bool)
    X = np.array([[2.5], [0.0], [0.0], [1.0], [0.9], [-0.8], [-0.9],
                  [0.8], [0.7], [-0.5]])
    fit = fit_gamma(_make(y, delta, X, 3))
    assert any("exceeds 1" in w for w in fit.warnings)


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def _oracle_sandwich(y, delta, X, gamma, meat_kernel, J):
    bread = o.total_kernel(y, delta, X, gamma, o.prob_hessian, J=J)
    meat = o.total_kernel(y, delta, X, gamma, meat_kernel, J=J)
    inv = np.linalg.inv(bread)
    return inv @ meat @ inv  # covariance scale: raw bread and meat


def test_variance_estimators_match_oracle_sandwiches():
    rng = np.random.default_rng(16)
    data, y, delta, X = _random_data(rng, n=50, d=2, J=4)
    fit = fit_gamma(data, tol=1e-12)
    np.testing.assert_allclose(
        var_model_based(data, fit).covariance,
        _oracle_sandwich(y, delta, X, fit.gamma, o.prob_ab, 4), atol=1e-12)
    np.testing.assert_allclose(
        var_model_based2(data, fit).covariance,
        _oracle_sandwich(y, delta, X, fit.gamma,
                         lambda *a: (lambda v: 0.5 * (v + v.T))(o.prob_vhat(*a)),
                         4), atol=1e-12)
    np.testing.assert_allclose(
        var_oldstyle(data, fit).covariance,
        np.linalg.inv(o.total_kernel(y, delta, X, fit.gamma, o.prob_hessian, J=4)),
        atol=1e-12)


def test_robust_variance_matches_literal_per_subject_influence():
    rng = np.random.default_rng(17)
    data, y, delta, X = _random_data(rng, n=50, d=2, J=4)
    fit = fit_gamma(data, tol=1e-12)

    h = np.zeros((50, 2))
    for j, members in enumerate(o.risk_sets(y, 4), start=1):
        Xj = X[members]
        Dj = o.event_mask(y, delta, members, j)
        h[members] += o.prob_influence(Xj, Dj, Xj @ fit.gamma)
    bread = o.total_kernel(y, delta, X, fit.gamma, o.prob_hessian, J=4)
    inv = np.linalg.inv(bread)
    np.testing.assert_allclose(var_robust(data, fit).covariance,
                               inv @ (h.T @ h) @ inv, atol=1e-12)

    infl = influence_prob(data, fit)
    np.testing.assert_allclose(infl.total, h, atol=1e-12)
    # at the root the per-subject influences sum to the (zero) score
    np.testing.assert_allclose(infl.total.sum(axis=0), np.zeros(2), atol=1e-8)


def test_variance_estimate_scaling():
    data = _make(_Y_A, _D_A, _X_A, 1)
    fit = fit_gamma(data, tol=1e-12)
    v = var_model_based2(data, fit)
    np.testing.assert_allclose(v.matrix, v.covariance * data.n)
    np.testing.assert_allclose(v.se, np.sqrt(np.diag(v.covariance)))
    assert v.kind == "model_based2"
