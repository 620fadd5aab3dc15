from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import _oracles as o
from dsurv import (ConvergenceError, DiscreteSurvivalData, InputError,
                   OddsVarianceEstimate, Static, SubjectRecord, TimeGrid,
                   VarianceEstimate, baseline_log_odds, fit_beta, fit_gamma,
                   jacobian_beta, score_beta, var_model_based2,
                   var_model_based2_odds, var_model_based3_odds,
                   var_model_based_odds, var_robust, var_robust_odds)
from _oracles import (interval_gb, interval_influence_odds,
                      interval_jacobian_odds, interval_score_odds,
                      interval_sigma_hat, interval_sigma_tilde)


def _make(y, delta, X, J):
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(len(y))]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)


def _random_risk_set(rng, m, d, ensure_mixed=False):
    while True:
        X = rng.normal(size=(m, d))
        D = rng.random(m) < 0.4
        if not ensure_mixed or (0 < D.sum() < m):
            break
    eta = rng.normal(scale=0.7, size=m)
    return X, D, eta


def _random_data(rng, n=40, d=2, J=4):
    while True:
        y = rng.integers(1, J + 1, size=n)
        delta = rng.random(n) < 0.7
        counts_ok = True
        for j in range(1, J + 1):
            at_risk = int(np.sum(y >= j))
            events = int(np.sum((y == j) & delta))
            if at_risk and events == at_risk:
                counts_ok = False
        if counts_ok and np.any(delta):
            break
    X = rng.normal(size=(n, d))
    return _make(y, delta, X, J), y, delta, X


# same fixtures as the probability-model tests
_Y_A = np.ones(20, dtype=int)
_D_A = np.zeros(20, dtype=bool)
_D_A[:4] = True
_D_A[10:12] = True
_X_A = np.zeros((20, 1))
_X_A[:10, 0] = 1.0

_Y_B = np.array([1, 1, 2, 2, 2, 3, 3, 3, 3])
_D_B = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0], dtype=bool)
_X_B = np.array([[0.5, 1.0], [-0.3, 0.0], [0.1, -1.2], [0.8, 0.4], [0.0, 0.6],
                 [-0.5, 1.1], [0.9, -0.7], [0.2, 0.3], [-0.8, -0.2]])


# ---------------------------------------------------------------------------
# per-interval kernels against literal sums
# ---------------------------------------------------------------------------

def test_interval_kernels_match_literal_sums():
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        X, D, eta = _random_risk_set(rng, m, d)
        np.testing.assert_allclose(interval_score_odds(X, D, eta),
                                   o.odds_score(X, D, eta), atol=1e-12)
        np.testing.assert_allclose(interval_jacobian_odds(X, D, eta),
                                   o.odds_jacobian(X, D, eta), atol=1e-12)
        np.testing.assert_allclose(interval_gb(X, D, eta),
                                   o.odds_gb(X, D, eta), atol=1e-12)
        np.testing.assert_allclose(interval_sigma_hat(X, D, eta),
                                   o.odds_sigma_hat(X, D, eta), atol=1e-11)
        np.testing.assert_allclose(interval_sigma_tilde(X, D, eta),
                                   o.odds_sigma_tilde(X, D, eta), atol=1e-11)
        np.testing.assert_allclose(interval_influence_odds(X, D, eta),
                                   o.odds_influence(X, D, eta), atol=1e-12)


def test_degenerate_risk_sets_contribute_nothing():
    X = np.array([[1.0], [2.0], [0.5]])
    eta = np.zeros(3)
    for D in (np.zeros(3, dtype=bool), np.ones(3, dtype=bool)):
        assert interval_score_odds(X, D, eta).tolist() == [0.0]
        assert interval_jacobian_odds(X, D, eta).tolist() == [[0.0]]
        assert interval_sigma_hat(X, D, eta).tolist() == [[0.0]]
        assert interval_sigma_tilde(X, D, eta).tolist() == [[0.0]]
        assert interval_influence_odds(X, D, eta).tolist() == [[0.0]] * 3


def test_sigma_tilde_symmetric_form_equals_the_asymmetric_display():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        X, D, eta = _random_risk_set(rng, m, d, ensure_mixed=True)
        asym = interval_sigma_tilde(X, D, eta)
        sym = interval_sigma_tilde(X, D, eta, symmetric=True)
        np.testing.assert_allclose(asym, sym, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(sym, sym.T, atol=1e-12)
        assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).min() >= -1e-12


def test_sigma_hat_is_not_symmetric_under_ties():
    # a risk set with two tied events where the display is asymmetric
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [-1.0, 0.3]])
    D = np.array([True, True, False, False, False])
    eta = np.array([0.2, -0.1, 0.4, 0.0, -0.3])
    s = interval_sigma_hat(X, D, eta)
    assert np.max(np.abs(s - s.T)) > 1e-3


def test_influence_rows_sum_to_the_interval_score():
    rng = np.random.default_rng(23)
    for _ in range(10):
        X, D, eta = _random_risk_set(rng, 7, 2, ensure_mixed=True)
        np.testing.assert_allclose(interval_influence_odds(X, D, eta).sum(axis=0),
                                   interval_score_odds(X, D, eta), atol=1e-12)


# ---------------------------------------------------------------------------
# pooled score / Jacobian / baselines
# ---------------------------------------------------------------------------

def test_pooled_score_and_jacobian_match_literal_totals():
    rng = np.random.default_rng(24)
    data, y, delta, X = _random_data(rng)
    beta = np.array([0.3, -0.2])
    np.testing.assert_allclose(
        score_beta(data, beta),
        o.total_kernel(y, delta, X, beta, o.odds_score, J=4) / data.n,
        atol=1e-12)
    np.testing.assert_allclose(
        jacobian_beta(data, beta),
        o.total_kernel(y, delta, X, beta, o.odds_jacobian, J=4) / data.n,
        atol=1e-12)


def test_baselines_match_literal_formula():
    rng = np.random.default_rng(25)
    data, y, delta, X = _random_data(rng)
    beta = np.array([-0.4, 0.25])
    np.testing.assert_allclose(baseline_log_odds(data, beta),
                               o.odds_baselines(y, delta, X, beta, J=4),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_one_interval_two_group_fit_is_the_log_odds_ratio():
    data = _make(_Y_A, _D_A, _X_A, 1)
    fit = fit_beta(data, tol=1e-12)
    # (4*8) / (6*2) = 8/3
    np.testing.assert_allclose(fit.beta, [np.log(8.0 / 3.0)], atol=1e-10)
    assert fit.score_norm <= 1e-12
    assert fit.init == "breslow-peto"
    np.testing.assert_allclose(var_model_based2_odds(data, fit).covariance[0, 0],
                               37.0 / 32.0, atol=1e-10)
    np.testing.assert_allclose(var_model_based3_odds(data, fit).covariance[0, 0],
                               25.0 / 24.0, atol=1e-10)
    np.testing.assert_allclose(var_robust_odds(data, fit).covariance[0, 0],
                               25.0 / 24.0, atol=1e-10)


def test_tied_three_interval_fit_matches_the_frozen_solution():
    data = _make(_Y_B, _D_B, _X_B, 3)
    fit = fit_beta(data, tol=1e-12)
    np.testing.assert_allclose(fit.beta, [3.0250966989270403, 3.0091756278867456],
                               atol=1e-8)
    np.testing.assert_allclose(
        fit.beta0,
        [-4.033406332013529, -2.2265154540406242, 0.05102017637011147],
        atol=1e-8)
    np.testing.assert_allclose(fit.beta0, baseline_log_odds(data, fit.beta),
                               atol=1e-12)


def test_fit_agrees_with_an_independent_root_solve():
    rng = np.random.default_rng(26)
    data, y, delta, X = _random_data(rng, n=60, d=2, J=5)
    fit = fit_beta(data, tol=1e-12)

    beta = np.zeros(2)
    for _ in range(80):
        s = o.total_kernel(y, delta, X, beta, o.odds_score, J=5)
        if np.max(np.abs(s)) < 1e-13:
            break
        fd = o.fd_jac(
            lambda b: o.total_kernel(y, delta, X, b, o.odds_score, J=5),
            beta, h=1e-7)
        beta = beta - np.linalg.solve(fd, s)
    np.testing.assert_allclose(fit.beta, beta, atol=1e-8)


def test_all_event_risk_sets_are_excluded_with_a_warning():
    # interval 2 consists entirely of events; interval 1 pins beta at 0
    y = np.array([1, 1, 1, 1, 1, 2, 2])
    delta = np.array([1, 0, 0, 0, 0, 1, 1], dtype=bool)
    X = np.array([[0.0], [1.0], [-1.0], [0.6], [-0.6], [0.3], [-0.3]])
    data = _make(y, delta, X, 2)
    fit = fit_beta(data, tol=1e-12)
    np.testing.assert_allclose(fit.beta, [0.0], atol=1e-10)
    # interval 1 baseline: one event over the event-free weight 4 + e^0 + e^-0
    np.testing.assert_allclose(fit.beta0[0], -np.log(6.0), atol=1e-10)
    assert fit.beta0[1] == np.inf
    assert any("entirely of events" in w for w in fit.warnings)


def test_fit_requires_an_informative_risk_set():
    y = np.array([1, 1])
    delta = np.array([1, 1], dtype=bool)
    data = _make(y, delta, [[1.0], [0.0]], 1)
    with pytest.raises(InputError):
        fit_beta(data)
    with pytest.raises(InputError):
        fit_beta(_make([1, 2], [0, 0], [[0.0], [1.0]], 2))


def test_init_override_and_multistart_reach_the_same_root():
    data = _make(_Y_B, _D_B, _X_B, 3)
    base = fit_beta(data, tol=1e-12)
    from_init = fit_beta(data, tol=1e-12, init=[2.0, 2.0])
    assert from_init.init == "user-supplied"
    np.testing.assert_allclose(from_init.beta, base.beta, atol=1e-8)
    multi = fit_beta(data, tol=1e-12, multistart=True)
    np.testing.assert_allclose(multi.beta, base.beta, atol=1e-8)
    assert not any("differ" in w for w in multi.warnings)


def test_fit_flags_a_separated_sample():
    y = np.ones(6, dtype=int)
    delta = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
    X = np.array([[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]])
    fit = fit_beta(_make(y, delta, X, 1))
    assert fit.beta[0] > 10.0
    assert any("separation" in w for w in fit.warnings)


def test_fit_reports_iteration_budget_exhaustion():
    data = _make(_Y_B, _D_B, _X_B, 3)
    with pytest.raises(ConvergenceError) as err:
        fit_beta(data, tol=1e-14, max_iter=1, init=[0.0, 0.0])
    assert err.value.iterations == 1


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def _oracle_sandwich(y, delta, X, beta, meat_kernel, J, robust=False):
    jac = o.total_kernel(y, delta, X, beta, o.odds_jacobian, J=J)
    meat = o.total_kernel(y, delta, X, beta, meat_kernel, J=J)
    inv = np.linalg.inv(jac)
    out = inv @ meat @ (inv.T if robust else inv)
    return 0.5 * (out + out.T)


def test_variance_estimators_match_oracle_sandwiches():
    rng = np.random.default_rng(27)
    data, y, delta, X = _random_data(rng, n=50, d=2, J=4)
    fit = fit_beta(data, tol=1e-12)
    np.testing.assert_allclose(
        var_model_based_odds(data, fit).covariance,
        _oracle_sandwich(y, delta, X, fit.beta, o.odds_gb, 4), atol=1e-12)
    np.testing.assert_allclose(
        var_model_based2_odds(data, fit).covariance,
        _oracle_sandwich(y, delta, X, fit.beta,
                         lambda *a: (lambda s: 0.5 * (s + s.T))(o.odds_sigma_hat(*a)),
                         4), atol=1e-12)
    np.testing.assert_allclose(
        var_model_based3_odds(data, fit).covariance,
        _oracle_sandwich(y, delta, X, fit.beta, o.odds_sigma_tilde, 4),
        atol=1e-12)


def test_robust_variance_matches_literal_per_subject_influence():
    rng = np.random.default_rng(28)
    data, y, delta, X = _random_data(rng, n=50, d=2, J=4)
    fit = fit_beta(data, tol=1e-12)

    g = np.zeros((50, 2))
    for j, members in enumerate(o.risk_sets(y, 4), start=1):
        Xj = X[members]
        Dj = o.event_mask(y, delta, members, j)
        g[members] += o.odds_influence(Xj, Dj, Xj @ fit.beta)
    jac = o.total_kernel(y, delta, X, fit.beta, o.odds_jacobian, J=4)
    inv = np.linalg.inv(jac)
    expected = inv @ (g.T @ g) @ inv.T
    np.testing.assert_allclose(var_robust_odds(data, fit).covariance,
                               0.5 * (expected + expected.T), atol=1e-12)


def test_variance_estimate_type_and_scaling():
    data = _make(_Y_A, _D_A, _X_A, 1)
    fit = fit_beta(data, tol=1e-12)
    v = var_model_based3_odds(data, fit)
    assert isinstance(v, OddsVarianceEstimate)
    assert isinstance(v, VarianceEstimate)
    np.testing.assert_allclose(v.matrix, v.covariance * data.n)
    np.testing.assert_allclose(v.se, np.sqrt(np.diag(v.covariance)))


def test_original_scale_fits_need_memory_linear_in_n():
    # one interval per distinct time and no ties, so J = n and the risk
    # sets hold n(n+1)/2 rows in all; copying each event interval's rows
    # peaks at about 55 MiB here
    n = 1500
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.integers(0, 2, n), rng.standard_normal((n, 3))])
    t = rng.exponential(np.exp(-X @ np.array([0.5, -0.3, 0.2, 0.1])))
    c = rng.uniform(0.0, 3.0, n)
    y = np.argsort(np.argsort(np.minimum(t, c))) + 1
    data = _make(y, t <= c, X, n)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pfit = fit_gamma(data)
        var_model_based2(data, pfit)
        var_robust(data, pfit)
        ofit = fit_beta(data)
        var_robust_odds(data, ofit)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, f"peak allocation {peak / 2 ** 20:.1f} MiB"
