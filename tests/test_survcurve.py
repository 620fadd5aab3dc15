from __future__ import annotations

import numpy as np
import pytest

import _oracles as o
from dsurv import (DiscreteSurvivalData, InputError, Static, SubjectRecord,
                   TimeGrid, fit_beta, fit_gamma, hazard_variation_terms,
                   odds_curve, prob_cumhaz_alt, prob_curve, var_model_based2,
                   var_model_based2_odds, var_oldstyle)


def _make(y, delta, X, J):
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(len(y))]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)


def _expit(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


_Y = np.array([1, 1, 2, 2, 2, 3, 3, 3, 3])
_D = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0], dtype=bool)
_X = np.array([[0.5, 1.0], [-0.3, 0.0], [0.1, -1.2], [0.8, 0.4], [0.0, 0.6],
               [-0.5, 1.1], [0.9, -0.7], [0.2, 0.3], [-0.8, -0.2]])
_J = 3


def test_prob_curve_is_the_product_limit_of_fitted_hazards():
    data = _make(_Y, _D, _X, _J)
    fit = fit_gamma(data, tol=1e-12)
    curve = prob_curve(data, fit)
    assert curve.model == "prob"
    np.testing.assert_allclose(curve.hazards, np.exp(fit.gamma0), atol=1e-13)
    np.testing.assert_allclose(curve.survival,
                               np.cumprod(1.0 - curve.hazards), atol=1e-13)
    np.testing.assert_allclose(curve.cumhaz, np.cumsum(curve.hazards),
                               atol=1e-13)
    np.testing.assert_allclose(
        curve.survival,
        [0.9343498907619511, 0.7535199120422527, 0.44867184300816343],
        atol=1e-9)
    np.testing.assert_allclose(curve.se_surv_robust,
                               curve.survival * curve.se_log_surv_robust,
                               atol=1e-14)
    np.testing.assert_allclose(curve.se_surv_model_based,
                               curve.survival * curve.se_log_surv_model_based,
                               atol=1e-14)
    assert curve.flags == ["", "", ""]
    assert curve.work is None
    assert np.all(np.isfinite(curve.se_log_surv_robust))


def test_odds_curve_is_the_product_limit_of_fitted_hazards():
    data = _make(_Y, _D, _X, _J)
    fit = fit_beta(data, tol=1e-12)
    x0 = np.array([0.3, -0.2])
    curve = odds_curve(data, fit, x0=x0)
    assert curve.model == "odds"
    np.testing.assert_allclose(curve.hazards,
                               _expit(fit.beta0 + x0 @ fit.beta), atol=1e-13)
    np.testing.assert_allclose(curve.survival,
                               np.cumprod(1.0 - curve.hazards), atol=1e-13)
    np.testing.assert_allclose(curve.cumhaz, np.cumsum(curve.hazards),
                               atol=1e-13)
    assert curve.flags == ["", "", ""]
    assert np.all(np.isfinite(curve.se_log_surv_model_based))


def test_prob_curve_sensitivities_are_log_survival_gradients():
    data = _make(_Y, _D, _X, _J)
    fit = fit_gamma(data, tol=1e-12)
    x0 = np.array([0.2, -0.1])
    curve = prob_curve(data, fit, x0=x0, keep_work=True)
    for k in range(1, _J + 1):
        grad = o.fd_grad(
            lambda g: o.prob_log_survival(_Y, _D, _X, g, x0, k, J=_J),
            fit.gamma)
        np.testing.assert_allclose(curve.work.U[k - 1], grad, atol=5e-7)


def test_odds_curve_sensitivities_are_log_survival_gradients():
    data = _make(_Y, _D, _X, _J)
    fit = fit_beta(data, tol=1e-12)
    x0 = np.array([0.2, -0.1])
    curve = odds_curve(data, fit, x0=x0, keep_work=True)
    for k in range(1, _J + 1):
        grad = o.fd_grad(
            lambda b: o.odds_log_survival(_Y, _D, _X, b, x0, k, J=_J),
            fit.beta)
        np.testing.assert_allclose(curve.work.U[k - 1], grad, atol=5e-7)


def test_prob_curve_variances_match_a_literal_recomputation():
    data = _make(_Y, _D, _X, _J)
    fit = fit_gamma(data, tol=1e-12)
    x0 = np.array([0.2, -0.1])
    curve = prob_curve(data, fit, x0=x0)

    n, d = _X.shape
    Xr = _X - x0
    sets = o.risk_sets(_Y, _J)
    rawB = o.total_kernel(_Y, _D, Xr, fit.gamma, o.prob_hessian, J=_J)
    meat = np.zeros((d, d))
    h = np.zeros((n, d))
    for j, members in enumerate(sets, start=1):
        Dj = o.event_mask(_Y, _D, members, j)
        eta = Xr[members] @ fit.gamma
        v = o.prob_vhat(Xr[members], Dj, eta)
        meat += 0.5 * (v + v.T)
        h[members] += o.prob_influence(Xr[members], Dj, eta)
    inv = np.linalg.inv(rawB)
    cov = inv @ meat @ inv
    W = np.linalg.solve(rawB / n, h.T)

    p0 = np.exp(fit.gamma0 + x0 @ fit.gamma)
    phi1 = np.zeros(n)
    U = np.zeros(d)
    mb1 = 0.0
    var_rob = np.empty(_J)
    var_mb = np.empty(_J)
    for j, members in enumerate(sets, start=1):
        Dj = o.event_mask(_Y, _D, members, j)
        T = int(Dj.sum())
        if T > 0:
            pj = p0[j - 1]
            eta = Xr[members] @ fit.gamma
            w = np.exp(eta)
            phat = pj * w
            phi1[members] += -(n * pj / ((1.0 - pj) * T)) * (Dj - phat)
            U = U + (pj / (1.0 - pj)) * ((w @ Xr[members]) / w.sum())
            mb1 += (pj ** 2 / ((1.0 - pj) ** 2 * T ** 2)) * float(
                np.sum(phat * (1.0 - phat)))
        vec = phi1 + W.T @ U
        var_rob[j - 1] = float(vec @ vec) / n ** 2
        var_mb[j - 1] = mb1 + float(U @ cov @ U)

    np.testing.assert_allclose(curve.se_log_surv_robust ** 2, var_rob,
                               rtol=1e-9)
    np.testing.assert_allclose(curve.se_log_surv_model_based ** 2, var_mb,
                               rtol=1e-9)


def test_odds_curve_variances_match_a_literal_recomputation():
    data = _make(_Y, _D, _X, _J)
    fit = fit_beta(data, tol=1e-12)
    x0 = np.array([0.2, -0.1])
    curve = odds_curve(data, fit, x0=x0)

    n, d = _X.shape
    Xr = _X - x0
    sets = o.risk_sets(_Y, _J)
    rawH = o.total_kernel(_Y, _D, Xr, fit.beta, o.odds_jacobian, J=_J)
    meat = np.zeros((d, d))
    g = np.zeros((n, d))
    for j, members in enumerate(sets, start=1):
        Dj = o.event_mask(_Y, _D, members, j)
        eta = Xr[members] @ fit.beta
        s = o.odds_sigma_hat(Xr[members], Dj, eta)
        meat += 0.5 * (s + s.T)
        g[members] += o.odds_influence(Xr[members], Dj, eta)
    inv = np.linalg.inv(rawH)
    cov = inv @ meat @ inv
    cov = 0.5 * (cov + cov.T)
    W = np.linalg.solve(rawH / n, g.T)

    q = _expit(fit.beta0 + x0 @ fit.beta)
    psi1 = np.zeros(n)
    Gamma = np.zeros(d)
    mb1 = 0.0
    var_rob = np.empty(_J)
    var_mb = np.empty(_J)
    for j, members in enumerate(sets, start=1):
        Dj = o.event_mask(_Y, _D, members, j)
        T = int(Dj.sum())
        if T > 0:
            qj = q[j - 1]
            eta = Xr[members] @ fit.beta
            w = np.exp(eta)
            psi1[members] += -(n * qj / ((1.0 - qj) * T)) * (
                Dj * (1.0 - qj) - (~Dj) * w * qj)
            s0 = float(w.sum())
            s0d = float(w[~Dj].sum())
            Gamma = Gamma + qj * ((w[~Dj] @ Xr[members][~Dj]) / s0d)
            mb1 += T * s0 / (s0d * (T + s0d) ** 2)
        vec = psi1 + W.T @ Gamma
        var_rob[j - 1] = float(vec @ vec) / n ** 2
        var_mb[j - 1] = mb1 + float(Gamma @ cov @ Gamma)

    np.testing.assert_allclose(curve.se_log_surv_robust ** 2, var_rob,
                               rtol=1e-9)
    np.testing.assert_allclose(curve.se_log_surv_model_based ** 2, var_mb,
                               rtol=1e-9)


def test_default_curve_variances_use_the_tie_aware_model_based_kind():
    data = _make(_Y, _D, _X, _J)
    pfit = fit_gamma(data, tol=1e-12)
    ofit = fit_beta(data, tol=1e-12)
    np.testing.assert_array_equal(
        prob_curve(data, pfit).se_log_surv_model_based,
        prob_curve(data, pfit,
                   variance=var_model_based2(data, pfit)).se_log_surv_model_based)
    np.testing.assert_array_equal(
        odds_curve(data, ofit).se_log_surv_model_based,
        odds_curve(data, ofit,
                   variance=var_model_based2_odds(data, ofit)).se_log_surv_model_based)
    # a different coefficient variance changes only the quadratic term
    alt = prob_curve(data, pfit, variance=var_oldstyle(data, pfit))
    assert not np.array_equal(alt.se_log_surv_model_based,
                              prob_curve(data, pfit).se_log_surv_model_based)
    np.testing.assert_array_equal(alt.se_log_surv_robust,
                                  prob_curve(data, pfit).se_log_surv_robust)


def test_prob_curve_flags_nonpositive_survival_at_extreme_profiles():
    y = np.array([1, 1, 1, 2, 2, 2, 2, 3, 3, 3])
    delta = np.array([1, 1, 0, 1, 1, 0, 0, 1, 1, 0], dtype=bool)
    X = np.array([[2.5], [0.0], [0.0], [1.0], [0.9], [-0.8], [-0.9],
                  [0.8], [0.7], [-0.5]])
    data = _make(y, delta, X, 3)
    fit = fit_gamma(data)
    curve = prob_curve(data, fit, x0=np.array([2.5]))
    assert curve.hazards[0] > 1.0
    assert curve.survival[0] < 0.0
    assert "nonpositive_survival" in curve.flags[0]
    assert "se_undefined" in curve.flags[0]
    assert np.isnan(curve.se_log_surv_robust).all()
    assert np.isnan(curve.se_log_surv_model_based).all()
    assert any("non-positive" in w for w in curve.warnings)


def test_odds_curve_flags_the_all_event_interval():
    y = np.array([1, 1, 1, 1, 1, 2, 2])
    delta = np.array([1, 0, 0, 0, 0, 1, 1], dtype=bool)
    X = np.array([[0.0], [1.0], [-1.0], [0.6], [-0.6], [0.3], [-0.3]])
    data = _make(y, delta, X, 2)
    fit = fit_beta(data, tol=1e-12)
    curve = odds_curve(data, fit)
    assert curve.hazards[1] == 1.0
    assert curve.survival[1] == 0.0
    assert curve.flags[0] == ""
    assert "nonpositive_survival" in curve.flags[1]
    assert "se_undefined" in curve.flags[1]
    assert np.isfinite(curve.se_log_surv_robust[0])
    assert np.isnan(curve.se_log_surv_robust[1])
    assert np.isnan(curve.se_log_surv_model_based[1])
    assert any("fitted hazard is 1" in w for w in curve.warnings)


def test_curves_validate_the_profile_and_the_fit():
    data = _make(_Y, _D, _X, _J)
    fit = fit_gamma(data, tol=1e-12)
    with pytest.raises(InputError):
        prob_curve(data, fit, x0=np.array([1.0]))
    with pytest.raises(InputError):
        odds_curve(data, fit_beta(data), x0=np.array([1.0, 2.0, 3.0]))
    other = _make(_Y[:-1], _D[:-1], _X[:-1], _J)
    with pytest.raises(InputError):
        prob_curve(other, fit)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curves_reject_a_non_finite_profile(bad):
    # a NaN profile once gave a curve of NaN rows and a warning about a
    # baseline hazard at 1
    data = _make(_Y, _D, _X, _J)
    x0 = np.array([bad, 1.0])
    pfit = fit_gamma(data, tol=1e-12)
    for make in (lambda: prob_curve(data, pfit, x0=x0),
                 lambda: prob_cumhaz_alt(data, pfit, x0=x0, use_Binv=True),
                 lambda: odds_curve(data, fit_beta(data), x0=x0)):
        with pytest.raises(InputError, match="x0 must be finite"):
            make()


def test_small_risk_sets_are_mentioned_in_curve_warnings():
    data = _make(_Y, _D, _X, _J)
    curve = prob_curve(data, fit_gamma(data, tol=1e-12))
    assert any("smallest risk set has 4 subject(s)" in w
               for w in curve.warnings)


def test_cumulative_hazard_variant_matches_a_literal_recomputation():
    data = _make(_Y, _D, _X, _J)
    fit = fit_gamma(data, tol=1e-12)
    x0 = np.array([0.2, -0.1])
    est, var = prob_cumhaz_alt(data, fit, x0=x0)

    n, d = _X.shape
    Xr = _X - x0
    p0 = np.exp(fit.gamma0 + x0 @ fit.gamma)
    np.testing.assert_allclose(est, np.exp(-np.cumsum(p0)), atol=1e-13)

    cov = np.linalg.inv(fit.hessian) / n
    first = 0.0
    U = np.zeros(d)
    expected = np.empty(_J)
    for j, members in enumerate(o.risk_sets(_Y, _J), start=1):
        Dj = o.event_mask(_Y, _D, members, j)
        T = int(Dj.sum())
        if T > 0:
            w = np.exp(Xr[members] @ fit.gamma)
            first += p0[j - 1] ** 2 / T
            U = U + p0[j - 1] * ((w @ Xr[members]) / w.sum())
        expected[j - 1] = first + float(U @ cov @ U)
    np.testing.assert_allclose(var, expected, rtol=1e-9)

    # the kept work rows expose the same cumulative vectors
    work = prob_curve(data, fit, x0=x0, keep_work=True).work
    np.testing.assert_allclose(work.U_alt[-1], U, rtol=1e-9)

    with pytest.raises(InputError):
        prob_cumhaz_alt(data, fit, use_Binv=False)
    _, var2 = prob_cumhaz_alt(data, fit, x0=x0, use_Binv=False,
                              variance=var_model_based2(data, fit))
    assert not np.allclose(var2, var)


def test_hazard_variation_terms_differ_by_the_squared_hazard_sum():
    y = np.array([1, 1, 2, 2, 3, 3])
    delta = np.array([1, 0, 0, 0, 1, 0], dtype=bool)
    X = np.array([[0.4], [-0.4], [0.2], [-0.2], [0.6], [-0.6]])
    data = _make(y, delta, X, 3)
    fit = fit_gamma(data, tol=1e-12)
    terms = hazard_variation_terms(data, fit)
    assert terms.shape == (3, 2)
    np.testing.assert_array_equal(terms[1], [0.0, 0.0])  # no events there

    p0 = np.exp(fit.gamma0)
    for j, members in enumerate(o.risk_sets(y, 3), start=1):
        Dj = o.event_mask(y, delta, members, j)
        if not Dj.any():
            continue
        phat = p0[j - 1] * np.exp(X[members] @ fit.gamma).ravel()
        np.testing.assert_allclose(terms[j - 1, 0],
                                   np.sum(phat * (1.0 - phat)) / 6.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(terms[j - 1, 1], np.sum(phat) / 6.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(terms[j - 1, 1] - terms[j - 1, 0],
                                   np.sum(phat ** 2) / 6.0, rtol=1e-12)
    assert np.all(terms[:, 1] >= terms[:, 0])


def test_keep_work_exposes_the_influence_behind_the_robust_variance():
    data = _make(_Y, _D, _X, _J)
    n = data.n
    for curve in (prob_curve(data, fit_gamma(data, tol=1e-12), keep_work=True),
                  odds_curve(data, fit_beta(data, tol=1e-12), keep_work=True)):
        assert curve.work.U.shape == (_J, 2)
        assert curve.work.influence.shape == (n, _J)
        recomputed = np.sum(curve.work.influence ** 2, axis=0) / n ** 2
        np.testing.assert_allclose(curve.se_log_surv_robust ** 2, recomputed,
                                   rtol=1e-12)
    assert prob_curve(data, fit_gamma(data), keep_work=True).work.U_alt is not None
    assert odds_curve(data, fit_beta(data), keep_work=True).work.U_alt is None
