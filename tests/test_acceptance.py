"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``CRITERION n: PASS``/``FAIL`` line (run with ``pytest -s`` to see the
lines for passing tests as well).
"""
from __future__ import annotations

import math
import os
import pathlib
import time

import numpy as np
import pytest

from dsurv import (CensorOption, DiscreteSurvivalData, SimScenario, Static,
                   StratifiedTables, SubjectRecord, TimeGrid, bp_two_sample,
                   enumerate_conditional, expand_step_terms, fit_beta,
                   fit_gamma, fit_plogit, hessian_gamma, odds_curve,
                   plogit_variances, prob_curve, replicate, tables_to_survival,
                   var_model_based, var_model_based2, var_model_based2_odds,
                   var_model_based3_odds, var_oldstyle, var_robust,
                   var_robust_odds, wmh_two_sample)
from dsurv.io import SubjectTable, build_data, read_subject_csv
from _oracles import interval_sigma_tilde

_VETERAN = pathlib.Path(__file__).resolve().parents[1] / "data" / "veteran.csv"

# The reference simulation study entered treatment into the event-time
# hazard as a 0/1 indicator, while the scenario generator codes the arms
# as 1/2.  The shift multiplies every event and censoring time by
# exp(0.4) without changing any fitted coefficient, so scaling the bin
# width by the same factor reproduces the reference discretized samples
# exactly.
_WIDTH_FACTOR = math.exp(0.4)
_BETA_STAR = [-0.4, 0.6, -0.4, 0.3, 0.1]


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def _report(num, failures, elapsed):
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {num}: {status} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _make(y, delta, X, J):
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(len(y))]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)


def test_criterion_1_everything_collapses_when_no_times_are_tied():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(401)
    for i in range(50):
        n, d = 200, 4
        X = rng.standard_normal((n, d))
        b = rng.normal(0.0, 0.3, d)
        times = rng.exponential(np.exp(-X @ b))
        status = (rng.random(n) < 0.7).astype(int)
        table = SubjectTable(ids=[str(s + 1) for s in range(n)], time=times,
                             status=status, covariates=X,
                             names=[f"x{k + 1}" for k in range(d)])
        data = build_data(table)  # one interval per distinct observed time
        pfit = fit_gamma(data, tol=1e-12)
        ofit = fit_beta(data, tol=1e-12, init=pfit.gamma)
        _check(failures, np.max(np.abs(pfit.gamma - ofit.beta)) < 1e-8,
               f"dataset {i}: point estimates differ")
        binv = np.linalg.inv(pfit.hessian)
        vb2 = var_model_based2(data, pfit).matrix
        sb2 = var_model_based2_odds(data, ofit).matrix
        _check(failures, np.max(np.abs(vb2 - binv)) < 1e-8,
               f"dataset {i}: prob mb2 variance is not the inverse hessian")
        _check(failures, np.max(np.abs(sb2 - binv)) < 1e-8,
               f"dataset {i}: odds mb2 variance is not the inverse hessian")
        hb = hessian_gamma(data, ofit.beta)
        _check(failures, np.max(np.abs(ofit.jacobian - hb)) < 1e-8,
               f"dataset {i}: odds jacobian differs from the prob hessian")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.1f}s >= 5s")
    _report(1, failures, elapsed)


def test_criterion_2_model_based_meat_never_exceeds_the_hessian():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(402)
    for i in range(100):
        n = int(rng.integers(40, 160))
        d = int(rng.integers(2, 5))
        J = int(rng.integers(3, 9))
        y = rng.integers(1, J + 1, n)
        y[:J] = np.arange(1, J + 1)  # keep every interval occupied
        delta = rng.random(n) < 0.6
        X = rng.standard_normal((n, d))
        data = _make(y, delta, X, J)
        fit = fit_gamma(data, tol=1e-10)
        ab = fit.hessian @ var_model_based(data, fit).matrix @ fit.hessian
        diff = fit.hessian - ab
        eigmin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        _check(failures, eigmin >= -1e-10,
               f"dataset {i}: min eigenvalue {eigmin:.3e}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s")
    _report(2, failures, elapsed)


def test_criterion_3_enumerated_risk_set_moments_match_the_kernels():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(403)
    tol = 1e-10
    for i in range(20):
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        X = rng.standard_normal((m, d))
        coef = rng.normal(0.0, 0.4, d)
        # exp-link hazards must stay below one for every member
        icp = -float(np.max(X @ coef)) - float(rng.uniform(0.3, 1.2))
        em = enumerate_conditional(X, icp, coef, model="prob")
        _check(failures, np.max(np.abs(em.score_mean)) <= tol,
               f"design {i}: prob score mean")
        _check(failures, np.max(np.abs(em.meat_mean - em.score_cov)) <= tol,
               f"design {i}: prob meat vs score covariance")

        icp_o = float(rng.normal(0.0, 0.7))
        em = enumerate_conditional(X, icp_o, coef, model="odds")
        _check(failures, np.max(np.abs(em.score_mean)) <= tol,
               f"design {i}: odds score mean")
        for t in sorted({1, m // 2, m - 1} & set(range(1, m))):
            em = enumerate_conditional(X, icp_o, coef, model="odds",
                                       given_Tj=t)
            _check(failures, np.max(np.abs(em.score_mean)) <= tol,
                   f"design {i}, T={t}: conditional odds score mean")
            _check(failures,
                   np.max(np.abs(em.meat_mean - em.score_cov)) <= tol,
                   f"design {i}, T={t}: sigma-hat vs conditional covariance")
            _check(failures,
                   np.max(np.abs(em.meat2_mean - em.score_cov)) <= tol,
                   f"design {i}, T={t}: sigma-tilde vs conditional covariance")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s")
    _report(3, failures, elapsed)


def test_criterion_4_sigma_tilde_forms_agree_and_stay_nonnegative():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(404)
    for i in range(100):
        m = int(rng.integers(2, 26))
        d = int(rng.integers(1, 5))
        X = rng.standard_normal((m, d))
        eta = rng.normal(0.0, 0.8, m)
        D = rng.random(m) < rng.uniform(0.2, 0.8)
        asym = interval_sigma_tilde(X, D, eta, symmetric=False)
        sym = interval_sigma_tilde(X, D, eta, symmetric=True)
        _check(failures, np.max(np.abs(asym - sym)) <= 1e-10,
               f"risk set {i}: asymmetric and symmetric forms differ")
        eigmin = float(np.linalg.eigvalsh(sym)[0])
        _check(failures, eigmin >= -1e-10,
               f"risk set {i}: min eigenvalue {eigmin:.3e}")
    elapsed = time.perf_counter() - t0
    _report(4, failures, elapsed)


def _random_nested_tables(rng):
    J = int(rng.integers(2, 5))
    at1 = int(rng.integers(8, 26))
    at2 = int(rng.integers(8, 26))
    p1 = rng.uniform(0.15, 0.45)
    p2 = rng.uniform(0.15, 0.45)
    n11, n12, n21, n22 = [], [], [], []
    for _ in range(J):
        e1 = int(rng.binomial(at1, p1))
        e2 = int(rng.binomial(at2, p2))
        n11.append(e1)
        n12.append(at1 - e1)
        n21.append(e2)
        n22.append(at2 - e2)
        at1 -= e1 + int(rng.binomial(at1 - e1, 0.15))
        at2 -= e2 + int(rng.binomial(at2 - e2, 0.15))
    return StratifiedTables(n11=n11, n12=n12, n21=n21, n22=n22)


def test_criterion_5_closed_forms_match_the_regression_fits():
    t0 = time.perf_counter()
    failures = []
    found = 0
    attempt = 0
    while found < 50:
        rng = np.random.default_rng((405, attempt))
        attempt += 1
        tables = _random_nested_tables(rng)
        cells = np.array([tables.n11, tables.n12, tables.n21, tables.n22])
        if cells.min() < 1:  # need two-sided, informative strata throughout
            continue
        found += 1
        data = tables_to_survival(tables)
        bp = bp_two_sample(tables)
        pfit = fit_gamma(data, tol=1e-13)
        close = lambda a, b: np.isclose(a, b, rtol=1e-9, atol=1e-9)
        _check(failures, close(bp.estimate, pfit.gamma[0]),
               f"instance {found}: bp point")
        _check(failures,
               close(bp.var_model_based2,
                     var_model_based2(data, pfit).covariance[0, 0]),
               f"instance {found}: bp mb2 variance")
        _check(failures,
               close(bp.var_robust, var_robust(data, pfit).covariance[0, 0]),
               f"instance {found}: bp robust variance")
        wmh = wmh_two_sample(tables)
        ofit = fit_beta(data, tol=1e-13)
        _check(failures, close(wmh.estimate, ofit.beta[0]),
               f"instance {found}: wmh point")
        _check(failures,
               close(wmh.var_model_based2,
                     var_model_based2_odds(data, ofit).covariance[0, 0]),
               f"instance {found}: wmh mb2 variance")
        _check(failures,
               close(wmh.var_model_based3,
                     var_model_based3_odds(data, ofit).covariance[0, 0]),
               f"instance {found}: wmh mb3 variance")
        _check(failures,
               close(wmh.var_robust,
                     var_robust_odds(data, ofit).covariance[0, 0]),
               f"instance {found}: wmh robust variance")
    elapsed = time.perf_counter() - t0
    _report(5, failures, elapsed)


def test_criterion_6_fine_bin_benchmark_statistics_are_reproduced():
    t0 = time.perf_counter()
    failures = []
    scenario = SimScenario(n=100, beta_star=_BETA_STAR,
                           bin_width=0.01 * _WIDTH_FACTOR, reps=2000, seed=7)
    threads = min(8, os.cpu_count() or 1)
    summ = replicate(scenario, methods=("bp", "wmh"),
                     variance_kinds=("robust",), threads=threads)
    i = summ.coef_names.index("Tr")
    bp_mean = summ.point_mean["bp"][i]
    bp_sd = summ.point_sd["bp"][i]
    wmh_mean = summ.point_mean["wmh"][i]
    bp_rob = summ.se_mean["bp"]["robust"][i]
    _check(failures, -0.428 <= bp_mean <= -0.388,
           f"bp Tr mean {bp_mean:.4f} outside -0.408 +/- 0.020")
    _check(failures, 0.259 * 0.9 <= bp_sd <= 0.259 * 1.1,
           f"bp Tr sd {bp_sd:.4f} outside 0.259 +/- 10%")
    _check(failures, -0.433 <= wmh_mean <= -0.393,
           f"wmh Tr mean {wmh_mean:.4f} outside -0.413 +/- 0.020")
    _check(failures, 0.233 <= bp_rob <= 0.253,
           f"bp Tr robust se {bp_rob:.4f} outside 0.243 +/- 0.010")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 900.0, f"runtime {elapsed:.0f}s >= 15min")
    _report(6, failures, elapsed)


def test_criterion_7_coarse_bin_benchmark_statistics_are_reproduced():
    t0 = time.perf_counter()
    failures = []
    scenario = SimScenario(n=100, beta_star=_BETA_STAR,
                           bin_width=0.2 * _WIDTH_FACTOR, reps=2000, seed=7)
    threads = min(8, os.cpu_count() or 1)
    summ = replicate(scenario, methods=("bp", "wmh"),
                     variance_kinds=("old", "mb2"), threads=threads)
    i = summ.coef_names.index("Tr")
    bp_mean = summ.point_mean["bp"][i]
    wmh_mean = summ.point_mean["wmh"][i]
    se_old = summ.se_mean["bp"]["old"][i]
    se_mb2 = summ.se_mean["bp"]["mb2"][i]
    inflation = (se_old / se_mb2) ** 2 - 1.0
    _check(failures, -0.373 <= bp_mean <= -0.333,
           f"bp Tr mean {bp_mean:.4f} outside -0.353 +/- 0.020")
    _check(failures, -0.462 <= wmh_mean <= -0.412,
           f"wmh Tr mean {wmh_mean:.4f} outside -0.437 +/- 0.025")
    _check(failures, se_old > se_mb2,
           f"old-style se {se_old:.4f} does not exceed mb2 se {se_mb2:.4f}")
    _check(failures, 0.15 <= inflation <= 0.30,
           f"(se_old/se_mb2)^2 - 1 = {inflation:.4f} outside [0.15, 0.30]")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 900.0, f"runtime {elapsed:.0f}s >= 15min")
    _report(7, failures, elapsed)


# veteran reference values: per-term point estimate and standard errors,
# on the reporting scale (age x100, Karn x10, diagt x100), as
# (bp point, old se, bp mb2 se, bp robust se,
#  wmh point, wmh mb2 se, wmh robust se,
#  plogit point, plogit mb se, plogit robust se)
_VA_TABLE1 = {
    "treat":  (.379, .245, .243, .221, .383, .247, .224, .392, .248, .227),
    "treat2": (-.493, .516, .515, .481, -.494, .515, .482, -.511, .524, .496),
    "treat3": (.472, .645, .645, .622, .475, .644, .622, .437, .670, .662),
    "age":    (-.813, .931, .927, 1.029, -.838, .930, 1.035,
               -.804, .954, 1.082),
    "Karn":   (-.320, .056, .056, .053, -.323, .056, .054, -.334, .058, .057),
    "diagt":  (-.064, .918, .897, .790, -.038, .947, .800, -.080, .945, .833),
    "cell2":  (.830, .283, .282, .306, .830, .284, .310, .865, .288, .321),
    "cell3":  (1.152, .313, .311, .273, 1.167, .315, .277, 1.196, .319, .284),
    "cell4":  (.372, .292, .291, .247, .376, .292, .248, .385, .297, .258),
    "prior":  (.083, .232, .231, .217, .087, .234, .220, .082, .238, .226),
}
_VA_SCALE = {"treat": 1, "treat2": 1, "treat3": 1, "age": 100, "Karn": 10,
             "diagt": 100, "cell2": 1, "cell3": 1, "cell4": 1, "prior": 1}


def _veteran_data(width=None):
    table = read_subject_csv(str(_VETERAN))
    data = build_data(table, width=width, censor=CensorOption.CENSORED_LATE)
    return expand_step_terms(data, data.covariate_names.index("treat"),
                             [100.0, 200.0])


def test_criterion_8_veteran_pipeline_reproduces_the_reference_tables():
    if not _VETERAN.exists():
        print("CRITERION 8: SKIPPED (data/veteran.csv absent)")
        pytest.skip("data/veteran.csv is absent; criteria 1-7 and 9 still run")
    t0 = time.perf_counter()
    failures = []
    data = _veteran_data()
    names = data.covariate_names
    pfit = fit_gamma(data, tol=1e-11)
    ofit = fit_beta(data, tol=1e-11)
    lfit = fit_plogit(data)
    lmb, lrob = plogit_variances(data, lfit)
    cols = [pfit.gamma, var_oldstyle(data, pfit).se,
            var_model_based2(data, pfit).se, var_robust(data, pfit).se,
            ofit.beta, var_model_based2_odds(data, ofit).se,
            var_robust_odds(data, ofit).se,
            lfit.beta, np.sqrt(np.diag(lmb)), np.sqrt(np.diag(lrob))]
    for term, expected in _VA_TABLE1.items():
        i = names.index(term)
        got = [c[i] * _VA_SCALE[term] for c in cols]
        for g, e in zip(got, expected):
            _check(failures, abs(g - e) <= 1e-3 + 1e-12,
                   f"{term}: got {g:.4f}, expected {e:.3f}")

    data20 = _veteran_data(width=20.0)
    i = data20.covariate_names.index("treat")
    g20 = fit_gamma(data20, tol=1e-11)
    b20 = fit_beta(data20, tol=1e-11)
    for got, e, label in [
            (g20.gamma[i], .307, "20-day bp treat"),
            (b20.beta[i], .420, "20-day wmh treat"),
            (var_oldstyle(data20, g20).se[i], .241, "20-day old-style se"),
            (var_model_based2(data20, g20).se[i], .204, "20-day bp mb2 se")]:
        _check(failures, abs(got - e) <= 1e-3 + 1e-12,
               f"{label}: got {got:.4f}, expected {e:.3f}")
    elapsed = time.perf_counter() - t0
    _report(8, failures, elapsed)


def _simulate_discrete_cohort(rng, n, J, hazard, censor_rate):
    """Walk each subject through the intervals with per-interval hazards."""
    X = np.column_stack([(rng.random(n) < 0.5).astype(float),
                         0.5 * rng.standard_normal(n)])
    U = rng.random((n, J))
    V = rng.random((n, J))
    y = np.full(n, J)
    delta = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    for j in range(J):
        p = hazard(j, X)
        ev = alive & (U[:, j] < p)
        y[ev] = j + 1
        delta[ev] = True
        alive &= ~ev
        cz = alive & (V[:, j] < censor_rate)
        y[cz] = j + 1
        alive &= ~cz
    return y, delta, X


def test_criterion_9_curve_robust_se_tracks_the_monte_carlo_spread():
    t0 = time.perf_counter()
    failures = []
    n, J, reps = 200, 12, 500
    k = J // 2  # report the curve after the sixth interval
    x0 = np.array([1.0, 0.4])

    p0 = np.linspace(0.05, 0.11, J)
    gamma_true = np.array([0.35, -0.25])
    rng = np.random.default_rng(409)
    logs = np.empty(reps)
    ses = np.empty(reps)
    for r in range(reps):
        y, delta, X = _simulate_discrete_cohort(
            rng, n, J, lambda j, Z: p0[j] * np.exp(Z @ gamma_true), 0.02)
        data = _make(y, delta, X, J)
        fit = fit_gamma(data, tol=1e-10)
        curve = prob_curve(data, fit, x0=x0)
        logs[r] = math.log(curve.survival[k - 1])
        ses[r] = curve.se_log_surv_robust[k - 1]
    ratio = math.sqrt(np.mean(ses**2)) / np.std(logs, ddof=1)
    _check(failures, 0.9 <= ratio <= 1.1,
           f"prob curve se/sd ratio {ratio:.3f} outside [0.9, 1.1]")

    b0 = np.linspace(-2.8, -2.0, J)
    beta_true = np.array([0.4, -0.3])
    expit = lambda z: 1.0 / (1.0 + np.exp(-z))
    rng = np.random.default_rng(410)
    for r in range(reps):
        y, delta, X = _simulate_discrete_cohort(
            rng, n, J, lambda j, Z: expit(b0[j] + Z @ beta_true), 0.02)
        data = _make(y, delta, X, J)
        fit = fit_beta(data, tol=1e-10)
        curve = odds_curve(data, fit, x0=x0)
        logs[r] = math.log(curve.survival[k - 1])
        ses[r] = curve.se_log_surv_robust[k - 1]
    ratio = math.sqrt(np.mean(ses**2)) / np.std(logs, ddof=1)
    _check(failures, 0.9 <= ratio <= 1.1,
           f"odds curve se/sd ratio {ratio:.3f} outside [0.9, 1.1]")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 300.0, f"runtime {elapsed:.0f}s >= 5min")
    _report(9, failures, elapsed)
