"""One risk-set engine per dataset, and Newton steps that cost one pass.

* A dataset builds its ``RiskSets`` once, however many fits, variances,
  influence rows and curves run on it, and a simulation replicate makes
  few aggregates passes.
* A variance, influence, baseline or curve computed after a fit, which
  may read the pass the fit ended on, equals the same call on a fresh
  copy of the dataset.
* An analysis computes each estimate once: ``fit_beta`` starts from the
  root ``fit_gamma`` left on the engine at the same settings, the
  variances read the pass each fit returned from, and the robust
  variance and the curve share one set of influence rows, which the
  public ``influence_*`` functions hand out as copies.
* ``prob._gain`` is the objective change of a step, and keeps its
  precision for steps whose gain is far below the objective's rounding,
  so the line search of ``fit_gamma`` does not stall on that rounding.
* The two-sample closed forms equal the regression fits on random
  nested tables (criterion 5 on a wider family of tables).
* Every fit rejects iteration settings under which it cannot converge.
"""

from __future__ import annotations

import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dsurv import (ConvergenceError, DiscreteSurvivalData, InputError, OddsFit,
                   ProbFit, SimScenario, StratifiedTables, TimeGrid,
                   baseline_log_hazards, baseline_log_odds, bp_two_sample,
                   expand_step_terms, fit_beta, fit_gamma, fit_plogit, generate,
                   hazard_variation_terms, hessian_gamma, influence_odds,
                   influence_prob, jacobian_beta, odds_curve, plogit_variances,
                   prob_cumhaz_alt, prob_curve, replicate, score_beta,
                   score_gamma, tables_to_survival, var_model_based,
                   var_model_based2, var_model_based2_odds,
                   var_model_based3_odds, var_model_based_odds, var_oldstyle,
                   var_robust, var_robust_odds, wmh_two_sample)
from dsurv import odds, prob
from dsurv._risksets import RiskSets
from dsurv.cli import main
from dsurv.io import SubjectTable, build_data

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])

# the criterion-6 scenario: n = 100 on fine bins, about 60 event intervals
_CRITERION_6 = dict(n=100, beta_star=[-0.4, 0.6, -0.4, 0.3, 0.1],
                    bin_width=0.01 * math.exp(0.4), seed=7)

_VETERAN = str(pathlib.Path(__file__).resolve().parents[1] / "data"
               / "veteran.csv")


@pytest.fixture
def counts(monkeypatch):
    """Running counts of ``RiskSets`` builds and of aggregates passes."""
    seen = {"builds": 0, "passes": 0}
    init, aggregates = RiskSets.__init__, RiskSets.aggregates

    def counted_init(self, data):
        seen["builds"] += 1
        init(self, data)

    def counted_aggregates(self, *args, **kwargs):
        seen["passes"] += 1
        return aggregates(self, *args, **kwargs)

    monkeypatch.setattr(RiskSets, "__init__", counted_init)
    monkeypatch.setattr(RiskSets, "aggregates", counted_aggregates)
    return seen


# ---------------------------------------------------------------------------
# one engine per dataset
# ---------------------------------------------------------------------------

def test_a_replicate_builds_one_engine(counts):
    scenario = SimScenario(reps=4, **_CRITERION_6)
    summary = replicate(scenario, methods=("bp", "wmh", "plogit"),
                        variance_kinds=("old", "mb", "mb2", "mb3", "robust"))
    assert sum(summary.n_failed.values()) == 0
    assert counts["builds"] == 4


def test_criterion_6_replicates_make_few_aggregates_passes(counts):
    # bp: the start and one pass per Newton step; wmh starts at the bp
    # root, whose pass the bp robust variance has already read
    reps = 40
    scenario = SimScenario(reps=reps, **_CRITERION_6)
    summary = replicate(scenario, methods=("bp", "wmh"),
                        variance_kinds=("robust",))
    assert sum(summary.n_failed.values()) == 0
    assert counts["passes"] / reps <= 8.0


@pytest.mark.parametrize("model", ["prob", "odds"])
def test_a_cli_fit_with_a_curve_builds_one_engine(model, counts, tmp_path,
                                                  capsys):
    code = main(["fit", "--model", model, "--data", _VETERAN,
                 "--tdc", "treat:100,200", "--variance", "mb2",
                 "--curve", str(tmp_path / "curve.csv"),
                 "--json", str(tmp_path / "fit.json")])
    assert code == 0
    assert counts["builds"] == 1


def test_plogit_fit_and_variances_build_one_engine(counts):
    data = generate(SimScenario(reps=1, **_CRITERION_6), 0)
    plogit_variances(data, fit_plogit(data, full_fisher=False))
    assert counts["builds"] == 1


# ---------------------------------------------------------------------------
# reuse gives the numbers of a fresh engine
# ---------------------------------------------------------------------------

def _sample(kind):
    # tied integer times, y = 0 subjects, covariates away from the origin
    rng = np.random.default_rng(23)
    n, J = 50, 6
    y = rng.integers(0, J + 1, n)
    delta = (rng.random(n) < 0.6) & (y > 0)
    X = rng.normal(size=(n, 2)) + [1.0, -2.0]
    data = DiscreteSurvivalData.from_arrays(TimeGrid(np.arange(1.0, J + 1)),
                                            y, delta, X)
    return expand_step_terms(data, 0, [2.5]) if kind == "step" else data


def _fresh(data):
    """A copy of ``data`` that shares no engine with it."""
    return DiscreteSurvivalData.from_arrays(
        data.grid, data.y.copy(), data.delta.copy(), data.epochs.copy(),
        data.firsts.copy(), data.ids, data.covariate_names)


def _values(result):
    """The arrays of a result, in a fixed order."""
    if isinstance(result, tuple):
        return [np.asarray(r) for r in result]
    for names in (("matrix",), ("total",),
                  ("hazards", "survival", "cumhaz", "se_log_surv_robust",
                   "se_log_surv_model_based")):
        if hasattr(result, names[0]):
            return [getattr(result, name) for name in names]
    return [np.asarray(result)]


_X0 = np.array([1.0, -2.0, 1.0])

# every public function of a fit's coefficients, by model
_CALLS = {
    "prob": [var_oldstyle, var_model_based, var_model_based2, var_robust,
             influence_prob,
             lambda data, fit: baseline_log_hazards(data, fit.gamma),
             lambda data, fit: score_gamma(data, fit.gamma),
             lambda data, fit: hessian_gamma(data, fit.gamma),
             lambda data, fit: prob_curve(data, fit, x0=_X0[:data.d]),
             lambda data, fit: prob_cumhaz_alt(data, fit, x0=_X0[:data.d]),
             hazard_variation_terms],
    "odds": [var_model_based_odds, var_model_based2_odds,
             var_model_based3_odds, var_robust_odds, influence_odds,
             lambda data, fit: baseline_log_odds(data, fit.beta),
             lambda data, fit: score_beta(data, fit.beta),
             lambda data, fit: jacobian_beta(data, fit.beta),
             lambda data, fit: odds_curve(data, fit, x0=_X0[:data.d])],
}


def _off_the_root(model, data, fit):
    """A hand-built fit at coefficients the solver never visited."""
    if model == "prob":
        gamma = fit.gamma + 0.05
        return ProbFit(gamma=gamma, gamma0=baseline_log_hazards(data, gamma),
                       hessian=fit.hessian, score_norm=0.0, iterations=0,
                       n=data.n)
    beta = fit.beta - 0.05
    return OddsFit(beta=beta, beta0=baseline_log_odds(data, beta),
                   jacobian=fit.jacobian, score_norm=0.0, iterations=0,
                   init="", n=data.n)


def _check_reuse(model, data):
    fit = (fit_gamma if model == "prob" else fit_beta)(data)
    # the fit, a hand-built fit elsewhere, then the fit again: every call
    # finds the engine as the calls before it left it
    for current in (fit, _off_the_root(model, data, fit), fit):
        for call in _CALLS[model]:
            got, want = _values(call(data, current)), _values(
                call(_fresh(data), current))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", ["static", "step"])
@pytest.mark.parametrize("model", ["prob", "odds"])
def test_calls_after_a_fit_equal_calls_on_a_fresh_copy(model, kind):
    _check_reuse(model, _sample(kind))


@pytest.mark.parametrize("kind", ["static", "step"])
def test_plogit_variances_after_a_fit_equal_those_of_a_fresh_copy(kind):
    data = _sample(kind)
    fit = fit_plogit(data, full_fisher=False)
    for got, want in zip(plogit_variances(data, fit),
                         plogit_variances(_fresh(data), fit)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_a_recentered_copy_has_its_own_engine():
    data = _sample("step")
    fit_gamma(data)
    shifted = data.recentered(_X0)
    assert shifted.risk_sets is not data.risk_sets
    assert data.risk_sets is data.risk_sets
    _check_reuse("prob", shifted)
    _check_reuse("odds", shifted)


# ---------------------------------------------------------------------------
# each estimate once per dataset
# ---------------------------------------------------------------------------

def _untied_table(n=200, seed=5):
    """Continuous times, no ties: one interval per distinct time, as in
    an original-scale analysis."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    X = np.column_stack([rng.integers(0, 2, n).astype(float),
                         rng.standard_normal((n, 2))])
    t_event = rng.exponential(np.exp(-X @ np.array([0.5, -0.3, 0.2])))
    t_cens = rng.uniform(0.0, 3.0, n)
    return SubjectTable(ids=[str(i + 1) for i in range(n)],
                        time=np.minimum(t_event, t_cens),
                        status=t_event <= t_cens, covariates=X,
                        names=["treat", "z1", "z2"])


def _counted_gamma_fits(monkeypatch):
    calls = []

    def counted(data, **kwargs):
        calls.append(kwargs)
        return fit_gamma(data, **kwargs)

    monkeypatch.setattr(odds, "fit_gamma", counted)
    return calls


def _same_odds_fit(got, want):
    assert got.init == want.init
    assert got.iterations == want.iterations
    for name in ("beta", "beta0", "jacobian"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("kind", ["static", "step"])
def test_fit_beta_starts_from_the_root_fit_gamma_left(kind, monkeypatch):
    data = _sample(kind)
    pfit = fit_gamma(data)
    pfit.gamma += 1.0  # the engine keeps its own copy of the root
    calls = _counted_gamma_fits(monkeypatch)
    ofit = fit_beta(data)
    assert calls == []
    want = fit_beta(_fresh(data))
    assert len(calls) == 1
    _same_odds_fit(ofit, want)
    assert ofit.init == "breslow-peto"


@pytest.mark.parametrize("settings", [{"tol": 1e-7}, {"max_iter": 30}])
def test_fit_beta_solves_again_at_other_settings(settings, monkeypatch):
    data = _sample("static")
    fit_gamma(data)
    calls = _counted_gamma_fits(monkeypatch)
    ofit = fit_beta(data, **settings)
    assert calls == [dict({"tol": 1e-9, "max_iter": 50}, **settings)]
    # the new solve left its own root, which the next call reads
    _same_odds_fit(fit_beta(data, **settings), ofit)
    assert len(calls) == 1
    _same_odds_fit(ofit, fit_beta(_fresh(data), **settings))


def test_fit_beta_starts_from_zero_when_no_root_can_be_solved(monkeypatch):
    def fails(data, **kwargs):
        raise ConvergenceError("no root", iterations=1, score_norm=1.0)

    monkeypatch.setattr(odds, "fit_gamma", fails)
    data = _sample("static")
    fit = fit_beta(data)
    assert fit.init == "zero (breslow-peto start unavailable)"
    zero = fit_beta(_fresh(data), init=np.zeros(data.d))
    assert fit.iterations == zero.iterations
    np.testing.assert_array_equal(fit.beta, zero.beta)


@pytest.mark.parametrize("width, steps", [(None, 0), (0.25, 3)],
                         ids=["original", "binned"])
def test_an_analysis_makes_a_pinned_number_of_passes(width, steps, counts):
    # the sequence of an analysis: both fits, plogit, their variances and
    # both curves; without ties the bp root is also the wmh root
    data = build_data(_untied_table(), width=width)
    x0 = np.ones(data.d)
    pfit = fit_gamma(data)
    assert (pfit.iterations, counts["passes"]) == (3, 4)  # start + 3 steps
    ofit = fit_beta(data)  # from the kept root, whose pass is kept too
    assert (ofit.iterations, counts["passes"]) == (steps, 4 + steps)
    lfit = fit_plogit(data)
    pmb2 = var_model_based2(data, pfit)
    var_robust(data, pfit)
    omb2 = var_model_based2_odds(data, ofit)
    var_robust_odds(data, ofit)
    plogit_variances(data, lfit)
    assert counts["passes"] == 4 + steps  # each reads its fit's last pass
    var_model_based3_odds(data, ofit)  # the w^2 sums: one pass
    prob_curve(data, pfit, x0=x0, variance=pmb2)  # one payload pass each
    odds_curve(data, ofit, x0=x0, variance=omb2)
    assert counts["passes"] == 7 + steps
    assert counts["builds"] == 1


@pytest.mark.parametrize("first", ["prob", "odds"])
def test_each_fit_keeps_its_last_pass_through_the_other_fit(first, counts):
    data = _sample("step")
    fits = {}
    for model in (first, "odds" if first == "prob" else "prob"):
        fits[model] = (fit_gamma(data) if model == "prob"
                       else fit_beta(data, init=np.zeros(data.d)))
    made = counts["passes"]
    var_model_based2(data, fits["prob"])
    var_model_based2_odds(data, fits["odds"])
    var_robust(data, fits["prob"])
    var_robust_odds(data, fits["odds"])
    assert counts["passes"] == made


@pytest.mark.parametrize("first", ["prob", "odds"])
@pytest.mark.parametrize("kind", ["static", "step"])
def test_both_models_on_one_dataset_equal_fresh_copies(kind, first):
    data = _sample(kind)
    fits = {"prob": fit_gamma(data), "odds": fit_beta(data)}
    order = [first, "odds" if first == "prob" else "prob"]
    for model in order + order:  # each after the other, then again
        for call in _CALLS[model]:
            got = _values(call(data, fits[model]))
            want = _values(call(_fresh(data), fits[model]))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


def test_changing_returned_influence_rows_changes_no_later_result():
    data = _sample("step")
    pfit, ofit = fit_gamma(data), fit_beta(data)
    x0 = _X0[:data.d]
    calls = [lambda: var_robust(data, pfit), lambda: var_robust_odds(data, ofit),
             lambda: prob_curve(data, pfit, x0=x0),
             lambda: odds_curve(data, ofit, x0=x0)]
    before = [_values(call()) for call in calls]
    # the rows they share are read-only
    assert not prob._influence_rows(data.risk_sets, pfit.gamma).flags.writeable
    assert not odds._influence_rows_odds(data.risk_sets,
                                         ofit.beta).flags.writeable
    for influence, fit in ((influence_prob, pfit), (influence_odds, ofit)):
        rows = influence(data, fit).total
        assert rows.flags.writeable
        kept = rows.copy()
        rows *= 10.0
        np.testing.assert_array_equal(influence(data, fit).total, kept)
    for call, want in zip(calls, before):
        for g, w in zip(_values(call()), want):
            np.testing.assert_array_equal(g, w)


# ---------------------------------------------------------------------------
# the gain of a step
# ---------------------------------------------------------------------------

@st.composite
def designs(draw):
    """(data, gamma): a random design, static or with a step term, with
    ties and ``y = 0`` subjects, and a coefficient vector."""
    J = draw(st.integers(1, 6))
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    y = np.array(draw(st.lists(st.integers(0, J), min_size=n, max_size=n)))
    delta = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    delta &= y > 0
    y[0], delta[0] = 1, True  # one event at least
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, d)) * draw(st.sampled_from([1.0, 30.0]))
    gamma = rng.normal(scale=0.8, size=d) / np.max(np.abs(X))
    data = DiscreteSurvivalData.from_arrays(TimeGrid(np.arange(1.0, J + 1)),
                                            y, delta, X)
    if J > 1 and draw(st.booleans()):
        data = expand_step_terms(data, d - 1, [draw(st.integers(1, J - 1)) + 0.5])
        gamma = np.r_[gamma, rng.normal(scale=0.5) / np.max(np.abs(X))]
    return data, gamma


@_SETTINGS
@given(designs(), st.integers(0, 2 ** 32 - 1))
def test_gain_is_the_change_in_the_objective(case, seed):
    data, gamma = case
    n = data.n
    x = max(1.0, float(np.max(np.abs(data.epochs))))
    rng = np.random.default_rng(seed)
    # every centred row moves by at most 1, where the gain is trusted
    step = rng.normal(size=data.d)
    step /= 2.0 * x * np.sum(np.abs(step))
    rs = data.risk_sets
    a = rs.full(gamma)
    gain = prob._gain(rs, a, gamma, step)
    tiny = 1e-12
    tiny_gain = prob._gain(rs, a, gamma, tiny * step)
    # a unit step against the difference of two objectives, which
    # carries their rounding
    eta = x * float(np.sum(np.abs(gamma) + np.abs(step)))
    diff = (prob._objective(RiskSets(data), gamma + step)
            - prob._objective(RiskSets(data), gamma))
    assert abs(gain - diff) <= 1e-10 * n * (1.0 + eta)
    # a step whose gain is far below that rounding against the
    # second-order expansion, exact to third order in the step
    score, hess = n * score_gamma(data, gamma), n * hessian_gamma(data, gamma)
    quad = tiny * (score @ step) - 0.5 * tiny ** 2 * (step @ hess @ step)
    size = tiny * n * x * float(np.sum(np.abs(step)))
    assert abs(tiny_gain - quad) <= 1e-6 * (abs(quad) + size)


def test_gain_is_untrusted_for_a_step_that_moves_a_row_by_more_than_one():
    data = _sample("static")
    rs = data.risk_sets
    gamma = np.zeros(data.d)
    assert prob._gain(rs, rs.full(gamma), gamma, np.array([2.0, 0.0])) == -np.inf


def test_a_replicate_whose_line_search_stalled_on_rounding_converges():
    # replicate 7 of the criterion-6 scenario: the step-halving test on
    # the objective alone took 7 Newton steps and 77 objective
    # evaluations here, ending on the plain-Newton fallback, with these
    # estimates
    stalled = [-0.5831327593527286, 0.740442607691854, -0.33801494257082065,
               0.1265701887004653, -0.004319233724426449]
    data = generate(SimScenario(reps=1, **_CRITERION_6), 7)
    fit = fit_gamma(data)
    assert fit.iterations <= 4
    np.testing.assert_allclose(fit.gamma, stalled, rtol=0.0, atol=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("design", ["high", "low", "step"])
@pytest.mark.parametrize("scale", [1e2, 1e3])
def test_odds_newton_converges_through_extreme_predictors(scale, design,
                                                         monkeypatch):
    # the separated designs of test_prefix_sums, solved from zero so that
    # the Newton iterates cross linear predictors spread over thousands
    # inside one risk set, with the analytic Jacobian alone
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
    coefs = []
    aggregates = RiskSets.aggregates

    def recorded(self, coef, *args, **kwargs):
        coefs.append(np.array(coef))
        return aggregates(self, coef, *args, **kwargs)

    monkeypatch.setattr(RiskSets, "aggregates", recorded)
    fit = fit_beta(data, init=np.zeros(data.d))
    assert fit.iterations > 20 and fit.score_norm <= 1e-9
    assert np.all(np.isfinite(fit.beta))
    spread = max(np.ptp(data.covariates_at(j)[data.y >= j] @ coef)
                 for coef in coefs for j in range(1, J + 1))
    assert spread > 745.0


# ---------------------------------------------------------------------------
# closed forms on random nested tables
# ---------------------------------------------------------------------------

@st.composite
def nested_tables(draw):
    """Nested stratified 2x2 tables: each group's risk set shrinks by its
    events and censored subjects from one stratum to the next; cells may
    be zero."""
    J = draw(st.integers(1, 5))
    at = [draw(st.integers(1, 30)), draw(st.integers(1, 30))]
    cells = {"n11": [], "n12": [], "n21": [], "n22": []}
    for _ in range(J):
        for g, (ev, free) in enumerate((("n11", "n12"), ("n21", "n22"))):
            events = draw(st.integers(0, at[g]))
            cells[ev].append(events)
            cells[free].append(at[g] - events)
            at[g] -= events + draw(st.integers(0, at[g] - events))
    return StratifiedTables(**cells)


def _or_none(fn, *args):
    try:
        return fn(*args)
    except (InputError, ConvergenceError):
        return None


@_SETTINGS
@given(nested_tables())
def test_closed_forms_equal_the_regression_fits_on_random_tables(tables):
    bp = _or_none(bp_two_sample, tables)
    wmh = _or_none(wmh_two_sample, tables)
    assume(bp is not None or wmh is not None)
    data = tables_to_survival(tables)
    if bp is not None:
        fit = fit_gamma(data, tol=1e-13)
        np.testing.assert_allclose(fit.gamma[0], bp.estimate, rtol=0.0,
                                   atol=1e-8)
        _close_variances([bp.var_model_based2, bp.var_robust],
                         [var_model_based2(data, fit), var_robust(data, fit)])
    if wmh is not None:
        fit = fit_beta(data, tol=1e-13)
        np.testing.assert_allclose(fit.beta[0], wmh.estimate, rtol=0.0,
                                   atol=1e-8)
        _close_variances(
            [wmh.var_model_based2, wmh.var_model_based3, wmh.var_robust],
            [var_model_based2_odds(data, fit), var_model_based3_odds(data, fit),
             var_robust_odds(data, fit)])


def _close_variances(closed, fitted):
    np.testing.assert_allclose(
        closed, [v.covariance[0, 0] for v in fitted], rtol=1e-8, atol=1e-14)


# ---------------------------------------------------------------------------
# iteration settings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("settings, message", [
    ({"tol": -1.0}, "tol must be a positive finite number (got -1.0)"),
    ({"tol": 0.0}, "tol must be a positive finite number (got 0.0)"),
    ({"tol": math.nan}, "tol must be a positive finite number (got nan)"),
    ({"tol": math.inf}, "tol must be a positive finite number (got inf)"),
    ({"max_iter": 0}, "max_iter must be at least 1 (got 0)"),
    ({"max_iter": -2}, "max_iter must be at least 1 (got -2)"),
], ids=["negative", "zero", "nan", "inf", "no-iterations", "negative-budget"])
@pytest.mark.parametrize("fit", [fit_gamma, fit_beta, fit_plogit],
                         ids=lambda fit: fit.__name__)
def test_fits_reject_settings_under_which_they_cannot_converge(fit, settings,
                                                               message):
    # these once ran the whole budget (or none of it) and then raised
    # ConvergenceError
    data = generate(SimScenario(reps=1, **_CRITERION_6), 0)
    with pytest.raises(InputError, match=re.escape(f"{fit.__name__}: {message}")):
        fit(data, **settings)
    fit(data, tol=1e-9, max_iter=50)
