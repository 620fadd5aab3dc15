from __future__ import annotations

import io

import numpy as np
import pytest

import _oracles as o
from dsurv import (CensorOption, InputError, SimScenario, enumerate_conditional,
                   generate, replicate, summary_to_csv)
from dsurv import sim
from dsurv.sim import scenario_from_json_dict, scenario_to_json_dict


_BETA = np.array([-0.4, 0.5, 0.5, -0.5, -0.5])


def _scenario(**overrides):
    kwargs = dict(n=60, beta_star=_BETA, bin_width=0.25, reps=2, seed=7)
    kwargs.update(overrides)
    return SimScenario(**kwargs)


def test_generate_is_a_pure_function_of_seed_and_rep():
    sc = _scenario()
    a = generate(sc, 0)
    b = generate(sc, 0)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.delta, b.delta)
    np.testing.assert_array_equal(a.covariates_at(1), b.covariates_at(1))
    np.testing.assert_array_equal(a.grid.breakpoints, b.grid.breakpoints)

    c = generate(sc, 1)
    assert not np.array_equal(a.covariates_at(1), c.covariates_at(1))
    d = generate(_scenario(seed=8), 0)
    assert not np.array_equal(a.covariates_at(1), d.covariates_at(1))


def test_generated_covariates_follow_the_documented_laws():
    sc = _scenario(n=100000, seed=3)
    data = generate(sc, 0)
    X = data.covariates_at(1)
    assert data.covariate_names == ["Tr", "X1", "X2", "X3", "X4"]
    assert set(np.unique(X[:, 0])) == {1.0, 2.0}
    np.testing.assert_allclose(np.mean(X[:, 0] == 1.0), 0.5, atol=0.01)
    target = 2.0 ** -np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    np.testing.assert_allclose(np.cov(X[:, 1:].T), target, atol=0.02)
    np.testing.assert_allclose(X[:, 1:].mean(axis=0), np.zeros(4), atol=0.02)


def test_event_fraction_matches_the_zero_effect_law():
    # with beta* = 0 the event time is Exp(1) and censoring U(0, 4), so
    # P(event) = 1 - (1 - e^-4)/4
    sc = _scenario(n=100000, beta_star=np.zeros(5), seed=5)
    frac = float(np.mean(generate(sc, 0).delta))
    np.testing.assert_allclose(frac, 1.0 - (1.0 - np.exp(-4.0)) / 4.0,
                               atol=0.005)


def test_beta_test_censoring_touches_only_the_test_arm():
    uni = generate(_scenario(), 0)
    bet = generate(_scenario(censor_law="beta-test"), 0)
    np.testing.assert_array_equal(uni.covariates_at(1), bet.covariates_at(1))
    standard = uni.covariates_at(1)[:, 0] == 2.0
    np.testing.assert_array_equal(uni.delta[standard], bet.delta[standard])
    assert not np.array_equal(uni.delta, bet.delta)


def test_replicate_aggregates_do_not_depend_on_thread_count():
    sc = _scenario(n=80, reps=4, seed=11, bin_width=0.5)
    kwargs = dict(methods=("bp", "wmh"), variance_kinds=("mb2", "robust"))
    one = replicate(sc, threads=1, **kwargs)
    two = replicate(sc, threads=2, **kwargs)
    assert one.n_failed == two.n_failed
    for m in ("bp", "wmh"):
        np.testing.assert_array_equal(one.point_mean[m], two.point_mean[m])
        np.testing.assert_array_equal(one.point_sd[m], two.point_sd[m])
        for k in one.se_mean[m]:
            np.testing.assert_array_equal(one.se_mean[m][k], two.se_mean[m][k])
    assert one.coef_names == ["Tr", "X1", "X2", "X3", "X4"]
    assert one.reps == 4
    assert all(v == 0 for v in one.n_failed.values())
    assert np.all(np.isfinite(one.point_sd["bp"]))


def test_single_replicate_leaves_the_spread_undefined():
    summary = replicate(_scenario(n=80, reps=1, seed=11, bin_width=0.5),
                        methods=("bp",), variance_kinds=("mb2",))
    assert np.isnan(summary.point_sd["bp"]).all()
    assert np.isfinite(summary.point_mean["bp"]).all()
    assert summary.n_failed["bp"] == 0


def test_failed_fits_are_counted_and_excluded():
    # three subjects cannot identify five coefficients
    summary = replicate(_scenario(n=3, reps=2, seed=1),
                        methods=("bp", "wmh", "plogit"))
    for m in ("bp", "wmh", "plogit"):
        assert summary.n_failed[m] == 2
        assert np.isnan(summary.point_mean[m]).all()


@pytest.mark.parametrize("kwargs, message", [
    (dict(methods=("bp", "foo")), "unknown method 'foo'"),
    (dict(methods=()), "no method to fit"),
    (dict(variance_kinds=("robust", "zzz")), "unknown variance kind 'zzz'"),
    (dict(threads=0), "threads must be at least 1"),
    (dict(methods=("bp", "wmh", "bp")), "repeated method 'bp'"),
    (dict(variance_kinds=("robust", "robust")),
     "repeated variance kind 'robust'"),
], ids=["unknown-method", "no-methods", "unknown-kind", "no-threads",
        "repeated-method", "repeated-kind"])
def test_replicate_rejects_a_request_before_any_replicate_runs(
        kwargs, message, monkeypatch):
    # an unknown method was once counted as a failed fit in every
    # replicate, and an unknown kind dropped without a word
    def never(scenario, rep):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(sim, "generate", never)
    with pytest.raises(InputError, match=message):
        replicate(_scenario(reps=2), **kwargs)


def test_a_kind_that_one_method_defines_is_valid_for_any_method():
    # mb3 is defined for wmh only, old for bp only
    summary = replicate(_scenario(n=80, reps=1, seed=11, bin_width=0.5),
                        methods=("bp",), variance_kinds=("old", "mb3"))
    assert list(summary.se_mean["bp"]) == ["old"]
    assert summary.n_failed["bp"] == 0


def test_scenario_json_round_trip():
    sc = _scenario(event_law="weibull", shape_test=0.8, shape_standard=1.2,
                   censor_law="beta-test",
                   censor_option=CensorOption.CENSORED_EARLY, t_max=3.0)
    d = scenario_to_json_dict(sc)
    assert d["censor_option"] == "early"
    back = scenario_from_json_dict(d)
    assert back.censor_option is CensorOption.CENSORED_EARLY
    np.testing.assert_array_equal(back.beta_star, sc.beta_star)
    for name in ("n", "bin_width", "reps", "seed", "event_law", "shape_test",
                 "shape_standard", "censor_law", "t_max"):
        assert getattr(back, name) == getattr(sc, name)

    with pytest.raises(InputError, match="unknown"):
        scenario_from_json_dict(dict(d, extra_field=1))
    with pytest.raises(InputError, match="missing"):
        scenario_from_json_dict({"n": 10})


def test_scenario_validation():
    with pytest.raises(InputError):
        _scenario(beta_star=[0.1, 0.2])
    with pytest.raises(InputError):
        _scenario(n=0)
    with pytest.raises(InputError):
        _scenario(bin_width=0.0)
    with pytest.raises(InputError):
        _scenario(event_law="gamma")
    with pytest.raises(InputError):
        _scenario(censor_law="none")
    with pytest.raises(InputError):
        _scenario(event_law="weibull", shape_test=0.0)
    with pytest.raises(InputError):
        _scenario(t_max=-1.0)


def test_summary_csv_layout():
    sc = _scenario(n=80, reps=2, seed=11, bin_width=0.5)
    summary = replicate(sc, methods=("bp", "wmh"),
                        variance_kinds=("mb2", "robust"))
    buf = io.StringIO()
    summary_to_csv(summary, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == [
        "coef", "BP_mean", "BP_sd", "BP_se_mb2", "BP_se_robust",
        "wMH_mean", "wMH_sd", "wMH_se_mb2", "wMH_se_robust",
        "BP_failed", "wMH_failed"]
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "Tr"
    assert float(first[1]) == summary.point_mean["bp"][0]
    assert [row.split(",")[0] for row in lines[1:]] == summary.coef_names


def test_enumeration_matches_brute_force_for_the_probability_model():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(4, 2))
    coef = np.array([0.3, -0.2])
    eta = X @ coef
    em = enumerate_conditional(X, -1.5, coef, model="prob")
    p = np.exp(-1.5 + eta)
    mean, cov = o.enum_bernoulli(p, lambda D: o.prob_score(X, D, eta))
    np.testing.assert_allclose(em.score_mean, mean, atol=1e-12)
    np.testing.assert_allclose(em.score_cov, cov, atol=1e-12)
    meat, _ = o.enum_bernoulli(p, lambda D: o.prob_vhat(X, D, eta))
    np.testing.assert_allclose(em.meat_mean, meat, atol=1e-12)
    assert em.meat2_mean is None


def test_enumeration_matches_brute_force_for_the_odds_model():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(5, 2))
    coef = np.array([0.4, 0.1])
    eta = X @ coef
    em = enumerate_conditional(X, 0.4, coef, model="odds", given_Tj=2)
    mean, cov = o.enum_given_total(eta, 2, lambda D: o.odds_score(X, D, eta))
    np.testing.assert_allclose(em.score_mean, mean, atol=1e-12)
    np.testing.assert_allclose(em.score_cov, cov, atol=1e-12)
    meat, _ = o.enum_given_total(eta, 2, lambda D: o.odds_sigma_hat(X, D, eta))
    np.testing.assert_allclose(em.meat_mean, meat, atol=1e-12)
    meat2, _ = o.enum_given_total(eta, 2,
                                  lambda D: o.odds_sigma_tilde(X, D, eta))
    np.testing.assert_allclose(em.meat2_mean, meat2, atol=1e-10)


def test_enumeration_validates_its_inputs():
    X = np.ones((2, 1))
    with pytest.raises(InputError, match="max 20"):
        enumerate_conditional(np.ones((21, 1)), -1.0, [0.0])
    with pytest.raises(InputError, match="given_Tj"):
        enumerate_conditional(X, -1.0, [0.0], given_Tj=3)
    with pytest.raises(InputError, match="model"):
        enumerate_conditional(X, -1.0, [0.0], model="cox")
    with pytest.raises(InputError, match="above 1"):
        enumerate_conditional(X, 0.5, [0.0], model="prob")


def test_single_member_risk_sets_have_zero_moments():
    for model, intercept in (("prob", -1.0), ("odds", 0.3)):
        em = enumerate_conditional(np.array([[1.2]]), intercept, [0.5],
                                   model=model)
        np.testing.assert_array_equal(em.score_mean, [0.0])
        np.testing.assert_array_equal(em.score_cov, [[0.0]])
        np.testing.assert_array_equal(em.meat_mean, [[0.0]])


def test_wmh_from_the_bp_root_matches_its_own_start_exactly():
    # with bp fitted first, wmh starts from bp's root instead of
    # re-solving it; that is fit_beta's own default start
    sc = _scenario(reps=6)
    both = replicate(sc, methods=("bp", "wmh"))
    alone = replicate(sc, methods=("wmh",))
    assert both.n_failed["wmh"] == alone.n_failed["wmh"]
    np.testing.assert_array_equal(both.point_mean["wmh"], alone.point_mean["wmh"])
    np.testing.assert_array_equal(both.point_sd["wmh"], alone.point_sd["wmh"])
    assert both.se_mean["wmh"].keys() == alone.se_mean["wmh"].keys()
    for kind, se in alone.se_mean["wmh"].items():
        np.testing.assert_array_equal(both.se_mean["wmh"][kind], se)
