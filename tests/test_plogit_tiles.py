"""The person-period kernel of ``plogit``, tiles and power series,
against the literal loop.

The log likelihood, the scores, the arrow-structured information blocks
and the per-subject score rows of the robust variance are compared with
the per-interval loop of ``_oracles`` on random designs with ties,
all-event and event-free intervals (both excluded from the likelihood),
``y = 0`` subjects, step terms and linear predictors in the hundreds,
with tile budgets small enough to split tiles inside and across epochs.
Shifted intercepts force each tile form (the outer product where every
``Z <= 0``, ``e^{-|Z|}`` elsewhere), and the closed-form starting pass
is compared with a tiled pass at the same point.  Intercepts that keep
every odds below ``_RHO``, and a cost rule patched to take it wherever
it may, force the power-series path: at odds levels that need from one
to all of its terms, in epochs where one interval's odds exceed the
bound (that interval stays on tiles), with step terms, and with an
``eta`` spread past the guard on the powers (all on tiles).  A fit's dense
information, assembled on first access from the arrow blocks the fit
keeps, is compared with the assembly ``fit_plogit`` once made eagerly.
"""

from __future__ import annotations

import contextlib
import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import _oracles as o
from dsurv import (ConvergenceError, DiscreteSurvivalData, SimScenario,
                   SingularMatrixError, Static, SubjectRecord, TimeGrid,
                   expand_step_terms, fit_plogit, generate, plogit_variances,
                   replicate)
from dsurv import _risksets, plogit
from dsurv.cli import main
from dsurv.io import SubjectTable, build_data, read_subject_csv
from dsurv.plogit import _RHO, _SPREAD, _TERMS, _PersonPeriod

_RTOL = 1e-10

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _close(got, want, scale, rtol=_RTOL):
    """Equal within ``rtol`` relative to the larger of ``scale`` (the
    size of the terms summed) and the largest entry of ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.isfinite(got))
    scale = max(scale, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


@st.composite
def designs(draw):
    """(data, b0, beta, tile budget) with at least one included interval."""
    J = draw(st.integers(1, 6))
    n = draw(st.integers(3, 24))
    d = draw(st.integers(1, 3))
    y = np.array(draw(st.lists(st.integers(0, J), min_size=n, max_size=n)))
    delta = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    delta &= y > 0
    if draw(st.booleans()):
        # an all-event interval at the last occupied level
        delta |= (y == y.max()) & (y > 0)
    # one included interval at least: two subjects at risk in interval 1,
    # one with an event there and one without
    y[:2] = [1, max(J, 1)]
    delta[:2] = [True, False]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, d))
    beta = rng.normal(scale=0.8, size=d)
    if draw(st.booleans()):
        # linear predictors in the hundreds, of both signs
        beta[0] = draw(st.sampled_from([-150.0, 120.0, 300.0]))
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(n)]
    data = DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)
    if J > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, J - 1)) + 0.5
        data = expand_step_terms(data, d - 1, [cut])
        beta = np.r_[beta, rng.normal(scale=0.5)]
    live, _ = o.plogit_person_period(data)
    b0 = rng.normal(scale=2.0, size=int(live.sum()))
    budget = draw(st.sampled_from([1, 3, 7, 40, 2 ** 16]))
    return data, b0, beta, budget


def _x_size(data):
    X = np.stack([data.covariates_at(j)
                  for j in range(1, data.n_intervals + 1)])
    return max(1.0, float(np.max(np.abs(X))))


def _loglik_terms(data, b0, beta):
    """A bound on the summed size of the log likelihood's terms."""
    z_max = (float(np.max(np.abs(b0)))
             + _x_size(data) * float(np.sum(np.abs(beta))))
    return data.n * data.n_intervals * (1.0 + z_max)


@contextlib.contextmanager
def _paths():
    """Count the sums by path: ``"tiles"`` all tiles, ``"probs"`` those
    that took the ``e^{-|Z|}`` form rather than the outer product, and
    ``"series"`` the epochs summed by the power series."""
    counts = {"tiles": 0, "probs": 0, "series": 0}
    tile, probs, series = (_PersonPeriod._tile, _PersonPeriod._probs,
                           _PersonPeriod._series)

    def counted_tile(self, *args, **kwargs):
        counts["tiles"] += 1
        return tile(self, *args, **kwargs)

    def counted_probs(self, *args):
        counts["probs"] += 1
        return probs(self, *args)

    def counted_series(self, *args):
        counts["series"] += 1
        return series(self, *args)

    with mock.patch.object(_PersonPeriod, "_tile", counted_tile), \
            mock.patch.object(_PersonPeriod, "_probs", counted_probs), \
            mock.patch.object(_PersonPeriod, "_series", counted_series):
        yield counts


def _check_against_the_loop(data, b0, beta, budget):
    """The pass and the score rows at ``(b0, beta)`` equal the loop's;
    returns the tile counts of ``_paths`` and the loop's ``(a, C)``."""
    n, d, J = data.n, data.d, data.n_intervals
    x = _x_size(data)
    live, triples = o.plogit_person_period(data)
    with mock.patch.object(_risksets, "_TILE", budget), _paths() as counts:
        pp = _PersonPeriod(data)
        got = pp.evaluate(b0, beta)
        ratio = got.C / got.a[:, None]
        q = pp.subject_scores(b0, beta, ratio)
    np.testing.assert_array_equal(pp.live, live)
    r0, rb, a, C, F = o.plogit_score_info(triples, b0, beta, d)
    _close(got.loglik, o.plogit_loglik(triples, b0, beta),
           _loglik_terms(data, b0, beta))
    _close(got.r0, r0, n)
    _close(got.rb, rb, n * x)
    _close(got.a, a, n)
    _close(got.C, C, n * x)
    _close(got.F, F, n * x * x)
    _close(q, o.plogit_subject_scores(triples, n, b0, beta, ratio), J * x)
    return counts, got, (a, C)


@_SETTINGS
@given(designs())
def test_tiled_pass_and_score_rows_match_the_loop(case):
    _check_against_the_loop(*case)


@_SETTINGS
@given(designs(), st.sampled_from(["nonpositive", "positive"]))
def test_each_tile_path_matches_the_loop(case, side):
    # intercepts shifted so that every Z = b0_k + eta_i is at most 0,
    # where every tile is an outer product, or above 0, where none is.
    # The whole budget puts every interval of an epoch in one tile, with
    # entries past the risk sets of all but the first
    data, b0, beta, budget = case
    eta = np.stack([data.covariates_at(j) @ beta
                    for j in range(1, data.n_intervals + 1)])
    if side == "nonpositive":
        b0 = -np.abs(b0) - eta.max()
    else:
        b0 = np.abs(b0) - eta.min() + 0.5
    for tiles in {budget, 2 ** 16}:
        counts, _, _ = _check_against_the_loop(data, b0, beta, tiles)
        assert counts["tiles"] > 0
        assert counts["probs"] == (0 if side == "nonpositive"
                                   else counts["tiles"])


def test_a_positive_row_with_a_wide_eta_spread_is_not_an_outer_product():
    # one tile holds every row.  Subject 1's eta is its largest, c = 400,
    # and the others' are near -400.  With b0_k = 300 every row has
    # b0_k + c = 700 > 0, and e^{eta_i - c} underflows for the others
    # although their Z near -100 carries nearly all of a_k: subject 1's
    # variance is e^{-700}.  An outer product would drop them and leave
    # a_k 261 orders of magnitude too small
    X = np.array([[400.0], [-400.0], [-399.0], [-401.0], [-400.5]])
    y = np.array([2, 2, 1, 2, 2])
    delta = np.array([False, True, True, False, True])
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(y.size)]
    data = DiscreteSurvivalData(TimeGrid(np.arange(1.0, 3.0)), subs)
    counts, got, (a, C) = _check_against_the_loop(
        data, np.array([300.0, 300.0]), np.array([1.0]), 2 ** 16)
    assert counts["probs"] == counts["tiles"] > 0
    # a sum of positive terms, and C_k / a_k a weighted mean of X, are
    # equal relative to their own size
    np.testing.assert_allclose(got.a, a, rtol=_RTOL)
    np.testing.assert_allclose(got.C / got.a[:, None], C / a[:, None],
                               rtol=_RTOL)


def _intercepts_at(data, beta, top):
    """Intercepts that give included interval ``k`` the largest odds
    ``top[k]`` over its risk set."""
    _, triples = o.plogit_person_period(data)
    return np.log(top) - np.array([float(np.max(X @ beta))
                                   for _, X, _ in triples])


def _series_check(data, b0, beta, budget=2 ** 16):
    """``_check_against_the_loop`` with the series taken wherever the
    odds and the guard on the powers let it."""
    with mock.patch.object(plogit, "_SERIES_GAIN", 0.0):
        return _check_against_the_loop(data, b0, beta, budget)


def _small_design(seed, n=40, J=8, d=3):
    """(data, beta): ties, event-free and y = 0 subjects."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, J + 1, n)
    delta = (rng.random(n) < 0.6) & (y > 0)
    y[:2], delta[:2] = [1, J], [True, False]
    data = DiscreteSurvivalData.from_arrays(TimeGrid(np.arange(1.0, J + 1)),
                                            y, delta, rng.normal(size=(n, d)))
    return data, rng.normal(scale=0.8, size=d)


@_SETTINGS
@given(designs(), st.sampled_from([_RHO, 1e-3, 1e-9, 1e-20]))
def test_the_series_pass_and_score_rows_match_the_loop(case, level):
    # every odds at most `level`: the series takes every interval of an
    # epoch whose eta spread keeps the powers in range, in one term at
    # 1e-20 and up to _TERMS at _RHO
    data, b0, beta, budget = case
    b0 = _intercepts_at(data, beta, level * np.exp(-np.abs(b0)))
    counts, _, _ = _series_check(data, b0, beta, budget)
    eta = np.stack([data.covariates_at(j) @ beta
                    for j in range(1, data.n_intervals + 1)])
    if _TERMS * (eta.max() - eta.min()) <= _SPREAD:
        assert counts["series"] > 0 and counts["tiles"] == 0


@pytest.mark.parametrize("level", [1e-9, 1e-3, _RHO])
def test_the_series_terms_bound_the_truncation_below_rounding(level):
    # sums of positive terms, and C_k / a_k a weighted mean of X, are
    # compared relative to their own size, so one term too few shows:
    # at odds up to 1e-9 the series takes two terms, and one alone would
    # leave a relative error of 2e-9 in a_k
    for seed in range(3):
        data, beta = _small_design(seed)
        top = level * np.exp(-np.random.default_rng(seed).exponential(
            size=int(o.plogit_person_period(data)[0].sum())))
        top[0] = level
        counts, got, (a, C) = _series_check(
            data, _intercepts_at(data, beta, top), beta)
        assert counts["series"] == 2 and counts["tiles"] == 0
        np.testing.assert_allclose(got.a, a, rtol=_RTOL)
        np.testing.assert_allclose(got.C / got.a[:, None], C / a[:, None],
                                   rtol=_RTOL, atol=_RTOL)


@pytest.mark.parametrize("excess", [1.01, 100.0])
def test_an_interval_above_the_bound_stays_on_the_tiles(excess):
    # one epoch whose intervals all have odds below _RHO but one, in the
    # middle, whose largest odds are `excess` times _RHO: the series
    # takes the others, and that one goes to a tile
    for seed in range(3):
        data, beta = _small_design(seed)
        K = int(o.plogit_person_period(data)[0].sum())
        top = 0.5 * _RHO * np.exp(-np.random.default_rng(seed).exponential(
            size=K))
        top[K // 2] = excess * _RHO
        counts, _, _ = _series_check(data, _intercepts_at(data, beta, top),
                                     beta)
        assert counts["series"] == 2 and counts["tiles"] > 0


@pytest.mark.parametrize("spread", [40.0, 700.0])
def test_an_eta_spread_past_the_guard_stays_on_the_tiles(spread):
    # odds at most 1e-3, so up to six terms: at an eta spread of 40 the
    # powers u^t and v^t reach e^{+-240} and the series is taken; past
    # _SPREAD even one term could overflow u or underflow v, and every
    # interval goes to the tiles
    data, beta = _small_design(0, d=1)
    X = np.linspace(-0.5, 0.5, data.n)[:, None] * spread
    data = DiscreteSurvivalData.from_arrays(data.grid, data.y, data.delta, X)
    beta = np.ones(1)
    K = int(o.plogit_person_period(data)[0].sum())
    top = 1e-3 * np.exp(-np.random.default_rng(1).exponential(size=K))
    counts, _, _ = _series_check(data, _intercepts_at(data, beta, top), beta)
    if spread > _SPREAD:
        assert counts["series"] == 0 and counts["tiles"] > 0
    else:
        assert counts["series"] == 2 and counts["tiles"] == 0


def test_each_step_term_epoch_takes_the_series():
    # veterans data on the original scale with step terms at 100 and 200
    # days: three epochs, each summed by the series at odds below 1e-3
    path = pathlib.Path(__file__).resolve().parents[1] / "data" / "veteran.csv"
    table = read_subject_csv(path)
    data = expand_step_terms(build_data(table), table.names.index("treat"),
                             [100.0, 200.0])
    beta = np.random.default_rng(2).normal(scale=0.02, size=data.d)
    K = int(o.plogit_person_period(data)[0].sum())
    top = 1e-3 * np.exp(-np.random.default_rng(3).exponential(size=K))
    counts, _, _ = _series_check(data, _intercepts_at(data, beta, top), beta)
    assert counts["series"] == 2 * 3 and counts["tiles"] == 0


def _check_start(data, budget=2 ** 16):
    """``start()`` is the pass at ``beta = 0``, ``b0 = logit(T / m)``."""
    n, x = data.n, _x_size(data)
    with mock.patch.object(_risksets, "_TILE", budget):
        pp = _PersonPeriod(data)
        b0, beta, got = pp.start()
        want = pp.evaluate(np.log(pp.T / (pp.m - pp.T)), np.zeros(data.d))
    np.testing.assert_array_equal(b0, np.log(pp.T / (pp.m - pp.T)))
    np.testing.assert_array_equal(beta, np.zeros(data.d))
    for name, scale in (("loglik", 0.0), ("r0", n), ("rb", n * x),
                        ("a", 0.0), ("C", n * x), ("F", 0.0)):
        _close(getattr(got, name), getattr(want, name), scale, rtol=1e-12)
    return pp


@_SETTINGS
@given(designs())
def test_the_closed_form_start_is_the_pass_at_the_start_point(case):
    # static and step-term designs with ties, all-event and event-free
    # intervals and y = 0 subjects
    data, _, _, budget = case
    _check_start(data, budget)


@pytest.mark.parametrize("width", [None, 20.0], ids=["original", "20-day"])
def test_the_closed_form_start_on_the_veterans_data_with_step_terms(width):
    path = pathlib.Path(__file__).resolve().parents[1] / "data" / "veteran.csv"
    table = read_subject_csv(path)
    data = expand_step_terms(build_data(table, width=width),
                             table.names.index("treat"), [100.0, 200.0])
    pp = _check_start(data)
    assert len(pp.epochs) == 3 and not pp.live.all()


@_SETTINGS
@given(designs(), st.integers(0, 2 ** 32 - 1))
def test_gain_is_the_change_in_log_likelihood(case, seed):
    data, b0, beta, budget = case
    d = data.d
    _, triples = o.plogit_person_period(data)
    rng = np.random.default_rng(seed)
    step0 = rng.normal(size=b0.size)
    step = rng.normal(size=d) / _x_size(data)
    r0, rb, a, C, F = o.plogit_score_info(triples, b0, beta, d)
    before = o.plogit_loglik(triples, b0, beta)
    with mock.patch.object(_risksets, "_TILE", budget):
        pp = _PersonPeriod(data)
        gain = pp.gain(b0, beta, step0, step)
        tiny = 1e-12
        tiny_gain = pp.gain(b0, beta, tiny * step0, tiny * step)
    # a unit step against the loop's difference, which carries the
    # rounding of the terms of the two log likelihoods
    after = o.plogit_loglik(triples, b0 + step0, beta + step)
    terms = _loglik_terms(data, np.abs(b0) + np.abs(step0),
                          np.abs(beta) + np.abs(step))
    _close(gain, after - before, terms)
    # a step whose gain is far below that rounding against the
    # second-order expansion, exact to third order in the step
    curvature = a @ step0 ** 2 + 2.0 * step0 @ C @ step + step @ F @ step
    quad = tiny * (r0 @ step0 + rb @ step) - 0.5 * tiny ** 2 * curvature
    assert abs(tiny_gain - quad) <= 1e-6 * abs(quad) + 1e-300


def test_a_gain_below_the_log_likelihoods_rounding_is_taken():
    # veterans data, 20-day grid, step terms at 100 and 200 days: the
    # fifth Newton step raises the log likelihood by about 1.3e-14, below
    # the 5.7e-14 spacing of doubles at -313.8, so the two log
    # likelihoods alone cannot tell whether it is an ascent step
    path = pathlib.Path(__file__).resolve().parents[1] / "data" / "veteran.csv"
    table = read_subject_csv(path)
    data = expand_step_terms(build_data(table, width=20.0),
                             table.names.index("treat"), [100.0, 200.0])
    evaluations = []
    evaluate, start = _PersonPeriod.evaluate, _PersonPeriod.start

    def counted(self, b0, beta):
        evaluations.append(1)
        return evaluate(self, b0, beta)

    def counted_start(self):
        evaluations.append(1)
        return start(self)

    with mock.patch.object(_PersonPeriod, "evaluate", counted), \
            mock.patch.object(_PersonPeriod, "start", counted_start):
        fit = fit_plogit(data)
    assert fit.iterations == 5
    assert len(evaluations) == 6  # the start and one per Newton step


@pytest.mark.parametrize("width, rep", [(0.01, 8), (0.2, 2)],
                         ids=["criterion-6", "criterion-7"])
def test_a_rounding_tie_near_the_optimum_converges_without_a_fallback(width,
                                                                      rep):
    # replicates of the criterion-6 and -7 scenarios whose last Newton
    # step leaves the log likelihood unchanged in double precision while
    # the score is still above tol.  Step-halving on the log likelihood
    # alone stalls there, which a plain-Newton fallback once caught; the
    # gain test takes the step, and the fallback never fired over 2,000
    # replicates of either scenario.  Which replicates tie depends on the
    # last bits of the pass; these are the first that do in each scenario
    scenario = SimScenario(n=100, beta_star=[-0.4, 0.6, -0.4, 0.3, 0.1],
                           bin_width=width * math.exp(0.4), reps=1, seed=7)
    logliks = []
    evaluate, start = _PersonPeriod.evaluate, _PersonPeriod.start

    def recorded(self, b0, beta):
        out = evaluate(self, b0, beta)
        logliks.append(out.loglik)
        return out

    def recorded_start(self):
        out = start(self)
        logliks.append(out[2].loglik)
        return out

    with mock.patch.object(_PersonPeriod, "evaluate", recorded), \
            mock.patch.object(_PersonPeriod, "start", recorded_start):
        fit = fit_plogit(generate(scenario, rep), full_fisher=False)
    assert fit.score_norm <= 1e-9
    assert len(logliks) == fit.iterations + 1  # no step was halved
    assert logliks[-1] <= logliks[-2]
    with mock.patch.object(_PersonPeriod, "gain", lambda *args: -np.inf):
        with pytest.raises(ConvergenceError, match="line search stalled"):
            fit_plogit(generate(scenario, rep), full_fisher=False)


def test_a_step_that_ties_the_log_likelihood_is_taken_on_its_gain():
    # every candidate pass is given the start's log likelihood, so each
    # ties the current one exactly, whatever the kernel's last bits:
    # only the gain test can take a step, and it takes each at full
    # length, along the path of the fit without ties
    path = pathlib.Path(__file__).resolve().parents[1] / "data" / "veteran.csv"
    data = build_data(read_subject_csv(path), width=20.0)
    want = fit_plogit(data)
    evaluate, start, gain = (_PersonPeriod.evaluate, _PersonPeriod.start,
                             _PersonPeriod.gain)
    passes, gains = [], []

    def started(self):
        out = start(self)
        passes.append(out[2].loglik)
        return out

    def tied(self, b0, beta):
        out = evaluate(self, b0, beta)
        out.loglik = passes[0]
        passes.append(out.loglik)
        return out

    def recorded(self, *args):
        gains.append(gain(self, *args))
        return gains[-1]

    with mock.patch.object(_PersonPeriod, "start", started), \
            mock.patch.object(_PersonPeriod, "evaluate", tied), \
            mock.patch.object(_PersonPeriod, "gain", recorded):
        fit = fit_plogit(data)
    assert fit.iterations == want.iterations > 1
    assert len(passes) == len(gains) + 1 == fit.iterations + 1
    assert min(gains) > 0.0
    np.testing.assert_array_equal(fit.beta, want.beta)
    np.testing.assert_array_equal(fit.beta0, want.beta0)
    # with no gain either, the first step is halved to the end
    passes.clear()
    with mock.patch.object(_PersonPeriod, "start", started), \
            mock.patch.object(_PersonPeriod, "evaluate", tied), \
            mock.patch.object(_PersonPeriod, "gain", lambda *args: 0.0):
        with pytest.raises(ConvergenceError,
                           match="line search stalled") as err:
            fit_plogit(data)
    assert err.value.iterations == 1
    assert len(passes) == 1 + 41  # the start and t = 1, 1/2, ..., 2^-40


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e2, 1e3])
def test_extreme_linear_predictors_give_a_finite_fit_or_a_clean_error(scale):
    rng = np.random.default_rng(4)
    n, J = 80, 5
    X = rng.normal(size=(n, 2)) * scale
    y = rng.integers(1, J + 1, n)
    # separation along the first covariate: its largest values have the
    # events
    delta = X[:, 0] > np.median(X[:, 0])
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(n)]
    data = DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)
    try:
        fit = fit_plogit(data, full_fisher=False)
    except ConvergenceError as exc:
        assert np.isfinite(exc.score_norm)
        return
    assert np.all(np.isfinite(fit.beta)) and np.isfinite(fit.loglik)
    assert np.all(np.isfinite(plogit_variances(data, fit)))


def test_original_scale_plogit_memory_is_bounded_by_the_tile():
    # one interval per distinct time at n = 2e4: the person-period rows
    # number about 1e8, far beyond this bound.  The compact layout's
    # dense information, (K + d)^2 for K included intervals, is built
    # only when fit.fisher is read, which neither call does
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
    data = build_data(table)
    assert data.n_intervals > 0.99 * n
    tracemalloc.start()
    try:
        fit = fit_plogit(data, full_fisher=False)
        plogit_variances(data, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def _dense_reference(a, C, F, included, full_fisher):
    """The dense information as ``fit_plogit`` once assembled it, before
    fits kept the arrow blocks."""
    K, d, J = a.size, F.shape[0], included.size
    pos = np.flatnonzero(included)
    if full_fisher:
        fisher = np.zeros((J + d, J + d))
        fisher[pos, pos] = a
        fisher[np.ix_(pos, range(J, J + d))] = C
        fisher[np.ix_(range(J, J + d), pos)] = C.T
        fisher[J:, J:] = F
    else:
        fisher = np.zeros((K + d, K + d))
        fisher[np.arange(K), np.arange(K)] = a
        fisher[:K, K:] = C
        fisher[K:, :K] = C.T
        fisher[K:, K:] = F
    return fisher


@_SETTINGS
@given(designs())
def test_fisher_is_the_dense_assembly_of_the_stored_blocks(case):
    # static and step-term designs with all-event and event-free
    # (excluded) intervals, in both layouts
    data = case[0]
    for full_fisher in (True, False):
        try:
            fit = fit_plogit(data, full_fisher=full_fisher)
        except (ConvergenceError, SingularMatrixError):
            assume(False)
        K = int(fit.included.sum())
        assert fit.a.shape == (K,) and fit.C.shape == (K, data.d)
        want = _dense_reference(fit.a, fit.C, fit.F, fit.included,
                                full_fisher)
        got = fit.fisher
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert fit.fisher is got


def test_fits_their_variances_and_reports_never_assemble_fisher(tmp_path):
    # fit_plogit and plogit_variances, replicate and dsurv fit read the
    # arrow blocks only; the dense matrix is built once, on first read
    veteran = str(pathlib.Path(__file__).resolve().parents[1] / "data"
                  / "veteran.csv")
    data = build_data(read_subject_csv(veteran))
    scenario = SimScenario(n=100, beta_star=[-0.4, 0.6, -0.4, 0.3, 0.1],
                           bin_width=0.01 * math.exp(0.4), reps=2, seed=7)
    with mock.patch("dsurv.plogit._dense_information",
                    wraps=plogit._dense_information) as dense:
        fit = fit_plogit(data)
        plogit_variances(data, fit)
        summary = replicate(scenario, methods=("plogit",),
                            variance_kinds=("mb", "robust"))
        assert summary.n_failed["plogit"] == 0
        assert main(["fit", "--model", "plogit", "--data", veteran,
                     "--tdc", "treat:100,200", "--variance", "mb",
                     "--json", str(tmp_path / "fit.json")]) == 0
        assert dense.call_count == 0
        assert fit.fisher is fit.fisher
        assert dense.call_count == 1


def test_original_scale_plogit_with_its_fit_stays_under_16_mib():
    # the default layout, whose dense matrix would be (J + d)^2, about
    # 3 GiB here: the fit keeps its arrow blocks, O(K d), and the peak is
    # counted with the fit and its variances alive, nothing subtracted
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
    data = build_data(table)
    assert data.n_intervals > 0.99 * n
    tracemalloc.start()
    try:
        fit = fit_plogit(data)
        variances = plogit_variances(data, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(variances))
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
