"""The tiled person-period kernel of ``plogit`` against the literal loop.

The log likelihood, the scores, the arrow-structured information blocks
and the per-subject score rows of the robust variance are compared with
the per-interval loop of ``_oracles`` on random designs with ties,
all-event and event-free intervals (both excluded from the likelihood),
``y = 0`` subjects, step terms and linear predictors in the hundreds,
with tile budgets small enough to split tiles inside and across epochs.
"""

from __future__ import annotations

import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as o
from dsurv import (ConvergenceError, DiscreteSurvivalData, Static,
                   SubjectRecord, TimeGrid, expand_step_terms, fit_plogit,
                   plogit_variances)
from dsurv import _risksets
from dsurv.io import SubjectTable, build_data, read_subject_csv
from dsurv.plogit import _PersonPeriod

_RTOL = 1e-10

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _close(got, want, scale):
    """Equal within ``_RTOL`` relative to the larger of ``scale`` (the
    size of the terms summed) and the largest entry of ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.isfinite(got))
    scale = max(scale, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=_RTOL, atol=_RTOL * scale)


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


@_SETTINGS
@given(designs())
def test_tiled_pass_and_score_rows_match_the_loop(case):
    data, b0, beta, budget = case
    n, d, J = data.n, data.d, data.n_intervals
    x = _x_size(data)
    live, triples = o.plogit_person_period(data)
    with mock.patch.object(_risksets, "_TILE", budget):
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
    evaluate = _PersonPeriod.evaluate

    def counted(self, b0, beta):
        evaluations.append(1)
        return evaluate(self, b0, beta)

    with mock.patch.object(_PersonPeriod, "evaluate", counted):
        fit = fit_plogit(data)
    assert fit.iterations == 5
    assert len(evaluations) == 6  # the start and one per Newton step


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
    # number about 1e8, far beyond this bound.  The information matrix
    # the fit returns is dense even in the compact layout, (K + d)^2 for
    # K included intervals, and is left out of the count
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
        peak = tracemalloc.get_traced_memory()[1] - fit.fisher.nbytes
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
