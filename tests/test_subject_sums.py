"""``RiskSets.subject_sums`` against the literal per-subject loop.

The per-subject sums behind both models' influence rows and both curves
are compared with ``_oracles.subject_sums_loop`` on random static and
step-term designs with ties, event-free intervals and events in
interval 1: every span, each with and without ``a``, ``log_weight`` and
``before``, and weights whose running maximum rises past ``_BAND``, so
that the rescaled cumulative sum runs band by band.  The rows that sum
over some interval of an epoch, for every span but ``"event"``, are a
prefix of the engine's order, which the engine reads without a gather.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as o
from dsurv import DiscreteSurvivalData, TimeGrid, expand_step_terms
from dsurv import _risksets
from dsurv._risksets import RiskSets

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])

_SPANS = ("all", "before_event", "event")


@st.composite
def designs(draw, band=False):
    """(data, coef): ties, intervals with no event, events in intervals
    1 and 3 and, drawn, a step term.  With ``band`` one subject's linear
    predictor is about 500 above the others' and it leaves in interval
    1; a step term then starts after interval 3, so the first epoch
    holds both event intervals."""
    J = draw(st.integers(4 if band else 3, 6))
    n = draw(st.integers(4, 16))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # the intervals 2, 4, ... hold censored subjects only
    y = rng.integers(0, J + 1, n)
    delta = (rng.random(n) < 0.6) & (y % 2 == 1)
    y[:3], delta[:3] = [1, J, 3], [True, False, True]
    X = rng.standard_normal((n, d))
    coef = rng.normal(scale=0.8, size=d)
    if band:
        X[:, 0] = rng.uniform(-1.0, -0.9, n)
        X[0, 0] = 1.5
        coef[0] = 200.0
    data = DiscreteSurvivalData.from_arrays(TimeGrid(np.arange(1.0, J + 1)),
                                            y, delta, X)
    if draw(st.booleans()):
        cut = draw(st.integers(3 if band else 1, J - 1)) + 0.5
        data = expand_step_terms(data, d - 1, [cut])
        coef = np.r_[coef, rng.normal(scale=0.5)]
    return data, coef


def _check(data, coef, log_weight, rng):
    """Every span, with and without ``a``, ``log_weight`` and ``before``,
    against the loop at 1e-12 of the summed size of the terms."""
    rs = RiskSets(data)
    agg = rs.aggregates(coef)
    ks, center, K, d = agg.k, agg.center, agg.k.size, data.d
    for span, use_a, use_w, use_before in itertools.product(
            _SPANS, *[(False, True)] * 3):
        a = rng.normal(size=K) if use_a else None
        B = rng.normal(size=(K, d if use_a else 2))
        w = log_weight if use_w else None
        before = int(ks[K // 2]) if use_before else None
        got = rs.subject_sums(coef, B, a=a, log_weight=w, span=span,
                              before=before)
        want, scale = o.subject_sums_loop(data, ks, center, coef, B, a=a,
                                          log_weight=w, span=span,
                                          before=before)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (span, use_a,
                                                            use_w, use_before)


def _check_prefixes(data):
    """Per epoch and span but ``"event"``, with and without a bound, the
    rows that sum over one of its event intervals lead the engine's
    order."""
    rs = RiskSets(data)
    for (lo, sel), before in itertools.product(rs.epoch_spans(), (None, 3)):
        ks = rs.event_intervals[sel]
        for span in _SPANS[:2]:
            ones = np.ones((ks.size, 1))
            takes = o.subject_sums_loop(data, ks, np.zeros((ks.size, 1)),
                                        None, ones, span=span,
                                        before=before)[0][:, 0] > 0
            ranked = takes[rs.order]
            assert not np.any(ranked[1:] & ~ranked[:-1]), (lo, span, before)


@_SETTINGS
@given(designs(), st.integers(0, 2 ** 32 - 1))
def test_subject_sums_match_the_loop(case, seed):
    data, coef = case
    rng = np.random.default_rng(seed)
    K = RiskSets(data).event_intervals.size
    _check(data, coef, rng.normal(scale=2.0, size=K), rng)
    _check_prefixes(data)


@_SETTINGS
@given(designs(band=True), st.integers(0, 2 ** 32 - 1))
def test_subject_sums_match_the_loop_across_bands(case, seed):
    # the weights -log S0_k of the influence rows: the subject at the top
    # leaves after interval 1, and they rise by about 500 there
    data, coef = case
    rs = RiskSets(data)
    log_weight = -rs.aggregates(coef).log_s0
    banded = []
    scaled_cumsum = _risksets._scaled_cumsum

    def recorded(log_scale, values):
        top = np.maximum.accumulate(log_scale)
        banded.append(bool(top[-1] - top[0] >= _risksets._BAND))
        return scaled_cumsum(log_scale, values)

    with mock.patch.object(_risksets, "_scaled_cumsum", recorded):
        _check(data, coef, log_weight, np.random.default_rng(seed))
    assert any(banded)
    _check_prefixes(data)
