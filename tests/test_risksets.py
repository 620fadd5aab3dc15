"""The risk-set engine against the literal risk and event sets.

``RiskSets.interval(j, coef)`` must return the members ``y >= j``, the
events ``D = (y == j) & delta`` and the covariates at ``t_j``, in the
order of ``members(j)``; ``sums`` and ``scatter`` must equal plain loops
over those literal sets.
"""

from __future__ import annotations

import numpy as np
import pytest

import _oracles as o
from dsurv import (DiscreteSurvivalData, Static, SubjectRecord, TimeGrid,
                   expand_step_terms)
from _oracles import LoopRiskSets as RiskSets
from _oracles import interval_hessian, interval_influence, interval_score

_J = 6


def _static_data(seed=3, n=40, d=2):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, _J + 1, n)
    y[:3] = 0  # censored before t_1
    delta = (rng.random(n) < 0.6) & (y > 0)
    delta[y == 4] = False  # an event-free interval with members at risk
    X = rng.standard_normal((n, d))
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(n)]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, _J + 1)), subs)


def _datasets():
    static = _static_data()
    # a step term switching on after t = 2.5 makes every path time-varying
    return {"static": static, "time-varying": expand_step_terms(static, 0, [2.5])}


@pytest.mark.parametrize("kind", ["static", "time-varying"])
def test_interval_returns_the_literal_risk_set(kind):
    data = _datasets()[kind]
    assert data.is_static == (kind == "static")
    assert np.any(data.y == 0)
    rs = RiskSets(data)
    coef = np.linspace(-0.5, 0.7, data.d)
    literal = o.risk_sets(data.y, _J)
    for j in range(1, _J + 1):
        idx, X, D, eta = rs.interval(j, coef)
        np.testing.assert_array_equal(idx, rs.members(j))
        np.testing.assert_array_equal(np.sort(idx), literal[j - 1])
        np.testing.assert_array_equal(X, data.covariates_at(j)[idx])
        np.testing.assert_array_equal(D, o.event_mask(data.y, data.delta, idx, j))
        np.testing.assert_allclose(eta, data.covariates_at(j)[idx] @ coef,
                                   rtol=0, atol=1e-15)
    assert 4 not in rs.event_intervals
    assert rs.interval(4, coef)[1].shape[0] > 0


@pytest.mark.parametrize("kind", ["static", "time-varying"])
def test_sums_and_scatter_match_plain_loops_over_the_literal_sets(kind):
    data = _datasets()[kind]
    rs = RiskSets(data)
    coef = np.linspace(0.4, -0.3, data.d)
    score = np.zeros(data.d)
    hess = np.zeros((data.d, data.d))
    rows = np.zeros((data.n, data.d))
    for j, members in enumerate(o.risk_sets(data.y, _J), start=1):
        X = data.covariates_at(j)[members]
        D = o.event_mask(data.y, data.delta, members, j)
        if not D.any():
            continue
        score += interval_score(X, D, X @ coef)
        hess += interval_hessian(X, D, X @ coef)
        rows[members] += interval_influence(X, D, X @ coef)
    got_score, got_hess = rs.sums(coef, interval_score, interval_hessian)
    np.testing.assert_allclose(got_score, score, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(got_hess, hess, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(rs.scatter(coef, interval_influence), rows,
                               rtol=1e-13, atol=1e-13)


def test_sums_without_events_are_zeros_of_each_kernels_shape():
    subs = [SubjectRecord(str(i), i % 3, False, Static([float(i), 1.0]))
            for i in range(5)]
    rs = RiskSets(DiscreteSurvivalData(TimeGrid([1.0, 2.0]), subs))
    score, hess = rs.sums(np.zeros(2), interval_score, interval_hessian)
    np.testing.assert_array_equal(score, np.zeros(2))
    np.testing.assert_array_equal(hess, np.zeros((2, 2)))
    np.testing.assert_array_equal(rs.scatter(np.zeros(2), interval_influence),
                                  np.zeros((5, 2)))
