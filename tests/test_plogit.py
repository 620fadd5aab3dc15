from __future__ import annotations

import numpy as np
import pytest

import _oracles as o
from dsurv import (ConvergenceError, DiscreteSurvivalData, InputError, Static,
                   SubjectRecord, TimeGrid, expand_step_terms, fit_plogit,
                   plogit_variances)
from dsurv.io import SubjectTable, build_data


def _make(y, delta, X, J):
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(len(y))]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)


def _person_period_design(y, delta, X, included):
    """Long-format rows with one dummy column per included interval."""
    live = [j for j in included]
    rows, yb, who = [], [], []
    for i in range(len(y)):
        for j in range(1, y[i] + 1):
            if j not in live:
                continue
            dummies = [1.0 if j == k else 0.0 for k in live]
            rows.append(dummies + list(np.atleast_1d(X[i])))
            yb.append(1.0 if (j == y[i] and delta[i]) else 0.0)
            who.append(i)
    return np.array(rows), np.array(yb), np.array(who)


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


def test_single_interval_fit_is_plain_logistic_regression():
    # saturated two-group logistic: intercept logit(2/10), slope the log
    # odds ratio (4*8)/(6*2)
    fit = fit_plogit(_make(_Y_A, _D_A, _X_A, 1), tol=1e-12)
    np.testing.assert_allclose(fit.beta, [np.log(8.0 / 3.0)], atol=1e-10)
    np.testing.assert_allclose(fit.beta0, [np.log(2.0 / 8.0)], atol=1e-10)
    assert fit.included.tolist() == [True]


def test_three_interval_fit_matches_the_frozen_irls_solution():
    fit = fit_plogit(_make(_Y_B, _D_B, _X_B, 3), tol=1e-12)
    np.testing.assert_allclose(fit.beta, [1.41948090477317, 1.2491304041810185],
                               atol=1e-9)
    np.testing.assert_allclose(
        fit.beta0,
        [-2.819447365933444, -1.347386774615107, -0.13890283810869472],
        atol=1e-9)
    assert fit.iterations >= 1
    assert fit.included.all()


def test_fit_matches_oracle_irls_on_random_data():
    rng = np.random.default_rng(31)
    n, J = 60, 4
    y = rng.integers(1, J + 1, size=n)
    delta = rng.random(n) < 0.7
    X = rng.normal(size=(n, 2))
    data = _make(y, delta, X, J)
    fit = fit_plogit(data, tol=1e-12)

    included = [j + 1 for j in range(J) if fit.included[j]]
    design, yb, _ = _person_period_design(y, delta, X, included)
    coef, info = o.logistic_irls(design, yb)
    K = len(included)
    np.testing.assert_allclose(fit.beta, coef[K:], atol=1e-9)
    np.testing.assert_allclose(fit.beta0[fit.included], coef[:K], atol=1e-9)

    # the log likelihood at the optimum, recomputed literally
    z = design @ coef
    loglik = float(yb @ z - np.logaddexp(0.0, z).sum())
    np.testing.assert_allclose(fit.loglik, loglik, atol=1e-9)


def test_degenerate_intervals_are_excluded_with_infinite_sentinels():
    y = np.array([1, 1, 1, 1, 2, 2, 3, 3])
    delta = np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=bool)
    X = np.array([[0.3], [-0.4], [0.8], [-0.6], [0.2], [-0.2], [0.1], [-0.1]])
    fit = fit_plogit(_make(y, delta, X, 3), tol=1e-12)
    assert fit.included.tolist() == [True, False, False]
    assert np.isfinite(fit.beta0[0])
    assert fit.beta0[1] == -np.inf   # no events
    assert fit.beta0[2] == np.inf    # all events
    assert any("excluded" in w for w in fit.warnings)
    # the zero-padded information has empty rows for excluded intercepts
    assert fit.fisher.shape == (3 + 1, 3 + 1)
    assert np.all(fit.fisher[1] == 0.0) and np.all(fit.fisher[2] == 0.0)


def test_compact_information_layout_gives_identical_variances():
    data = _make(_Y_B, _D_B, _X_B, 3)
    full = fit_plogit(data, tol=1e-12)
    compact = fit_plogit(data, tol=1e-12, full_fisher=False)
    assert full.fisher.shape == (3 + 2, 3 + 2)
    assert compact.fisher.shape == (3 + 2, 3 + 2)  # all intervals included here
    np.testing.assert_allclose(compact.beta, full.beta, atol=1e-12)

    y = np.array([1, 1, 1, 1, 2, 2, 3, 3])
    delta = np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=bool)
    X = np.array([[0.3], [-0.4], [0.8], [-0.6], [0.2], [-0.2], [0.1], [-0.1]])
    sparse = _make(y, delta, X, 3)
    f_full = fit_plogit(sparse, tol=1e-12)
    f_compact = fit_plogit(sparse, tol=1e-12, full_fisher=False)
    assert f_compact.fisher.shape == (1 + 1, 1 + 1)
    mb_full, rob_full = plogit_variances(sparse, f_full)
    mb_compact, rob_compact = plogit_variances(sparse, f_compact)
    np.testing.assert_allclose(mb_compact, mb_full, atol=1e-13)
    np.testing.assert_allclose(rob_compact, rob_full, atol=1e-13)


def test_variances_match_literal_clustered_sandwich():
    rng = np.random.default_rng(32)
    n, J = 60, 4
    y = rng.integers(1, J + 1, size=n)
    delta = rng.random(n) < 0.7
    X = rng.normal(size=(n, 2))
    data = _make(y, delta, X, J)
    fit = fit_plogit(data, tol=1e-12)
    mb, rob = plogit_variances(data, fit)

    included = [j + 1 for j in range(J) if fit.included[j]]
    design, yb, who = _person_period_design(y, delta, X, included)
    coef = np.concatenate([fit.beta0[fit.included], fit.beta])
    p = 1.0 / (1.0 + np.exp(-(design @ coef)))
    info = design.T @ (design * (p * (1.0 - p))[:, None])
    K = len(included)
    inv = np.linalg.inv(info)
    np.testing.assert_allclose(mb, inv[K:, K:], atol=1e-10)

    # cluster the full-parameter score by subject
    scores = np.zeros((n, K + 2))
    for r in range(design.shape[0]):
        scores[who[r]] += (yb[r] - p[r]) * design[r]
    full = inv @ (scores.T @ scores) @ inv
    np.testing.assert_allclose(rob, full[K:, K:], atol=1e-10)


def test_fit_requires_events_and_informative_intervals():
    with pytest.raises(InputError):
        fit_plogit(_make([1, 2], [0, 0], [[0.0], [1.0]], 2))
    y = np.array([1, 1])
    delta = np.array([1, 1], dtype=bool)
    with pytest.raises(InputError):
        fit_plogit(_make(y, delta, [[1.0], [0.0]], 1))


def test_fit_reports_iteration_budget_exhaustion():
    with pytest.raises(ConvergenceError) as err:
        fit_plogit(_make(_Y_B, _D_B, _X_B, 3), tol=1e-14, max_iter=1)
    assert err.value.iterations == 1


@pytest.mark.parametrize("full_fisher", [True, False])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_arrow_variances_equal_the_dense_inverse_and_sandwich(full_fisher, seed):
    # the beta blocks of the full (K+d)^2 inverse and sandwich, with an
    # all-event and an event-free interval among the J
    rng = np.random.default_rng(seed)
    n, J = 50, 6
    y = rng.integers(1, J + 1, size=n)
    delta = rng.random(n) < 0.5
    y[:2], delta[:2] = J + 1, True  # two subjects, both events, at J + 1
    delta[y == 3] = False
    X = rng.normal(size=(n, 2))
    data = _make(y, delta, X, J + 1)
    fit = fit_plogit(data, tol=1e-12, full_fisher=full_fisher)
    assert not fit.included[2] and not fit.included[J]
    mb, rob = plogit_variances(data, fit)

    included = [j + 1 for j in range(J + 1) if fit.included[j]]
    K = len(included)
    keep = (np.arange(K + 2) if not full_fisher
            else np.r_[np.array(included) - 1, J + 1, J + 2])
    inv = np.linalg.inv(fit.fisher[np.ix_(keep, keep)])
    design, yb, who = _person_period_design(y, delta, X, included)
    coef = np.concatenate([fit.beta0[fit.included], fit.beta])
    resid = yb - 1.0 / (1.0 + np.exp(-(design @ coef)))
    scores = np.zeros((n, K + 2))
    np.add.at(scores, who, resid[:, None] * design)
    full = inv @ (scores.T @ scores) @ inv
    np.testing.assert_allclose(mb, inv[K:, K:], rtol=1e-10, atol=0)
    np.testing.assert_allclose(rob, full[K:, K:], rtol=1e-10, atol=0)


def _table(seed, n):
    """Continuous times, no ties: exponential events with rate
    ``exp(x' beta)``, uniform censoring on (0, 3)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    X = np.column_stack([rng.integers(0, 2, n).astype(float),
                         rng.standard_normal((n, 3))])
    t_event = rng.exponential(np.exp(-X @ np.array([0.5, -0.3, 0.2, 0.1])))
    t_cens = rng.uniform(0.0, 3.0, n)
    return SubjectTable(ids=[str(i + 1) for i in range(n)],
                        time=np.minimum(t_event, t_cens),
                        status=t_event <= t_cens, covariates=X,
                        names=["treat", "z1", "z2", "z3"])


@pytest.mark.parametrize("other", ["another sample", "a 0.5 grid",
                                   "a step term"])
def test_variances_of_a_fit_from_another_dataset_are_refused(other):
    # the same n in every case.  The fit's information would otherwise be
    # read against another sample's risk sets (a finite, meaningless
    # matrix), another grid's (a singular one) or one more covariate
    table = _table(1, 300)
    data = build_data(table)
    fit = fit_plogit(data)
    if other == "another sample":
        wrong = build_data(_table(2, 300))
    elif other == "a 0.5 grid":
        wrong = build_data(table, width=0.5)
    else:
        wrong = expand_step_terms(data, 0, [0.5])
    assert wrong.n == data.n
    with pytest.raises(InputError, match="the fit does not belong to this "
                                         "dataset"):
        plogit_variances(wrong, fit)
    assert np.all(np.isfinite(plogit_variances(data, fit)))
