"""Invariances of the ``prob``, ``odds`` and ``plogit`` analyses: ``prob``
and ``odds`` on static data and on data with a step term, ``plogit`` on
an original-scale table whose passes take the power series and on a
binned one whose passes take the tiles only.

* Permuting the subjects changes no estimate or variance.
* Shifting the covariates by ``x0`` (``recentered``) moves only the
  baselines, by ``x0'coef``, and the curve at ``x0`` is the curve at 0
  of the shifted data.
* Duplicating every subject keeps the coefficients and halves the
  covariances that are sums of one term per subject or per event.  For
  the odds model these are ``mb3`` and ``robust``; its ``mb2`` meat
  holds a pair sum inside each risk set that does not double with the
  sample, so it is left out.  Both ``plogit`` covariances halve.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from dsurv import (DiscreteSurvivalData, TimeGrid, expand_step_terms, fit_beta,
                   fit_gamma, fit_plogit, odds_curve, plogit_variances,
                   prob_curve, var_model_based2, var_model_based3_odds,
                   var_robust, var_robust_odds)
from dsurv.io import SubjectTable, build_data
from dsurv.plogit import _PersonPeriod

_RTOL = 1e-9

# fit, coefficient and baseline names, curve, and the variances that
# halve when every subject is duplicated
_MODELS = {
    "prob": (fit_gamma, "gamma", "gamma0", prob_curve, (var_model_based2, var_robust)),
    "odds": (fit_beta, "beta", "beta0", odds_curve,
             (var_model_based3_odds, var_robust_odds)),
}


def _sample(kind):
    # tied integer times, y = 0 subjects, covariates away from the origin
    rng = np.random.default_rng(11)
    n, J = 60, 6
    y = rng.integers(0, J + 1, n)
    delta = (rng.random(n) < 0.6) & (y > 0)
    X = rng.normal(size=(n, 2)) + [1.0, -2.0]
    data = DiscreteSurvivalData.from_arrays(TimeGrid(np.arange(1.0, J + 1)), y, delta, X)
    return expand_step_terms(data, 0, [2.5]) if kind == "step" else data


def _subset(data, rows):
    """The subjects ``rows`` of ``data``, in that order."""
    return DiscreteSurvivalData.from_arrays(
        data.grid, data.y[rows], data.delta[rows], data.epochs[:, rows], data.firsts)


def _analysis(model, data):
    fit_fn, coef, base, _, kinds = _MODELS[model]
    fit = fit_fn(data, tol=1e-12)
    return (getattr(fit, coef), getattr(fit, base),
            [v(data, fit).covariance for v in kinds])


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=_RTOL,
                               atol=_RTOL * np.max(np.abs(want[np.isfinite(want)])))


@pytest.mark.parametrize("kind", ["static", "step"])
@pytest.mark.parametrize("model", ["prob", "odds"])
def test_permuting_subjects_changes_no_estimate(model, kind):
    data = _sample(kind)
    perm = np.random.default_rng(3).permutation(data.n)
    coef, base, covs = _analysis(model, data)
    coef_p, base_p, covs_p = _analysis(model, _subset(data, perm))
    _close(coef_p, coef)
    _close(base_p, base)
    for got, want in zip(covs_p, covs):
        _close(got, want)


@pytest.mark.parametrize("kind", ["static", "step"])
@pytest.mark.parametrize("model", ["prob", "odds"])
def test_recentering_moves_only_the_baselines(model, kind):
    data = _sample(kind)
    x0 = np.linspace(0.5, -1.5, data.d)
    shifted = data.recentered(x0)
    coef, base, covs = _analysis(model, data)
    coef_s, base_s, covs_s = _analysis(model, shifted)
    _close(coef_s, coef)
    _close(base_s, base + x0 @ coef)
    for got, want in zip(covs_s, covs):
        _close(got, want)

    fit_fn, _, _, curve, _ = _MODELS[model]
    at_x0 = curve(data, fit_fn(data, tol=1e-12), x0=x0)
    at_0 = curve(shifted, fit_fn(shifted, tol=1e-12))
    for name in ("hazards", "survival", "se_log_surv_robust", "se_log_surv_model_based"):
        _close(getattr(at_0, name), getattr(at_x0, name))


@pytest.mark.parametrize("kind", ["static", "step"])
@pytest.mark.parametrize("model", ["prob", "odds"])
def test_duplicating_every_subject_halves_the_covariances(model, kind):
    data = _sample(kind)
    coef, base, covs = _analysis(model, data)
    coef_2, base_2, covs_2 = _analysis(model, _subset(data, np.tile(np.arange(data.n), 2)))
    _close(coef_2, coef)
    _close(base_2, base)
    for got, want in zip(covs_2, covs):
        _close(2.0 * got, want)


def _plogit_sample(scale):
    """300 subjects with continuous times and covariates away from the
    origin: on the original time scale, one interval per distinct time
    and small odds, or in 12 wide intervals."""
    rng = np.random.default_rng(5)
    n = 300
    X = np.column_stack([rng.integers(0, 2, n).astype(float),
                         rng.standard_normal(n) + 1.5])
    t_event = rng.exponential(np.exp(-X @ np.array([0.5, -0.3])))
    t_cens = rng.uniform(0.0, 3.0, n)
    table = SubjectTable(ids=[str(i + 1) for i in range(n)],
                         time=np.minimum(t_event, t_cens),
                         status=t_event <= t_cens, covariates=X,
                         names=["treat", "z"])
    return build_data(table, width=None if scale == "original" else 0.25)


def _plogit_analysis(data):
    """``beta``, ``beta0``, both covariances and the number of power-series
    sums the fit and its variances took."""
    with mock.patch.object(_PersonPeriod, "_series", autospec=True,
                           side_effect=_PersonPeriod._series) as series:
        fit = fit_plogit(data, tol=1e-12)
        covs = plogit_variances(data, fit)
    return fit.beta, fit.beta0, covs, series.call_count


@pytest.mark.parametrize("scale", ["original", "binned"])
def test_plogit_is_invariant_to_permutation_and_location(scale):
    data = _plogit_sample(scale)
    beta, beta0, covs, series = _plogit_analysis(data)
    assert (series > 0) == (scale == "original")
    perm = np.random.default_rng(3).permutation(data.n)
    beta_p, beta0_p, covs_p, _ = _plogit_analysis(_subset(data, perm))
    _close(beta_p, beta)
    _close(beta0_p, beta0)
    for got, want in zip(covs_p, covs):
        _close(got, want)
    # shifting X by -x0 moves only the intercepts, by x0' beta
    x0 = np.array([0.5, 1.5])
    beta_s, beta0_s, covs_s, _ = _plogit_analysis(data.recentered(x0))
    _close(beta_s, beta)
    _close(beta0_s, beta0 + x0 @ beta)
    for got, want in zip(covs_s, covs):
        _close(got, want)


@pytest.mark.parametrize("scale", ["original", "binned"])
def test_duplicating_every_subject_halves_both_plogit_covariances(scale):
    data = _plogit_sample(scale)
    beta, beta0, covs, _ = _plogit_analysis(data)
    beta_2, beta0_2, covs_2, series = _plogit_analysis(
        _subset(data, np.tile(np.arange(data.n), 2)))
    assert (series > 0) == (scale == "original")
    _close(beta_2, beta)
    _close(beta0_2, beta0)
    for got, want in zip(covs_2, covs):
        _close(2.0 * got, want)
