"""The risk-set pass's block sums and contractions: bits, literal sums,
memory and shared results.

* A payload's columns leave the bits of every other sum of the pass and
  of every contraction as they are.
* A subset of a pass contracts as the pass does with zero coefficients
  outside it, bit for bit.
* Each contraction equals the coefficient-weighted total of the literal
  per-interval second-order sums of ``_oracles``, on the designs of
  ``test_prefix_sums`` (static, step terms, a linear-predictor spread
  past what one exponential shift holds), over the whole pass, its
  mixed risk sets and the one-risk-set unit of the enumeration oracles.
* One pass with its ``w^2`` sums and a contraction of every set at
  n = 2e4, d = 8 allocate far less than an ``(n, d, d)`` product array.
* ``Aggregates.subset`` of every interval is the object itself, and the
  mixed risk sets are split once per object without a reference cycle.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
from hypothesis import given

import _oracles as o
from dsurv import DiscreteSurvivalData, TimeGrid, expand_step_terms
from dsurv._risksets import risk_set_aggregates
from test_prefix_sums import _SETTINGS, designs

# contraction argument -> the literal sum it weights
_LITERAL = {"risk": "S2", "free": "M2", "events": "SDw2", "risk_sq": "Q2",
            "free_sq": "Qf2"}


def _payloads(data, seed):
    """One ``(n, 2)`` payload and one per epoch."""
    rng = np.random.default_rng(seed)
    epochs = len(data.risk_sets.epoch_spans())
    return [rng.normal(size=(data.n, 2)),
            rng.normal(size=(max(epochs, 1), data.n, 2))]


def _assert_identical(got, want, skip=("Z", "Zf", "Ze", "rows")):
    for f in fields(want):
        if f.name in skip:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if b is not None:
            assert a.shape == b.shape and np.array_equal(a, b), f.name


def _coefficients(a, seed):
    """Random per-interval coefficients of every set, of either sign."""
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(a.k.size) for name in _LITERAL}


def _contractions(a, coefs):
    """Each set's contraction alone, then all five in one call."""
    return [a.contract(**{name: c}) for name, c in coefs.items()] + [
        a.contract(**coefs)]


@_SETTINGS
@given(designs())
def test_a_payload_leaves_the_bits_of_every_other_sum(case):
    data, coef, _ = case
    rs = data.risk_sets
    want = rs.aggregates(coef, squares=1)
    coefs = _coefficients(want, 0)
    for payload in _payloads(data, 0):
        got = rs.aggregates(coef, squares=1, payload=payload)
        _assert_identical(got, want)
        for g, w in zip(_contractions(got, coefs), _contractions(want, coefs)):
            assert np.array_equal(g, w)


def _step_design(n=40, d=5, J=12, seed=3):
    rng = np.random.default_rng(seed)
    data = DiscreteSurvivalData.from_arrays(
        TimeGrid(np.arange(1.0, J + 1)), rng.integers(1, J + 1, n),
        rng.random(n) < 0.7, rng.normal(size=(n, d - 1)))
    return expand_step_terms(data, 0, [J / 2 + 0.5]), rng.normal(scale=0.4, size=d)


def test_a_subset_contracts_as_its_pass_with_zero_coefficients():
    # the step design has two epochs; subsets of subsets compose
    data, coef = _step_design()
    agg = data.risk_sets.aggregates(coef, squares=1)
    assert len(agg.rows) == 2
    coefs = _coefficients(agg, 1)
    rng = np.random.default_rng(2)
    for _ in range(4):
        mask = rng.random(agg.k.size) < 0.6
        inner = rng.random(int(mask.sum())) < 0.7
        keep = mask.copy()
        keep[mask] = inner
        some = agg.subset(mask).subset(inner)
        np.testing.assert_array_equal(some.k, agg.k[keep])
        zeroed = {name: np.where(keep, c, 0.0) for name, c in coefs.items()}
        picked = {name: c[keep] for name, c in coefs.items()}
        for g, w in zip(_contractions(some, picked),
                        _contractions(agg, zeroed)):
            assert np.array_equal(g, w)


def _check_against_literal(a, pieces, seed):
    """``a``'s contractions against ``sum_j c_j`` times the literal sums
    ``pieces`` (one dict per interval of ``a``), at rtol 1e-12 of the
    total of the absolute terms."""
    d = a.center.shape[1]
    coefs = _coefficients(a, seed)
    got = _contractions(a, coefs)
    want, scale = [], []
    for name, c in coefs.items():
        field = _LITERAL[name]
        want.append(sum((cj * p[field] for cj, p in zip(c, pieces)),
                        np.zeros((d, d))))
        scale.append(sum(abs(cj) * np.trace(p[field])
                         for cj, p in zip(c, pieces)))
    want.append(sum(want))
    scale.append(sum(scale))
    for g, w, s in zip(got, want, scale):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * s)


@_SETTINGS
@given(designs())
def test_each_contraction_is_the_total_of_the_literal_second_order_sums(case):
    data, coef, _ = case
    rs = data.risk_sets
    a = rs.aggregates(coef, squares=1)
    pieces = []
    for i, j in enumerate(a.k):
        _, X, D, _ = o.engine_interval(rs, j, coef)
        Xc = X - a.center[i]
        pieces.append(o.second_moments(Xc, D, np.exp(Xc @ coef - a.shift[i])))
    _check_against_literal(a, pieces, 0)
    mixed = a.T < a.m
    _check_against_literal(a.mixed, [p for p, keep in zip(pieces, mixed) if keep],
                           1)


def test_the_one_risk_set_unit_contracts_its_literal_sums():
    # event-free, all-event and mixed risk sets, with linear predictors
    # spread up to 1,500 apart
    rng = np.random.default_rng(6)
    for m, T, spread in [(1, 0, 1.0), (1, 1, 1.0), (5, 0, 2.0), (5, 5, 2.0),
                         (6, 2, 1.0), (7, 3, 1500.0), (8, 1, 800.0)]:
        d = int(rng.integers(1, 4))
        X = rng.standard_normal((m, d)) + 2.0
        D = np.zeros(m, dtype=bool)
        D[rng.permutation(m)[:T]] = True
        eta = rng.uniform(-spread / 2, spread / 2, m)
        a = risk_set_aggregates(X, D, eta, squares=1)
        Xc = X - a.center[0]
        _check_against_literal(
            a, [o.second_moments(Xc, D, np.exp(eta - a.shift[0]))], m)


def test_a_full_pass_allocates_far_less_than_a_product_array():
    # an (n, d, d) product array would take n d^2 8 bytes = 9.8 MiB here
    n, d, J = 20_000, 8, 100
    rng = np.random.default_rng(np.random.SeedSequence([8, n]))
    data = DiscreteSurvivalData.from_arrays(
        TimeGrid(np.arange(1.0, J + 1)), rng.integers(1, J + 1, n),
        rng.random(n) < 0.7, rng.standard_normal((n, d)))
    rs = data.risk_sets
    coef = rng.normal(scale=0.3, size=d)
    tracemalloc.start()
    try:
        agg = rs.aggregates(coef, squares=1)
        agg.contract(**_coefficients(agg, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_the_subset_of_every_interval_is_the_aggregates_themselves():
    data, coef = _step_design()
    agg = data.risk_sets.full(coef)
    assert agg.subset(np.ones(agg.k.size, dtype=bool)) is agg
    some = agg.subset(np.arange(agg.k.size) % 2 == 0)
    np.testing.assert_array_equal(some.k, agg.k[::2])


def _all_event_last_interval(mixed_only):
    """Thirty subjects on six intervals; unless ``mixed_only``, the last
    interval holds two subjects, both with events, so it is not mixed."""
    rng = np.random.default_rng(5)
    n, J = 30, 6
    y = rng.integers(1, J, n)
    y[:2] = J
    delta = y < J - 1 if mixed_only else np.ones(n, dtype=bool)
    return DiscreteSurvivalData.from_arrays(
        TimeGrid(np.arange(1.0, J + 1)), y, delta, rng.normal(size=(n, 2)))


def test_the_mixed_risk_sets_are_split_once_and_freed_with_their_pass():
    gc.disable()  # only reference counting may free the pass
    try:
        for mixed_only in (False, True):
            data = _all_event_last_interval(mixed_only)
            # a payload pass, which the engine does not keep
            agg = data.risk_sets.aggregates(np.ones(2),
                                            payload=np.ones((data.n, 1)))
            mixed = agg.mixed
            assert mixed is agg.mixed
            assert (mixed is agg) == mixed_only
            np.testing.assert_array_equal(mixed.k, agg.k[agg.T < agg.m])
            assert mixed.k.size == agg.k.size - (not mixed_only)
            ref = weakref.ref(agg)
            del agg, mixed
            assert ref() is None
    finally:
        gc.enable()
