"""The risk-set pass's block sums: grouping, memory and shared results.

* The order-2 products are summed in groups of columns sized by
  ``_risksets._TILE``; any grouping gives the same bits, including one
  column group per covariate, which the small designs of the suite
  never reach at the default tile.
* One full pass at n = 2e4, d = 8 allocates far less than an
  ``(n, d, d)`` product array.
* ``Aggregates.subset`` of every interval is the object itself, and the
  mixed risk sets are split once per object without a reference cycle.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import fields
from unittest import mock

import numpy as np
from hypothesis import given

from dsurv import DiscreteSurvivalData, TimeGrid, expand_step_terms
from dsurv import _risksets
from test_prefix_sums import _SETTINGS, designs


def _payloads(data, seed):
    """No payload, one ``(n, 2)`` payload and one per epoch."""
    rng = np.random.default_rng(seed)
    epochs = len(data.risk_sets.epoch_spans())
    return [None, rng.normal(size=(data.n, 2)),
            rng.normal(size=(max(epochs, 1), data.n, 2))]


def _passes(data, coef, payloads):
    rs = data.risk_sets
    return [rs.aggregates(coef, order=2, squares=2, payload=p) for p in payloads]


def _assert_identical(got, want):
    for g, w in zip(got, want):
        for f in fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert (a is None) == (b is None), f.name
            if b is not None:
                assert a.shape == b.shape and np.array_equal(a, b), f.name


def _step_design(n=40, d=5, J=12, seed=3):
    rng = np.random.default_rng(seed)
    data = DiscreteSurvivalData.from_arrays(
        TimeGrid(np.arange(1.0, J + 1)), rng.integers(1, J + 1, n),
        rng.random(n) < 0.7, rng.normal(size=(n, d - 1)))
    return expand_step_terms(data, 0, [J / 2 + 0.5]), rng.normal(scale=0.4, size=d)


@_SETTINGS
@given(designs())
def test_one_column_group_per_covariate_gives_the_same_bits(case):
    data, coef, _ = case
    payloads = _payloads(data, 0)
    want = _passes(data, coef, payloads)
    with mock.patch.object(_risksets, "_TILE", 1):
        got = _passes(data, coef, payloads)
    _assert_identical(got, want)


def test_every_column_grouping_gives_the_same_bits():
    # d = 5 over 40 rows: groups of 1, 2 (the last one short), 3, 4 and
    # all 5 covariates
    data, coef = _step_design()
    payloads = _payloads(data, 1)
    want = _passes(data, coef, payloads)
    rows = data.n
    for per in range(1, data.d):
        with mock.patch.object(_risksets, "_TILE", per * rows * data.d):
            _assert_identical(_passes(data, coef, payloads), want)


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
        rs.aggregates(coef, order=2, squares=2)
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
            agg = data.risk_sets.aggregates(np.ones(2), order=1)
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
