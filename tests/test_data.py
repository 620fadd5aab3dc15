from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as o

from dsurv import (CensorOption, DiscreteSurvivalData, InputError, Static,
                   SubjectRecord, TimeGrid, TimeVarying, discretize,
                   expand_step_terms, risk_summary)
from dsurv.io import read_person_period_csv


def _make(y, delta, X, J):
    subs = [SubjectRecord(str(i + 1), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(len(y))]
    return DiscreteSurvivalData(TimeGrid(np.arange(1.0, J + 1)), subs)


# ---------------------------------------------------------------------------
# TimeGrid
# ---------------------------------------------------------------------------

def test_grid_requires_strictly_increasing_positive_breakpoints():
    with pytest.raises(InputError):
        TimeGrid([1.0, 1.0, 2.0])
    with pytest.raises(InputError):
        TimeGrid([2.0, 1.0])
    with pytest.raises(InputError):
        TimeGrid([0.0, 1.0])
    with pytest.raises(InputError):
        TimeGrid([])
    with pytest.raises(InputError):
        TimeGrid([1.0, np.inf])


def test_grid_from_width_covers_max_time():
    g = TimeGrid.from_width(0.5, 1.7)
    np.testing.assert_allclose(g.breakpoints, [0.5, 1.0, 1.5, 2.0])
    assert g.n_intervals == 4
    # an exact multiple does not add a spurious extra bin
    g = TimeGrid.from_width(0.5, 1.5)
    np.testing.assert_allclose(g.breakpoints, [0.5, 1.0, 1.5])
    with pytest.raises(InputError):
        TimeGrid.from_width(0.0, 1.0)


# ---------------------------------------------------------------------------
# covariate paths and subject records
# ---------------------------------------------------------------------------

def test_static_and_time_varying_paths():
    s = Static([1.0, 2.0])
    assert s.d == 2
    np.testing.assert_allclose(s.at(1), [1.0, 2.0])
    np.testing.assert_allclose(s.at(7), [1.0, 2.0])

    tv = TimeVarying([[1.0, 0.0], [2.0, 0.5], [3.0, 1.0]])
    assert tv.d == 2
    np.testing.assert_allclose(tv.at(1), [1.0, 0.0])
    np.testing.assert_allclose(tv.at(3), [3.0, 1.0])
    with pytest.raises(InputError):
        TimeVarying([1.0, 2.0])


def test_subject_record_validation():
    with pytest.raises(InputError):
        SubjectRecord("a", -1, False, Static([0.0]))
    with pytest.raises(InputError):
        SubjectRecord("a", 0, True, Static([0.0]))
    r = SubjectRecord("a", 0, False, Static([0.0]))  # censored before t_1
    assert not r.delta


def test_dataset_validation():
    grid = TimeGrid([1.0, 2.0])
    with pytest.raises(InputError):
        DiscreteSurvivalData(grid, [])
    with pytest.raises(InputError):  # y_index beyond J
        DiscreteSurvivalData(grid, [SubjectRecord("a", 3, False, Static([0.0]))])
    with pytest.raises(InputError):  # mixed covariate dimension
        DiscreteSurvivalData(grid, [
            SubjectRecord("a", 1, False, Static([0.0])),
            SubjectRecord("b", 1, False, Static([0.0, 1.0]))])
    with pytest.raises(InputError):  # non-finite covariate
        DiscreteSurvivalData(grid, [SubjectRecord("a", 1, False, Static([np.nan]))])
    with pytest.raises(InputError):  # wrong time-varying row count
        DiscreteSurvivalData(grid, [
            SubjectRecord("a", 1, False, TimeVarying(np.zeros((3, 1))))])
    with pytest.raises(InputError):  # bad name list
        DiscreteSurvivalData(grid, [SubjectRecord("a", 1, False, Static([0.0]))],
                             covariate_names=["x1", "x2"])

    # the array constructor gives the same errors, naming the first bad subject
    build = DiscreteSurvivalData.from_arrays
    none, one = [False, False], np.zeros((2, 1))
    with pytest.raises(InputError, match="no subjects"):
        build(grid, [], [], np.zeros((0, 1)))
    with pytest.raises(InputError, match="subject 2: y_index 3 exceeds J=2"):
        build(grid, [1, 3], none, one)
    with pytest.raises(InputError, match="subject 1: y_index must be >= 0"):
        build(grid, [-1, 3], none, one)
    with pytest.raises(InputError, match="subject b: delta requires y_index >= 1"):
        build(grid, [1, 0], [False, True], one, ids=["a", "b"])
    with pytest.raises(InputError, match="subject 2: non-finite covariate"):
        build(grid, [1, 1], none, [[[0.0], [0.0]], [[0.0], [np.inf]]], firsts=[1, 2])
    with pytest.raises(InputError, match="covariate_names length"):
        build(grid, [1, 1], none, one, covariate_names=["x1", "x2"])
    with pytest.raises(InputError, match="length n"):  # y and X disagree
        build(grid, [1, 1, 1], [False] * 3, one)
    for firsts in ([2], [1, 1], [1, 3]):  # epochs must start at 1, rise, fit the grid
        with pytest.raises(InputError, match="epochs starting at 1"):
            build(grid, [1, 1], none, np.zeros((len(firsts), 2, 1)), firsts=firsts)


def test_default_names_and_covariates_at():
    data = _make([1, 2], [1, 0], [[1.0, 2.0], [3.0, 4.0]], 2)
    assert data.covariate_names == ["x1", "x2"]
    assert data.is_static
    np.testing.assert_allclose(data.covariates_at(1), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(data.covariates_at(2), data.covariates_at(1))

    tv = DiscreteSurvivalData(TimeGrid([1.0, 2.0]), [
        SubjectRecord("a", 2, True, TimeVarying([[1.0], [5.0]])),
        SubjectRecord("b", 2, False, TimeVarying([[2.0], [6.0]]))])
    assert not tv.is_static
    np.testing.assert_allclose(tv.covariates_at(2), [[5.0], [6.0]])


def test_recentered_shifts_every_path():
    data = _make([1, 2], [1, 0], [[1.0, 2.0], [3.0, 4.0]], 2)
    shifted = data.recentered([1.0, -1.0])
    np.testing.assert_allclose(shifted.covariates_at(1), [[0.0, 3.0], [2.0, 5.0]])
    assert shifted.covariate_names == data.covariate_names
    np.testing.assert_array_equal(shifted.y, data.y)
    with pytest.raises(InputError):
        data.recentered([1.0])


# ---------------------------------------------------------------------------
# risk summary
# ---------------------------------------------------------------------------

def test_risk_summary_counts():
    # y: 0 = censored before t_1 and never at risk
    data = _make([0, 1, 1, 2, 3, 3], [0, 1, 0, 1, 1, 1], np.zeros((6, 1)), 3)
    rs = risk_summary(data)
    np.testing.assert_array_equal(rs.n_at_risk, [5, 3, 2])
    np.testing.assert_array_equal(rs.n_events, [1, 1, 2])
    assert rs.n_intervals == 3


# ---------------------------------------------------------------------------
# discretize conventions
# ---------------------------------------------------------------------------

def _one(time, status, grid, option):
    data = discretize([(time, status, [0.0])], grid, option)
    return int(data.y[0]), bool(data.delta[0]), data.warnings


def test_event_maps_to_covering_interval():
    grid = TimeGrid([10.0, 20.0, 30.0])
    assert _one(10.0, True, grid, CensorOption.CENSORED_LATE)[:2] == (1, True)
    assert _one(10.5, True, grid, CensorOption.CENSORED_LATE)[:2] == (2, True)
    assert _one(20.0, True, grid, CensorOption.CENSORED_LATE)[:2] == (2, True)
    assert _one(0.0, True, grid, CensorOption.CENSORED_LATE)[:2] == (1, True)


def test_censoring_conventions_at_and_between_breakpoints():
    grid = TimeGrid([10.0, 20.0, 30.0])
    # inside (t_0, t_1): early pushes before the grid, late keeps interval 1
    assert _one(5.0, False, grid, CensorOption.CENSORED_EARLY)[:2] == (0, False)
    assert _one(5.0, False, grid, CensorOption.CENSORED_LATE)[:2] == (1, False)
    # exactly at a breakpoint: the censored time lies in [t_1, t_2)
    assert _one(10.0, False, grid, CensorOption.CENSORED_EARLY)[:2] == (1, False)
    assert _one(10.0, False, grid, CensorOption.CENSORED_LATE)[:2] == (2, False)


def test_out_of_range_records_become_censored_at_the_end():
    grid = TimeGrid([10.0, 20.0])
    y, delta, warnings = _one(25.0, True, grid, CensorOption.CENSORED_LATE)
    assert (y, delta) == (2, False)
    assert warnings and "beyond t_J" in warnings[0]
    y, delta, warnings = _one(20.0, False, grid, CensorOption.CENSORED_LATE)
    assert (y, delta) == (2, False)
    assert warnings


def test_discretize_rejects_bad_times():
    grid = TimeGrid([10.0])
    with pytest.raises(InputError):
        discretize([(-1.0, True, [0.0])], grid, CensorOption.CENSORED_LATE)
    with pytest.raises(InputError):
        discretize([(np.nan, False, [0.0])], grid, CensorOption.CENSORED_LATE)


@pytest.mark.parametrize("option", list(CensorOption))
@pytest.mark.parametrize("seed", range(4))
def test_discretize_equals_the_per_record_loop(option, seed):
    # times on breakpoints, at 0, inside intervals and beyond t_J
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.cumsum(rng.uniform(0.5, 2.0, 6)))
    bp = grid.breakpoints
    n = 200
    inside = rng.uniform(0.0, 1.2 * bp[-1], 20)
    time = rng.choice(np.r_[0.0, bp, bp[-1] + 1.0, inside], size=n)
    status = rng.random(n) < 0.5
    records = [(t, s, [float(i)]) for i, (t, s) in enumerate(zip(time, status))]
    data = discretize(records, grid, option)
    early = option is CensorOption.CENSORED_EARLY
    y, delta, n_beyond = o.discretize_loop(time, status, bp, early)
    np.testing.assert_array_equal(data.y, y)
    np.testing.assert_array_equal(data.delta, delta)
    assert data.warnings == ([f"{n_beyond} record(s) beyond t_J recorded as "
                              "censored at t_J"] if n_beyond else [])
    assert n_beyond > 0
    np.testing.assert_array_equal(data.covariates_at(1)[:, 0], np.arange(n))
    assert [s.id for s in data.subjects] == [str(i + 1) for i in range(n)]


def test_discretize_names_the_first_bad_record():
    grid = TimeGrid([10.0])
    records = [(1.0, True, [0.0]), (-2.0, False, [0.0]), (np.nan, True, [0.0])]
    with pytest.raises(InputError, match="record 1: negative time -2.0"):
        discretize(records, grid, CensorOption.CENSORED_LATE)
    with pytest.raises(InputError, match="record 1: non-finite time"):
        discretize(records[::2], grid, CensorOption.CENSORED_LATE)


def test_discretize_keeps_ids_and_names():
    grid = TimeGrid([10.0, 20.0])
    data = discretize([(5.0, True, [1.0, 0.0]), (15.0, False, [0.0, 1.0])],
                      grid, CensorOption.CENSORED_LATE,
                      ids=["u", "v"], covariate_names=["a", "b"])
    assert [s.id for s in data.subjects] == ["u", "v"]
    assert data.covariate_names == ["a", "b"]


# ---------------------------------------------------------------------------
# step-term expansion
# ---------------------------------------------------------------------------

def test_expand_step_terms_appends_indicator_products():
    grid = TimeGrid([10.0, 20.0, 30.0])
    data = DiscreteSurvivalData(grid, [
        SubjectRecord("a", 3, True, Static([2.0, 7.0])),
        SubjectRecord("b", 2, False, Static([1.0, 5.0]))],
        covariate_names=["treat", "age"])
    out = expand_step_terms(data, 0, [10.0, 20.0])
    assert out.covariate_names == ["treat", "age", "treat2", "treat3"]
    assert not out.is_static
    # t_1 = 10 is not > 10, t_2 = 20 is > 10 but not > 20, t_3 = 30 is > both
    np.testing.assert_allclose(out.covariates_at(1)[0], [2.0, 7.0, 0.0, 0.0])
    np.testing.assert_allclose(out.covariates_at(2)[0], [2.0, 7.0, 2.0, 0.0])
    np.testing.assert_allclose(out.covariates_at(3)[0], [2.0, 7.0, 2.0, 2.0])
    np.testing.assert_allclose(out.covariates_at(3)[1], [1.0, 5.0, 1.0, 1.0])
    # original data is untouched
    assert data.d == 2 and data.is_static


def test_expand_step_terms_validation():
    data = _make([1], [1], [[1.0]], 1)
    with pytest.raises(InputError):
        expand_step_terms(data, 1, [0.5])
    with pytest.raises(InputError):
        expand_step_terms(data, 0, [5.0])  # beyond the grid
    assert expand_step_terms(data, 0, []) is data


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_expand_step_terms_rejects_non_finite_thresholds(threshold):
    # every comparison with NaN is false, so a range check written as
    # ``t < 0 or t > t_J`` lets it through
    data = _make([1, 2], [1, 0], [[1.0], [0.0]], 2)
    with pytest.raises(InputError, match="outside the grid range"):
        expand_step_terms(data, 0, [1.0, threshold])


# ---------------------------------------------------------------------------
# epoch storage against dense (n, J, d) paths
# ---------------------------------------------------------------------------

# the same examples on every run, so the suite gives the same verdict
# each time it runs
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _assert_matches_paths(data, ids, y, delta, paths):
    """``data`` holds the subjects ``ids, y, delta`` with the ``(n, J, d)``
    covariate ``paths``, through every accessor."""
    J = data.n_intervals
    for j in range(1, J + 1):
        np.testing.assert_array_equal(data.covariates_at(j), paths[:, j - 1])
    np.testing.assert_array_equal(data.covariate_changes(),
                                  o.covariate_changes(paths, y))
    assert [s.id for s in data.subjects] == list(ids)
    assert [s.y_index for s in data.subjects] == list(y)
    assert [s.delta for s in data.subjects] == list(delta)
    for s, path in zip(data.subjects, paths):
        np.testing.assert_array_equal(
            np.broadcast_to(s.covariates.values, (J, data.d)), path)


@st.composite
def step_samples(draw):
    """(data, paths): static covariates with one or two rounds of step
    terms, thresholds on breakpoints, at 0, at ``t_J``, inside intervals
    and repeated, and ``y = 0`` subjects."""
    J = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 3))
    bp = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=J, max_size=J)))
    y = np.array(draw(st.lists(st.integers(0, J), min_size=n, max_size=n)))
    delta = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))) & (y > 0)
    X = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    data = DiscreteSurvivalData.from_arrays(TimeGrid(bp), y, delta, X)
    paths = np.broadcast_to(X[:, None, :], (n, J, d))
    candidates = sorted({0.0, *bp.tolist(), *(bp - 0.5).tolist()})
    for _ in range(draw(st.integers(1, 2))):
        base = draw(st.integers(0, data.d - 1))
        thresholds = draw(st.lists(st.sampled_from(candidates), max_size=3))
        data = expand_step_terms(data, base, thresholds)
        paths = o.step_paths(paths, bp, base, thresholds)
    return data, paths


@_SETTINGS
@given(step_samples())
def test_step_term_epochs_match_the_dense_paths(case):
    data, paths = case
    ids = [str(i + 1) for i in range(data.n)]
    _assert_matches_paths(data, ids, data.y, data.delta, paths)
    # the records gathered back into a sample give the same sample
    again = DiscreteSurvivalData(data.grid, data.subjects, data.covariate_names)
    _assert_matches_paths(again, ids, data.y, data.delta, paths)


@st.composite
def person_period_rows(draw):
    """(rows, J): shuffled person-period rows whose covariates repeat or
    change from one interval to the next."""
    J = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 2))
    rows = []
    for i in range(n):
        last = draw(st.integers(1, J))
        event = draw(st.booleans())
        for j in range(1, last + 1):
            x = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
            rows.append((f"s{n - i}", j, int(event and j == last), x))
    return draw(st.permutations(rows)), J


@_SETTINGS
@given(person_period_rows())
def test_person_period_epochs_match_the_dense_paths(tmp_path_factory, case):
    rows, J = case
    path = tmp_path_factory.mktemp("pp") / "pp.csv"
    d = len(rows[0][3])
    path.write_text("id,interval,event," + ",".join(f"x{k}" for k in range(d)) + "\n"
                    + "".join(f"{sid},{j},{e}," + ",".join(map(str, x)) + "\n"
                              for sid, j, e, x in rows))
    data = read_person_period_csv(str(path))
    ids, y, delta, paths = o.person_period_paths(rows, max(j for _, j, _, _ in rows))
    assert data.n_intervals == paths.shape[1]
    _assert_matches_paths(data, ids, y, delta, paths)
