from __future__ import annotations

import io
import json

import numpy as np
import pytest

from dsurv import (DiscreteSurvivalData, InputError, Static, SubjectRecord,
                   TimeGrid, fit_beta, odds_curve)
from dsurv.data import CensorOption
from dsurv.io import (build_data, dump_json, format_float,
                      read_person_period_csv, read_subject_csv,
                      read_tables_csv, write_curve_csv)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_read_subject_csv(tmp_path):
    path = _write(tmp_path / "subj.csv",
                  "id,time,status,age,karn\n"
                  "a,10,1,60,80\n"
                  "b,25.5,0,42,70\n")
    table = read_subject_csv(path)
    assert table.ids == ["a", "b"]
    np.testing.assert_array_equal(table.time, [10.0, 25.5])
    np.testing.assert_array_equal(table.status, [True, False])
    np.testing.assert_array_equal(table.covariates, [[60.0, 80.0],
                                                     [42.0, 70.0]])
    assert table.names == ["age", "karn"]


def test_read_subject_csv_rejects_malformed_files(tmp_path):
    with pytest.raises(InputError, match="missing required column 'time'"):
        read_subject_csv(_write(tmp_path / "a.csv", "id,status,x\na,1,2\n"))
    with pytest.raises(InputError, match="column 'x', row 2"):
        read_subject_csv(_write(tmp_path / "b.csv",
                                "id,time,status,x\na,1,1,2\nb,2,0,oops\n"))
    with pytest.raises(InputError, match="status must be 0 or 1"):
        read_subject_csv(_write(tmp_path / "c.csv",
                                "id,time,status,x\na,1,2,3\n"))
    with pytest.raises(InputError, match="ragged row"):
        read_subject_csv(_write(tmp_path / "d.csv",
                                "id,time,status,x\na,1,1\n"))
    with pytest.raises(InputError, match="no covariate columns"):
        read_subject_csv(_write(tmp_path / "e.csv",
                                "id,time,status\na,1,1\n"))
    with pytest.raises(InputError, match="header row and at least one"):
        read_subject_csv(_write(tmp_path / "f.csv", "id,time,status,x\n"))
    with pytest.raises(InputError, match=r"duplicate id 'a' \(rows 1 and 3\)"):
        read_subject_csv(_write(tmp_path / "g.csv",
                                "id,time,status,x\na,1,1,2\nb,2,0,3\na,3,1,4\n"))


def test_build_data_discretizes_when_given_a_grid_or_width(tmp_path):
    path = _write(tmp_path / "subj.csv",
                  "id,time,status,x\n"
                  "a,5,1,1\nb,15,0,2\nc,25,1,3\n")
    table = read_subject_csv(path)

    on_grid = build_data(table, grid=TimeGrid([10.0, 20.0, 30.0]))
    np.testing.assert_array_equal(on_grid.y, [1, 2, 3])
    np.testing.assert_array_equal(on_grid.delta, [True, False, True])

    by_width = build_data(table, width=10.0)
    np.testing.assert_array_equal(by_width.grid.breakpoints,
                                  [10.0, 20.0, 30.0])
    np.testing.assert_array_equal(by_width.y, on_grid.y)

    early = build_data(table, grid=TimeGrid([10.0, 20.0, 30.0]),
                       censor=CensorOption.CENSORED_EARLY)
    np.testing.assert_array_equal(early.y, [1, 1, 3])

    with pytest.raises(InputError, match="not both"):
        build_data(table, grid=TimeGrid([10.0]), width=10.0)


def test_build_data_takes_times_as_the_discrete_support(tmp_path):
    path = _write(tmp_path / "subj.csv",
                  "id,time,status,x\n"
                  "a,72,1,1\nb,10,0,2\nc,72,1,3\nd,100,0,4\n")
    data = build_data(read_subject_csv(path))
    np.testing.assert_array_equal(data.grid.breakpoints, [10.0, 72.0, 100.0])
    np.testing.assert_array_equal(data.y, [2, 1, 2, 3])
    np.testing.assert_array_equal(data.delta, [True, False, True, False])
    assert data.covariate_names == ["x"]

    bad = _write(tmp_path / "bad.csv", "id,time,status,x\na,0,1,1\n")
    with pytest.raises(InputError, match="strictly positive"):
        build_data(read_subject_csv(bad))


def test_read_person_period_csv(tmp_path):
    path = _write(tmp_path / "pp.csv",
                  "id,interval,event,z\n"
                  "a,1,0,1.0\n"
                  "a,2,0,1.5\n"
                  "a,3,1,2.0\n"
                  "b,2,0,7.0\n"
                  "b,1,0,5.0\n")
    data = read_person_period_csv(path)
    assert data.n == 2 and data.n_intervals == 3
    np.testing.assert_array_equal(data.y, [3, 2])
    np.testing.assert_array_equal(data.delta, [True, False])
    np.testing.assert_array_equal(data.covariates_at(1)[:, 0], [1.0, 5.0])
    np.testing.assert_array_equal(data.covariates_at(2)[:, 0], [1.5, 7.0])
    # rows past a subject's last at-risk interval repeat the final value
    np.testing.assert_array_equal(data.covariates_at(3)[:, 0], [2.0, 7.0])


def test_read_person_period_csv_rejects_malformed_files(tmp_path):
    with pytest.raises(InputError, match="without gaps"):
        read_person_period_csv(_write(tmp_path / "a.csv",
                                      "id,interval,event,z\n"
                                      "a,1,0,1\na,3,1,1\n"))
    with pytest.raises(InputError, match="event before its"):
        read_person_period_csv(_write(tmp_path / "b.csv",
                                      "id,interval,event,z\n"
                                      "a,1,1,1\na,2,1,1\n"))
    # the first subject the file lists is named; a repeated interval is a gap
    with pytest.raises(InputError, match="subject 'b' intervals must run"):
        read_person_period_csv(_write(tmp_path / "e.csv",
                                      "id,interval,event,z\n"
                                      "b,1,0,1\na,1,1,1\nb,1,0,2\na,2,0,1\n"))
    with pytest.raises(InputError, match="event must be 0 or 1"):
        read_person_period_csv(_write(tmp_path / "c.csv",
                                      "id,interval,event,z\na,1,2,1\n"))
    with pytest.raises(InputError, match="positive integer"):
        read_person_period_csv(_write(tmp_path / "d.csv",
                                      "id,interval,event,z\na,1.5,0,1\n"))


def test_read_tables_csv(tmp_path):
    path = _write(tmp_path / "tables.csv",
                  "stratum,n11,n12,n21,n22\n"
                  "1,4,6,2,8\n"
                  "2,1,5,2,4\n")
    tables = read_tables_csv(path)
    np.testing.assert_array_equal(tables.n11, [4, 1])
    np.testing.assert_array_equal(tables.n22, [8, 4])
    assert tables.n_strata == 2
    with pytest.raises(InputError, match="missing required column 'n21'"):
        read_tables_csv(_write(tmp_path / "bad.csv",
                               "n11,n12,n22\n1,2,3\n"))


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, -1e300, 123456789.123456789, 2.0, 0.0,
              5e-324):
        assert float(format_float(x)) == x
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"
    assert format_float(np.float64(0.25)) == "0.25"


def test_dump_json_is_byte_stable():
    obj = {
        "estimate": np.array([0.1, 1.0 / 3.0]),
        "nested": {"se": 0.25, "bad": float("nan"), "big": float("inf")},
        "names": ["a", "b"],
        "count": 3,
        "ok": True,
        "none": None,
        "empty_list": [],
        "empty_dict": {},
    }
    text = dump_json(obj)
    again = dump_json(json.loads(text))
    assert again == text
    assert '"bad": "nan"' in text
    assert "0.10000000000000001" in text

    fh = io.StringIO()
    dump_json(obj, fh)
    assert fh.getvalue() == text + "\n"

    with pytest.raises(TypeError):
        dump_json({"x": object()})


def test_write_curve_csv(tmp_path):
    y = np.array([1, 1, 1, 1, 1, 2, 2])
    delta = np.array([1, 0, 0, 0, 0, 1, 1], dtype=bool)
    X = np.array([[0.0], [1.0], [-1.0], [0.6], [-0.6], [0.3], [-0.3]])
    subs = [SubjectRecord(str(i), int(y[i]), bool(delta[i]), Static(X[i]))
            for i in range(7)]
    data = DiscreteSurvivalData(TimeGrid([1.0, 2.0]), subs)
    curve = odds_curve(data, fit_beta(data, tol=1e-12))

    path = tmp_path / "curve.csv"
    write_curve_csv(curve, data.grid.breakpoints, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "k", "t_k", "hazard", "survival", "cumhaz", "se_log_surv_robust",
        "se_log_surv_mb", "se_surv_robust", "se_surv_mb", "flags"]
    assert len(lines) == 3
    row1 = lines[1].split(",")
    assert row1[0] == "1"
    assert float(row1[2]) == curve.hazards[0]
    assert float(row1[3]) == curve.survival[0]
    row2 = lines[2].split(",")
    assert row2[5] == "nan"
    assert "se_undefined" in row2[-1]

    with pytest.raises(InputError, match="length differ"):
        write_curve_csv(curve, [1.0], str(tmp_path / "other.csv"))
