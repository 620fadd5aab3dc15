from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from dsurv import __version__
from dsurv.cli import main
from dsurv.io import dump_json


_SUBJECTS = (
    "id,time,status,x1,x2\n"
    "1,1,1,0.5,1.0\n"
    "2,1,0,-0.3,0.0\n"
    "3,2,1,0.1,-1.2\n"
    "4,2,1,0.8,0.4\n"
    "5,2,0,0.0,0.6\n"
    "6,3,1,-0.5,1.1\n"
    "7,3,0,0.9,-0.7\n"
    "8,3,1,0.2,0.3\n"
    "9,3,0,-0.8,-0.2\n")


def _subject_csv(tmp_path):
    path = tmp_path / "subjects.csv"
    path.write_text(_SUBJECTS)
    return str(path)


def test_fit_prints_a_rounded_coefficient_table(tmp_path, capsys):
    assert main(["fit", "--model", "prob", "--data",
                 _subject_csv(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("model: prob   n=9   J=3")
    assert lines[1].split() == ["term", "estimate", "se_mb2", "se_robust",
                                "z", "p"]
    x1 = lines[2].split()
    assert x1[0] == "x1"
    assert x1[1] == "1.035"  # three decimals
    assert main(["fit", "--model", "odds", "--data",
                 _subject_csv(tmp_path)]) == 0
    assert "se_mb2" in capsys.readouterr().out


def test_fit_json_report_round_trips_bytewise(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--tol", "1e-12", "--json", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert dump_json(report) + "\n" == text
    assert report["model"] == "prob"
    assert [r["name"] for r in report["coefficients"]] == ["x1", "x2"]
    np.testing.assert_allclose(
        [r["estimate"] for r in report["coefficients"]],
        [1.0348481503829163, 0.9093253360834274], atol=1e-9)
    assert [b["interval"] for b in report["baseline"]] == [1, 2, 3]
    assert report["convergence"]["iterations"] >= 1
    capsys.readouterr()

    # '-' sends the JSON to stdout instead of the table
    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--json", "-"]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["model"] == "prob"
    assert "term" not in stdout


def test_fit_writes_a_survival_curve(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["fit", "--model", "odds", "--data", _subject_csv(tmp_path),
                 "--curve", str(out), "--x0", "0.5,1.0"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("k,t_k,hazard,survival")
    assert len(lines) == 4

    assert main(["fit", "--model", "plogit", "--data", _subject_csv(tmp_path),
                 "--curve", str(out)]) == 1


def test_fit_variance_kinds_are_model_specific(tmp_path, capsys):
    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--variance", "old,mb,mb2"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert header == ["term", "estimate", "se_old", "se_mb", "se_mb2",
                      "se_robust", "z", "p"]

    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--variance", "mb3"]) == 1
    assert "not defined" in capsys.readouterr().err

    assert main(["fit", "--model", "odds", "--data", _subject_csv(tmp_path),
                 "--variance", "mb2,mb3"]) == 0
    assert main(["fit", "--model", "plogit", "--data",
                 _subject_csv(tmp_path), "--variance", "mb2"]) == 1


def test_fit_expands_step_terms(tmp_path, capsys):
    path = tmp_path / "subjects.csv"
    path.write_text("id,time,status,age\n"
                    "1,5,1,60\n2,5,0,42\n3,15,1,50\n4,15,1,55\n5,15,0,48\n"
                    "6,25,1,61\n7,25,1,45\n8,25,0,52\n9,25,1,58\n10,25,0,47\n")
    assert main(["fit", "--model", "prob", "--data", str(path),
                 "--grid", "10,20,30", "--tdc", "age:10,20"]) == 0
    out = capsys.readouterr().out
    rows = [line.split()[0] for line in out.splitlines()[2:5]]
    assert rows == ["age", "age2", "age3"]

    assert main(["fit", "--model", "prob", "--data", str(path),
                 "--grid", "10,20,30", "--tdc", "height:10"]) == 1
    assert "not in" in capsys.readouterr().err


def test_fit_reads_person_period_files(tmp_path, capsys):
    path = tmp_path / "pp.csv"
    path.write_text("id,interval,event,z\n"
                    "a,1,0,1.0\na,2,1,1.5\n"
                    "b,1,0,0.2\nb,2,0,0.4\n"
                    "c,1,1,-0.3\nd,1,0,0.8\nd,2,1,-0.5\ne,1,0,0.1\n")
    assert main(["fit", "--model", "prob", "--person-period",
                 "--data", str(path)]) == 0
    assert "n=5" in capsys.readouterr().out

    assert main(["fit", "--model", "prob", "--person-period",
                 "--data", str(path), "--width", "1.0"]) == 1
    assert "already discrete" in capsys.readouterr().err


def test_discretize_prints_the_risk_table(tmp_path, capsys):
    out = tmp_path / "long.csv"
    assert main(["discretize", "--data", _subject_csv(tmp_path),
                 "--grid", "1,2,3", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["interval", "t", "at_risk", "events"]
    # censored-late default: a time-1 censoring moves to interval 2
    assert lines[1].split() == ["1", "1.000", "9", "1"]
    assert lines[2].split() == ["2", "2.000", "8", "2"]
    assert lines[3].split() == ["3", "3.000", "5", "2"]
    written = out.read_text().strip().splitlines()
    assert written[0] == "id,interval,event,x1,x2"
    assert len(written) == 10


@pytest.mark.parametrize("command", [["fit", "--model", "prob"], ["discretize"]])
def test_repeated_subject_ids_fail_with_input_error(tmp_path, capsys, command):
    path = tmp_path / "subjects.csv"
    path.write_text(_SUBJECTS + "3,4,1,0.0,0.0\n")
    assert main(command + ["--data", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: input: {path}: duplicate id '3' (rows 3 and 10)\n")


def test_person_period_repeats_fail_with_input_error(tmp_path, capsys):
    path = tmp_path / "pp.csv"
    path.write_text("id,interval,event,z\na,1,0,1.0\na,1,1,1.5\nb,1,1,0.2\n")
    assert main(["fit", "--model", "prob", "--person-period",
                 "--data", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: input: {path}: subject 'a' intervals must run 1..last "
        "without gaps or repeats\n")


def test_tables_command_prints_both_closed_forms(tmp_path, capsys):
    path = tmp_path / "tables.csv"
    path.write_text("stratum,n11,n12,n21,n22\n1,4,6,2,8\n")
    assert main(["tables", "--data", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("bp: log probability ratio = 0.693  "
                      "(se: mb2 0.742, robust 0.742; skipped strata: 0)")
    assert out[1] == ("wmh: log odds ratio = 0.981  "
                      "(se: mb2 1.075, mb3 1.021, robust 1.021; "
                      "skipped strata: 0)")

    json_out = tmp_path / "tables.json"
    assert main(["tables", "--data", str(path), "--json", str(json_out)]) == 0
    report = json.loads(json_out.read_text())
    np.testing.assert_allclose(report["bp"]["log_prob_ratio"], np.log(2.0),
                               atol=1e-10)
    assert dump_json(report) + "\n" == json_out.read_text()


def test_tables_with_no_finite_root_fail_with_input_error(tmp_path, capsys):
    path = tmp_path / "tables.csv"
    path.write_text("stratum,n11,n12,n21,n22\n1,3,0,0,5\n")
    assert main(["tables", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert "bp: unavailable" in captured.out
    assert "neither estimator" in captured.err


def test_exit_codes(tmp_path, capsys):
    assert main(["fit", "--model", "prob", "--data",
                 str(tmp_path / "absent.csv")]) == 1
    assert "error: input:" in capsys.readouterr().err

    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--tol", "1e-14", "--max-iter", "1"]) == 2
    assert "error: convergence:" in capsys.readouterr().err

    bad = tmp_path / "scenario.json"
    bad.write_text("{not json")
    assert main(["simulate", "--scenario", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("options", [
    ["fit", "--model", "prob", "--width", "nan"],
    ["fit", "--model", "prob", "--grid", "1,abc"],
    ["discretize", "--grid", "1,abc"],
    ["fit", "--model", "prob", "--x0", "1,x", "--curve", "curve.csv"],
    ["fit", "--model", "prob", "--x0", "1,x"],
    ["fit", "--model", "odds", "--x0", "1,2,3"],
], ids=["fit-width-nan", "fit-grid", "discretize-grid", "fit-x0",
        "fit-x0-without-curve", "fit-x0-wrong-length"])
def test_malformed_numeric_options_fail_with_input_error(tmp_path, capsys,
                                                         options):
    command, *rest = options
    rest = [str(tmp_path / v) if v.endswith(".csv") else v for v in rest]
    assert main([command, "--data", _subject_csv(tmp_path), *rest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["prob", "odds", "plogit"])
@pytest.mark.parametrize("options, message", [
    (["--tdc", "x1:nan"], "threshold nan outside the grid range"),
    (["--tdc", "x1:1,inf"], "threshold inf outside the grid range"),
    (["--tdc", "x1:"], "--tdc expects COL:T1,T2,... (got 'x1:')"),
    (["--tdc", "x1:,"], "--tdc expects COL:T1,T2,... (got 'x1:,')"),
    (["--tol", "-1"], "--tol must be a positive finite number (got -1.0)"),
    (["--tol", "0"], "--tol must be a positive finite number (got 0.0)"),
    (["--tol", "nan"], "--tol must be a positive finite number (got nan)"),
    (["--tol", "inf"], "--tol must be a positive finite number (got inf)"),
    (["--max-iter", "0"], "--max-iter must be at least 1 (got 0)"),
    (["--max-iter", "-2"], "--max-iter must be at least 1 (got -2)"),
], ids=["tdc-nan", "tdc-inf", "tdc-empty", "tdc-comma", "tol-negative",
        "tol-zero", "tol-nan", "tol-inf", "max-iter-zero", "max-iter-negative"])
def test_bad_fit_settings_fail_with_input_error(tmp_path, capsys, model,
                                                options, message):
    assert main(["fit", "--model", model, "--data", _subject_csv(tmp_path),
                 *options]) == 1
    err = capsys.readouterr().err
    assert err == f"error: input: {message}\n"


@pytest.mark.parametrize("model", ["prob", "odds"])
@pytest.mark.parametrize("x0", ["nan,1", "1,inf"])
def test_a_non_finite_curve_profile_fails_with_input_error(tmp_path, capsys,
                                                          model, x0):
    curve = tmp_path / "curve.csv"
    assert main(["fit", "--model", model, "--data", _subject_csv(tmp_path),
                 "--x0", x0, "--curve", str(curve)]) == 1
    assert capsys.readouterr().err == "error: input: x0 must be finite\n"
    assert not curve.exists()


def test_the_smallest_valid_iteration_budget_runs(tmp_path, capsys):
    # one Newton step from zero does not reach the default tolerance:
    # the budget is spent, which is a convergence failure, not bad input
    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--max-iter", "1"]) == 2
    assert "no convergence in 1 iterations" in capsys.readouterr().err
    assert main(["fit", "--model", "prob", "--data", _subject_csv(tmp_path),
                 "--max-iter", "1", "--tol", "1e300"]) == 0


def _scenario_file(tmp_path, name, seed):
    path = tmp_path / name
    path.write_text(json.dumps({
        "n": 40, "beta_star": [-0.4, 0.5, 0.5, -0.5, -0.5],
        "bin_width": 0.5, "reps": 2, "seed": seed}))
    return str(path)


def test_simulate_seed_precedence(tmp_path, monkeypatch, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    common = ["--methods", "bp", "--variances", "mb2,robust"]

    # environment seed beats the scenario file
    monkeypatch.setenv("DSURV_SEED", "2")
    assert main(["simulate", "--scenario", _scenario_file(tmp_path, "s1.json", 1),
                 "--out", str(out1)] + common) == 0
    monkeypatch.delenv("DSURV_SEED")
    assert main(["simulate", "--scenario", _scenario_file(tmp_path, "s2.json", 2),
                 "--out", str(out2)] + common) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # --seed beats the environment
    monkeypatch.setenv("DSURV_SEED", "1")
    assert main(["simulate", "--scenario", _scenario_file(tmp_path, "s3.json", 1),
                 "--seed", "2", "--out", str(out3)] + common) == 0
    assert out3.read_bytes() == out2.read_bytes()
    monkeypatch.delenv("DSURV_SEED")

    header = out1.read_text().splitlines()[0].split(",")
    assert header == ["coef", "BP_mean", "BP_sd", "BP_se_mb2", "BP_se_robust",
                      "BP_failed"]


@pytest.mark.parametrize("options, message", [
    (["--methods", "bp,foo"], "unknown method 'foo'"),
    (["--methods", ""], "no method to fit"),
    (["--methods", " , "], "no method to fit"),
    (["--variances", "robust,zzz"], "unknown variance kind 'zzz'"),
    (["--threads", "0"], "threads must be at least 1 (got 0)"),
    (["--threads", "-1"], "threads must be at least 1 (got -1)"),
], ids=["unknown-method", "no-methods", "blank-methods", "unknown-kind",
        "no-threads", "negative-threads"])
def test_simulate_rejects_what_it_cannot_run(tmp_path, capsys, options,
                                             message):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario",
                 _scenario_file(tmp_path, "s.json", 1), "--out", str(out),
                 *options]) == 1
    assert capsys.readouterr().err == f"error: input: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["prob", "odds"])
def test_fit_curve_reuses_the_reported_mb2_estimate(tmp_path, monkeypatch,
                                                    model):
    import dsurv.odds
    import dsurv.survcurve

    name = "var_model_based2" if model == "prob" else "var_model_based2_odds"
    original = getattr(dsurv.survcurve, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setitem(dsurv.odds.VARIANCES[model], "mb2", counted)
    monkeypatch.setattr(dsurv.survcurve, name, counted)
    reused = tmp_path / "reused.csv"
    assert main(["fit", "--model", model, "--data", _subject_csv(tmp_path),
                 "--curve", str(reused), "--x0", "0.5,1.0"]) == 0
    assert len(calls) == 1

    # without mb2 among the reported kinds the curve makes its own, and
    # the two curves agree byte for byte
    own = tmp_path / "own.csv"
    assert main(["fit", "--model", model, "--data", _subject_csv(tmp_path),
                 "--variance", "mb3" if model == "odds" else "old",
                 "--curve", str(own), "--x0", "0.5,1.0"]) == 0
    assert len(calls) == 2
    assert own.read_bytes() == reused.read_bytes()


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; import dsurv, dsurv.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_plogit_report_is_the_same_from_either_information_layout(
        tmp_path, monkeypatch):
    # the veterans data on the original scale has censoring-only times,
    # so the compact layout the CLI uses is smaller than the padded one
    import dsurv.cli
    from dsurv import fit_plogit

    veteran = str(pathlib.Path(__file__).resolve().parents[1] / "data"
                  / "veteran.csv")
    args = ["fit", "--model", "plogit", "--data", veteran, "--tdc",
            "treat:100,200", "--variance", "mb"]
    layouts = []

    def fit(*a, **kw):
        out = fit_plogit(*a, **kw)
        layouts.append(out.fisher.shape[0])
        return out

    monkeypatch.setattr(dsurv.cli, "fit_plogit", fit)
    compact = tmp_path / "compact.json"
    assert main(args + ["--json", str(compact)]) == 0
    monkeypatch.setattr(dsurv.cli, "fit_plogit", lambda *a, **kw: fit(
        *a, **{**kw, "full_fisher": True}))
    full = tmp_path / "full.json"
    assert main(args + ["--json", str(full)]) == 0
    report = json.loads(full.read_text())
    assert layouts[0] < layouts[1] == (report["n_intervals"]
                                       + len(report["coefficients"]))
    assert compact.read_bytes() == full.read_bytes()
