"""Smoke run of the whole benchmark at tiny sizes, so it does not rot.

    python3 perfbench/smoke.py

Kept out of the test suite (it starts a dozen processes and takes about
half a minute).  It checks that

* the oracles agree with dsurv's own score functions and closed forms on
  small random data, so a check that fails points at the program and
  not at an oracle;
* every workload runs with ``--trace 0`` and ``--trace 1``, exits 0 and
  ends its output with the result object, whose metric names and units
  are exactly those ``BENCHMARK.json`` lists;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dsurv  # noqa: E402
from dsurv import io as dio  # noqa: E402

import oracles  # noqa: E402


def _close(a, b, tol=1e-9):
    assert np.allclose(a, b, rtol=tol, atol=tol), (a, b)


def check_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n, d = int(rng.integers(30, 120)), int(rng.integers(1, 4))
        X = np.column_stack([rng.integers(0, 2, n).astype(float),
                             rng.standard_normal((n, d - 1))])
        time = rng.exponential(np.exp(-X @ rng.normal(0, 0.5, d)))
        status = rng.random(n) < 0.7
        table = dio.SubjectTable([str(i) for i in range(n)], time, status, X,
                                 [f"x{k}" for k in range(d)])
        coef = rng.normal(0, 0.5, d)

        untied = dio.build_data(table)
        _close(oracles.breslow_score(time, status, X, coef),
               n * dsurv.score_gamma(untied, coef))

        width = float(rng.uniform(0.1, 0.5))
        tied = dio.build_data(table, width=width)
        y, delta, J = oracles.discretize_width(time, status, width)
        assert np.array_equal(tied.y, y) and np.array_equal(tied.delta, delta)
        assert J == tied.n_intervals
        _close(oracles.prob_score(y, delta, X, coef), n * dsurv.score_gamma(tied, coef))
        _close(oracles.odds_score(y, delta, X, coef), n * dsurv.score_beta(tied, coef))

        tables = dsurv.StratifiedTables(*oracles.two_by_two(y, delta, X[:, 0], J))
        one = dio.build_data(dio.SubjectTable(table.ids, time, status, X[:, :1], ["x0"]),
                             width=width)
        _close(dsurv.bp_two_sample(tables).estimate,
               dsurv.fit_gamma(one, tol=1e-12).gamma[0], 1e-7)
        _close(dsurv.wmh_two_sample(tables).estimate,
               dsurv.fit_beta(one, tol=1e-12).beta[0], 1e-7)
    print("oracles agree with dsurv on 20 random datasets")


def run(args, cwd):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"], ROOT)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], set(got) ^ set(expected[trace])
            print(f"{w['name']} --trace {trace}: {result['attempted']} operations, ok")


def check_bare_directory():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, pathlib.Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "sim_fine", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout, proc.stdout
    print("without the sources the command exits", proc.returncode)


if __name__ == "__main__":
    check_oracles()
    check_runs()
    check_bare_directory()
    print("smoke run passed")
