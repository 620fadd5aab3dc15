"""Run the benchmark over several seeds and summarize it into a results file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_seed.json

The results file is labelled with the ``<label>`` of its name
``BENCH_<label>.json``.

Each run is a fresh ``run.py`` process (one at a time, so runs never
compete for the CPUs).  For every workload and end-to-end metric the
file records the ten values, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  One traced run per workload
adds the per-layer figures.  The machine's CPU count and the Python,
numpy and scipy versions head the file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        key, _, rest = line.partition(": ")
        if key in ("params", "samples"):
            info[key] = json.loads(rest)
    return result, info, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def machine():
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=None,
                        help="results JSON to write, BENCH_<label>.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    label = pathlib.Path(args.out).stem.removeprefix("BENCH_") if args.out else None

    report = {"label": label, "machine": machine(), "run_seconds": args.seconds,
              "seeds": seeds, "command": spec["command"], "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs, info = [], {}
        for seed in seeds:
            result, info, wall = run_once(name, seed, args.seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: {wall:.1f} s  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"params": info.get("params"), "samples": info.get("samples"),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = summarize(values) if len(values) >= 2 else {}
            stats.update(unit=runs[0]["metrics"][metric]["unit"], bound=bound,
                         values=values)
            entry["metrics"][metric] = stats
            # a cold set-up is mostly loading numpy's and scipy's extension
            # modules, which follows the machine's load; it is held to its
            # median between sets, not to its spread
            steady = (metric == "setup_s" or stats.get("spread") is None
                      or stats["spread"] < bound / 3)
            ok &= steady
            print(f"  {metric:<12} median {stats.get('median', values[0]):.6g} "
                  f"spread {stats.get('spread') or 0:.4f} bound {bound}"
                  f"{'' if steady else '  <-- above bound/3'}", flush=True)
        result, tinfo, wall = run_once(name, seeds[0], args.seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "samples": tinfo.get("samples"),
                              "metrics": {k: v["value"] for k, v in
                                          result["metrics"].items()}}
        print(f"  traced run: {wall:.1f} s", flush=True)
        report["workloads"][name] = entry

    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
