"""Reference figures that no bound gates, for perfbench/README.md.

    python3 perfbench/reference.py --out perfbench/results/reference_seed.json

* ``sim_fine`` replicates with ``threads=1`` and ``threads=2`` (a process
  pool), as replicates per second of wall time.
* Original-scale analyses as n grows, each size in a fresh process so
  that its peak RSS is its own: the full ``orig_scale`` analysis at
  n = 1e3 and 4e3, and the probability-model fit with its tie-aware
  variance (``fit_gamma`` + ``var_model_based2``) at n = 1e3, 4e3 and 1e4.
  The full analysis is not run at 1e4: its dense plogit matrices and
  risk-set copies would need several GB on a machine whose memory other
  jobs share.
* The ``binned_large`` analysis at the size first asked for, n = 1e5.
* n = 1e5 on the original scale is not attempted; the file records the
  bytes the risk-set copies of one fit would need, from ``risk_summary``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
REPS = 300  # sim_fine replicates per thread count


def child(kind, n):
    sys.path.insert(0, str(ROOT / "src"))
    import dsurv
    import workloads
    table = workloads.subject_table(SEED, n)
    t0 = time.perf_counter()
    if kind in ("full", "binned"):
        workloads.analysis(table, workloads.BinnedLarge.width if kind == "binned"
                           else None, workloads.OrigScale.x0)
    else:
        data = dsurv.io.build_data(table)
        dsurv.var_model_based2(data, dsurv.fit_gamma(data))
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall_s": wall, "peak_rss_mb": rss}))


def in_child(*args):
    proc = subprocess.run([sys.executable, __file__, "--child", *map(str, args)],
                          capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def replicate_rate(threads, reps):
    sys.path.insert(0, str(ROOT / "src"))
    import dsurv
    import workloads
    scenario = dsurv.SimScenario(n=100, beta_star=workloads._SIM_BETA,
                                 bin_width=workloads._SIM_WIDTH, reps=reps, seed=SEED)
    t0 = time.perf_counter()
    dsurv.replicate(scenario, methods=("bp", "wmh"), variance_kinds=("robust",),
                    threads=threads)
    return reps / (time.perf_counter() - t0)


def cache_mb(n):
    sys.path.insert(0, str(ROOT / "src"))
    import dsurv
    import workloads
    data = dsurv.io.build_data(workloads.subject_table(SEED, n))
    s = dsurv.risk_summary(data)
    rows = int(s.n_at_risk[s.n_events > 0].sum())
    return rows * (8 * data.d + 1) / 2.0 ** 20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("KIND", "N"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]))
        return 0

    out = {"seed": SEED, "sim_fine_replicates_per_s": {}, "orig_scale": []}
    for threads in (1, 2):
        rate = replicate_rate(threads, REPS)
        out["sim_fine_replicates_per_s"][f"threads={threads}"] = rate
        print(f"sim_fine threads={threads}: {rate:.1f} replicates/s ({REPS} reps)",
              flush=True)
    for kind, sizes in (("full", (1000, 4000)), ("prob_fit", (1000, 4000, 10000))):
        for n in sizes:
            row = {"analysis": kind, "n": n, **in_child(kind, n)}
            out["orig_scale"].append(row)
            print(f"orig_scale {kind} n={n}: {row['wall_s']:.2f} s, "
                  f"peak RSS {row['peak_rss_mb']:.0f} MB", flush=True)
    out["binned_large"] = {"n": 100_000, **in_child("binned", 100_000)}
    print(f"binned_large n=1e5: {out['binned_large']['wall_s']:.2f} s, "
          f"peak RSS {out['binned_large']['peak_rss_mb']:.0f} MB", flush=True)
    out["orig_scale"].append({
        "analysis": "full", "n": 100_000, "status": "not attempted, quadratic memory",
        "riskset_copies_mb_per_fit": cache_mb(100_000)})
    print(f"orig_scale n=1e5: not attempted; one fit's risk-set copies alone "
          f"would take {out['orig_scale'][-1]['riskset_copies_mb_per_fit']:.0f} MB")
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
