"""Seeded benchmark of dsurv: one workload per process, closed loop.

    python3 perfbench/run.py --workload sim_fine --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's ``src/`` and nowhere else,
so the command fails (exit 2, no result line) where the sources are
absent.

``--trace 0`` measures the end-to-end metrics: operations per second of
busy time (median over windows of whole rounds), median operation time,
peak RSS of this process and set-up time.  Set-up is importing the
package, making the inputs and the warm-up, timed from a process that
has not imported dsurv yet: once in this process and in
``SETUP_SAMPLES - 1`` fresh ones; the median is reported.  ``--trace 1``
measures the per-layer metrics instead: untraced rounds alternate with
rounds that record a span around every call into a wrapped public
function (see ``spans.py``), then one round runs under ``tracemalloc``
for the peak allocations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics for people, with the workload's parameters and
sample counts.  Exit status is 0 only when every check passed and no
operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import spans

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7
WINDOW_S = 1.0


def _import_dsurv():
    """Import the checkout's package, and only that one."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dsurv
    import dsurv.cli  # noqa: F401
    where = pathlib.Path(dsurv.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"dsurv imported from {where}, not from {src}")


def cold_setup(name, seed, tiny):
    """Import the package, make the workload's inputs and warm up.

    Returns the workload and the seconds this took.  Called once per
    process, before anything has imported dsurv, so the time includes
    every first-call cost.
    """
    t0 = time.perf_counter()
    _import_dsurv()
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name](seed, tiny=tiny)
    try:
        w.setup()
    except BaseException:
        w.close()
        raise
    return w, time.perf_counter() - t0


def setup_in_fresh_process(args):
    """``cold_setup`` in a new interpreter (``--setup-only``)."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Loop:
    """A closed loop over one workload: whole rounds of operations, each
    output checked after its operation's clock has stopped."""

    def __init__(self, w, tracer=None):
        self.w, self.tracer = w, tracer
        self.durations, self.failures = [], []
        self.failed = self.rounds = 0
        self.busy = 0.0
        self.round_ends = []  # operation count after each round

    def round(self):
        w = self.w
        for _ in range(w.round_size):
            i = len(self.durations)
            scope = self.tracer.operation(i) if self.tracer else contextlib.nullcontext()
            error = result = None
            t0 = time.perf_counter()
            try:
                with scope:
                    result = w.op(i)
            except Exception as exc:  # an operation that raises has failed
                error = exc
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    bad = w.check(i, result)
                except Exception as exc:  # so does one whose check raises
                    bad = [f"op {i}: check raised {type(exc).__name__}: {exc}"]
            else:
                bad = [f"op {i}: {type(error).__name__}: {error}"]
            del result
            if bad:
                self.failed += 1
                self.failures += bad
            self.durations.append(dt)
            self.busy += dt
        self.rounds += 1
        self.round_ends.append(len(self.durations))

    def window_rates(self):
        """Operations per second of busy time in each window of whole
        rounds lasting at least ``WINDOW_S``."""
        rates, start = [], 0
        for end in self.round_ends:
            busy = sum(self.durations[start:end])
            if busy >= WINDOW_S or (end == self.round_ends[-1] and not rates):
                rates.append((end - start) / busy)
                start = end
        return rates


def end_to_end(w, seconds, setup_s):
    loop = Loop(w)
    while loop.busy < seconds:
        loop.round()
    d = loop.durations
    # the machine's speed dips for seconds at a time; medians over
    # windows and operations keep a dip from moving the figures
    rates = loop.window_rates()
    metrics = {
        "ops_per_s": (statistics.median(rates), "op/s"),
        "op_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    samples = {"ops_per_s": len(rates), "op_p50_ms": len(d), "peak_rss_mb": 1,
               "setup_s": SETUP_SAMPLES}
    return metrics, samples, len(d), loop.failed, loop.failures + finish(w)


def finish(w):
    """Failures of the checks that need the whole run."""
    try:
        return w.finish()
    except Exception as exc:
        return [f"end-of-run check raised {type(exc).__name__}: {exc}"]


def per_layer(w, seconds, workload_name, seed):
    # untraced and traced rounds alternate, so drift in the machine's
    # speed falls on both sides of the overhead estimate
    tracer = spans.Tracer()
    plain, traced = Loop(w), Loop(w, tracer)
    while (plain.busy < seconds / 2 or traced.busy < seconds / 2
           or traced.rounds < w.counted_rounds):
        plain.round()
        with spans.patched(tracer.wrapper):
            traced.round()
    counted = w.counted_rounds * w.round_size
    layers, op_wall, glue = tracer.summary(range(counted))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{workload_name}-seed{seed}.json")

    failures = plain.failures + traced.failures + finish(w)
    if min(tracer.self_times()) < -1e-9:
        failures.append("a span has negative self time (overlapping spans)")

    peaks = spans.AllocPeaks()
    tracemalloc.start()
    try:
        with spans.patched(peaks.wrapper, names=spans.ALLOC_TARGETS):
            for k in range(w.round_size):
                w.op(k)
    finally:
        tracemalloc.stop()

    metrics = {}
    for name, value in layers.items():
        metrics[name] = (value, "s" if name.endswith(".self_s") else "count")
    for name in spans.ALLOC_TARGETS:
        metrics[f"{name}.peak_alloc_mb"] = (peaks.peaks.get(name, 0) / 2.0 ** 20, "MB")
    metrics.update(riskset_metrics(w, counted))
    traced_p50 = statistics.median(op_wall) * 1e3
    metrics["trace.op_p50_ms"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (
        traced_p50 - statistics.median(plain.durations) * 1e3, "ms")
    metrics["trace.glue_pct"] = (100.0 * glue / sum(op_wall), "%")
    samples = {"self_s": len(op_wall), "calls and counts": counted,
               "trace.overhead_ms": f"{len(op_wall)} traced, "
                                    f"{len(plain.durations)} untraced"}
    attempted = len(plain.durations) + len(traced.durations)
    return metrics, samples, attempted, plain.failed + traced.failed, failures


def riskset_metrics(w, counted):
    """Exact risk-set sizes of the datasets the counted operations fit,
    from the public ``risk_summary``; ``cache_mb`` is what one fit's
    per-interval copies of the risk-set covariates and event flags hold
    (8 d + 1 bytes a row)."""
    import dsurv

    intervals = rows = cache = 0
    for i in range(counted):
        for data in w.datasets(i):
            s = dsurv.risk_summary(data)
            n_j = s.n_at_risk[s.n_events > 0]
            intervals += n_j.size
            rows += int(n_j.sum())
            cache += int(n_j.sum()) * (8 * data.d + 1)
    return {"risksets.event_intervals": (intervals / counted, "count"),
            "risksets.rows": (rows / counted, "count"),
            "risksets.cache_mb": (cache / counted / 2.0 ** 20, "MB")}


def main(argv=None):
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke run")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds of one cold set-up and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        w, setup_s = cold_setup(args.workload, args.seed, args.tiny)
    except ImportError as exc:
        print(f"error: cannot import dsurv from this checkout: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            metrics, samples, attempted, failed, failures = per_layer(
                w, args.seconds, args.workload, args.seed)
        else:
            setups = [setup_s] + [setup_in_fresh_process(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            metrics, samples, attempted, failed, failures = end_to_end(
                w, args.seconds, statistics.median(setups))
    finally:
        w.close()

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}"
          f"  tiny: {int(args.tiny)}  wall: {time.perf_counter() - t_start:.1f} s")
    print("params: " + json.dumps(w.params()))
    print("samples: " + json.dumps(samples))
    print(f"attempted: {attempted}  failed: {failed}")
    for line in failures[:20]:
        print(f"check failed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
