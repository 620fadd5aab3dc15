"""Command-line interface.

Subcommands: ``fit`` (regression models with SEs and optional survival
curve), ``discretize`` (map raw times onto a grid and write the result),
``tables`` (stratified 2x2 closed forms), ``simulate`` (replication
harness driven by a scenario JSON).

Exit codes: 0 success; 1 input/data error; 2 convergence failure.
JSON output carries every float at 17 significant digits and re-emitting
a parsed report reproduces the bytes exactly; the human-readable table
rounds to 3 decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.special import ndtr

from . import __version__
from .data import CensorOption, TimeGrid, expand_step_terms, risk_summary
from .errors import (ConvergenceError, InputError, SingularMatrixError,
                     check_settings)
from .io import (build_data, dump_json, format_float, read_person_period_csv,
                 read_subject_csv, read_tables_csv, write_curve_csv)
from .odds import VARIANCES, fit_beta
from .plogit import fit_plogit, plogit_variances
from .prob import fit_gamma
from .sim import replicate, scenario_from_json_dict, summary_to_csv
from .survcurve import odds_curve, prob_curve
from .twosample import bp_two_sample, wmh_two_sample

__all__ = ["main"]


def _parse_args(argv):
    top = argparse.ArgumentParser(prog="dsurv",
                                  description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a discrete-time survival regression")
    fit.add_argument("--model", required=True, choices=["prob", "odds", "plogit"])
    fit.add_argument("--data", required=True, help="subject CSV (id,time,status,...)")
    fit.add_argument("--person-period", action="store_true",
                     help="input is long format (id,interval,event,...)")
    _grid_options(fit)
    fit.add_argument("--tdc", action="append", default=[], metavar="COL:T1,T2",
                     help="append step terms for a column at thresholds")
    fit.add_argument("--variance", default=None, metavar="KINDS",
                     help="comma list from {old,mb,mb2,mb3}; robust is always "
                          "computed (defaults: prob/odds mb2, plogit mb)")
    fit.add_argument("--x0", default=None, metavar="V1,V2,...",
                     help="covariate profile for the survival curve")
    fit.add_argument("--curve", default=None, metavar="OUT.CSV",
                     help="write the fitted survival curve (prob/odds only)")
    fit.add_argument("--json", default=None, metavar="OUT.JSON",
                     help="write the full report as JSON ('-' for stdout)")
    fit.add_argument("--baseline", action="store_true",
                     help="include the per-interval baseline in the table")
    fit.add_argument("--tol", type=float, default=1e-9)
    fit.add_argument("--max-iter", type=int, default=50)

    disc = sub.add_parser("discretize", help="map raw times onto a grid")
    disc.add_argument("--data", required=True)
    _grid_options(disc)
    disc.add_argument("--out", default=None, metavar="OUT.CSV",
                      help="write id,interval,event + covariates")

    tab = sub.add_parser("tables", help="stratified 2x2 closed forms")
    tab.add_argument("--data", required=True,
                     help="CSV with columns stratum,n11,n12,n21,n22")
    tab.add_argument("--json", default=None, metavar="OUT.JSON")

    simp = sub.add_parser("simulate", help="run a simulation scenario")
    simp.add_argument("--scenario", required=True, help="scenario JSON file")
    simp.add_argument("--reps", type=int, default=None, help="override reps")
    simp.add_argument("--seed", type=int, default=None,
                      help="override seed (beats DSURV_SEED)")
    simp.add_argument("--threads", type=int, default=1)
    simp.add_argument("--methods", default="bp,wmh,plogit")
    simp.add_argument("--variances", default="old,mb,mb2,mb3,robust")
    simp.add_argument("--out", default=None, metavar="OUT.CSV")

    return top.parse_args(argv)


def _grid_options(parser):
    parser.add_argument("--grid", default=None, metavar="T1,T2,...",
                        help="explicit breakpoints; omit with --width")
    parser.add_argument("--width", type=float, default=None,
                        help="equal bin width covering the observed range")
    parser.add_argument("--censor", default="late", choices=["early", "late"],
                        help="interval convention for censored times")


def _number_list(text, option):
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InputError(f"{option} expects comma-separated numbers "
                         f"(got '{text}')") from None


def _load_data(args):
    """Read ``--data`` for ``fit`` and ``discretize``, on the grid the
    options select, with any ``--tdc`` step terms appended."""
    if getattr(args, "person_period", False):
        if args.grid or args.width:
            raise InputError("person-period input is already discrete")
        return read_person_period_csv(args.data)
    table = read_subject_csv(args.data)
    grid = None
    if args.grid is not None:
        if args.width is not None:
            raise InputError("give --grid or --width, not both")
        grid = TimeGrid(_number_list(args.grid, "--grid"))
    data = build_data(table, grid=grid, width=args.width,
                      censor=CensorOption(args.censor))
    for spec_str in getattr(args, "tdc", []):
        data = _apply_tdc(data, spec_str)
    return data


def _apply_tdc(data, spec_str):
    try:
        col, raw = spec_str.split(":", 1)
        thresholds = [float(v) for v in raw.split(",") if v]
    except ValueError:
        thresholds = []
    if not thresholds:
        raise InputError(f"--tdc expects COL:T1,T2,... (got '{spec_str}')")
    if col not in data.covariate_names:
        raise InputError(f"--tdc column '{col}' not in {data.covariate_names}")
    return expand_step_terms(data, data.covariate_names.index(col), thresholds)


def _variance_kinds(args, model):
    default = {"prob": ["mb2"], "odds": ["mb2"], "plogit": ["mb"]}[model]
    kinds = (default if args.variance is None
             else [k.strip() for k in args.variance.split(",") if k.strip()])
    allowed = (set(VARIANCES[model]) - {"robust"} if model in VARIANCES
               else {"mb"})
    bad = set(kinds) - allowed
    if bad:
        raise InputError(f"variance kind(s) {sorted(bad)} not defined for "
                         f"--model {model} (allowed: {sorted(allowed)})")
    return kinds


def cmd_fit(args):
    check_settings(args.tol, args.max_iter, "--tol", "--max-iter")
    data = _load_data(args)
    kinds = _variance_kinds(args, args.model)
    x0 = None
    if args.x0 is not None:
        x0 = _number_list(args.x0, "--x0")
        if x0.shape != (data.d,):
            raise InputError(f"--x0 needs {data.d} values, one per covariate "
                             f"{data.covariate_names} (got {x0.size})")

    if args.model == "plogit":
        fit = fit_plogit(data, tol=args.tol, max_iter=args.max_iter,
                         full_fisher=False)
        point, baseline = fit.beta, fit.beta0
        mb, robust = plogit_variances(data, fit)
        ses = {"mb": np.sqrt(np.diag(mb))} if "mb" in kinds else {}
        robust_se = np.sqrt(np.diag(robust))
        baseline_label = "log_odds"
    else:
        if args.model == "prob":
            fit = fit_gamma(data, tol=args.tol, max_iter=args.max_iter)
            point, baseline = fit.gamma, fit.gamma0
            baseline_label = "log_hazard"
        else:
            fit = fit_beta(data, tol=args.tol, max_iter=args.max_iter)
            point, baseline = fit.beta, fit.beta0
            baseline_label = "log_odds"
        table = VARIANCES[args.model]
        estimates = {k: table[k](data, fit) for k in kinds}
        ses = {k: v.se for k, v in estimates.items()}
        robust_se = table["robust"](data, fit).se

    z = point / robust_se
    pvals = 2.0 * ndtr(-np.abs(z))
    coef_rows = []
    for i, name in enumerate(data.covariate_names):
        row = {"name": name, "estimate": float(point[i])}
        for k in kinds:
            row[f"se_{k}"] = float(ses[k][i])
        row["se_robust"] = float(robust_se[i])
        row["z"] = float(z[i])
        row["p"] = float(pvals[i])
        coef_rows.append(row)
    baseline_rows = [{"interval": j + 1,
                      "t": float(data.grid.breakpoints[j]),
                      baseline_label: float(baseline[j])}
                     for j in range(data.n_intervals)]
    report = {
        "model": args.model,
        "n": data.n,
        "n_intervals": data.n_intervals,
        "coefficients": coef_rows,
        "baseline": baseline_rows,
        "convergence": {"iterations": fit.iterations,
                        "score_norm": float(fit.score_norm),
                        "tol": args.tol},
        "warnings": list(data.warnings) + list(fit.warnings),
    }

    if args.curve is not None:
        if args.model == "plogit":
            raise InputError("--curve supports --model prob or odds only")
        maker = prob_curve if args.model == "prob" else odds_curve
        # the curve's default variance is the mb2 estimate made above
        curve = maker(data, fit, x0=x0, variance=estimates.get("mb2"))
        write_curve_csv(curve, data.grid.breakpoints, args.curve)
        report["warnings"] += list(curve.warnings)

    _emit_report(report, args)
    return 0


def _write_json(report, target):
    """Write ``report`` to the ``--json`` target ('-' for stdout), if any."""
    if target is None:
        return
    text = dump_json(report)
    if target == "-":
        print(text)
    else:
        with open(target, "w") as fh:
            fh.write(text + "\n")


def _emit_report(report, args):
    _write_json(report, args.json)
    if args.json != "-":
        _print_fit_table(report, include_baseline=getattr(args, "baseline", False))


def _print_fit_table(report, include_baseline=False):
    conv = report["convergence"]
    print(f"model: {report['model']}   n={report['n']}   "
          f"J={report['n_intervals']}   iterations={conv['iterations']}")
    rows = report["coefficients"]
    se_keys = [k for k in rows[0] if k.startswith("se_")]
    header = ["term", "estimate", *se_keys, "z", "p"]
    table = [[r["name"], *(f"{r[k]:.3f}" for k in header[1:])] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if include_baseline:
        label = next(k for k in report["baseline"][0] if k.startswith("log_"))
        print(f"\ninterval  t        {label}")
        for b in report["baseline"]:
            print(f"{b['interval']:<8d}  {b['t']:<7.3f}  {b[label]:.3f}")
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)


def cmd_discretize(args):
    data = _load_data(args)
    summary = risk_summary(data)
    print("interval  t        at_risk  events")
    for j in range(data.n_intervals):
        print(f"{j + 1:<8d}  {data.grid.breakpoints[j]:<7.3f}  "
              f"{summary.n_at_risk[j]:<7d}  {summary.n_events[j]:d}")
    if args.out is not None:
        import csv as _csv
        with open(args.out, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["id", "interval", "event"] + data.covariate_names)
            # covariates in each subject's last interval (the first for y = 0)
            epoch = np.searchsorted(data.firsts, np.maximum(data.y, 1), side="right") - 1
            last = data.epochs[epoch, np.arange(data.n)]
            for sid, y, event, x in zip(data.ids.tolist(), data.y.tolist(),
                                        data.delta.astype(int).tolist(), last.tolist()):
                writer.writerow([sid, y, event] + [format_float(v) for v in x])
    for w in data.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_tables(args):
    tables = read_tables_csv(args.data)
    report = {"n_strata": tables.n_strata}
    try:
        bp = bp_two_sample(tables)
        report["bp"] = {"log_prob_ratio": bp.estimate,
                        "se_mb2": math.sqrt(bp.var_model_based2),
                        "se_robust": math.sqrt(bp.var_robust),
                        "n_skipped": bp.n_skipped}
    except (InputError, ConvergenceError) as exc:
        report["bp"] = {"error": str(exc)}
    try:
        wmh = wmh_two_sample(tables)
        report["wmh"] = {"log_odds_ratio": wmh.estimate,
                         "se_mb2": math.sqrt(wmh.var_model_based2),
                         "se_mb3": math.sqrt(wmh.var_model_based3),
                         "se_robust": math.sqrt(wmh.var_robust),
                         "n_skipped": wmh.n_skipped}
    except (InputError, ConvergenceError) as exc:
        report["wmh"] = {"error": str(exc)}

    _write_json(report, args.json)
    if args.json != "-":
        for tag, label in (("bp", "log probability ratio"),
                           ("wmh", "log odds ratio")):
            block = report[tag]
            if "error" in block:
                print(f"{tag}: unavailable ({block['error']})")
                continue
            est = block.get("log_prob_ratio", block.get("log_odds_ratio"))
            ses = ", ".join(f"{k[3:]} {v:.3f}" for k, v in block.items()
                            if k.startswith("se_"))
            print(f"{tag}: {label} = {est:.3f}  (se: {ses}; "
                  f"skipped strata: {block['n_skipped']})")
    if "error" in report["bp"] and "error" in report["wmh"]:
        raise InputError("neither estimator is defined for these tables")
    return 0


def cmd_simulate(args):
    with open(args.scenario) as fh:
        raw = json.load(fh)
    if args.reps is not None:
        raw["reps"] = args.reps
    env_seed = os.environ.get("DSURV_SEED")
    if env_seed is not None:
        raw["seed"] = int(env_seed)
    if args.seed is not None:
        raw["seed"] = args.seed
    scenario = scenario_from_json_dict(raw)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    kinds = [k.strip() for k in args.variances.split(",") if k.strip()]
    summary = replicate(scenario, methods=methods, variance_kinds=kinds,
                        threads=args.threads)
    if args.out is None:
        summary_to_csv(summary, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            summary_to_csv(summary, fh)
    return 0


_COMMANDS = {"fit": cmd_fit, "discretize": cmd_discretize,
             "tables": cmd_tables, "simulate": cmd_simulate}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, SingularMatrixError) as exc:
        print(f"error: convergence: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: input: invalid JSON ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
