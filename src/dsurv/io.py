"""CSV and JSON plumbing: subject tables, person-period files, 2x2
tables, and survival-curve output.

Two ingestion routes exist for subject-level files.  With a grid (or a
bin width) the raw times are discretized; without one the observed
times are taken at face value as the discrete support, i.e. the grid is
the set of distinct observed times and each subject sits at its own
time.  The latter is how "original scale" analyses of datasets recorded
in days are run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import CensorOption, DiscreteSurvivalData, TimeGrid, discretize
from .errors import InputError
from .twosample import StratifiedTables

__all__ = [
    "SubjectTable",
    "read_subject_csv",
    "build_data",
    "read_person_period_csv",
    "read_tables_csv",
    "write_curve_csv",
    "dump_json",
]


@dataclass(frozen=True)
class SubjectTable:
    """Raw subject-level columns as read from disk."""

    ids: list
    time: np.ndarray
    status: np.ndarray
    covariates: np.ndarray  # (n, d)
    names: list


def _read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


def _column(header, rows, name, path):
    if name not in header:
        raise InputError(f"{path}: missing required column '{name}'")
    k = header.index(name)
    return [row[k].strip() for row in rows]


def _floats(values, name, path):
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except ValueError:
            raise InputError(f"{path}: column '{name}', row {i + 1}: "
                             f"cannot parse '{v}' as a number") from None
    return out


def read_subject_csv(path) -> SubjectTable:
    """Read ``id,time,status,<covariates...>``; extra column order is kept.

    Each subject has one row, so a repeated ``id`` is an input error.
    """
    header, rows = _read_rows(path)
    for row in rows:
        if len(row) != len(header):
            raise InputError(f"{path}: ragged row with {len(row)} fields "
                             f"(header has {len(header)})")
    ids = _column(header, rows, "id", path)
    _, first, seen = np.unique(ids, return_index=True, return_inverse=True)
    repeat = np.flatnonzero(first[seen] != np.arange(len(ids)))
    if repeat.size:
        k = repeat[0]
        raise InputError(f"{path}: duplicate id '{ids[k]}' (rows {first[seen[k]] + 1} "
                         f"and {k + 1})")
    time = _floats(_column(header, rows, "time", path), "time", path)
    status = _floats(_column(header, rows, "status", path), "status", path)
    if np.any((status != 0) & (status != 1)):
        raise InputError(f"{path}: status must be 0 or 1")
    names = [h for h in header if h not in ("id", "time", "status")]
    if not names:
        raise InputError(f"{path}: no covariate columns")
    cols = [_floats(_column(header, rows, nm, path), nm, path) for nm in names]
    return SubjectTable(ids=ids, time=time, status=status.astype(bool),
                        covariates=np.column_stack(cols), names=names)


def build_data(table: SubjectTable, grid: TimeGrid | None = None,
               width: float | None = None,
               censor: CensorOption = CensorOption.CENSORED_LATE,
               ) -> DiscreteSurvivalData:
    """Turn a subject table into model-ready data.

    ``grid`` or ``width`` selects discretization of raw times; with
    neither, the distinct observed times become the grid and every
    subject's time is matched exactly.
    """
    if grid is not None and width is not None:
        raise InputError("give a grid or a bin width, not both")
    if width is not None:
        grid = TimeGrid.from_width(width, float(np.max(table.time)))
    if grid is not None:
        return discretize((table.time, table.status, table.covariates), grid, censor,
                          ids=table.ids, covariate_names=table.names)
    if np.any(table.time <= 0):
        raise InputError("as-discrete ingestion needs strictly positive times")
    times = np.unique(table.time)
    return DiscreteSurvivalData.from_arrays(
        TimeGrid(times), np.searchsorted(times, table.time) + 1, table.status,
        table.covariates, ids=table.ids, covariate_names=table.names)


def read_person_period_csv(path) -> DiscreteSurvivalData:
    """Read long-format rows ``id,interval,event,<covariates...>``.

    Each subject contributes one row per interval it is at risk in,
    with intervals contiguous from 1; ``event`` may be 1 only on the
    last row.  The grid is taken as ``1..J`` in the absence of real
    times.  The paths are stored by epoch (see
    :class:`~dsurv.data.DiscreteSurvivalData`), without an ``(n, J, d)``
    array.
    """
    header, rows = _read_rows(path)
    ids = _column(header, rows, "id", path)
    interval = _floats(_column(header, rows, "interval", path), "interval", path)
    event = _floats(_column(header, rows, "event", path), "event", path)
    if np.any((event != 0) & (event != 1)):
        raise InputError(f"{path}: event must be 0 or 1")
    names = [h for h in header if h not in ("id", "interval", "event")]
    if not names:
        raise InputError(f"{path}: no covariate columns")
    cols = np.column_stack([_floats(_column(header, rows, nm, path), nm, path)
                            for nm in names])
    if np.any(interval != np.floor(interval)) or np.any(interval < 1):
        raise InputError(f"{path}: interval must be a positive integer")
    J = int(np.max(interval))

    # number the subjects in the order the file first lists them, and
    # sort the rows by subject, then interval
    index: dict = {}
    code = np.array([index.setdefault(sid, len(index)) for sid in ids])
    order = np.lexsort((interval, code))
    code, interval, event, cols = code[order], interval[order], event[order], cols[order]
    y = np.bincount(code)
    start = np.cumsum(y) - y
    pos = np.arange(code.size) - start[code] + 1  # 1..y within each subject
    gaps = np.bincount(code, weights=interval != pos) > 0
    early = np.bincount(code, weights=(event == 1) & (pos < y[code])) > 0
    bad = np.flatnonzero(gaps | early)
    if bad.size:
        name = list(index)[bad[0]]
        if gaps[bad[0]]:
            raise InputError(f"{path}: subject '{name}' intervals must run 1..last "
                             "without gaps or repeats")
        raise InputError(f"{path}: subject '{name}' has an event before its "
                         "last at-risk interval")
    # an epoch starts wherever a row differs from the one before it (the
    # subject's previous row, unless the row is at interval 1, which
    # starts the first epoch); past its last row a subject keeps its values
    changed = np.r_[True, np.any(cols[1:] != cols[:-1], axis=1)]
    firsts = np.unique(interval[changed]).astype(np.intp)
    rows = start + np.minimum(firsts[:, None], y) - 1  # (E, n)
    return DiscreteSurvivalData.from_arrays(
        TimeGrid(np.arange(1.0, J + 1)), y, event[start + y - 1] == 1, cols[rows],
        firsts, ids=list(index), covariate_names=names)


def read_tables_csv(path) -> StratifiedTables:
    """Read stratified 2x2 counts ``stratum,n11,n12,n21,n22`` (file order)."""
    header, rows = _read_rows(path)
    counts = {nm: _floats(_column(header, rows, nm, path), nm, path)
              for nm in ("n11", "n12", "n21", "n22")}
    return StratifiedTables(**counts)


_CURVE_COLUMNS = ["k", "t_k", "hazard", "survival", "cumhaz",
                  "se_log_surv_robust", "se_log_surv_mb",
                  "se_surv_robust", "se_surv_mb", "flags"]


def write_curve_csv(curve, times, path) -> None:
    """One row per interval with the point curve, both SE pairs, and flags.

    ``times`` carries the grid breakpoints ``t_1..t_J`` (they are not
    stored on the curve itself).
    """
    times = np.asarray(times, dtype=float)
    if times.size != curve.hazards.size:
        raise InputError("times and curve length differ")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CURVE_COLUMNS)
        for k in range(times.size):
            writer.writerow([
                k + 1,
                format_float(times[k]),
                format_float(curve.hazards[k]),
                format_float(curve.survival[k]),
                format_float(curve.cumhaz[k]),
                format_float(curve.se_log_surv_robust[k]),
                format_float(curve.se_log_surv_model_based[k]),
                format_float(curve.se_surv_robust[k]),
                format_float(curve.se_surv_model_based[k]),
                curve.flags[k],
            ])


def format_float(x) -> str:
    """17-significant-digit decimal form; round-trips exactly."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def dump_json(obj, fh=None) -> str:
    """Serialize with every float at 17 significant digits (non-finite
    values as quoted strings), so emit -> parse -> emit is byte-stable."""
    pieces = []
    _write_json(obj, pieces, 0)
    text = "".join(pieces)
    if fh is not None:
        fh.write(text + "\n")
    return text


def _write_json(obj, out, depth):
    pad, inner = "  " * depth, "  " * (depth + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.integer):
        obj = int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(json.dumps(format_float(x)) if not math.isfinite(x)
                   else format_float(x))
    elif isinstance(obj, bool) or obj is None or isinstance(obj, int):
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _write_json(val, out, depth + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(obj):
            out.append(inner)
            _write_json(val, out, depth + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"not JSON-serializable: {type(obj)!r}")
