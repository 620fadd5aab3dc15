"""CSV and JSON plumbing: subject tables, person-period files, 2x2
tables, and survival-curve output.

Two ingestion routes exist for subject-level files.  With a grid (or a
bin width) the raw times are discretized; without one the observed
times are taken at face value as the discrete support, i.e. the grid is
the set of distinct observed times and each subject sits at its own
time.  The latter is how "original scale" analyses of datasets recorded
in days are run.

Every CSV is read as UTF-8 text.  Blank rows are skipped; any other row
must have as many fields as the header.  Numeric cells are parsed by
``float`` a column at a time (whitespace, ``1_000`` and ``inf`` pass),
and the first bad cell is named by its column and data row.  Output
writes every float at 17 significant digits, a column or a record at a
time, in the bytes ``csv.writer`` would write.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
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


def _read_columns(path):
    """The stripped header and the data columns, as lists of raw cells."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    # a row is blank when its cells, joined, are whitespace
    rows = list(itertools.compress(rows, map(str.strip, map("".join, rows))))
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    ragged = next(itertools.filterfalse(len(header).__eq__, map(len, rows)), None)
    if ragged is not None:
        raise InputError(f"{path}: ragged row with {ragged} fields "
                         f"(header has {len(header)})")
    cells = list(itertools.chain.from_iterable(itertools.islice(rows, 1, None)))
    return header, [cells[k::len(header)] for k in range(len(header))]


def _column(header, columns, name, path):
    if name not in header:
        raise InputError(f"{path}: missing required column '{name}'")
    return columns[header.index(name)]


def _floats(cells, name, path):
    # float() takes the whitespace around a cell, bar the ASCII separators
    # \x1c-\x1f that str.strip() also removes; a column it refuses is
    # parsed again one stripped cell at a time, to name the bad one
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        pass
    out = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            out[i] = float(cell.strip())
        except ValueError:
            raise InputError(f"{path}: column '{name}', row {i + 1}: "
                             f"cannot parse '{cell.strip()}' as a number") from None
    return out


def read_subject_csv(path) -> SubjectTable:
    """Read ``id,time,status,<covariates...>``; extra column order is kept.

    Each subject has one row, so a repeated ``id`` is an input error.
    """
    header, columns = _read_columns(path)
    ids = list(map(str.strip, _column(header, columns, "id", path)))
    _, first, seen = np.unique(ids, return_index=True, return_inverse=True)
    repeat = np.flatnonzero(first[seen] != np.arange(len(ids)))
    if repeat.size:
        k = repeat[0]
        raise InputError(f"{path}: duplicate id '{ids[k]}' (rows {first[seen[k]] + 1} "
                         f"and {k + 1})")
    time = _floats(_column(header, columns, "time", path), "time", path)
    status = _floats(_column(header, columns, "status", path), "status", path)
    if np.any((status != 0) & (status != 1)):
        raise InputError(f"{path}: status must be 0 or 1")
    names = [h for h in header if h not in ("id", "time", "status")]
    if not names:
        raise InputError(f"{path}: no covariate columns")
    cols = [_floats(_column(header, columns, nm, path), nm, path) for nm in names]
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
    if width is not None:  # over the finite times; discretize names the rest
        grid = TimeGrid.from_width(width, float(np.max(
            table.time, initial=0.0, where=np.isfinite(table.time))))
    if grid is not None:
        return discretize((table.time, table.status, table.covariates), grid, censor,
                          ids=table.ids, covariate_names=table.names)
    bad = np.flatnonzero(~np.isfinite(table.time))
    if bad.size:  # named as discretize names it, before the grid is made
        raise InputError(f"record {bad[0]}: non-finite time")
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
    header, columns = _read_columns(path)
    ids = list(map(str.strip, _column(header, columns, "id", path)))
    interval = _floats(_column(header, columns, "interval", path), "interval", path)
    event = _floats(_column(header, columns, "event", path), "event", path)
    if np.any((event != 0) & (event != 1)):
        raise InputError(f"{path}: event must be 0 or 1")
    names = [h for h in header if h not in ("id", "interval", "event")]
    if not names:
        raise InputError(f"{path}: no covariate columns")
    cols = np.column_stack([_floats(_column(header, columns, nm, path), nm, path)
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
    header, columns = _read_columns(path)
    counts = {nm: _floats(_column(header, columns, nm, path), nm, path)
              for nm in ("n11", "n12", "n21", "n22")}
    return StratifiedTables(**counts)


# curve rows formatted per write, which bounds the text held in memory
_ROWS_PER_WRITE = 1 << 14
_CURVE_COLUMNS = ["k", "t_k", "hazard", "survival", "cumhaz",
                  "se_log_surv_robust", "se_log_surv_mb",
                  "se_surv_robust", "se_surv_mb", "flags"]


def write_curve_csv(curve, times, path) -> None:
    """One row per interval with the point curve, both SE pairs, and flags.

    ``times`` carries the grid breakpoints ``t_1..t_J`` (they are not
    stored on the curve itself).  The bytes are those of ``csv.writer``.
    """
    times = np.asarray(times, dtype=float)
    if times.size != curve.hazards.size:
        raise InputError("times and curve length differ")
    columns = [times, curve.hazards, curve.survival, curve.cumhaz,
               curve.se_log_surv_robust, curve.se_log_surv_model_based,
               curve.se_surv_robust, curve.se_surv_model_based]
    flags = _csv_fields(curve.flags)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CURVE_COLUMNS) + "\r\n")
        for lo in range(0, times.size, _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            cells = zip(map(str, range(lo + 1, times.size + 1)),
                        *(format_column(c[rows]) for c in columns), flags[rows])
            fh.write("".join(map("{}\r\n".format, map(",".join, cells))))


def _csv_fields(texts):
    """Each text as ``csv.writer`` writes it among other fields."""
    field = {}
    for text in set(texts):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, ""])
        field[text] = buf.getvalue().removesuffix(",\r\n")
    return [field[text] for text in texts]


def format_float(x) -> str:
    """17-significant-digit decimal form (``nan``, ``inf`` or ``-inf``
    when not finite); round-trips exactly."""
    return format(float(x), ".17g")


def format_column(values) -> list:
    """:func:`format_float` of each entry of a 1-D array."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).tolist()))


def dump_json(obj, fh=None) -> str:
    """Serialize with every float at 17 significant digits (non-finite
    values as quoted strings), so emit -> parse -> emit is byte-stable."""
    pieces = []
    _write_json(obj, pieces, 0)
    text = "".join(pieces)
    if fh is not None:
        fh.write(text + "\n")
    return text


@functools.lru_cache(maxsize=4096)
def _key_head(key):
    return json.dumps(key) + ": "


def _write_json(obj, out, depth):
    # a container writes its float and int members in its own loop, so
    # that a flat record or a float list costs no call per value
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        brackets, items = "{}", zip(map(_key_head, map(str, obj)), obj.values())
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", zip(itertools.repeat(""), obj)
    else:
        if isinstance(obj, np.integer):
            obj = int(obj)
        if isinstance(obj, (float, np.floating)):
            text = format_float(obj)
            out.append(text if math.isfinite(obj) else f'"{text}"')
        elif obj is None or isinstance(obj, (bool, int, str)):
            out.append(json.dumps(obj))
        else:
            raise TypeError(f"not JSON-serializable: {type(obj)!r}")
        return
    if not obj:
        out.append(brackets)
        return
    inner = "  " * (depth + 1)
    sep, comma = brackets[0] + "\n" + inner, ",\n" + inner
    for head, val in items:
        kind = type(val)
        if kind is float:
            text = format(val, ".17g")
            out.append(sep + head + (text if math.isfinite(val) else f'"{text}"'))
        elif kind is int:
            out.append(sep + head + str(val))
        else:
            out.append(sep + head)
            _write_json(val, out, depth + 1)
        sep = comma
    out.append("\n" + "  " * depth + brackets[1])
