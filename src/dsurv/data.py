"""Discrete-time survival data structures.

A sample consists of subjects observed on a common time grid
``0 = t_0 < t_1 < ... < t_J``.  Subject ``i`` carries an interval index
``y_index`` in ``{0, 1, ..., J}`` (0 means censored before ``t_1``), an
event indicator ``delta`` and a covariate path (static vector or one row
per interval).  From these the risk and event indicators are derived as

    R[j, i] = 1{y_index_i >= j},    D[j, i] = 1{y_index_i == j and delta_i},

for ``j = 1, ..., J``.  Continuous records are mapped onto a grid by
:func:`discretize`; an uncensored time in ``(t_{j-1}, t_j]`` is encoded
as interval ``j``, while a censored time in ``[t_{j-1}, t_j)`` is encoded
as interval ``j - 1`` (censored-early) or ``j`` (censored-late).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "CensorOption",
    "TimeGrid",
    "Static",
    "TimeVarying",
    "SubjectRecord",
    "DiscreteSurvivalData",
    "RiskSetSummary",
    "discretize",
    "expand_step_terms",
    "risk_summary",
]


class CensorOption(enum.Enum):
    """Convention for assigning a censored time to a grid interval."""

    CENSORED_EARLY = "early"
    CENSORED_LATE = "late"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing breakpoints ``t_1 < ... < t_J`` (``t_0 = 0`` implicit)."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size == 0:
            raise InputError("grid must be a nonempty 1-D array of breakpoints")
        if not np.all(np.isfinite(bp)):
            raise InputError("grid breakpoints must be finite")
        if np.any(np.diff(bp) <= 0) or bp[0] <= 0:
            raise InputError("grid breakpoints must be strictly increasing and > 0")
        object.__setattr__(self, "breakpoints", bp)

    @property
    def n_intervals(self) -> int:
        return self.breakpoints.size

    @classmethod
    def from_width(cls, width: float, max_time: float) -> "TimeGrid":
        """Equal-width bins ``width, 2*width, ...`` covering ``[0, max_time]``."""
        if not (np.isfinite(width) and width > 0):
            raise InputError(f"bin width must be positive and finite (got {width})")
        n_bins = max(int(np.ceil(max_time / width - 1e-12)), 1)
        return cls(width * np.arange(1, n_bins + 1))


class Static:
    """Covariate path constant over time: a length-``d`` vector."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        if self.values.ndim != 1:
            raise InputError("static covariates must be a 1-D vector")

    @property
    def d(self) -> int:
        return self.values.size

    def at(self, j: int) -> np.ndarray:
        return self.values

    def __repr__(self):
        return f"Static({self.values!r})"


class TimeVarying:
    """Covariate path with one row per interval: a ``J x d`` matrix (row ``j-1`` = value at ``t_j``)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise InputError("time-varying covariates must be a J x d matrix")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def at(self, j: int) -> np.ndarray:
        return self.values[j - 1]

    def __repr__(self):
        return f"TimeVarying(shape={self.values.shape})"


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: identifier, interval index, event indicator, covariates."""

    id: str
    y_index: int
    delta: bool
    covariates: object  # Static or TimeVarying

    def __post_init__(self):
        if self.y_index < 0:
            raise InputError(f"subject {self.id}: y_index must be >= 0")
        if self.delta and self.y_index < 1:
            raise InputError(f"subject {self.id}: delta requires y_index >= 1")


class DiscreteSurvivalData:
    """A discrete-time survival sample on a common grid.

    Parameters
    ----------
    grid : TimeGrid
    subjects : sequence of SubjectRecord
    covariate_names : sequence of str, optional
        Defaults to ``x1, ..., xd``.

    Notes
    -----
    The constructor validates that all subjects share the covariate
    dimension, that ``y_index <= J`` and that all entries are finite.
    Derived indicator arrays are exposed through :attr:`y`, :attr:`delta`
    and :meth:`covariates_at`.
    """

    def __init__(self, grid: TimeGrid, subjects: Sequence[SubjectRecord],
                 covariate_names: Sequence[str] | None = None,
                 warnings: Sequence[str] | None = None):
        self.grid = grid
        self.subjects = list(subjects)
        if not self.subjects:
            raise InputError("dataset has no subjects")
        J = grid.n_intervals
        d = self.subjects[0].covariates.d
        for s in self.subjects:
            if s.covariates.d != d:
                raise InputError("covariate dimension differs across subjects")
            if s.y_index > J:
                raise InputError(f"subject {s.id}: y_index {s.y_index} exceeds J={J}")
            if not np.all(np.isfinite(s.covariates.values)):
                raise InputError(f"subject {s.id}: non-finite covariate")
            if isinstance(s.covariates, TimeVarying) and s.covariates.values.shape[0] != J:
                raise InputError(f"subject {s.id}: time-varying path has wrong row count")
        self.d = d
        if covariate_names is None:
            covariate_names = [f"x{k + 1}" for k in range(d)]
        if len(covariate_names) != d:
            raise InputError("covariate_names length must equal d")
        self.covariate_names = list(covariate_names)
        self.warnings = list(warnings or [])

        self.y = np.array([s.y_index for s in self.subjects], dtype=np.intp)
        self.delta = np.array([s.delta for s in self.subjects], dtype=bool)
        self._static = all(isinstance(s.covariates, Static) for s in self.subjects)
        if self._static:
            self._X = np.array([s.covariates.values for s in self.subjects])
        else:
            # densify: static paths broadcast across intervals
            X = np.empty((len(self.subjects), J, d))
            for i, s in enumerate(self.subjects):
                X[i] = s.covariates.values  # (J,d) or broadcast (d,)
            self._X = X

    @property
    def n(self) -> int:
        return len(self.subjects)

    @property
    def n_intervals(self) -> int:
        return self.grid.n_intervals

    @property
    def is_static(self) -> bool:
        return self._static

    def covariates_at(self, j: int) -> np.ndarray:
        """Covariate matrix ``(n, d)`` evaluated at interval ``j`` (1-based)."""
        if self._static:
            return self._X
        return self._X[:, j - 1, :]

    def covariate_changes(self) -> np.ndarray:
        """Intervals ``j > 1`` at which a subject still at risk has other
        covariates than at ``j - 1`` (empty for static covariates)."""
        if self._static or self.n_intervals < 2:
            return np.zeros(0, dtype=np.intp)
        changed = np.any(self._X[:, 1:] != self._X[:, :-1], axis=2)
        at_risk = self.y[:, None] >= np.arange(2, self.n_intervals + 1)
        return np.flatnonzero(np.any(changed & at_risk, axis=0)) + 2

    def recentered(self, x0) -> "DiscreteSurvivalData":
        """Return a copy with ``x0`` subtracted from every covariate path."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.d,):
            raise InputError(f"x0 must have length d={self.d}")
        subs = []
        for s in self.subjects:
            path = (Static(s.covariates.values - x0)
                    if isinstance(s.covariates, Static)
                    else TimeVarying(s.covariates.values - x0))
            subs.append(SubjectRecord(s.id, s.y_index, s.delta, path))
        return DiscreteSurvivalData(self.grid, subs, self.covariate_names,
                                    warnings=self.warnings)


@dataclass(frozen=True)
class RiskSetSummary:
    """Per-interval risk-set sizes ``n_j`` and event counts ``T_j`` (index 0 = interval 1)."""

    n_at_risk: np.ndarray
    n_events: np.ndarray

    @property
    def n_intervals(self) -> int:
        return self.n_at_risk.size


def risk_summary(data: DiscreteSurvivalData) -> RiskSetSummary:
    """Count ``n_j = sum_i R[j,i]`` and ``T_j = sum_i R[j,i] D[j,i]`` for every interval."""
    J = data.n_intervals
    counts = np.bincount(data.y, minlength=J + 1)
    # n_j = #{y >= j}: reverse cumulative sum over levels j..J
    n_at_risk = np.cumsum(counts[::-1])[::-1][1:].astype(np.intp)
    n_events = np.bincount(data.y[data.delta], minlength=J + 1)[1:].astype(np.intp)
    return RiskSetSummary(n_at_risk, n_events)


def discretize(records, grid: TimeGrid, option: CensorOption,
               ids: Sequence[str] | None = None,
               covariate_names: Sequence[str] | None = None) -> DiscreteSurvivalData:
    """Map continuous-time records onto a grid.

    Parameters
    ----------
    records : sequence of (time, status, covariates)
        ``status`` truthy means an observed event; ``covariates`` is a
        length-``d`` vector.
    grid : TimeGrid
    option : CensorOption
        Censored-time convention; see module docstring.
    ids : sequence of str, optional

    Returns
    -------
    DiscreteSurvivalData

    Notes
    -----
    An uncensored time in ``(t_{j-1}, t_j]`` maps to interval ``j``.  A
    censored time in ``[t_{j-1}, t_j)`` maps to ``j-1`` (censored-early)
    or ``j`` (censored-late); in particular a censored time equal to a
    breakpoint ``t_j`` lies in ``[t_j, t_{j+1})``.  Two out-of-range
    cases are resolved by convention and counted in ``warnings``:
    uncensored times beyond ``t_J`` are recorded as censored at ``t_J``,
    and censored times mapping past ``t_J`` are truncated to ``t_J``.
    """
    bp = grid.breakpoints
    J = grid.n_intervals
    records = list(records)
    time = np.array([float(t) for t, _, _ in records])
    event = np.array([bool(s) for _, s, _ in records], dtype=bool)
    bad = np.flatnonzero(~np.isfinite(time) | (time < 0))
    stop = bad[0] if bad.size else len(records)

    j = np.empty(time.size, dtype=np.intp)
    # events: smallest j with time <= t_j (an event at time 0 joins the
    # first interval)
    j[event] = np.searchsorted(bp, time[event], side="left") + 1
    # censored: largest j with t_j <= time (early) or the next one (late)
    j[~event] = (np.searchsorted(bp, time[~event], side="right")
                 + (option is CensorOption.CENSORED_LATE))
    beyond = j > J
    n_beyond = int(np.sum(beyond))
    delta = event & ~beyond  # an event beyond the grid is censored at t_J
    np.minimum(j, J, out=j)

    subjects = [SubjectRecord(str(ids[i]) if ids is not None else str(i + 1),
                              int(j[i]), bool(delta[i]), Static(records[i][2]))
                for i in range(stop)]
    if stop < len(records):
        t = time[stop]
        if not np.isfinite(t):
            raise InputError(f"record {stop}: non-finite time")
        raise InputError(f"record {stop}: negative time {float(t)}")
    warnings = []
    if n_beyond:
        warnings.append(f"{n_beyond} record(s) beyond t_J recorded as censored at t_J")
    return DiscreteSurvivalData(grid, subjects, covariate_names, warnings=warnings)


def expand_step_terms(data: DiscreteSurvivalData, base_column: int,
                      thresholds: Sequence[float]) -> DiscreteSurvivalData:
    """Append time-dependent columns ``base(t_j) * 1{t_j > threshold}``.

    One new column is appended per threshold; all covariate paths in the
    result are time-varying.  New columns are named ``<base>2, <base>3, ...``
    following the convention for a base term with step changes at the
    given thresholds.
    """
    if not 0 <= base_column < data.d:
        raise InputError(f"base_column {base_column} out of range for d={data.d}")
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        return data
    for t in thresholds:
        if t < 0 or t > data.grid.breakpoints[-1]:
            raise InputError(f"threshold {t} outside the grid range")
    J = data.n_intervals
    step = np.column_stack([(data.grid.breakpoints > t).astype(float)
                            for t in thresholds])  # (J, m)
    subjects = []
    for s in data.subjects:
        base = (np.repeat(s.covariates.values[None, base_column], J)
                if isinstance(s.covariates, Static)
                else s.covariates.values[:, base_column])
        extra = step * base[:, None]
        old = (np.broadcast_to(s.covariates.values, (J, data.d))
               if isinstance(s.covariates, Static) else s.covariates.values)
        subjects.append(SubjectRecord(s.id, s.y_index, s.delta,
                                      TimeVarying(np.hstack([old, extra]))))
    base_name = data.covariate_names[base_column]
    names = data.covariate_names + [f"{base_name}{k + 2}" for k in range(len(thresholds))]
    return DiscreteSurvivalData(data.grid, subjects, names, warnings=data.warnings)
