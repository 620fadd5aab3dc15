"""Discrete-time survival data structures.

A sample consists of subjects observed on a common time grid
``0 = t_0 < t_1 < ... < t_J``.  Subject ``i`` carries an interval index
``y_index`` in ``{0, 1, ..., J}`` (0 means censored before ``t_1``), an
event indicator ``delta`` and a covariate path (static vector or one row
per interval).  From these the risk and event indicators are derived as

    R[j, i] = 1{y_index_i >= j},    D[j, i] = 1{y_index_i == j and delta_i},

for ``j = 1, ..., J``.  A sample holds these as arrays, its covariates by
epoch: a run of intervals over which no covariate changes, as in the
counting-process ``(start, stop]`` layout.  Every builder goes through
:meth:`DiscreteSurvivalData.from_arrays`.  Continuous records are mapped
onto a grid by :func:`discretize`; an uncensored time in
``(t_{j-1}, t_j]`` is encoded as interval ``j``, while a censored time in
``[t_{j-1}, t_j)`` is encoded as interval ``j - 1`` (censored-early) or
``j`` (censored-late).
"""

from __future__ import annotations

import enum
import functools
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
    """A discrete-time survival sample on a common grid, held as arrays.

    Attributes are ``y`` and ``delta`` (one entry per subject), ``ids``,
    ``covariate_names``, ``warnings``, and the covariates by epoch:
    ``epochs`` is ``(E, n, d)``, every subject's covariates in each
    epoch, and ``firsts`` the first interval of each epoch (``firsts[0]
    == 1``).  Static covariates form one epoch and each step term adds
    at most one, so memory is linear in ``n``.

    Parameters
    ----------
    grid : TimeGrid
    subjects : sequence of SubjectRecord
        Gathered into the arrays, a time-varying path as one epoch per
        interval; :meth:`from_arrays` builds a sample from arrays.
    covariate_names : sequence of str, optional
        Defaults to ``x1, ..., xd``.

    Notes
    -----
    Construction checks that all subjects share the covariate dimension,
    that ``y_index <= J`` and that all entries are finite.  A sample is
    immutable after construction: its risk-set engine (``risk_sets``) is
    built once and shared by every fit, variance and curve computed on
    it, so changing an array in place would leave that engine stale.
    """

    def __init__(self, grid: TimeGrid, subjects: Sequence[SubjectRecord],
                 covariate_names: Sequence[str] | None = None,
                 warnings: Sequence[str] | None = None):
        records = list(subjects)
        J = grid.n_intervals
        paths = [s.covariates.values for s in records]
        firsts = None
        if any(p.ndim == 2 for p in paths):
            bad = next((s for s, p in zip(records, paths) if p.ndim == 2 and len(p) != J), None)
            if bad is not None:
                raise InputError(f"subject {bad.id}: time-varying path has wrong row count")
            paths = [np.broadcast_to(p, (J, p.shape[-1])) for p in paths]
            firsts = np.arange(1, J + 1)
        self._setup(grid, [s.y_index for s in records], [s.delta for s in records],
                    _stack(paths), firsts, [s.id for s in records], covariate_names,
                    warnings)

    @classmethod
    def from_arrays(cls, grid: TimeGrid, y, delta, X, firsts=None, ids=None,
                    covariate_names: Sequence[str] | None = None,
                    warnings: Sequence[str] | None = None) -> "DiscreteSurvivalData":
        """Build a sample from arrays: ``X`` is ``(n, d)`` for static
        covariates, or ``(E, n, d)`` with ``firsts`` the first interval
        of each epoch.  ``ids`` default to ``"1", ..., "n"``.  The arrays
        are kept, not copied."""
        data = cls.__new__(cls)
        data._setup(grid, y, delta, X, firsts, ids, covariate_names, warnings)
        return data

    def _setup(self, grid, y, delta, X, firsts, ids, covariate_names, warnings):
        y, delta = np.asarray(y, dtype=np.intp), np.asarray(delta, dtype=bool)
        n, J = y.size, grid.n_intervals
        if n == 0:
            raise InputError("dataset has no subjects")
        X = np.asarray(X, dtype=float)
        X = X[None] if X.ndim == 2 else X
        firsts = np.asarray([1] if firsts is None else firsts, dtype=np.intp)
        ids = np.arange(1, n + 1).astype(str) if ids is None else np.asarray(ids, dtype=str)
        if (X.ndim != 3 or X.shape[:2] != (firsts.size, n)
                or not y.shape == delta.shape == ids.shape == (n,)
                or firsts[0] != 1 or np.any(np.diff(firsts) <= 0) or firsts[-1] > J):
            raise InputError("need y, delta and ids of length n, and X of shape (n, d) "
                             "or (E, n, d) for E epochs starting at 1 within the grid")
        if covariate_names is None:
            covariate_names = [f"x{k + 1}" for k in range(X.shape[2])]
        if len(covariate_names) != X.shape[2]:
            raise InputError("covariate_names length must equal d")
        finite = np.all(np.isfinite(X), axis=(0, 2))
        bad = np.flatnonzero((y < 0) | (y > J) | (delta & (y < 1)) | ~finite)
        if bad.size:  # the first bad subject's record raises for y_index and delta
            i = bad[0]
            SubjectRecord(ids[i], y[i], delta[i], None)
            raise InputError(f"subject {ids[i]}: y_index {y[i]} exceeds J={J}" if y[i] > J
                             else f"subject {ids[i]}: non-finite covariate")
        self.grid, self.y, self.delta, self.ids = grid, y, delta, ids
        self.epochs, self.firsts, self.d = X, firsts, X.shape[2]
        self.covariate_names = list(covariate_names)
        self.warnings = list(warnings or [])

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def n_intervals(self) -> int:
        return self.grid.n_intervals

    @property
    def is_static(self) -> bool:
        return self.firsts.size == 1

    def covariates_at(self, j: int) -> np.ndarray:
        """Covariate matrix ``(n, d)`` evaluated at interval ``j`` (1-based):
        a view of the epoch that holds ``j``."""
        return self.epochs[np.searchsorted(self.firsts, j, side="right") - 1]

    def covariate_changes(self) -> np.ndarray:
        """Intervals ``j > 1`` at which a subject still at risk has other
        covariates than at ``j - 1`` (empty for static covariates)."""
        changed = np.any(self.epochs[1:] != self.epochs[:-1], axis=2)  # (E-1, n)
        at_risk = self.y >= self.firsts[1:, None]
        return self.firsts[1:][np.any(changed & at_risk, axis=1)]

    def recentered(self, x0) -> "DiscreteSurvivalData":
        """Return a copy with ``x0`` subtracted from every covariate path."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.d,):
            raise InputError(f"x0 must have length d={self.d}")
        return DiscreteSurvivalData.from_arrays(
            self.grid, self.y, self.delta, self.epochs - x0, self.firsts, self.ids,
            self.covariate_names, self.warnings)

    @functools.cached_property
    def risk_sets(self):
        """The risk-set engine (``_risksets.RiskSets``) of this sample,
        built on first access."""
        from ._risksets import RiskSets  # _risksets imports this module
        return RiskSets(self)

    @functools.cached_property
    def subjects(self) -> list:
        """The sample as :class:`SubjectRecord` objects, built on first
        access: :class:`Static` paths for one epoch, else :class:`TimeVarying`."""
        if self.is_static:
            paths = map(Static, self.epochs[0].copy())
        else:
            dense = np.repeat(self.epochs, np.diff(self.firsts, append=self.n_intervals + 1),
                              axis=0)  # (J, n, d)
            paths = (TimeVarying(dense[:, i]) for i in range(self.n))
        return [SubjectRecord(*rec, path) for rec, path in
                zip(zip(self.ids.tolist(), self.y.tolist(), self.delta.tolist()), paths)]


def _stack(paths):
    """Per-subject covariate vectors ``(d,)`` or paths ``(J, d)`` as one
    ``(n, d)`` or ``(J, n, d)`` array."""
    if not paths:
        return np.zeros((0, 0))
    if any(p.shape[-1] != paths[0].shape[-1] for p in paths):
        raise InputError("covariate dimension differs across subjects")
    return np.stack(paths, axis=-2)


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
    records : sequence of (time, status, covariates), or a tuple of arrays
        ``status`` truthy means an observed event; ``covariates`` is a
        length-``d`` vector.  The array form is one tuple ``(time,
        status, X)`` of ndarrays with ``X`` of shape ``(n, d)``.
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
    if (isinstance(records, tuple) and len(records) == 3
            and all(isinstance(a, np.ndarray) for a in records) and records[2].ndim == 2):
        time, event, X = records
        time, event = time.astype(float), event.astype(bool)
    else:
        records = list(records)
        time = np.array([float(t) for t, _, _ in records])
        event = np.array([bool(s) for _, s, _ in records], dtype=bool)
        X = _stack([Static(x).values for _, _, x in records])
    bad = np.flatnonzero(~np.isfinite(time) | (time < 0))
    if bad.size:
        t = time[bad[0]]
        if not np.isfinite(t):
            raise InputError(f"record {bad[0]}: non-finite time")
        raise InputError(f"record {bad[0]}: negative time {float(t)}")

    bp = grid.breakpoints
    J = grid.n_intervals
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
    warnings = []
    if n_beyond:
        warnings.append(f"{n_beyond} record(s) beyond t_J recorded as censored at t_J")
    return DiscreteSurvivalData.from_arrays(grid, j, delta, X, ids=ids,
                                            covariate_names=covariate_names,
                                            warnings=warnings)


def expand_step_terms(data: DiscreteSurvivalData, base_column: int,
                      thresholds: Sequence[float]) -> DiscreteSurvivalData:
    """Append time-dependent columns ``base(t_j) * 1{t_j > threshold}``.

    One new column is appended per threshold, and each threshold's
    switch-on interval starts a new epoch.  New columns are named
    ``<base>2, <base>3, ...`` following the convention for a base term
    with step changes at the given thresholds.
    """
    if not 0 <= base_column < data.d:
        raise InputError(f"base_column {base_column} out of range for d={data.d}")
    thresholds = np.array([float(t) for t in thresholds])
    if not thresholds.size:
        return data
    bp = data.grid.breakpoints
    for t in thresholds:
        if t < 0 or t > bp[-1]:
            raise InputError(f"threshold {t} outside the grid range")
    # the term of threshold t is on from the first interval with t_j > t
    on = np.searchsorted(bp, thresholds, side="right") + 1
    firsts = np.union1d(data.firsts, on[on <= data.n_intervals])
    old = data.epochs[np.searchsorted(data.firsts, firsts, side="right") - 1]
    step = (bp[firsts - 1, None] > thresholds).astype(float)  # (E, m)
    extra = old[:, :, base_column, None] * step[:, None, :]
    base_name = data.covariate_names[base_column]
    names = data.covariate_names + [f"{base_name}{k + 2}" for k in range(thresholds.size)]
    return DiscreteSurvivalData.from_arrays(
        data.grid, data.y, data.delta, np.concatenate([old, extra], axis=2), firsts,
        data.ids, names, data.warnings)
