"""Two-sample closed forms for stratified 2x2 tables.

With a single binary covariate (group 1 vs group 2), the pooled
estimating equations of both regression models collapse to scalar
closed forms over per-interval 2x2 tables:

    probability ratio:  sum_j (n11j n2j - e^g n21j n1j) / (n1j e^g + n2j) = 0
    odds ratio:         sum_j (n11j n22j - e^b n12j n21j) / (n1j e^b + n2j) = 0

(the latter being the classical Mantel-Haenszel equation with
risk-set-size weights), and all variance estimators reduce to scalar
sums.  These are useful in their own right and double as an independent
check on the regression modules: expanding the tables into a
one-covariate dataset must reproduce every number.

Counts: ``n11/n12`` are events/non-events among group-1 subjects at
risk in a stratum, ``n21/n22`` the same for group 2.  Model-robust
variances additionally require the strata to be nested risk sets (each
group's at-risk count can drop between strata only through events or
censoring), since they follow subjects across strata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DiscreteSurvivalData, Static, SubjectRecord, TimeGrid
from .errors import ConvergenceError, InputError

__all__ = [
    "StratifiedTables",
    "BpTwoSample",
    "WmhTwoSample",
    "bp_two_sample",
    "wmh_two_sample",
    "tables_to_survival",
]


@dataclass(frozen=True)
class StratifiedTables:
    """Per-stratum 2x2 counts, one entry of each array per stratum."""

    n11: np.ndarray
    n12: np.ndarray
    n21: np.ndarray
    n22: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("n11", "n12", "n21", "n22"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise InputError(f"{name} must be a 1-D array of counts")
            if arr.size == 0:
                raise InputError("tables must contain at least one stratum")
            if np.any(arr < 0) or np.any(arr != np.floor(arr)) or not np.all(np.isfinite(arr)):
                raise InputError(f"{name} must hold nonnegative integer counts")
            arrays[name] = arr
        sizes = {a.size for a in arrays.values()}
        if len(sizes) != 1:
            raise InputError("count arrays must have equal length")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_strata(self) -> int:
        return self.n11.size

    @property
    def n1(self) -> np.ndarray:
        """Group-1 at-risk counts."""
        return self.n11 + self.n12

    @property
    def n2(self) -> np.ndarray:
        """Group-2 at-risk counts."""
        return self.n21 + self.n22


@dataclass(frozen=True)
class BpTwoSample:
    """Probability-ratio (Breslow-Peto) result: ``estimate`` is the log
    ratio; variances are sampling variances of the estimate."""

    estimate: float
    var_model_based2: float
    var_robust: float
    n_skipped: int


@dataclass(frozen=True)
class WmhTwoSample:
    """Odds-ratio (weighted Mantel-Haenszel) result: ``estimate`` is the
    log odds ratio; variances are sampling variances of the estimate."""

    estimate: float
    var_model_based2: float
    var_model_based3: float
    var_robust: float
    n_skipped: int


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def _find_root(score, label):
    """Root of a strictly decreasing scalar score, with geometric
    expansion of the bracket from [-10, 10]."""
    # imported here: scipy.optimize would add most of the package's
    # import time for this one call
    from scipy.optimize import brentq

    lo, hi = -10.0, 10.0
    while score(lo) <= 0.0 or score(hi) >= 0.0:
        if score(lo) == 0.0:
            return lo
        if score(hi) == 0.0:
            return hi
        lo *= 2.0
        hi *= 2.0
        if hi > 400.0:
            raise ConvergenceError(
                f"{label}: no finite root (one-sided tables)",
                iterations=0, score_norm=float("nan"))
    return float(brentq(score, lo, hi, xtol=1e-12, rtol=8.9e-16))


def _informative_bp(t):
    return (t.n11 * t.n2 > 0) | (t.n21 * t.n1 > 0)


def _informative_wmh(t):
    return (t.n11 * t.n22 > 0) | (t.n12 * t.n21 > 0)


def bp_two_sample(tables: StratifiedTables) -> BpTwoSample:
    """Pooled log probability-ratio with its tie-aware model-based and
    model-robust variances.

    A single stratum gives the log ratio of event proportions
    ``log{(n11/n1)/(n21/n2)}`` exactly.
    """
    t = tables
    keep = _informative_bp(t)
    if not np.any(keep):
        raise InputError("no informative stratum for the probability-ratio score")
    n11, n21 = t.n11[keep], t.n21[keep]
    n1, n2 = t.n1[keep], t.n2[keep]
    n12, n22 = t.n12[keep], t.n22[keep]

    def score(g):
        e = np.exp(g)
        return float(np.sum((n11 * n2 - e * n21 * n1) / (n1 * e + n2)))

    gamma = _find_root(score, "bp_two_sample")
    e = np.exp(gamma)
    s0 = n1 * e + n2
    T = n11 + n21
    Bn = float(np.sum(T * n1 * n2 * e / s0 ** 2))
    An_b2 = float(np.sum(e * (n2 * n12 * n21 + n1 * n11 * n22) / s0 ** 2))
    An_r = _bp_robust_meat(t, gamma)
    return BpTwoSample(estimate=gamma,
                       var_model_based2=An_b2 / Bn ** 2,
                       var_robust=An_r / Bn ** 2,
                       n_skipped=int(np.sum(~keep)))


def wmh_two_sample(tables: StratifiedTables) -> WmhTwoSample:
    """Pooled log odds-ratio with tie-aware, sparse-table-style and
    model-robust variances.

    A single stratum gives the sample log odds ratio
    ``log{n11 n22 / (n12 n21)}`` exactly.
    """
    t = tables
    keep = _informative_wmh(t)
    if not np.any(keep):
        raise InputError("no informative stratum for the odds-ratio score")
    n11, n12 = t.n11[keep], t.n12[keep]
    n21, n22 = t.n21[keep], t.n22[keep]
    n1, n2 = t.n1[keep], t.n2[keep]

    def score(b):
        e = np.exp(b)
        return float(np.sum((n11 * n22 - e * n12 * n21) / (n1 * e + n2)))

    beta = _find_root(score, "wmh_two_sample")
    e = np.exp(beta)
    s0 = n1 * e + n2
    Hn = float(np.sum(e * (n2 * n12 * n21 + n1 * n11 * n22) / s0 ** 2))
    Gb2 = float(np.sum(e * (n12 * n21 + n11 * n22 + n1 * n21 * n22 + n2 * n11 * n12)
                       / s0 ** 2))
    Gb3 = float(np.sum((e * n12 * n21 * (n22 + e * n21)
                        + n11 * n22 * (n11 + e * n12)) / s0 ** 2))
    Gn_r = _wmh_robust_meat(t, beta)
    return WmhTwoSample(estimate=beta,
                        var_model_based2=Gb2 / Hn ** 2,
                        var_model_based3=Gb3 / Hn ** 2,
                        var_robust=Gn_r / Hn ** 2,
                        n_skipped=int(np.sum(~keep)))


# ---------------------------------------------------------------------------
# robust meats via subject paths
# ---------------------------------------------------------------------------
#
# A subject's influence sums its per-stratum pieces over the strata it
# is at risk in, so the tables alone do not determine it; the nested
# risk-set structure does.  Each subject is characterized by (group,
# last stratum at risk, event indicator); censoring multiplicities are
# c[a, j] = n_a(j) - events_a(j) - n_a(j+1), which must be nonnegative
# for a valid survival layout.

def _censoring_counts(tables):
    J = tables.n_strata
    c = np.zeros((2, J))
    at_risk = (tables.n1, tables.n2)
    events = (tables.n11, tables.n21)
    for a in range(2):
        nxt = np.append(at_risk[a][1:], 0.0)
        c[a] = at_risk[a] - events[a] - nxt
        if np.any(c[a] < 0):
            j = int(np.flatnonzero(c[a] < 0)[0]) + 1
            raise InputError(
                f"strata are not nested risk sets (group {a + 1}, stratum {j}): "
                "at-risk count grows by more than events and censoring allow")
    return c


def _path_meat(tables, base, event_adj):
    """Sum of squared per-subject influence over all path types.

    ``base[a, j]`` is the at-risk-no-event piece for group ``a+1`` in
    stratum ``j+1``; ``event_adj[a, j]`` is added when the subject's
    event happens there.
    """
    c = _censoring_counts(tables)
    events = (tables.n11, tables.n21)
    total = 0.0
    for a in range(2):
        prefix = np.cumsum(base[a])
        total += float(np.sum(c[a] * prefix ** 2))
        total += float(np.sum(events[a] * (prefix + event_adj[a]) ** 2))
    return total


def _bp_robust_meat(tables, gamma):
    t = tables
    e = np.exp(gamma)
    s0 = t.n1 * e + t.n2
    T = t.n11 + t.n21
    with np.errstate(invalid="ignore", divide="ignore"):
        base = np.vstack([-T * e * t.n2 / s0 ** 2, T * e * t.n1 / s0 ** 2])
        event_adj = np.vstack([t.n2 / s0, -e * t.n1 / s0])
    dead = s0 == 0
    base[:, dead] = 0.0
    event_adj[:, dead] = 0.0
    return _path_meat(t, base, event_adj)


def _wmh_robust_meat(tables, beta):
    t = tables
    e = np.exp(beta)
    s0 = t.n1 * e + t.n2
    sE = t.n12 * e + t.n22
    T = t.n11 + t.n21
    q = np.where(s0 > 0, (t.n11 * t.n22 - e * t.n12 * t.n21) / np.where(s0 > 0, s0, 1.0), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        xc = np.vstack([t.n22 / sE, -e * t.n12 / sE])  # x - event-free mean
        base = np.empty((2, t.n_strata))
        event_adj = np.empty((2, t.n_strata))
        for a, w in enumerate((e, 1.0)):
            base[a] = -w * T / s0 * xc[a] - q * w * (1.0 / s0 - 1.0 / sE)
            event_adj[a] = (sE / s0 * xc[a] - q * w / s0) - base[a]
    # strata with no events or no event-free members contribute nothing
    dead = (T == 0) | (sE == 0) | (s0 == 0)
    base[:, dead] = 0.0
    event_adj[:, dead] = 0.0
    return _path_meat(t, base, event_adj)


# ---------------------------------------------------------------------------
# expansion to subject-level data
# ---------------------------------------------------------------------------

def tables_to_survival(tables: StratifiedTables) -> DiscreteSurvivalData:
    """Expand nested stratified tables into the equivalent one-covariate
    dataset (group 1 coded ``x = 1``), with stratum ``j`` as interval ``j``."""
    c = _censoring_counts(tables)
    events = (tables.n11, tables.n21)
    subjects = []
    k = 0
    for a, x in ((0, 1.0), (1, 0.0)):
        cov = Static(np.array([x]))
        for j in range(1, tables.n_strata + 1):
            for _ in range(int(events[a][j - 1])):
                subjects.append(SubjectRecord(id=f"s{k}", y_index=j, delta=True,
                                              covariates=cov))
                k += 1
            for _ in range(int(c[a][j - 1])):
                subjects.append(SubjectRecord(id=f"s{k}", y_index=j, delta=False,
                                              covariates=cov))
                k += 1
    if not subjects:
        raise InputError("tables contain no subjects")
    grid = TimeGrid(np.arange(1.0, tables.n_strata + 1))
    return DiscreteSurvivalData(grid, subjects, covariate_names=["group1"])
