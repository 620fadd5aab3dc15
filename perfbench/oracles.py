"""Independent oracles for the benchmark's correctness checks.

Plain numpy, written from the estimating equations in the paper; none of
it calls dsurv.  Subjects carry an interval index ``y`` (1-based), an
event flag ``delta`` and static covariates ``X`` of shape ``(n, d)``, so

    R[j, i] = 1{y_i >= j},    D[j, i] = 1{y_i == j and delta_i}.

Each per-interval oracle visits the event intervals one at a time with
boolean masks, the literal form of the sums.
"""

from __future__ import annotations

import numpy as np


def _weights(X, coef):
    eta = X @ np.asarray(coef, dtype=float)
    return np.exp(eta - eta.max())  # a common factor cancels in every ratio


def prob_score(y, delta, X, gamma):
    """Hazard-probability score ``sum_j sum_i R D (X_i - xbar_j)``, with
    ``xbar_j`` the ``exp(X' gamma)``-weighted mean over risk set ``j``."""
    w = _weights(X, gamma)
    out = np.zeros(X.shape[1])
    for j in np.unique(y[delta]):
        R = y >= j
        D = (y == j) & delta
        xbar = (w[R] @ X[R]) / w[R].sum()
        out += X[D].sum(axis=0) - D.sum() * xbar
    return out


def odds_score(y, delta, X, beta):
    """Hazard-odds score ``sum_j tau_j`` with

        tau_j = sum_i R {D S0d_j - (1 - D) e^{X_i' beta} T_j} X_i / S0_j,

    ``S0_j`` the weight of risk set ``j``, ``S0d_j`` that of its
    event-free members and ``T_j`` its event count."""
    w = _weights(X, beta)
    out = np.zeros(X.shape[1])
    for j in np.unique(y[delta]):
        R = y >= j
        D = (y == j) & delta
        free = R & ~D
        T = D.sum()
        s0, s0d = w[R].sum(), w[free].sum()
        out += (s0d * X[D].sum(axis=0) - T * (w[free] @ X[free])) / s0
    return out


def breslow_score(time, status, X, gamma):
    """Cox/Breslow partial-likelihood score on untied continuous times,
    from reverse cumulative sums: sorted by decreasing time, the risk set
    of the ``k``-th subject is the first ``k`` subjects."""
    time = np.asarray(time, dtype=float)
    if np.unique(time).size != time.size:
        raise ValueError("breslow_score needs distinct times")
    order = np.argsort(-time)
    w = _weights(X, gamma)[order]
    Xo = X[order]
    S0 = np.cumsum(w)
    S1 = np.cumsum(w[:, None] * Xo, axis=0)
    ev = np.asarray(status, dtype=bool)[order]
    return (Xo[ev] - S1[ev] / S0[ev, None]).sum(axis=0)


def discretize_width(time, status, width):
    """Interval index on the grid ``width, 2 width, ...`` covering the
    largest time: an event at ``t`` falls in the interval ``(t_{j-1}, t_j]``,
    a censored time in ``[t_{j-1}, t_j)`` (censored-late convention)."""
    time = np.asarray(time, dtype=float)
    status = np.asarray(status, dtype=bool)
    J = max(int(np.ceil(time.max() / width - 1e-12)), 1)
    y = np.where(status, np.ceil(time / width), np.floor(time / width) + 1)
    y = np.clip(y, 1, J).astype(np.intp)
    return y, status & (time <= J * width), J


def two_by_two(y, delta, group, J):
    """Per-interval 2x2 tables: events and event-free members at risk,
    for group 1 (``group == 1``) and group 2 (``group == 0``)."""
    group = np.asarray(group)
    cells = np.zeros((4, J))
    for j in range(1, J + 1):
        R = y >= j
        D = (y == j) & delta
        for row, g in ((0, 1), (2, 0)):
            in_g = group == g
            cells[row, j - 1] = np.count_nonzero(D & in_g)
            cells[row + 1, j - 1] = np.count_nonzero(R & ~D & in_g)
    return cells  # n11, n12, n21, n22


def is_symmetric_psd(mat, rtol=1e-10):
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)) or not np.array_equal(mat, mat.T):
        return False
    scale = max(float(np.max(np.abs(mat))), np.finfo(float).tiny)
    return float(np.linalg.eigvalsh(mat)[0]) >= -rtol * scale
