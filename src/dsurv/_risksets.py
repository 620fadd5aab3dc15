"""Internal risk-set engine shared by the model modules."""

from __future__ import annotations

import numpy as np

from .data import DiscreteSurvivalData, risk_summary


class RiskSets:
    """Risk-set layout of one dataset.

    Subjects are sorted once by decreasing ``y_index`` (stably), so the
    risk set of interval ``j`` is the first ``n_j`` subjects of that
    order.  Outcomes and covariates are stored in that order, with
    time-varying covariates as a ``(J, n, d)`` array, so interval ``j``'s
    rows are one contiguous slice and every risk set is a view.
    """

    def __init__(self, data: DiscreteSurvivalData):
        self.n, self.d = data.n, data.d
        summary = risk_summary(data)
        self.n_at_risk = summary.n_at_risk
        self.n_events = summary.n_events
        self.order = np.argsort(-data.y, kind="stable")
        self.event_intervals = np.flatnonzero(self.n_events > 0) + 1
        self._y = data.y[self.order]
        self._delta = data.delta[self.order]
        self._static = data.is_static
        if self._static:
            self._X = data.covariates_at(1)[self.order]
        else:
            self._X = np.empty((data.n_intervals, self.n, self.d))
            for j in range(1, data.n_intervals + 1):
                self._X[j - 1] = data.covariates_at(j)[self.order]

    def _rows(self, j):
        return self._X if self._static else self._X[j - 1]

    def members(self, j: int) -> np.ndarray:
        """Indices of subjects at risk in interval ``j`` (1-based)."""
        return self.order[: self.n_at_risk[j - 1]]

    def interval(self, j: int, coef: np.ndarray):
        """Risk set of interval ``j``: (member indices, X, D, eta).

        ``eta = X @ coef`` evaluated at the interval's covariate values.
        The indices and ``X`` are views; empty risk sets yield empty
        arrays.
        """
        idx = self.members(j)
        m = idx.size
        X = self._rows(j)[:m]
        D = (self._y[:m] == j) & self._delta[:m]
        return idx, X, D, X @ coef

    def sums(self, coef, *kernels):
        """Totals of each ``kernel(X, D, eta)`` over the event intervals.

        Each total starts from the kernel's value on an empty risk set,
        its zero of the right shape, so data without events sum to zeros.
        """
        empty = (self._rows(1)[:0], np.zeros(0, dtype=bool), np.zeros(0))
        totals = [kernel(*empty) for kernel in kernels]
        for j in self.event_intervals:
            _, X, D, eta = self.interval(j, coef)
            for k, kernel in enumerate(kernels):
                totals[k] = totals[k] + kernel(X, D, eta)
        return totals

    def scatter(self, coef, kernel):
        """Per-subject totals ``(n, d)`` of the member rows
        ``kernel(X, D, eta)`` returns for each event interval."""
        rows = np.zeros((self.n, self.d))  # in risk-set order
        for j in self.event_intervals:
            _, X, D, eta = self.interval(j, coef)
            rows[: X.shape[0]] += kernel(X, D, eta)
        out = np.empty_like(rows)
        out[self.order] = rows
        return out
