"""Slow literal reference implementations the tests compare against.

Everything here is written directly from the defining sums as plain
loops, or as generic numeric fallbacks (bisection, finite differences,
brute-force enumeration).  Nothing imports the package under test, so a
disagreement always points at exactly one side.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# risk-set bookkeeping
# ---------------------------------------------------------------------------

def risk_sets(y, J):
    """Index arrays ``{i: y_i >= j}`` for ``j = 1..J``."""
    y = np.asarray(y)
    return [np.flatnonzero(y >= j) for j in range(1, J + 1)]


def event_mask(y, delta, members, j):
    """Boolean mask over ``members`` marking events in interval ``j``."""
    y = np.asarray(y)
    delta = np.asarray(delta, dtype=bool)
    return (y[members] == j) & delta[members]


# ---------------------------------------------------------------------------
# hazard-probability kernels, one risk set at a time
# ---------------------------------------------------------------------------

def prob_score(X, D, eta):
    """sum_i D_i (x_i - xbar) with xbar the weight-averaged covariate."""
    w = np.exp(np.asarray(eta, dtype=float))
    xbar = sum(w[i] * X[i] for i in range(len(w))) / w.sum()
    out = np.zeros(X.shape[1])
    for i in range(len(w)):
        if D[i]:
            out += X[i] - xbar
    return out


def prob_hessian(X, D, eta):
    """T * sum_i (w_i / S0) (x_i - xbar)(x_i - xbar)'."""
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    xbar = sum(w[i] * X[i] for i in range(len(w))) / s0
    T = int(np.sum(D))
    out = np.zeros((X.shape[1], X.shape[1]))
    for i in range(len(w)):
        c = X[i] - xbar
        out += (w[i] / s0) * np.outer(c, c)
    return T * out


def prob_ab(X, D, eta):
    """sum_i p_i (1 - p_i) (x_i - xbar)^{x2} with p_i = T w_i / S0."""
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    xbar = sum(w[i] * X[i] for i in range(len(w))) / s0
    T = int(np.sum(D))
    out = np.zeros((X.shape[1], X.shape[1]))
    for i in range(len(w)):
        p = T * w[i] / s0
        c = X[i] - xbar
        out += p * (1.0 - p) * np.outer(c, c)
    return out


def prob_vhat(X, D, eta):
    """Triple sum
    sum_i (1-D_i) w_i [sum_l w_l (x_i - x_l)] [sum_k D_k (x_i - x_k)]' / S0^2."""
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    m, d = X.shape
    out = np.zeros((d, d))
    for i in range(m):
        if D[i]:
            continue
        left = np.zeros(d)
        for l in range(m):
            left += w[l] * (X[i] - X[l])
        right = np.zeros(d)
        for k in range(m):
            if D[k]:
                right += X[i] - X[k]
        out += w[i] * np.outer(left, right)
    return out / s0 ** 2


def prob_influence(X, D, eta):
    """Rows (D_i - T w_i / S0)(x_i - xbar)."""
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    xbar = sum(w[i] * X[i] for i in range(len(w))) / s0
    T = int(np.sum(D))
    rows = np.zeros_like(np.asarray(X, dtype=float))
    for i in range(len(w)):
        rows[i] = (float(D[i]) - T * w[i] / s0) * (X[i] - xbar)
    return rows


# ---------------------------------------------------------------------------
# hazard-odds kernels, one risk set at a time
# ---------------------------------------------------------------------------

def _odds_parts(X, D, eta):
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    T = int(np.sum(D))
    free = [i for i in range(len(w)) if not D[i]]
    s0d = sum(w[i] for i in free)
    return w, s0, T, free, s0d


def odds_degenerate(D):
    T = int(np.sum(D))
    return T == 0 or T == len(D)


def odds_score(X, D, eta):
    """(S0d sum_i D_i x_i - T sum_i (1-D_i) w_i x_i) / S0."""
    if odds_degenerate(D):
        return np.zeros(X.shape[1])
    w, s0, T, free, s0d = _odds_parts(X, D, eta)
    sd1 = sum(X[i] for i in range(len(w)) if D[i])
    m1 = sum(w[i] * X[i] for i in free)
    return (s0d * sd1 - T * m1) / s0


def odds_jacobian(X, D, eta):
    """sum_i (1-D_i) w_i (T x_i - SD1)(x_i - xbar)' / S0."""
    d = X.shape[1]
    if odds_degenerate(D):
        return np.zeros((d, d))
    w, s0, T, free, s0d = _odds_parts(X, D, eta)
    sd1 = sum(X[i] for i in range(len(w)) if D[i])
    xbar = sum(w[i] * X[i] for i in range(len(w))) / s0
    out = np.zeros((d, d))
    for i in free:
        out += w[i] * np.outer(T * X[i] - sd1, X[i] - xbar)
    return out / s0


def odds_gb(X, D, eta):
    """(T S0d / S0^2) sum_i w_i (x_i - me)^{x2}, me the event-free mean."""
    d = X.shape[1]
    if odds_degenerate(D):
        return np.zeros((d, d))
    w, s0, T, free, s0d = _odds_parts(X, D, eta)
    me = sum(w[i] * X[i] for i in free) / s0d
    out = np.zeros((d, d))
    for i in range(len(w)):
        c = X[i] - me
        out += w[i] * np.outer(c, c)
    return (T * s0d / s0 ** 2) * out


def odds_sigma_hat(X, D, eta):
    """Triple sum
    sum_i { (1-D_i) w_i sum_l D_l w_l (x_i - x_l)^{x2}
            + w_i [sum_l (1-D_l) w_l (x_i - x_l)] [sum_k D_k (x_i - x_k)]' } / S0^2."""
    m, d = X.shape
    if odds_degenerate(D):
        return np.zeros((d, d))
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    out = np.zeros((d, d))
    for i in range(m):
        if not D[i]:
            for l in range(m):
                if D[l]:
                    c = X[i] - X[l]
                    out += w[i] * w[l] * np.outer(c, c)
        left = np.zeros(d)
        for l in range(m):
            if not D[l]:
                left += w[l] * (X[i] - X[l])
        right = np.zeros(d)
        for k in range(m):
            if D[k]:
                right += X[i] - X[k]
        out += w[i] * np.outer(left, right)
    return out / s0 ** 2


def odds_sigma_tilde(X, D, eta):
    """Triple sum
    sum_i (1-D_i) w_i [sum_l {(1-D_l) w_l + D_l w_i}(x_i - x_l)]
                      [sum_k D_k (x_i - x_k)]' / S0^2."""
    m, d = X.shape
    if odds_degenerate(D):
        return np.zeros((d, d))
    w = np.exp(np.asarray(eta, dtype=float))
    s0 = w.sum()
    out = np.zeros((d, d))
    for i in range(m):
        if D[i]:
            continue
        left = np.zeros(d)
        for l in range(m):
            wl = w[i] if D[l] else w[l]
            left += wl * (X[i] - X[l])
        right = np.zeros(d)
        for k in range(m):
            if D[k]:
                right += X[i] - X[k]
        out += w[i] * np.outer(left, right)
    return out / s0 ** 2


def odds_influence(X, D, eta):
    """Rows g1(i) + g2(i):
    g1 = (D_i S0d - (1-D_i) w_i T)/S0 (x_i - me),
    g2 = -(w_i/S0 - (1-D_i) w_i/S0d) tau."""
    if odds_degenerate(D):
        return np.zeros(np.asarray(X, dtype=float).shape)
    w, s0, T, free, s0d = _odds_parts(X, D, eta)
    me = sum(w[i] * X[i] for i in free) / s0d
    tau = odds_score(X, D, eta)
    rows = np.zeros_like(np.asarray(X, dtype=float))
    for i in range(len(w)):
        di = float(D[i])
        resid = (di * s0d - (1.0 - di) * w[i] * T) / s0
        rows[i] = resid * (X[i] - me)
        rows[i] -= (w[i] / s0 - (1.0 - di) * w[i] / s0d) * tau
    return rows


# ---------------------------------------------------------------------------
# the per-interval form: one risk set at a time
# ---------------------------------------------------------------------------
#
# The kernels below evaluate one risk set's contribution from its rows
# X, event flags D and linear predictor eta, in the aggregate forms the
# estimating equations expand into; LoopRiskSets sums them over the
# literal risk sets.  Together they are the reference the library's
# prefix-sum engine must reproduce.

def _weights(eta):
    """Shifted exponential weights and the log of their true-scale sum."""
    c = float(np.max(eta)) if eta.size else 0.0
    w = np.exp(eta - c)
    s0 = float(w.sum())
    return w, s0, c


def interval_score(X, D, eta):
    """Raw score contribution ``sum_i D_i (X_i - xbar)`` of one risk set."""
    T = int(D.sum())
    if T == 0:
        return np.zeros(X.shape[1])
    w, s0, _ = _weights(eta)
    xbar = (w @ X) / s0
    return X[D].sum(axis=0) - T * xbar


def interval_hessian(X, D, eta):
    """Raw Hessian contribution ``T * sum_i (w_i/S0)(X_i - xbar)^{x2}``."""
    d = X.shape[1]
    T = int(D.sum())
    if T == 0:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    xbar = (w @ X) / s0
    Xc = X - xbar
    return T * (Xc.T @ (Xc * (w / s0)[:, None]))


def interval_ab(X, D, eta):
    """Raw contribution ``sum_i p_i (1 - p_i) (X_i - xbar)^{x2}`` with ``p_i = T w_i / S0``."""
    d = X.shape[1]
    T = int(D.sum())
    if T == 0:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    xbar = (w @ X) / s0
    p = T * w / s0
    Xc = X - xbar
    return Xc.T @ (Xc * (p * (1.0 - p))[:, None])


def interval_vhat(X, D, eta):
    """Raw tie-aware piece ``n * vhat_j``: the triple sum

        sum_i (1-D_i) w_i [sum_l w_l (X_i - X_l)] [sum_k D_k (X_i - X_k)]' / S0^2

    expanded into rank-structured aggregates (O(m d^2), not O(m^3)).
    """
    d = X.shape[1]
    T = int(D.sum())
    if T == 0:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    S1 = w @ X
    SD1 = X[D].sum(axis=0)
    nd = ~D
    wn = w * nd
    s0d = float(wn.sum())
    M1 = wn @ X
    M2 = X.T @ (X * wn[:, None])
    out = (s0 * T * M2 - s0 * np.outer(M1, SD1)
           - T * np.outer(S1, M1) + s0d * np.outer(S1, SD1))
    return out / (s0 * s0)


def interval_influence(X, D, eta):
    """Per-member influence rows ``(D_i - T w_i / S0)(X_i - xbar)``."""
    w, s0, _ = _weights(eta)
    T = int(D.sum())
    xbar = (w @ X) / s0
    resid = D.astype(float) - T * w / s0
    return resid[:, None] * (X - xbar)


def objective_term(X, D, eta):
    """Raw log-partial-likelihood contribution of one risk set."""
    T = int(D.sum())
    if T == 0:
        return 0.0
    w, s0, c = _weights(eta)
    return float(eta[D].sum()) - T * (np.log(s0) + c)


def _degenerate(D):
    """Risk sets with no events or with only events contribute zero."""
    T = int(D.sum())
    return T, (T == 0 or T == D.size)


def interval_score_odds(X, D, eta):
    """Raw score term ``(S0d * sum_i D_i X_i - T * sum_i (1-D_i) w_i X_i) / S0``."""
    T, skip = _degenerate(D)
    if skip:
        return np.zeros(X.shape[1])
    w, s0, _ = _weights(eta)
    wn = w * ~D
    s0d = float(wn.sum())
    M1 = wn @ X
    SD1 = X[D].sum(axis=0)
    return (s0d * SD1 - T * M1) / s0


def interval_jacobian_odds(X, D, eta):
    """Raw Jacobian term ``sum_i (1-D_i) w_i (T X_i - SD1)(X_i - xbar)' / S0``.

    This is the sample analog of the population derivative of the score
    in ``-beta'``; it is generally non-symmetric under ties.
    """
    d = X.shape[1]
    T, skip = _degenerate(D)
    if skip:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    wn = w * ~D
    s0d = float(wn.sum())
    M1 = wn @ X
    M2 = X.T @ (X * wn[:, None])
    SD1 = X[D].sum(axis=0)
    xbar = (w @ X) / s0
    out = T * M2 - np.outer(SD1, M1) - np.outer(T * M1 - s0d * SD1, xbar)
    return out / s0


def interval_gb(X, D, eta):
    """Raw classical model-based piece ``(T S0d / S0^2) sum_i w_i (X_i - me)^{x2}``
    with ``me`` the event-free-weighted covariate mean."""
    d = X.shape[1]
    T, skip = _degenerate(D)
    if skip:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    s0d = float((w * ~D).sum())
    me = _free_mean(X, D, eta)
    Xc = X - me
    return (T * s0d / (s0 * s0)) * (Xc.T @ (Xc * w[:, None]))


def _free_mean(X, D, eta):
    """The event-free-weighted covariate mean ``M1 / S0d``, weighted
    relative to the event-free members' own largest ``eta``, so that it
    is defined however far below the events they sit."""
    wf = np.exp(eta[~D] - np.max(eta[~D]))
    return (wf @ X[~D]) / wf.sum()


def interval_sigma_hat(X, D, eta):
    """Raw tie-aware piece ``n * sigma_hat_j``: the triple sum

        sum_i { (1-D_i) w_i sum_l D_l w_l (X_i - X_l)^{x2}
                + w_i [sum_l (1-D_l) w_l (X_i - X_l)] [sum_k D_k (X_i - X_k)]' } / S0^2

    expanded into rank-structured aggregates.  Generally non-symmetric.
    """
    d = X.shape[1]
    T, skip = _degenerate(D)
    if skip:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    S1 = w @ X
    S2 = X.T @ (X * w[:, None])
    wd = w * D
    Tw = float(wd.sum())
    SDw1 = wd @ X
    SDw2 = X.T @ (X * wd[:, None])
    wn = w * ~D
    s0d = float(wn.sum())
    M1 = wn @ X
    M2 = X.T @ (X * wn[:, None])
    SD1 = X[D].sum(axis=0)
    term1 = Tw * M2 - np.outer(M1, SDw1) - np.outer(SDw1, M1) + s0d * SDw2
    term2 = (s0d * T * S2 - s0d * np.outer(S1, SD1)
             - T * np.outer(M1, S1) + s0 * np.outer(M1, SD1))
    return (term1 + term2) / (s0 * s0)


def interval_sigma_tilde(X, D, eta, symmetric=False):
    """Raw sparse-table-style piece ``n * sigma_tilde_j``: the triple sum

        sum_i (1-D_i) w_i [sum_l {(1-D_l) w_l + D_l w_i}(X_i - X_l)]
                          [sum_k D_k (X_i - X_k)]' / S0^2.

    ``symmetric=True`` evaluates the equivalent symmetric form
    ``sum_i (1-D_i) w_i { (T/S0d)(S0d X_i - M1)^{x2} + w_i (T X_i - SD1)^{x2} } / S0^2``
    instead; the two agree identically in exact arithmetic.
    """
    d = X.shape[1]
    T, skip = _degenerate(D)
    if skip:
        return np.zeros((d, d))
    w, s0, _ = _weights(eta)
    wn = w * ~D
    s0d = float(wn.sum())
    M1 = wn @ X
    SD1 = X[D].sum(axis=0)
    a = s0d * X - M1
    v = T * X - SD1
    if symmetric:
        out = ((a * wn[:, None]).T @ a) * (T / s0d) + (v * (wn * w)[:, None]).T @ v
    else:
        u = a + w[:, None] * v
        out = (u * wn[:, None]).T @ v
    return out / (s0 * s0)


def interval_influence_odds(X, D, eta):
    """Per-member influence rows ``g_j1(i) + g_j2(i)`` at raw scale.

    ``g_j1`` corrects for estimating the baseline odds, ``g_j2`` for the
    event-free share of the risk-set weight entering that baseline.
    """
    T, skip = _degenerate(D)
    if skip:
        return np.zeros(X.shape)
    w, s0, _ = _weights(eta)
    wn = w * ~D
    s0d = float(wn.sum())
    M1 = wn @ X
    SD1 = X[D].sum(axis=0)
    me = _free_mean(X, D, eta)
    Df = D.astype(float)
    resid = (Df * s0d - (1.0 - Df) * w * T) / s0
    rows = resid[:, None] * (X - me)
    q = (s0d * SD1 - T * M1) / s0
    # factor_i q with factor_i = w_i / S0 - (1 - D_i) w_i / S0d, and
    # q / S0d = (SD1 - T me) / S0
    rows -= (w / s0)[:, None] * q[None, :]
    rows += ((1.0 - Df) * w)[:, None] * ((SD1 - T * me) / s0)[None, :]
    return rows


class LoopRiskSets:
    """The literal per-interval loop over a dataset's risk sets.

    Subjects are sorted stably by decreasing ``y``; the risk set of
    interval ``j`` is the first ``n_j`` of them.  Works on any object
    with ``n``, ``d``, ``y``, ``delta``, ``n_intervals`` and
    ``covariates_at(j)``.
    """

    def __init__(self, data):
        self.n, self.d = data.n, data.d
        self.data = data
        y = np.asarray(data.y)
        J = data.n_intervals
        self.order = np.argsort(-y, kind="stable")
        self.n_at_risk = np.array([int(np.sum(y >= j)) for j in range(1, J + 1)])
        self.n_events = np.array([int(np.sum((y == j) & data.delta))
                                  for j in range(1, J + 1)])
        self.event_intervals = np.flatnonzero(self.n_events > 0) + 1

    def members(self, j):
        return self.order[: self.n_at_risk[j - 1]]

    def interval(self, j, coef):
        idx = self.members(j)
        X = self.data.covariates_at(j)[idx]
        D = (self.data.y[idx] == j) & self.data.delta[idx]
        return idx, X, D, X @ coef

    def sums(self, coef, *kernels):
        """Totals of each ``kernel(X, D, eta)`` over the event intervals."""
        empty = (self.data.covariates_at(1)[:0], np.zeros(0, dtype=bool),
                 np.zeros(0))
        totals = [kernel(*empty) for kernel in kernels]
        for j in self.event_intervals:
            _, X, D, eta = self.interval(j, coef)
            for k, kernel in enumerate(kernels):
                totals[k] = totals[k] + kernel(X, D, eta)
        return totals

    def scatter(self, coef, kernel):
        """Per-subject totals ``(n, d)`` of the member rows ``kernel``
        returns for each event interval."""
        out = np.zeros((self.n, self.d))
        for j in self.event_intervals:
            idx, X, D, eta = self.interval(j, coef)
            out[idx] += kernel(X, D, eta)
        return out


def plogit_person_period(data):
    """``(live, triples)``: which intervals have both events and
    event-free members, and for each of them (in order) the triple
    ``(member indices, X rows, event indicators as floats)``."""
    rs = LoopRiskSets(data)
    live = (rs.n_events > 0) & (rs.n_events < rs.n_at_risk)
    zero = np.zeros(data.d)
    triples = []
    for j in np.flatnonzero(live) + 1:
        idx, X, D, _ = rs.interval(j, zero)
        triples.append((idx, X, D.astype(float)))
    return live, triples


def _expit(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def plogit_loglik(triples, b0, beta):
    """Pooled person-period log likelihood, one interval at a time."""
    out = 0.0
    for k, (_, X, D) in enumerate(triples):
        z = b0[k] + X @ beta
        out += float(D @ z - np.logaddexp(0.0, z).sum())
    return out


def plogit_score_info(triples, b0, beta, d):
    """Scores ``r0, rb`` and the arrow-structured information blocks
    ``a, C, F`` of the pooled likelihood."""
    K = len(triples)
    r0 = np.empty(K)
    a = np.empty(K)
    C = np.empty((K, d))
    rb = np.zeros(d)
    F = np.zeros((d, d))
    for k, (_, X, D) in enumerate(triples):
        p = _expit(b0[k] + X @ beta)
        resid = D - p
        v = p * (1.0 - p)
        r0[k] = resid.sum()
        rb += resid @ X
        a[k] = v.sum()
        C[k] = v @ X
        F += X.T @ (X * v[:, None])
    return r0, rb, a, C, F


def plogit_subject_scores(triples, n, b0, beta, ratio):
    """Rows ``q_i = sum_k resid_ik (X_i - ratio_k)`` over each subject's
    person-period rows."""
    q = np.zeros((n, beta.size))
    for k, (idx, X, D) in enumerate(triples):
        resid = D - _expit(b0[k] + X @ beta)
        q[idx] += resid[:, None] * (X - ratio[k])
    return q


def discretize_loop(times, statuses, breakpoints, early):
    """``(y, delta, n_beyond)`` of continuous records mapped onto a grid
    one record at a time (see ``dsurv.discretize``)."""
    J = len(breakpoints)
    y, delta, n_beyond = [], [], 0
    for time, status in zip(times, statuses):
        if status:
            j = int(np.searchsorted(breakpoints, time, side="left")) + 1
            event = True
            if j > J:
                j, event = J, False
                n_beyond += 1
        else:
            j = int(np.searchsorted(breakpoints, time, side="right"))
            if not early:
                j += 1
            event = False
            if j > J:
                j = J
                n_beyond += 1
        y.append(j)
        delta.append(event)
    return np.array(y), np.array(delta, dtype=bool), n_beyond


# ---------------------------------------------------------------------------
# dense covariate paths: one (J, d) row block per subject
# ---------------------------------------------------------------------------

def step_paths(paths, breakpoints, base_column, thresholds):
    """``(n, J, d + m)``: the ``(n, J, d)`` paths with the step terms
    ``x_base(t_j) * 1{t_j > c}`` appended for each threshold ``c``, one
    subject and one interval at a time."""
    n, J, _ = paths.shape
    out = [[list(paths[i, j]) + [paths[i, j, base_column] * float(breakpoints[j] > c)
                                 for c in thresholds]
            for j in range(J)] for i in range(n)]
    return np.array(out, dtype=float).reshape(n, J, -1)


def person_period_paths(rows, J):
    """``(ids, y, delta, paths)`` of person-period rows ``(id, interval,
    event, x)``: subjects in the order the rows first list them, and a
    path that keeps its last row's values after the subject's last
    interval."""
    by_id = {}
    for sid, j, event, x in rows:
        by_id.setdefault(sid, {})[j] = (event, list(x))
    ids, y, delta, paths = [], [], [], []
    for sid, per_j in by_id.items():
        last = max(per_j)
        ids.append(sid)
        y.append(last)
        delta.append(bool(per_j[last][0]))
        paths.append([per_j[min(j, last)][1] for j in range(1, J + 1)])
    return ids, np.array(y), np.array(delta), np.array(paths, dtype=float)


def covariate_changes(paths, y):
    """Intervals ``j > 1`` at which a subject with ``y >= j`` has other
    covariates than at ``j - 1``, from ``(n, J, d)`` paths."""
    n, J, _ = paths.shape
    return np.array([j for j in range(2, J + 1)
                     if any(y[i] >= j and np.any(paths[i, j - 1] != paths[i, j - 2])
                            for i in range(n))], dtype=int)


def baseline_log_hazards_loop(rs, gamma):
    out = np.full(rs.data.n_intervals, -np.inf)
    for j in rs.event_intervals:
        _, _, _, eta = rs.interval(j, gamma)
        c = eta.max()
        out[j - 1] = np.log(rs.n_events[j - 1]) - (np.log(np.exp(eta - c).sum()) + c)
    return out


def baseline_log_odds_loop(rs, beta):
    out = np.full(rs.data.n_intervals, -np.inf)
    for j in rs.event_intervals:
        if rs.n_events[j - 1] == rs.n_at_risk[j - 1]:
            out[j - 1] = np.inf
            continue
        _, _, D, eta = rs.interval(j, beta)
        free = eta[~D]
        c = free.max()
        out[j - 1] = np.log(rs.n_events[j - 1]) - (np.log(np.exp(free - c).sum()) + c)
    return out


def hazards_over_one_loop(rs, gamma, gamma0):
    count = 0
    for j in rs.event_intervals:
        _, _, _, eta = rs.interval(j, gamma)
        count += int(np.sum(gamma0[j - 1] + eta > 0))
    return count


def prob_curve_loop(data, gamma, gamma0, hessian, cov, h, x0):
    """The per-interval accumulators of the probability-model curve:
    ``(U, U_alt, influence, var_robust, var_model_based, size)``; ``h``
    the influence rows, ``cov`` the coefficient covariance, ``size`` the
    ``(n, J)`` sums of the absolute increments of ``phi``."""
    rs = LoopRiskSets(data)
    n, J, d = data.n, data.n_intervals, data.d
    p0 = np.exp(gamma0 + float(x0 @ gamma))
    W = np.linalg.solve(hessian, h.T)
    phi1 = np.zeros(n)
    size = np.zeros(n)
    U = np.zeros(d)
    Ualt = np.zeros(d)
    mb1 = 0.0
    out = [np.zeros((J, d)), np.zeros((J, d)), np.zeros((n, J)), np.zeros(J),
           np.zeros(J), np.zeros((n, J))]
    for j in range(1, J + 1):
        T = int(rs.n_events[j - 1])
        if T > 0:
            idx, X, D, eta = rs.interval(j, gamma)
            X = X - x0
            eta = X @ gamma
            w, s0, _ = _weights(eta)
            xbar = (w @ X) / s0
            Ualt = Ualt + p0[j - 1] * xbar
            p0j = p0[j - 1]
            if 1.0 - p0j > 0.0:
                phat = p0j * np.exp(eta)
                rho = n * p0j / ((1.0 - p0j) * T)
                phi1[idx] += -rho * (D - phat)
                size[idx] += rho * (D + phat)
                U = U + (p0j / (1.0 - p0j)) * xbar
                mb1 += (p0j ** 2 / ((1.0 - p0j) ** 2 * T ** 2)) * float(
                    np.sum(phat * (1.0 - phat)))
        vec = phi1 + W.T @ U
        out[0][j - 1], out[1][j - 1], out[2][:, j - 1] = U, Ualt, vec
        out[3][j - 1] = float(vec @ vec) / n ** 2
        out[4][j - 1] = mb1 + float(U @ cov @ U)
        out[5][:, j - 1] = size
    return tuple(out)


def odds_curve_loop(data, beta, beta0, jacobian, cov, g, x0):
    """The per-interval accumulators of the odds-model curve:
    ``(Gamma, influence, var_robust, var_model_based, size)``."""
    rs = LoopRiskSets(data)
    n, J, d = data.n, data.n_intervals, data.d
    with np.errstate(over="ignore"):
        q = 1.0 / (1.0 + np.exp(-(beta0 + float(x0 @ beta))))
    W = np.linalg.solve(jacobian, g.T)
    psi1 = np.zeros(n)
    size = np.zeros(n)
    G = np.zeros(d)
    mb1 = 0.0
    out = [np.zeros((J, d)), np.zeros((n, J)), np.zeros(J), np.zeros(J),
           np.zeros((n, J))]
    for j in range(1, J + 1):
        T = int(rs.n_events[j - 1])
        if 0 < T < rs.n_at_risk[j - 1]:
            qj = q[j - 1]
            idx, X, D, eta = rs.interval(j, beta)
            X = X - x0
            eta = X @ beta
            step = -(n * qj / ((1.0 - qj) * T)) * (
                D * (1.0 - qj) - (~D) * np.exp(eta) * qj)
            psi1[idx] += step
            size[idx] += np.abs(step)
            w, _, c = _weights(eta)
            wn = w * ~D
            s0d = float(wn.sum())
            G = G + qj * (wn @ X) / s0d
            log_s0 = np.log(float(w.sum())) + c
            log_s0d = np.log(s0d) + c
            log_den = np.logaddexp(np.log(T), log_s0d)
            mb1 += float(np.exp(np.log(T) + log_s0 - log_s0d - 2.0 * log_den))
        vec = psi1 + W.T @ G
        out[0][j - 1], out[1][:, j - 1] = G, vec
        out[2][j - 1] = float(vec @ vec) / n ** 2
        out[3][j - 1] = mb1 + float(G @ cov @ G)
        out[4][:, j - 1] = size
    return tuple(out)


# ---------------------------------------------------------------------------
# whole-sample sums (static covariates only)
# ---------------------------------------------------------------------------

def total_kernel(y, delta, X, coef, kernel, J=None):
    """Sum ``kernel`` over all risk sets of a static-covariate sample."""
    y = np.asarray(y)
    delta = np.asarray(delta, dtype=bool)
    X = np.asarray(X, dtype=float)
    J = int(y.max()) if J is None else J
    first = kernel(X[:1], np.zeros(1, dtype=bool), X[:1] @ coef)
    out = np.zeros_like(np.asarray(first, dtype=float))
    for j, members in enumerate(risk_sets(y, J), start=1):
        Xj = X[members]
        Dj = event_mask(y, delta, members, j)
        out = out + kernel(Xj, Dj, Xj @ coef)
    return out


def prob_objective(y, delta, X, gamma, J=None):
    """Log partial likelihood sum_j [sum_events eta - T_j log S0_j]."""
    y = np.asarray(y)
    delta = np.asarray(delta, dtype=bool)
    X = np.asarray(X, dtype=float)
    J = int(y.max()) if J is None else J
    total = 0.0
    for j, members in enumerate(risk_sets(y, J), start=1):
        Dj = event_mask(y, delta, members, j)
        T = int(Dj.sum())
        if T == 0:
            continue
        eta = X[members] @ gamma
        total += float(eta[Dj].sum()) - T * math.log(float(np.exp(eta).sum()))
    return total


def prob_baselines(y, delta, X, gamma, J=None):
    """log T_j - log sum_{i at risk} exp(x_i' gamma); -inf without events."""
    y = np.asarray(y)
    delta = np.asarray(delta, dtype=bool)
    X = np.asarray(X, dtype=float)
    J = int(y.max()) if J is None else J
    out = np.full(J, -np.inf)
    for j, members in enumerate(risk_sets(y, J), start=1):
        T = int(event_mask(y, delta, members, j).sum())
        if T > 0:
            eta = X[members] @ gamma
            out[j - 1] = math.log(T) - math.log(float(np.exp(eta).sum()))
    return out


def odds_baselines(y, delta, X, beta, J=None):
    """log T_j - log sum over event-free at-risk of exp(x_i' beta)."""
    y = np.asarray(y)
    delta = np.asarray(delta, dtype=bool)
    X = np.asarray(X, dtype=float)
    J = int(y.max()) if J is None else J
    out = np.full(J, -np.inf)
    for j, members in enumerate(risk_sets(y, J), start=1):
        Dj = event_mask(y, delta, members, j)
        T = int(Dj.sum())
        if T == 0:
            continue
        if T == members.size:
            out[j - 1] = np.inf
            continue
        eta = X[members] @ beta
        out[j - 1] = math.log(T) - math.log(float(np.exp(eta[~Dj]).sum()))
    return out


# ---------------------------------------------------------------------------
# generic numeric fallbacks
# ---------------------------------------------------------------------------

def bisect(f, lo, hi, tol=1e-13, max_iter=200):
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert flo * fhi < 0, "no sign change on the bracket"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for k in range(x.size):
        up, dn = x.copy(), x.copy()
        up[k] += h
        dn[k] -= h
        out[k] = (f(up) - f(dn)) / (2.0 * h)
    return out


def fd_jac(f, x, h=1e-6):
    """Central-difference Jacobian of a vector function (columns = d/dx_k)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        up, dn = x.copy(), x.copy()
        up[k] += h
        dn[k] -= h
        cols.append((np.asarray(f(up)) - np.asarray(f(dn))) / (2.0 * h))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# continuous-time proportional hazards fit (distinct event times)
# ---------------------------------------------------------------------------

def cox_fit(time, status, X, tol=1e-12, max_iter=60):
    """Newton solve of the continuous-time partial likelihood score.

    Assumes all event times are distinct.  Returns ``(beta, bread)``
    where ``bread`` is the average negative Hessian at the optimum.
    """
    time = np.asarray(time, dtype=float)
    status = np.asarray(status, dtype=bool)
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    event_times = np.sort(time[status])
    assert np.unique(event_times).size == event_times.size

    def score_hess(beta):
        score = np.zeros(d)
        hess = np.zeros((d, d))
        w = np.exp(X @ beta)
        for t in event_times:
            at_risk = time >= t
            i = int(np.flatnonzero((time == t) & status)[0])
            ww = w[at_risk]
            s0 = ww.sum()
            xbar = (ww @ X[at_risk]) / s0
            score += X[i] - xbar
            Xc = X[at_risk] - xbar
            hess += Xc.T @ (Xc * (ww / s0)[:, None])
        return score, hess

    beta = np.zeros(d)
    for _ in range(max_iter):
        score, hess = score_hess(beta)
        if np.max(np.abs(score)) / n < tol:
            break
        beta = beta + np.linalg.solve(hess, score)
    _, hess = score_hess(beta)
    return beta, hess / n


# ---------------------------------------------------------------------------
# pooled logistic fit by plain IRLS
# ---------------------------------------------------------------------------

def logistic_irls(design, ybin, tol=1e-12, max_iter=80):
    """Newton/IRLS logistic regression; returns (coef, observed information)."""
    design = np.asarray(design, dtype=float)
    yb = np.asarray(ybin, dtype=float)
    coef = np.zeros(design.shape[1])
    for _ in range(max_iter):
        z = design @ coef
        p = 1.0 / (1.0 + np.exp(-z))
        grad = design.T @ (yb - p)
        info = design.T @ (design * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(info, grad)
        coef = coef + step
        if np.max(np.abs(grad)) < tol:
            break
    z = design @ coef
    p = 1.0 / (1.0 + np.exp(-z))
    info = design.T @ (design * (p * (1.0 - p))[:, None])
    return coef, info


# ---------------------------------------------------------------------------
# brute-force enumeration over event configurations
# ---------------------------------------------------------------------------

def enum_bernoulli(p, kernel):
    """E[kernel(D)] and Cov[kernel(D)] under independent Bernoulli(p_i)."""
    p = np.asarray(p, dtype=float)
    m = p.size
    mean = None
    sq = None
    for bits in itertools.product((False, True), repeat=m):
        D = np.array(bits, dtype=bool)
        w = float(np.prod(np.where(D, p, 1.0 - p)))
        v = np.asarray(kernel(D), dtype=float)
        mean = w * v if mean is None else mean + w * v
        o = w * np.outer(v.ravel(), v.ravel())
        sq = o if sq is None else sq + o
    cov = sq - np.outer(mean.ravel(), mean.ravel())
    return mean, cov


def enum_given_total(eta, t, kernel):
    """E[kernel(D)] and Cov under the size-``t`` law with weights
    proportional to prod_{i in D} exp(eta_i)."""
    eta = np.asarray(eta, dtype=float)
    m = eta.size
    mean = None
    sq = None
    total = 0.0
    for S in itertools.combinations(range(m), t):
        D = np.zeros(m, dtype=bool)
        D[list(S)] = True
        w = float(np.exp(eta[D].sum()))
        total += w
        v = np.asarray(kernel(D), dtype=float)
        mean = w * v if mean is None else mean + w * v
        o = w * np.outer(v.ravel(), v.ravel())
        sq = o if sq is None else sq + o
    mean = mean / total
    cov = sq / total - np.outer(mean.ravel(), mean.ravel())
    return mean, cov


# ---------------------------------------------------------------------------
# survival-curve ingredients recomputed from first principles
# ---------------------------------------------------------------------------

def prob_log_survival(y, delta, X, gamma, x0, k, J=None):
    """log prod_{j<=k} (1 - exp(gamma_0j(gamma) + x0' gamma)) with the
    profiled baselines recomputed at ``gamma``."""
    g0 = prob_baselines(y, delta, X, gamma, J=J)
    total = 0.0
    for j in range(1, k + 1):
        if np.isfinite(g0[j - 1]):
            total += math.log(1.0 - math.exp(g0[j - 1] + float(x0 @ gamma)))
    return total


def odds_log_survival(y, delta, X, beta, x0, k, J=None):
    """log prod_{j<=k} (1 - expit(beta_0j(beta) + x0' beta))."""
    b0 = odds_baselines(y, delta, X, beta, J=J)
    total = 0.0
    for j in range(1, k + 1):
        z = b0[j - 1]
        if z == -np.inf:
            continue
        total += math.log(1.0 - 1.0 / (1.0 + math.exp(-(z + float(x0 @ beta)))))
    return total
