"""Seeded simulation harness and exact-enumeration oracles.

The generator mimics a randomized trial: treatment 1 (test) or 2
(standard) with probability one half each, four standard-normal
covariates with covariance ``2^{-|j-k|}``, an event time that is
Weibull (exponential as shape 1) with scale ``exp(-x'beta*)`` and a
censoring time supported on ``(0, 4 exp(-x'beta*))``; the observed
minimum is discretized on an equal-width grid with the censored-late
convention.

Determinism contract: a replicate is a pure function of
``(scenario.seed, rep_index)``.  The stream is
``numpy.random.default_rng(SeedSequence((seed, rep_index)))`` and draws
happen in a fixed documented order (treatment, normals, event uniform,
censoring uniform, censoring beta), so results never depend on thread
count or replicate scheduling.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import odds as _odds
from . import prob as _prob
from ._risksets import risk_set_aggregates
from .data import CensorOption, DiscreteSurvivalData, TimeGrid, discretize
from .errors import ConvergenceError, InputError, SingularMatrixError
from .plogit import _expit, fit_plogit, plogit_variances

__all__ = [
    "SimScenario",
    "SimSummary",
    "scenario_from_json_dict",
    "scenario_to_json_dict",
    "generate",
    "replicate",
    "summary_to_csv",
    "EnumeratedMoments",
    "enumerate_conditional",
]

_COVARIATE_NAMES = ["Tr", "X1", "X2", "X3", "X4"]
_EVENT_LAWS = ("exponential", "weibull")
_CENSOR_LAWS = ("uniform", "beta-test")


@dataclass(frozen=True, eq=False)
class SimScenario:
    """Design of one simulation study (see module docstring)."""

    n: int
    beta_star: np.ndarray
    bin_width: float
    reps: int
    seed: int
    event_law: str = "exponential"
    shape_test: float = 1.0
    shape_standard: float = 1.0
    censor_law: str = "uniform"
    censor_option: CensorOption = CensorOption.CENSORED_LATE
    t_max: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta_star",
                           np.asarray(self.beta_star, dtype=float))
        if self.beta_star.shape != (5,):
            raise InputError("beta_star must have 5 entries (Tr, X1..X4)")
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.reps < 1:
            raise InputError("reps must be at least 1")
        if self.bin_width <= 0:
            raise InputError("bin_width must be positive")
        if self.event_law not in _EVENT_LAWS:
            raise InputError(f"event_law must be one of {_EVENT_LAWS}")
        if self.censor_law not in _CENSOR_LAWS:
            raise InputError(f"censor_law must be one of {_CENSOR_LAWS}")
        if min(self.shape_test, self.shape_standard) <= 0:
            raise InputError("Weibull shapes must be positive")
        if self.t_max is not None and self.t_max <= 0:
            raise InputError("t_max must be positive when given")


def scenario_to_json_dict(s: SimScenario) -> dict:
    return {
        "n": s.n,
        "beta_star": [float(b) for b in s.beta_star],
        "bin_width": s.bin_width,
        "reps": s.reps,
        "seed": s.seed,
        "event_law": s.event_law,
        "shape_test": s.shape_test,
        "shape_standard": s.shape_standard,
        "censor_law": s.censor_law,
        "censor_option": s.censor_option.value,
        "t_max": s.t_max,
    }


def scenario_from_json_dict(d: dict) -> SimScenario:
    known = {"n", "beta_star", "bin_width", "reps", "seed", "event_law",
             "shape_test", "shape_standard", "censor_law", "censor_option",
             "t_max"}
    extra = set(d) - known
    if extra:
        raise InputError(f"unknown scenario fields: {sorted(extra)}")
    missing = {"n", "beta_star", "bin_width", "reps", "seed"} - set(d)
    if missing:
        raise InputError(f"scenario fields missing: {sorted(missing)}")
    kwargs = dict(d)
    if "censor_option" in kwargs:
        kwargs["censor_option"] = CensorOption(kwargs["censor_option"])
    return SimScenario(**kwargs)


_CHOL = np.linalg.cholesky(2.0 ** -np.abs(np.subtract.outer(np.arange(4),
                                                            np.arange(4))))


def generate(scenario: SimScenario, rep_index: int) -> DiscreteSurvivalData:
    """Generate one replicate; bit-identical for equal (seed, rep_index).

    Draw order: treatment ``rng.integers(1, 3, n)``; normals
    ``rng.standard_normal((n, 4))`` mapped through the Cholesky factor
    of the target covariance; event uniform ``rng.random(n)`` fed to the
    inverse Weibull transform (with the test/standard shape per arm);
    censoring uniform ``rng.random(n)``; censoring beta
    ``rng.beta(2, 2, n)`` (drawn only under the ``beta-test`` law, used
    in the test arm only).
    """
    s = scenario
    rng = np.random.default_rng(np.random.SeedSequence((s.seed, rep_index)))
    tr = rng.integers(1, 3, size=s.n).astype(float)
    X14 = rng.standard_normal((s.n, 4)) @ _CHOL.T
    u_event = rng.random(s.n)
    u_cens = rng.random(s.n)
    X = np.column_stack([tr, X14])
    scale = np.exp(-X @ s.beta_star)
    shape = np.where(tr == 1.0, s.shape_test, s.shape_standard)
    if s.event_law == "exponential":
        shape = np.ones(s.n)
    T = scale * (-np.log1p(-u_event)) ** (1.0 / shape)
    C = 4.0 * scale * u_cens
    if s.censor_law == "beta-test":
        b = rng.beta(2.0, 2.0, size=s.n)
        C = np.where(tr == 1.0, 4.0 * scale * b, C)
    y_cont = np.minimum(T, C)
    delta = T <= C
    t_max = s.t_max if s.t_max is not None else float(np.max(y_cont))
    grid = TimeGrid.from_width(s.bin_width, t_max)
    return discretize((y_cont, delta, X), grid, s.censor_option,
                      covariate_names=list(_COVARIATE_NAMES))


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

_FIT_ERRORS = (ConvergenceError, SingularMatrixError, InputError,
               np.linalg.LinAlgError)


@dataclass
class SimSummary:
    """Per-method Monte Carlo aggregates over successful replicates.

    ``se_mean[method][kind]`` is the square root of the Monte Carlo mean
    of the variance estimates (the usual table convention), so it is an
    SD-scale number comparable with ``point_sd``.
    """

    coef_names: list
    methods: list
    reps: int
    point_mean: dict = field(default_factory=dict)
    point_sd: dict = field(default_factory=dict)
    se_mean: dict = field(default_factory=dict)
    n_failed: dict = field(default_factory=dict)


def _fit_one(method, data, kinds):
    """Fit one method and the kinds of ``kinds`` it defines; ``wmh``
    starts from the ``bp`` root the dataset's engine keeps, as
    ``fit_beta`` does by default."""
    if method == "plogit":
        fit = fit_plogit(data, full_fisher=False)
        table = dict(zip(("mb", "robust"), plogit_variances(data, fit)))
        variances = {k: table[k] for k in kinds if k in table}
    else:
        fit = _prob.fit_gamma(data) if method == "bp" else _odds.fit_beta(data)
        table = _odds.VARIANCES["prob" if method == "bp" else "odds"]
        variances = {k: table[k](data, fit).covariance
                     for k in kinds if k in table}
    point = fit.gamma if method == "bp" else fit.beta
    return point, {k: np.diag(v).copy() for k, v in variances.items()}


def _run_rep(args):
    scenario, rep, methods, kinds = args
    data = generate(scenario, rep)
    out = {}
    for method in methods:
        try:
            out[method] = _fit_one(method, data, kinds)
        except _FIT_ERRORS:
            out[method] = None
    return rep, out


def replicate(scenario: SimScenario, methods=("bp", "wmh", "plogit"),
              variance_kinds=("old", "mb", "mb2", "mb3", "robust"),
              threads: int = 1) -> SimSummary:
    """Run every replicate, fit every method, and aggregate.

    Replicates where a method's fit (or one of its variance estimates)
    fails are excluded from that method's aggregates and counted in
    ``n_failed``.  Results are indexed by replicate before reduction, so
    they are identical for any ``threads``.  No method, an unknown
    method, a variance kind no method defines or ``threads`` below 1 is
    an ``InputError`` before any replicate runs.
    """
    methods = list(methods)
    kinds = list(variance_kinds)
    if not methods:
        raise InputError("no method to fit")
    defined = {k for table in _odds.VARIANCES.values() for k in table}
    for what, names, known in (("method", methods, ("bp", "wmh", "plogit")),
                               ("variance kind", kinds, defined)):
        for name in names:
            if name not in known:
                raise InputError(f"unknown {what} '{name}'")
    if threads < 1:
        raise InputError(f"threads must be at least 1 (got {threads})")
    reps, d = scenario.reps, 5
    points = {m: np.full((reps, d), np.nan) for m in methods}
    variances = {m: {} for m in methods}
    ok = {m: np.zeros(reps, dtype=bool) for m in methods}

    args = [(scenario, rep, methods, kinds) for rep in range(reps)]
    if threads > 1:
        chunk = max(1, reps // (8 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_rep, args, chunksize=chunk))
    else:
        results = [_run_rep(a) for a in args]

    for rep, out in results:
        for m in methods:
            if out[m] is None:
                continue
            point, var = out[m]
            points[m][rep] = point
            for k, diag in var.items():
                variances[m].setdefault(k, np.full((reps, d), np.nan))[rep] = diag
            ok[m][rep] = True

    summary = SimSummary(coef_names=list(_COVARIATE_NAMES), methods=methods,
                         reps=reps)
    for m in methods:
        good = ok[m]
        rows = points[m][good]
        summary.n_failed[m] = int(reps - good.sum())
        if rows.shape[0] == 0:
            summary.point_mean[m] = np.full(d, np.nan)
            summary.point_sd[m] = np.full(d, np.nan)
            summary.se_mean[m] = {k: np.full(d, np.nan) for k in variances[m]}
            continue
        summary.point_mean[m] = rows.mean(axis=0)
        summary.point_sd[m] = (rows.std(axis=0, ddof=1) if rows.shape[0] > 1
                               else np.full(d, np.nan))
        summary.se_mean[m] = {k: np.sqrt(v[good].mean(axis=0))
                              for k, v in variances[m].items()}
    return summary


_DISPLAY = {"bp": "BP", "wmh": "wMH", "plogit": "Plogit"}


def summary_to_csv(summary: SimSummary, fh) -> None:
    """Coefficient rows; per method: point mean, point SD, then one
    column per variance kind (as an SE), mirroring the usual layout."""
    header = ["coef"]
    for m in summary.methods:
        tag = _DISPLAY.get(m, m)
        header += [f"{tag}_mean", f"{tag}_sd"]
        header += [f"{tag}_se_{k}" for k in summary.se_mean[m]]
    header += [f"{_DISPLAY.get(m, m)}_failed" for m in summary.methods]
    writer = csv.writer(fh)
    writer.writerow(header)
    for i, name in enumerate(summary.coef_names):
        row = [name]
        for m in summary.methods:
            row += [_fmt(summary.point_mean[m][i]), _fmt(summary.point_sd[m][i])]
            row += [_fmt(v[i]) for v in summary.se_mean[m].values()]
        row += [summary.n_failed[m] for m in summary.methods]
        writer.writerow(row)


def _fmt(x):
    from .io import format_float
    return format_float(float(x))


# ---------------------------------------------------------------------------
# exact enumeration oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumeratedMoments:
    """Exact moments of one risk set's kernels under the fitted law."""

    score_mean: np.ndarray
    score_cov: np.ndarray
    meat_mean: np.ndarray
    meat2_mean: np.ndarray | None = None


def enumerate_conditional(X, intercept: float, coef, model: str = "prob",
                          given_Tj: int | None = None) -> EnumeratedMoments:
    """Exact moments of the per-interval score and variance kernels for
    one fixed risk set (rows of ``X``), by summing over all event
    configurations.

    Unconditionally the event indicators are independent Bernoulli with
    the model's hazard (probability model: ``exp``-link, must stay at or
    below 1; odds model: logistic link).  Given ``given_Tj`` the law is
    the conditional one: weights proportional to the product of the
    selected subjects' odds, which is free of the intercept.

    For ``model="prob"`` the meat is the tie-aware kernel whose
    conditional mean equals the true score variance; for
    ``model="odds"`` both the direct (``meat_mean``) and the
    product-form (``meat2_mean``) kernels are averaged.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InputError("X must be a (m, d) matrix with m >= 1")
    m, d = X.shape
    if m > 20:
        raise InputError("risk set too large to enumerate (max 20)")
    coef = np.asarray(coef, dtype=float)
    eta = X @ coef

    if model == "prob":
        p = np.exp(intercept + eta)
        if np.any(p > 1.0):
            raise InputError("probability model: hazard above 1 on this design")
        score, meats = _prob.score_terms, [_prob.vhat_terms]
        squares = None
    elif model == "odds":
        p = _expit(intercept + eta)
        score = _odds.score_odds_terms
        meats = [_odds.sigma_hat_terms, _odds.sigma_tilde_terms]
        squares = 1
    else:
        raise InputError("model must be 'prob' or 'odds'")

    def kernels(D):
        a = risk_set_aggregates(X, D, eta, squares=squares)
        values = [score(a)[0]] + [t(a) for t in meats]
        if model == "odds" and not 0 < a.T[0] < m:
            # risk sets with no events or only events contribute zero
            values = [np.zeros_like(v) for v in values]
        return values

    if given_Tj is None:
        configs = (np.array(bits, dtype=bool)
                   for bits in itertools.product((False, True), repeat=m))

        def weight(D):
            return float(np.prod(np.where(D, p, 1.0 - p)))
    else:
        if not 0 <= given_Tj <= m:
            raise InputError("given_Tj out of range")

        def _masks():
            for S in itertools.combinations(range(m), given_Tj):
                mask = np.zeros(m, dtype=bool)
                mask[list(S)] = True
                yield mask

        configs = _masks()

        def weight(D):
            return float(np.exp(np.sum(eta[D])))

    first = [None] * (1 + len(meats))
    score_sq = None
    total = 0.0
    for D in configs:
        D = np.asarray(D, dtype=bool)
        w = weight(D)
        if w == 0.0:
            continue
        total += w
        values = kernels(D)
        for i, v in enumerate(values):
            first[i] = w * v if first[i] is None else first[i] + w * v
        s = values[0]
        outer = w * np.outer(s, s)
        score_sq = outer if score_sq is None else score_sq + outer
    if total <= 0.0:
        raise InputError("degenerate enumeration: zero total weight")
    first = [f / total for f in first]
    score_sq /= total
    score_mean = first[0]
    score_cov = score_sq - np.outer(score_mean, score_mean)
    return EnumeratedMoments(score_mean=score_mean, score_cov=score_cov,
                             meat_mean=first[1],
                             meat2_mean=first[2] if len(first) > 2 else None)
