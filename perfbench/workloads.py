"""The benchmark's four workloads.

Each workload is a closed loop in one process: operation ``i`` starts
when operation ``i - 1`` has ended.  Inputs are made from the workload
seed only; the program receives the generated inputs.

* ``sim_fine``     one simulation replicate per operation (the
                   methodologist's loop: tiny risk sets, many intervals).
* ``orig_scale``   one full analysis of a few thousand subjects on the
                   original time scale (one interval per distinct time,
                   no ties): the regime where risk-set copies grow
                   quadratically in n.
* ``binned_large`` the same analysis on 3e4 subjects in 150 wide
                   intervals with heavy ties: few, large risk sets.
* ``veteran_cli``  one in-process ``dsurv fit`` invocation per operation
                   on the veterans CSV, six invocations to a round.

Every operation's output is checked against the oracles in
:mod:`oracles`, against properties the method must have, or against the
published veterans values; never against a stored copy of the
program's own output.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import shutil

import numpy as np

import dsurv
from dsurv import cli as dcli
from dsurv import io as dio

import oracles

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOL = 1e-9  # the library's default convergence tolerance

# ---------------------------------------------------------------------------
# synthetic subject tables (orig_scale, binned_large)
# ---------------------------------------------------------------------------

_NAMES = ["treat", "z1", "z2", "z3"]
_BETA = np.array([0.5, -0.3, 0.2, 0.1])
_CENSOR_MAX = 3.0


def subject_table(seed, n):
    """Two-arm trial: ``treat`` 0/1 and three standard normals; event
    times exponential with rate ``exp(x' beta)``, censoring uniform on
    (0, 3).  Continuous times, so no two subjects share a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    X = np.column_stack([rng.integers(0, 2, n).astype(float),
                         rng.standard_normal((n, 3))])
    t_event = rng.exponential(np.exp(-X @ _BETA))
    t_cens = rng.uniform(0.0, _CENSOR_MAX, n)
    return dio.SubjectTable(ids=[str(i + 1) for i in range(n)],
                            time=np.minimum(t_event, t_cens),
                            status=t_event <= t_cens, covariates=X,
                            names=list(_NAMES))


def analysis(table, width, x0):
    """``build_data``, the three fits, their variances, both curves."""
    data = dio.build_data(table, width=width)
    pfit = dsurv.fit_gamma(data)
    ofit = dsurv.fit_beta(data)
    lfit = dsurv.fit_plogit(data)
    pvar = {"mb2": dsurv.var_model_based2(data, pfit),
            "robust": dsurv.var_robust(data, pfit)}
    ovar = {"mb2": dsurv.var_model_based2_odds(data, ofit),
            "mb3": dsurv.var_model_based3_odds(data, ofit),
            "robust": dsurv.var_robust_odds(data, ofit)}
    lvar = dict(zip(("mb", "robust"), dsurv.plogit_variances(data, lfit)))
    pcurve = dsurv.prob_curve(data, pfit, x0=x0, variance=pvar["mb2"])
    ocurve = dsurv.odds_curve(data, ofit, x0=x0, variance=ovar["mb2"])
    return dict(data=data, pfit=pfit, ofit=ofit, lfit=lfit, pvar=pvar,
                ovar=ovar, lvar=lvar, pcurve=pcurve, ocurve=ocurve)


def _variance_failures(res):
    bad = []
    mats = [(f"prob {k}", v.covariance) for k, v in res["pvar"].items()]
    mats += [(f"odds {k}", v.covariance) for k, v in res["ovar"].items()]
    mats += [(f"plogit {k}", v) for k, v in res["lvar"].items()]
    for label, mat in mats:
        if not oracles.is_symmetric_psd(mat):
            bad.append(f"{label} variance is not symmetric PSD")
    for label, coef in (("prob", res["pfit"].gamma), ("odds", res["ofit"].beta),
                        ("plogit", res["lfit"].beta)):
        if not np.all(np.isfinite(coef)):
            bad.append(f"{label} coefficients are not finite")
    return bad


def _near(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.max(np.abs(a - b)) <= rtol * max(1.0, float(np.max(np.abs(b)))))


class Workload:
    """A closed loop of operations over seed-made inputs.

    ``round_size`` operations make a round and a run attempts whole
    rounds.  The traced run reports calls and counts over the first
    ``counted_rounds`` rounds, a fixed set of operations, so they are
    exact for a given seed.
    """

    name = ""
    round_size = 1
    counted_rounds = 1

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def params(self):
        raise NotImplementedError

    def setup(self):
        """Make the inputs and warm up."""
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, i, result):
        """Failures of operation ``i``'s output (empty when correct)."""
        raise NotImplementedError

    def finish(self):
        """Failures of the checks that need the whole run."""
        return []

    def datasets(self, i):
        """The datasets operation ``i`` fits, rebuilt with the public API."""
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sim_fine
# ---------------------------------------------------------------------------

# criterion 6: n=100, width 0.01 e^0.4 (arms coded 1/2 shift every time by
# e^0.4), reference Monte Carlo means over 2000 replicates
_SIM_BETA = [-0.4, 0.6, -0.4, 0.3, 0.1]
_SIM_WIDTH = 0.01 * math.exp(0.4)
_SIM_REF = {"bp": -0.408, "wmh": -0.413}
_SIM_REF_REPS = 2000
_SPOT_EVERY = 16


class SimFine(Workload):
    name = "sim_fine"
    counted_rounds = 32

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        # Tr estimate by operation index (a traced run repeats indices)
        self.tr = {"bp": {}, "wmh": {}}

    def params(self):
        return {"n": 100, "bin_width": _SIM_WIDTH, "beta_star": _SIM_BETA,
                "methods": ["bp", "wmh"], "variance_kinds": ["robust"],
                "threads": 1, "reps_per_op": 1,
                "scenario_seed": "1000000 * seed + 1 + op index",
                "spot_check_every": _SPOT_EVERY}

    def scenario(self, i):
        return dsurv.SimScenario(n=100, beta_star=_SIM_BETA,
                                 bin_width=_SIM_WIDTH, reps=1,
                                 seed=1_000_000 * self.seed + 1 + i)

    def setup(self):
        self.op(-1)

    def op(self, i):
        return dsurv.replicate(self.scenario(i), methods=("bp", "wmh"),
                               variance_kinds=("robust",), threads=1)

    def check(self, i, summ):
        bad = []
        points = {}
        for m in ("bp", "wmh"):
            if summ.n_failed[m]:
                # replicate() counts a fit that raised instead of raising
                bad.append(f"op {i}: {m} fit failed")
                continue
            points[m] = summ.point_mean[m]
            if not (np.all(np.isfinite(points[m]))
                    and np.all(np.isfinite(summ.se_mean[m]["robust"]))):
                bad.append(f"{m}: non-finite estimate or SE")
            else:
                self.tr[m][i] = float(points[m][0])
        if i % _SPOT_EVERY == 0 and points:
            data = dsurv.generate(self.scenario(i), 0)
            X = data.covariates_at(1)
            score = {"bp": oracles.prob_score, "wmh": oracles.odds_score}
            for m, coef in points.items():
                s = score[m](data.y, data.delta, X, coef) / data.n
                if np.max(np.abs(s)) > 10 * TOL:
                    bad.append(f"op {i}: oracle {m} score {np.max(np.abs(s)):.2e} "
                               "at the fitted coefficients")
        return bad

    def finish(self):
        bad = []
        for m, ref in _SIM_REF.items():
            vals = np.array(list(self.tr[m].values()))
            if vals.size < 2:
                continue
            # the reference is itself a 2000-replicate Monte Carlo mean
            se = vals.std(ddof=1) * math.sqrt(1.0 / vals.size + 1.0 / _SIM_REF_REPS)
            if abs(vals.mean() - ref) > 3.0 * se:
                bad.append(f"{m} Tr mean {vals.mean():.4f} over {vals.size} "
                           f"replicates is more than 3 SE ({se:.4f}) from {ref}")
        return bad

    def datasets(self, i):
        return [dsurv.generate(self.scenario(i), 0)]


# ---------------------------------------------------------------------------
# orig_scale and binned_large
# ---------------------------------------------------------------------------

class _Analysis(Workload):
    """One analysis of the seed's subject table per operation."""

    n = 0
    n_tiny = 0
    n_warmup = 0
    width = None
    x0 = np.array([1.0, 0.0, 0.0, 0.0])

    def params(self):
        return {"n": self.size(), "width": self.width,
                "covariates": _NAMES, "beta": _BETA.tolist(),
                "censoring": f"uniform(0, {_CENSOR_MAX})",
                "x0": self.x0.tolist(), "warmup_n": self.n_warmup}

    def size(self):
        return self.n_tiny if self.tiny else self.n

    def setup(self):
        self.table = subject_table(self.seed, self.size())
        analysis(subject_table(self.seed, self.n_warmup), self.width, self.x0)

    def op(self, i):
        return analysis(self.table, self.width, self.x0)

    def datasets(self, i):
        return [dio.build_data(self.table, width=self.width)]


class OrigScale(_Analysis):
    name = "orig_scale"
    n, n_tiny, n_warmup = 1200, 300, 200

    def check(self, i, res):
        bad = _variance_failures(res)
        pfit, ofit = res["pfit"], res["ofit"]
        # criterion 1: without ties the two estimators coincide and both
        # tie-aware model-based variances are the inverse Hessian
        if not _near(ofit.beta, pfit.gamma, 1e-6):
            bad.append("fit_beta differs from fit_gamma on untied data")
        binv = np.linalg.inv(pfit.hessian)
        if not _near(res["pvar"]["mb2"].matrix, binv, 1e-6):
            bad.append("prob mb2 is not the inverse Hessian")
        if not _near(res["ovar"]["mb2"].matrix, binv, 1e-5):
            bad.append("odds mb2 is not the inverse Hessian")
        t = self.table
        s = oracles.breslow_score(t.time, t.status, t.covariates, pfit.gamma)
        if np.max(np.abs(s)) / t.time.size > 10 * TOL:
            bad.append(f"Breslow oracle score {np.max(np.abs(s)) / t.time.size:.2e} "
                       "at gamma")
        return bad


class BinnedLarge(_Analysis):
    name = "binned_large"
    n, n_tiny, n_warmup = 30_000, 3000, 3000
    width = 0.02

    def setup(self):
        super().setup()
        t = self.table
        self.y, self.delta, self.J = oracles.discretize_width(t.time, t.status,
                                                              self.width)

    def check(self, i, res):
        bad = _variance_failures(res)
        data = res["data"]
        if not (np.array_equal(data.y, self.y)
                and np.array_equal(data.delta, self.delta)):
            bad.append("discretized intervals differ from the oracle's")
            return bad
        X = self.table.covariates
        for label, score, coef in (
                ("prob", oracles.prob_score, res["pfit"].gamma),
                ("odds", oracles.odds_score, res["ofit"].beta)):
            s = np.max(np.abs(score(self.y, self.delta, X, coef))) / data.n
            if s > 10 * TOL:
                bad.append(f"oracle {label} score {s:.2e} at the fitted coefficients")
        surv = res["ocurve"].survival
        if not (np.all(surv > 0) and np.all(surv <= 1) and np.all(np.diff(surv) <= 0)):
            bad.append("odds_curve survival is not non-increasing in (0, 1]")
        return bad

    def finish(self):
        # closed forms on the oracle's 2x2 tables against the regression
        # fits on the treatment-only design
        t = self.table
        n11, n12, n21, n22 = oracles.two_by_two(self.y, self.delta,
                                                t.covariates[:, 0], self.J)
        tables = dsurv.StratifiedTables(n11=n11, n12=n12, n21=n21, n22=n22)
        treat_only = dio.SubjectTable(t.ids, t.time, t.status,
                                      t.covariates[:, :1], ["treat"])
        data = dio.build_data(treat_only, width=self.width)
        bad = []
        for label, closed, fit in (
                ("bp", dsurv.bp_two_sample(tables).estimate,
                 dsurv.fit_gamma(data).gamma[0]),
                ("wmh", dsurv.wmh_two_sample(tables).estimate,
                 dsurv.fit_beta(data).beta[0])):
            if abs(closed - fit) > 1e-6:
                bad.append(f"{label}_two_sample {closed:.9f} differs from the "
                           f"treatment-only fit {fit:.9f}")
        return bad


# ---------------------------------------------------------------------------
# veteran_cli
# ---------------------------------------------------------------------------

# published veterans estimates (criterion 8) on the reporting scale, as
# (bp point, old se, bp mb2 se, bp robust se, wmh point, wmh mb2 se,
#  wmh robust se, plogit point, plogit mb se, plogit robust se)
_VA = {
    "treat":  (.379, .245, .243, .221, .383, .247, .224, .392, .248, .227),
    "treat2": (-.493, .516, .515, .481, -.494, .515, .482, -.511, .524, .496),
    "treat3": (.472, .645, .645, .622, .475, .644, .622, .437, .670, .662),
    "age":    (-.813, .931, .927, 1.029, -.838, .930, 1.035, -.804, .954, 1.082),
    "Karn":   (-.320, .056, .056, .053, -.323, .056, .054, -.334, .058, .057),
    "diagt":  (-.064, .918, .897, .790, -.038, .947, .800, -.080, .945, .833),
    "cell2":  (.830, .283, .282, .306, .830, .284, .310, .865, .288, .321),
    "cell3":  (1.152, .313, .311, .273, 1.167, .315, .277, 1.196, .319, .284),
    "cell4":  (.372, .292, .291, .247, .376, .292, .248, .385, .297, .258),
    "prior":  (.083, .232, .231, .217, .087, .234, .220, .082, .238, .226),
}
_VA_SCALE = {"age": 100, "Karn": 10, "diagt": 100}
_VA_COLUMNS = {
    "prob": {"estimate": 0, "se_old": 1, "se_mb2": 2, "se_robust": 3},
    "odds": {"estimate": 4, "se_mb2": 5, "se_robust": 6},
    "plogit": {"estimate": 7, "se_mb": 8, "se_robust": 9},
}
# the 20-day grid (criterion 8): treat only
_VA20 = {"prob": {"estimate": .307, "se_old": .241, "se_mb2": .204},
         "odds": {"estimate": .420}}
_VARIANCE_FLAG = {"prob": "old,mb2", "odds": "mb2,mb3", "plogit": "mb"}
_X0 = "1,60,60,5,0,0,0,0,0,0"  # treat, age, Karn, diagt, cells, prior, steps
_TDC = "treat:100,200"


class VeteranCli(Workload):
    name = "veteran_cli"
    round_size = 6

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.csv = ROOT / "data" / "veteran.csv"
        self.out = ROOT / "perfbench" / "out" / f"cli-{os.getpid()}"
        # (model, width): the original scale and the 20-day grid
        self.specs = [(m, w) for w in (None, 20.0) for m in ("prob", "odds", "plogit")]
        self.out.mkdir(parents=True, exist_ok=True)
        self.sink = open(os.devnull, "w")

    def params(self):
        return {"data": "data/veteran.csv", "tdc": _TDC, "x0": _X0,
                "invocations": [{"model": m, "width": w, "variance": _VARIANCE_FLAG[m],
                                 "curve": m != "plogit"} for m, w in self.specs],
                "note": "the CSV is fixed; the seed does not change the inputs"}

    def setup(self):
        self.argvs = []
        for k, (model, width) in enumerate(self.specs):
            argv = ["fit", "--model", model, "--data", str(self.csv),
                    "--tdc", _TDC, "--variance", _VARIANCE_FLAG[model],
                    "--json", str(self.out / f"fit{k}.json")]
            if width is not None:
                argv += ["--width", str(width)]
            if model != "plogit":
                argv += ["--curve", str(self.out / f"curve{k}.csv"), "--x0", _X0]
            self.argvs.append(argv)
        for k in range(self.round_size):
            self.op(k)
        for path in self.out.iterdir():  # see check(): no file is rewritten
            path.unlink()

    def op(self, i):
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            return dcli.main(self.argvs[i % self.round_size])

    def check(self, i, code):
        k = i % self.round_size
        model, width = self.specs[k]
        if code != 0:
            return [f"invocation {k} exited with {code}"]
        bad = []
        json_path, curve_path = self.out / f"fit{k}.json", self.out / f"curve{k}.csv"
        text = json_path.read_text()
        # removed once read, so that the next invocation creates its files:
        # ext4 flushes a truncated-and-rewritten file to disk, which would
        # time the disk rather than the program
        json_path.unlink()
        report = json.loads(text)
        if dio.dump_json(report) + "\n" != text:
            bad.append(f"invocation {k}: re-emitted JSON differs from its bytes")
        rows = {r["name"]: r for r in report["coefficients"]}
        if width is None:
            expect = {(term, key): _VA[term][col]
                      for term in _VA for key, col in _VA_COLUMNS[model].items()}
        else:
            expect = {("treat", key): v for key, v in _VA20.get(model, {}).items()}
        for (term, key), ref in expect.items():
            got = rows[term][key] * _VA_SCALE.get(term, 1)
            if abs(got - ref) > 1e-3 + 1e-12:
                bad.append(f"invocation {k}: {term} {key} {got:.4f} != {ref}")
        if model != "plogit":
            lines = curve_path.read_text().splitlines()
            curve_path.unlink()
            if len(lines) != report["n_intervals"] + 1:
                bad.append(f"invocation {k}: curve has {len(lines) - 1} rows")
        return bad

    def datasets(self, i):
        _, width = self.specs[i % self.round_size]
        data = dio.build_data(dio.read_subject_csv(str(self.csv)), width=width)
        return [dsurv.expand_step_terms(data, data.covariate_names.index("treat"),
                                        [100.0, 200.0])]

    def close(self):
        self.sink.close()
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SimFine, OrigScale, BinnedLarge, VeteranCli)}
