"""Spans around calls into dsurv's public functions, recorded from outside.

Nothing under ``src/`` knows about tracing.  :func:`patched` swaps every
target function for a wrapper while a ``with`` block runs: in its home
module, in every dsurv module that imported it by name, and in
module-level dispatch tables (such as the CLI's variance table), so a
call made from inside the library shows up as a child span of its
caller.  The originals are put back on exit.

Two recorders share that mechanism:

* :class:`Tracer` keeps one span per call (name, start, end, parent,
  operation) in memory; self time is a span's duration minus the time
  its child spans cover.
* :class:`AllocPeaks` reads ``tracemalloc`` around each call and keeps
  the largest peak of memory allocated during the call, nested calls
  included.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import tracemalloc

# (module, attribute path) of every function the traced run wraps; the
# span name is "<module>.<last attribute>".
TARGETS = [
    ("io", "read_subject_csv"), ("io", "build_data"), ("io", "dump_json"),
    ("io", "write_curve_csv"),
    ("data", "discretize"), ("data", "expand_step_terms"),
    ("data", "DiscreteSurvivalData.recentered"),
    ("prob", "fit_gamma"), ("prob", "var_oldstyle"), ("prob", "var_model_based"),
    ("prob", "var_model_based2"), ("prob", "var_robust"),
    ("prob", "influence_prob"),
    ("odds", "fit_beta"), ("odds", "var_model_based2_odds"),
    ("odds", "var_model_based3_odds"), ("odds", "var_robust_odds"),
    ("odds", "influence_odds"),
    ("plogit", "fit_plogit"), ("plogit", "plogit_variances"),
    ("survcurve", "prob_curve"), ("survcurve", "odds_curve"),
    ("sim", "generate"), ("sim", "replicate"),
    ("cli", "main"),
]
SPAN_NAMES = [f"{mod}.{path.split('.')[-1]}" for mod, path in TARGETS]

# functions whose peak allocation the tracemalloc pass reports
ALLOC_TARGETS = ["prob.fit_gamma", "odds.fit_beta", "plogit.fit_plogit",
                 "plogit.plogit_variances"]

# counts read off a wrapped call's return value
_RESULT_COUNTS = {
    "prob.fit_gamma": ("iters", lambda r: r.iterations),
    "odds.fit_beta": ("iters", lambda r: r.iterations),
    "plogit.fit_plogit": ("iters", lambda r: r.iterations),
    "sim.replicate": ("fits_failed", lambda r: sum(r.n_failed.values())),
}


def _resolve(mod, path):
    obj = importlib.import_module(f"dsurv.{mod}")
    *owners, name = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, name


@contextlib.contextmanager
def patched(make_wrapper, names=None):
    """Replace each target with ``make_wrapper(span_name, original)``.

    ``names`` restricts the targets to those span names.
    """
    undo = []  # (module, class or table, key, original value)
    try:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dsurv" or n.startswith("dsurv.")]
        for (mod, path), span in zip(TARGETS, SPAN_NAMES):
            if names is not None and span not in names:
                continue
            owner, attr = _resolve(mod, path)
            original = getattr(owner, attr)
            wrapper = make_wrapper(span, original)
            if isinstance(owner, type):  # a method: patch the class only
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, wrapper)
                    elif isinstance(value, dict) and key != "__builtins__":
                        _swap_in_table(value, original, wrapper, undo)
        yield
    finally:
        for container, key, original in reversed(undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)


def _swap_in_table(table, original, wrapper, undo):
    """Patch a module-level dispatch table, nested tables included."""
    for key, value in list(table.items()):
        if value is original:
            undo.append((table, key, original))
            table[key] = wrapper
        elif isinstance(value, dict):
            _swap_in_table(value, original, wrapper, undo)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent index, operation index, count]``;
    operations are root spans named ``"op"`` opened with :meth:`operation`.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:  # outside an operation, e.g. in a check
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter[1](result)
            return result
        return traced

    @contextlib.contextmanager
    def operation(self, index):
        self._op = index
        rec = ["op", 0.0, 0.0, -1, index, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def self_times(self):
        """Self time of every span, in span order."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, counted_ops):
        """Per-operation means of self time, calls and result counts.

        Self times average over every traced operation; calls and counts
        are taken over the operations in ``counted_ops`` only, a fixed,
        seed-determined set, so they are exact.
        """
        own = self.self_times()
        ops = [s for s in self.spans if s[0] == "op"]
        n_ops = len(ops)
        counted = set(counted_ops)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for name, (key, _) in _RESULT_COUNTS.items():
            out[f"{name}.{key}"] = 0
        out["odds.fit_beta.gamma_refits"] = 0
        for s, t in zip(self.spans, own):
            if s[0] == "op":
                continue
            out[f"{s[0]}.self_s"] += t
            if s[4] in counted:
                out[f"{s[0]}.calls"] += 1
                if s[5] is not None:
                    out[f"{s[0]}.{_RESULT_COUNTS[s[0]][0]}"] += s[5]
                if (s[0] == "prob.fit_gamma" and s[3] >= 0
                        and self.spans[s[3]][0] == "odds.fit_beta"):
                    out["odds.fit_beta.gamma_refits"] += 1
        for key in out:
            out[key] /= n_ops if key.endswith(".self_s") else len(counted)
        op_wall = [s[2] - s[1] for s in ops]
        glue = sum(t for s, t in zip(self.spans, own) if s[0] == "op")
        return out, op_wall, glue

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh)


class AllocPeaks:
    """Largest ``tracemalloc`` peak of memory allocated during each call.

    Nested calls reset the interpreter's peak, so each open call keeps
    its own running peak and folds its children's peaks into it.
    """

    def __init__(self):
        self.peaks = {}
        self._stack = []

    def wrapper(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            frame = [current, current]
            stack.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                stack.pop()
                if stack:
                    stack[-1][1] = max(stack[-1][1], frame[1])
                tracemalloc.reset_peak()
                self.peaks[name] = max(self.peaks.get(name, 0),
                                       frame[1] - frame[0])
        return measured
