"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces every binding of a traced function in the
loaded `cmlab` modules (a function imported with `from .x import f` is
bound once per importing module, and each binding is looked up at call
time) with a wrapper that records a span and the call's work counts.
Leaving the context restores the original bindings, so traced and
untraced iterations can alternate in one process.

Spans are kept in memory as (name, start, end, parent index); a
function's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np


def _rows(x) -> int:
    a = np.asarray(x)
    return 1 if a.ndim <= 1 else int(a.shape[0])


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _points_at(pos: int, name: str):
    """Counter of the rows of the batch passed as argument `name`."""
    return lambda args, kwargs, out: {
        "points": _rows(_arg(args, kwargs, pos, name))}


def _sample_counts(args, kwargs, out):
    return {"points": int(_arg(args, kwargs, 1, "n"))}


def _ulmc_counts(args, kwargs, out):
    return {"steps": int(_arg(args, kwargs, 4, "n_steps"))}


def _sliced_counts(args, kwargs, out):
    p = np.asarray(getattr(args[0], "points", args[0]))
    dim = p.shape[1] if p.ndim == 2 else 1
    return {"projections": int(_arg(args, kwargs, 2, "n_proj", 64))
            if dim > 1 else 0}


def _render_counts(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


def _solve_ivp_counts(args, kwargs, out):
    return {"nfev": int(out.nfev), "steps": int(len(out.t) - 1)}


# (home module, qualified name, work counter) for every traced function.
# `solve_ivp` lives in scipy; only its bindings inside cmlab are wrapped.
TRACED = [
    ("cmlab.distributions", "score", _points_at(2, "x")),
    ("cmlab.distributions", "marginal_at", None),
    ("cmlab.distributions", "sample", _sample_counts),
    ("cmlab.rng", "derive_rng", None),
    ("cmlab.flows", "exp_integrator_step", _points_at(1, "x")),
    ("cmlab.flows", "integrate_reference", None),
    ("cmlab.flows", "solve_ivp", _solve_ivp_counts),
    ("cmlab.models", "measure_cm_error", None),
    ("cmlab.samplers", "ulmc_run", _ulmc_counts),
    ("cmlab.samplers", "ou_smooth", None),
    ("cmlab.samplers", "one_step", None),
    ("cmlab.samplers", "multistep", None),
    ("cmlab.metrics", "w2_sliced", _sliced_counts),
    ("cmlab.metrics", "w2_gaussian_fit", None),
    ("cmlab.metrics", "w2_fit_pair", None),
    ("cmlab.objectives", "grad_gap", None),
    ("cmlab.objectives", "ParametricCM.features", _points_at(1, "x")),
    ("cmlab.harness", "h_sweep_one_step", None),
    ("cmlab.harness", "eps_sweep_one_step", None),
    ("cmlab.harness", "stationary_suite", None),
    ("cmlab.harness", "gradcheck_experiment", None),
    ("cmlab.harness", "render_json", _render_counts),
    ("cmlab.schedule", "build_grid", None),
    ("cmlab.acceptance", "run_criterion", None),
]


def layer_name(home: str, qualname: str) -> str:
    """Metric prefix `<module>.<function>`, e.g. `distributions.score`."""
    return f"{home.split('.', 1)[1]}.{qualname}"


class Tracer:
    """Span recorder; one instance per traced iteration."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []   # [span index, start, child seconds]

    def _wrap(self, name: str, fn, counter):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), time.perf_counter(), 0.0]
            self.spans.append((name, frame[1], frame[1], parent))
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = end - frame[1]
                self.spans[frame[0]] = (name, frame[1], end, parent)
                if self._stack:
                    self._stack[-1][2] += span
                stats["calls"] += 1
                stats["self_s"] += span - frame[2]
            if counter is not None:
                for key, val in counter(args, kwargs, out).items():
                    stats[key] = stats.get(key, 0) + val
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding site of each TRACED function for the
        duration of the block, then restore the originals."""
        patched = []   # (owner, attribute, original)
        try:
            for home, qualname, counter in TRACED:
                name = layer_name(home, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(sys.modules[home], cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(name, original, counter))
                    patched.append((owner, attr, original))
                    continue
                original = getattr(sys.modules[home], qualname)
                wrapper = self._wrap(name, original, counter)
                sites = [m for key, m in list(sys.modules.items())
                         if (key == "cmlab" or key.startswith("cmlab."))
                         and getattr(m, qualname, None) is original]
                if not sites:
                    raise RuntimeError(f"no binding site found for {name}")
                for module in sites:
                    setattr(module, qualname, wrapper)
                    patched.append((module, qualname, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def span_records(self) -> list[list]:
        """Spans as [name, start, end, parent], times relative to the
        first span's start."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]

