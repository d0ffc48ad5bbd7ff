"""Benchmark worker: one process that imports cmlab, builds one
workload's inputs from the seed, prints READY, then runs the workload's
operations in a closed loop with one client (the next iteration starts
when the previous one returns) until the time budget is spent: it stops
after the iteration that ends nearest to the budget, and after at least
two untraced ones. The workload's
reference work (yardstick.py) is timed after READY and after every
iteration; an iteration's ref_s is the mean of the timings around it.

With --trace 1 a first untraced iteration warms caches and lazy imports
and is left out of the timings; then untraced and traced iterations
alternate, ending on a traced one, so one run gives both the per-layer
figures and the tracing overhead from adjacent pairs. The result
is one JSON line on stdout. run.py starts this script; it is not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from yardstick import Yardstick  # noqa: E402


def _run_op(op) -> dict:
    try:
        out = op()
    except Exception:  # an op that raises is a failed op, not a crash
        return {"ok": False, "error": traceback.format_exc(limit=3)}
    return {"ok": True, **dataclasses.asdict(out), "margin": out.margin}


def _iteration(ops, tr: tracer.Tracer | None, warmup: bool) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with tr.installed() if tr is not None else contextlib.nullcontext():
        results = {name: _run_op(op) for name, op in ops}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"traced": tr is not None, "warmup": warmup,
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
            "ops": results, "stats": tr.stats if tr is not None else None}


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="file for the traced iterations' spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    warnings.simplefilter("ignore")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    iterations, spans = [], []
    yardstick = Yardstick(workloads.YARDSTICK[args.workload])
    before = yardstick.time_s()
    start = time.perf_counter()
    while True:
        n = len(iterations)
        warmup = args.trace == 1 and n == 0
        traced = args.trace == 1 and n % 2 == 0 and n > 0
        tr = tracer.Tracer() if traced else None
        iterations.append(_iteration(ops, tr, warmup))
        after = yardstick.time_s()
        iterations[-1]["ref_s"] = (before + after) / 2
        before = after
        if tr is not None:
            spans.append(tr.span_records())
        # stop where the run ends nearest to --seconds (another iteration
        # would overshoot by more than this one falls short), but not
        # before two untraced iterations: oracle's first one is ~15% slower
        # than later ones, and a run timing only that one would stand out
        typical = statistics.median(it["wall_s"] for it in iterations)
        left = args.seconds - (time.perf_counter() - start)
        enough = traced if args.trace else n >= 1
        if enough and left <= typical / 2:
            break

    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "iterations": spans}, fh, separators=(",", ":"))
    print(json.dumps({
        "iterations": iterations,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "blas": _blas()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
