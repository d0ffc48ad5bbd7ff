"""cmlab benchmark: the acceptance gate's four hot paths in three workloads.

    python3 perfbench/run.py --workload march --seed 21057 --seconds 30 --trace 0

Workloads (each one closed-loop client in one worker process; an
iteration runs the workload's operations once, and the next iteration
starts when the previous one returns):

  march      criterion 1, the h-sweep: 400 large-batch score calls in the
             exponential-integrator march (score arithmetic).
  measure    criterion 3, the eps-cm sweep: ~20k small-batch score calls
             from measure_cm_error's re-marches (per-call overhead).
  oracle     criterion 5 (RK45 oracle, ULMC, OU, sliced W2), an
             8-component ring sampled by the exact map (the K>1 score
             path), a closed-form probe of the exact map, and criterion 9's
             finite-difference CT/CD gradients (BLAS-threaded feature
             matmuls, so cpu_s exceeds run_s).

An iteration takes seconds (march ~5 s, measure ~10 s, oracle ~19 s). The
host's speed drifts by up to half over minutes, more than any bound a
later change could be held to, so iteration times are given relative to
fixed reference work of the same kind (yardstick.py: ~0.3 s of numpy, no
cmlab) timed before and after every iteration.

--trace 0 prints the end-to-end metrics: run_rel and cpu_rel (median over
the run's iterations of an iteration's wall and CPU time divided by the
mean wall time of the reference work timed before and after it; the
seconds behind them are printed above the result line and kept in
.perfbench_runs/runs.jsonl), setup_s (median over fresh processes of
process start to READY: imports plus input construction; SETUP_PROBES
set-up-only processes run before the measuring worker and as many after
it, so the samples span the run) and peak_rss_mb (peak resident memory
of the worker at the end of its first iteration: oracle's peak grows with
every further iteration in one process, 264, 399 and 482 MB after the
first three, so a later reading would depend on how many iterations fit
in the run). --trace 1 runs one untraced warm-up iteration, then
alternates untraced and traced ones, and prints the per-layer metrics of
the traced ones with the tracing overhead. Metric names and units come
from BENCHMARK.json. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

Checks: an op fails if it raises, gives a non-finite result, misses its
pinned tolerance, or its output sha256 differs from another iteration of
the run or from an earlier run of the same seed on the same src/ tree
(kept in .perfbench_runs/hashes.json); a non-finite result raises.
`correct` is false when an op raised, missed an exact (non-statistical)
tolerance, missed any tolerance at the pinned seed, or broke
determinism. A statistical tolerance missed at a seed other than the
pinned one counts in `failed` but leaves `correct` true: the program
computed what it claims, and the miss is a finding about the criterion's
power at that seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SPEC_PATH = ROOT / "BENCHMARK.json"   # workloads and metric names, units
DEFAULT_SEED = 21057          # cmlab.acceptance.DEFAULT_SEED
SETUP_PROBES = 1              # set-up-only processes before and after
DEADLINE_S = 170.0            # whole run, set-up included
MAX_BLAS_THREADS = 2

def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _kill_at(proc: subprocess.Popen, remaining: float) -> threading.Timer:
    """Kill `proc` unless the returned timer is cancelled in time."""
    timer = threading.Timer(max(remaining, 0.0), proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _spawn(argv: list[str], env: dict, deadline: float
           ) -> tuple[float, subprocess.Popen, threading.Timer]:
    """Start a worker and return seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    guard = _kill_at(proc, deadline - time.perf_counter())
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        guard.cancel()
        proc.kill()
        proc.wait()
        _fail(f"worker did not become ready (exit {proc.returncode})")
    return ready, proc, guard


def _hash_store_check(key_prefix: str, digests: dict[str, str]) -> set[str]:
    """Compare this run's op digests with earlier runs of the same seed on
    the same src/ tree; record new ones. Returns the ops that differ."""
    RUNS.mkdir(exist_ok=True)
    path = RUNS / "hashes.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    bad = set()
    for op, digest in digests.items():
        key = f"{key_prefix}/{op}"
        if store.setdefault(key, digest) != digest:
            bad.add(op)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=0, sort_keys=True))
    os.replace(tmp, path)
    return bad


def _judge(iterations: list[dict], stored_bad: set[str], seed: int
           ) -> tuple[bool, int, int, dict]:
    """Count attempted/failed ops and decide `correct`. A statistical
    tolerance may miss without making the run incorrect only off the
    pinned seed, where the criteria were not tuned."""
    lenient = seed != DEFAULT_SEED
    first = {}
    attempted = failed = 0
    correct = True
    for it in iterations:
        for name, r in it["ops"].items():
            attempted += 1
            if not r["ok"]:
                failed += 1
                correct = False
                print(f"op {name} raised:\n{r['error']}", file=sys.stderr)
                continue
            consistent = (first.setdefault(name, r["digest"]) == r["digest"]
                          and name not in stored_bad)
            if not (consistent and r["passed"]):
                failed += 1
                print(f"op {name} failed: value {r['value']!r} target "
                      f"{r['target']} tol {r['tol']} consistent "
                      f"{consistent}", file=sys.stderr)
            if not (consistent
                    and (r["passed"] or (r["statistical"] and lenient))):
                correct = False
    return correct, attempted, failed, first


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _per_layer(names: list[str], iterations: list[dict], attempted: int,
               failed: int) -> dict:
    """Per-layer figures of the traced iterations, and the tracing overhead
    as the median difference within (untraced, traced) pairs of adjacent
    iterations, so that slow drift of the host cancels."""
    timed = [it for it in iterations if not it["warmup"]]
    traced = [it for it in timed if it["traced"]]
    out = {}
    for metric in names:
        layer, quantity = metric.rsplit(".", 1)
        if layer in ("trace", "checks"):
            continue
        vals = []
        for it in traced:
            s = it["stats"][layer]
            if quantity == "points_per_s":
                v = s.get("points", 0) / s["self_s"] if s["self_s"] else 0.0
            elif quantity == "accept_ratio":
                tries = (s.get("nfev", 0) - 2 * s["calls"]) / 6.0
                v = s.get("steps", 0) / tries if tries > 0 else 0.0
            else:
                v = s.get(quantity, 0)
            vals.append(v)
        out[metric] = _median(vals)
    out["trace.run_s"] = _median([it["wall_s"] for it in traced])
    out["trace.overhead_s"] = _median(
        [b["wall_s"] - a["wall_s"] for a, b in zip(timed[::2], timed[1::2])])
    results = [r for it in iterations for r in it["ops"].values() if r["ok"]]
    out["checks.margin"] = min((r["margin"] for r in results), default=0.0)
    out["checks.fail_ratio"] = failed / attempted
    out["checks.oracle_err"] = max((it["ops"]["probe"]["value"]
                                    for it in iterations
                                    if it["ops"].get("probe", {}).get("ok")),
                                   default=0.0)
    return out


def main() -> int:
    if not SPEC_PATH.is_file():
        _fail(f"no {SPEC_PATH.name}; run from a checkout of the repo")
    spec = json.loads(SPEC_PATH.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        _fail("--seed must be >= 0")
    if not (SRC / "cmlab" / "__init__.py").is_file():
        _fail(f"no cmlab sources under {SRC}; run from a checkout of the repo")

    deadline = time.perf_counter() + DEADLINE_S
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def probe() -> float:
        ready, proc, guard = _spawn([*common, "--seconds", "0",
                                     "--setup-only"], env, deadline)
        proc.communicate()
        guard.cancel()
        return ready

    setup = [probe() for _ in range(SETUP_PROBES)]

    RUNS.mkdir(exist_ok=True)
    spans = RUNS / f"spans-{args.workload}.json"
    ready, proc, guard = _spawn(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
         *(["--spans", str(spans)] if args.trace else [])], env, deadline)
    setup.append(ready)
    out, _ = proc.communicate()
    guard.cancel()
    if proc.returncode != 0 or not out.strip():
        _fail(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    iterations = result["iterations"]
    setup += [probe() for _ in range(SETUP_PROBES)]

    digests = {name: r["digest"] for it in iterations
               for name, r in it["ops"].items() if r["ok"]}
    stored_bad = _hash_store_check(
        f"{_src_digest()}/{args.workload}/{args.seed}", digests)
    correct, attempted, failed, first = _judge(iterations, stored_bad,
                                               args.seed)

    plain = [it for it in iterations
             if not (it["traced"] or it["warmup"])]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    # the seconds behind run_rel and cpu_rel, for the record and the reader
    seconds = {"run_s": _median([it["wall_s"] for it in plain]),
               "cpu_s": _median([it["cpu_s"] for it in plain]),
               "ref_s": _median([it["ref_s"] for it in plain])}
    if args.trace:
        values = _per_layer(list(units), iterations, attempted, failed)
    else:
        values = {"run_rel": _median([it["wall_s"] / it["ref_s"]
                                      for it in plain]),
                  "cpu_rel": _median([it["cpu_s"] / it["ref_s"]
                                      for it in plain]),
                  "setup_s": _median(setup),
                  "peak_rss_mb": plain[0]["peak_rss_mb"]}
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "iterations": len(iterations), "untraced": len(plain),
              "setup_samples": setup, "blas_threads": threads,
              "env": result["env"], "digests": first,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": values, "seconds_untraced": seconds,
              "samples": [[it["wall_s"], it["cpu_s"], it["ref_s"]]
                          for it in plain],
              "ops": [{n: {k: r.get(k) for k in
                           ("value", "passed", "margin", "statistical")}
                       for n, r in it["ops"].items()} for it in iterations]}
    with open(RUNS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(iterations)} iterations ({len(plain)} untraced), "
          f"{attempted} ops, {failed} failed, blas threads {threads}")
    for m, v in values.items():
        print(f"  {m} = {v:.6g} {units[m]}")
    print("  untraced iteration medians: " + ", ".join(
        f"{m} = {v:.6g} s" for m, v in seconds.items()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
