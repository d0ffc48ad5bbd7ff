"""Record the benchmark's baseline in perfbench/baseline.json:

    python3 perfbench/baseline.py [--runs 10]

For each workload it makes --runs untraced runs, seeds 1..runs, and one
traced run at the pinned seed. It records per end-to-end metric the
median, the quartiles and their distance as a share of the median (the
spread, to be kept below a third of the metric's bound), the per-layer
figures and tracing overhead of the traced run, the same summary of
the untraced seconds behind run_rel and cpu_rel (without a bound), which
checks passed at each seed, the output sha256 of each op at the pinned
seed, and the software environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from cmlab.acceptance import DEFAULT_SEED  # noqa: E402


def _bench(spec: dict, workload: str, seed: int, trace: int
           ) -> tuple[dict, dict]:
    """One benchmark run: its printed result and its runs.jsonl record."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((run.RUNS / "runs.jsonl").read_text()
                        .splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct "
          f"{result['correct']} failed {result['failed']}", flush=True)
    return result, record


def _summary(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values,
            "steady": None if bound is None else spread < bound / 3}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"seed": DEFAULT_SEED, "run_seconds": spec["run_seconds"],
           "workloads": {}}
    env = None
    for w in (x["name"] for x in spec["workloads"]):
        seeds = list(range(1, args.runs + 1))
        runs = [_bench(spec, w, s, 0) for s in seeds]
        traced, rec = _bench(spec, w, DEFAULT_SEED, 1)
        env = env or {**rec["env"], "blas_threads": rec["blas_threads"]}
        layer = {m: v["value"] for m, v in traced["metrics"].items()}
        out["workloads"][w] = {
            "end_to_end": {m: _summary([r["metrics"][m]["value"]
                                        for r, _ in runs], bounds[m])
                           for m in bounds},
            "seconds": {m: _summary([rec["seconds_untraced"][m]
                                     for _, rec in runs], None)
                        for m in runs[0][1]["seconds_untraced"]},
            "checks_by_seed": {
                str(s): {"correct": r["correct"], "failed": r["failed"],
                         "attempted": r["attempted"],
                         "missed": sorted({n for it in rec["ops"]
                                           for n, o in it.items()
                                           if not o["passed"]})}
                for s, (r, rec) in zip(seeds, runs)},
            "pinned_seed": {"correct": traced["correct"],
                            "failed": traced["failed"],
                            "digests": rec["digests"]},
            "per_layer": layer,
            "trace_overhead_s": layer["trace.overhead_s"],
        }
    out["environment"] = {**env, "nproc": os.cpu_count(),
                          "machine": platform.machine(),
                          "src_lines": _src_lines()}
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
