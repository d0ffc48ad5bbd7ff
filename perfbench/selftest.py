"""Self-test of the benchmark (not collected by pytest; about 3 minutes):

    python3 perfbench/selftest.py

1. run.py's default seed is cmlab's, and its verdict treats a missed
   statistical tolerance as incorrect at the pinned seed and as a
   finding, counted in `failed` only, at any other seed. A slope fit
   the program refuses is a statistical miss with margin 0, not a crash.
2. Tracer coverage: two traced runs per workload at the pinned seed give
   the known call counts, and give them exactly again. A binding site the
   tracer misses shows as a count below the known one.
3. Cross-process determinism: both runs agree on every op's output sha256,
   and at the pinned seed no op fails.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from cmlab import acceptance  # noqa: E402
from cmlab.acceptance import DEFAULT_SEED  # noqa: E402

# per traced iteration at any seed; these do not depend on the seed
KNOWN_COUNTS = {
    "march": {"distributions.score.calls": 400,
              "distributions.score.points": 20_000_000},
    "measure": {"distributions.score.calls": 20_250},
    "oracle": {"flows.solve_ivp.calls": 7, "samplers.ulmc_run.steps": 200},
}


def _run(workload: str, trace: int, cwd: Path = ROOT
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _last_record() -> dict:
    lines = (run.RUNS / "runs.jsonl").read_text().splitlines()
    return json.loads(lines[-1])


def check_verdict() -> None:
    assert run.DEFAULT_SEED == DEFAULT_SEED
    miss = {"ok": True, "digest": "d", "value": 1.6, "target": 1.0,
            "tol": 0.25, "passed": False, "statistical": True}
    iterations = [{"ops": {"criterion_1": miss}}]
    with contextlib.redirect_stderr(io.StringIO()):   # expected misses
        for seed, want in ((DEFAULT_SEED, False), (DEFAULT_SEED + 1, True)):
            correct, attempted, failed, _ = run._judge(iterations, set(),
                                                       seed)
            assert (correct, attempted, failed) == (want, 1, 1), seed
        exact = dict(miss, statistical=False)
        correct, _, _, _ = run._judge([{"ops": {"probe": exact}}], set(),
                                      DEFAULT_SEED + 1)
    assert not correct, "an exact tolerance miss must be incorrect"

    refused = acceptance.CriterionResult(
        1, "discretization rate in h", False,
        {"error": "nonpositive excess values, cannot fit",
         "xs": [0.2, 0.1], "ys": [0.01, -0.002]})
    real = workloads.acceptance.run_criterion
    workloads.acceptance.run_criterion = lambda number, seed: refused
    try:
        out = workloads._criterion(1, DEFAULT_SEED)()
    finally:
        workloads.acceptance.run_criterion = real
    assert not out.passed and out.statistical and out.margin == 0.0, out


def check_traced(workload: str) -> None:
    results, records = [], []
    for _ in range(2):
        proc = _run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        records.append(_last_record())
    for res in results:
        assert res["correct"] and res["failed"] == 0, res
        for name, known in KNOWN_COUNTS.get(workload, {}).items():
            got = res["metrics"][name]["value"]
            assert got == known, f"{workload} {name}: {got} != {known}"
    counts = [{m: v["value"] for m, v in r["metrics"].items()
               if v["unit"] == "count"} for r in results]
    assert counts[0] == counts[1], f"{workload}: counts differ between runs"
    assert records[0]["digests"] == records[1]["digests"], \
        f"{workload}: outputs differ between processes"


def check_bare_directory() -> None:
    bare = run.RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("march", 0, cwd=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{")
                       for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare)


def main() -> int:
    start = time.perf_counter()
    check_verdict()
    print("verdict ok", flush=True)
    spec = json.loads(run.SPEC_PATH.read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_traced(workload)
        print(f"{workload}: counts and digests repeat", flush=True)
    check_bare_directory()
    print(f"bare directory rejected; all checks passed in "
          f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
