"""Acceptance gate: one pass/fail line per criterion, all at the pinned
default seed.  The full measured report is computed once per session and
shared across the parametrized tests.

Criterion 10 checks the Langevin corrector against theory: over unit
total time at friction 1 the exact dynamics contract the fitted
total-variation distance by a closed-form ratio (about 0.66; no friction
gets below 0.54), and the measured ratio must match it within three
standard errors of the estimate.  The check is also shown to reject
corrector runs at the wrong friction and a run that does nothing.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.stats import norm

from cmlab import acceptance
from cmlab.acceptance import (DEFAULT_SEED, CriterionResult, _fitted_tv_se,
                              run_all, ulmc_tv_check)
from cmlab.harness import ulmc_correction_experiment

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"

CRITERIA = {
    1: "one-step W2 excess scales linearly in step size h",
    2: "one-step W2 excess scales linearly in measured score error",
    3: "one-step W2 excess scales linearly in measured consistency error",
    4: "multistep error contracts to a plateau no worse than one-step",
    5: "stationary data: every sampler within 3x the sampling noise floor",
    6: "smoothed total variation obeys the W1/sqrt(e^{2 tau}-1) bound",
    7: "score Hessian norm obeys the bounded-support bound",
    8: "recovered score error within 1.1x the measured error budget",
    9: "CT/CD gradient gap shrinks second order in grid spacing",
    10: "unit-time corrector run matches the closed-form TV contraction",
    11: "repeated runs at the pinned seed emit identical bytes",
}


@pytest.fixture(scope="session")
def report():
    return run_all(DEFAULT_SEED)


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(report, number):
    entry = next(c for c in report["criteria"] if c["number"] == number)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"criterion {number:2d} [{status}] {CRITERIA[number]}")
    assert entry["passed"], (
        f"criterion {number} failed: {CRITERIA[number]}; "
        f"details: {entry['details']}")


@pytest.mark.parametrize("number", [1, 3, 5, 9])
def test_benchmark_reads_its_criterion_fields(report, monkeypatch, number):
    # the benchmark's criterion ops read the fit slope (or the worst
    # ratio), target and tol from the details and refuse a non-finite
    # detail; a renamed key would otherwise show only as failed ops there
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    entry = next(c for c in report["criteria"] if c["number"] == number)
    monkeypatch.setattr(acceptance, "run_criterion",
                        lambda n, seed: CriterionResult(**entry))
    outcome = workloads._criterion(number, DEFAULT_SEED)()
    assert outcome.passed
    assert all(map(math.isfinite, (outcome.value, outcome.target,
                                   outcome.tol)))


def test_report_is_complete(report):
    assert sorted(c["number"] for c in report["criteria"]) == sorted(CRITERIA)
    assert report["seed"] == DEFAULT_SEED


def test_criterion_10_reports_its_closed_form(report):
    details = next(c for c in report["criteria"]
                   if c["number"] == 10)["details"]
    assert details["closed_form_ratio"] == pytest.approx(0.6611, abs=1e-4)
    assert details["lower_bound_over_friction"] == pytest.approx(np.cos(1.0))
    gap = abs(details["ratio"] - details["closed_form_ratio"])
    assert details["margin"] == pytest.approx(details["tol"] - gap)


@pytest.mark.parametrize("run", [{"gamma": 0.5}, {"gamma": 2.0},
                                 {"n_steps": 0}])
def test_criterion_10_check_rejects_wrong_corrector(run):
    res = ulmc_correction_experiment(seed=DEFAULT_SEED, **run)
    ok, check = ulmc_tv_check(res["ratio"], res["shift"], 1.0, 1.0,
                              res["n"])
    assert not ok, f"{run}: ratio {res['ratio']:.4f} accepted; {check}"
    assert check["margin"] < 0


def test_fitted_tv_se_matches_scipy_normal_density_bit_for_bit():
    # criterion 10's tolerance once took phi from scipy.stats.norm.pdf; the
    # numpy density replaced it without moving a bit of the report
    rng = np.random.default_rng(20240817)
    ms = np.concatenate([rng.uniform(-4.0, 4.0, 5000),
                         rng.normal(0.0, 0.5, 5000), [0.0, 0.3, 1e-300]])
    for m in ms.tolist():
        expect = float(norm.pdf(m / 2.0) * np.sqrt((1.0 + m * m / 8.0) / 7))
        assert _fitted_tv_se(m, 7) == expect, m
