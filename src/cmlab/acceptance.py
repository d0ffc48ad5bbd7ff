"""The acceptance suite: eleven pinned property/rate checks, each
returning a pass/fail record with the measured numbers, plus a
deterministic combined report.

Tolerances are part of the contract and are pinned here:
  1. one-step discretization rate: slope(log W2-excess vs log h) = 1.0 +- 0.25
  2. score-error rate: slope vs measured eps_sc = 1.0 +- 0.25
  3. consistency-error rate: slope vs measured eps_cm = 1.0 +- 0.25
  4. multistep contraction: pre-plateau ratios <= 0.75, plateau <= one-step
     error, plateau within 8 rounds
  5. stationary exactness: every sampler within 3x the sliced-W2 noise floor
  6. smoothing TV bound: zero analytic violations
  7. score-Hessian bound: zero violations at sampled points
  8. score recovery: L2 error <= 1.1 x combined error budget
  9. CT/CD gradient gap: slope = 2.0 +- 0.3
 10. Langevin correction: TV ratio at friction 1, total time 1 within 3
     standard errors of the exact dynamics' closed-form ratio
 11. determinism: identical report bytes for identical seeds
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import (fit_loglog, gradcheck_experiment, h_sweep_one_step,
                      hessian_bound_check, eps_sweep_one_step,
                      multistep_contraction, ou_tv_bound_check, render_json,
                      score_recovery_experiment, stationary_suite,
                      ulmc_correction_closed_form,
                      ulmc_correction_experiment)
from .samplers import ulmc_mean_contraction

import numpy as np

DEFAULT_SEED = 20240 + 817


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"number": self.number, "name": self.name,
                "passed": self.passed, "details": self.details}


def _slope_check(xs, ys, target: float, tol: float) -> tuple[bool, dict]:
    if any(y <= 0 for y in ys):
        return False, {"error": "nonpositive excess values, cannot fit",
                       "xs": list(xs), "ys": list(ys)}
    fit = fit_loglog(xs, ys)
    ok = abs(fit["slope"] - target) <= tol
    return ok, {"fit": fit, "target": target, "tol": tol,
                "xs": list(xs), "ys": list(ys)}


def criterion_1(seed: int) -> CriterionResult:
    """One-step error is first order in the uniform step size h."""
    res = h_sweep_one_step(seed=seed)
    xs = [r["h"] for r in res["rows"]]
    ys = [r["w2_excess"] for r in res["rows"]]
    ok, details = _slope_check(xs, ys, 1.0, 0.25)
    details["floor"] = res["floor"]
    return CriterionResult(1, "discretization rate in h", ok, details)


def criterion_2(seed: int) -> CriterionResult:
    """One-step error grows linearly in the measured score error."""
    res = eps_sweep_one_step(inject="sc", seed=seed)
    xs = [r["eps_hat"] for r in res["rows"]]
    ys = [r["w2_excess"] for r in res["rows"]]
    ok, details = _slope_check(xs, ys, 1.0, 0.25)
    details["baseline_w2"] = res["baseline_w2"]
    return CriterionResult(2, "score-error rate", ok, details)


def criterion_3(seed: int) -> CriterionResult:
    """One-step error grows linearly in the measured consistency error."""
    res = eps_sweep_one_step(inject="cm", seed=seed)
    xs = [r["eps_hat"] for r in res["rows"]]
    ys = [r["w2_excess"] for r in res["rows"]]
    ok, details = _slope_check(xs, ys, 1.0, 0.25)
    details["baseline_w2"] = res["baseline_w2"]
    return CriterionResult(3, "consistency-error rate", ok, details)


def criterion_4(seed: int) -> CriterionResult:
    """Multistep sampling contracts geometrically, then plateaus at or
    below the one-step error within eight rounds."""
    res = multistep_contraction(seed=seed)
    details = dict(res)
    ok = (res["plateau_k"] is not None and res["plateau_k"] <= 8
          and res["plateau_w2"] is not None
          and res["plateau_w2"] <= res["one_step_w2"])
    return CriterionResult(4, "multistep contraction", ok, details)


def criterion_5(seed: int) -> CriterionResult:
    """Every sampler is exact on stationary data up to estimator noise."""
    res = stationary_suite(seed=seed)
    worst = max(r["ratio_to_floor"] for r in res["rows"])
    ok = worst <= 3.0
    details = dict(res)
    details["worst_ratio"] = worst
    details["tol"] = 3.0
    return CriterionResult(5, "stationary exactness", ok, details)


def criterion_6(seed: int) -> CriterionResult:
    """OU smoothing converts W1 closeness into TV closeness."""
    res = ou_tv_bound_check()
    return CriterionResult(6, "smoothing TV bound",
                          res["violations"] == 0, res)


def criterion_7(seed: int) -> CriterionResult:
    """Score Hessian of a bounded-support mixture obeys the closed-form
    operator-norm bound."""
    res = hessian_bound_check(seed=seed)
    return CriterionResult(7, "score-Hessian bound",
                          res["violations"] == 0, res)


def criterion_8(seed: int) -> CriterionResult:
    """A score model recovered from a consistency map meets the combined
    error budget."""
    res = score_recovery_experiment(seed=seed)
    ok = res["l2_error"] <= 1.1 * res["budget"]
    details = dict(res)
    details["tol_factor"] = 1.1
    return CriterionResult(8, "score recovery", ok, details)


def criterion_9(seed: int) -> CriterionResult:
    """CT and CD parameter gradients agree to second order in the grid
    spacing."""
    res = gradcheck_experiment(seed=seed)
    slope = res["fit"]["slope"]
    ok = abs(slope - 2.0) <= 0.3
    details = dict(res)
    details["target"] = 2.0
    details["tol"] = 0.3
    return CriterionResult(9, "CT/CD gradient equivalence", ok, details)


ULMC_TV_SIGMAS = 3.0
_FRICTION_GRID = np.linspace(0.0, 4.0, 41)


def _fitted_tv_se(m: float, n: int) -> float:
    """Delta-method standard error of TV(N(mu, s^2), N(0, 1)) with mu and
    s fitted to n draws of N(m, 1).  At (m, 1) the TV's gradient in
    (mu, s) is phi(m/2) (1, -m/2), and the fitted mean and sd have
    variances 1/n and 1/(2n).  phi is evaluated on an array, as
    scipy.stats.norm.pdf does, whose bits it then matches: numpy's scalar
    exp can differ from its array exp in the last bit."""
    x = np.asarray(m / 2.0)
    phi = np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)
    return float(phi * np.sqrt((1.0 + m * m / 8.0) / n))


def ulmc_tv_check(ratio: float, shift: float, gamma: float, t: float,
                  n: int) -> tuple[bool, dict]:
    """Compare a measured corrector TV ratio with the closed-form ratio of
    the exact underdamped Langevin dynamics at friction gamma and total
    time t (ulmc_correction_closed_form).

    tol is ULMC_TV_SIGMAS standard errors of the ratio of the two
    fitted-TV estimates at n draws each, taken at the closed-form means.
    Their covariance is left out; it is positive (both are fitted to the
    same particles), so this overstates the standard error.
    lower_bound_over_friction is the least mean contraction at time t over
    frictions 0..4: the TV ratio is at least the mean contraction (TV is
    concave in the mean), so no friction on that range reaches a smaller
    ratio.
    """
    exact = ulmc_correction_closed_form(shift, gamma, t)
    rel_se = np.hypot(_fitted_tv_se(exact["m_after"], n) / exact["tv_after"],
                      _fitted_tv_se(shift, n) / exact["tv_before"])
    tol = float(ULMC_TV_SIGMAS * exact["ratio"] * rel_se)
    gap = abs(ratio - exact["ratio"])
    floor = min(ulmc_mean_contraction(g, t) for g in _FRICTION_GRID)
    return gap <= tol, {
        "closed_form_ratio": exact["ratio"],
        "mean_contraction": ulmc_mean_contraction(gamma, t),
        "lower_bound_over_friction": floor,
        "tol": tol, "tol_sigmas": ULMC_TV_SIGMAS, "margin": tol - gap}


def criterion_10(seed: int) -> CriterionResult:
    """Langevin correction at friction 1 over unit total time contracts
    the fitted TV distance as the exact dynamics do: the measured ratio
    matches the closed form (about 0.66) within its sampling tolerance."""
    res = ulmc_correction_experiment(seed=seed)
    ok, check = ulmc_tv_check(res["ratio"], res["shift"], res["gamma"],
                              res["n_tau"], res["n"])
    details = dict(res)
    details.update(check)
    return CriterionResult(10, "Langevin TV correction", ok, details)


_MEASURED = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 11 is the determinism check: whether two full runs of
    the measured criteria serialize to identical bytes."""
    if number == 11:
        return _two_passes(seed)[-1]
    if not 1 <= number <= 10:
        raise ValueError("criterion number must be in 1..11")
    return _MEASURED[number - 1](seed)


def _report(results: list[CriterionResult]) -> dict:
    return {"criteria": [r.to_dict() for r in results],
            "all_passed": all(r.passed for r in results)}


def _two_passes(seed: int) -> list[CriterionResult]:
    """Criteria 1-10 from the first of two full runs, then criterion 11:
    whether the two runs' reports are identical bytes."""
    first, second = [[fn(seed) for fn in _MEASURED] for _ in range(2)]
    identical = render_json(_report(first)) == render_json(_report(second))
    return first + [CriterionResult(11, "report determinism", identical,
                                    {"identical": identical})]


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run criteria 1-10 twice (the second pass feeds the determinism
    check) and return the combined report dict."""
    return {"seed": seed, **_report(_two_passes(seed))}
