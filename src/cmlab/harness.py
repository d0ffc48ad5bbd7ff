"""Experiment runner tying distributions, models, samplers and metrics
into the scaling-law measurements, plus log-log slope fitting and
deterministic report emission.

A config is a JSON object: its "kind" names one of the cores below and
its other keys are that core's keyword arguments and "seed".
`read_config(path)` reads one from strict JSON, and
`run_experiment(raw, kind, seed)` checks every key before it runs the
core, and returns the report.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections.abc import Sequence
from typing import Literal, Optional, Union, get_args, get_origin

import numpy as np

from .distributions import (MixtureParams, SampleBatch,
                            hessian_bound_bounded_support, marginal_at,
                            sample, score, score_hessian)
from .metrics import (fit_gaussian, tv_gaussian_1d, w2_fit_pair,
                      w2_gaussian_fit, w2_sliced_many)
from .models import (discretized_cm, empirical_cm, estimate_lipschitz,
                     exact_cm, exact_score_model, measure_cm_error,
                     measure_score_error, memoized_cm, perturb_cm,
                     perturb_score, recover_score)
from .objectives import ParametricCM, grad_gap
from .rng import derive_rng, derive_seed
from .samplers import (fixed_time_schedule, input_noise, multistep, one_step,
                       ou_smooth, ulmc_mean_contraction, ulmc_run)
from .schedule import TimeGrid, build_grid, uniform_grid


class ConfigError(ValueError):
    """Config validation failure; message carries the offending field path."""


def fit_loglog(xs, ys) -> dict:
    """Least-squares line on (log x, log y): slope, intercept, r_squared
    and n_points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] < 3:
        raise ValueError("need >= 3 points")
    if not (np.all(np.isfinite(xs) & (xs > 0))
            and np.all(np.isfinite(ys) & (ys > 0))):
        raise ValueError("all values must be finite and positive for a "
                         "log-log fit")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": float(np.clip(r2, 0.0, 1.0)),
            "n_points": int(xs.shape[0])}


def _grid_for(delta: float, h: float, T: float) -> TimeGrid:
    """Two-stage grid when the preconditions admit one, uniform otherwise."""
    if delta < h / 2.0:
        return build_grid(delta, h, T)
    return uniform_grid(delta, h, T)


# The data of criteria 1-4 and every config's default distribution.
_GAUSS_4I = MixtureParams.gaussian(np.zeros(2), 4.0 * np.ones(2))


# ---------------------------------------------------------------------------
# experiment cores; their defaults are the acceptance criteria's pinned runs
# ---------------------------------------------------------------------------

def h_sweep_one_step(distribution: MixtureParams = _GAUSS_4I,
                     delta: float = 0.01, T: float = 2.0,
                     h_list: Sequence[float] = (0.2, 0.1, 0.05, 0.025),
                     floor_h: float = 0.0125, n: int = 50_000,
                     seed: int = 0) -> dict:
    """One-step sampling error W2(q_1, p_delta) on fitted Gaussians as a
    function of the uniform-stage step size h, with common random numbers
    across h so the Monte-Carlo component is shared.

    The h-independent floor is measured at floor_h using the uniform-grid
    family: F = 2*err(floor_h) - err(2*floor_h), which cancels the linear
    discretization term of those two runs and leaves the pure limit error.

    Every grid marches one_step's input draw, drawn once, so each batch
    is that grid's one_step batch.  The marches run one after another in
    the calling thread.
    """
    p_delta = marginal_at(distribution, delta)
    xi = input_noise(n, distribution.dim, seed, 1)
    score_model = exact_score_model(distribution)

    def err_at(grid: TimeGrid) -> float:
        cm = discretized_cm(score_model, grid)
        return w2_gaussian_fit(SampleBatch(points=cm(xi, float(T))),
                               p_delta).value

    rows = []
    for h in h_list:
        e = err_at(_grid_for(delta, float(h), T))
        rows.append({"h": float(h), "w2": e})
    e_floor = err_at(uniform_grid(delta, floor_h, T))
    e_floor2 = err_at(uniform_grid(delta, 2.0 * floor_h, T))
    floor = 2.0 * e_floor - e_floor2
    for r in rows:
        r["w2_excess"] = r["w2"] - floor
    return {"rows": rows, "floor": floor, "floor_h": floor_h,
            "w2_at_floor_h": e_floor, "w2_at_2floor_h": e_floor2}


def eps_sweep_one_step(distribution: MixtureParams = _GAUSS_4I,
                       delta: float = 0.01, h: float = 0.025, T: float = 2.0,
                       eps_list: Sequence[float] = (0.2, 0.1, 0.05), *,
                       inject: str, n: int = 50_000, seed: int = 0) -> dict:
    """One-step error as a function of injected score error ("sc") or
    consistency error ("cm").

    The eps = 0 run shares the same input noise (common random numbers),
    and the injection's contribution is isolated as the W2 between the
    perturbed and unperturbed output laws (fitted Gaussians) -- the exact
    term the error decomposition adds on top of the shared floor.  The
    x-axis is the independently measured eps-hat, not the target.
    """
    if inject not in ("sc", "cm"):
        raise ValueError("inject must be 'sc' or 'cm'")
    grid = _grid_for(delta, h, T)
    exact = exact_score_model(distribution)
    p_delta = marginal_at(distribution, delta)
    # every perturbed map of "cm" re-evaluates the base on the same points
    base_cm = memoized_cm(discretized_cm(exact, grid))
    base_batch = one_step(base_cm, T, n, seed)
    base_err = w2_gaussian_fit(base_batch, p_delta).value

    pert_seed = derive_seed(seed, "inject-seed")
    eps_list = [float(eps) for eps in eps_list]
    if inject == "sc":
        sms = [perturb_score(distribution, eps, pert_seed)
               for eps in eps_list]
        cms = [discretized_cm(sm, grid) for sm in sms]
        eps_hats = [measure_score_error(sm, distribution, grid, 400, seed)
                    for sm in sms]
    else:
        cms = [perturb_cm(base_cm, eps, pert_seed) for eps in eps_list]
        eps_hats = measure_cm_error(cms, exact, distribution, grid, 400,
                                    seed)
    rows = []
    for eps, cm, eps_hat in zip(eps_list, cms, eps_hats):
        batch = one_step(cm, T, n, seed)
        err = w2_gaussian_fit(batch, p_delta).value
        excess = w2_fit_pair(batch, base_batch).value
        rows.append({"eps_target": eps, "eps_hat": float(eps_hat),
                     "w2": err, "w2_excess": excess})
    return {"rows": rows, "baseline_w2": base_err, "inject": inject}


def multistep_contraction(distribution: MixtureParams = _GAUSS_4I,
                          delta: float = 0.01, h: float = 0.05,
                          T: float = 2.0, eps_cm: float = 0.05,
                          n_rounds: int = 10, n: int = 50_000,
                          seed: int = 0) -> dict:
    """Multistep sampling on the fixed-time schedule: per-round error,
    per-round ratios, and the detected plateau.

    plateau_k is the first round whose improvement ratio exceeds ratio_cut;
    plateau_w2 is the worst error from that round on.
    """
    ratio_cut = 0.75
    grid = _grid_for(delta, h, T)
    exact = exact_score_model(distribution)
    base_cm = discretized_cm(exact, grid)
    pert_seed = derive_seed(seed, "inject-seed")
    cm = perturb_cm(base_cm, eps_cm, pert_seed) if eps_cm > 0 else base_cm
    lf = estimate_lipschitz(cm, distribution, T, 500,
                            derive_seed(seed, "lf-seed"))
    times = fixed_time_schedule(grid, lf, n_rounds)
    p_delta = marginal_at(distribution, delta)
    batches = multistep(cm, times, n, seed)
    w2s = [w2_gaussian_fit(b, p_delta).value for b in batches]
    ratios = [w2s[k] / w2s[k - 1] for k in range(1, len(w2s))]
    plateau_k = None
    for k, r in enumerate(ratios, start=2):
        if r > ratio_cut:
            plateau_k = k
            break
    plateau_w2 = max(w2s[plateau_k - 1:]) if plateau_k is not None else None
    return {
        "rows": [{"k": k + 1, "w2": w2s[k],
                  "ratio": ratios[k - 1] if k >= 1 else None}
                 for k in range(len(w2s))],
        "t_hat": float(times[-1]) if times.shape[0] > 1 else None,
        "lipschitz_hat": lf,
        "one_step_w2": w2s[0],
        "plateau_k": plateau_k,
        "plateau_w2": plateau_w2,
        "ratio_cut": ratio_cut,
    }


def stationary_suite(n: int = 100_000, seed: int = 0) -> dict:
    """Every sampler applied to stationary data N(0, I_2), compared by
    sliced W2 to a fresh stationary batch; the noise floor is the sliced
    W2 between two independent fresh batches of the same size."""
    dist = MixtureParams.standard_normal(2)
    delta, T = 0.01, 2.0
    cm = exact_cm(dist, delta)
    score_at_delta = exact_score_model(dist)

    ref = derive_rng(seed, "fresh-ref").standard_normal((n, 2))
    fresh_a = derive_rng(seed, "fresh-a").standard_normal((n, 2))

    rounds = multistep(cm, [T, 0.7, 0.7, 0.7], n, seed)
    q1, qk = rounds[0], rounds[-1]      # round 1 is the one-step batch
    q_ou = ou_smooth(q1, 0.05, seed)
    q_ulmc = ulmc_run(score_at_delta, q1, 1.0, 0.005, 200, seed, t=delta)

    names = ["one_step", "multistep_k4", "one_step_ou", "one_step_ulmc"]
    floor, *vals = [r.value for r in w2_sliced_many(
        [fresh_a, q1, qk, q_ou, q_ulmc], ref, seed=seed)]
    rows = [{"sampler": name, "sliced_w2": val, "ratio_to_floor": val / floor}
            for name, val in zip(names, vals)]
    return {"rows": rows, "noise_floor": floor, "n": n}


def ou_tv_bound_check(m_list: Sequence[float] = (0.1, 0.3, 0.5),
                      tau_list: Sequence[float] = (0.01, 0.05)) -> dict:
    """Analytic check of the smoothing inequality
    TV(N(0,1) P^tau, N(m,1) P^tau) <= W1 / (2 sqrt(e^{2 tau} - 1)):
    both smoothed laws stay unit-variance with means scaled by e^{-tau},
    so the left side has a closed form.  A pair whose bound overflows
    double precision is rejected."""
    rows = []
    violations = 0
    for m in m_list:
        for tau in tau_list:
            shrink = float(np.exp(-tau))
            with np.errstate(over="ignore"):     # an inf bound is rejected
                bound = m / (2.0 * np.sqrt(np.expm1(2.0 * tau)))
            if not np.isfinite(bound):
                raise ValueError(f"m={m}, tau={tau}: the bound overflows")
            tv = tv_gaussian_1d(0.0, 1.0, m * shrink, 1.0).value
            ok = tv <= bound + 1e-6
            violations += 0 if ok else 1
            rows.append({"m": float(m), "tau": float(tau), "tv": tv,
                         "bound": float(bound), "ok": ok})
    return {"rows": rows, "violations": violations}


def hessian_bound_check(seed: int = 0) -> dict:
    """Score-Hessian operator norm at p_t-distributed points versus the
    bounded-support closed-form bound, for point masses on a circle."""
    radius = 2.0
    dist = MixtureParams.circle_point_masses(radius, 8)
    rows = []
    violations = 0
    for j, t in enumerate((0.1, 0.5, 1.0)):
        pt = marginal_at(dist, float(t))
        x = sample(pt, 100, derive_seed(seed, "hess", j)).points
        hess = score_hessian(dist, float(t), x)
        norms = np.max(np.abs(np.linalg.eigvalsh(hess)), axis=1)
        bound = hessian_bound_bounded_support(radius, float(t))
        bad = int(np.sum(norms > bound + 1e-9))
        violations += bad
        rows.append({"t": float(t), "max_norm": float(norms.max()),
                     "bound": float(bound), "violations": bad})
    return {"rows": rows, "violations": violations}


def ulmc_correction_experiment(shift: float = 0.3, gamma: float = 1.0,
                               tau: float = 0.01, n_steps: int = 100,
                               n: int = 100_000, seed: int = 0) -> dict:
    """Corrector run on a shifted unit Gaussian toward N(0,1): total
    variation (analytic, between fitted Gaussians) before and after."""
    target = MixtureParams.standard_normal(1)
    score_model = exact_score_model(target)
    x0 = shift + derive_rng(seed, "ulmc-init").standard_normal((n, 1))
    batch = SampleBatch(points=x0)

    def fitted_tv(b) -> float:
        mu, cov = fit_gaussian(b)
        return tv_gaussian_1d(float(mu[0]), float(np.sqrt(cov[0, 0])),
                              0.0, 1.0).value

    tv_before = fitted_tv(batch)
    out = ulmc_run(score_model, batch, gamma, tau, n_steps, seed, t=0.0)
    tv_after = fitted_tv(out)
    return {"tv_before": tv_before, "tv_after": tv_after,
            "ratio": tv_after / tv_before, "shift": shift, "gamma": gamma,
            "tau": tau, "n_steps": n_steps, "n_tau": n_steps * tau, "n": n}


def ulmc_correction_closed_form(shift: float = 0.3, gamma: float = 1.0,
                                t: float = 1.0) -> dict:
    """What ulmc_correction_experiment measures, for the exact underdamped
    Langevin dynamics over total time t: the law of z stays N(m(t), 1)
    with m(t) = shift * ulmc_mean_contraction(gamma, t), so the TV to
    N(0, 1) before and after is exact."""
    m_after = shift * ulmc_mean_contraction(gamma, t)
    tv_before = tv_gaussian_1d(shift, 1.0, 0.0, 1.0).value
    tv_after = tv_gaussian_1d(m_after, 1.0, 0.0, 1.0).value
    return {"m_after": m_after, "tv_before": tv_before,
            "tv_after": tv_after, "ratio": tv_after / tv_before}


def score_recovery_experiment(seed: int = 0) -> dict:
    """Recover a score model at the second grid time from a consistency
    map built on a perturbed score, and compare its L2(p_{t_2}) error to
    the combined consistency/score error budget."""
    dist = MixtureParams.gaussian([0.0], [4.0])
    grid = build_grid(0.01, 0.1, 1.0)
    pert_seed = derive_seed(seed, "inject-seed")
    sm = perturb_score(dist, 0.1, pert_seed)
    cm = empirical_cm(sm, grid.delta)
    eps_sc_hat = measure_score_error(sm, dist, grid, 400, seed)
    eps_cm_hat, = measure_cm_error([cm], sm, dist, grid, 200, seed)

    recovered = recover_score(cm, grid)
    t2 = float(grid.points[1])
    x = sample(marginal_at(dist, t2), 300,
               derive_seed(seed, "recovery-eval")).points
    err = recovered(x, t2) - score(dist, t2, x)
    l2_err = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    budget = float(np.sqrt(eps_cm_hat**2 + eps_sc_hat**2))
    return {"l2_error": l2_err, "eps_sc_hat": eps_sc_hat,
            "eps_cm_hat": eps_cm_hat, "budget": budget, "t2": t2,
            "ratio": l2_err / budget if budget > 0 else float("inf")}


def sample_experiment(distribution: MixtureParams = _GAUSS_4I,
                      sampler: Literal["one-step", "multistep", "one-step+ou",
                                       "one-step+ulmc"] = "one-step",
                      n: int = 1000, delta: float = 0.01, T: float = 2.0,
                      h: Optional[float] = None,
                      times: Optional[Sequence[float]] = None,
                      tau: Optional[float] = None,
                      gamma: Optional[float] = None,
                      n_steps: Optional[int] = None, seed: int = 0) -> dict:
    """Points drawn by one sampler from the exact consistency map, or from
    the grid-discretized one when h is given: "one-step", "multistep" on
    the schedule `times` (default [T, 1, 1, 1], each entry in [delta, T]),
    or one-step followed by OU smoothing ("one-step+ou", tau default 0.05)
    or by the Langevin corrector ("one-step+ulmc", tau default 0.01,
    gamma 1.0, n_steps 100).  A times, tau, gamma or n_steps that the
    sampler does not read raises ValueError."""
    for name, value, readers in (
            ("times", times, ("multistep",)),
            ("tau", tau, ("one-step+ou", "one-step+ulmc")),
            ("gamma", gamma, ("one-step+ulmc",)),
            ("n_steps", n_steps, ("one-step+ulmc",))):
        if value is not None and sampler not in readers:
            raise ValueError(f"{name} is not read by the {sampler!r} sampler")
    if times is not None and not all(delta <= t <= T for t in times):
        raise ValueError(f"times must lie in [delta, T] = [{delta}, {T}], "
                         f"got {times}")
    score_model = exact_score_model(distribution)
    cm = exact_cm(distribution, delta) if h is None \
        else discretized_cm(score_model, _grid_for(delta, h, T))
    if sampler == "one-step":
        batch = one_step(cm, T, n, seed)
    elif sampler == "multistep":
        times = [T, 1.0, 1.0, 1.0] if times is None else times
        batch = multistep(cm, times, n, seed)[-1]
    elif sampler == "one-step+ou":
        batch = ou_smooth(one_step(cm, T, n, seed),
                          0.05 if tau is None else tau, seed)
    elif sampler == "one-step+ulmc":
        batch = ulmc_run(score_model, one_step(cm, T, n, seed),
                         1.0 if gamma is None else gamma,
                         0.01 if tau is None else tau,
                         100 if n_steps is None else n_steps, seed, t=delta)
    else:
        raise ValueError(f"unknown sampler kind {sampler!r}")
    return {"rows": [{f"x{j}": float(v) for j, v in enumerate(pt)}
                     for pt in batch.points]}


def gradcheck_experiment(dt_list: Sequence[float] = (0.2, 0.1, 0.05),
                         n_mc: int = 100_000, seed: int = 0) -> dict:
    """CT-vs-CD gradient gap across grid spacings plus the fitted log-log
    slope (second-order agreement predicts slope 2)."""
    dist = MixtureParams.gaussian(np.zeros(1), 4.0 * np.ones(1))
    theta0 = 0.1 * derive_rng(seed, "theta0").standard_normal((1, 32))
    pcm = ParametricCM.create(1, 32, seed, 0.01, theta=theta0)
    rows = grad_gap(pcm, dist, exact_score_model(dist), dt_list, n_mc, seed)
    fit = fit_loglog([r["dt"] for r in rows], [r["gap"] for r in rows])
    return {"rows": rows, "fit": fit}


def grid_experiment(delta: float = 0.01, h: float = 0.1,
                    T: float = 1.0) -> dict:
    """The cores' time grid at (delta, h, T), one row per point."""
    grid = _grid_for(delta, h, T)
    points = grid.points.tolist()
    return {"delta": grid.delta, "h": grid.h, "T": grid.T,
            "stage_boundary": grid.stage_boundary, "points": points,
            "rows": [{"index": i, "t": t} for i, t in enumerate(points)]}


# ---------------------------------------------------------------------------
# config-driven runner
# ---------------------------------------------------------------------------

# kind -> core.  A config of kind K may set exactly the keyword parameters
# of K's core, plus "seed"; each takes the core's default and annotation.
_KINDS = {
    "h-sweep": h_sweep_one_step,
    "eps-sc-sweep": functools.partial(eps_sweep_one_step, inject="sc"),
    "eps-cm-sweep": functools.partial(eps_sweep_one_step, inject="cm"),
    "multistep": multistep_contraction,
    "stationary": stationary_suite,
    "ou-tv": ou_tv_bound_check,
    "hessian": hessian_bound_check,
    "ulmc-correction": ulmc_correction_experiment,
    "gradcheck": gradcheck_experiment,
    "grid": grid_experiment,
    "sample": sample_experiment,
}

# Counts lie in [least, 2**64): n >= 2 because a covariance is fitted to
# the batch, n_mc >= 10 because grad_gap averages 10 chunks of its draws.
_LEAST = {"n": 2, "n_mc": 10, "n_rounds": 1, "n_steps": 0, "seed": 0}
# Numbers that may be 0: error levels and friction.  Every other number is
# a time, a step or a shift and must be > 0.
_NONNEGATIVE = {"eps_list", "eps_cm", "gamma"}


def _fields(kind: str) -> dict:
    """Config key -> annotation: kind's unbound core parameters and seed."""
    core = _KINDS[kind]
    params = inspect.signature(core, eval_str=True).parameters
    return {"seed": int, **{k: p.annotation for k, p in params.items()
                            if k not in getattr(core, "keywords", {})}}


def _check(name: str, value, ann):
    """value as a parameter annotated `ann` takes it, else a ConfigError."""
    if value is None and type(None) in get_args(ann):     # Optional[X]
        return None
    ann = get_args(ann)[0] if get_origin(ann) is Union else ann
    if ann is MixtureParams:
        try:
            dist = MixtureParams.from_dict(value)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: expected a mixture object with "
                              f"weights, means and vars ({exc})") from exc
        if np.isfinite([dist.means, dist.variances]).all():
            return dist
        raise ConfigError(f"{name}: means and vars must be finite")
    if get_origin(ann) is Literal:
        if value in get_args(ann):
            return value
        expected = f"one of {list(get_args(ann))}"
    elif ann is int:
        if type(value) is int and _LEAST[name] <= value < 2**64:
            return value
        expected = f"an integer in [{_LEAST[name]}, 2**64)"
    else:                                    # float or Sequence[float]
        zero_ok = name in _NONNEGATIVE
        items = [value] if ann is float else \
            value if isinstance(value, list) and value else [None]
        if all(type(v) in (int, float) and abs(v) <= sys.float_info.max
               and (v > 0 or zero_ok and v == 0) for v in items):
            return value
        what = "a number" if ann is float else "a nonempty list of numbers"
        expected = f"{what} {'>= 0' if zero_ok else '> 0'}"
    raise ConfigError(f"{name}: expected {expected}, got {value!r}")


def check_seed(value) -> int:
    """A root seed: an integer in [0, 2**64)."""
    return _check("seed", value, int)


def _reject_constant(name: str):
    raise ConfigError(f"config contains {name}, which is not a JSON number")


def read_config(path: str):
    """The JSON value in the file at path; NaN and Infinity are rejected."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _parse(raw, kind: Optional[str] = None) -> tuple[str, dict, dict]:
    """A config object's kind, its keys as given but "kind", and its core's
    checked keyword arguments, seed included.  kind, when given, is the
    kind the caller runs: the config may leave out its "kind" key, or must
    name the same kind."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if kind is not None:
        raw = {"kind": kind, **raw}
        if raw["kind"] != kind:
            raise ConfigError(
                f"kind: expected {kind!r}, got {raw['kind']!r}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(
            f"kind: expected one of {tuple(_KINDS)}, got {kind!r}")
    params = {k: v for k, v in raw.items() if k != "kind"}
    fields = _fields(kind)
    unknown = set(params) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return kind, params, {k: _check(k, v, fields[k])
                          for k, v in params.items()}


def run_experiment(raw, kind: Optional[str] = None,
                   seed: Optional[int] = None) -> dict:
    """Check a config object (see _parse) and run its kind's core, seed
    (when given) in place of the config's; the returned report embeds the
    config as given, without its kind."""
    kind, params, args = _parse(raw, kind)
    root = args.pop("seed", 0)
    if seed is not None:
        root = check_seed(seed)
    core = _KINDS[kind]
    if "seed" in inspect.signature(core).parameters:
        args["seed"] = root
    try:
        body = core(**args)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ConfigError(f"config rejected by {kind}: {exc}") from exc
    return {"kind": kind, "seed": root, "config": params, "result": body}


def _numpy_to_python(obj):
    """json's hook for what it cannot write: numpy arrays and scalars
    become Python lists and values; anything else is an error."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def render_json(report: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, LF newline at end."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_numpy_to_python) + "\n"


def _rows_of(report: dict) -> list[dict]:
    body = report.get("result", report)
    rows = body.get("rows")
    if rows is None:
        rows = [ {k: v for k, v in body.items() if not isinstance(v, (dict, list))} ]
    return rows


def render_csv(report: dict) -> str:
    """Row table as CSV with a fixed, sorted column order (UTF-8, LF)."""
    rows = _rows_of(report)
    cols = sorted({k for r in rows for k in r})
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join("" if r.get(c) is None else str(r.get(c))
                              for c in cols))
    return "\n".join(lines) + "\n"


def emit(report: dict, out_dir: str, fmt: str = "json",
         stem: str = "report") -> str:
    """Write the report to out_dir in the requested format; returns the
    path written."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.{fmt}")
    text = render_json(report) if fmt == "json" else render_csv(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path
