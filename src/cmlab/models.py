"""Score and consistency models with controlled, measurable errors.

Perturbations are fixed smooth sinusoidal fields rather than anything
learned: g_j(x, t) = sin(omega_j . x + a_j + b_j t) with frequencies and
phases drawn once from a seed.  Each coordinate is bounded by 1, so the
injected L2 error is at most eps_target * sqrt(d) by construction and the
injection is exactly linear in eps_target.

Consistency models are built three ways:
  PF flow      -- reference-integrated PF-ODE flow of a score model
                  (empirical_cm; exact_cm is empirical_cm of the exact
                  score model)
  discretized  -- exponential-integrator solver marched down a TimeGrid
                  (the object whose one-step sampling error scales with h)
  perturbed    -- any of the above plus eps * (t - delta) * g(x, t)
Each only maps times above delta: `ConsistencyModel` itself enforces the
boundary condition f(x, delta) = x for all three, and rejects t < delta.

Every model records how it was built in its provenance dict, whose
"kind" names the constructor and which nests the provenance of the model
it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import MixtureParams, marginal_at, sample, score
from .flows import exp_integrator_step, integrate_reference, pf_field
from .rng import derive_rng, derive_seed
from .schedule import TimeGrid

# |t - delta| within which a consistency model is at its boundary time
_BOUNDARY_TOL = 1e-12


@dataclass
class ScoreModel:
    """Deterministic score field s(x, t) with provenance metadata."""

    fn: Callable[[np.ndarray, float], np.ndarray]
    dim: int
    provenance: dict = field(default_factory=dict)

    def __call__(self, x, t: float) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), t)


@dataclass
class ConsistencyModel:
    """Deterministic map f(x, t) -> point at time delta; f(x, delta) = x.

    fn is called only for t above delta: within _BOUNDARY_TOL of delta the
    model returns a copy of x, and below that it raises ValueError."""

    fn: Callable[[np.ndarray, float], np.ndarray]
    dim: int
    delta: float
    provenance: dict = field(default_factory=dict)

    def __call__(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if t < self.delta - _BOUNDARY_TOL:
            raise ValueError(f"need t >= delta, got t={t}, "
                             f"delta={self.delta}")
        if t <= self.delta + _BOUNDARY_TOL:
            return x.copy()
        return self.fn(x, t)


class _SineField:
    """g(x, t) with g_j = sin(omega_j . x + a_j + b_j t); ||g||_inf <= sqrt(d)."""

    def __init__(self, dim: int, seed: int):
        rng = derive_rng(seed, "sine-perturbation")
        self.omega = rng.uniform(0.5, 1.5, size=(dim, dim))
        self.omega *= rng.choice([-1.0, 1.0], size=(dim, dim))
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        self.tcoef = rng.uniform(0.2, 1.0, size=dim)

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.sin(x @ self.omega.T + self.phase + self.tcoef * t)


def exact_score_model(dist: MixtureParams) -> ScoreModel:
    return ScoreModel(
        fn=lambda x, t: score(dist, t, x),
        dim=dist.dim,
        provenance={"kind": "exact"},
    )


def perturb_score(dist: MixtureParams, eps_target: float,
                  seed: int) -> ScoreModel:
    """s(x, t) = grad log p_t(x) + eps_target * g(x, t)."""
    if eps_target < 0:
        raise ValueError("eps_target must be >= 0")
    g = _SineField(dist.dim, seed)
    return ScoreModel(
        fn=lambda x, t: score(dist, t, x) + eps_target * g(x, t),
        dim=dist.dim,
        provenance={"kind": "perturbed", "eps_target": eps_target,
                    "seed": int(seed)},
    )


def empirical_cm(score_model: ScoreModel, delta: float) -> ConsistencyModel:
    """The PF-ODE flow of a score model, integrated by the reference
    solver."""
    return ConsistencyModel(
        fn=lambda x, t: integrate_reference(pf_field(score_model), x, t,
                                            delta),
        dim=score_model.dim,
        delta=delta,
        provenance={"kind": "empirical",
                    "score": dict(score_model.provenance)},
    )


def exact_cm(dist: MixtureParams, delta: float) -> ConsistencyModel:
    """The PF-ODE flow of the exact score."""
    return empirical_cm(exact_score_model(dist), delta)


def discretized_cm(score_model: ScoreModel, grid: TimeGrid) -> ConsistencyModel:
    """Consistency map realised by marching the exponential integrator down
    the grid from t to delta.

    For t between grid points the first step goes to the largest grid point
    below t; a grid point within tol of t is skipped.  Zero per-interval
    consistency error at grid times by construction.
    """
    pts = grid.points
    delta = grid.delta
    tol = 1e-12 * max(1.0, grid.T)
    inner = pts[pts > delta]

    def run(x: np.ndarray, t: float) -> np.ndarray:
        times = [t] + inner[inner < t - tol][::-1].tolist() + [delta]
        for hi, lo in zip(times[:-1], times[1:]):
            x = exp_integrator_step(score_model, x, hi, lo)
        return x

    return ConsistencyModel(
        fn=run,
        dim=score_model.dim,
        delta=delta,
        provenance={"kind": "discretized", "h": grid.h, "T": grid.T,
                    "delta": delta, "score": dict(score_model.provenance)},
    )


def perturb_cm(base: ConsistencyModel, eps_target: float,
               seed: int) -> ConsistencyModel:
    """f(x, t) = base(x, t) + eps_target * (t - delta) * g(x, t).

    The (t - delta) factor makes the injection vanish toward the boundary
    and matches the per-interval scaling of the consistency-error
    assumption.
    """
    if eps_target < 0:
        raise ValueError("eps_target must be >= 0")
    g = _SineField(base.dim, seed)
    delta = base.delta
    return ConsistencyModel(
        fn=lambda x, t: base(x, t) + eps_target * (t - delta) * g(x, t),
        dim=base.dim,
        delta=delta,
        provenance={"kind": "perturbed", "eps_target": eps_target,
                    "seed": int(seed), "base": dict(base.provenance)},
    )


def measure_score_error(model: ScoreModel, dist: MixtureParams,
                        grid: TimeGrid, n_mc: int, seed: int) -> float:
    """eps_sc estimate: max over grid times of the RMS L2(p_t) score error."""
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    worst = 0.0
    for j, t in enumerate(grid.points):
        x = sample(marginal_at(dist, t), n_mc,
                   derive_seed(seed, "eps-sc", j)).points
        err = model(x, t) - score(dist, t, x)
        worst = max(worst, float(np.sqrt(np.mean(np.sum(err**2, axis=1)))))
    return worst


def measure_cm_error(cm: ConsistencyModel, score_model: ScoreModel,
                     dist: MixtureParams, grid: TimeGrid, n_mc: int,
                     seed: int) -> float:
    """eps_cm estimate: max over adjacent grid pairs of
    RMS || f(x_{t_{n+1}}, t_{n+1}) - f(xhat, t_n) || / (t_{n+1} - t_n),
    with xhat one exponential-integrator step of x_{t_{n+1}}."""
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    pts = grid.points
    worst = 0.0
    for n in range(pts.shape[0] - 1):
        t_lo, t_hi = pts[n], pts[n + 1]
        x = sample(marginal_at(dist, t_hi), n_mc,
                   derive_seed(seed, "eps-cm", n)).points
        xhat = exp_integrator_step(score_model, x, t_hi, t_lo)
        gap = cm(x, t_hi) - cm(xhat, t_lo)
        rms = float(np.sqrt(np.mean(np.sum(gap**2, axis=1))))
        worst = max(worst, rms / (t_hi - t_lo))
    return worst


def estimate_lipschitz(cm: ConsistencyModel, dist: MixtureParams, t: float,
                       n_pairs: int, seed: int) -> float:
    """L_f estimate: max difference quotient over p_t-sampled base points and
    random unit directions at probe radii 1e-3 and 1e-2, floored at 1."""
    if n_pairs < 100:
        raise ValueError("n_pairs must be >= 100")
    x = sample(marginal_at(dist, t), n_pairs, seed).points
    u = derive_rng(seed, "lipschitz-dirs").standard_normal(x.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    fx = cm(x, t)
    best = 1.0
    for r in (1e-3, 1e-2):
        fy = cm(x + r * u, t)
        ratios = np.linalg.norm(fy - fx, axis=1) / r
        best = max(best, float(np.max(ratios)))
    return best


def recover_score(cm: ConsistencyModel, grid: TimeGrid) -> ScoreModel:
    """Score model at the second grid time recovered from a consistency
    model: s(x) = (f(x, t_2) - e^{h_1} x) / (e^{h_1} - 1)."""
    if grid.n_points < 2:
        raise ValueError("grid needs at least 2 points")
    t2 = float(grid.points[1])
    h1 = t2 - float(grid.points[0])
    denom = np.expm1(h1)
    if denom < 1e-12:
        raise ValueError(f"e^h1 - 1 = {denom} too small to divide by")
    growth = np.exp(h1)

    def fn(x: np.ndarray, t: float) -> np.ndarray:
        return (cm(x, t2) - growth * x) / denom

    return ScoreModel(
        fn=fn,
        dim=cm.dim,
        provenance={"kind": "recovered", "t2": t2, "h1": h1,
                    "base": dict(cm.provenance)},
    )
