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

A model is evaluated on many (x, t) pairs at once with `many`, and a
single call f(x, t) is the one-pair case.  The discretized map walks the
grid level-synchronously: it takes the highest time still above delta,
stacks every batch at that time into one exponential-integrator step to
the next grid point below, splits the result back and repeats down to
delta.  The exact mixture score works row by row, so over it a pair's
image is the same, bit for bit, whatever it is stacked with;
`measure_cm_error` and `estimate_lipschitz` lean on this to march their
batches together.  A score that multiplies the batch through BLAS (the
sine perturbation's x @ omega.T) can differ in the last bit when a
one-row batch is stacked with others.

`memoized_cm` keeps a model's images for as long as the caller holds it,
keyed by the bytes of x, so a sweep that evaluates several perturbations
of one base map marches the base once.  It relies on the same condition:
a pair's image must not depend on the rows stacked with it, which holds
over the exact score and not over a BLAS-multiplied one.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import MixtureParams, marginal_at, sample, score
from .flows import exp_integrator_step, integrate_reference, pf_field
from .rng import derive_rng, derive_seed
from .schedule import TimeGrid

# |t - delta| within which a consistency model is at its boundary time
_BOUNDARY_TOL = 1e-12


@dataclass
class ScoreModel:
    """Deterministic score field s(x, t) at a float (n, d) batch x.

    fn returns a new float (n, d) array, sharing no memory with x or with
    any earlier result, which its caller may overwrite:
    `flows.exp_integrator_step` does."""

    fn: Callable[[np.ndarray, float], np.ndarray]
    dim: int

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.fn(x, t)


Pairs = list[tuple[np.ndarray, float]]


@dataclass
class ConsistencyModel:
    """Deterministic map f(x, t) -> point at time delta; f(x, delta) = x.

    fn maps a list of (x, t) pairs to the list of their images, and is
    given only the pairs with t above delta: within _BOUNDARY_TOL of delta
    the model returns a copy of x, and below that it raises ValueError."""

    fn: Callable[[Pairs], list[np.ndarray]]
    dim: int
    delta: float

    def __call__(self, x, t: float) -> np.ndarray:
        return self.many([(x, t)])[0]

    def many(self, pairs) -> list[np.ndarray]:
        """[f(x, t) for (x, t) in pairs], with the pairs above delta
        handed to fn in one call."""
        pairs = [(np.asarray(x, dtype=float), t) for x, t in pairs]
        for _, t in pairs:
            if not t >= self.delta - _BOUNDARY_TOL:     # NaN too
                raise ValueError(f"need t >= delta, got t={t}, "
                                 f"delta={self.delta}")
        edge = self.delta + _BOUNDARY_TOL
        above = [(x, t) for x, t in pairs if t > edge]
        images = iter(self.fn(above) if above else [])
        return [next(images) if t > edge else x.copy() for x, t in pairs]


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


def exact_score_model(dist: MixtureParams, *,
                      pool: Optional[Executor] = None) -> ScoreModel:
    """The exact score of dist; given a pool, a single Gaussian's score
    runs on two parts of a batch's rows at once (see `score`)."""
    kw = {} if pool is None else {"pool": pool}
    return ScoreModel(fn=lambda x, t: score(dist, t, x, **kw), dim=dist.dim)


def perturb_score(dist: MixtureParams, eps_target: float,
                  seed: int) -> ScoreModel:
    """s(x, t) = grad log p_t(x) + eps_target * g(x, t)."""
    if eps_target < 0:
        raise ValueError("eps_target must be >= 0")
    g = _SineField(dist.dim, seed)
    return ScoreModel(
        fn=lambda x, t: score(dist, t, x) + eps_target * g(x, t),
        dim=dist.dim)


def empirical_cm(score_model: ScoreModel, delta: float) -> ConsistencyModel:
    """The PF-ODE flow of a score model, integrated by the reference
    solver."""
    return ConsistencyModel(
        fn=lambda pairs: [integrate_reference(pf_field(score_model), x, t,
                                              delta) for x, t in pairs],
        dim=score_model.dim, delta=delta)


def exact_cm(dist: MixtureParams, delta: float) -> ConsistencyModel:
    """The PF-ODE flow of the exact score."""
    return empirical_cm(exact_score_model(dist), delta)


def discretized_cm(score_model: ScoreModel, grid: TimeGrid, *,
                   pool: Optional[Executor] = None) -> ConsistencyModel:
    """Consistency map realised by marching the exponential integrator down
    the grid from t to delta.

    For t between grid points the first step goes to the largest grid point
    below t; a grid point within tol of t is skipped.  Zero per-interval
    consistency error at grid times by construction.  The pairs are walked
    level by level, as the module docstring describes.  A pool is handed
    to every step (see `flows.exp_integrator_step`).
    """
    delta = grid.delta
    tol = 1e-12 * max(1.0, grid.T)
    inner = grid.points[grid.points > delta].tolist()

    def run(pairs: Pairs) -> list[np.ndarray]:
        xs = [x for x, _ in pairs]
        ts = [t for _, t in pairs]      # every t is above delta at first
        while (hi := max(ts)) > delta:
            level = [i for i, t in enumerate(ts) if t == hi]
            lo = max((p for p in inner if p < hi - tol), default=delta)
            stacked = xs[level[0]] if len(level) == 1 \
                else np.concatenate([xs[i] for i in level])
            out = exp_integrator_step(score_model, stacked, hi, lo,
                                      pool=pool)
            stop = 0
            for i in level:
                start, stop = stop, stop + xs[i].shape[0]
                xs[i], ts[i] = out[start:stop], lo
        return xs

    return ConsistencyModel(fn=run, dim=score_model.dim, delta=delta)


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

    def fn(pairs: Pairs) -> list[np.ndarray]:
        return [y + eps_target * (t - delta) * g(x, t)
                for y, (x, t) in zip(base.many(pairs), pairs)]

    return ConsistencyModel(fn=fn, dim=base.dim, delta=delta)


def memoized_cm(cm: ConsistencyModel) -> ConsistencyModel:
    """cm that keeps every image it computes, for the life of the
    returned model.

    A pair is looked up by (t, shape, the bytes of x), never by the array
    object, and the pairs not seen before go to cm.many in one call.  The
    kept images are read-only, so no caller can change what a later
    lookup returns.  A pair's image is the one cm gives it alone only
    when that does not depend on the pairs stacked with it (see the
    module docstring)."""
    images: dict[tuple, np.ndarray] = {}

    def fn(pairs: Pairs) -> list[np.ndarray]:
        keys = [(t, x.shape, x.tobytes()) for x, t in pairs]
        unseen = {key: pair for key, pair in zip(keys, pairs)
                  if key not in images}
        for key, y in zip(unseen, cm.many(list(unseen.values()))):
            y.flags.writeable = False
            images[key] = y
        return [images[key] for key in keys]

    return ConsistencyModel(fn=fn, dim=cm.dim, delta=cm.delta)


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


def measure_cm_error(cms: Sequence[ConsistencyModel],
                     score_model: ScoreModel, dist: MixtureParams,
                     grid: TimeGrid, n_mc: int, seed: int) -> list[float]:
    """eps_cm estimate of each model: max over adjacent grid pairs of
    RMS || f(x_{t_{n+1}}, t_{n+1}) - f(xhat, t_n) || / (t_{n+1} - t_n),
    with xhat one exponential-integrator step of x_{t_{n+1}}.  The pairs
    are drawn and stepped once and shared by every model."""
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    pts = grid.points
    his, los = [], []
    for n in range(pts.shape[0] - 1):
        t_lo, t_hi = pts[n], pts[n + 1]
        x = sample(marginal_at(dist, t_hi), n_mc,
                   derive_seed(seed, "eps-cm", n)).points
        his.append((x, t_hi))
        los.append((exp_integrator_step(score_model, x, t_hi, t_lo), t_lo))
    out = []
    for cm in cms:
        worst = 0.0
        for f_hi, f_lo, t_hi, t_lo in zip(cm.many(his), cm.many(los),
                                          pts[1:], pts[:-1]):
            gap = f_hi - f_lo
            rms = float(np.sqrt(np.mean(np.sum(gap**2, axis=1))))
            worst = max(worst, rms / (t_hi - t_lo))
        out.append(worst)
    return out


def estimate_lipschitz(cm: ConsistencyModel, dist: MixtureParams, t: float,
                       n_pairs: int, seed: int) -> float:
    """L_f estimate: max difference quotient over p_t-sampled base points and
    random unit directions at probe radii 1e-3 and 1e-2, floored at 1."""
    if n_pairs < 100:
        raise ValueError("n_pairs must be >= 100")
    x = sample(marginal_at(dist, t), n_pairs, seed).points
    u = derive_rng(seed, "lipschitz-dirs").standard_normal(x.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = (1e-3, 1e-2)
    fx, *fys = cm.many([(x, t)] + [(x + r * u, t) for r in radii])
    best = 1.0
    for r, fy in zip(radii, fys):
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

    return ScoreModel(fn=fn, dim=cm.dim)
