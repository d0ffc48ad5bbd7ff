"""Consistency distillation (CD) and consistency training (CT) objectives
on a linear-in-parameters family, and the check that their parameter
gradients agree to second order in the grid spacing.

The parametric map is f_theta(x, t) = x + (t - delta) * Phi(x, t) theta^T
with m fixed random sinusoidal features Phi.  The boundary condition
f_theta(x, delta) = x holds for every theta, and linearity in theta makes
each loss quadratic in theta, so its gradient has a closed form.

Points are (n, d) batches, and a grid is a 1-d array of increasing times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import MixtureParams, draw, ou_forward
from .flows import exp_integrator_step
from .models import ScoreModel
from .rng import derive_rng


@dataclass(frozen=True)
class ParametricCM:
    """f_theta(x, t) = c_skip(t) x + c_out(t) F_theta(x, t) with
    c_skip = 1, c_out(t) = t - delta, F_theta = Phi(x, t) theta^T."""

    theta: np.ndarray       # (d, m)
    freqs: np.ndarray       # (m, d)
    phases: np.ndarray      # (m,)
    tcoefs: np.ndarray      # (m,)
    delta: float

    @classmethod
    def create(cls, dim: int, m: int, seed: int, delta: float,
               theta: np.ndarray | None = None) -> "ParametricCM":
        rng = derive_rng(seed, "parametric-features")
        freqs = rng.uniform(0.5, 2.0, size=(m, dim))
        freqs *= rng.choice([-1.0, 1.0], size=(m, dim))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
        tcoefs = rng.uniform(0.2, 1.0, size=m)
        if theta is None:
            theta = np.zeros((dim, m))
        return cls(theta=np.asarray(theta, dtype=float), freqs=freqs,
                   phases=phases, tcoefs=tcoefs, delta=float(delta))

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def features(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.sin(x @ self.freqs.T + self.phases + self.tcoefs * t)

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        return x + (t - self.delta) * (self.features(x, t) @ self.theta.T)


def _times_of(grid) -> np.ndarray:
    times = np.atleast_1d(np.asarray(grid, dtype=float))
    if times.shape[0] < 2 or not np.all(np.diff(times) > 0):
        raise ValueError("grid must contain >= 2 strictly increasing times")
    return times


def _ct_coef(t_lo: float, t_hi: float) -> float:
    return -np.expm1(-(t_lo + t_hi)) / np.sqrt(-np.expm1(-2.0 * t_hi))


def _pairs(dist: MixtureParams, times: np.ndarray, n_mc: int, seed: int,
           score_model: ScoreModel | None = None):
    """Yield (t_lo, t_hi, x_{t_hi}, target) for each grid interval that
    holds draws.  cd_loss and ct_loss share the draws (common random
    numbers): interval indices, data x_0 and noise z, from one stream.
    The CD target (score_model given) is one exponential-integrator step
    of x_{t_hi} under the score model; the CT target (score_model None) is
    e^{-t_lo} x_0 + ((1 - e^{-(t_lo + t_hi)}) / sqrt(1 - e^{-2 t_hi})) z."""
    rng = derive_rng(seed, "objective")
    n_idx = rng.integers(0, times.shape[0] - 1, size=n_mc)
    x0 = draw(dist, n_mc, rng)
    z = rng.standard_normal((n_mc, dist.dim))
    for i in range(times.shape[0] - 1):
        mask = n_idx == i
        if not np.any(mask):
            continue
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        x_hi = ou_forward(x0[mask], t_hi, z[mask])
        if score_model is None:
            target = np.exp(-t_lo) * x0[mask] + _ct_coef(t_lo, t_hi) * z[mask]
        else:
            target = exp_integrator_step(score_model, x_hi, t_hi, t_lo)
        yield t_lo, t_hi, x_hi, target


def _loss(theta: ParametricCM, theta_minus: ParametricCM, pairs,
          n_mc: int) -> float:
    total = 0.0
    for t_lo, t_hi, x_hi, target in pairs:
        diff = theta(x_hi, t_hi) - theta_minus(target, t_lo)
        total += float(np.sum(diff**2))
    return total / n_mc


def cd_loss(theta: ParametricCM, theta_minus: ParametricCM,
            score_model: ScoreModel, dist: MixtureParams, grid, n_mc: int,
            seed: int) -> float:
    """Distillation objective: E || f_theta(x_{t_{n+1}}, t_{n+1})
    - f_{theta^-}(xhat_{t_n}, t_n) ||^2 with xhat one
    exponential-integrator step of x_{t_{n+1}} under the score model and n
    uniform over the grid intervals."""
    pairs = _pairs(dist, _times_of(grid), n_mc, seed, score_model)
    return _loss(theta, theta_minus, pairs, n_mc)


def ct_loss(theta: ParametricCM, theta_minus: ParametricCM,
            dist: MixtureParams, grid, n_mc: int, seed: int) -> float:
    """Training objective: same first term as cd_loss, but the second
    argument is built from the shared draws (x_0, z) without a score model:
    e^{-t_n} x_0 + ((1 - e^{-(t_n + t_{n+1})}) / sqrt(1 - e^{-2 t_{n+1}})) z."""
    pairs = _pairs(dist, _times_of(grid), n_mc, seed)
    return _loss(theta, theta_minus, pairs, n_mc)


def _loss_grads(theta: ParametricCM, t_lo: float, t_hi: float,
                feat: np.ndarray, f_hi: np.ndarray, target: np.ndarray,
                edges: np.ndarray) -> np.ndarray:
    """Gradient in theta of the loss on one interval's pairs, theta^-
    frozen at theta, one gradient per sample chunk [edges[k], edges[k+1]):
    (2 c_hi / n_k) R_k^T Phi_k with c_hi = t_hi - delta, Phi = feat the
    features at (x_hi, t_hi), f_hi = f_theta(x_hi, t_hi) and
    R = f_hi - f_theta(target, t_lo)."""
    c_hi = t_hi - theta.delta
    resid = f_hi - theta(target, t_lo)
    return np.stack([(2.0 * c_hi / (b - a)) * (resid[a:b].T @ feat[a:b])
                     for a, b in zip(edges[:-1], edges[1:])])


def grad_gap(theta0: ParametricCM, dist: MixtureParams,
             score_exact: ScoreModel, dt_list, n_mc: int,
             seed: int) -> list[dict]:
    """|| grad_theta L_CT - grad_theta L_CD || on two-point grids
    [0.5, 0.5 + dt], for each dt, with common random numbers across
    objectives and across dt values: one row {"dt", "gap", "std_err"} per
    dt.  Gradients are the closed-form gradients of the quadratic losses;
    std errors come from the means of 10 sample chunks.

    Expected behaviour (verified by the harness fit): the gap shrinks like
    dt^2 when the distillation side uses the exact score.
    """
    dt_list = [float(dt) for dt in dt_list]
    if len(dt_list) < 3 or not all(a > b for a, b in zip(dt_list, dt_list[1:])):
        raise ValueError("dt_list needs >= 3 strictly decreasing values")
    n_chunks = 10
    out = []
    edges = np.linspace(0, n_mc, n_chunks + 1).astype(int)
    for dt in dt_list:
        times = np.array([0.5, 0.5 + dt])
        # the two objectives share their draws, so x_hi too, bit for bit:
        # its features and f_theta(x_hi, t_hi) serve both gradients
        ((t_lo, t_hi, x_hi, cd_target),) = _pairs(dist, times, n_mc, seed,
                                                   score_exact)
        ((*_, ct_target),) = _pairs(dist, times, n_mc, seed)
        feat = theta0.features(x_hi, t_hi)
        f_hi = x_hi + (t_hi - theta0.delta) * (feat @ theta0.theta.T)
        shared = (t_lo, t_hi, feat, f_hi)
        diff = _loss_grads(theta0, *shared, ct_target, edges) \
            - _loss_grads(theta0, *shared, cd_target, edges)
        gap = float(np.linalg.norm(diff.mean(axis=0)))
        chunk_norms = np.linalg.norm(diff.reshape(n_chunks, -1), axis=1)
        se = float(chunk_norms.std(ddof=1) / np.sqrt(n_chunks))
        if gap < 10.0 * se:
            warnings.warn(
                f"grad_gap at dt={dt}: gap {gap:.3e} is within 10x its "
                f"std error {se:.3e}; treat the fitted slope with caution"
            )
        out.append({"dt": dt, "gap": gap, "std_err": se})
    return out
