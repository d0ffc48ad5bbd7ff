"""Parameter gradients of the consistency distillation (CD) and
consistency training (CT) objectives on one grid interval, and the check
that they agree to second order in the interval's length.

The parametric map is f_theta(x, t) = x + (t - delta) * Phi(x, t) theta^T
with m fixed random sinusoidal features Phi.  The boundary condition
f_theta(x, delta) = x holds for every theta.  On [t_lo, t_hi] both
objectives are E || f_theta(x_{t_hi}, t_hi) - f_{theta^-}(target, t_lo) ||^2
with their own target; linearity in theta makes this quadratic in theta,
so the gradient has a closed form and no loss is ever evaluated.

Points are (n, d) batches.
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


def _draws(dist: MixtureParams, t_lo: float, t_hi: float, n_mc: int,
           seed: int, score_model: ScoreModel):
    """(x_{t_hi}, CD target, CT target) on the interval [t_lo, t_hi] from
    one draw of data x_0 and noise z, so the two objectives share their
    random numbers.  The CD target is one exponential-integrator step of
    x_{t_hi} to t_lo under the score model; the CT target is
    e^{-t_lo} x_0 + ((1 - e^{-(t_lo + t_hi)}) / sqrt(1 - e^{-2 t_hi})) z."""
    rng = derive_rng(seed, "objective")
    x0 = draw(dist, n_mc, rng)
    z = rng.standard_normal((n_mc, dist.dim))
    x_hi = ou_forward(x0, t_hi, z)
    coef = -np.expm1(-(t_lo + t_hi)) / np.sqrt(-np.expm1(-2.0 * t_hi))
    return (x_hi, exp_integrator_step(score_model, x_hi, t_hi, t_lo),
            np.exp(-t_lo) * x0 + coef * z)


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
        t_lo, t_hi = 0.5, 0.5 + dt
        # a step too long for e^dt overflows; the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            x_hi, cd_target, ct_target = _draws(dist, t_lo, t_hi, n_mc, seed,
                                                score_exact)
            # at large dt the CD target e^dt x + (e^dt - 1) s(x) is a
            # small difference of large terms; past half its digits lost
            # it is noise, however finite
            grown = np.exp(t_hi - t_lo) * np.abs(x_hi).max()
            kept = np.abs(cd_target).max()
            if grown > 2.0**26 * kept:
                raise ValueError(
                    f"grad_gap at dt={dt}: the CD target lost more than "
                    f"half its digits to cancellation (max |e^dt x| "
                    f"{grown:.3e}, max |target| {kept:.3e})")
            # one draw serves both objectives, so the features and
            # f_theta(x_hi, t_hi) serve both gradients
            feat = theta0.features(x_hi, t_hi)
            f_hi = x_hi + (t_hi - theta0.delta) * (feat @ theta0.theta.T)
            shared = (t_lo, t_hi, feat, f_hi)
            diff = _loss_grads(theta0, *shared, ct_target, edges) \
                - _loss_grads(theta0, *shared, cd_target, edges)
            gap = float(np.linalg.norm(diff.mean(axis=0)))
            chunk_norms = np.linalg.norm(diff.reshape(n_chunks, -1), axis=1)
            se = float(chunk_norms.std(ddof=1) / np.sqrt(n_chunks))
        if not np.isfinite([gap, se]).all():
            raise ValueError(f"grad_gap at dt={dt}: gap {gap} or its std "
                             f"error {se} is not finite")
        if gap < 10.0 * se:
            warnings.warn(
                f"grad_gap at dt={dt}: gap {gap:.3e} is within 10x its "
                f"std error {se:.3e}; treat the fitted slope with caution"
            )
        out.append({"dt": dt, "gap": gap, "std_err": se})
    return out
