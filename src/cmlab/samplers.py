"""One-step and multistep consistency sampling, OU smoothing and the
underdamped Langevin corrector.

All randomness flows through streams derived from (seed, tag, step index),
so whole runs are reproducible.  One-step sampling is round 1 of
multistep sampling, so the two share their first batch by construction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .distributions import SampleBatch
from .models import ConsistencyModel, ScoreModel
from .rng import derive_rng
from .schedule import TimeGrid


def fixed_time_schedule(grid: TimeGrid, lipschitz_f: float,
                        n_rounds: int) -> np.ndarray:
    """Constant-time multistep times: first T, then the grid point
    nearest log(2 L_f) + delta repeated (the constructive choice that makes
    the per-round contraction factor about 1/2)."""
    target = np.log(2.0 * max(lipschitz_f, 1.0)) + grid.delta
    t_hat = float(grid.points[np.argmin(np.abs(grid.points - target))])
    return np.concatenate([[grid.T], np.full(max(n_rounds - 1, 0), t_hat)])


def one_step(cm: ConsistencyModel, T: float, n: int, seed: int) -> SampleBatch:
    """f(xi, T) for xi ~ N(0, I_d): the pushforward of the standard normal,
    which is round 1 of multistep."""
    return multistep(cm, [T], n, seed)[0]


def multistep(cm: ConsistencyModel, times, n: int,
              seed: int) -> list[SampleBatch]:
    """Alternating denoising and re-noising on times T = t_1 >= t_2 >= ...
    >= delta, with delta the map's own cm.delta:
    z_1 = f(xi_1, T); u_k = e^{-(t_k - delta)} z_{k-1}
    + sqrt(1 - e^{-2(t_k - delta)}) xi_k; z_k = f(u_k, t_k).

    Returns every intermediate batch q_1..q_K.
    """
    delta = cm.delta
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.shape[0] < 1:
        raise ValueError("multistep needs at least one time")
    if np.any(times < delta) or np.any(times > times[0]):
        raise ValueError("times must lie in [delta, T] with T first")
    xi = derive_rng(seed, "xi", 1).standard_normal((n, cm.dim))
    z = cm(xi, float(times[0]))
    out = [SampleBatch(points=z, time_tag=delta)]
    for k, t_k in enumerate(times[1:], start=2):
        t_k = float(t_k)
        xi = derive_rng(seed, "xi", k).standard_normal((n, cm.dim))
        shrink = np.exp(-(t_k - delta))
        u = shrink * z + np.sqrt(max(1.0 - shrink**2, 0.0)) * xi
        z = cm(u, t_k)
        out.append(SampleBatch(points=z, time_tag=delta))
    return out


def ou_smooth(batch: SampleBatch, tau: float, seed: int) -> SampleBatch:
    """One application of the forward OU kernel over time tau:
    x <- e^{-tau} x + sqrt(1 - e^{-2 tau}) xi."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return SampleBatch(points=batch.points.copy(),
                           time_tag=batch.time_tag)
    xi = derive_rng(seed, "ou-smooth").standard_normal(batch.points.shape)
    shrink = np.exp(-tau)
    pts = shrink * batch.points + np.sqrt(-np.expm1(-2.0 * tau)) * xi
    return SampleBatch(points=pts, time_tag=batch.time_tag)


def _ulmc_increment_cov(gamma: float, tau: float) -> tuple[float, float, float]:
    """Per-coordinate covariance (var_z, cov_zv, var_v) of the exact
    frozen-drift update over one step of length tau."""
    gt = gamma * tau
    if gt < 1e-3:
        # series around gamma*tau = 0 avoids catastrophic cancellation
        var_z = 2.0 * gamma * tau**3 * (1.0 / 3.0 - gt / 4.0 + gt**2 / 10.0)
        cov_zv = gamma * tau**2 * (1.0 - 2.0 * gt / 3.0 + 7.0 * gt**2 / 24.0)
        var_v = 2.0 * gt * (1.0 - gt + 2.0 * gt**2 / 3.0)
        return var_z, cov_zv, var_v
    e1 = -np.expm1(-gt)          # 1 - e^{-gt}
    e2 = -np.expm1(-2.0 * gt)    # 1 - e^{-2gt}
    var_v = e2
    cov_zv = e1**2 / gamma
    var_z = (2.0 / gamma) * (tau - 2.0 * e1 / gamma + e2 / (2.0 * gamma))
    return var_z, cov_zv, var_v


def ulmc_run(score_model_at_delta: ScoreModel, batch: SampleBatch,
             gamma: float, tau: float, n_steps: int, seed: int) -> SampleBatch:
    """Underdamped Langevin corrector with frozen-score steps.

    Velocities are initialised N(0, I).  Each step integrates
    dz = v dt, dv = (s(z_0) - gamma v) dt + sqrt(2 gamma) dW exactly over
    [0, tau] with the score frozen at the step's start position (the 2x2
    per-coordinate Gaussian increment is sampled in closed form).  With
    gamma = 0 the update is the noiseless ballistic limit.
    """
    if gamma < 0 or tau <= 0:
        raise ValueError("need gamma >= 0 and tau > 0")
    z = batch.points.copy()
    if n_steps == 0:
        return SampleBatch(points=z, time_tag=batch.time_tag)
    v = derive_rng(seed, "ulmc-v0").standard_normal(z.shape)

    if gamma == 0.0:
        t_eval = _delta_time(batch)
        for k in range(n_steps):
            s0 = score_model_at_delta(z, t_eval)
            z = z + tau * v + 0.5 * tau**2 * s0
            v = v + tau * s0
        return SampleBatch(points=z, time_tag=batch.time_tag)

    decay = np.exp(-gamma * tau)
    var_z, cov_zv, var_v = _ulmc_increment_cov(gamma, tau)
    # Cholesky factor of the 2x2 increment covariance
    lz = np.sqrt(var_z)
    lvz = cov_zv / lz
    lvv = np.sqrt(max(var_v - lvz**2, 0.0))
    t_eval = _delta_time(batch)
    for k in range(n_steps):
        s0 = score_model_at_delta(z, t_eval)
        drift = s0 / gamma
        z_mean = z + drift * tau + (1.0 - decay) * (v - drift) / gamma
        v_mean = drift + decay * (v - drift)
        rng = derive_rng(seed, "ulmc-step", k)
        eta1 = rng.standard_normal(z.shape)
        eta2 = rng.standard_normal(z.shape)
        z = z_mean + lz * eta1
        v = v_mean + lvz * eta1 + lvv * eta2
    return SampleBatch(points=z, time_tag=batch.time_tag)


def ulmc_mean_contraction(gamma: float, t: float) -> float:
    """m(t) / m(0) for the mean of the exact underdamped Langevin dynamics
    toward N(0, I) (score -z), started with mean velocity zero.

    The mean obeys m'' = -m - gamma m', so (m, m') evolves by the matrix
    exponential of [[0, 1], [-1, -gamma]] t.  Closed forms: cos t at
    gamma = 0, e^{-t} (1 + t) at gamma = 2.
    """
    if gamma < 0 or t < 0:
        raise ValueError("need gamma >= 0 and t >= 0")
    return float(expm(np.array([[0.0, 1.0], [-1.0, -gamma]]) * t)[0, 0])


def _delta_time(batch: SampleBatch) -> float:
    """Time at which the corrector's score model is evaluated."""
    return batch.time_tag if batch.time_tag is not None else 0.0
