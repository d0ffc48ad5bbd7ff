"""One-step and multistep consistency sampling, OU smoothing and the
underdamped Langevin corrector.

All randomness flows through streams derived from (seed, tag, step index),
so whole runs are reproducible.  One-step sampling is round 1 of
multistep sampling, so the two share their first batch by construction.
Re-noising and smoothing both apply `distributions.ou_forward`.  The
Langevin corrector takes the diffusion time t of the law it corrects
toward as an argument: a batch carries points only, not a time.

The Langevin mean's closed form takes scipy.linalg.expm, which scipy
imports on its first call, so samplers that never ask for it do not
load scipy.linalg.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from .distributions import SampleBatch, ou_forward
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


def input_noise(n: int, dim: int, seed: int, k: int) -> np.ndarray:
    """xi_k ~ N(0, I_dim), round k's (n, dim) draw in `multistep`; xi_1
    is one_step's input."""
    return derive_rng(seed, "xi", k).standard_normal((n, dim))


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
    z = cm(input_noise(n, cm.dim, seed, 1), float(times[0]))
    out = [SampleBatch(points=z)]
    for k, t_k in enumerate(times[1:], start=2):
        t_k = float(t_k)
        xi = input_noise(n, cm.dim, seed, k)
        z = cm(ou_forward(z, t_k - delta, xi), t_k)
        out.append(SampleBatch(points=z))
    return out


def ou_smooth(batch: SampleBatch, tau: float, seed: int) -> SampleBatch:
    """One application of the forward OU kernel over time tau."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    xi = derive_rng(seed, "ou-smooth").standard_normal(batch.points.shape)
    return SampleBatch(points=ou_forward(batch.points, tau, xi))


def _ulmc_increment_cov(gamma: float, tau: float) -> tuple[float, float, float]:
    """Per-coordinate covariance (var_z, cov_zv, var_v) of the exact
    frozen-drift update over one step of length tau."""
    gt = gamma * tau
    if gt < 1e-3:
        # series around gamma*tau = 0 avoids catastrophic cancellation;
        # numpy's powers give inf where Python's raise OverflowError
        tau = np.float64(tau)
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


def ulmc_run(score_model: ScoreModel, batch: SampleBatch, gamma: float,
             tau: float, n_steps: int, seed: int, *, t: float) -> SampleBatch:
    """Underdamped Langevin corrector with frozen-score steps toward the
    law whose score is score_model(., t): t is the diffusion time the
    batch is meant to follow, cm.delta for a consistency-map sample and 0
    for data.

    Velocities are initialised N(0, I).  Each step integrates
    dz = v dt, dv = (s(z_0) - gamma v) dt + sqrt(2 gamma) dW exactly over
    [0, tau] with the score frozen at the step's start position (the 2x2
    per-coordinate Gaussian increment is sampled in closed form).  With
    gamma = 0 the update is the noiseless ballistic limit.

    With gamma > 0, a one-worker pool fills step k + 1's (2, n, d) noise
    slot, the one of two that step k does not read, while step k's score
    and mean update run; one fill has the bits of the (n, d) draws eta1
    and eta2 in turn.  The step's stream is
    derived in the calling thread, and the step writes into z, v and
    the score's array in the formula's operand order, so the result is
    bit for bit that of drawing and computing in line.  The rule that
    keeps it so: a pool thread runs only elementwise numpy and RNG fills
    on arrays that it alone owns, and never calls BLAS or shares a
    generator.  The pool is joined before the function returns.
    """
    if gamma < 0 or tau <= 0:
        raise ValueError("need gamma >= 0 and tau > 0")
    z = batch.points.copy()
    v = derive_rng(seed, "ulmc-v0").standard_normal(z.shape)
    # a step too long for tau**2, tau**3 or the drift leaves inf and NaN
    # entries, which SampleBatch rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if gamma == 0.0:
            half_sq = 0.5 * np.float64(tau)**2
            for k in range(n_steps):
                s0 = score_model(z, t)
                z = z + tau * v + half_sq * s0
                v = v + tau * s0
            return SampleBatch(points=z)

        decay = np.exp(-gamma * tau)
        var_z, cov_zv, var_v = _ulmc_increment_cov(gamma, tau)
        # Cholesky factor of the 2x2 increment covariance; var_z (about
        # gamma tau^3) underflows to 0 first, and then the z increment is
        # deterministic and v keeps its whole variance
        lz = np.sqrt(var_z)
        lvz = cov_zv / lz if lz > 0 else 0.0
        lvv = np.sqrt(max(var_v - lvz**2, 0.0))
        diff = np.empty_like(z)
        noise = np.empty((2, 2, *z.shape))
        with ThreadPoolExecutor(1) as pool:

            def draw(k):
                return pool.submit(
                    derive_rng(seed, "ulmc-step", k).standard_normal,
                    out=noise[k % 2])

            pending = draw(0) if n_steps else None
            for k in range(n_steps):
                ahead = draw(k + 1) if k + 1 < n_steps else None
                # drift = s0 / gamma;
                # z_mean = z + drift tau + (1 - decay) (v - drift) / gamma;
                # v_mean = drift + decay (v - drift)
                drift = score_model(z, t)
                np.divide(drift, gamma, out=drift)
                np.subtract(v, drift, out=diff)
                np.multiply(decay, diff, out=v)
                np.add(drift, v, out=v)
                np.multiply(drift, tau, out=drift)
                np.add(z, drift, out=z)
                np.multiply(1.0 - decay, diff, out=diff)
                np.divide(diff, gamma, out=diff)
                np.add(z, diff, out=z)
                # z = z_mean + lz eta1; v = v_mean + lvz eta1 + lvv eta2
                pending.result()
                eta1, eta2 = noise[k % 2]
                np.add(z, np.multiply(lz, eta1, out=diff), out=z)
                np.add(v, np.multiply(lvz, eta1, out=diff), out=v)
                np.add(v, np.multiply(lvv, eta2, out=diff), out=v)
                pending = ahead
    return SampleBatch(points=z)


def ulmc_mean_contraction(gamma: float, t: float) -> float:
    """m(t) / m(0) for the mean of the exact underdamped Langevin dynamics
    toward N(0, I) (score -z), started with mean velocity zero.

    The mean obeys m'' = -m - gamma m', so (m, m') evolves by the matrix
    exponential of [[0, 1], [-1, -gamma]] t.  Closed forms: cos t at
    gamma = 0, e^{-t} (1 + t) at gamma = 2.
    """
    if gamma < 0 or t < 0:
        raise ValueError("need gamma >= 0 and t >= 0")
    a = np.array([[0.0, 1.0], [-1.0, -gamma]]) * t
    return float(scipy.linalg.expm(a)[0, 0])

