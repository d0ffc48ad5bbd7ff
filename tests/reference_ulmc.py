"""The Langevin corrector loop that `cmlab.samplers.ulmc_run` replaced:
it draws each step's noise in line and allocates its batches afresh.
Kept verbatim as the reference that the in-place loop, which fills the
next step's noise on a pool thread, must equal bit for bit.
"""

import numpy as np

from cmlab.distributions import SampleBatch
from cmlab.models import ScoreModel
from cmlab.rng import derive_rng
from cmlab.samplers import _ulmc_increment_cov


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
        for k in range(n_steps):
            s0 = score_model(z, t)
            drift = s0 / gamma
            z_mean = z + drift * tau + (1.0 - decay) * (v - drift) / gamma
            v_mean = drift + decay * (v - drift)
            rng = derive_rng(seed, "ulmc-step", k)
            eta1 = rng.standard_normal(z.shape)
            eta2 = rng.standard_normal(z.shape)
            z = z_mean + lz * eta1
            v = v_mean + lvz * eta1 + lvv * eta2
    return SampleBatch(points=z)
