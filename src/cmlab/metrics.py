"""Distance estimators between sample batches and analytic distributions.

Batches are (n, d): a SampleBatch or a float array of that shape, and any
other shape is rejected.  Each estimator returns a MetricReport holding
its value.  The fitted W2 is the Bures distance between Gaussians fitted
to the batches; the TV between 1-d Gaussians is a closed form from normal
CDF differences, exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .distributions import MixtureParams, SampleBatch
from .rng import derive_rng


@dataclass(frozen=True)
class MetricReport:
    value: float


def _points(batch) -> np.ndarray:
    """The points of a SampleBatch, or an array checked as one: (n, d)
    floats, n >= 1, all finite."""
    if not isinstance(batch, SampleBatch):
        batch = SampleBatch(points=batch)
    return batch.points


def _w2_presorted(sp: np.ndarray, sq: np.ndarray) -> float:
    """Empirical W2 between two sorted 1-d point sets of equal size: the
    sorted (quantile) coupling."""
    if sp.shape[0] != sq.shape[0]:
        raise ValueError("batches must have equal size for the exact coupling")
    return float(np.sqrt(np.mean((sp - sq) ** 2)))


def w2_1d_exact(batch_p, batch_q) -> MetricReport:
    """Exact empirical 1-D Wasserstein-2 via the sorted (quantile) coupling.

    Both batches must be (n, 1) and of equal size.
    """
    xp, xq = _points(batch_p), _points(batch_q)
    if xp.shape[1] != 1 or xq.shape[1] != 1:
        raise ValueError(f"need (n, 1) batches, not {xp.shape} and "
                         f"{xq.shape}")
    return MetricReport(_w2_presorted(np.sort(xp[:, 0]), np.sort(xq[:, 0])))


def w2_sliced(batch_p, batch_q, n_proj: int = 64,
              seed: int = 0) -> MetricReport:
    """Sliced Wasserstein-2: sqrt of the mean squared 1-D W2 over random
    unit-vector projections.

    For isotropic distributions the true W2 equals the sliced value times
    sqrt(d); callers comparing against analytic W2 values must apply that
    calibration themselves.
    """
    return w2_sliced_many([batch_p], batch_q, n_proj, seed)[0]


def w2_sliced_many(batches, ref, n_proj: int = 64,
                   seed: int = 0) -> list[MetricReport]:
    """[w2_sliced(b, ref, n_proj, seed) for b in batches], with each of
    ref's projections sorted once for all the batches.  In d = 1 each is
    w2_1d_exact(b, ref)."""
    xps = [_points(b) for b in batches]
    xq = _points(ref)
    d = xq.shape[1]
    if any(xp.shape[1] != d for xp in xps):
        raise ValueError("batches must have matching dimension")
    if d == 1:
        return [w2_1d_exact(xp, xq) for xp in xps]
    rng = derive_rng(seed, "sliced-dirs")
    u = rng.standard_normal((n_proj, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = np.empty((len(xps), n_proj))
    for j in range(n_proj):
        sq = np.sort(xq @ u[j])
        for i, xp in enumerate(xps):
            vals[i, j] = _w2_presorted(np.sort(xp @ u[j]), sq) ** 2
    return [MetricReport(float(np.sqrt(np.mean(row)))) for row in vals]


def fit_gaussian(batch) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and full covariance of a batch; a batch whose moments
    overflow double precision is rejected."""
    x = _points(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.mean(axis=0)
        cov = np.atleast_2d(np.cov(x, rowvar=False, bias=False))
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
        raise ValueError("the fitted Gaussian is not finite: the batch's "
                         "moments overflow")
    return mu, cov


def _sqrtm_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _bures_w2(mu_a, cov_a, mu_b, cov_b) -> float:
    """W2 between N(mu_a, cov_a) and N(mu_b, cov_b) via the Bures metric."""
    root = _sqrtm_psd(cov_b)
    cross = _sqrtm_psd(root @ cov_a @ root)
    bures2 = float(np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross))
    w2sq = float(np.sum((mu_a - mu_b) ** 2)) + max(bures2, 0.0)
    return float(np.sqrt(max(w2sq, 0.0)))


def w2_gaussian_fit(batch, ref: MixtureParams) -> MetricReport:
    """W2 between the Gaussian fitted to a batch (full covariance) and a
    single-component diagonal reference, via the Bures metric."""
    if ref.n_components != 1:
        raise ValueError("reference must be a single Gaussian")
    return MetricReport(_bures_w2(*fit_gaussian(batch), ref.means[0],
                                  np.diag(ref.variances[0])))


def w2_fit_pair(batch_a, batch_b) -> MetricReport:
    """W2 between the Gaussians fitted to two batches (full covariances),
    via the Bures metric."""
    return MetricReport(_bures_w2(*fit_gaussian(batch_a),
                                  *fit_gaussian(batch_b)))


def tv_gaussian_1d(m1: float, s1: float, m2: float, s2: float) -> MetricReport:
    """Exact TV between N(m1, s1^2) and N(m2, s2^2) from normal CDFs.

    D = F1 - F2 is monotone between the density crossings r_j and
    vanishes at +-inf, so TV = (1/2) sum_j |D(r_{j+1}) - D(r_j)|.
    """
    if s1 <= 0 or s2 <= 0:
        raise ValueError("standard deviations must be > 0")
    r = np.array([-np.inf, *_gaussian_crossings(m1, s1, m2, s2), np.inf])
    # F1 - F2 as a difference of erfs, which keeps full relative precision
    # near the centre: F(r) = (1 + erf((r - m) / (s sqrt 2))) / 2
    d = 0.5 * (erf((r - m1) / (s1 * np.sqrt(2.0)))
               - erf((r - m2) / (s2 * np.sqrt(2.0))))
    tv = 0.5 * np.sum(np.abs(np.diff(d)))
    return MetricReport(float(tv))


def _gaussian_crossings(m1, s1, m2, s2) -> list[float]:
    """Points where the two densities cross.  Equal variances cross once,
    at the midpoint; otherwise the log-density ratio is a quadratic
    a x^2 + b x + c with two real roots, taken in the cancellation-free
    form q / a, c / q."""
    if s1 == s2:
        return [0.5 * m1 + 0.5 * m2]
    a = 1.0 / s2**2 - 1.0 / s1**2
    b = 2.0 * (m1 / s1**2 - m2 / s2**2)
    c = m2**2 / s2**2 - m1**2 / s1**2 + 2.0 * np.log(s2 / s1)
    q = -0.5 * (b + np.copysign(np.sqrt(max(b * b - 4 * a * c, 0.0)), b))
    return sorted([q / a, c / q])
