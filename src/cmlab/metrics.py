"""Distance estimators between sample batches and analytic distributions.

Every estimator returns a MetricReport carrying the value, the method used,
the sample count, and a rough standard error where one is available, so
acceptance experiments can report measurement noise alongside the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from .distributions import MixtureParams, SampleBatch
from .rng import derive_rng


@dataclass(frozen=True)
class MetricReport:
    name: str
    value: float
    method: str
    n_used: int
    std_err: Optional[float] = None


def _as_points(batch) -> np.ndarray:
    if isinstance(batch, SampleBatch):
        return batch.points
    return np.asarray(batch, dtype=float)


def w2_1d_exact(batch_p, batch_q) -> MetricReport:
    """Exact empirical 1-D Wasserstein-2 via the sorted (quantile) coupling.

    Both batches must be one-dimensional and of equal size.
    """
    xp = _as_points(batch_p).reshape(-1)
    xq = _as_points(batch_q).reshape(-1)
    if xp.shape[0] != xq.shape[0]:
        raise ValueError("batches must have equal size for the exact coupling")
    sq = (np.sort(xp) - np.sort(xq)) ** 2
    w2 = float(np.sqrt(np.mean(sq)))
    n = sq.shape[0]
    if w2 > 0:
        # delta method: std err of sqrt(mean(sq))
        se = float(np.std(sq) / np.sqrt(n) / (2.0 * w2))
    else:
        se = 0.0
    return MetricReport("w2", w2, "1d-exact", n, se)


def w2_sliced(batch_p, batch_q, n_proj: int = 64,
              seed: int = 0) -> MetricReport:
    """Sliced Wasserstein-2: sqrt of the mean squared 1-D W2 over random
    unit-vector projections.

    For isotropic distributions the true W2 equals the sliced value times
    sqrt(d); callers comparing against analytic W2 values must apply that
    calibration themselves.
    """
    xp = _as_points(batch_p)
    xq = _as_points(batch_q)
    if xp.ndim != 2 or xq.ndim != 2 or xp.shape[1] != xq.shape[1]:
        raise ValueError("batches must be 2-D with matching dimension")
    d = xp.shape[1]
    if d == 1:
        rep = w2_1d_exact(xp, xq)
        return MetricReport("w2", rep.value, "sliced", rep.n_used, rep.std_err)
    rng = derive_rng(seed, "sliced-dirs")
    u = rng.standard_normal((n_proj, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = np.empty(n_proj)
    for j in range(n_proj):
        vals[j] = w2_1d_exact(xp @ u[j], xq @ u[j]).value ** 2
    w2 = float(np.sqrt(np.mean(vals)))
    se = float(np.std(vals) / np.sqrt(n_proj) / (2.0 * w2)) if w2 > 0 else 0.0
    return MetricReport("w2", w2, "sliced", min(xp.shape[0], xq.shape[0]), se)


def w2_gaussian(p: MixtureParams, q: MixtureParams) -> MetricReport:
    """Closed-form W2 between two single-component (diagonal) Gaussians."""
    if p.n_components != 1 or q.n_components != 1:
        raise ValueError("closed form requires single-component inputs")
    dmu = p.means[0] - q.means[0]
    dsig = np.sqrt(p.variances[0]) - np.sqrt(q.variances[0])
    w2 = float(np.sqrt(np.sum(dmu**2) + np.sum(dsig**2)))
    return MetricReport("w2", w2, "gaussian-closed-form", 0, 0.0)


def fit_gaussian(batch) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and full covariance of a batch."""
    x = _as_points(batch)
    mu = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, bias=False)
    cov = np.atleast_2d(cov)
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
    x = _as_points(batch)
    w2 = _bures_w2(*fit_gaussian(x), ref.means[0], np.diag(ref.variances[0]))
    return MetricReport("w2", w2, "gaussian-fit-bures", x.shape[0], None)


def w2_fit_pair(batch_a, batch_b) -> MetricReport:
    """W2 between the Gaussians fitted to two batches (full covariances),
    via the Bures metric."""
    xa = _as_points(batch_a)
    xb = _as_points(batch_b)
    w2 = _bures_w2(*fit_gaussian(xa), *fit_gaussian(xb))
    return MetricReport("w2", w2, "gaussian-fit-bures",
                        min(xa.shape[0], xb.shape[0]), None)


def tv_gaussian_1d(m1: float, s1: float, m2: float, s2: float) -> MetricReport:
    """Exact TV between N(m1, s1^2) and N(m2, s2^2) by adaptive quadrature
    of |p - q| / 2 split at the density crossing points."""
    if s1 <= 0 or s2 <= 0:
        raise ValueError("standard deviations must be > 0")

    def diff(x):
        return np.abs(norm.pdf(x, m1, s1) - norm.pdf(x, m2, s2)) / 2.0

    lo = min(m1 - 12 * s1, m2 - 12 * s2)
    hi = max(m1 + 12 * s1, m2 + 12 * s2)
    # crossing points of the two densities (roots of a quadratic in x)
    pts = sorted(_gaussian_crossings(m1, s1, m2, s2))
    knots = [lo] + [p for p in pts if lo < p < hi] + [hi]
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        val, _ = quad(diff, a, b, epsabs=1e-10, epsrel=1e-8, limit=200)
        total += val
    return MetricReport("tv", float(total), "gaussian-quadrature", 0, 1e-8)


def _gaussian_crossings(m1, s1, m2, s2) -> list[float]:
    a = 1.0 / s2**2 - 1.0 / s1**2
    b = 2.0 * (m1 / s1**2 - m2 / s2**2)
    c = m2**2 / s2**2 - m1**2 / s1**2 + 2.0 * np.log(s2 / s1)
    if abs(a) < 1e-300:
        return [-c / b] if abs(b) > 0 else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = np.sqrt(disc)
    return [(-b - r) / (2 * a), (-b + r) / (2 * a)]

