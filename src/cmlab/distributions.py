"""Gaussian-mixture data distributions and their exact OU analytics.

Data distributions are mixtures of axis-aligned Gaussians (zero variance
entries allowed, so point masses and other bounded-support laws are
covered).  For this family everything the sampling theory consumes is
available in closed form: the noised marginal at any time, the score field
and its Hessian.  `ou_forward` is the one forward OU kernel that noises a
sample; the samplers and the training objectives all call it.

Conventions: the forward process is the standard OU process
dx = -x dt + sqrt(2) dW, whose marginal at time t of a component
N(mu, diag(s0)) is N(e^{-t} mu, diag(e^{-2t} s0 + 1 - e^{-2t})).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .rng import derive_rng

_WEIGHT_TOL = 1e-12
# log-space floor used when exponentiating responsibilities; below this the
# density underflows to 0 in double precision anyway
_LOG_FLOOR = -745.0


class DegenerateDensityError(ValueError):
    """Raised when a density-based quantity is requested at t=0 for a
    mixture containing zero-variance components."""


@dataclass(frozen=True)
class MixtureParams:
    """Weights, means and per-coordinate variances of a Gaussian mixture.

    weights: (K,) nonnegative, sums to 1.
    means: (K, d).
    variances: (K, d) entrywise >= 0 (0 entries give point-mass directions).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if w.ndim != 1 or m.ndim != 2 or v.ndim != 2:
            raise ValueError("weights must be 1-d, means and variances 2-d")
        if m.shape != v.shape or m.shape[0] != w.shape[0]:
            raise ValueError(
                f"inconsistent shapes: weights {w.shape}, means {m.shape}, "
                f"variances {v.shape}"
            )
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("need K >= 1 components and d >= 1 dimensions")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        if np.any(v < 0):
            raise ValueError("variance entries must be >= 0")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def has_degenerate_component(self) -> bool:
        return bool(np.any(self.variances == 0.0))

    # -- serialization (schema documented in README: weights / means / vars) --

    def to_json(self) -> str:
        return json.dumps(
            {
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "vars": self.variances.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MixtureParams":
        obj = json.loads(text)
        unknown = set(obj) - {"weights", "means", "vars"}
        if unknown:
            raise ValueError(f"unknown keys in mixture JSON: {sorted(unknown)}")
        return cls(
            weights=np.asarray(obj["weights"], dtype=float),
            means=np.asarray(obj["means"], dtype=float),
            variances=np.asarray(obj["vars"], dtype=float),
        )

    # -- convenience constructors --

    @classmethod
    def gaussian(cls, mean, variance) -> "MixtureParams":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        variance = np.broadcast_to(
            np.asarray(variance, dtype=float), mean.shape
        ).copy()
        return cls(np.array([1.0]), mean[None, :], variance[None, :])

    @classmethod
    def standard_normal(cls, dim: int) -> "MixtureParams":
        return cls.gaussian(np.zeros(dim), np.ones(dim))

    @classmethod
    def point_masses(cls, points, weights=None) -> "MixtureParams":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k = points.shape[0]
        if weights is None:
            weights = np.full(k, 1.0 / k)
        return cls(np.asarray(weights, float), points, np.zeros_like(points))

    @classmethod
    def circle_point_masses(cls, radius: float, k: int, dim: int = 2
                            ) -> "MixtureParams":
        """k equally weighted point masses on a circle of the given radius,
        embedded in the first two coordinates."""
        angles = 2 * np.pi * np.arange(k) / k
        pts = np.zeros((k, dim))
        pts[:, 0] = radius * np.cos(angles)
        pts[:, 1] = radius * np.sin(angles)
        return cls.point_masses(pts)


@dataclass(frozen=True)
class SampleBatch:
    """An n x d point set."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("batch must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("batch contains NaN/Inf entries")
        object.__setattr__(self, "points", pts)


def sample(dist: MixtureParams, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. points: component by weight, then a Gaussian draw.

    Same (dist, n, seed) always yields bit-identical batches.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = derive_rng(seed, "mixture-sample")
    comp = rng.choice(dist.n_components, size=n, p=dist.weights)
    eps = rng.standard_normal((n, dist.dim))
    pts = dist.means[comp] + np.sqrt(dist.variances[comp]) * eps
    return SampleBatch(points=pts)


def marginal_at(dist: MixtureParams, t: float) -> MixtureParams:
    """Exact OU marginal p_t as a mixture: means shrink by e^{-t}, each
    variance entry becomes e^{-2t} s0 + (1 - e^{-2t})."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return dist
    decay = np.exp(-2.0 * t)
    return MixtureParams(
        weights=dist.weights,
        means=np.exp(-t) * dist.means,
        variances=decay * dist.variances + (1.0 - decay),
    )


def ou_forward(x: np.ndarray, tau: float, xi: np.ndarray) -> np.ndarray:
    """The forward OU kernel over time tau >= 0 driven by the standard
    normal draws xi: e^{-tau} x + sqrt(1 - e^{-2 tau}) xi, the identity at
    tau = 0."""
    return np.exp(-tau) * x + np.sqrt(-np.expm1(-2.0 * tau)) * xi


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _posterior(dist: MixtureParams, t: float, x: np.ndarray):
    """The posterior over p_t's components at a batch x of shape (n, d):
    log p_t(x) (n,), responsibilities (n, K), per-component scores
    -(x - m_i) / s_i^2 (n, K, d), and p_t itself.

    Responsibilities are formed in log space with log-sum-exp, so far-tail
    points do not underflow.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0 and dist.has_degenerate_component:
        raise DegenerateDensityError(
            "density is degenerate at t=0 for zero-variance components; "
            "use t > 0"
        )
    mix = marginal_at(dist, t)
    # log w_i + log N(x; m_i, diag(s_i^2)), shape (n, K)
    diff = x[:, None, :] - mix.means[None, :, :]          # (n, K, d)
    sq_dist = np.sum(diff * diff / mix.variances[None, :, :], axis=2)
    lognorm = np.sum(np.log(2.0 * np.pi * mix.variances), axis=1)  # (K,)
    logw = np.where(mix.weights > 0, np.log(np.maximum(mix.weights, 1e-300)),
                    _LOG_FLOOR)
    logterms = logw[None, :] - 0.5 * (sq_dist + lognorm[None, :])
    log_p = logsumexp(logterms, axis=1, keepdims=True)
    resp = np.exp(np.maximum(logterms - log_p, _LOG_FLOOR))
    grad_i = -diff / mix.variances[None]
    return log_p[:, 0], resp, grad_i, mix


def log_density(dist: MixtureParams, t: float, x) -> np.ndarray:
    """log p_t(x); x may be a single point (d,) or a batch (n, d)."""
    xb, single = _as_batch(x)
    out = _posterior(dist, t, xb)[0]
    return out[0] if single else out


def score(dist: MixtureParams, t: float, x) -> np.ndarray:
    """Exact score grad log p_t(x): the responsibility-weighted mean of
    the per-component scores."""
    xb, single = _as_batch(x)
    _, resp, grad_i, _ = _posterior(dist, t, xb)
    out = np.sum(resp[:, :, None] * grad_i, axis=1)
    return out[0] if single else out


def score_hessian(dist: MixtureParams, t: float, x) -> np.ndarray:
    """Exact d x d Hessian of log p_t at a single point x.

    Uses the posterior-covariance representation
    H = sum_i r_i (g_i g_i^T - diag(1/s_i^2)) - g g^T  with
    g_i the per-component score and g the mixture score.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    _, resp, grad_i, mix = _posterior(dist, t, x)
    resp, grad_i = resp[0], grad_i[0]                     # (K,), (K, d)
    g = resp @ grad_i
    h = -np.diag(resp @ (1.0 / mix.variances))
    h = h + np.einsum("k,ki,kj->ij", resp, grad_i, grad_i)
    h = h - np.outer(g, g)
    return h


def score_hessian_norm(dist: MixtureParams, t: float, x) -> float:
    """Operator norm (largest |eigenvalue|) of the exact score Hessian."""
    h = score_hessian(dist, t, x)
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def hessian_bound_bounded_support(radius: float, t: float) -> float:
    """Closed-form Hessian-norm bound for data supported in B(0, R):
    e^{-2t} R^2 / (1 - e^{-2t})^2 + 1 / (1 - e^{-2t})."""
    a = np.exp(-2.0 * t)
    return float(a * radius**2 / (1.0 - a) ** 2 + 1.0 / (1.0 - a))
