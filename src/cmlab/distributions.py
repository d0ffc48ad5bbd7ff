"""Gaussian-mixture data distributions and their exact OU analytics.

Data distributions are mixtures of axis-aligned Gaussians (zero variance
entries allowed, so point masses and other bounded-support laws are
covered).  For this family everything the sampling theory consumes is
available in closed form: the noised marginal at any time, the score field
and its Hessian, returned per row of an (n, d) batch x.  `ou_forward` is
the one forward OU kernel that noises a sample, and `draw` the one mixture
draw; the samplers and the training objectives all call them.

Conventions: the forward process is the standard OU process
dx = -x dt + sqrt(2) dW, whose marginal at time t of a component
N(mu, diag(s0)) is N(e^{-t} mu, diag(e^{-2t} s0 + 1 - e^{-2t})).
"""

from __future__ import annotations

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

    @classmethod
    def from_dict(cls, obj: dict) -> "MixtureParams":
        """A mixture from its JSON object: keys weights, means and vars."""
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
    def point_masses(cls, points) -> "MixtureParams":
        """Equally weighted point masses, one per row of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k = points.shape[0]
        return cls(np.full(k, 1.0 / k), points, np.zeros_like(points))

    @classmethod
    def circle_point_masses(cls, radius: float, k: int) -> "MixtureParams":
        """k equally weighted point masses on a circle of the given radius
        in the plane."""
        angles = 2 * np.pi * np.arange(k) / k
        return cls.point_masses(
            radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


@dataclass(frozen=True)
class SampleBatch:
    """An n x d point set, n >= 1; any other shape is rejected."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"need an (n, d) array, n >= 1, not {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("batch contains NaN/Inf entries")
        object.__setattr__(self, "points", pts)


def draw(dist: MixtureParams, n: int, rng: np.random.Generator
         ) -> np.ndarray:
    """n i.i.d. points (n, d) from rng: the n components by weight, then
    the n Gaussian draws."""
    comp = rng.choice(dist.n_components, size=n, p=dist.weights)
    eps = rng.standard_normal((n, dist.dim))
    return dist.means[comp] + np.sqrt(dist.variances[comp]) * eps


def sample(dist: MixtureParams, n: int, seed: int) -> SampleBatch:
    """n >= 1 i.i.d. points drawn from the seed's own stream: the same
    (dist, n, seed) always yields bit-identical batches."""
    return SampleBatch(points=draw(dist, n,
                                   derive_rng(seed, "mixture-sample")))


def marginal_at(dist: MixtureParams, t: float) -> MixtureParams:
    """Exact OU marginal p_t as a mixture: means shrink by e^{-t}, each
    variance entry becomes e^{-2t} s0 + (1 - e^{-2t})."""
    if t < 0:
        raise ValueError("t must be >= 0")
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


def _posterior(dist: MixtureParams, t: float, x: np.ndarray):
    """The posterior over p_t's components at a batch x of shape (n, d):
    responsibilities (n, K), per-component scores -(x - m_i) / s_i^2
    (n, K, d), and p_t itself.

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
    return resp, grad_i, mix


def score(dist: MixtureParams, t: float, x: np.ndarray) -> np.ndarray:
    """Exact score grad log p_t(x) (n, d): the responsibility-weighted
    mean of the per-component scores."""
    resp, grad_i, _ = _posterior(dist, t, x)
    return np.sum(resp[:, :, None] * grad_i, axis=1)


def score_hessian(dist: MixtureParams, t: float, x: np.ndarray) -> np.ndarray:
    """Exact Hessians of log p_t at a batch x (n, d), one d x d matrix
    per row: (n, d, d).

    Uses the posterior-covariance representation
    H = sum_i r_i (g_i g_i^T - diag(1/s_i^2)) - g g^T  with
    g_i the per-component score and g the mixture score.  Sums over
    components are per-row products: a row's Hessian is that of the row
    alone, bit for bit."""
    resp, grad_i, mix = _posterior(dist, t, x)
    r = resp[:, None, :]                                  # (n, 1, K)
    g = np.matmul(r, grad_i)                              # (n, 1, d)
    h = -np.eye(x.shape[1]) * np.matmul(r, 1.0 / mix.variances)
    h = h + np.einsum("nk,nki,nkj->nij", resp, grad_i, grad_i)
    return h - np.swapaxes(g, 1, 2) * g


def hessian_bound_bounded_support(radius: float, t: float) -> float:
    """Closed-form Hessian-norm bound for data supported in B(0, R):
    e^{-2t} R^2 / (1 - e^{-2t})^2 + 1 / (1 - e^{-2t})."""
    a = np.exp(-2.0 * t)
    return float(a * radius**2 / (1.0 - a) ** 2 + 1.0 / (1.0 - a))
