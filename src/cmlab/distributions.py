"""Gaussian-mixture data distributions and their exact OU analytics.

Data distributions are mixtures of axis-aligned Gaussians (zero variance
entries allowed, so point masses and other bounded-support laws are
covered).  For this family everything the sampling theory consumes is
available in closed form: the noised marginal at any time, the score field
and its Hessian, returned per row of an (n, d) batch x; a single
Gaussian's score is taken in the closed form -(x - m_t) / v_t, with the
general mixture kernel's bits (see `score`).  `ou_forward` is the one
forward OU kernel that noises a sample, and `draw` the one mixture draw;
the samplers and the training objectives all call them.

The score kernel is coordinate-major.  It takes and returns (n, d)
batches, but holds x inside as d rows of n entries, the posterior as
(K, n) responsibilities and (K, d, n) component scores: numpy runs an
(n, d) batch against a (1, d) or (1, K, d) operand d entries at a time,
about ten times slower than one pass over n entries.  Its reductions
repeat, row for row, the order of the row-major kernel it replaced (np.sum
over (n, K, d) and scipy's logsumexp), so every score has that kernel's
bits, the sign of a NaN aside: numpy's pairwise sum (`_pairwise`) over
the d terms of a squared distance and over the K terms of the
log-sum-exp, and over the K components of the score a sequential sum,
pairwise at d = 1, where numpy merges the two axes.  Where two NaNs of
opposite sign meet, numpy keeps the first operand's inside whole SIMD
vectors and the second's in the scalar remainder of a loop, so the old
kernel's NaN signs follow a row's place in the batch.  Here the n entries
are padded to a multiple of 8, every elementwise loop runs whole vectors,
and a row's bits, a NaN row's included, do not depend on its place.

Conventions: the forward process is the standard OU process
dx = -x dt + sqrt(2) dW, whose marginal at time t of a component
N(mu, diag(s0)) is N(e^{-t} mu, diag(e^{-2t} s0 + 1 - e^{-2t})).
"""

from __future__ import annotations

import contextvars
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import derive_rng

_WEIGHT_TOL = 1e-12
# log-space floor used when exponentiating responsibilities; below this the
# density underflows to 0 in double precision anyway
_LOG_FLOOR = -745.0


class DegenerateDensityError(ValueError):
    """Raised when a density-based quantity is requested at a time t at
    which a component of p_t has zero variance."""


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


def _ou_moments(dist: MixtureParams, t: float):
    """The means and variances of the exact OU marginal p_t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    decay = np.exp(-2.0 * t)
    return np.exp(-t) * dist.means, decay * dist.variances + (1.0 - decay)


def marginal_at(dist: MixtureParams, t: float) -> MixtureParams:
    """Exact OU marginal p_t as a mixture: means shrink by e^{-t}, each
    variance entry becomes e^{-2t} s0 + (1 - e^{-2t})."""
    means, variances = _ou_moments(dist, t)
    return MixtureParams(weights=dist.weights, means=means,
                         variances=variances)


def ou_forward(x: np.ndarray, tau: float, xi: np.ndarray) -> np.ndarray:
    """The forward OU kernel over time tau >= 0 driven by the standard
    normal draws xi: e^{-tau} x + sqrt(1 - e^{-2 tau}) xi, the identity at
    tau = 0."""
    return np.exp(-tau) * x + np.sqrt(-np.expm1(-2.0 * tau)) * xi


def _pairwise(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum over the leading axis of a: sequential below 8
    terms, eight interleaved partial sums up to 128, and above that the
    sum of the two halves split at a multiple of 8."""
    n = a.shape[0]
    if n < 8:
        total = a[0]
        for row in a[1:]:
            total = total + row
        return total
    if n <= 128:
        part = a[:8].copy()
        end = n - n % 8
        for i in range(8, end, 8):
            part += a[i:i + 8]
        total = (((part[0] + part[1]) + (part[2] + part[3]))
                 + ((part[4] + part[5]) + (part[6] + part[7])))
        for row in a[end:]:
            total = total + row
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(a[:half]) + _pairwise(a[half:])


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """The sum over the leading axis of a, with the bits np.sum gives over
    a contiguous last axis: 0.0 plus the pairwise sum."""
    return 0.0 + _pairwise(a)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_k exp(a_k) over the leading axis of a (K, n), step for step
    as scipy.special.logsumexp takes it over a row: the shifted sum of
    the terms below the row maximum, divided by the count m of maxima,
    log1p(s) + log(m) + max, and log(sum(exp(a))) where that is not
    finite.  The caller ignores the floating-point errors, as scipy
    does."""
    a_max = np.max(a, axis=0)
    top = a == a_max
    m = np.sum(top, axis=0, dtype=float)
    s = _pairwise_sum(np.exp(np.where(top, -np.inf, a) - a_max))
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = np.log(_pairwise_sum(np.exp(a[:, bad])))
    return out


def _posterior(dist: MixtureParams, t: float, x: np.ndarray):
    """The posterior over p_t's components at a batch x of shape (n, d),
    coordinate-major: responsibilities (K, n8), per-component scores
    -(x - m_i) / s_i^2 (K, d, n8), and p_t's variances (K, d).  The width
    n8 is n rounded up to a multiple of 8 (see the module docstring); the
    columns past n are padding.

    Responsibilities are formed in log space with log-sum-exp, so far-tail
    points do not underflow.  A zero variance entry in p_t raises
    DegenerateDensityError: a zero-variance component keeps it at t = 0,
    and at any t so small that 1 - e^{-2t} rounds to 0.
    """
    means, variances = _ou_moments(dist, t)
    if np.any(variances == 0.0):
        raise DegenerateDensityError(
            f"density is degenerate at t={t}: a component has zero "
            "variance; use a larger t")
    v = variances[:, :, None]
    # A far-out or NaN point gives NaN here, not a warning; callers that
    # integrate the score reject the non-finite value.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # log w_i + log N(x; m_i, diag(s_i^2)), shape (K, n8)
        xt = np.zeros((x.shape[1], -(-x.shape[0] // 8) * 8))
        xt[:, :x.shape[0]] = x.T
        diff = xt - means[:, :, None]                          # (K, d, n8)
        sq = diff * diff
        sq /= v
        sq_dist = _pairwise_sum(sq.swapaxes(0, 1))
        lognorm = np.sum(np.log(2.0 * np.pi * variances), axis=1)   # (K,)
        logw = np.where(dist.weights > 0,
                        np.log(np.maximum(dist.weights, 1e-300)), _LOG_FLOOR)
        logterms = logw[:, None] - 0.5 * (sq_dist + lognorm[:, None])
        log_p = _logsumexp(logterms)
        resp = np.exp(np.maximum(logterms - log_p, _LOG_FLOOR))
        grad_i = np.negative(diff, out=diff)
        grad_i /= v
    return resp, grad_i, variances


def split_rows(pool: Optional[Executor], fn, *arrays) -> list:
    """fn over the rows of (n, ...) arrays, cut at a row h that is a
    multiple of 8: [fn(rows below h), fn(rows from h)], the second on one
    of pool's workers while the first runs in the calling thread, and
    [fn(*arrays)] in line without a pool or below 16 rows.

    Both parts are done when it returns, also when one raises, and the
    worker runs in a copy of the caller's context, so numpy's errstate
    there is the caller's.  For elementwise fn each row's bits are those
    of one call on the whole arrays: h d entries are whole SIMD vectors,
    so the entries a loop leaves to its scalar remainder are the same
    (see the module docstring)."""
    h = arrays[0].shape[0] // 16 * 8
    if pool is None or h == 0:
        return [fn(*arrays)]
    ahead = pool.submit(contextvars.copy_context().run, fn,
                        *(a[h:] for a in arrays))
    try:
        first = fn(*(a[:h] for a in arrays))
    except BaseException:
        ahead.exception()           # wait: the worker writes into arrays
        raise
    return [first, ahead.result()]


def _gaussian_score_rows(x: np.ndarray, m: np.ndarray, v: np.ndarray,
                         out: np.ndarray) -> bool:
    """out = -(x - m) / v column by column, when the rows pass the
    closed form's overflow guard (see `score`); False, with out holding
    x - m, when they do not."""
    for j in range(x.shape[1]):
        np.subtract(x[:, j], m[j], out=out[:, j])
    # Python floats: the guard's own overflow gives inf, not a warning;
    # a NaN entry makes both extremes, and so reach, NaN
    reach = max(float(out.max(initial=0.0)), -float(out.min(initial=0.0)))
    if not (reach * reach * v.shape[0] < 1e300 * float(v.min())
            and v.max() < 1e300):
        return False
    for j in range(x.shape[1]):
        col = out[:, j]
        np.divide(col, v[j], out=col)
        np.subtract(0.0, col, out=col)
    return True


def score(dist: MixtureParams, t: float, x: np.ndarray, *,
          pool: Optional[Executor] = None) -> np.ndarray:
    """Exact score grad log p_t(x) (n, d): the responsibility-weighted
    mean of the per-component scores.

    The kernel works coordinate-major, on d rows of n entries, since
    numpy takes an (n, d) batch against a (1, d) operand d entries at a
    time; its sums repeat the row-major kernel's order (numpy's pairwise
    sums over d and, in the log-sum-exp, over K; over K in the score a
    sequential sum, pairwise at d = 1), so the score has that kernel's
    bits, as the module docstring explains.  A row's score is that of the
    row alone, bit for bit.

    A single Gaussian's score is the closed form -(x - m_t) / v_t, taken
    column by column and returned directly, with the same bits as the
    general kernel, when every row's squared distance is far from
    overflow: reach^2 * d < 1e300 * min v_t, where reach is the largest
    |x - m_t| entry, and max v_t < 1e300, so that log(2 pi v_t) is
    finite.  Then the one log-term is finite, the log-sum-exp returns it
    exactly and the responsibility is exp(0) = 1.0; the one-term sum over
    components adds 1.0 * g to 0.0, which 0.0 - (x - m_t) / v_t repeats,
    -0.0 entries turning into +0.0 included.  Any other batch (a row near
    overflow or NaN, a zero variance) takes the general kernel, which
    gives its NaN rows or raises.

    Given a pool, the closed form runs on two halves of the rows at once
    (`split_rows`), each checking the guard on its own rows; the batch
    takes the closed form when both pass, which is when the whole batch
    passes, with the same bits.  The general kernel ignores the pool."""
    if dist.n_components == 1:
        means, variances = _ou_moments(dist, t)
        m, v = means[0], variances[0]
        out = np.empty(x.shape)
        if all(split_rows(pool, lambda xs, outs: _gaussian_score_rows(
                xs, m, v, outs), x, out)):
            return out
    resp, grad_i, _ = _posterior(dist, t, x)
    terms = np.multiply(resp[:, None, :], grad_i, out=grad_i)  # (K, d, n8)
    if x.shape[1] == 1:
        total = _pairwise_sum(terms)
    else:
        total = 0.0 + terms[0]
        for term in terms[1:]:
            total += term
    return np.ascontiguousarray(total[:, :x.shape[0]].T)


def score_hessian(dist: MixtureParams, t: float, x: np.ndarray) -> np.ndarray:
    """Exact Hessians of log p_t at a batch x (n, d), one d x d matrix
    per row: (n, d, d).

    Uses the posterior-covariance representation
    H = sum_i r_i (g_i g_i^T - diag(1/s_i^2)) - g g^T  with
    g_i the per-component score and g the mixture score.  Sums over
    components are per-row products, taken on row-major copies of the
    posterior: a row's Hessian is that of the row alone, bit for bit."""
    resp, grad_i, variances = _posterior(dist, t, x)
    n = x.shape[0]
    resp = np.ascontiguousarray(resp[:, :n].T)            # (n, K)
    grad_i = np.ascontiguousarray(grad_i[:, :, :n].transpose(2, 0, 1))
    r = resp[:, None, :]                                  # (n, 1, K)
    g = np.matmul(r, grad_i)                              # (n, 1, d)
    h = -np.eye(x.shape[1]) * np.matmul(r, 1.0 / variances)
    h = h + np.einsum("nk,nki,nkj->nij", resp, grad_i, grad_i)
    return h - np.swapaxes(g, 1, 2) * g


def hessian_bound_bounded_support(radius: float, t: float) -> float:
    """Closed-form Hessian-norm bound for data supported in B(0, R):
    e^{-2t} R^2 / (1 - e^{-2t})^2 + 1 / (1 - e^{-2t})."""
    a = np.exp(-2.0 * t)
    return float(a * radius**2 / (1.0 - a) ** 2 + 1.0 / (1.0 - a))
