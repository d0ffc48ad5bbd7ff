"""The row-major mixture score kernel that `cmlab.distributions` replaced:
an (n, K, d) layout with scipy's logsumexp.  Kept verbatim as the
reference that the coordinate-major kernel must equal bit for bit.
"""

import numpy as np
from scipy.special import logsumexp

from cmlab.distributions import (_LOG_FLOOR, DegenerateDensityError,
                                 MixtureParams, marginal_at)


def _posterior(dist: MixtureParams, t: float, x: np.ndarray):
    """The posterior over p_t's components at a batch x of shape (n, d):
    responsibilities (n, K), per-component scores -(x - m_i) / s_i^2
    (n, K, d), and p_t itself.

    Responsibilities are formed in log space with log-sum-exp, so far-tail
    points do not underflow.  A zero variance entry in p_t raises
    DegenerateDensityError: a zero-variance component keeps it at t = 0,
    and at any t so small that 1 - e^{-2t} rounds to 0.
    """
    mix = marginal_at(dist, t)
    if np.any(mix.variances == 0.0):
        raise DegenerateDensityError(
            f"density is degenerate at t={t}: a component has zero "
            "variance; use a larger t")
    # A far-out or NaN point gives NaN here, not a warning; callers that
    # integrate the score reject the non-finite value.
    with np.errstate(over="ignore", invalid="ignore"):
        # log w_i + log N(x; m_i, diag(s_i^2)), shape (n, K)
        diff = x[:, None, :] - mix.means[None, :, :]          # (n, K, d)
        sq_dist = np.sum(diff * diff / mix.variances[None, :, :], axis=2)
        lognorm = np.sum(np.log(2.0 * np.pi * mix.variances), axis=1)  # (K,)
        logw = np.where(mix.weights > 0,
                        np.log(np.maximum(mix.weights, 1e-300)), _LOG_FLOOR)
        logterms = logw[None, :] - 0.5 * (sq_dist + lognorm[None, :])
        log_p = logsumexp(logterms, axis=1, keepdims=True)
        resp = np.exp(np.maximum(logterms - log_p, _LOG_FLOOR))
        grad_i = -diff / mix.variances[None]
    return resp, grad_i, mix


def _mixture_score(dist: MixtureParams, t: float, x: np.ndarray
                   ) -> np.ndarray:
    """The general score kernel: the responsibility-weighted mean of the
    per-component scores."""
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
