import numpy as np
import pytest
from scipy.stats import norm

from cmlab.acceptance import DEFAULT_SEED
from cmlab.distributions import (DegenerateDensityError, MixtureParams,
                                 SampleBatch, hessian_bound_bounded_support,
                                 marginal_at, sample, score, score_hessian)
from cmlab.rng import derive_seed


def bimodal_1d():
    return MixtureParams(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-2.0], [2.0]]),
        variances=np.array([[0.1], [0.1]]),
    )


def bimodal_1d_log_density(t, x):
    """log p_t at x (1, 1) for bimodal_1d, written out by hand: the OU
    marginal of 0.5 N(-2, 0.1) + 0.5 N(2, 0.1) at time t."""
    mean, var = 2.0 * np.exp(-t), 0.1 * np.exp(-2 * t) - np.expm1(-2 * t)
    sd = np.sqrt(var)
    return np.log(0.5 * norm.pdf(x, -mean, sd) + 0.5 * norm.pdf(x, mean, sd))


class TestMixtureParams:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureParams(np.array([0.6, 0.6]), np.zeros((2, 1)),
                          np.ones((2, 1)))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MixtureParams(np.array([1.0]), np.zeros((1, 1)),
                          -np.ones((1, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MixtureParams(np.array([1.0]), np.zeros((2, 1)),
                          np.ones((2, 1)))

    def test_json_round_trip(self):
        dist = bimodal_1d()
        back = MixtureParams.from_dict({"weights": dist.weights.tolist(),
                                        "means": dist.means.tolist(),
                                        "vars": dist.variances.tolist()})
        assert np.array_equal(back.weights, dist.weights)
        assert np.array_equal(back.means, dist.means)
        assert np.array_equal(back.variances, dist.variances)

    def test_json_uses_documented_keys(self):
        raw = {"weights": [1.0], "means": [[0.0]], "variances": [[1.0]]}
        with pytest.raises(ValueError, match=r"unknown keys .*'variances'"):
            MixtureParams.from_dict(raw)
        with pytest.raises(KeyError, match="vars"):
            MixtureParams.from_dict({"weights": [1.0], "means": [[0.0]]})


class TestSampleBatch:
    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((0, 2)),
                                        np.zeros((2, 2, 2)), 1.0],
                             ids=["1-d", "no-rows", "3-d", "scalar"])
    def test_only_a_2d_batch_with_rows_is_accepted(self, points):
        with pytest.raises(ValueError, match=r"need an \(n, d\) array"):
            SampleBatch(points=points)

    def test_2d_batch_is_kept_as_floats(self):
        batch = SampleBatch(points=[[1, 2], [3, 4]])
        assert batch.points.dtype == float and batch.points.shape == (2, 2)


class TestSample:
    def test_standard_normal_mean_within_clt_band(self):
        n = 100_000
        batch = sample(MixtureParams.standard_normal(2), n, 7)
        assert np.linalg.norm(batch.points.mean(axis=0)) <= 4 * np.sqrt(2 / n)

    def test_bimodal_symmetric_mean(self):
        n = 100_000
        batch = sample(bimodal_1d(), n, 11)
        # second moment of the mixture is 4.1, so the CLT band uses it
        assert abs(batch.points.mean()) <= 4 * np.sqrt(4.1 / n)

    def test_determinism(self):
        a = sample(bimodal_1d(), 500, 3)
        b = sample(bimodal_1d(), 500, 3)
        assert np.array_equal(a.points, b.points)

    def test_sampled_moments_match_marginal(self):
        dist = bimodal_1d()
        n = 50_000
        for t in (0.1, 0.7):
            mt = marginal_at(dist, t)
            pts = sample(mt, n, 5).points
            mean_true = np.sum(mt.weights[:, None] * mt.means, axis=0)
            m2 = np.sum(mt.weights[:, None]
                        * (mt.means**2 + mt.variances), axis=0)
            var_true = m2 - mean_true**2
            assert np.all(np.abs(pts.mean(axis=0) - mean_true)
                          <= 5 * np.sqrt(var_true / n) + 5 / np.sqrt(n))
            assert np.all(np.abs(pts.var(axis=0) - var_true)
                          <= 5 * var_true * np.sqrt(2.0 / n) + 5 / np.sqrt(n))


class TestMarginal:
    def test_stationary_fixed_point(self):
        dist = MixtureParams.standard_normal(3)
        for t in (0.2, 1.0, 5.0):
            mt = marginal_at(dist, t)
            assert np.allclose(mt.means, 0.0)
            assert np.allclose(mt.variances, 1.0)

    def test_single_gaussian_closed_form(self):
        dist = MixtureParams.gaussian(np.zeros(2), 4.0 * np.ones(2))
        mt = marginal_at(dist, np.log(2.0))
        assert np.allclose(mt.variances, 1.75)

    def test_point_masses(self):
        dist = MixtureParams.point_masses([[-2.0], [2.0]])
        t = 0.6
        mt = marginal_at(dist, t)
        assert np.allclose(mt.means.ravel(),
                           [-2 * np.exp(-t), 2 * np.exp(-t)])
        assert np.allclose(mt.variances, 1 - np.exp(-2 * t))

    def test_t_zero_is_identity(self):
        dist = bimodal_1d()
        mt = marginal_at(dist, 0.0)
        assert np.array_equal(mt.means, dist.means)
        assert np.array_equal(mt.variances, dist.variances)


class TestScore:
    def test_stationary_score_is_negative_x(self):
        dist = MixtureParams.standard_normal(2)
        x = derive_points(2)
        for t in (0.0, 0.5, 3.0):
            assert np.allclose(score(dist, t, x), -x)

    def test_symmetric_mixture_vanishes_at_origin(self):
        assert score(bimodal_1d(), 0.3, np.array([[0.0]])) \
            == pytest.approx(0.0)

    def test_single_gaussian_closed_form(self):
        dist = MixtureParams.gaussian([1.0], [4.0])
        t = 0.8
        s2 = 4 * np.exp(-2 * t) + 1 - np.exp(-2 * t)
        x = np.array([[0.7]])
        expect = -(x - np.exp(-t) * 1.0) / s2
        assert np.allclose(score(dist, t, x), expect)

    def test_degenerate_at_t_zero_raises(self):
        dist = MixtureParams.point_masses([[0.0]])
        with pytest.raises(DegenerateDensityError):
            score(dist, 0.0, np.array([[0.5]]))

    def test_matches_finite_difference_gradient(self):
        dist = bimodal_1d()
        rng = np.random.default_rng(0)
        step = 1e-5
        for _ in range(20):
            x = rng.normal(scale=2.0, size=(1, 1))
            t = rng.uniform(0.1, 2.0)
            fd = (bimodal_1d_log_density(t, x + step)
                  - bimodal_1d_log_density(t, x - step)) / (2 * step)
            s = score(dist, t, x)[0]
            assert abs(fd - s) <= 1e-6 * max(1.0, abs(s))


def hessian_norms(dist, t, x):
    """Operator norm (largest |eigenvalue|) of each row's score Hessian."""
    eig = np.linalg.eigvalsh(score_hessian(dist, t, x))
    return np.max(np.abs(eig), axis=1)


class TestHessian:
    def test_stationary_norm_is_one(self):
        dist = MixtureParams.standard_normal(2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=(1, 2))
            assert hessian_norms(dist, 0.7, x)[0] == pytest.approx(1.0)

    def test_single_gaussian_closed_form(self):
        dist = MixtureParams.gaussian(np.zeros(2), 4.0 * np.ones(2))
        t = 0.4
        s2 = 4 * np.exp(-2 * t) + 1 - np.exp(-2 * t)
        val = hessian_norms(dist, t, np.array([[0.3, -1.0]]))[0]
        assert val == pytest.approx(1.0 / s2, rel=1e-10)

    def test_matches_finite_difference_jacobian(self):
        dist = bimodal_1d()
        rng = np.random.default_rng(2)
        step = 1e-5
        for _ in range(10):
            x = rng.normal(scale=2.0, size=(1, 1))
            t = rng.uniform(0.2, 1.5)
            fd = (score(dist, t, x + step)
                  - score(dist, t, x - step)) / (2 * step)
            hess = score_hessian(dist, t, x)
            assert abs(fd[0, 0] - hess[0, 0, 0]) <= 1e-4

    def test_batch_is_its_rows_at_criterion_7_points(self):
        # criterion 7 reports the largest norm over each batch, so its
        # record must not depend on whether the rows are taken together
        dist = MixtureParams.circle_point_masses(2.0, 8)
        for j, t in enumerate((0.1, 0.5, 1.0)):
            x = sample(marginal_at(dist, t), 100,
                       derive_seed(DEFAULT_SEED, "hess", j)).points
            hess = score_hessian(dist, t, x)
            assert hess.shape == (100, 2, 2)
            rows = [score_hessian(dist, t, x[i:i + 1]) for i in range(100)]
            assert np.array_equal(hess, np.concatenate(rows))
            assert np.array_equal(np.linalg.eigvalsh(hess),
                                  [np.linalg.eigvalsh(h) for h in hess])

    def test_circle_masses_obey_bounded_support_bound(self):
        dist = MixtureParams.circle_point_masses(2.0, 8)
        rng = np.random.default_rng(3)
        for t in (0.1, 0.5, 1.0):
            bound = hessian_bound_bounded_support(2.0, t)
            pts = sample(marginal_at(dist, t), 50, int(rng.integers(2**31)))
            assert np.all(hessian_norms(dist, t, pts.points) <= bound + 1e-9)

    def test_bound_value_at_half(self):
        # e^{-1} * 4 / (1 - e^{-1})^2 + 1 / (1 - e^{-1})
        expect = (np.exp(-1) * 4 / (1 - np.exp(-1)) ** 2
                  + 1 / (1 - np.exp(-1)))
        assert hessian_bound_bounded_support(2.0, 0.5) == pytest.approx(expect)


def derive_points(d, n=5, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))
