import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import norm

from cmlab.distributions import MixtureParams
from cmlab.metrics import (_bures_w2, fit_gaussian, tv_gaussian_1d,
                           w2_1d_exact, w2_fit_pair, w2_gaussian_fit,
                           w2_sliced, w2_sliced_many)
from cmlab.rng import derive_rng


class TestW21dExact:
    def test_identical_batches_zero(self):
        x = np.random.default_rng(0).normal(size=(1000, 1))
        assert w2_1d_exact(x, x.copy()).value == 0.0

    def test_translated_gaussians(self):
        n = 100_000
        rng = np.random.default_rng(1)
        a = rng.standard_normal((n, 1))
        b = 0.5 + rng.standard_normal((n, 1))
        rep = w2_1d_exact(a, b)
        # the empirical quantile coupling carries O(sqrt(log n / n)) bias
        # on top of the reported std_err, so the band is wider than 3 se
        assert rep.value == pytest.approx(0.5, abs=0.01)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5000, 1))
        b = rng.normal(size=(5000, 1))
        v1 = w2_1d_exact(a, b).value
        v2 = w2_1d_exact(2 * a, 2 * b).value
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(2000, 1))
            b = rng.normal(loc=rng.normal(), size=(2000, 1))
            c = rng.normal(scale=1 + rng.random(), size=(2000, 1))
            ab = w2_1d_exact(a, b).value
            bc = w2_1d_exact(b, c).value
            ac = w2_1d_exact(a, c).value
            assert ac <= ab + bc + 1e-9

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            w2_1d_exact(np.zeros((10, 1)), np.zeros((11, 1)))

    def test_multi_column_batch_rejected(self):
        # flattened, these would be 200 1-d points at distance 1, where
        # the 2-d W2 is sqrt(2)
        x = np.random.default_rng(0).normal(size=(100, 2))
        with pytest.raises(ValueError, match=r"need \(n, 1\) batches"):
            w2_1d_exact(x, x + 1)


class TestPointsContract:
    @pytest.mark.parametrize("points", [np.zeros(10), np.zeros((0, 2)),
                                        np.zeros((5, 2, 2))],
                             ids=["1-d", "no-rows", "3-d"])
    def test_only_an_nd_batch_is_measured(self, points):
        ref = np.zeros((10, 2))
        for measure in (w2_sliced, w2_fit_pair):
            with pytest.raises(ValueError, match=r"need an \(n, d\) array"):
                measure(points, ref)
        with pytest.raises(ValueError, match=r"need an \(n, d\) array"):
            fit_gaussian(points)


class TestW2Sliced:
    def test_identical_zero(self):
        x = np.random.default_rng(0).normal(size=(500, 3))
        assert w2_sliced(x, x.copy(), seed=1).value == 0.0

    def test_isotropic_calibration(self):
        # N(0, I_2) vs N(0, 4 I_2): true W2 = sqrt(2); the sliced value
        # times sqrt(d) should match within 5%
        n = 100_000
        rng = np.random.default_rng(1)
        a = rng.standard_normal((n, 2))
        b = 2.0 * rng.standard_normal((n, 2))
        val = w2_sliced(a, b, n_proj=64, seed=2).value
        assert val * np.sqrt(2) == pytest.approx(np.sqrt(2), rel=0.05)

    def test_is_the_rms_of_exact_1d_projections(self):
        # bit for bit: each projection is an (n, 1) batch for w2_1d_exact
        rng = np.random.default_rng(7)
        a = rng.normal(size=(1000, 3))
        b = rng.normal(size=(1000, 3)) * [1.0, 2.0, 0.5]
        u = derive_rng(11, "sliced-dirs").standard_normal((16, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vals = np.array([w2_1d_exact((a @ v)[:, None], (b @ v)[:, None])
                         .value ** 2 for v in u])
        assert w2_sliced(a, b, n_proj=16, seed=11).value \
            == float(np.sqrt(np.mean(vals)))

    def test_many_is_each_batch_against_the_reference(self):
        # bit for bit the projections' formula written out, batch by batch
        rng = np.random.default_rng(8)
        ref = rng.normal(size=(1000, 3))
        batches = [rng.normal(size=(1000, 3)) * s for s in (1.0, 2.0, 0.5)]
        u = derive_rng(3, "sliced-dirs").standard_normal((16, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        expect = [float(np.sqrt(np.mean([
            w2_1d_exact((b @ v)[:, None], (ref @ v)[:, None]).value ** 2
            for v in u]))) for b in batches]
        got = w2_sliced_many(batches, ref, n_proj=16, seed=3)
        assert [r.value for r in got] == expect
        assert [w2_sliced(b, ref, n_proj=16, seed=3).value
                for b in batches] == expect

    def test_many_in_one_dimension_is_exact(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(400, 1))
        batches = [rng.normal(size=(400, 1)) + m for m in (0.0, 1.0)]
        assert [r.value for r in w2_sliced_many(batches, ref)] \
            == [w2_1d_exact(b, ref).value for b in batches]

    def test_many_sorts_each_reference_projection_once(self, monkeypatch):
        # five batches on 64 directions: 64 sorts of the reference and
        # 5 * 64 of the batches, where five calls of w2_sliced make 640
        calls = []
        sort = np.sort
        monkeypatch.setattr(np, "sort",
                            lambda a, *args, **kw: calls.append(1)
                            or sort(a, *args, **kw))
        rng = np.random.default_rng(10)
        ref = rng.normal(size=(50, 2))
        w2_sliced_many([rng.normal(size=(50, 2)) for _ in range(5)], ref)
        assert len(calls) == 64 + 5 * 64

    def test_many_rejects_a_mismatched_batch(self):
        ref = np.zeros((10, 2))
        with pytest.raises(ValueError, match="matching dimension"):
            w2_sliced_many([np.zeros((10, 2)), np.zeros((10, 3))], ref)
        with pytest.raises(ValueError, match="equal size"):
            w2_sliced_many([np.zeros((10, 2)), np.zeros((9, 2))], ref)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20_000, 2)) * [1.0, 2.0]
        b = rng.normal(size=(20_000, 2))
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        v1 = w2_sliced(a, b, n_proj=128, seed=5).value
        v2 = w2_sliced(a @ R.T, b @ R.T, n_proj=128, seed=5).value
        assert v2 == pytest.approx(v1, rel=0.15)


def bures_diag(mean_a, var_a, mean_b, var_b) -> float:
    """_bures_w2 between two diagonal Gaussians, given by means and
    per-coordinate variances."""
    return _bures_w2(np.asarray(mean_a, float), np.diag(var_a),
                     np.asarray(mean_b, float), np.diag(var_b))


class TestW2Gaussian:
    """On diagonal covariances the Bures distance reduces to the closed
    form sqrt(|dmu|^2 + |sqrt(var_a) - sqrt(var_b)|^2)."""

    def test_identical_zero(self):
        assert bures_diag([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]) \
            == 0.0

    def test_scale_difference(self):
        assert bures_diag(np.zeros(3), np.ones(3), np.zeros(3),
                          4.0 * np.ones(3)) == pytest.approx(np.sqrt(3))

    def test_translation_only(self):
        assert bures_diag([0.0, 0.0], [1.0, 1.0], [3.0, 4.0],
                          [1.0, 1.0]) == pytest.approx(5.0)

    def test_requires_single_component(self):
        two = MixtureParams(np.array([0.5, 0.5]), np.zeros((2, 1)),
                            np.ones((2, 1)))
        with pytest.raises(ValueError):
            w2_gaussian_fit(np.zeros((10, 1)), two)


class TestGaussianFit:
    def test_overflowing_moments_rejected_without_warning(self):
        x = 1e299 * np.random.default_rng(0).standard_normal((10, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                fit_gaussian(x)

    def test_fit_against_reference(self):
        n = 200_000
        pts = 2.0 * np.random.default_rng(0).standard_normal((n, 2))
        ref = MixtureParams.standard_normal(2)
        val = w2_gaussian_fit(pts, ref).value
        assert val == pytest.approx(np.sqrt(2), abs=0.02)

    def test_pair_fit(self):
        n = 200_000
        rng = np.random.default_rng(1)
        a = rng.standard_normal((n, 2))
        b = 0.3 + rng.standard_normal((n, 2))
        val = w2_fit_pair(a, b).value
        assert val == pytest.approx(0.3 * np.sqrt(2), abs=0.02)


def _tv_by_quadrature(m1, s1, m2, s2):
    """Reference: adaptive quadrature of |p - q| / 2 on a +-12 sigma window,
    split at the density crossings (roots of a quadratic in x)."""
    a = 1.0 / s2**2 - 1.0 / s1**2
    b = 2.0 * (m1 / s1**2 - m2 / s2**2)
    c = m2**2 / s2**2 - m1**2 / s1**2 + 2.0 * np.log(s2 / s1)
    if a == 0:
        pts = [-c / b] if b != 0 else []
    else:
        r = np.sqrt(max(b * b - 4 * a * c, 0.0))
        pts = sorted([(-b - r) / (2 * a), (-b + r) / (2 * a)])
    lo = min(m1 - 12 * s1, m2 - 12 * s2)
    hi = max(m1 + 12 * s1, m2 + 12 * s2)
    knots = [lo] + [p for p in pts if lo < p < hi] + [hi]

    def diff(x):
        return np.abs(norm.pdf(x, m1, s1) - norm.pdf(x, m2, s2)) / 2.0

    return sum(quad(diff, lo_k, hi_k, epsabs=1e-10, epsrel=1e-8,
                    limit=200)[0]
               for lo_k, hi_k in zip(knots[:-1], knots[1:]))


class TestTvGaussian1d:
    def test_matches_quadrature_on_random_pairs(self):
        # the quadrature asks only for 1e-8 relative accuracy
        rng = np.random.default_rng(0)
        for _ in range(40):
            m1, m2 = rng.uniform(-3.0, 3.0, 2)
            s1, s2 = rng.uniform(0.2, 3.0, 2)
            assert tv_gaussian_1d(m1, s1, m2, s2).value == pytest.approx(
                _tv_by_quadrature(m1, s1, m2, s2), abs=1e-6)

    def test_nearly_equal_variances_match_quadrature(self):
        # fitted Gaussians in the Langevin experiment differ in variance
        # by ~1e-3, which puts one crossing far out in the tails
        for s in (1.0 - 1e-3, 1.0 + 1e-6, 1.0 + 1e-12):
            assert tv_gaussian_1d(0.3, s, 0.0, 1.0).value == pytest.approx(
                _tv_by_quadrature(0.3, s, 0.0, 1.0), abs=1e-6)

    def test_equal_variances_match_erf(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m1, m2 = rng.uniform(-5.0, 5.0, 2)
            s = rng.uniform(0.1, 3.0)
            expect = erf(abs(m1 - m2) / (2.0 * np.sqrt(2.0) * s))
            assert abs(tv_gaussian_1d(m1, s, m2, s).value - expect) <= 1e-15

    def test_far_apart_densities_have_tv_one(self):
        assert tv_gaussian_1d(0.0, 1.0, 1e6, 1.0).value == 1.0
        assert tv_gaussian_1d(0.0, 1.0, 1e200, 1.0).value == 1.0

    def test_equal_parameters_zero(self):
        assert tv_gaussian_1d(0.3, 1.2, 0.3, 1.2).value <= 1e-12

    def test_translated_closed_form(self):
        expect = erf(0.25 / np.sqrt(2))
        assert tv_gaussian_1d(0.0, 1.0, 0.5, 1.0).value == pytest.approx(
            expect, abs=1e-8)

    def test_symmetry(self):
        v1 = tv_gaussian_1d(0.0, 1.0, 0.7, 1.5).value
        v2 = tv_gaussian_1d(0.7, 1.5, 0.0, 1.0).value
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            tv_gaussian_1d(0.0, 0.0, 0.0, 1.0)

