import numpy as np
import pytest
from scipy.special import erf

from cmlab.distributions import MixtureParams
from cmlab.metrics import (tv_gaussian_1d, w2_1d_exact, w2_fit_pair,
                           w2_gaussian, w2_gaussian_fit, w2_sliced)


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

    def test_method_label(self):
        x = np.random.default_rng(0).normal(size=(100, 2))
        assert w2_sliced(x, x, seed=0).method == "sliced"


class TestW2Gaussian:
    def test_identical_zero(self):
        p = MixtureParams.standard_normal(2)
        assert w2_gaussian(p, p).value == 0.0

    def test_scale_difference(self):
        p = MixtureParams.standard_normal(3)
        q = MixtureParams.gaussian(np.zeros(3), 4.0 * np.ones(3))
        assert w2_gaussian(p, q).value == pytest.approx(np.sqrt(3))

    def test_translation_only(self):
        p = MixtureParams.gaussian([0.0, 0.0], [1.0, 1.0])
        q = MixtureParams.gaussian([3.0, 4.0], [1.0, 1.0])
        assert w2_gaussian(p, q).value == pytest.approx(5.0)

    def test_requires_single_component(self):
        two = MixtureParams(np.array([0.5, 0.5]), np.zeros((2, 1)),
                            np.ones((2, 1)))
        with pytest.raises(ValueError):
            w2_gaussian(two, MixtureParams.standard_normal(1))


class TestGaussianFit:
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


class TestTvGaussian1d:
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

