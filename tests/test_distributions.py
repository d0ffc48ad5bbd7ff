import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from cmlab import distributions
from cmlab.acceptance import DEFAULT_SEED
from cmlab.distributions import (DegenerateDensityError, MixtureParams,
                                 SampleBatch, _pairwise_sum,
                                 hessian_bound_bounded_support, marginal_at,
                                 sample, score, score_hessian, split_rows)
from cmlab.rng import derive_seed
from reference_kernel import _mixture_score
from reference_kernel import score_hessian as reference_hessian


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
        # off the point, at it (where x - m_t is 0) and an empty batch, at
        # t = 0 and at a t whose 1 - e^{-2t} rounds to 0
        for t in (0.0, 1e-20):
            for x in ([[0.5]], [[0.0]], np.empty((0, 1))):
                x = np.asarray(x, dtype=float)
                for fn in (score, score_hessian):
                    with pytest.raises(DegenerateDensityError):
                        fn(dist, t, x)

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


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestClosedFormScore:
    """A single Gaussian's score is -(x - m_t) / v_t in closed form; it
    must give the general kernel's bits, NaN rows and errors included."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_general_kernel(self, data):
        d = data.draw(st.integers(1, 8), label="d")
        n = data.draw(st.integers(1, 300), label="n")
        t = data.draw(st.just(0.0) | st.floats(0.0, 5.0, exclude_min=True),
                      label="t")
        # scales on both sides of the guard: diff^2 or v near overflow,
        # v below 1e-300, log(2 pi v) infinite at 1.7e308
        x_scale = data.draw(st.sampled_from(
            [1.0, 1e-160, 1e100, 1e149, 1e151, 1e160]), label="x_scale")
        v_scale = data.draw(st.sampled_from(
            [1.0, 1e-305, 1e-3, 1e200, 1e299, 1.7e308]), label="v_scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dist = MixtureParams.gaussian(x_scale * rng.normal(size=d),
                                      v_scale * rng.uniform(0.5, 1.0, d))
        x = x_scale * rng.normal(size=(n, d))
        # a row at the marginal mean scores 0.0, never -0.0
        x[rng.integers(n)] = marginal_at(dist, t).means[0]
        fast = score(dist, t, x)
        assert np.array_equal(bits(fast), bits(_mixture_score(dist, t, x)))
        with pytest.MonkeyPatch.context() as mp:    # split from 16 rows
            mp.setattr(distributions, "_SPLIT_ROWS", 16)
            assert np.array_equal(bits(score(dist, t, x)), bits(fast))
        i = int(rng.integers(n))
        assert np.array_equal(bits(score(dist, t, x[i:i + 1])),
                              bits(fast[i:i + 1]))

    @pytest.mark.parametrize("bad", [1e200, np.nan, np.inf])
    def test_far_or_nan_row_keeps_general_bits(self, bad):
        dist = MixtureParams.gaussian([0.3, -1.0], [2.0, 0.5])
        x = derive_points(2, n=6)
        x[2, 1] = bad
        out = score(dist, 0.7, x)
        assert np.array_equal(bits(out), bits(_mixture_score(dist, 0.7, x)))
        assert np.isnan(out).any(axis=1).tolist() == [
            False, False, True, False, False, False]
        for i in (0, 5):     # a finite row scores as it does alone
            assert np.array_equal(bits(score(dist, 0.7, x[i:i + 1])),
                                  bits(out[i:i + 1]))

    def test_empty_batch(self):
        dist = MixtureParams.gaussian([0.3, -1.0], [2.0, 0.5])
        assert score(dist, 0.7, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("bad", [None, 1e200, np.nan, np.inf])
    @pytest.mark.parametrize("row", [3, 30])
    def test_split_rows_keep_the_bits(self, monkeypatch, bad, row):
        # 40 rows are cut at 16: a far or NaN row in either half sends the
        # whole batch to the general kernel, as it does unsplit
        monkeypatch.setattr(distributions, "_SPLIT_ROWS", 16)
        dist = MixtureParams.gaussian([0.3, -1.0], [2.0, 0.5])
        x = derive_points(2, n=40)
        if bad is not None:
            x[row, 1] = bad
        got = score(dist, 0.7, x)
        assert np.array_equal(bits(got), bits(_mixture_score(dist, 0.7, x)))
        assert np.isnan(got).any() == (bad is not None)


class TestSplitRows:
    """Rows cut at a multiple of 8 near the middle, the second part on
    the module's worker thread; the tests split from 16 rows, not from
    _SPLIT_ROWS."""

    @pytest.fixture(autouse=True)
    def split_from_16_rows(self, monkeypatch):
        monkeypatch.setattr(distributions, "_SPLIT_ROWS", 16)

    def test_cut(self):
        def rows(a, b):
            assert a.shape[0] == b.shape[0]
            return a.shape[0], threading.get_ident()

        caller = threading.get_ident()
        for n, want in [(0, [0]), (15, [15]), (16, [8, 8]),
                        (37, [16, 21]), (50_000, [25_000, 25_000])]:
            x = np.empty((n, 3))
            got = split_rows(rows, x, x[:, :1])
            assert [r for r, _ in got] == want
            assert got[0][1] == caller
            if len(got) == 2:
                assert got[1][1] != caller

    def test_waits_for_the_worker_when_the_first_part_raises(self):
        done = []

        def part(a):
            if a[0, 0] == 0.0:
                raise ValueError("first part")
            time.sleep(0.05)
            done.append(a.shape[0])

        x = np.repeat(np.arange(32.0)[:, None], 2, axis=1)
        with pytest.raises(ValueError, match="first part"):
            split_rows(part, x)
        assert done == [16]

    def test_the_worker_keeps_the_callers_errstate(self):
        x = np.ones((32, 2))
        x[20] = 1e308       # overflows in the worker's part
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                split_rows(lambda a: a * 10.0, x)
        with np.errstate(over="ignore"):
            assert np.isinf(split_rows(lambda a: a * 10.0, x)[1][4]).all()

    def test_a_worker_error_reaches_the_caller(self):
        def part(a):
            if a[0, 0] != 0.0:
                raise MemoryError("second part")

        x = np.repeat(np.arange(32.0)[:, None], 2, axis=1)
        with pytest.raises(MemoryError, match="second part"):
            split_rows(part, x)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_splits(self):
        # the child has no copy of the parent's worker thread: a task
        # queued to the parent's executor would never run
        x = np.ones((32, 2))
        split_rows(np.sum, x)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(10)
                code = 0 if len(split_rows(np.sum, x)) == 2 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


def one_nan_bits(a):
    """bits(a) with every NaN made the one NaN np.nan.  Where two NaNs of
    opposite sign meet in a product or a sum, numpy returns the first
    operand's inside whole SIMD vectors and the second's in the scalar
    remainder of a loop whose length is not a multiple of 8, so the sign
    of the row-major kernel's NaN follows where its row sits in the
    batch."""
    a = np.ascontiguousarray(a)
    return bits(np.where(np.isnan(a), np.nan, a))


def random_mixture(data, k_min):
    """A mixture with K in [k_min, 20] components (some of zero weight),
    d in [1, 12], and an (n, d) batch, n in [0, 300], some of whose rows
    hold NaN, +-inf or 1e160 entries."""
    k = data.draw(st.integers(k_min, 20), label="K")
    d = data.draw(st.integers(1, 12), label="d")
    n = data.draw(st.integers(0, 300), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.integers(-3, 4)
    w = rng.uniform(0.1, 1.0, k) * (rng.uniform(size=k) < 0.7)
    w[rng.integers(k)] = 1.0
    dist = MixtureParams(w / w.sum(), scale * rng.normal(size=(k, d)),
                         scale**2 * rng.uniform(0.01, 2.0, (k, d)))
    x = 3.0 * scale * rng.normal(size=(n, d))
    for bad in (np.nan, np.inf, -np.inf, 1e160, -1e160):
        for i in rng.integers(n, size=rng.integers(3)) if n else ():
            x[i, rng.uniform(size=d) < 0.5] = bad
    return dist, x, rng


class TestKernelAgainstReference:
    """The coordinate-major kernel against the row-major one it replaced
    (tests/reference_kernel.py), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_score_and_hessian_equal_reference(self, data):
        dist, x, _ = random_mixture(data, 1)
        t = data.draw(st.floats(0.0, 5.0, exclude_min=True), label="t")
        for fn, reference in ((score, _mixture_score),
                              (score_hessian, reference_hessian)):
            try:
                expect = reference(dist, t, x)
            except DegenerateDensityError:
                with pytest.raises(DegenerateDensityError):
                    fn(dist, t, x)
                continue
            got = fn(dist, t, x)
            assert got.shape == expect.shape
            assert np.array_equal(one_nan_bits(got), one_nan_bits(expect))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_scores_as_it_does_alone(self, data):
        dist, x, rng = random_mixture(data, 2)
        if x.shape[0] == 0:
            return
        out = score(dist, 0.7, x)
        rows = [int(rng.integers(x.shape[0]))]
        rows += np.flatnonzero(~np.isfinite(x).all(axis=1))[:1].tolist()
        for i in rows:
            assert np.array_equal(bits(score(dist, 0.7, x[i:i + 1])),
                                  bits(out[i:i + 1]))


def test_pairwise_sum_is_numpys_sum():
    rng = np.random.default_rng(0)
    for length in range(1, 301):
        a = rng.normal(size=(length, 16)) \
            * 10.0 ** rng.integers(-12, 13, size=(length, 16))
        a[rng.uniform(size=a.shape) < 0.1] = -0.0
        expect = np.sum(np.ascontiguousarray(a.T), axis=1)
        assert np.array_equal(bits(_pairwise_sum(a)), bits(expect)), (
            f"length {length}: _pairwise_sum no longer repeats np.sum; "
            f"the installed numpy {np.__version__} likely sums a "
            "contiguous axis in another order")


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
