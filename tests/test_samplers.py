import numpy as np
import pytest

from cmlab.distributions import MixtureParams, SampleBatch, marginal_at
from cmlab.metrics import w2_gaussian_fit, w2_sliced
from cmlab.models import ScoreModel, exact_cm, exact_score_model
from cmlab.samplers import (fixed_time_schedule, multistep, one_step,
                            ou_smooth, ulmc_mean_contraction, ulmc_run)
from cmlab.schedule import build_grid


def wide_gaussian(d=2):
    return MixtureParams.gaussian(np.zeros(d), 4.0 * np.ones(d))


def s_t(t, var0=4.0):
    return np.sqrt(var0 * np.exp(-2 * t) + 1 - np.exp(-2 * t))


class TestMultistepSchedule:
    def test_first_entry_must_be_largest(self):
        cm = exact_cm(wide_gaussian(), 0.01)
        with pytest.raises(ValueError):
            multistep(cm, [1.0, 2.0], 10, 0)

    def test_times_must_respect_delta(self):
        # the map's own delta is the lower end of the schedule
        cm = exact_cm(wide_gaussian(), 0.01)
        with pytest.raises(ValueError):
            multistep(cm, [1.0, 0.001], 10, 0)
        with pytest.raises(ValueError):
            multistep(exact_cm(wide_gaussian(), 0.05), [1.0, 0.02], 10, 0)

    def test_fixed_time_schedule_picks_nearest_grid_point(self):
        grid = build_grid(0.01, 0.05, 2.0)
        lf = 2.0
        times = fixed_time_schedule(grid, lf, 5)
        target = np.log(2 * lf) + 0.01
        nearest = grid.points[np.argmin(np.abs(grid.points - target))]
        assert times[0] == pytest.approx(2.0)
        assert np.allclose(times[1:], nearest)


class TestOneStep:
    def test_stationary_matches_fresh_batch(self):
        dist = MixtureParams.standard_normal(2)
        cm = exact_cm(dist, 0.01)
        n = 20_000
        batch = one_step(cm, 2.0, n, 3)
        fresh = np.random.default_rng(99).standard_normal((n, 2))
        floor = w2_sliced(np.random.default_rng(1).standard_normal((n, 2)),
                          fresh, seed=0).value
        assert w2_sliced(batch, fresh, seed=0).value <= 3 * floor

    def test_gaussian_error_matches_closed_form(self):
        # output law is N(0, (s_d/s_T)^2 I); W2 to p_delta is
        # sqrt(d) * |s_d/s_T - s_d|
        dist = wide_gaussian()
        delta, T = 0.01, 3.0
        cm = exact_cm(dist, delta)
        n = 50_000
        batch = one_step(cm, T, n, 7)
        meas = w2_gaussian_fit(batch, marginal_at(dist, delta)).value
        expect = np.sqrt(2) * abs(s_t(delta) / s_t(T) - s_t(delta))
        assert meas == pytest.approx(expect, abs=6 * s_t(delta) / np.sqrt(n))

    def test_error_decreases_with_horizon(self):
        dist = wide_gaussian()
        delta = 0.01
        cm = exact_cm(dist, delta)
        p_delta = marginal_at(dist, delta)
        errs = [w2_gaussian_fit(one_step(cm, T, 20_000, 7), p_delta).value
                for T in (1.0, 2.0, 3.0, 4.0)]
        # beyond T ~ 3 the analytic error sits below the fitted-covariance
        # noise floor (~0.02 at this n), so allow that much slack
        floor = 0.02
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + floor
        assert errs[-1] <= errs[0] / 4

    def test_precondition(self):
        cm = exact_cm(wide_gaussian(), 0.05)
        with pytest.raises(ValueError):
            one_step(cm, 0.01, 10, 0)


class TestMultistep:
    def test_k1_bitmatches_one_step(self):
        dist = wide_gaussian()
        cm = exact_cm(dist, 0.01)
        a = one_step(cm, 2.0, 200, 42)
        b = multistep(cm, [2.0], 200, 42)[0]
        assert np.array_equal(a.points, b.points)

    def test_stationary_every_round_is_standard_normal(self):
        dist = MixtureParams.standard_normal(2)
        cm = exact_cm(dist, 0.01)
        n = 20_000
        for batch in multistep(cm, [2.0, 0.8, 0.8], n, 11):
            assert np.all(np.abs(batch.points.mean(axis=0))
                          <= 5 / np.sqrt(n))
            assert np.all(np.abs(batch.points.var(axis=0) - 1.0)
                          <= 5 * np.sqrt(2.0 / n))

    def test_returns_all_rounds(self):
        dist = wide_gaussian()
        cm = exact_cm(dist, 0.01)
        assert len(multistep(cm, [2.0, 1.0, 1.0, 1.0], 50, 0)) == 4


class TestOuSmooth:
    def test_tau_zero_is_identity(self):
        batch = SampleBatch(
            points=np.random.default_rng(0).normal(size=(50, 2)))
        out = ou_smooth(batch, 0.0, 1)
        assert np.array_equal(out.points, batch.points)

    def test_preserves_standard_normal(self):
        n = 50_000
        pts = np.random.default_rng(1).standard_normal((n, 2))
        out = ou_smooth(SampleBatch(points=pts), 0.3, 2)
        assert np.all(np.abs(out.points.mean(axis=0)) <= 5 / np.sqrt(n))
        assert np.all(np.abs(out.points.var(axis=0) - 1.0)
                      <= 5 * np.sqrt(2.0 / n))

    def test_shrinks_mean_by_exp_tau(self):
        n = 100_000
        tau = 0.2
        pts = 0.5 + np.random.default_rng(2).standard_normal((n, 1))
        out = ou_smooth(SampleBatch(points=pts), tau, 3)
        assert out.points.mean() == pytest.approx(0.5 * np.exp(-tau),
                                                  abs=5 / np.sqrt(n))

    def test_negative_tau_rejected(self):
        batch = SampleBatch(points=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            ou_smooth(batch, -0.1, 0)


class TestUlmc:
    def _stationary_score(self):
        return exact_score_model(MixtureParams.standard_normal(2))

    def test_zero_steps_is_identity(self):
        batch = SampleBatch(
            points=np.random.default_rng(0).normal(size=(20, 2)), time_tag=0.0)
        out = ulmc_run(self._stationary_score(), batch, 1.0, 0.01, 0, 5)
        assert np.array_equal(out.points, batch.points)

    def test_stationary_variance_stays_near_one(self):
        n = 50_000
        tau = 0.02
        pts = np.random.default_rng(1).standard_normal((n, 2))
        batch = SampleBatch(points=pts, time_tag=0.0)
        out = ulmc_run(self._stationary_score(), batch, 1.0, tau, 100, 5)
        var = out.points.var(axis=0)
        assert np.all(var >= 1 - 5 * tau)
        assert np.all(var <= 1 + 5 * tau)

    def test_zero_friction_zero_score_is_ballistic(self):
        zero_score = ScoreModel(fn=lambda x, t: np.zeros_like(x), dim=2)
        pts = np.random.default_rng(2).normal(size=(30, 2))
        batch = SampleBatch(points=pts, time_tag=0.0)
        tau, n_steps, seed = 0.1, 7, 9
        out = ulmc_run(zero_score, batch, 0.0, tau, n_steps, seed)
        from cmlab.rng import derive_rng
        v0 = derive_rng(seed, "ulmc-v0").standard_normal(pts.shape)
        assert np.allclose(out.points, pts + n_steps * tau * v0, atol=1e-12)

    def test_invalid_params_rejected(self):
        batch = SampleBatch(points=np.zeros((2, 2)), time_tag=0.0)
        with pytest.raises(ValueError):
            ulmc_run(self._stationary_score(), batch, -1.0, 0.1, 1, 0)
        with pytest.raises(ValueError):
            ulmc_run(self._stationary_score(), batch, 1.0, 0.0, 1, 0)


class TestUlmcMeanContraction:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_frictionless_is_cosine(self, t):
        assert ulmc_mean_contraction(0.0, t) == pytest.approx(np.cos(t),
                                                              abs=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_critical_damping(self, t):
        assert ulmc_mean_contraction(2.0, t) == pytest.approx(
            np.exp(-t) * (1.0 + t), abs=1e-12)

    def test_unit_friction_unit_time(self):
        # e^{-1/2} (cos(sqrt(3)/2) + sin(sqrt(3)/2) / sqrt(3))
        assert ulmc_mean_contraction(1.0, 1.0) == pytest.approx(0.6597,
                                                                abs=1e-4)

    def test_least_unit_time_contraction_over_friction_is_cos_1(self):
        gammas = np.linspace(0.0, 10.0, 201)
        values = [ulmc_mean_contraction(g, 1.0) for g in gammas]
        assert min(values) >= 0.540
        assert min(values) == pytest.approx(np.cos(1.0), abs=1e-12)

    def test_matches_the_discrete_corrector_mean(self):
        # frozen-drift steps of 0.01 follow the continuous mean closely
        n, shift = 20_000, 0.5
        pts = shift + np.random.default_rng(3).standard_normal((n, 1))
        batch = SampleBatch(points=pts, time_tag=0.0)
        out = ulmc_run(exact_score_model(MixtureParams.standard_normal(1)),
                       batch, 1.0, 0.01, 100, 4)
        expected = pts.mean() * ulmc_mean_contraction(1.0, 1.0)
        assert abs(out.points.mean() - expected) <= 4 / np.sqrt(n)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ulmc_mean_contraction(-1.0, 1.0)
        with pytest.raises(ValueError):
            ulmc_mean_contraction(1.0, -1.0)
