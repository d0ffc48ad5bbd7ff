import numpy as np
import pytest

from cmlab import models
from cmlab.distributions import MixtureParams, marginal_at, sample, score
from cmlab.flows import exp_integrator_step
from cmlab.harness import fit_loglog
from cmlab.models import (ScoreModel, discretized_cm, empirical_cm,
                          estimate_lipschitz, exact_cm, exact_score_model,
                          measure_cm_error, measure_score_error, memoized_cm,
                          perturb_cm, perturb_score, recover_score)
from cmlab.rng import derive_seed
from cmlab.schedule import build_grid, uniform_grid


def wide_gaussian(d=1):
    return MixtureParams.gaussian(np.zeros(d), 4.0 * np.ones(d))


def s_t(t, var0=4.0):
    return np.sqrt(var0 * np.exp(-2 * t) + 1 - np.exp(-2 * t))


class TestPerturbScore:
    def test_zero_target_is_exact(self):
        dist = wide_gaussian(2)
        sm = perturb_score(dist, 0.0, 5)
        ex = exact_score_model(dist)
        x = np.random.default_rng(0).normal(size=(10, 2))
        assert np.allclose(sm(x, 0.7), ex(x, 0.7))

    def test_measured_error_bounded_by_target(self):
        dist = wide_gaussian(2)
        grid = build_grid(0.05, 0.2, 1.0)
        sm = perturb_score(dist, 0.1, 5)
        eps = measure_score_error(sm, dist, grid, 300, 1)
        assert 0.0 < eps <= 0.1 * np.sqrt(2)

    def test_injection_is_exactly_linear(self):
        dist = wide_gaussian(2)
        grid = build_grid(0.05, 0.2, 1.0)
        e1 = measure_score_error(perturb_score(dist, 0.1, 5), dist, grid,
                                 300, 1)
        e2 = measure_score_error(perturb_score(dist, 0.2, 5), dist, grid,
                                 300, 1)
        assert e2 / e1 == pytest.approx(2.0, abs=1e-9)

    def test_exact_model_measures_zero(self):
        dist = wide_gaussian(2)
        grid = build_grid(0.05, 0.2, 1.0)
        assert measure_score_error(exact_score_model(dist), dist, grid,
                                   200, 1) <= 1e-14

    def test_measure_stable_across_seeds(self):
        dist = wide_gaussian(2)
        grid = build_grid(0.05, 0.2, 1.0)
        vals = [measure_score_error(perturb_score(dist, 0.1, 5), dist, grid,
                                    2000, s) for s in (1, 2, 3)]
        spread = max(vals) - min(vals)
        assert spread <= 3 * 0.1 * np.sqrt(2) / np.sqrt(2000) * 3


class TestPerturbCm:
    def test_zero_target_is_base(self):
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 1.0)
        base = discretized_cm(exact_score_model(dist), grid)
        pert = perturb_cm(base, 0.0, 9)
        x = np.random.default_rng(0).normal(size=(5, 1))
        assert np.allclose(pert(x, 1.0), base(x, 1.0))

    def test_boundary_condition_for_any_eps(self):
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 1.0)
        base = discretized_cm(exact_score_model(dist), grid)
        pert = perturb_cm(base, 0.5, 9)
        x = np.random.default_rng(1).normal(size=(100, 1))
        assert np.array_equal(pert(x, 0.05), x)

    def test_measured_error_linear_in_target(self):
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 1.0)
        sm = exact_score_model(dist)
        base = discretized_cm(sm, grid)
        e1, e2 = measure_cm_error([perturb_cm(base, 0.1, 9),
                                   perturb_cm(base, 0.2, 9)], sm, dist, grid,
                                  200, 1)
        assert e2 / e1 == pytest.approx(2.0, rel=1e-6)


class TestMeasureCmError:
    def test_stationary_empirical_is_consistent(self):
        dist = MixtureParams.standard_normal(1)
        sm = exact_score_model(dist)
        grid = build_grid(0.05, 0.2, 1.0)
        cm = empirical_cm(sm, 0.05)
        assert measure_cm_error([cm], sm, dist, grid, 100, 1)[0] <= 1e-6

    def test_empirical_cm_error_is_first_order_in_h(self):
        dist = wide_gaussian()
        sm = exact_score_model(dist)
        cm = empirical_cm(sm, 0.02)
        hs = [0.4, 0.2, 0.1]
        errs = [measure_cm_error([cm], sm, dist, build_grid(0.02, h, 1.6),
                                 150, 1)[0] for h in hs]
        fit = fit_loglog(hs, errs)
        assert abs(fit["slope"] - 1.0) <= 0.35

    def test_discretized_cm_is_exactly_consistent_on_its_grid(self):
        dist = wide_gaussian()
        sm = exact_score_model(dist)
        grid = build_grid(0.05, 0.2, 1.0)
        cm = discretized_cm(sm, grid)
        assert measure_cm_error([cm], sm, dist, grid, 150, 1)[0] <= 1e-12


class TestBoundary:
    # ConsistencyModel enforces f(x, delta) = x for every kind of model
    @staticmethod
    def all_kinds():
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 1.0)
        sm = exact_score_model(dist)
        return [exact_cm(dist, 0.05),
                empirical_cm(perturb_score(dist, 0.2, 3), 0.05),
                discretized_cm(sm, grid),
                perturb_cm(discretized_cm(sm, grid), 0.3, 4)]

    def test_all_model_kinds_are_identity_at_delta(self):
        x = np.random.default_rng(2).normal(size=(100, 1))
        for cm in self.all_kinds():
            out = cm(x, 0.05)
            assert np.array_equal(out, x) and out is not x
            assert np.array_equal(cm(x.tolist(), 0.05 + 5e-13), x)

    def test_all_model_kinds_reject_times_below_delta(self):
        x = np.zeros((3, 1))
        for cm in self.all_kinds():
            with pytest.raises(ValueError, match="need t >= delta"):
                cm(x, 0.05 - 1e-9)

    def test_discretized_marches_just_above_the_boundary(self):
        # past the boundary tolerance but within the march's grid-point
        # tolerance (1e-12 * T, T = 2), the map takes one tiny step to delta
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 2.0)
        cm = discretized_cm(exact_score_model(dist), grid)
        x = np.random.default_rng(3).normal(size=(10, 1))
        out = cm(x, 0.05 + 1.5e-12)
        assert out is not x and np.allclose(out, x, rtol=0, atol=1e-10)


class TestMany:
    # cm.many(pairs) is [cm(x, t) for x, t in pairs], bit for bit, for
    # every kind of model, however the pairs' batches end up stacked
    DELTA, T = 0.05, 2.0

    @classmethod
    def kinds(cls):
        dist = wide_gaussian()
        sm = exact_score_model(dist)
        two_stage = build_grid(cls.DELTA, 0.2, cls.T)
        uniform = uniform_grid(cls.DELTA, 0.3, cls.T)
        empirical = empirical_cm(perturb_score(dist, 0.2, 3), cls.DELTA)
        return {"exact": exact_cm(dist, cls.DELTA),
                "empirical": empirical,
                "discretized two-stage": discretized_cm(sm, two_stage),
                "discretized uniform": discretized_cm(sm, uniform),
                "perturbed discretized": perturb_cm(
                    discretized_cm(sm, two_stage), 0.3, 4),
                "perturbed empirical": perturb_cm(empirical, 0.3, 4)}

    @classmethod
    def pairs(cls, rows=(1, 7, 400)):
        # boundary, just past it, on a grid point of both grids (1.1), off
        # the grids, within 1e-12 * T of a grid point on either side, and T
        grid_pt, near = 1.1, 0.5e-12 * cls.T
        times = [cls.DELTA, cls.DELTA + 5e-13, grid_pt, 0.77, grid_pt,
                 grid_pt + near, grid_pt - near, cls.T, 0.77]
        rng = np.random.default_rng(6)
        return [(rng.normal(size=(rows[k % len(rows)], 1)), t)
                for k, t in enumerate(times)]

    def test_many_equals_one_call_per_pair(self):
        pairs = self.pairs()
        for name, cm in self.kinds().items():
            outs = cm.many(pairs)
            assert len(outs) == len(pairs), name
            for (x, t), out in zip(pairs, outs):
                assert np.array_equal(out, cm(x, t)), (name, t)
                assert out is not x, (name, t)

    def test_single_call_is_the_per_call_march(self):
        # the walk over one pair is the old march, one step per level
        dist = wide_gaussian()
        sm = exact_score_model(dist)
        for grid in (build_grid(self.DELTA, 0.2, self.T),
                     uniform_grid(self.DELTA, 0.3, self.T)):
            cm = discretized_cm(sm, grid)
            tol = 1e-12 * grid.T
            inner = grid.points[grid.points > grid.delta]
            for x, t in self.pairs()[2:]:     # the pairs above delta
                times = [t] + inner[inner < t - tol][::-1].tolist() \
                    + [grid.delta]
                y = x
                for hi, lo in zip(times[:-1], times[1:]):
                    y = exp_integrator_step(sm, y, hi, lo)
                assert np.array_equal(cm(x, t), y), t

    def test_a_pair_below_delta_or_at_nan_raises(self):
        for bad in (self.DELTA - 1e-9, float("nan")):
            pairs = self.pairs(rows=(3,))
            pairs.insert(4, (np.zeros((3, 1)), bad))
            for name, cm in self.kinds().items():
                with pytest.raises(ValueError, match="need t >= delta"):
                    cm.many(pairs)

    def test_no_pairs_give_no_images(self):
        for cm in self.kinds().values():
            assert cm.many([]) == []


class TestMeasureCmErrorWalk:
    # criterion 3's grid: delta = 0.01, h = 0.025, T = 2
    GRID = build_grid(0.01, 0.025, 2.0)

    @staticmethod
    def counting(dist):
        calls = []

        def fn(x, t):
            calls.append(x.shape[0])
            return score(dist, t, x)
        return ScoreModel(fn=fn, dim=dist.dim), calls

    @staticmethod
    def per_interval(cm, score_model, dist, grid, n_mc, seed):
        """measure_cm_error as two one-pair calls of cm per interval."""
        pts = grid.points
        worst = 0.0
        for n in range(pts.shape[0] - 1):
            t_lo, t_hi = pts[n], pts[n + 1]
            x = sample(marginal_at(dist, t_hi), n_mc,
                       derive_seed(seed, "eps-cm", n)).points
            xhat = exp_integrator_step(score_model, x, t_hi, t_lo)
            gap = cm(x, t_hi) - cm(xhat, t_lo)
            rms = float(np.sqrt(np.mean(np.sum(gap**2, axis=1))))
            worst = max(worst, rms / (t_hi - t_lo))
        return worst

    def test_perturbed_discretized_matches_per_interval_calls(self):
        dist = wide_gaussian(2)
        assert self.GRID.n_points == 82
        sm, calls = self.counting(dist)
        cm = perturb_cm(discretized_cm(sm, self.GRID), 0.1, 9)
        walked, = measure_cm_error([cm], sm, dist, self.GRID, 100, 5)
        assert len(calls) == 81 + 81 + 80      # xhat steps, two walks
        calls.clear()
        looped = self.per_interval(cm, sm, dist, self.GRID, 100, 5)
        # one march per call: 1 + 2 + ... + 81 and 0 + 1 + ... + 80 steps
        assert len(calls) == 81 + 81 * 82 // 2 + 80 * 81 // 2 == 6642
        assert walked == looped and walked > 0

    def test_empirical_matches_per_interval_calls(self):
        dist = wide_gaussian()
        sm = exact_score_model(dist)
        grid = build_grid(0.05, 0.2, 1.0)
        cm = empirical_cm(perturb_score(dist, 0.1, 2), grid.delta)
        assert measure_cm_error([cm], sm, dist, grid, 100, 1) \
            == [self.per_interval(cm, sm, dist, grid, 100, 1)]


    def test_one_draw_serves_every_model(self, monkeypatch):
        # the models share one draw of the pairs and one xhat step per
        # interval, and each gets the estimate it gets alone, bit for bit
        dist = wide_gaussian(2)
        sm = exact_score_model(dist)
        grid = build_grid(0.01, 0.1, 1.0)
        base = discretized_cm(sm, grid)
        cms = [perturb_cm(base, eps, 9) for eps in (0.2, 0.1, 0.05)]
        alone = [measure_cm_error([cm], sm, dist, grid, 100, 5)[0]
                 for cm in cms]
        draws, real_sample = [], models.sample

        def counted_sample(*args):
            draws.append(args[1])
            return real_sample(*args)

        monkeypatch.setattr(models, "sample", counted_sample)
        assert measure_cm_error(cms, sm, dist, grid, 100, 5) == alone
        assert draws == [100] * (grid.n_points - 1)
        memo = memoized_cm(base)
        assert measure_cm_error(
            [perturb_cm(memo, eps, 9) for eps in (0.2, 0.1, 0.05)],
            sm, dist, grid, 100, 5) == alone


class TestMemoizedCm:
    # memoized_cm(cm) gives cm's images bit for bit, and marches each
    # distinct (t, shape, bytes of x) once for as long as it is held
    DELTA, T = 0.05, 2.0
    GRID = build_grid(DELTA, 0.2, T)

    @classmethod
    def pairs(cls):
        rng = np.random.default_rng(8)
        one, many = rng.normal(size=(1, 1)), rng.normal(size=(400, 1))
        return [(many, cls.DELTA),                   # the boundary
                (one, 0.77), (one.copy(), 0.77),     # equal bytes, two arrays
                (many, 1.1), (many.copy(), cls.T),   # equal bytes, two times
                (many, 1.1)]                         # the same pair again

    def test_many_equals_the_wrapped_many(self):
        dist = wide_gaussian()
        pairs = self.pairs()
        for cm in (discretized_cm(exact_score_model(dist), self.GRID),
                   exact_cm(dist, self.DELTA)):
            expect = cm.many(pairs)
            memo = memoized_cm(cm)
            for _ in range(2):      # marched, then looked up
                outs = memo.many(pairs)
                assert len(outs) == len(pairs)
                for out, want in zip(outs, expect):
                    assert np.array_equal(out, want)
            assert all(np.array_equal(a, b) for a, b in zip(
                perturb_cm(memo, 0.3, 4).many(pairs),
                perturb_cm(cm, 0.3, 4).many(pairs)))

    def test_one_march_per_distinct_pair(self):
        sm, rows = TestMeasureCmErrorWalk.counting(wide_gaussian())
        cm = discretized_cm(sm, self.GRID)
        pairs = self.pairs()
        cm.many([pairs[1], pairs[3], pairs[4]])     # the distinct pairs
        once = rows.copy()
        rows.clear()
        memo = memoized_cm(cm)
        memo.many(pairs)
        memo.many(pairs[::-1])
        perturb_cm(memo, 0.3, 4).many(pairs)
        memo(pairs[2][0], 0.77)
        assert rows == once

    def test_images_are_read_only(self):
        memo = memoized_cm(discretized_cm(exact_score_model(wide_gaussian()),
                                          self.GRID))
        for x, t in self.pairs()[1:]:
            out = memo(x, t)
            with pytest.raises(ValueError, match="read-only"):
                out[0] = 0.0
        # at the boundary the model hands back a copy of x, as every
        # model does
        x, t = self.pairs()[0]
        assert memo(x, t).flags.writeable

    def test_new_bytes_behind_an_old_id_get_their_own_image(self):
        cm = discretized_cm(exact_score_model(wide_gaussian()), self.GRID)
        memo = memoized_cm(cm)
        rng = np.random.default_rng(9)
        sources = [rng.normal(size=(7, 1)) for _ in range(10)]
        x = sources[0].copy()
        assert np.array_equal(memo(x, 1.1), cm(x, 1.1))
        reused = 0
        for src in sources[1:]:
            old_id = id(x)
            del x                   # freed: the memo holds no reference
            x = src.copy()
            reused += id(x) == old_id
            assert np.array_equal(memo(x, 1.1), cm(x, 1.1))
        assert reused > 0           # CPython handed a freed id on
        x *= 2.0                    # the same array, new bytes
        assert np.array_equal(memo(x, 1.1), cm(x, 1.1))


class TestEstimateLipschitz:
    def test_stationary_identity_map(self):
        dist = MixtureParams.standard_normal(2)
        cm = exact_cm(dist, 0.01)
        lf = estimate_lipschitz(cm, dist, 1.0, 100, 3)
        assert lf == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_closed_form_ratio(self):
        dist = wide_gaussian()
        cm = exact_cm(dist, 0.05)
        t = 1.0
        lf = estimate_lipschitz(cm, dist, t, 100, 3)
        assert lf == pytest.approx(s_t(0.05) / s_t(t), rel=1e-3)


class TestRecoverScore:
    def test_stationary_recovery_is_exact(self):
        dist = MixtureParams.standard_normal(1)
        grid = build_grid(0.05, 0.2, 1.0)
        cm = empirical_cm(exact_score_model(dist), 0.05)
        rec = recover_score(cm, grid)
        x = np.random.default_rng(4).normal(size=(20, 1))
        assert np.allclose(rec(x, grid.points[1]), -x, atol=1e-9)

    def test_gaussian_recovery_matches_closed_form(self):
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 1.0)
        cm = empirical_cm(exact_score_model(dist), 0.05)
        rec = recover_score(cm, grid)
        t2 = float(grid.points[1])
        x = np.random.default_rng(5).normal(size=(20, 1))
        # first-order recovery: tolerance dominated by O(h1) truncation
        assert np.allclose(rec(x, t2), -x / s_t(t2) ** 2,
                           atol=0.05 * np.abs(x).max())

    def test_needs_two_grid_points(self):
        dist = wide_gaussian()
        grid = build_grid(0.05, 0.2, 1.0)
        cm = exact_cm(dist, 0.05)
        with pytest.raises(ValueError):
            recover_score(cm, type(grid)(delta=0.05, h=0.2, T=1.0,
                                         points=np.array([0.05]),
                                         stage_boundary=0))


def _ring(d):
    """Three components on a circle (d = 2) or a line (d = 1)."""
    means = np.array([[2.0, 0.0], [-1.0, 1.7], [-1.0, -1.7]])[:, :d]
    return MixtureParams(np.array([0.5, 0.3, 0.2]), means,
                         np.full((3, d), 0.3))


def _score_models():
    grid = build_grid(0.05, 0.2, 1.0)
    return {
        "exact-K1": exact_score_model(wide_gaussian(2)),
        # rows near overflow send K = 1 to the general kernel
        "exact-K1-far-rows": exact_score_model(
            MixtureParams.gaussian([1e152, 0.0], [1.0, 1.0])),
        # at d = 1 score returns a view of its own local sum
        "exact-K3-d1": exact_score_model(_ring(1)),
        "exact-K3-d2": exact_score_model(_ring(2)),
        "perturbed": perturb_score(_ring(2), 0.1, 5),
        "recovered": recover_score(
            discretized_cm(exact_score_model(_ring(2)), grid), grid),
    }


@pytest.mark.parametrize("name", list(_score_models()))
def test_score_model_returns_a_fresh_float_batch(name):
    """A score model returns a fresh float (n, d) array that its caller
    may overwrite, as exp_integrator_step does."""
    sm = _score_models()[name]
    x = np.random.default_rng(6).normal(size=(9, sm.dim))
    x_before = x.copy()
    a, b = sm(x, 0.7), sm(x, 0.7)
    for out in (a, b):
        assert out.dtype == np.float64 and out.shape == x.shape
        assert not np.shares_memory(out, x)
    assert not np.shares_memory(a, b)
    expect = b.copy()
    a[...] = np.nan          # the caller's to overwrite
    assert np.array_equal(b, expect, equal_nan=True)
    assert np.array_equal(x, x_before)
