import gc
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmlab import distributions, flows
from cmlab.distributions import MixtureParams, marginal_at, sample, score
from cmlab.flows import (StepUnderflowError, exp_integrator_step,
                         integrate_reference, pf_field)
from cmlab.harness import fit_loglog
from cmlab.models import (ScoreModel, discretized_cm, empirical_cm,
                          exact_cm, exact_score_model, perturb_score)
from cmlab.schedule import uniform_grid


def wide_gaussian(d=1):
    return MixtureParams.gaussian(np.zeros(d), 4.0 * np.ones(d))


def s_t(t, var0=4.0):
    return np.sqrt(var0 * np.exp(-2 * t) + 1 - np.exp(-2 * t))


def exact_field(dist):
    return pf_field(exact_score_model(dist))


def consistency_exact(dist, x, t, delta):
    return exact_cm(dist, delta)(x, t)


class TestRhs:
    def test_stationary_field_vanishes(self):
        dist = MixtureParams.standard_normal(2)
        x = np.array([[0.4, -1.2]])
        assert np.allclose(exact_field(dist)(x, 0.9), 0.0)

    def test_symmetric_mixture_origin(self):
        dist = MixtureParams(np.array([0.5, 0.5]),
                             np.array([[-2.0], [2.0]]),
                             np.array([[0.1], [0.1]]))
        assert exact_field(dist)(np.array([[0.0]]), 0.5) \
            == pytest.approx(0.0)

    def test_single_gaussian_closed_form(self):
        dist = wide_gaussian()
        t = 0.6
        x = np.array([[1.4]])
        expect = x * (1.0 / s_t(t) ** 2 - 1.0)
        assert np.allclose(exact_field(dist)(x, t), expect)


class TestExpIntegrator:
    def test_zero_score_is_pure_growth(self):
        zero = exact_score_model(MixtureParams.standard_normal(1))
        zero = type(zero)(fn=lambda x, t: np.zeros_like(x), dim=1)
        x = np.array([[2.0]])
        out = exp_integrator_step(zero, x, 1.0, 0.75)
        assert np.allclose(out, np.exp(0.25) * x)

    def test_stationary_score_fixed_point(self):
        sm = exact_score_model(MixtureParams.standard_normal(2))
        x = np.array([[0.3, -0.7]])
        assert np.allclose(exp_integrator_step(sm, x, 1.0, 0.5), x)

    def test_precondition(self):
        sm = exact_score_model(MixtureParams.standard_normal(1))
        with pytest.raises(ValueError):
            exp_integrator_step(sm, np.array([[1.0]]), 0.5, 0.5)

    def test_local_error_is_second_order(self):
        # one step against the closed-form Gaussian flow x * s_lo / s_hi
        dist = wide_gaussian()
        sm = exact_score_model(dist)
        x = np.array([[1.0]])
        t_hi = 1.0
        errs = []
        hs = [0.1, 0.05, 0.025, 0.0125]
        for h in hs:
            t_lo = t_hi - h
            out = exp_integrator_step(sm, x, t_hi, t_lo)
            exact = x * s_t(t_lo) / s_t(t_hi)
            errs.append(float(np.abs(out - exact).max()))
        fit = fit_loglog(hs, errs)
        assert abs(fit["slope"] - 2.0) <= 0.2
        # Richardson ratio between successive halvings is about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestExpIntegratorInPlace:
    """The step uses the score's array as scratch space; it must give the
    bits of the formula written out and leave x as it was."""

    @staticmethod
    def formula(score_model, x, t_hi, t_lo):
        growth = np.exp(t_hi - t_lo)
        return growth * x + (growth - 1.0) * score_model(x, t_hi)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_formula(self, data):
        d = data.draw(st.integers(1, 6), label="d")
        n = data.draw(st.integers(0, 300), label="n")
        t_lo = data.draw(st.floats(1e-3, 3.0), label="t_lo")
        dt = data.draw(st.sampled_from([1e-9, 1e-3, 0.025, 0.3, 5.0, 800.0]),
                       label="dt")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, d))
        s_fixed = rng.normal(size=(n, d))
        for a in (x, s_fixed):
            for bad in (np.nan, -np.nan, np.inf, -np.inf, -0.0, 1e160,
                        -1e160):
                for i in rng.integers(n, size=rng.integers(3)) if n else ():
                    a[i, rng.uniform(size=d) < 0.5] = bad
        k = data.draw(st.sampled_from([0, 1, 2]), label="components")
        if k:
            dist = MixtureParams(np.array([[1.0], [0.6, 0.4]][k - 1]),
                                 rng.normal(size=(k, d)),
                                 rng.uniform(0.1, 2.0, (k, d)))
            sm = exact_score_model(dist)
        else:
            sm = ScoreModel(fn=lambda y, t: s_fixed.copy(), dim=d)
        x_before = x.copy()
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            expect = self.formula(sm, x, t_lo + dt, t_lo)
            got = exp_integrator_step(sm, x, t_lo + dt, t_lo)
            # the sum on two parts of the rows, and a K = 1 score too
            mp.setattr(distributions, "_SPLIT_ROWS", 16)
            split = exp_integrator_step(sm, x, t_lo + dt, t_lo)
        assert np.array_equal(bits(got), bits(expect))
        assert np.array_equal(bits(split), bits(expect))
        assert np.array_equal(bits(x), bits(x_before))

    def test_one_step_holds_two_batches(self):
        # the product growth * x and the score's own array: the formula
        # written out holds a third, (growth - 1) * s, next to them
        sm = exact_score_model(wide_gaussian(2))
        x = np.random.default_rng(7).normal(size=(50_000, 2))
        exp_integrator_step(sm, x, 1.0, 0.9)
        tracemalloc.start()
        try:
            exp_integrator_step(sm, x, 1.0, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    @pytest.mark.parametrize("n", [16, 37, 61, 200])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_split_step_keeps_nan_signs(self, monkeypatch, n, d):
        # where NaNs of both signs meet, numpy keeps one operand's inside
        # whole SIMD vectors and the other's in a loop's scalar remainder;
        # a cut at a multiple of 8 rows leaves the remainder where it was
        monkeypatch.setattr(distributions, "_SPLIT_ROWS", 16)
        rng = np.random.default_rng(100 * n + d)
        x = rng.normal(size=(n, d))
        s_fixed = rng.normal(size=(n, d))
        x[rng.uniform(size=(n, d)) < 0.4] = np.nan
        s_fixed[rng.uniform(size=(n, d)) < 0.4] = -np.nan
        sm = ScoreModel(fn=lambda y, t: s_fixed.copy(), dim=d)
        with np.errstate(invalid="ignore"):
            expect = self.formula(sm, x, 0.6, 0.5)
            got = exp_integrator_step(sm, x, 0.6, 0.5)
        assert np.array_equal(bits(got), bits(expect))

    @pytest.mark.parametrize("x_nan, s_nan", [(-np.nan, np.nan),
                                              (np.nan, -np.nan)])
    def test_one_entry_keeps_the_formulas_nan(self, x_nan, s_nan):
        # numpy runs a one-entry add whose out is its first operand as a
        # reduction, which keeps the other operand's NaN
        s_fixed = np.array([[s_nan]])
        sm = ScoreModel(fn=lambda y, t: s_fixed.copy(), dim=1)
        x = np.array([[x_nan]])
        with np.errstate(invalid="ignore"):
            expect = self.formula(sm, x, 0.6, 0.5)
            got = exp_integrator_step(sm, x, 0.6, 0.5)
        assert np.array_equal(bits(got), bits(expect))

    def test_split_step_holds_two_batches(self):
        # 50,000 rows split (test_large_steps_split)
        x = np.random.default_rng(7).normal(size=(50_000, 2))
        sm = exact_score_model(wide_gaussian(2))
        exp_integrator_step(sm, x, 1.0, 0.9)
        tracemalloc.start()
        try:
            exp_integrator_step(sm, x, 1.0, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    @pytest.mark.parametrize("pieces, parts", [
        ([50_000], [25_000, 25_000]), ([16_200, 16_200], [32_400])],
        ids=["march-step", "stacked-measure-step"])
    def test_large_steps_split(self, monkeypatch, pieces, parts):
        # criterion 1 marches 50,000 rows a step; criterion 3 stacks its
        # pairs into steps of up to 32,400 rows, which run in line
        seen = {"score": [], "sum": []}
        score_rows = distributions._gaussian_score_rows
        split = flows.split_rows

        def record(kernel, fn):
            return lambda *a: (seen[kernel].append(
                (a[0].shape[0], threading.get_ident())), fn(*a))[1]

        monkeypatch.setattr(distributions, "_gaussian_score_rows",
                            record("score", score_rows))
        monkeypatch.setattr(flows, "split_rows",
                            lambda fn, *a: split(record("sum", fn), *a))
        cm = discretized_cm(exact_score_model(wide_gaussian(2)),
                            uniform_grid(0.4, 0.6, 1.0))
        rng = np.random.default_rng(3)
        cm.many([(rng.normal(size=(n, 2)), 1.0) for n in pieces])
        caller = threading.get_ident()
        for kernel in ("score", "sum"):
            got = seen[kernel]
            assert sorted(r for r, _ in got) == parts
            assert [r for r, ident in got if ident == caller] == parts[:1]
            assert len({ident for _, ident in got}) == len(parts)


class TestReferenceIntegrator:
    def test_stationary_identity(self):
        dist = MixtureParams.standard_normal(2)
        x = np.array([[0.2, 1.5]])
        out = integrate_reference(exact_field(dist), x, 1.0, 0.01)
        assert np.allclose(out, x, atol=1e-8)

    def test_gaussian_closed_form_flow(self):
        dist = wide_gaussian()
        x = np.array([[1.0], [-0.5]])
        out = integrate_reference(exact_field(dist), x, 1.0, 0.01, tol=1e-10)
        expect = x * s_t(0.01) / s_t(1.0)
        assert np.allclose(out, expect, atol=1e-9)

    def test_tighter_tol_is_more_accurate(self):
        dist = wide_gaussian()
        x = np.array([[1.0]])
        expect = x * s_t(0.01) / s_t(1.0)
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            out = integrate_reference(exact_field(dist), x, 1.0, 0.01,
                                      tol=tol)
            errs.append(float(np.abs(out - expect).max()))
        assert errs[2] <= errs[0]

    def test_direction_precondition(self):
        dist = wide_gaussian()
        with pytest.raises(ValueError):
            integrate_reference(exact_field(dist), np.array([[1.0]]),
                                0.5, 0.5)

    def test_blow_up_raises_step_underflow(self):
        # dx/dt = -10 x^2 from x(1) = 1 has x(t) = 1 / (1 + 10 (t - 1)),
        # which blows up at t = 0.9, before the end time 0.5
        with pytest.raises(StepUnderflowError, match=r"\[0\.5, 1\.0\]"):
            integrate_reference(lambda x, t: -10 * x**2, np.array([[1.0]]),
                                1.0, 0.5)

    def test_pushforward_moments_match_marginal(self):
        dist = wide_gaussian(2)
        n = 4000
        x = sample(marginal_at(dist, 2.0), n, 17).points
        out = integrate_reference(exact_field(dist), x, 2.0, 0.5, tol=1e-8)
        mt = marginal_at(dist, 0.5)
        assert np.all(np.abs(out.mean(axis=0))
                      <= 5 * np.sqrt(mt.variances[0] / n))
        assert np.all(np.abs(out.var(axis=0) - mt.variances[0])
                      <= 5 * mt.variances[0] * np.sqrt(2.0 / n))


def ring():
    # the benchmark's oracle ring: 8 components on a circle of radius 3
    angles = 2 * np.pi * np.arange(8) / 8
    means = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return MixtureParams(np.full(8, 1.0 / 8), means, np.full((8, 2), 0.1))


class TestStepper:
    """flows.solve_ivp drives scipy's RK45 stepper itself; it must take
    the steps scipy.integrate.solve_ivp takes, to the same end state."""

    @pytest.mark.parametrize("dist, n, t_from", [
        (MixtureParams.standard_normal(2), 2000, 2.0),
        (ring(), 500, 1.0),
        (wide_gaussian(), 300, 1.0)],
        ids=["stationary", "ring", "1d-wide"])
    def test_matches_scipy_solve_ivp(self, dist, n, t_from):
        import scipy.integrate

        x = sample(marginal_at(dist, t_from), n, 11).points
        field = exact_field(dist)
        shape = x.shape

        def rhs(t, y):
            return field(y.reshape(shape), t).ravel()

        tol = flows.DEFAULT_TOL
        expect = scipy.integrate.solve_ivp(rhs, (t_from, 0.01), x.ravel(),
                                           method="RK45", rtol=tol,
                                           atol=tol)
        got = flows.solve_ivp(rhs, (t_from, 0.01), x.ravel(), tol, tol)
        assert expect.status == got.status == 0
        assert np.array_equal(bits(got.y), bits(expect.y[:, -1]))
        assert got.nfev == expect.nfev
        assert got.t == expect.t.tolist()
        assert np.array_equal(
            bits(integrate_reference(field, x, t_from, 0.01)),
            bits(expect.y[:, -1].reshape(shape)))

    def test_exact_map_keeps_only_its_output(self):
        # with the cyclic GC off, neither the steps' states nor the
        # solver (a reference cycle holding its stage matrix) may outlive
        # the solve
        dist = MixtureParams.standard_normal(2)
        x = np.random.default_rng(5).normal(size=(20_000, 2))
        cm = exact_cm(dist, 0.01)
        cm(x[:10], 2.0)              # scipy.integrate loaded and warm
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = cm(x, 2.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert kept <= out.nbytes + 4096
        # the image's memory is one buffer of its own size
        owner = out if out.base is None else out.base
        assert owner.base is None and owner.nbytes == out.nbytes


class TestConsistencyMaps:
    # the consistency maps of `models` that are the reference-integrated
    # flow of a score's PF ODE: exact_cm and empirical_cm
    def test_stationary_exact_is_identity(self):
        dist = MixtureParams.standard_normal(2)
        x = np.array([[1.0, -1.0]])
        assert np.allclose(consistency_exact(dist, x, 1.5, 0.01), x,
                           atol=1e-8)

    def test_gaussian_exact_closed_form(self):
        dist = wide_gaussian()
        x = np.array([[0.8]])
        out = consistency_exact(dist, x, 1.2, 0.05)
        assert np.allclose(out, x * s_t(0.05) / s_t(1.2), atol=1e-8)

    def test_boundary_condition(self):
        dist = wide_gaussian()
        x = np.array([[0.8]])
        out = consistency_exact(dist, x, 0.05, 0.05)
        assert np.array_equal(out, x) and out is not x

    def test_semigroup_property(self):
        dist = wide_gaussian()
        x = np.array([[1.1]])
        t, s, delta = 1.5, 0.6, 0.05
        direct = consistency_exact(dist, x, t, delta)
        mid = integrate_reference(exact_field(dist), x, t, s)
        via = consistency_exact(dist, mid, s, delta)
        assert np.allclose(direct, via, atol=1e-8)

    def test_empirical_with_exact_score_matches_exact(self):
        # the exact score model only converts its input with np.asarray,
        # so its flow is the flow of a score model wrapping the bare exact
        # score, bit for bit
        dist = wide_gaussian()
        x = np.array([[0.9], [-1.3]])
        bare = ScoreModel(fn=lambda y, t: score(dist, t, y), dim=1)
        a = empirical_cm(bare, 0.05)(x, 1.0)
        b = consistency_exact(dist, x, 1.0, 0.05)
        assert np.array_equal(a, b)

    def test_empirical_perturbation_is_first_order(self):
        dist = wide_gaussian()
        x = np.array([[0.9]])
        f_ex = consistency_exact(dist, x, 1.0, 0.05)
        eps_list = [0.1, 0.05, 0.025]
        gaps = []
        for eps in eps_list:
            sm = perturb_score(dist, eps, 99)
            f_em = empirical_cm(sm, 0.05)(x, 1.0)
            gaps.append(float(np.linalg.norm(f_em - f_ex)))
        fit = fit_loglog(eps_list, gaps)
        assert abs(fit["slope"] - 1.0) <= 0.15

    def test_invertibility_along_trajectory(self):
        # forward flow (reverse-time integration upward) then consistency map
        dist = wide_gaussian()
        x0 = np.array([[0.5]])
        delta, t = 0.05, 1.0
        # closed-form forward flow of the PF ODE from delta up to t
        x_t = x0 * s_t(t) / s_t(delta)
        back = consistency_exact(dist, x_t, t, delta)
        assert np.allclose(back, x0, atol=1e-8)

