from dataclasses import replace

import numpy as np
import pytest

from cmlab.distributions import MixtureParams
from cmlab.models import exact_score_model
from cmlab.objectives import (ParametricCM, _loss_grads, _pairs, cd_loss,
                              ct_loss, grad_gap)
from cmlab.rng import derive_rng


def stationary():
    return MixtureParams.standard_normal(1)


def wide():
    return MixtureParams.gaussian([0.0], [4.0])


class TestParametricCM:
    def test_boundary_condition_for_random_theta(self):
        rng = np.random.default_rng(0)
        pcm = ParametricCM.create(2, 16, 1, 0.03,
                                  theta=rng.normal(size=(2, 16)))
        x = rng.normal(size=(50, 2))
        assert np.allclose(pcm(x, 0.03), x, atol=1e-14)

    def test_identity_at_zero_theta(self):
        pcm = ParametricCM.create(1, 8, 2, 0.01)
        x = np.random.default_rng(1).normal(size=(20, 1))
        assert np.allclose(pcm(x, 0.9), x)


class TestCdLoss:
    def test_identity_map_stationary_exact_score_is_zero(self):
        # the exponential-integrator step is a fixed point under the
        # stationary score, so both terms coincide
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        val = cd_loss(pcm, pcm, exact_score_model(stationary()),
                      stationary(), np.array([0.5, 0.7]), 5000, 3)
        assert val <= 1e-25

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        pcm = ParametricCM.create(1, 16, 0, 0.01,
                                  theta=rng.normal(size=(1, 16)))
        val = cd_loss(pcm, pcm, exact_score_model(wide()), wide(),
                      np.array([0.4, 0.6, 0.8]), 2000, 3)
        assert val >= 0.0

    def test_seeded_determinism(self):
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        args = (pcm, pcm, exact_score_model(wide()), wide(),
                np.array([0.4, 0.8]), 2000, 9)
        assert cd_loss(*args) == cd_loss(*args)

    def test_gradient_vanishes_at_global_minimum(self):
        # loss is exactly zero at theta = 0 on stationary data, so a small
        # parameter step changes it only at second order
        base = ParametricCM.create(1, 16, 0, 0.01)
        sm = exact_score_model(stationary())
        times = np.array([0.5, 0.7])
        e = 1e-4
        bumped = replace(base, theta=np.full((1, 16), e))
        l0 = cd_loss(base, base, sm, stationary(), times, 2000, 3)
        l1 = cd_loss(bumped, base, sm, stationary(), times, 2000, 3)
        assert (l1 - l0) <= 100 * e**2


class TestTimes:
    def test_losses_take_a_time_array_or_list(self):
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        sm = exact_score_model(wide())
        for times in (np.array([0.4, 0.6, 0.8]), [0.4, 0.6, 0.8]):
            assert cd_loss(pcm, pcm, sm, wide(), times, 500, 2) \
                == cd_loss(pcm, pcm, sm, wide(), (0.4, 0.6, 0.8), 500, 2)
            assert ct_loss(pcm, pcm, wide(), times, 500, 2) \
                == ct_loss(pcm, pcm, wide(), (0.4, 0.6, 0.8), 500, 2)

    @pytest.mark.parametrize("times", [[0.5], [0.7, 0.5], [0.5, 0.5]])
    def test_losses_reject_fewer_than_two_increasing_times(self, times):
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        with pytest.raises(ValueError, match="strictly increasing"):
            ct_loss(pcm, pcm, wide(), times, 500, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            cd_loss(pcm, pcm, exact_score_model(wide()), wide(), times,
                    500, 2)


class TestCtLoss:
    def test_identity_map_stationary_closed_form(self):
        # with f = identity the residual is (e^{-t2}-e^{-t1}) x0 +
        # (sqrt(1-e^{-2t2}) - coef) z with x0, z independent N(0,1)
        t_lo, t_hi = 0.5, 0.7
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        val = ct_loss(pcm, pcm, stationary(), np.array([t_lo, t_hi]),
                      200_000, 3)
        coef = -np.expm1(-(t_lo + t_hi)) / np.sqrt(-np.expm1(-2 * t_hi))
        closed = ((np.exp(-t_hi) - np.exp(-t_lo)) ** 2
                  + (np.sqrt(-np.expm1(-2 * t_hi)) - coef) ** 2)
        assert val == pytest.approx(closed, rel=0.02)

    def test_nonnegative_and_deterministic(self):
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        args = (pcm, pcm, wide(), np.array([0.4, 0.8]), 2000, 9)
        v1 = ct_loss(*args)
        assert v1 >= 0.0
        assert ct_loss(*args) == v1

    def test_shares_draws_with_cd(self):
        # common-random-numbers contract: the two objectives consume the
        # same (x0, z) stream for the same seed, so the first-term samples
        # coincide; verified indirectly through the identity map at equal
        # grid times where both losses measure the same first argument
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        sm = exact_score_model(stationary())
        times = np.array([0.5, 0.7])
        v_cd = cd_loss(pcm, pcm, sm, stationary(), times, 5000, 4)
        v_ct = ct_loss(pcm, pcm, stationary(), times, 5000, 4)
        assert v_cd <= 1e-25
        assert v_ct > 0.0


class TestGradGap:
    # at these modest n_mc the helper warns that the gap is close to its
    # std error; the assertions below already account for that noise
    pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

    def test_gap_shrinks_second_order(self):
        dist = wide()
        theta0 = 0.1 * derive_rng(0, "theta0").standard_normal((1, 32))
        pcm = ParametricCM.create(1, 32, 0, 0.01, theta=theta0)
        rows = grad_gap(pcm, dist, exact_score_model(dist),
                        [0.2, 0.1, 0.05], 40_000, 0)
        assert [set(r) for r in rows] == [{"dt", "gap", "std_err"}] * 3
        xs = np.log([r["dt"] for r in rows])
        ys = np.log([r["gap"] for r in rows])
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 2.0) <= 0.4

    def test_reseeding_within_noise(self):
        dist = wide()
        theta0 = 0.1 * derive_rng(0, "theta0").standard_normal((1, 32))
        pcm = ParametricCM.create(1, 32, 0, 0.01, theta=theta0)
        a = grad_gap(pcm, dist, exact_score_model(dist), [0.2, 0.1, 0.05],
                     20_000, 1)[0]
        b = grad_gap(pcm, dist, exact_score_model(dist), [0.2, 0.1, 0.05],
                     20_000, 2)[0]
        band = 3 * (a["std_err"] + b["std_err"])
        assert abs(a["gap"] - b["gap"]) \
            <= max(band, 0.3 * max(a["gap"], b["gap"]))

    def test_closed_form_gradient_matches_finite_difference(self):
        # grad_gap's per-objective gradient against a central difference of
        # cd_loss and ct_loss in theta, theta^- frozen, on one two-point
        # grid; the losses are quadratic in theta, so the difference is
        # exact up to rounding
        dist = wide()
        sm = exact_score_model(dist)
        theta0 = derive_rng(7, "theta").standard_normal((1, 8))
        pcm = ParametricCM.create(1, 8, 0, 0.01, theta=theta0)
        times = np.array([0.5, 0.6])
        n_mc, seed, step = 2000, 3, 1e-5
        losses = {
            "cd": lambda th: cd_loss(replace(pcm, theta=th), pcm, sm, dist,
                                     times, n_mc, seed),
            "ct": lambda th: ct_loss(replace(pcm, theta=th), pcm, dist,
                                     times, n_mc, seed),
        }
        for name, score_model in (("cd", sm), ("ct", None)):
            ((t_lo, t_hi, x_hi, target),) = _pairs(dist, times, n_mc, seed,
                                                   score_model)
            grad = _loss_grads(pcm, t_lo, t_hi, pcm.features(x_hi, t_hi),
                               pcm(x_hi, t_hi), target,
                               np.array([0, n_mc]))[0]
            fd = np.empty_like(theta0)
            for j in range(theta0.shape[1]):
                bump = np.zeros_like(theta0)
                bump[0, j] = step
                fd[0, j] = (losses[name](theta0 + bump)
                            - losses[name](theta0 - bump)) / (2 * step)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_requires_decreasing_dt(self):
        pcm = ParametricCM.create(1, 8, 0, 0.01)
        with pytest.raises(ValueError):
            grad_gap(pcm, wide(), exact_score_model(wide()), [0.1, 0.2, 0.3],
                     1000, 0)
