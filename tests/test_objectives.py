from dataclasses import replace

import numpy as np
import pytest

from cmlab import objectives
from cmlab.distributions import MixtureParams
from cmlab.models import exact_score_model
from cmlab.objectives import ParametricCM, _draws, _loss_grads, grad_gap
from cmlab.rng import derive_rng


def stationary():
    return MixtureParams.standard_normal(1)


def wide():
    return MixtureParams.gaussian([0.0], [4.0])


def quadratic_loss(theta, theta_minus, t_lo, t_hi, x_hi, target):
    """The objective whose gradient in theta _loss_grads gives in closed
    form: the mean over the draws of
    || f_theta(x_hi, t_hi) - f_{theta^-}(target, t_lo) ||^2."""
    diff = theta(x_hi, t_hi) - theta_minus(target, t_lo)
    return float(np.sum(diff**2)) / x_hi.shape[0]


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
        # stationary score, so the CD target is x_{t_hi} itself and the
        # identity map's CD residual vanishes
        dist = stationary()
        x_hi, cd_target, _ = _draws(dist, 0.5, 0.7, 5000, 3,
                                    exact_score_model(dist))
        assert np.max(np.abs(cd_target - x_hi)) <= 1e-12

    def test_seeded_determinism(self):
        args = (wide(), 0.4, 0.8, 2000)
        sm = exact_score_model(wide())
        first, again = _draws(*args, 9, sm), _draws(*args, 9, sm)
        other = _draws(*args, 10, sm)
        for a, b, c in zip(first, again, other):
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_gradient_vanishes_at_global_minimum(self):
        # at theta = 0 on stationary data the CD residual is zero, so is
        # the closed-form gradient
        dist, t_lo, t_hi = stationary(), 0.5, 0.7
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        x_hi, cd_target, _ = _draws(dist, t_lo, t_hi, 2000, 3,
                                    exact_score_model(dist))
        grad = _loss_grads(pcm, t_lo, t_hi, pcm.features(x_hi, t_hi),
                           pcm(x_hi, t_hi), cd_target, np.array([0, 2000]))
        assert np.max(np.abs(grad)) <= 1e-12


class TestCtLoss:
    def test_identity_map_stationary_closed_form(self):
        # with f = identity the residual is (e^{-t2}-e^{-t1}) x0 +
        # (sqrt(1-e^{-2t2}) - coef) z with x0, z independent N(0,1)
        dist, t_lo, t_hi = stationary(), 0.5, 0.7
        x_hi, _, ct_target = _draws(dist, t_lo, t_hi, 200_000, 3,
                                    exact_score_model(dist))
        val = np.mean(np.sum((x_hi - ct_target) ** 2, axis=1))
        coef = -np.expm1(-(t_lo + t_hi)) / np.sqrt(-np.expm1(-2 * t_hi))
        closed = ((np.exp(-t_hi) - np.exp(-t_lo)) ** 2
                  + (np.sqrt(-np.expm1(-2 * t_hi)) - coef) ** 2)
        assert val == pytest.approx(closed, rel=0.02)

    def test_nonnegative_and_deterministic(self):
        # the CT loss of the parametric map on one interval, built from the
        # CT target of a seeded draw: nonnegative, and the same on a rerun
        pcm = ParametricCM.create(1, 16, 0, 0.01)
        args = (wide(), 0.4, 0.8, 2000, 9, exact_score_model(wide()))

        def ct_value():
            x_hi, _, ct_target = _draws(*args)
            return quadratic_loss(pcm, pcm, 0.4, 0.8, x_hi, ct_target)

        v1 = ct_value()
        assert v1 >= 0.0
        assert ct_value() == v1


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
        # the quadratic loss in theta, theta^- frozen, on one interval; the
        # loss is quadratic in theta, so the difference is exact up to
        # rounding
        dist = wide()
        theta0 = derive_rng(7, "theta").standard_normal((1, 8))
        pcm = ParametricCM.create(1, 8, 0, 0.01, theta=theta0)
        t_lo, t_hi, n_mc, step = 0.5, 0.6, 2000, 1e-5
        x_hi, *targets = _draws(dist, t_lo, t_hi, n_mc, 3,
                                exact_score_model(dist))
        for target in targets:
            grad = _loss_grads(pcm, t_lo, t_hi, pcm.features(x_hi, t_hi),
                               pcm(x_hi, t_hi), target,
                               np.array([0, n_mc]))[0]
            fd = np.empty_like(theta0)
            for j in range(theta0.shape[1]):
                bump = np.zeros_like(theta0)
                bump[0, j] = step
                fd[0, j] = (
                    quadratic_loss(replace(pcm, theta=theta0 + bump), pcm,
                                   t_lo, t_hi, x_hi, target)
                    - quadratic_loss(replace(pcm, theta=theta0 - bump), pcm,
                                     t_lo, t_hi, x_hi, target)) / (2 * step)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_one_draw_per_dt(self, monkeypatch):
        # the CD and CT sides share one draw of x_0 and z from one
        # "objective" stream: a second draw per dt would redo the first
        pcm = ParametricCM.create(1, 8, 0, 0.01)
        draws, streams = [], []
        real_draw, real_rng = objectives.draw, objectives.derive_rng

        def counted_draw(*args):
            draws.append(args[1])
            return real_draw(*args)

        def counted_rng(seed, *labels):
            streams.append(labels)
            return real_rng(seed, *labels)

        monkeypatch.setattr(objectives, "draw", counted_draw)
        monkeypatch.setattr(objectives, "derive_rng", counted_rng)
        grad_gap(pcm, wide(), exact_score_model(wide()), [0.2, 0.1, 0.05],
                 1000, 0)
        assert draws == [1000] * 3
        assert streams == [("objective",)] * 3

    def test_requires_decreasing_dt(self):
        pcm = ParametricCM.create(1, 8, 0, 0.01)
        with pytest.raises(ValueError):
            grad_gap(pcm, wide(), exact_score_model(wide()), [0.1, 0.2, 0.3],
                     1000, 0)
