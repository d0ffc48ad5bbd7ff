import json

import numpy as np
import pytest

from cmlab.schedule import (GridRangeError, TimeGrid, build_grid,
                            expected_point_count, grid_diagnostics,
                            uniform_grid, validate_grid)


class TestBuildGrid:
    def test_hand_derived_example(self):
        grid = build_grid(0.05, 0.25, 1.0)
        assert np.allclose(grid.points,
                           [0.05, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0])
        assert grid.points[grid.stage_boundary] == pytest.approx(0.25)

    def test_single_uniform_point_example(self):
        grid = build_grid(0.05, 0.5, 0.5)
        assert np.allclose(grid.points, [0.05, 0.0625, 0.125, 0.25, 0.5])

    def test_invalid_range_rejected(self):
        with pytest.raises(GridRangeError):
            build_grid(0.2, 0.25, 1.0)
        with pytest.raises(GridRangeError):
            build_grid(0.01, 0.5, 0.25)

    def test_first_step_at_most_delta(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = rng.uniform(0.005, 0.1)
            h = rng.uniform(2.5 * delta, 0.5)
            T = h * rng.uniform(2.0, 10.0)
            grid = build_grid(delta, h, T)
            assert grid.points[1] - grid.points[0] <= delta * (1 + 1e-9)

    def test_outputs_always_validate(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            delta = rng.uniform(0.005, 0.1)
            h = rng.uniform(2.5 * delta, 0.5)
            T = h * rng.uniform(2.0, 10.0)
            grid = build_grid(delta, h, T)
            assert validate_grid(grid), grid_diagnostics(grid)

    def test_step_sum_equals_span(self):
        grid = build_grid(0.03, 0.21, 1.7)
        assert np.sum(np.diff(grid.points)) == pytest.approx(1.7 - 0.03,
                                                             abs=1e-12)

    def test_point_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            delta = rng.uniform(0.005, 0.1)
            h = rng.uniform(2.5 * delta, 0.5)
            T = h * rng.uniform(2.0, 10.0)
            grid = build_grid(delta, h, T)
            assert grid.n_points == expected_point_count(delta, h, T)

    def test_stage_boundary_at_most_h(self):
        grid = build_grid(0.01, 0.07, 1.0)
        assert grid.points[grid.stage_boundary] <= 0.07 + 1e-12


class TestValidateGrid:
    def test_tampered_first_point_fails(self):
        grid = build_grid(0.05, 0.25, 1.0)
        pts = grid.points.copy()
        pts[0] = 0.04
        bad = TimeGrid(delta=0.05, h=0.25, T=1.0, points=pts,
                       stage_boundary=grid.stage_boundary)
        assert not validate_grid(bad)

    def test_wrong_halving_ratio_fails(self):
        # halving-stage step ratio 3 instead of 2
        pts = np.array([0.05, 0.0625, 0.125, 0.3125, 0.5625, 0.8125, 1.0625])
        bad = TimeGrid(delta=0.05, h=0.25, T=1.0625, points=pts,
                       stage_boundary=3)
        assert not validate_grid(bad)

    def test_diagnostics_name_the_violation(self):
        grid = build_grid(0.05, 0.25, 1.0)
        pts = grid.points.copy()
        pts[-1] = 1.1
        bad = TimeGrid(delta=0.05, h=0.25, T=1.0, points=pts,
                       stage_boundary=grid.stage_boundary)
        assert any("t_N" in line for line in grid_diagnostics(bad))


class TestUniformGrid:
    def test_basic_shape(self):
        grid = uniform_grid(0.01, 0.0125, 0.1)
        assert grid.points[0] == pytest.approx(0.01)
        assert grid.points[-1] == pytest.approx(0.1)
        steps = np.diff(grid.points)
        assert np.all(steps <= 0.0125 + 1e-12)
        assert np.allclose(steps[1:], 0.0125)

    def test_invalid_range_rejected(self):
        with pytest.raises(GridRangeError):
            uniform_grid(0.05, 0.01, 1.0)


def test_json_serialization():
    grid = build_grid(0.05, 0.25, 1.0)
    raw = json.loads(grid.to_json())
    assert raw["delta"] == 0.05
    assert raw["T"] == 1.0
    assert np.allclose(raw["points"], grid.points)
