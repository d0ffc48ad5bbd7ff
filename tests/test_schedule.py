import math

import numpy as np
import pytest

from cmlab.harness import grid_experiment
from cmlab.schedule import (_REL_TOL, GridRangeError, TimeGrid, build_grid,
                            uniform_grid)


def expected_point_count(delta: float, h: float, T: float) -> int:
    """Closed-form N for build_grid; documented invariant
    N = O(T/h + log2(h/delta)).

    Uniform stage: 1 + ceil((T - h)/h) points (one extra when the division
    leaves a remainder).  Halving stage: all h/2^j with j >= 1 that exceed
    2*delta, plus the first one at or below 2*delta when it still exceeds
    delta, plus the final point delta.
    """
    tol = _REL_TOL * max(1.0, T) * 4
    n_full = int(math.floor((T - h) / h + _REL_TOL * 4))
    n_uniform = n_full + 1
    if (T - h) - n_full * h > tol:
        n_uniform += 1
    n_halving = 0
    q = h / 2.0
    while q > 2.0 * delta * (1 + _REL_TOL):
        n_halving += 1
        q /= 2.0
    if q > delta * (1 + _REL_TOL):
        n_halving += 1
    return n_uniform + n_halving + 1


def grid_diagnostics(grid: TimeGrid) -> list[str]:
    """List of violated two-stage invariants (empty when the grid is
    valid)."""
    out: list[str] = []
    p = grid.points
    tol = _REL_TOL * max(1.0, grid.T) * 8
    if p.ndim != 1 or p.shape[0] < 2:
        return ["grid must contain at least 2 points"]
    if not np.all(np.diff(p) > 0):
        out.append("points are not strictly increasing")
    if abs(p[0] - grid.delta) > tol:
        out.append(f"t_1 = {p[0]} != delta = {grid.delta}")
    if abs(p[-1] - grid.T) > tol:
        out.append(f"t_N = {p[-1]} != T = {grid.T}")
    n1 = grid.stage_boundary
    if not (0 <= n1 < p.shape[0]):
        return out + [f"stage_boundary {n1} out of range"]
    if p[n1] > grid.h + tol:
        out.append(f"t_N1 = {p[n1]} exceeds h = {grid.h}")
    if p[1] - p[0] > grid.delta + tol:
        out.append(f"first step {p[1] - p[0]} exceeds delta = {grid.delta}")
    steps = np.diff(p)
    # uniform stage: all steps h except possibly the one leaving t_N1
    for k in range(n1, steps.shape[0]):
        if k == n1:
            if steps[k] > grid.h + tol:
                out.append(f"step {k} after boundary exceeds h")
        elif abs(steps[k] - grid.h) > tol:
            out.append(f"uniform-stage step {k} = {steps[k]} != h")
    # halving stage: each step doubles the previous one, first step exempt
    for k in range(1, n1 - 1):
        if abs(steps[k + 1] - 2.0 * steps[k]) > tol:
            out.append(
                f"halving-stage step ratio at {k}: "
                f"{steps[k + 1]} != 2 * {steps[k]}"
            )
    return out


def validate_grid(grid: TimeGrid) -> bool:
    """True iff every two-stage invariant holds within 1e-12 tolerance."""
    return not grid_diagnostics(grid)


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
    # the grid report that `cmlab grid` emits carries the grid's fields
    grid = build_grid(0.05, 0.25, 1.0)
    raw = grid_experiment(0.05, 0.25, 1.0)
    assert (raw["delta"], raw["h"], raw["T"]) == (0.05, 0.25, 1.0)
    assert raw["stage_boundary"] == grid.stage_boundary
    assert raw["points"] == grid.points.tolist()
    assert [r["t"] for r in raw["rows"]] == raw["points"]
