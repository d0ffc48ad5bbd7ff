"""Two-stage discretization grid of the backward time interval [delta, T].

The grid runs uniform steps of size h from T down to h, then geometrically
halving steps h/2, h/4, ... until the next halving would land within 2*delta
of the origin, and finally the early-stopping time delta itself.  The first
step h_1 = t_2 - delta is therefore at most delta.  When T is not an integer
multiple of h the remainder is absorbed in the step adjacent to the stage
boundary, kept <= h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REL_TOL = 1e-12


class GridRangeError(ValueError):
    """Raised when (delta, h, T) violate 0 < delta < h/2 <= T/2."""


@dataclass(frozen=True)
class TimeGrid:
    """Increasing times t_1 = delta < ... < t_N = T.

    stage_boundary is the 0-based index of the point where the uniform
    stage begins (the point with value ~h, the paper-style index N_1).
    """

    delta: float
    h: float
    T: float
    points: np.ndarray
    stage_boundary: int

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_grid(delta: float, h: float, T: float) -> TimeGrid:
    """Construct the two-stage grid.  Requires 0 < delta < h/2 <= T/2."""
    if not (0 < delta and delta < h / 2.0 and h <= T):
        raise GridRangeError(
            f"need 0 < delta < h/2 <= T/2, got delta={delta}, h={h}, T={T}"
        )
    tol = _REL_TOL * max(1.0, T)

    # uniform stage, descending from T; snap or append the boundary point h
    n_full = int(math.floor((T - h) / h + _REL_TOL * 4))
    descending = [T - j * h for j in range(n_full + 1)]
    if descending[-1] > h + tol:
        descending.append(h)
    else:
        descending[-1] = h
    stage1_len = len(descending)

    # halving stage: h/2, h/4, ... while still above 2*delta, then the first
    # value at or below 2*delta (this makes h_1 <= delta), then delta
    q = h / 2.0
    while q > 2.0 * delta * (1 + _REL_TOL):
        descending.append(q)
        q /= 2.0
    if q > delta * (1 + _REL_TOL):
        descending.append(q)
    descending.append(delta)

    points = np.asarray(descending[::-1], dtype=float)
    stage_boundary = points.shape[0] - stage1_len
    return TimeGrid(delta=float(delta), h=float(h), T=float(T),
                    points=points, stage_boundary=stage_boundary)


def uniform_grid(delta: float, h: float, T: float) -> TimeGrid:
    """Plain uniform grid from T down in steps of h, ending at delta.

    Escape hatch for step sizes h <= 2*delta where the two-stage
    construction's precondition cannot hold; the final step (into delta)
    has length <= h, so the grid is still a valid solver schedule even
    though it does not satisfy the two-stage invariants.
    """
    if not (0 < delta < h <= T):
        raise GridRangeError(
            f"need 0 < delta < h <= T, got delta={delta}, h={h}, T={T}"
        )
    tol = _REL_TOL * max(1.0, T)
    descending = [T]
    while descending[-1] - h > delta + tol:
        descending.append(descending[-1] - h)
    descending.append(delta)
    points = np.asarray(descending[::-1], dtype=float)
    return TimeGrid(delta=float(delta), h=float(h), T=float(T),
                    points=points, stage_boundary=0)
