"""A fixed reference workload, timed next to every benchmark iteration.

The host's speed drifts by up to half over minutes (an iteration of march
took 3.5 s and, five minutes later, 6.0 s), and different kinds of work
slow down by different factors: while large-array numpy arithmetic slowed
by 1.5x, a pure-Python loop slowed by 2x. An iteration's time divided by
the time of reference work of the same kind, measured around it, stays
nearly constant while the program is unchanged. A pure-Python part was
tried and dropped: its own timing varied by a third from one sample to
the next, which added more noise than it removed.

The reference work uses numpy only, never cmlab, so a change to the
program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np


def _big_numpy(big: np.ndarray, small: np.ndarray) -> float:
    """Arithmetic on a 50,000-point batch, as in a large-batch score."""
    s = 0.0
    for _ in range(60):
        s += float(np.exp(-0.5 * (big * big).sum(1)).sum())
    return s


def _small_numpy(big: np.ndarray, small: np.ndarray) -> float:
    """Many calls on a 400-point batch: numpy's per-call overhead."""
    s = 0.0
    for _ in range(4000):
        s += float(np.exp(-0.5 * (small * small).sum(1)).sum())
    return s


PARTS = {"big_numpy": _big_numpy, "small_numpy": _small_numpy}


class Yardstick:
    """Reference work made of the given parts, each run 4 // len(parts)
    times. A part takes about 0.08 s on a 2-vCPU x86_64 VM, so one timing
    takes about 0.3 s."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal((50_000, 2))
        self.small = rng.standard_normal((400, 2))
        self.work = [PARTS[p] for p in parts] * (4 // len(parts))

    def time_s(self) -> float:
        t0 = time.perf_counter()
        for part in self.work:
            part(self.big, self.small)
        return time.perf_counter() - t0
