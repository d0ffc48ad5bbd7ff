"""The benchmark's workloads: inputs generated from the seed, the calls
into cmlab that form each operation, and the check on each result.

Each operation returns an `Outcome`: the measured value, the pinned
target and tolerance it is checked against, whether that tolerance is a
statistical one (it can miss at some seeds without the program being
wrong) and the sha256 of the operation's canonical output bytes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cmlab import (acceptance, distributions, harness, metrics, models,
                   samplers)

DELTA = 0.01
T = 2.0
RING_N = 5000
PROBE_N = 1000
SLICED_FLOOR_FACTOR = 3.0     # criterion 5's rule: within 3x the noise floor
PROBE_TOL = 1e-8


@dataclass(frozen=True)
class Outcome:
    value: float
    target: float
    tol: float
    passed: bool
    statistical: bool
    digest: str

    @property
    def margin(self) -> float:
        """(tol - |value - target|) / tol: 1 on target, 0 at the edge, and
        0 when the check could not measure a value (value is nan)."""
        if math.isnan(self.value):
            return 0.0
        return (self.tol - abs(self.value - self.target)) / self.tol


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _points_digest(points: np.ndarray) -> str:
    return _sha(np.ascontiguousarray(points, dtype="<f8").tobytes())


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    return True


def _check_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise FloatingPointError(f"{what}: non-finite result {value!r}")


def _criterion(number: int, seed: int) -> Callable[[], Outcome]:
    """Run one acceptance criterion; the program's own verdict is the
    check, and its measured value, target and tolerance give the margin."""
    def op() -> Outcome:
        rec = acceptance.run_criterion(number, seed)
        d = rec.details
        if not _all_finite(d):
            raise FloatingPointError(f"criterion {number}: non-finite detail")
        if "error" in d:
            # the slope fit refused its input (an excess at or below zero):
            # the criterion missed, with no slope to measure
            value = target = tol = math.nan
        elif "fit" in d:
            value, target, tol = d["fit"]["slope"], d["target"], d["tol"]
        else:
            value, target, tol = d["worst_ratio"], 0.0, d["tol"]
        text = harness.render_json(rec.to_dict())
        return Outcome(float(value), float(target), float(tol),
                       bool(rec.passed), True, _sha(text.encode("utf-8")))
    return op


def _noised_params(means: np.ndarray, variances: np.ndarray, t: float):
    """Mean and variance of the OU marginal at time t, computed here
    independently of cmlab.distributions."""
    decay = math.exp(-2.0 * t)
    return math.exp(-t) * means, decay * variances + (1.0 - decay)


def _draw_mixture(rng: np.random.Generator, means: np.ndarray,
                  variances: np.ndarray, n: int) -> np.ndarray:
    comp = rng.integers(0, means.shape[0], size=n)
    return means[comp] + np.sqrt(variances[comp]) \
        * rng.standard_normal((n, means.shape[1]))


def _ring(seed: int) -> Callable[[], Outcome]:
    """8-component ring in 2-d sampled by one step of the exact
    consistency map; checked like criterion 5, by sliced W2 to a fresh
    p_delta batch against the fresh-vs-fresh noise floor."""
    angles = 2.0 * np.pi * np.arange(8) / 8
    means = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    variances = np.full_like(means, 0.1)
    mix = distributions.MixtureParams(np.full(8, 1.0 / 8), means, variances)
    m_d, v_d = _noised_params(means, variances, DELTA)
    rng = np.random.default_rng([seed, 0x72696E67])
    ref = _draw_mixture(rng, m_d, v_d, RING_N)
    fresh = _draw_mixture(rng, m_d, v_d, RING_N)

    def op() -> Outcome:
        q = samplers.one_step(models.exact_cm(mix, DELTA), T, RING_N, seed)
        floor = metrics.w2_sliced(fresh, ref, seed=seed).value
        ratio = metrics.w2_sliced(q, ref, seed=seed).value / floor
        _check_finite("ring", ratio)
        return Outcome(ratio, 0.0, SLICED_FLOOR_FACTOR,
                       ratio <= SLICED_FLOOR_FACTOR, True,
                       _points_digest(q.points))
    return op


def _probe(seed: int) -> Callable[[], Outcome]:
    """Exact consistency map of an anisotropic Gaussian against its
    closed form: the PF flow of a diagonal Gaussian is the per-coordinate
    affine map between the standardised marginals at T and delta."""
    mean = np.array([1.0, -0.5])
    var = np.array([4.0, 0.25])
    dist = distributions.MixtureParams.gaussian(mean, var)
    m_t, v_t = _noised_params(mean, var, T)
    m_d, v_d = _noised_params(mean, var, DELTA)
    rng = np.random.default_rng([seed, 0x70726F62])
    x = m_t + np.sqrt(v_t) * rng.standard_normal((PROBE_N, 2))
    expected = m_d + np.sqrt(v_d / v_t) * (x - m_t)

    def op() -> Outcome:
        out = models.exact_cm(dist, DELTA)(x, T)
        err = float(np.max(np.abs(out - expected)))
        _check_finite("probe", err)
        return Outcome(err, 0.0, PROBE_TOL, err <= PROBE_TOL, False,
                       _points_digest(out))
    return op


# workload name -> function of the seed -> [(op name, op)]
WORKLOADS: dict[str, Callable[[int], list]] = {
    "march": lambda seed: [("criterion_1", _criterion(1, seed))],
    "measure": lambda seed: [("criterion_3", _criterion(3, seed))],
    "oracle": lambda seed: [("criterion_5", _criterion(5, seed)),
                            ("ring", _ring(seed)),
                            ("probe", _probe(seed)),
                            ("criterion_9", _criterion(9, seed))],
}

# workload name -> the parts of the reference work its iterations are
# divided by (yardstick.PARTS), chosen to match where the workload spends
# its time: march in large-batch score arithmetic, measure in ~20k calls
# on 400-point batches, oracle in both (RK45 and ULMC on 100,000 points,
# the ring's score on 5,000, sliced W2 and feature products)
YARDSTICK: dict[str, tuple[str, ...]] = {
    "march": ("big_numpy",),
    "measure": ("small_numpy",),
    "oracle": ("big_numpy", "small_numpy"),
}
