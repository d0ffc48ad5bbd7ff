"""Probability-flow ODE machinery.

The backward PF ODE for the OU forward process is
dx/dt = -x - grad log p_t(x).  This module provides the field of that ODE
for any score callable s(x, t) (the exact mixture score or a model of
it), the one-step exponential integrator (linear part integrated exactly,
score frozen at the upper time), and a high-accuracy adaptive reference
integrator, whose flow of a score's field is the consistency map of
`models.empirical_cm` and the oracle for the others.

Every x is an (n, d) batch, and so is every field's and step's value.

The reference integrator is scipy.integrate's RK45 stepper, driven here
(see `solve_ivp`) so that a solve keeps its end state alone, not every
step's state as scipy's own solve_ivp does.  scipy imports
scipy.integrate on the first solve: it brings special, linalg and
optimize with it, most of a process's start-up time and memory, and the
criteria that only march the exponential integrator never solve an ODE.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy

from .distributions import split_rows

DEFAULT_TOL = 1e-10

Field = Callable[[np.ndarray, float], np.ndarray]


class Solution(NamedTuple):
    """What `solve_ivp` returns: the end state y, the start time and each
    accepted step's end time t, the field evaluations nfev, status 0 (end
    reached) or -1 (a step failed) and the failed step's message."""

    y: np.ndarray
    t: list[float]
    nfev: int
    status: int
    message: str | None


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> Solution:
    """RK45 from t_span[0] to t_span[1], stepped as
    scipy.integrate.solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol,
    atol=atol) steps it, to the same end state bit for bit, but keeping
    only that end state: scipy's solve_ivp keeps every accepted step's
    full state and stacks the copies at the end.

    The benchmark's tracer (`perfbench/tracer.py`) wraps this
    module-level binding to count solves, field evaluations (`nfev`) and
    steps (`len(t) - 1`), so the name stays here."""
    t0, t_bound = map(float, t_span)
    solver = scipy.integrate.RK45(fun, t0, y0, t_bound, rtol=rtol,
                                  atol=atol)
    t = [t0]
    while solver.status == "running":
        message = solver.step()
        if solver.status != "failed":
            t.append(solver.t)
    out = Solution(solver.y, t, solver.nfev,
                   0 if solver.status == "finished" else -1, message)
    # the solver's fun closures refer back to it, a reference cycle that
    # would keep its stage matrix and states alive until the cyclic GC
    # next runs, which varies from run to run
    vars(solver).clear()
    return out


class StepUnderflowError(RuntimeError):
    """Reference integration stopped before reaching its end time, e.g.
    because the solution blew up and the step size collapsed."""


def pf_field(score_fn: Field) -> Field:
    """v(x, t) = -x - s(x, t) for a score callable s(x, t)."""
    return lambda x, t: -x - score_fn(x, t)


def exp_integrator_step(score_model, x, t_hi: float,
                        t_lo: float) -> np.ndarray:
    """One exponential-integrator step backward from t_hi to t_lo:
    e^{t_hi - t_lo} x + (e^{t_hi - t_lo} - 1) s(x, t_hi).

    The score's array is the step's scratch space (a score model returns
    a fresh array its caller may overwrite), so a step holds two batches,
    not three; the sum keeps the operand order of the formula, bit for
    bit, and runs through `distributions.split_rows`, which takes a large
    batch's rows in two parts at once with the same bits."""
    if not (0 < t_lo < t_hi):
        raise ValueError(f"need 0 < t_lo < t_hi, got {t_lo}, {t_hi}")
    growth = np.exp(t_hi - t_lo)
    # the score first: marching down a grid, the two arrays then reuse
    # the blocks the step before freed, where with the product first
    # glibc's malloc hands them back to the OS and faults them in again
    # (criterion 1 at seed 21057: 4,494 minor page faults a pass, 73,588
    # with the product first)
    s = score_model(x, t_hi)
    out = np.empty(np.shape(s))

    def combine(xs, ss, outs):
        np.multiply(growth - 1.0, ss, out=outs)
        np.multiply(growth, xs, out=ss)
        # the sum into its second operand: numpy runs an add whose out is
        # its first operand as a reduction when the array has one entry,
        # and that keeps the other operand's NaN where the formula's sum
        # keeps the first's
        np.add(ss, outs, out=outs)

    split_rows(combine, np.asarray(x), s, out)
    return out


def integrate_reference(field: Field, x, t_from: float, t_to: float,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve dx/dt = field(x, t) backward from t_from to t_to with an
    embedded adaptive RK 4(5) pair, local error per step controlled to tol.

    Batches are integrated as one stacked system (the step controller uses
    the joint error norm), which keeps the result deterministic for a fixed
    input batch.  A non-finite field value raises FloatingPointError at
    once: RK45 would otherwise go on stepping with t = NaN.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not t_to < t_from:
        raise ValueError(f"need t_to < t_from, got {t_from} -> {t_to}")
    x = np.asarray(x, dtype=float)
    shape = x.shape

    def rhs(t, y):
        v = field(y.reshape(shape), t).ravel()
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite field value at t = {t}")
        return v

    sol = solve_ivp(rhs, (t_from, t_to), x.ravel(), tol, tol)
    if sol.status != 0:
        raise StepUnderflowError(
            f"reference integration failed on [{t_to}, {t_from}]: "
            f"{sol.message}")
    return sol.y.reshape(shape)

