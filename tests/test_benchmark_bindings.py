"""The benchmark in `perfbench/` calls cmlab functions and traces them by
rebinding them wherever cmlab imported them.  These guards fail when one
of those functions is deleted, renamed or changes the signature or return
type the benchmark uses, so the break shows in the unit tests rather than
only as failed operations in a benchmark run."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import cmlab
from cmlab import distributions, flows, harness, metrics, models, samplers
from cmlab.acceptance import DEFAULT_SEED
from cmlab.distributions import MixtureParams, SampleBatch
from cmlab.objectives import ParametricCM
from cmlab.schedule import build_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bindings(traced) -> dict:
    """(module, qualified name) -> object bound there, for every traced
    name bound in a loaded cmlab module."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key != "cmlab" and not key.startswith("cmlab."):
            continue
        for _, qualname, _ in traced:
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name, None)
            if owner is not None and attr in vars(owner):
                out[(key, qualname)] = vars(owner)[attr]
    return out


def test_tracer_finds_and_restores_every_binding():
    for info in pkgutil.iter_modules(cmlab.__path__):
        importlib.import_module(f"cmlab.{info.name}")
    tracer = _load("tracer")
    before = _bindings(tracer.TRACED)
    # raises RuntimeError("no binding site found ...") for a missing name
    with tracer.Tracer().installed():
        during = _bindings(tracer.TRACED)
    after = _bindings(tracer.TRACED)
    assert all(during[k] is not v for k, v in before.items())
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_oracle_ring_and_probe_ops_pass():
    # the two oracle ops that call cmlab directly rather than through
    # acceptance.run_criterion: one_step, exact_cm and w2_sliced(...).value
    ops = dict(_load("workloads").WORKLOADS["oracle"](DEFAULT_SEED))
    for name in ("ring", "probe"):
        assert ops[name]().passed, name


def test_traced_walks_count_the_rows_they_march():
    # a tracer counter that raises inside an op counts as a failed op, so
    # the traced march must run clean and leave every output unchanged
    dist = MixtureParams.gaussian([0.0, 0.0], [4.0, 4.0])
    grid = build_grid(0.01, 0.1, 1.0)
    sm = models.exact_score_model(dist)
    cm = models.perturb_cm(models.discretized_cm(sm, grid), 0.1, 3)
    n_mc, n = 100, 50

    def ops():
        return (models.measure_cm_error(cm, sm, dist, grid, n_mc, 7),
                samplers.one_step(cm, grid.T, n, 7).points)

    plain = ops()
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        traced = ops()
    steps = grid.n_points - 1
    # xhat steps, the walks of (x, t_{n+1}) and (xhat, t_n), and one_step
    rows = (steps + steps * (steps + 1) // 2 + (steps - 1) * steps // 2) \
        * n_mc + steps * n
    assert tracer.stats["flows.exp_integrator_step"]["points"] == rows
    assert traced[0] == plain[0]
    assert np.array_equal(traced[1], plain[1])


def _counted_calls() -> dict:
    """layer -> (one call on a 7-row input, check of the layer's counts
    and the call's output)."""
    dist = MixtureParams.gaussian([0.0, 0.0], [4.0, 4.0])
    x = np.linspace(-1.0, 1.0, 14).reshape(7, 2)
    sm = models.exact_score_model(dist)
    pcm = ParametricCM.create(2, 4, 0, 0.01)
    return {
        "distributions.score": (
            lambda: distributions.score(dist, 0.5, x),
            lambda s, out: s["points"] == 7),
        "distributions.sample": (
            lambda: distributions.sample(dist, 7, 0).points,
            lambda s, out: s["points"] == 7),
        "flows.exp_integrator_step": (
            lambda: flows.exp_integrator_step(sm, x, 0.5, 0.25),
            lambda s, out: s["points"] == 7),
        "flows.solve_ivp": (
            lambda: models.exact_cm(dist, 0.01)(x, 1.0),
            lambda s, out: s["nfev"] > 0 and s["steps"] > 0),
        "samplers.ulmc_run": (
            lambda: samplers.ulmc_run(sm, SampleBatch(points=x), 1.0, 0.01,
                                      3, 0, t=0.01).points,
            lambda s, out: s["steps"] == 3),
        "metrics.w2_sliced": (
            lambda: metrics.w2_sliced(x, x + 1.0, seed=0).value,
            lambda s, out: s["projections"] == 64),
        "objectives.ParametricCM.features": (
            lambda: pcm.features(x, 0.5),
            lambda s, out: s["points"] == 7),
        "harness.render_json": (
            lambda: harness.render_json({"x": x}),
            lambda s, out: s["bytes"] == len(out)),
    }


@pytest.mark.parametrize("layer", sorted(_counted_calls()))
def test_every_work_counter_counts_its_call(layer):
    # every counter in TRACED runs here once, so a counter that raises
    # fails this test and not only an op of a traced benchmark run
    call, check = _counted_calls()[layer]
    plain = call()
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        traced = call()
    assert tracer.stats[layer]["calls"] == 1
    assert check(tracer.stats[layer], traced), tracer.stats[layer]
    assert np.array_equal(traced, plain)
