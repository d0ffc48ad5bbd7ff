"""The benchmark in `perfbench/` calls cmlab functions and traces them by
rebinding them wherever cmlab imported them.  These guards fail when one
of those functions is deleted, renamed or changes the signature or return
type the benchmark uses, so the break shows in the unit tests rather than
only as failed operations in a benchmark run."""

import importlib
import importlib.util
import pkgutil
import sys
import threading
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
    base = models.discretized_cm(sm, grid)
    cms = [models.perturb_cm(base, eps, 3) for eps in (0.1, 0.2)]
    n_mc, n = 100, 50

    def ops():
        return (models.measure_cm_error(cms, sm, dist, grid, n_mc, 7),
                samplers.one_step(cms[0], grid.T, n, 7).points)

    plain = ops()
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        traced = ops()
    steps = grid.n_points - 1
    # one draw's xhat steps, each model's walks of (x, t_{n+1}) and
    # (xhat, t_n), and one_step
    walks = steps * (steps + 1) // 2 + (steps - 1) * steps // 2
    rows = (steps + len(cms) * walks) * n_mc + steps * n
    assert tracer.stats["flows.exp_integrator_step"]["points"] == rows
    assert tracer.stats["models.measure_cm_error"]["calls"] == 1
    assert traced[0] == plain[0]
    assert np.array_equal(traced[1], plain[1])


def test_traced_eps_cm_sweep_marches_its_base_once():
    # the measure workload's sweep under the tracer: the base map is
    # marched once for the one-step noise and once for one draw of pairs
    dist = MixtureParams.gaussian([0.0, 0.0], [4.0, 4.0])
    kw = {"h": 0.1, "T": 1.0, "n": 50, "seed": 7}

    def sweep():
        return harness.render_json(
            harness.eps_sweep_one_step(dist, inject="cm", **kw))

    plain = sweep()
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        traced = sweep()
    steps = harness._grid_for(0.01, kw["h"], kw["T"]).n_points - 1
    walks = steps * (steps + 1) // 2 + (steps - 1) * steps // 2
    rows = steps * kw["n"] + (steps + walks) * 400
    assert tracer.stats["flows.exp_integrator_step"]["points"] == rows
    assert tracer.stats["distributions.score"]["points"] == rows
    assert tracer.stats["models.measure_cm_error"]["calls"] == 1
    assert traced == plain


def test_traced_h_sweep_counts_every_march(monkeypatch):
    # the march workload's sweep: the split's worker computes half of
    # each step's rows (here from 16 rows, as from 2**15 in the
    # workload), and every traced call stays in the calling thread, where
    # the tracer's span stack and counters are not shared
    monkeypatch.setattr(distributions, "_SPLIT_ROWS", 16)
    n = 300

    def sweep():
        return harness.render_json(harness.h_sweep_one_step(n=n, seed=7))

    plain = sweep()
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        traced = sweep()
    assert tracer.stats["distributions.score"]["calls"] == 400
    assert tracer.stats["distributions.score"]["points"] == 400 * n
    assert tracer.stats["flows.exp_integrator_step"]["points"] == 400 * n
    assert traced == plain

    threads = set()
    for module, name in [(models, "score"), (models, "exp_integrator_step"),
                         (samplers, "derive_rng"),
                         (harness, "w2_gaussian_fit")]:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, **k: (
            threads.add(threading.get_ident()), fn(*a, **k))[1])
    assert sweep() == plain
    assert threads == {threading.get_ident()}


def test_traced_ulmc_derives_every_stream_in_the_calling_thread(
        monkeypatch):
    # the initial velocities' stream and one per step, as the loop that
    # drew its noise in line; the pool thread only fills
    dist = MixtureParams.gaussian([0.0, 0.0], [4.0, 4.0])
    sm = models.exact_score_model(dist)
    batch = SampleBatch(points=np.linspace(-1.0, 1.0, 14).reshape(7, 2))
    n_steps = 6
    plain = samplers.ulmc_run(sm, batch, 1.0, 0.01, n_steps, 0, t=0.01)
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        traced = samplers.ulmc_run(sm, batch, 1.0, 0.01, n_steps, 0, t=0.01)
    assert tracer.stats["rng.derive_rng"]["calls"] == 1 + n_steps
    assert np.array_equal(traced.points, plain.points)

    threads = []
    derive = samplers.derive_rng
    monkeypatch.setattr(samplers, "derive_rng", lambda *a: threads.append(
        threading.get_ident()) or derive(*a))
    samplers.ulmc_run(sm, batch, 1.0, 0.01, n_steps, 0, t=0.01)
    assert threads == [threading.get_ident()] * (1 + n_steps)


def _scipy_solve_counts(dist, x, t_from: float, delta: float) -> dict:
    """nfev and accepted steps of scipy.integrate.solve_ivp on the exact
    map's solve of x from t_from to delta, the counts the tracer reads
    from flows.solve_ivp."""
    import scipy.integrate

    field = flows.pf_field(models.exact_score_model(dist))
    sol = scipy.integrate.solve_ivp(
        lambda t, y: field(y.reshape(x.shape), t).ravel(), (t_from, delta),
        x.ravel(), method="RK45", rtol=flows.DEFAULT_TOL,
        atol=flows.DEFAULT_TOL)
    return {"nfev": sol.nfev, "steps": len(sol.t) - 1}


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
            lambda s, out: {k: s[k] for k in ("nfev", "steps")}
            == _scipy_solve_counts(dist, x, 1.0, 0.01)),
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
