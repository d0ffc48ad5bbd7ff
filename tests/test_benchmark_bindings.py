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

import cmlab
from cmlab.acceptance import DEFAULT_SEED

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
