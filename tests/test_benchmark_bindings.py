"""The benchmark in `perfbench/` traces named cmlab functions by
rebinding them wherever cmlab imported them.  This guard fails when one of
those functions is deleted or renamed, so the break shows in the unit
tests rather than only in a traced benchmark run."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import cmlab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
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
    tracer = _load_tracer()
    before = _bindings(tracer.TRACED)
    # raises RuntimeError("no binding site found ...") for a missing name
    with tracer.Tracer().installed():
        during = _bindings(tracer.TRACED)
    after = _bindings(tracer.TRACED)
    assert all(during[k] is not v for k, v in before.items())
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
