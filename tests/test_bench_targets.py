"""The benchmark's tracer wraps program functions by name; a renamed or
removed hot function must fail here, not only mark a traced run incorrect."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module,qualname", [(m, q) for m, q, _, _ in _targets()])
def test_trace_target_exists(module, qualname):
    owner = importlib.import_module(f"selfvio.{module}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr, None)
        assert owner is not None, f"selfvio.{module}.{qualname} is gone"
    assert callable(owner)
