"""The benchmark's traced run wraps the functions named in bench/tracer.py
TARGETS and reports a missing one as absent, not as an error.  This test
keeps a refactor from silently turning a per-layer counter into "absent":
every target must resolve in the package as it is."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    """bench/tracer.py as a module, read only: no bytecode is written."""
    spec = importlib.util.spec_from_file_location("ssgamma_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    was, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name,module_name,attr,kind", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_trace_target_resolves(name, module_name, attr, kind):
    importlib.import_module(module_name)
    found = tracer._lookup(module_name, attr)
    assert found is not None, f"{name}: {module_name}.{attr} is gone"
    assert kind in (tracer.SPAN, tracer.COUNT)
