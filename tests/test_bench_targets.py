"""The benchmark's traced run wraps the functions named in bench/tracer.py
TARGETS and reports a missing one as absent, not as an error.  These
tests keep a refactor from silently turning a per-layer counter into
"absent": every target must resolve in the package as it is, and a
traced run must report every per-layer metric BENCHMARK.json declares,
on a last line that is strict JSON."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def reject_constant(name):
    """json.loads' parse_constant: NaN and Infinity are not strict JSON."""
    raise ValueError(f"the report holds {name}")


def test_traced_so_deep_run_reports_every_per_layer_metric():
    """One traced so-deep execution of bench/unit.py in a fresh
    interpreter, as bench/run.py starts it: about a second, and it writes
    no spans.  Its last line parses as strict JSON, no tracer target is
    absent, and its layers with the tracer's own overhead are exactly the
    per_layer metrics of BENCHMARK.json."""
    command = [sys.executable, "-B", "bench/unit.py", "--mode", "traced", "--workload", "so-deep", "--seed", "1"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=reject_constant)
    assert report["absent"] == []
    declared = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(report["layers"]) | {"trace.overhead_s"} == declared
