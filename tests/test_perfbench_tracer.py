"""The benchmark's tracer still finds the functions it times.

``perfbench/tracer.py`` wraps package functions by name, and a metric fed
only by names that no longer exist is reported absent, which breaks the
benchmark's per-layer result line.  Renaming or deleting a traced function
fails here instead.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_has_a_function_to_wrap():
    tracer = load_tracer()
    spans = tracer.Tracer()
    spans.install()
    try:
        assert tracer.absent(spans.missing) == []
    finally:
        spans.uninstall()
