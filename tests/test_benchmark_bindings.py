"""The benchmark's tracer must find every name it wraps.

``perfbench/tracing.py`` replaces package functions by name in specific
module namespaces, and its ``Tracer`` constructor looks every one of them up.
A refactor that drops or moves such a binding fails here, in the test suite,
rather than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name():
    tracing = load_tracing()
    tracing.Tracer()  # looks up every traced name; AttributeError if one is gone
