"""The benchmark's tracer must reach every entry point it names.

bench/tracer.py wraps vcx callables where they are looked up. A refactor
that renames one, or stops importing it into a module the tracer patches,
would silently drop that layer's metrics; this test catches it first.
"""

import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_entry_point():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.unbound == []
    finally:
        tracer.uninstall()
