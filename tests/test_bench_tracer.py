"""The benchmark's tracer must reach every entry point it names.

bench/tracer.py wraps vcx callables where they are looked up. A refactor
that renames one, or stops importing it into a module the tracer patches,
would silently drop that layer's metrics; this test catches it first. The
call counts the benchmark reports per checked family are pinned here too.
"""

import importlib.util
import os

from vcx import fuzzing
from vcx.constructions import FuzzSeed, random_maximal_vc_family

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


def test_check_family_runs_one_assignment_and_two_occupancy_passes():
    """One pass for F inside build_assignment, one for the survivor family G;
    validate reads the words the assignment carries and recomputes none."""
    fam = random_maximal_vc_family(FuzzSeed(0, 20, 2))
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        fuzzing.check_family(fam, 2)
    totals = tracer.totals()
    assert totals["traces.occupancy_words"].calls == 2
    assert totals["certificates.build_assignment"].calls == 1
    assert totals["certificates.CertificateAssignment.validate"].calls == 1
