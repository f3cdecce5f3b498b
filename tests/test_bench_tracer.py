"""The benchmark's tracer must reach every entry point it names.

bench/tracer.py wraps vcx callables where they are looked up. A refactor
that renames one, or stops importing it into a module the tracer patches,
would silently drop that layer's metrics; this test catches it first. The
call counts the benchmark reports per checked family are pinned here too.
"""

import importlib.util
import os
from math import comb

import pytest

from vcx import fuzzing, traces
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


@pytest.mark.parametrize(
    "seed", [FuzzSeed(0, 8, 2), FuzzSeed(0, 20, 2)], ids=["set-walk", "bitsets"]
)
def test_tracer_counts_every_candidate_of_both_tracker_representations(seed):
    """Every candidate goes through TraceTracker.try_add, the one traced entry
    point, whichever member representation C(n, d+1) picks: 56 candidates
    for (8,2) stay on the set walk and 1,140 for (20,2) take bitsets."""
    k = seed.d + 1
    assert (comb(seed.n, k) >= traces.BITSET_MIN_CANDIDATES) == (seed.n == 20)
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        random_maximal_vc_family(seed)
    assert tracer.totals()["traces.TraceTracker.try_add"].calls == comb(seed.n, k)


@pytest.mark.parametrize(
    "seed, passes",
    [
        (FuzzSeed(0, 20, 2), 1),
        (FuzzSeed(1_000_000, 20, 2), 1),
        (FuzzSeed(2, 8, 2), 2),
        (FuzzSeed(700001, 8, 3), 2),
        (FuzzSeed(13, 8, 2), 2),
    ],
    ids=[
        "nothing-dropped",
        "check-wide-nothing-dropped",
        "low-stratum-dropped",
        "low-strata-dropped",
        "pairs-dropped",
    ],
)
def test_check_family_runs_one_assignment_and_a_second_occupancy_pass_only_on_drops(
    seed, passes
):
    """One occupancy pass for F inside build_assignment. The survivor family G
    is F itself when nothing is dropped (the (20,2) families, the second the
    first family of the check_wide benchmark workload); it takes a pass
    of its own only when pairing or the strata below d-1 drop members: the
    (8,2) seed-2 family drops 1 of 21 members and the (8,3) family 25 of 39 to
    the low strata, and the (8,2) seed-13 family also pairs away 2 members.
    validate reads the words the assignment carries and recomputes none."""
    fam = random_maximal_vc_family(seed)
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        fuzzing.check_family(fam, seed.d)
    totals = tracer.totals()
    assert totals["traces.occupancy_words"].calls == passes
    assert totals["certificates.build_assignment"].calls == 1
    assert totals["certificates.CertificateAssignment.validate"].calls == 1
