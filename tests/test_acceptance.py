"""Ten acceptance criteria, one test and one printed pass/fail line each.

The printed lines land in the "acceptance criteria" section of the pytest
terminal summary (see conftest). Criteria 3 and 4 share a single 10,000-family
campaign across n in 8..14 and d in {2,3}; everything else is self-contained.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import conftest
from oracles import oracle_max_family, oracle_vc, oracle_vc_le
from vcx.bitwords import elements_of, k_subset_masks
from vcx.certificates import fiber_bound
from vcx.constructions import SplitMix64, star_family
from vcx.families import UniformFamily, sauer_shelah_bound, vc_dimension
from vcx.fuzzing import fuzz_campaign
from vcx.pipeline import H0STAR, H12, run_pipeline
from vcx.search import certificate_order_max, exact_max, lower_bound_witness, search_bracket
from vcx.sunflower import find_sunflower, sunflower_threshold, validate_sunflower

GRID = [(n, d) for d in (2, 3) for n in range(8, 15)]
CAMPAIGN_TOTAL = 10_000


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def seeded_mixed_family(seed):
    """Arbitrary-VC random family: n <= 10, k <= 4, up to 40 members."""
    rng = SplitMix64(seed)
    n = 4 + rng.below(7)
    k = 1 + rng.below(min(4, n))
    pool = list(k_subset_masks(n, k))
    rng.shuffle(pool)
    m = rng.below(min(len(pool), 40) + 1)
    return UniformFamily.from_masks(n, k, pool[:m])


@pytest.fixture(scope="session")
def campaign():
    """10,000 checked families, counts split near-evenly over the grid."""
    base, extra = divmod(CAMPAIGN_TOTAL, len(GRID))
    t0 = time.monotonic()
    summaries = []
    for i, (n, d) in enumerate(GRID):
        count = base + (1 if i < extra else 0)
        summaries.append(fuzz_campaign(n, d, count, seed0=i * 100_000))
    elapsed = time.monotonic() - t0
    return summaries, elapsed


def test_criterion_1_vc_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for seed in range(1000):
        fam = seeded_mixed_family(seed)
        if vc_dimension(fam) != oracle_vc(fam.n, [elements_of(m) for m in fam]):
            mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        mismatches == 0 and elapsed < 60,
        f"vc_dimension vs 2^n oracle on 1000 families: "
        f"{mismatches} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_classical_bounds(campaign):
    summaries, _ = campaign
    violations = 0
    for seed in range(1000):
        fam = seeded_mixed_family(seed)
        vc = vc_dimension(fam)
        if len(fam) > sauer_shelah_bound(fam.n, max(vc, 0)):
            violations += 1
    for s in summaries:
        # every campaign family is (d+1)-uniform with VC <= d by construction
        if s.max_size > comb(s.n, s.d):
            violations += 1
    families = 1000 + sum(s.count for s in summaries)
    report(
        2,
        violations == 0,
        f"Sauer-Shelah and C(n,d) bounds over {families} families: "
        f"{violations} violations",
    )


def test_criterion_3_fiber_structure(campaign):
    summaries, elapsed = campaign
    failures = sum(len(s.failures) for s in summaries)
    total = sum(s.count for s in summaries)
    bound_ok = all(s.max_fiber <= fiber_bound(s.d) for s in summaries)
    shapes = {}
    for s in summaries:
        for kind, cnt in s.shapes.items():
            shapes[kind] = shapes.get(kind, 0) + cnt
    only_known = set(shapes) <= {"TRIANGLE", "CHERRY", "SINGLETON"}
    worst_fiber = max(s.max_fiber for s in summaries)
    report(
        3,
        failures == 0 and bound_ok and only_known and elapsed < 600,
        f"{total} families: {failures} violations, max fiber {worst_fiber}, "
        f"shapes {shapes}, {elapsed:.0f}s (budget 600s)",
    )


def test_criterion_4_pipeline_soundness(campaign):
    summaries, _ = campaign
    failures = [f for s in summaries for f in s.failures]
    max_col = max(s.max_column for s in summaries)
    min_slack = min(s.min_slack for s in summaries)
    total = sum(s.count for s in summaries)
    report(
        4,
        not failures and max_col <= 2 and min_slack >= 0,
        f"partition/coefficient/injection/audit assertions on {total} families: "
        f"{len(failures)} violations, max column {max_col} half-units, "
        f"tightest audit slack {min_slack}",
    )


def test_criterion_5_star_worked_example():
    report5 = run_pipeline(star_family(5, 2), 2)
    classes = {elements_of(m): c for m, c in report5.classes.items()}
    fmap = {elements_of(m): im for m, im in report5.fmap.items()}
    chain = next(c for c in report5.audit.asserted if c[0] == "family_le_f1_f2_chain")
    ok = (
        report5.anchors == (1, 2)
        and classes
        == {
            (1, 2, 3): H12, (1, 2, 4): H12, (1, 2, 5): H12,
            (1, 3, 4): H0STAR, (1, 3, 5): H0STAR, (1, 4, 5): H0STAR,
        }
        and [elements_of(s) for s in report5.index_sets]
        == [(3,), (4,), (3, 4), (5,), (3, 5), (4, 5)]
        and fmap
        == {
            (1, 2, 3): ((0, 2),), (1, 2, 4): ((1, 2),), (1, 2, 5): ((3, 2),),
            (1, 3, 4): ((2, 2),), (1, 3, 5): ((4, 2),), (1, 4, 5): ((5, 2),),
        }
        and len(report5.index_sets) == 6
        and (chain[1], chain[2], chain[3]) == (6, 6, True)
        and report5.max_column == 2
    )
    report(5, ok, "star(5,2) reproduces the hand-derived report (audit 6 <= 6, tight)")


def test_criterion_6_sunflower_threshold():
    rng = SplitMix64(60_000)
    misses = 0
    for trial in range(200):
        k = 2 + rng.below(2)
        p = 3 + rng.below(2)
        need = sunflower_threshold(k, p)
        n = 12 + rng.below(9)
        pool = list(k_subset_masks(n, k))
        while len(pool) < need:
            n += 2
            pool = list(k_subset_masks(n, k))
        rng.shuffle(pool)
        fam = UniformFamily.from_masks(n, k, pool[:need])
        flower = find_sunflower(fam, p)
        if flower is None or not validate_sunflower(flower) or len(flower.petals) < p:
            misses += 1
    report(
        6,
        misses == 0,
        f"200 threshold-size families (k in 2..3, p in 3..4): {misses} misses",
    )


def test_criterion_7_exact_extremal_numbers():
    r41 = exact_max(4, 1)
    oracle41 = oracle_max_family(4, 1)
    r52 = exact_max(5, 2)
    oracle52 = oracle_max_family(5, 2)
    r62 = exact_max(6, 2)
    lo, hi = search_bracket(6, 2)
    ok = (
        r41.best == 3 == oracle41 and r41.optimal
        and r52.best == oracle52 and r52.optimal
        and r62.optimal and lo <= r62.best <= hi
    )
    report(
        7,
        ok,
        f"exact_max(4,1)={r41.best} (oracle {oracle41}), "
        f"exact_max(5,2)={r52.best} (oracle {oracle52}), "
        f"exact_max(6,2)={r62.best} optimal={r62.optimal} in [{lo},{hi}]",
    )


def test_criterion_8_lower_bound_witnesses():
    results = []
    ok = True
    for n, want in [(6, 11), (7, 16)]:
        t0 = time.monotonic()
        r = lower_bound_witness(n, 2)
        elapsed = time.monotonic() - t0
        fam = UniformFamily.from_masks(n, 3, r.witness)
        verified = oracle_vc_le(n, [elements_of(m) for m in fam], 2)
        ok = ok and r.target == want and r.best >= want and verified and elapsed < 600
        results.append(f"({n},2): size {r.best} in {elapsed:.1f}s")
    report(8, ok, "witnesses with oracle-verified VC <= 2: " + ", ".join(results))


def test_criterion_9_conjecture_probe():
    lines = []
    ok = True
    for s in (0, 2):
        r = certificate_order_max(6, 2, s)
        within = r.optimal and r.best <= 10
        if not within:
            witness = [elements_of(m) for m in r.witness]
            lines.append(
                f"s={s}: CONJECTURE COUNTEREXAMPLE best={r.best} > 10, "
                f"witness {witness}"
            )
        else:
            lines.append(f"s={s}: best={r.best} <= 10, optimal")
        ok = ok and within
    report(9, ok, "; ".join(lines))


def _cli_json(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "vcx", *args, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _stable(payload):
    payload = json.loads(json.dumps(payload))
    payload["manifest"].pop("wall_time_ms")
    for key in ("wall_time_ms", "wall_ms", "nodes"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def test_criterion_10_determinism(tmp_path):
    fam_path = str(tmp_path / "f.fam")
    subprocess.run(
        [sys.executable, "-m", "vcx", "gen", "--kind", "random", "--n", "9",
         "--d", "2", "--seed", "77", "--out", fam_path],
        check=True,
        capture_output=True,
    )
    checks = []
    for args in (
        ("pipeline", "--input", fam_path, "--d", "2"),
        ("certify", "--input", fam_path, "--d", "2"),
        ("search", "--n", "6", "--d", "2", "--mode", "exact"),
        ("fuzz", "--n", "6", "--d", "2", "--count", "5", "--seed0", "3"),
    ):
        one, two = _cli_json(*args), _cli_json(*args)
        same_bytes = _stable(one) == _stable(two)
        same_digest = one["manifest"]["result_digest"] == two["manifest"]["result_digest"]
        checks.append(same_bytes and same_digest)
    report(
        10,
        all(checks),
        f"byte-identical reruns (wall-time/node fields excluded) for "
        f"{len(checks)} commands",
    )
