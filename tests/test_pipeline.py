import dataclasses
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import mask_from, oracle_certificates, oracle_shadow_count
from vcx import pipeline
from vcx.bitwords import elements_of, mask_of
from vcx.certificates import CertificateAssignment, build_assignment
from vcx.constructions import FuzzSeed, SplitMix64, random_maximal_vc_family, star_family
from vcx.errors import InvariantViolation, UsageError
from vcx.families import UniformFamily
from vcx.fuzzing import check_family
from vcx.pipeline import (
    H0STAR,
    H11,
    H12,
    KD,
    KD1,
    build_f,
    build_injection_g,
    build_pair_collection,
    partition_family,
    run_pipeline,
    verify_column_sums,
)

FOUR_FAM = UniformFamily.from_element_lists(
    6, 3, [[3, 4, 5], [1, 3, 4], [2, 3, 5], [2, 4, 5]]
)


def sets_of(masks):
    return [elements_of(m) for m in masks]


# ------------------------------------------------------------------ star(5,2)


def test_star_pair_collection_empty():
    assign = build_assignment(star_family(5, 2), 2)
    pc = build_pair_collection(assign)
    assert pc.pairs == () and pc.paired == frozenset()


def test_star_partition_and_anchors():
    report = partition_family(star_family(5, 2), 2)
    assert report.anchors == (1, 2)
    assert report.f1 == () and report.f2 == ()
    assert len(report.f3) == 6
    got = {elements_of(m): label for m, label in report.classes.items()}
    assert got == {
        (1, 2, 3): H12,
        (1, 2, 4): H12,
        (1, 2, 5): H12,
        (1, 3, 4): H0STAR,
        (1, 3, 5): H0STAR,
        (1, 4, 5): H0STAR,
    }
    assert sets_of(report.index_sets) == [(3,), (4,), (3, 4), (5,), (3, 5), (4, 5)]


def test_star_full_report_frozen():
    report = run_pipeline(star_family(5, 2), 2)
    f_by_elems = {elements_of(m): image for m, image in report.fmap.items()}
    assert f_by_elems == {
        (1, 2, 3): ((0, 2),),
        (1, 2, 4): ((1, 2),),
        (1, 2, 5): ((3, 2),),
        (1, 3, 4): ((2, 2),),
        (1, 3, 5): ((4, 2),),
        (1, 4, 5): ((5, 2),),
    }
    g_by_elems = {elements_of(m): i for m, i in report.gmap.items()}
    assert g_by_elems == {
        (1, 2, 3): 0,
        (1, 2, 4): 1,
        (1, 2, 5): 3,
        (1, 3, 4): 2,
        (1, 3, 5): 4,
        (1, 4, 5): 5,
    }
    assert report.max_column == 2
    audit = report.audit
    assert audit.f_size == 6 and audit.f3_size == 6 and audit.index_size == 6
    assert audit.binom_n1_d == 6 and audit.comp_shadow_f3_v == 0
    chain = next(c for c in audit.asserted if c[0] == "family_le_f1_f2_chain")
    assert (chain[1], chain[2], chain[3]) == (6, 6, True)
    assert audit.slack == chain[2] - chain[1]
    assert audit.reported["pair_threshold"] == Fraction(1600)


# ------------------------------------------------------------ the 4-member fam


def test_four_family_partition_frozen():
    report = run_pipeline(FOUR_FAM, 2)
    assert report.anchors == (3, 4)
    assert report.pair_collection.pairs == ()
    assert sets_of(report.f2) == [(3, 4, 5)]
    assert report.f1 == ()
    got = {elements_of(m): label for m, label in report.classes.items()}
    assert got == {(1, 3, 4): H12, (2, 3, 5): H11, (2, 4, 5): H11}
    assert sets_of(report.index_sets) == [(1,), (2,), (5,), (2, 5), (6,)]
    f_by = {elements_of(m): image for m, image in report.fmap.items()}
    assert f_by[(1, 3, 4)] == ((0, 2),)
    assert sorted(f_by[(2, 3, 5)]) == [(1, 1), (3, 1)]
    assert sorted(f_by[(2, 4, 5)]) == [(1, 1), (3, 1)]
    g_by = {elements_of(m): i for m, i in report.gmap.items()}
    assert g_by == {(1, 3, 4): 0, (2, 3, 5): 1, (2, 4, 5): 3}
    chain = next(c for c in report.audit.asserted if c[0] == "family_le_f1_f2_chain")
    assert (chain[1], chain[2]) == (4, 6)
    assert report.audit.comp_shadow_f3_v == 5


# ------------------------------------------------------- stage invariants


def _star_stages():
    """star(5,2) partitioned, its f, and member masks by element tuple."""
    report = partition_family(star_family(5, 2), 2)
    return report, build_f(report), {elements_of(m): m for m in report.f3}


def test_column_sums_reject_a_column_of_three_half_units():
    report, fmap, by = _star_stages()
    # {1,3,4} moves a half-unit onto column 0, which {1,2,3} already fills with 2
    fmap[by[(1, 3, 4)]] = ((0, 1), (2, 1))
    with pytest.raises(InvariantViolation, match="column sum 3"):
        verify_column_sums(report, fmap)


def test_column_sums_reject_a_member_of_one_half_unit():
    report, fmap, by = _star_stages()
    fmap[by[(1, 3, 4)]] = ((2, 1),)
    with pytest.raises(InvariantViolation, match="mass 1"):
        verify_column_sums(report, fmap)


def test_injection_rejects_unit_images_that_share_an_index():
    report, fmap, by = _star_stages()
    fmap[by[(1, 3, 4)]] = fmap[by[(1, 2, 3)]]
    with pytest.raises(InvariantViolation, match="share an index"):
        build_injection_g(report.f3, fmap)


@pytest.mark.parametrize("tamper", ["drop a survivor", "keep a paired member"])
def test_partition_refuses_an_inexact_split(monkeypatch, tamper):
    """A survivor family G that misses a member leaves it in no part; one that
    keeps a paired member puts it in F1 and in F2 or F3 as well."""
    build_g = pipeline.build_g_and_reassign

    def tampered(assign, pc):
        g = build_g(assign, pc)
        masks = set(g.family.masks)
        if tamper == "drop a survivor":
            masks.discard(g.family.masks[0])
        else:
            masks.add(min(pc.paired))
        sub = UniformFamily.from_masks(g.family.n, g.family.k, masks)
        cg = {m: g.assigned.get(m, assign.assigned[m]) for m in sub.masks}
        return CertificateAssignment(sub, g.d, cg, g.occupancy)

    monkeypatch.setattr(pipeline, "build_g_and_reassign", tampered)
    with pytest.raises(InvariantViolation, match="partition is not exact"):
        partition_family(random_maximal_vc_family(FuzzSeed(13, 8, 2)), 2)  # one pair


# synthetic F3 members 1, 2, 4 and images on index positions 0..3
@pytest.mark.parametrize(
    "f3, fmap, message",
    [
        ((1, 2), {1: ((0, 2),), 2: ((0, 1), (1, 1))}, "collide with the half-half index pool"),
        (
            (1, 2, 4),
            {1: ((0, 1), (1, 1)), 2: ((0, 1), (2, 1)), 4: ((0, 1), (3, 1))},
            "index 0 supports 3 > 2",
        ),
        ((1,), {1: ()}, "outnumber"),
        # F3 lists member 1 twice: both pool indices go to it, one image is left
        ((1, 1), {1: ((0, 1), (1, 1))}, "collision"),
    ],
)
def test_injection_rejects_tampered_maps(f3, fmap, message):
    with pytest.raises(InvariantViolation, match=message):
        build_injection_g(f3, fmap)


def test_injection_is_the_same_from_a_shuffled_f3():
    report = run_pipeline(random_maximal_vc_family(FuzzSeed(2, 8, 2)), 2)
    assert sum(len(v) == 2 for v in report.fmap.values()) == 9  # half-half members
    shuffled = list(report.f3)
    SplitMix64(5).shuffle(shuffled)
    assert shuffled != list(report.f3)
    gmap = build_injection_g(tuple(shuffled), report.fmap)
    assert list(gmap.items()) == list(report.gmap.items())
    assert list(gmap) == sorted(report.f3)


def test_build_f_rejects_an_image_outside_the_index_family():
    report, _, _ = _star_stages()
    with pytest.raises(InvariantViolation, match="outside the index family"):
        build_f(dataclasses.replace(report, index_of={}))


# -------------------------------------------------------------------- corners


def test_empty_family_pipeline():
    report = run_pipeline(UniformFamily(5, 3, ()), 2)
    assert report.anchors == (1, 2)
    assert report.f1 == () and report.f2 == () and report.f3 == ()
    assert len(report.index_sets) == 3
    assert report.audit.f_size == 0
    assert all(ok for (_, _, _, ok) in report.audit.asserted)


def test_shattered_member_is_a_usage_error():
    # One member per subset of {1,2,3}: the eight traces make it shattered.
    fam = UniformFamily.from_element_lists(
        6, 3, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 4, 5], [2, 4, 5],
               [3, 4, 5], [4, 5, 6]]
    )
    with pytest.raises(UsageError):
        partition_family(fam, 2)
    with pytest.raises(InvariantViolation):
        partition_family(fam, 2, assume_vc=True)


def test_d1_families_work():
    fam = random_maximal_vc_family(FuzzSeed(5, 6, 1))
    check = check_family(fam, 1)
    assert check.max_column <= 2
    assert check.audit_slack >= 0


# --------------------------------------------------------------- frozen pairs


def test_pair_collection_frozen_seed():
    # (n=8, d=2) seed 13 pairs {1,2,6} with {2,4,6}; found by seed scan.
    fam = random_maximal_vc_family(FuzzSeed(13, 8, 2))
    report = run_pipeline(fam, 2)
    pc = report.pair_collection
    assert len(pc.pairs) == 1
    a, b = pc.pairs[0]
    assert sets_of([a, b]) == [(1, 2, 6), (2, 4, 6)]
    assert (a & b).bit_count() == 2
    assign = report.assign
    ca, cb = assign.assigned[a], assign.assigned[b]
    assert ca | cb == a & b
    assert (ca & cb).bit_count() == 0  # d - 2
    assert pc.paired == {a, b}
    assert a in set(report.f1) and b in set(report.f1)


def test_pair_invariants_seeded():
    # at d = 3 paired certificates share d - 2 = 1 element, not none
    for seed, n, d in [(13, 8, 2), (7, 9, 2), (49, 10, 2), (1, 9, 3), (10, 10, 3)]:
        fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
        assign = build_assignment(fam, d)
        pc = build_pair_collection(assign)
        assert len(pc.pairs) == 1, (seed, n, d)  # found by seed scan
        stratum = set(assign.strata.get(d - 1, ()))
        seen = set()
        for a, b in pc.pairs:
            assert a < b
            assert a in stratum and b in stratum
            assert not {a, b} & seen, "members reused across pairs"
            seen |= {a, b}
            assert (a & b).bit_count() == d
            assert assign.assigned[a] | assign.assigned[b] == a & b
            assert (assign.assigned[a] & assign.assigned[b]).bit_count() == d - 2
        # maximality: no unpaired couple still qualifies
        free = sorted(stratum - pc.paired)
        for i, a in enumerate(free):
            for b in free[i + 1:]:
                assert assign.assigned[a] | assign.assigned[b] != a & b, (a, b)


# ----------------------------------------------------------- seeded invariants


def test_check_family_sweep_small():
    """Full assertion sweep; the heavy campaign lives in the acceptance module."""
    for seed in range(40):
        check = check_family(random_maximal_vc_family(FuzzSeed(seed, 8, 2)), 2, seed)
        assert check.max_column <= 2
        assert check.audit_slack >= 0
    for seed in range(15):
        check = check_family(random_maximal_vc_family(FuzzSeed(seed, 9, 3)), 3, seed)
        assert check.max_column <= 2
        assert check.audit_slack >= 0


def _reference_anchor_pair(assign_g):
    """The anchor rule read literally, on element tuples: the least
    (complement-shadow load, (d-1)-stratum load, (i, j))."""
    n, d = assign_g.family.n, assign_g.d
    members = [set(elements_of(m)) for m in assign_g.family]
    shadow = {frozenset(S) for m in members for S in combinations(sorted(m), d)}
    stratum = [set(elements_of(m)) for m in assign_g.strata.get(d - 1, ())]

    def loads(e):
        d_sets = [frozenset(S) for S in combinations(range(1, n + 1), d) if e in S]
        return sum(1 for S in d_sets if S not in shadow), sum(1 for m in stratum if e in m)

    per = {e: loads(e) for e in range(1, n + 1)}
    return min(
        (per[i][0] + per[j][0], per[i][1] + per[j][1], (i, j))
        for i, j in combinations(range(1, n + 1), 2)
    )[2]


def test_anchor_pair_matches_the_reference_rule():
    for n, d, seeds in [(8, 2, range(12)), (12, 2, range(4)), (9, 3, range(8))]:
        for seed in seeds:
            report = partition_family(random_maximal_vc_family(FuzzSeed(seed, n, d)), d)
            assert report.anchors == _reference_anchor_pair(report.assign_g), (n, d, seed)
    # ties everywhere: the star's survivors leave every pair equally loaded
    report = partition_family(star_family(6, 2), 2)
    assert report.anchors == _reference_anchor_pair(report.assign_g) == (1, 2)


def test_class_certificate_invariants_seeded():
    for seed in range(20):
        fam = random_maximal_vc_family(FuzzSeed(seed, 9, 2))
        report = run_pipeline(fam, 2)
        i, j = report.anchors
        ij = mask_of((i, j))
        for m, label in report.classes.items():
            cg = report.assign_g.assigned[m]
            if label in (H0STAR, H11, H12):
                assert cg.bit_count() == 2
                assert (cg & ij).bit_count() <= 1
            if label == H12:
                assert (m & ij).bit_count() == 2
            if label == H11:
                assert (cg & ij).bit_count() == 1 and (m & ij).bit_count() == 1
            if label == H0STAR:
                assert cg & ij == 0
            if label in (KD, KD1):
                assert m & ij == 0


def test_partition_exactness_seeded():
    for seed in range(20):
        fam = random_maximal_vc_family(FuzzSeed(seed, 10, 2))
        report = partition_family(fam, 2)
        f1, f2, f3 = set(report.f1), set(report.f2), set(report.f3)
        assert not (f1 & f2) and not (f1 & f3) and not (f2 & f3)
        assert f1 | f2 | f3 == set(fam.masks)
        assert set(report.classes) == f3


# (8,2) seed 2 drops 1 of 21 members and (8,3) seed 700001 25 of 39, all from
# the strata below d-1; (8,2) seed 13 also pairs away 2 members; (20,2) seed 0
# drops nothing. At (8,2) seeds 3 (nothing dropped) and 31 (members dropped),
# an F2 member puts a d-set of V in G's shadow that F3's lacks. Found by seed
# scan.
SURVIVOR_SEEDS = [FuzzSeed(2, 8, 2), FuzzSeed(700001, 8, 3), FuzzSeed(13, 8, 2),
                  FuzzSeed(0, 20, 2), FuzzSeed(3, 8, 2), FuzzSeed(31, 8, 2)]
SURVIVOR_SEEDS += [FuzzSeed(seed, 9, 2) for seed in range(8)]
SURVIVOR_SEEDS += [FuzzSeed(seed, 9, 3) for seed in range(4)]


def test_survivor_family_and_f3_shadow_match_the_oracles():
    """G is F itself, with F's assignment, when nothing is dropped, and F3's
    index sets come from G's shadow counts; both are held to the brute-force
    oracles on element tuples, and F's cached shadow counts must survive the
    run unchanged."""
    dropped_cases = 0
    for seed in SURVIVOR_SEEDS:
        fam = random_maximal_vc_family(seed)
        d = seed.d
        report = run_pipeline(fam, d)
        ij = mask_of(report.anchors)
        f3_shadow = oracle_shadow_count(sets_of(report.f3))
        assert {elements_of(s) for s in report.index_sets if s.bit_count() == d} == {
            t for t in f3_shadow if not mask_from(t) & ij
        }, seed
        assert {elements_of(s): c for s, c in fam.shadow_count.items()} == oracle_shadow_count(
            sets_of(fam.masks)
        ), seed
        g = report.assign_g
        if not report.f1:
            assert g is report.assign, seed
            assert g.family is report.family, seed
            continue
        dropped_cases += 1
        survivors = sets_of(g.family.masks)
        for m, c in g.assigned.items():
            if c.bit_count() != d:
                continue
            unrealized = oracle_certificates(elements_of(m), survivors)
            top = max(map(len, unrealized))
            assert top == d, (seed, m)
            assert c == min(mask_from(t) for t in unrealized if len(t) == top), (seed, m)
    assert 0 < dropped_cases < len(SURVIVOR_SEEDS)


def test_coefficient_masses_and_ownership_seeded():
    for seed in range(20):
        fam = random_maximal_vc_family(FuzzSeed(seed, 9, 2))
        report = run_pipeline(fam, 2)
        columns = {}
        for m, image in report.fmap.items():
            assert sum(units for _, units in image) == 2
            for idx, units in image:
                assert units in (1, 2)
                assert report.index_sets[idx] & ~m == 0, "index set outside member"
                columns[idx] = columns.get(idx, 0) + units
        assert max(columns.values(), default=0) == report.max_column <= 2
        g_values = list(report.gmap.values())
        assert len(set(g_values)) == len(g_values), "g not injective"
        assert all(0 <= i < len(report.index_sets) for i in g_values)
        for m, idx in report.gmap.items():
            image = report.fmap[m]
            if len(image) == 1:
                # whole-unit members keep their own column
                assert idx == image[0][0]


def test_audit_pascal_identity():
    for n, d in [(8, 2), (10, 2), (9, 3), (14, 3)]:
        assert comb(n - 2, d - 1) + comb(n - 2, d) == comb(n - 1, d)


# (n, d, seed) -> check_family outputs: size, strata, max fiber, shapes, classes,
# max column, audit slack; then run_pipeline's anchors, |comp-shadow(G)|,
# |comp-shadow(G) within V|, |comp-shadow(F)| and index family size. Recorded
# before the checker computed shadows and member positions once per check.
WIDE_PINNED = {
    (20, 2, 0): ((109, {2: 109}, 1, {}, {H0STAR: 10, H11: 22, KD: 76}, 2, 63),
                 ((1, 2), 0, 0, 0, 171)),
    (20, 2, 1): ((109, {2: 109}, 1, {}, {H0STAR: 6, H11: 22, KD: 80}, 2, 62),
                 ((1, 2), 1, 1, 1, 170)),
    (28, 2, 0): ((213, {2: 213}, 1, {}, {H0STAR: 12, H11: 30, KD: 170}, 2, 139),
                 ((1, 2), 0, 0, 0, 351)),
    (28, 2, 1): ((215, {2: 215}, 1, {}, {H0STAR: 21, H11: 30, KD: 163}, 2, 137),
                 ((1, 2), 0, 0, 0, 351)),
    (16, 3, 0): ((269, {2: 1, 3: 268}, 1, {"SINGLETON": 1},
                  {H0STAR: 29, H11: 81, H12: 6, KD: 144, KD1: 1}, 2, 193),
                 ((1, 2), 1, 1, 1, 454)),
    (16, 3, 1): ((263, {2: 3, 3: 260}, 1, {"SINGLETON": 3},
                  {H0STAR: 16, H11: 81, H12: 7, KD: 149, KD1: 3}, 2, 189),
                 ((5, 6), 10, 10, 10, 445)),
}


@pytest.mark.parametrize("n, d, seed", sorted(WIDE_PINNED))
def test_check_family_wide_outputs_are_pinned(n, d, seed):
    fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
    c = check_family(fam, d, seed)
    got = (c.size, c.strata, c.max_fiber, c.shapes, c.classes, c.max_column, c.audit_slack)
    report = run_pipeline(fam, d)
    audit = report.audit
    got_audit = (report.anchors, audit.comp_shadow_g, audit.comp_shadow_g_v,
                 audit.reported["comp_shadow_f"], audit.index_size)
    assert (got, got_audit) == WIDE_PINNED[(n, d, seed)]
    chain = next(c for c in audit.asserted if c[0] == "family_le_f1_f2_chain")
    assert audit.slack == chain[2] - chain[1]
