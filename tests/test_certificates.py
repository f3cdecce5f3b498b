from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mask_from, oracle_certificates
from vcx.bitwords import elements_of, k_subset_masks, mask_of
from vcx.certificates import (
    CHERRY,
    SINGLETON,
    TRIANGLE,
    CertificateAssignment,
    build_assignment,
    classify_fiber,
    fiber_bound,
    fiber_size_histogram,
)
from vcx.constructions import FuzzSeed, random_maximal_vc_family, star_family
from vcx.errors import InvariantViolation, MemberShattered
from vcx.families import UniformFamily
from vcx.traces import Occupancy

FOUR_FAM = UniformFamily.from_element_lists(
    6, 3, [[3, 4, 5], [1, 3, 4], [2, 3, 5], [2, 4, 5]]
)


def w(*elements):
    return mask_of(elements)


def masks_to_sets(masks):
    return [elements_of(m) for m in masks]


# -------------------------------------------------------------- certificates


def test_build_assignment_canonical_choice():
    fam = UniformFamily.from_element_lists(4, 3, [[1, 2, 3], [1, 2, 4]])
    assert build_assignment(fam, 2).assigned[w(1, 2, 3)] == w(1, 3)
    fam1 = UniformFamily.from_element_lists(3, 3, [[1, 2, 3]])
    assert build_assignment(fam1, 2).assigned[w(1, 2, 3)] == w(1, 2)
    assert build_assignment(FOUR_FAM, 2).assigned[w(3, 4, 5)] == w(3)


def test_build_assignment_shattered_member_raises():
    # In the complete 3-uniform family on [6], every proper subset of {1,2,3}
    # is realized as a trace ({4,5,6} gives the empty one), so no certificate.
    fam = UniformFamily.from_masks(6, 3, k_subset_masks(6, 3))
    with pytest.raises(MemberShattered, match=r"member \{1,2,3\} is shattered") as err:
        build_assignment(fam, 2)
    assert err.value.member == w(1, 2, 3)


# ---------------------------------------------------------------- assignment


def test_star_assignment():
    fam = star_family(5, 2)
    assign = build_assignment(fam, 2)
    for F in fam:
        assert assign.assigned[F] == F & ~1  # F minus element 1
    assert set(assign.strata) == {2}
    assert len(assign.strata[2]) == 6
    hist, biggest = fiber_size_histogram(assign)
    assert hist == {1: 6} and biggest == 1


def test_four_family_assignment_strata():
    assign = build_assignment(FOUR_FAM, 2)
    assert assign.assigned[w(3, 4, 5)] == w(3)
    assert assign.strata[1] == (w(3, 4, 5),)
    assert len(assign.strata[2]) == 3


def test_empty_assignment():
    assign = build_assignment(UniformFamily(5, 3, ()), 2)
    assert assign.assigned == {} and assign.fibers == {} and assign.strata == {}
    hist, biggest = fiber_size_histogram(assign)
    assert hist == {} and biggest == 0


def test_assignment_validate_catches_tampering():
    assign = build_assignment(star_family(5, 2), 2)
    assign.validate()
    first = next(iter(assign.assigned))
    good = assign.assigned[first]
    assign.assigned[first] = first & ~good & ~(1 << 0)  # some other subset
    with pytest.raises(InvariantViolation):
        assign.validate()
    assign.assigned[first] = good
    assign.validate()


def test_assignment_validate_catches_non_canonical_choice():
    """A valid but non-canonical certificate is refused."""
    swapped = 0
    for seed in range(10):
        fam = random_maximal_vc_family(FuzzSeed(seed, 8, 2))
        assign = build_assignment(fam, 2)
        assign.validate()
        lists = [elements_of(F) for F in fam]
        for F in fam:
            certs = oracle_certificates(elements_of(F), lists)
            top = sorted(mask_from(t) for t in certs if len(t) == 2)
            if len(top) < 2:
                continue
            assigned = dict(assign.assigned)
            assigned[F] = top[1]
            custom = CertificateAssignment(fam, 2, assigned, assign.occupancy)
            with pytest.raises(InvariantViolation, match="canonical"):
                custom.validate()
            swapped += 1
            break
    assert swapped


def test_validate_refuses_a_size_d_certificate_with_two_supersets():
    """{1,2} is {1,2,3}'s first d-subset in preference order, but the family
    also holds {1,2,4}, so it is realized on {1,2,3}: a size-d certificate
    must have one superset in the family."""
    fam = UniformFamily.from_element_lists(4, 3, [[1, 2, 3], [1, 2, 4]])
    real = build_assignment(fam, 2)
    assigned = {w(1, 2, 3): w(1, 2), w(1, 2, 4): real.assigned[w(1, 2, 4)]}
    custom = CertificateAssignment(fam, 2, assigned, real.occupancy)
    with pytest.raises(InvariantViolation, match="pin a unique superset member"):
        custom.validate()


@pytest.mark.parametrize(
    "cert", [w(2, 3), w(1)], ids=["second-lone-d-subset", "size-d-1-beside-a-lone-d-subset"]
)
def test_validate_refuses_a_pick_past_the_first_lone_d_subset(cert):
    """{1,3} and {2,3} lie in {1,2,3} alone, so its certificate is {1,3},
    the first of them in preference order ({1,2} is shared with {1,2,4}):
    the second lone d-subset and any smaller set are refused."""
    fam = UniformFamily.from_element_lists(4, 3, [[1, 2, 3], [1, 2, 4]])
    real = build_assignment(fam, 2)
    assert real.assigned[w(1, 2, 3)] == w(1, 3) and real.occupancy.words == []
    assigned = dict(real.assigned)
    assigned[w(1, 2, 3)] = cert
    custom = CertificateAssignment(fam, 2, assigned, real.occupancy)
    with pytest.raises(InvariantViolation, match="canonical"):
        custom.validate()


def test_validate_refuses_a_size_d_minus_1_fiber_of_four():
    """Four members through 1, each of whose 2-subsets also lies in a member
    with an element of its own, and words that leave only {1} clear below
    the size-2 traces: each takes {1}, a fiber of 4."""
    four = [[1, 2, 3], [1, 4, 5], [1, 6, 7], [1, 8, 9]]
    pairs = [pair for member in four for pair in combinations(member, 2)]
    extra = [[*pair, 10 + i] for i, pair in enumerate(pairs)]
    fam = UniformFamily.from_element_lists(21, 3, four + extra)
    assigned = dict(build_assignment(fam, 2).assigned)
    for member in four:
        assigned[mask_of(member)] = w(1)
    word = 0xFF & ~(1 << 0b001)  # every trace but compressed index 1, the lowest element
    custom = CertificateAssignment(fam, 2, assigned, Occupancy([word] * 4, [w(1)] * 4))
    with pytest.raises(InvariantViolation, match="has 4 > 3 members"):
        custom.validate()


@pytest.mark.parametrize("extra", [1, -1], ids=["one-word-too-many", "one-word-too-few"])
def test_validate_refuses_a_word_count_that_differs_from_the_low_members(extra):
    """FOUR_FAM's one low member, {3,4,5}, carries the one word; one more or
    one fewer is refused."""
    assign = build_assignment(FOUR_FAM, 2)
    words, certs = assign.occupancy
    assert len(words) == 1
    occ = Occupancy(words + [words[0]], certs + certs) if extra > 0 else Occupancy([], [])
    custom = CertificateAssignment(FOUR_FAM, 2, assign.assigned, occ)
    with pytest.raises(InvariantViolation, match="domain differs"):
        custom.validate()


@pytest.mark.parametrize("replace", [True, False])
def test_validate_refuses_a_foreign_member(replace):
    """One key outside the family, in place of a member (same size) or beside
    them (one more)."""
    assign = build_assignment(star_family(5, 2), 2)
    assigned = dict(assign.assigned)
    first = next(iter(assigned))
    assigned[w(2, 3, 4)] = assigned.pop(first) if replace else assigned[first]
    custom = CertificateAssignment(assign.family, 2, assigned, assign.occupancy)
    with pytest.raises(InvariantViolation, match="domain differs"):
        custom.validate()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_assignment_agrees_with_oracle_certificates(data):
    """Each member gets its largest, canonically least oracle certificate, and
    validate accepts the result; a member without certificates is refused."""
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.integers(d + 1, 8), label="n")
    pool = list(combinations(range(1, n + 1), d + 1))
    lists = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=30), label="members")
    fam = UniformFamily.from_element_lists(n, d + 1, lists)
    found = {F: oracle_certificates(elements_of(F), lists) for F in fam}
    if not all(found.values()):
        with pytest.raises(MemberShattered):
            build_assignment(fam, d)
        return
    assign = build_assignment(fam, d)
    for m, certs in found.items():
        top = max(len(t) for t in certs)
        assert assign.assigned[m] == min(mask_from(t) for t in certs if len(t) == top)
    assign.validate()


def test_fiber_bound_values():
    assert fiber_bound(1) == 2 * 4
    assert fiber_bound(2) == 6 * 27
    assert fiber_bound(3) == 24 * 256


# -------------------------------------------------------------- fiber shapes


def test_singleton_fiber_by_hand():
    assign = build_assignment(FOUR_FAM, 2)
    shape = classify_fiber(w(3), assign)
    assert shape.kind == SINGLETON
    assert shape.elements == (4, 5)
    assert masks_to_sets(shape.fiber) == [(3, 4, 5)]
    assert shape.side_u == (1,)
    assert shape.side_v == (2,)
    assert masks_to_sets(shape.reconstructed_fiber()) == [(3, 4, 5)]


def test_triangle_fiber_frozen_seed():
    # (n=8, d=2) seed 3 was found by scanning the deterministic generator.
    fam = random_maximal_vc_family(FuzzSeed(3, 8, 2))
    assign = build_assignment(fam, 2)
    shape = classify_fiber(w(6), assign)
    assert shape.kind == TRIANGLE
    assert shape.elements == (4, 7, 8)
    assert masks_to_sets(shape.fiber) == [(4, 6, 7), (4, 6, 8), (6, 7, 8)]
    assert masks_to_sets(shape.reconstructed_fiber()) == masks_to_sets(shape.fiber)


def test_cherry_fiber_frozen_seed():
    fam = random_maximal_vc_family(FuzzSeed(4, 8, 2))
    assign = build_assignment(fam, 2)
    shape = classify_fiber(w(8), assign)
    assert shape.kind == CHERRY
    shared, leaf1, leaf2 = shape.elements
    assert shared == 7 and {leaf1, leaf2} == {1, 2}
    assert masks_to_sets(shape.fiber) == [(1, 7, 8), (2, 7, 8)]
    assert shape.leaf_pair  # {T, b, c} = {1,2,8} is also a family member here
    assert shape.side_u == (5, 6)


def test_fiber_shapes_round_trip_seeded():
    """Every size-(d-1) fiber classifies and reconstructs exactly."""
    for seed in range(30):
        fam = random_maximal_vc_family(FuzzSeed(seed, 8, 2))
        assign = build_assignment(fam, 2)
        for t, members in assign.fibers.items():
            if t.bit_count() != 1:
                continue
            shape = classify_fiber(t, assign)
            assert shape.T == t
            assert shape.reconstructed_fiber() == shape.fiber == members, f"seed {seed}, T {t:#x}"


def test_size_d_fibers_pin_unique_supersets_seeded():
    for seed in range(30):
        fam = random_maximal_vc_family(FuzzSeed(seed, 9, 2))
        assign = build_assignment(fam, 2)
        for t, members in assign.fibers.items():
            if t.bit_count() == 2:
                supersets = [m for m in fam.masks if t & ~m == 0]
                assert len(members) == 1 and len(supersets) == 1, f"seed {seed}"
            if t.bit_count() == 1:
                assert len(members) <= 3, f"seed {seed}"
