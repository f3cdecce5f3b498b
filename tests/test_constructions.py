import hashlib
from math import comb

import pytest

from oracles import oracle_vc_le
from vcx.constructions import (
    FuzzSeed,
    SplitMix64,
    complete_family,
    random_maximal_vc_family,
    star_family,
)
from vcx.bitwords import elements_of
from vcx.errors import UsageError
from vcx.families import MAX_GEN_WORK, vc_dimension


def test_splitmix_reference_vector():
    # First outputs for seed 0 from the reference C implementation.
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_below_is_in_range():
    rng = SplitMix64(5)
    for bound in (1, 2, 3, 7, 100, 12345):
        for _ in range(50):
            assert 0 <= rng.below(bound) < bound


def test_shuffle_is_a_permutation_and_deterministic():
    a = list(range(30))
    b = list(range(30))
    SplitMix64(42).shuffle(a)
    SplitMix64(42).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(30))
    c = list(range(30))
    SplitMix64(43).shuffle(c)
    assert c != a


def _reference_shuffle(rng, items):
    """Fisher-Yates driven by below(), one draw per position from the top."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def test_shuffle_matches_scalar_fisher_yates():
    # the last seed makes the counter wrap past 2**64 on its first draw
    for seed in (0, 42, 2**63 + 12345, 2**64 - 1):
        for length in (0, 1, 2, 3, 56, 1001, 3276):
            want = list(range(length))
            ref = SplitMix64(seed)
            _reference_shuffle(ref, want)
            got = list(range(length))
            rng = SplitMix64(seed)
            rng.shuffle(got)
            assert got == want, (seed, length)
            assert rng.next64() == ref.next64(), (seed, length)


def test_star_families():
    fam = star_family(5, 2)
    assert [elements_of(m) for m in fam] == [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (1, 3, 5), (1, 4, 5),
    ]
    assert len(fam) == comb(4, 2)
    assert [elements_of(m) for m in star_family(3, 2)] == [(1, 2, 3)]
    assert len(star_family(8, 3)) == comb(7, 3)


def test_complete_families():
    assert len(complete_family(4, 2)) == 6
    assert len(complete_family(4, 4)) == 1
    fam = complete_family(5, 3)
    assert len(fam) == 10
    assert vc_dimension(fam) == 2


def test_random_maximal_is_deterministic():
    a = random_maximal_vc_family(FuzzSeed(11, 6, 2))
    b = random_maximal_vc_family(FuzzSeed(11, 6, 2))
    assert a.masks == b.masks
    c = random_maximal_vc_family(FuzzSeed(12, 6, 2))
    assert c.masks != a.masks


@pytest.mark.parametrize(
    "n, d, allowed", [(19, 17, True), (14, 5, True), (18, 11, False)]
)
def test_random_generation_work_bound(n, d, allowed):
    """C(n, d+1) candidates times 2^(d+1) traces each: (19,17) and the d = 5
    campaign cells stay under the bound, (18,11) is refused before listing."""
    assert (comb(n, d + 1) << (d + 1) <= MAX_GEN_WORK) == allowed
    if not allowed:
        with pytest.raises(UsageError, match=f"2\\^{d + 1} traces exceed the limit"):
            random_maximal_vc_family(FuzzSeed(0, n, d))


def test_random_maximal_respects_vc_oracle():
    for seed in range(25):
        fam = random_maximal_vc_family(FuzzSeed(seed, 7, 2))
        members = [elements_of(m) for m in fam]
        assert oracle_vc_le(fam.n, members, 2), f"seed {seed}"


def test_random_maximal_is_maximal():
    """No candidate outside the family can be added without pushing VC past d."""
    for seed in range(6):
        fam = random_maximal_vc_family(FuzzSeed(seed, 6, 2))
        members = [elements_of(m) for m in fam]
        from itertools import combinations

        for cand in combinations(range(1, 7), 3):
            if cand in members:
                continue
            assert not oracle_vc_le(6, members + [cand], 2), f"seed {seed}, {cand}"


def test_random_maximal_size_stays_below_complete_bound():
    # For n >= 2(d+1) the full C(n,d) value is never reachable.
    for seed in range(20):
        for (n, d) in [(6, 2), (8, 2), (8, 3)]:
            fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
            assert len(fam) <= comb(n, d) - 1, f"seed {seed}, (n={n},d={d})"


# sha256 prefix of the sorted member masks over seeds 0..4 of each acceptance
# cell, plus the five check_wide cells at seed 0, where TraceTracker keeps its
# members as bitsets; pinned so generator rewrites stay exact
PINNED_DIGESTS = {
    (8, 2): "210708341c76a6d4",
    (9, 2): "46013b4715f632db",
    (10, 2): "112a178d3d7f61d9",
    (11, 2): "2ef669e479a96ad3",
    (12, 2): "33e0debd729b113b",
    (13, 2): "d708a18a2e5960d0",
    (14, 2): "afcadf68100f0f38",
    (8, 3): "574230eb701f7645",
    (9, 3): "a1ec8c7e619dafaf",
    (10, 3): "f19ea1efd1ac86d5",
    (11, 3): "b1bbb834d2addb8c",
    (12, 3): "529dcbf38a0fa8b4",
    (13, 3): "c116d29e11885329",
    (14, 3): "20a9c24073b175da",
    (20, 2): "42ff7a22e764af8a",
    (24, 2): "d90df91d7353f3d4",
    (28, 2): "ea36fffbef130861",
    (16, 3): "9419781fa677def8",
    (18, 3): "eba44eaf3456a100",
}


def test_random_maximal_output_is_pinned():
    for (n, d), want in PINNED_DIGESTS.items():
        seeds = range(5) if n <= 14 else range(1)
        h = hashlib.sha256()
        for seed in seeds:
            fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
            h.update((",".join(f"{m:x}" for m in sorted(fam.masks)) + "\n").encode())
        assert h.hexdigest()[:16] == want, (n, d)
