from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_shadow_count, oracle_vc
from vcx import families
from vcx.constructions import SplitMix64, star_family
from vcx.bitwords import elements_of, k_subset_masks, mask_of
from vcx.errors import UsageError
from vcx.families import (
    UniformFamily,
    complement_shadow,
    frankl_pach_bound,
    is_shattered,
    sauer_shelah_bound,
    shadow,
    shattered_witness,
    vc_dimension,
)
from vcx.famfile import format_family, parse_family


def w(*elements):
    return mask_of(elements)


def fam_of(n, k, *element_lists):
    return UniformFamily.from_element_lists(n, k, element_lists)


def seeded_family(seed, max_n=10, max_k=4, max_members=40):
    rng = SplitMix64(seed)
    n = 4 + rng.below(max_n - 3)
    k = 1 + rng.below(min(max_k, n))
    pool = list(k_subset_masks(n, k))
    rng.shuffle(pool)
    m = rng.below(min(len(pool), max_members) + 1)
    return UniformFamily.from_masks(n, k, pool[:m])


# ------------------------------------------------------------------ families


def test_words_reject_mismatched_ground_sets():
    with pytest.raises(UsageError, match="outside"):
        is_shattered(w(5), fam_of(4, 2, [1, 2]))
    with pytest.raises(UsageError, match="outside"):
        is_shattered(-1, fam_of(4, 2, [1, 2]))


def test_word_bounds():
    with pytest.raises(UsageError, match="outside"):
        UniformFamily(4, 1, (1 << 4,))
    with pytest.raises(UsageError, match="outside"):
        UniformFamily.from_masks(4, 1, [-8, 1])
    with pytest.raises(UsageError, match="ground set size"):
        UniformFamily(64, 1, ())


def test_element_lists_reject_elements_outside_the_ground_set():
    for lists in ([(0, 1)], [(1, 6)], [(-1, 2)], [(1, 2), (2, 0)]):
        with pytest.raises(UsageError, match="outside ground set"):
            UniformFamily.from_element_lists(5, 2, lists)


def test_family_validation():
    with pytest.raises(UsageError, match="size 3"):
        fam_of(4, 2, [1, 2, 3])
    with pytest.raises(UsageError, match="strictly increasing"):
        UniformFamily(4, 2, (w(1, 2), w(1, 2)))
    with pytest.raises(UsageError, match="strictly increasing"):
        UniformFamily(4, 2, (w(3, 4), w(1, 2)))
    fam = UniformFamily.from_masks(4, 2, [0b1010, 0b0011, 0b1010])
    assert fam.masks == (0b0011, 0b1010)
    assert list(fam) == [0b0011, 0b1010]
    assert 0b1010 in fam and 0b0101 not in fam and 0b1111 not in fam


# ---------------------------------------------------------------- shattering


def test_empty_set_shattered_by_nonempty_family():
    assert is_shattered(0, fam_of(2, 2, [1, 2]))


def test_singleton_not_shattered_when_every_member_hits_it():
    fam = fam_of(4, 3, [1, 2, 3], [1, 2, 4])
    assert not is_shattered(w(1), fam)
    assert is_shattered(w(3), fam)


def test_vc_dimension_examples():
    assert vc_dimension(fam_of(3, 3, [1, 2, 3])) == 0
    pairs = UniformFamily.from_masks(4, 2, k_subset_masks(4, 2))
    assert vc_dimension(pairs) == 2
    assert vc_dimension(star_family(5, 2)) == 2
    assert vc_dimension(UniformFamily(5, 3, ())) == -1


def test_shattered_witness_examples():
    pairs = UniformFamily.from_masks(4, 2, k_subset_masks(4, 2))
    assert shattered_witness(pairs, 2) == w(1, 2)
    assert shattered_witness(fam_of(3, 3, [1, 2, 3]), 1) is None
    assert shattered_witness(fam_of(3, 3, [1, 2, 3]), 0) == 0


def test_vc_dimension_against_oracle_seeded():
    for seed in range(150):
        fam = seeded_family(seed, max_n=8)
        got = vc_dimension(fam)
        want = oracle_vc(fam.n, [elements_of(m) for m in fam])
        assert got == want, f"seed {seed}: vc {got} != oracle {want}"


# ------------------------------------------------------------------- shadows


def test_shadow_by_hand():
    sh = shadow(fam_of(3, 3, [1, 2, 3]))
    assert [elements_of(x) for x in sh] == [(1, 2), (1, 3), (2, 3)]
    sh = shadow(fam_of(4, 3, [1, 2, 3], [1, 2, 4]))
    assert len(sh) == 5
    assert len(shadow(UniformFamily(4, 3, ()))) == 0


def test_complement_shadow_by_hand():
    cs = complement_shadow(fam_of(4, 3, [1, 2, 3], [1, 2, 4]))
    assert [elements_of(x) for x in cs] == [(3, 4)]
    assert len(complement_shadow(star_family(5, 2))) == 0
    assert len(complement_shadow(UniformFamily(4, 3, ()))) == comb(4, 2)


def test_shadow_count_matches_the_oracle():
    rng = SplitMix64(63)
    elements = list(range(1, 63))
    wide = []
    for i in range(40):  # 4-subsets of [63], every other one through element 63
        rng.shuffle(elements)
        wide.append(elements[:3] + [63 if i % 2 else elements[3]])
    cases = [seeded_family(seed) for seed in range(40)] + [
        UniformFamily(5, 3, ()),
        UniformFamily.from_element_lists(63, 4, wide),
        UniformFamily.from_element_lists(63, 1, [[1], [63]]),
    ]
    for fam in cases:
        lists = [elements_of(m) for m in fam]
        want = oracle_shadow_count(lists)
        got = {
            tuple(e for e in range(1, fam.n + 1) if s >> (e - 1) & 1): c
            for s, c in fam.shadow_count.items()
        }
        assert got == want, (fam.n, fam.k, lists)
        # a (k-1)-set below no member counts 0
        missing = next(
            (s for s in k_subset_masks(fam.n, max(fam.k - 1, 0)) if s not in fam.shadow_count),
            None,
        )
        if missing is not None:
            assert fam.shadow_count[missing] == 0


def test_shadow_partition_property():
    for seed in range(60):
        fam = seeded_family(seed, max_n=9)
        if fam.k == 0:
            continue
        total = len(shadow(fam)) + len(complement_shadow(fam))
        assert total == comb(fam.n, fam.k - 1), f"seed {seed}"


# -------------------------------------------------------------------- bounds


def test_sauer_shelah_bound_values():
    assert sauer_shelah_bound(5, 2) == 1 + 5 + 10
    assert sauer_shelah_bound(4, 0) == 1
    assert frankl_pach_bound(6, 2) == 15


def test_sauer_shelah_holds_on_seeded_families():
    for seed in range(120):
        fam = seeded_family(seed, max_n=8)
        vc = vc_dimension(fam)
        assert len(fam) <= sauer_shelah_bound(fam.n, max(vc, 0)), f"seed {seed}"


# ------------------------------------------------------------------- famfile


def test_parse_two_member_file():
    fam = parse_family("4 3\n1 2 3\n1 2 4\n")
    assert fam.n == 4 and fam.k == 3
    assert [elements_of(m) for m in fam] == [(1, 2, 3), (1, 2, 4)]


def test_parse_header_only_is_empty_family():
    fam = parse_family("5 3\n")
    assert fam.n == 5 and fam.k == 3 and len(fam) == 0


def test_parse_duplicate_names_the_line():
    text = "4 3\n1 2 3\n# comment\n1 2 4\n1 2 3\n"
    with pytest.raises(UsageError) as err:
        parse_family(text)
    assert ":5:" in str(err.value)
    assert "line 2" in str(err.value)


def test_parse_rejects_bad_members():
    with pytest.raises(UsageError):
        parse_family("4 3\n1 2\n")
    with pytest.raises(UsageError):
        parse_family("4 3\n1 2 5\n")
    with pytest.raises(UsageError):
        parse_family("4 3\n3 2 1\n")
    with pytest.raises(UsageError):
        parse_family("not a header\n")


def test_format_parse_round_trip_seeded():
    for seed in range(40):
        fam = seeded_family(seed)
        back = parse_family(format_family(fam))
        assert back.n == fam.n and back.k == fam.k
        assert back.masks == fam.masks, f"seed {seed}"


# text near the format: digits, signs, whitespace, Unicode line breaks, '#'
# and an Arabic-Indic digit, which int() accepts
FAM_TEXT = st.text(st.sampled_from(list("0123456789 \t\n\r#-+_x.\x0b\x85\u2028\u0663")))


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(), FAM_TEXT, FAM_TEXT.map(lambda t: "6 3\n" + t)))
def test_parse_accepts_or_raises_usage_error(text):
    try:
        fam = parse_family(text)
    except UsageError:
        return
    assert isinstance(fam, UniformFamily)


@st.composite
def drawn_families(draw):
    n = draw(st.integers(1, 63))
    k = draw(st.integers(1, min(n, 6)))
    member = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    return UniformFamily.from_element_lists(n, k, draw(st.lists(member, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(fam=drawn_families())
def test_format_parse_round_trip_property(fam):
    assert parse_family(format_family(fam)) == fam


def _spy_on_scans(monkeypatch):
    scanned = []
    real = families.shattered_witness
    monkeypatch.setattr(families, "shattered_witness", lambda f, s: scanned.append(s) or real(f, s))
    return scanned


def test_vc_dimension_cost_guard_refuses_before_scanning(monkeypatch):
    scanned = _spy_on_scans(monkeypatch)
    # 3-sets through 1 over [63]: sizes 1 and 2 find a shattered set among
    # their first candidates, size 3 would test C(63,3) sets on 1891 members
    fam = star_family(63, 2)
    assert comb(63, 3) * len(fam) > families.MAX_VC_SCAN
    with pytest.raises(UsageError, match="limit"):
        vc_dimension(fam)
    assert scanned == [1, 2]
    scanned.clear()
    monkeypatch.setattr(families, "MAX_VC_SCAN", 62)
    with pytest.raises(UsageError, match="limit"):
        vc_dimension(star_family(63, 1))  # 62 members: C(63,1) * 62 pairs at size 1
    assert scanned == []


def test_vc_dimension_scan_stops_at_log2_of_family_size(monkeypatch):
    scanned = _spy_on_scans(monkeypatch)
    fam = fam_of(5, 3, [3, 4, 5], [1, 4, 5], [2, 4, 5], [1, 2, 5])  # shatters {1, 2}
    assert vc_dimension(fam) == 2 == oracle_vc(5, [elements_of(m) for m in fam])
    assert scanned == [1, 2]  # 4 members cannot shatter a 3-set
