from math import comb

from vcx.bitwords import (
    bit,
    elements_of,
    k_subset_masks,
    elements_text,
    mask_of,
    positions_of,
    set_text,
    submasks,
)
from vcx.constructions import SplitMix64


def test_bit_and_mask_round_trip():
    assert bit(1) == 1
    assert bit(3) == 4
    assert mask_of([1, 2, 3]) == 0b111
    assert mask_of([]) == 0
    assert elements_of(0b1011) == (1, 2, 4)
    assert positions_of(0b1011) == (0, 1, 3)
    assert elements_of(0) == positions_of(0) == ()
    assert mask_of(elements_of(0b101101)) == 0b101101


def test_set_and_element_text():
    assert set_text(0b1011) == "{1,2,4}"
    assert set_text(0) == "{}"
    assert elements_text(0b1011) == "1 2 4"
    assert elements_text(0) == ""
    assert elements_text(1 << 62) == "63"


def test_k_subset_masks_explicit_order():
    # Ascending integer order, which is colex on the underlying sets.
    assert list(k_subset_masks(4, 2)) == [3, 5, 6, 9, 10, 12]
    assert list(k_subset_masks(3, 0)) == [0]
    assert list(k_subset_masks(3, 3)) == [7]
    assert list(k_subset_masks(2, 3)) == []


def test_k_subset_masks_matches_filtered_range():
    rng = SplitMix64(20240817)
    for _ in range(25):
        n = 1 + rng.below(10)
        k = rng.below(n + 1)
        got = list(k_subset_masks(n, k))
        want = [m for m in range(1 << n) if m.bit_count() == k]
        assert got == want, f"(n={n}, k={k})"
        assert len(got) == comb(n, k)


def test_submasks_complete_and_within():
    m = 0b1011
    subs = list(submasks(m))
    assert len(subs) == 8
    assert len(set(subs)) == 8
    for s in subs:
        assert s & ~m == 0
    assert list(submasks(0)) == [0]
