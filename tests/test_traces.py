from hypothesis import given, settings
from hypothesis import strategies as st

from vcx.bitwords import k_subset_masks, positions_of
from vcx.constructions import SplitMix64
from vcx.traces import (
    TraceTracker,
    _occupancy_numpy,
    _occupancy_python,
    compress_trace,
    expand_index,
    full_trace_bit,
    occupancy_words,
    proper_trace_mask,
    size_layer_mask,
)

from oracles import oracle_vc_le


def test_trace_index_masks():
    assert full_trace_bit(3) == 1 << 7
    assert proper_trace_mask(3) == 0b01111111
    assert proper_trace_mask(1) == 0b1
    # size layers of a 3-set: sizes 0..2 partition the proper indices
    union = 0
    for s in range(3):
        layer = size_layer_mask(3, s)
        assert layer and layer & ~proper_trace_mask(3) == 0
        assert union & layer == 0
        union |= layer
    assert union == proper_trace_mask(3)


def test_compress_expand_round_trip():
    member = 0b101101  # {1,3,4,6}
    pos = positions_of(member)
    for c in range(1 << 4):
        t = expand_index(c, pos)
        assert t & ~member == 0
        assert compress_trace(t, pos) == c


def test_occupancy_paths_agree():
    rng = SplitMix64(7)
    for _ in range(30):
        n = 4 + rng.below(8)
        k = 1 + rng.below(min(5, n))
        pool = list(k_subset_masks(n, k))
        rng.shuffle(pool)
        masks = sorted(pool[: 1 + rng.below(min(len(pool), 30))])
        assert _occupancy_numpy(masks, k) == _occupancy_python(masks, k), (n, k)


def test_occupancy_semantics_by_hand():
    # fam = {123, 124} over [4]: traces of 124 on 123 are {12}; occupancy of
    # member 123 has bits for {1,2} (from 124) and {1,2,3} (itself).
    masks = [0b0111, 0b1011]
    occ = occupancy_words(masks, 3)
    pos = positions_of(0b0111)
    realized = {i for i in range(8) if occ[0] >> i & 1}
    want = {compress_trace(0b0011, pos), compress_trace(0b0111, pos)}
    assert realized == want


def test_tracker_matches_oracle_on_random_sequences():
    """try_add accepts exactly the additions that keep VC <= d (oracle-checked)."""
    rng = SplitMix64(99)
    for trial in range(12):
        n = 5 + rng.below(3)
        d = 1 + rng.below(2)
        k = d + 1
        pool = list(k_subset_masks(n, k))
        rng.shuffle(pool)
        tracker = TraceTracker(n, k)
        kept = []
        for cand in pool[:18]:
            elems = [tuple(e + 1 for e in range(n) if m >> e & 1) for m in kept + [cand]]
            ok_oracle = oracle_vc_le(n, elems, d)
            got = tracker.try_add(cand)
            assert got == ok_oracle, f"trial {trial}: cand {cand:#x}"
            if got:
                kept.append(cand)
        assert tracker.masks() == kept


def test_tracker_k6_matches_oracle():
    """k = 6 exceeds the batch numpy occupancy width; the tracker has no such limit."""
    rng = SplitMix64(1234)
    n, k = 9, 6
    pool = list(k_subset_masks(n, k))
    rng.shuffle(pool)
    tracker = TraceTracker(n, k)
    kept = []
    for cand in pool[:12]:
        elems = [tuple(e + 1 for e in range(n) if m >> e & 1) for m in kept + [cand]]
        got = tracker.try_add(cand)
        assert got == oracle_vc_le(n, elems, k - 1), f"cand {cand:#x}"
        if got:
            kept.append(cand)
    assert tracker.masks() == kept


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tracker_agrees_with_recheck_from_scratch(data):
    """Each try_add verdict equals a fresh occupancy check of kept + [G]."""
    k = data.draw(st.integers(1, 6), label="k")
    n = data.draw(st.integers(k, k + 4), label="n")
    order = data.draw(st.permutations(list(k_subset_masks(n, k))), label="order")
    proper = proper_trace_mask(k)
    tracker = TraceTracker(n, k)
    kept = []
    for cand in order[:30]:
        occs = occupancy_words(kept + [cand], k)
        want = all(occ & proper != proper for occ in occs)
        assert tracker.try_add(cand) == want, f"cand {cand:#x} after {kept}"
        if want:
            kept.append(cand)
    assert tracker.masks() == kept
