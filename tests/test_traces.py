from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcx import traces
from vcx.bitwords import elements_of, k_subset_masks, positions_of
from vcx.constructions import SplitMix64
from vcx.errors import InvariantViolation
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

from oracles import mask_from, oracle_certificates, oracle_vc_le


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


def _random_member(rng, n, k, must=None):
    """A k-subset of [n] as a mask, holding bit `must` when given."""
    bits = list(range(n))
    rng.shuffle(bits)
    if must is not None:
        bits.remove(must)
        bits.insert(0, must)
    return sum(1 << b for b in bits[:k])


def _shattered_family(k):
    """{1..k} plus, for each proper subset T of it, T padded with elements
    k+1, k+2, ...: every proper trace on {1..k} is realized, so it is shattered."""
    full = (1 << k) - 1
    pads = [((1 << (k - t.bit_count())) - 1) << k for t in range(full)]
    return sorted([full] + [t | pad for t, pad in zip(range(full), pads)])


def _agreement_cases():
    rng = SplitMix64(7)
    for k in range(1, 7):
        for _ in range(8):
            n = k + 1 + rng.below(10)
            pool = list(k_subset_masks(n, k))
            rng.shuffle(pool)
            yield k, sorted(pool[: 1 + rng.below(min(len(pool), 40))])
        # members on bit 62 of a 63-point ground set, one member alone, a shattered member
        yield k, sorted({_random_member(rng, 63, k, must=62 if i % 2 else None) for i in range(12)})
        yield k, [_random_member(rng, 63, k, must=62)]
        yield k, _shattered_family(k)
    # the k = 6 shattered family without the member realizing {2..6} on
    # {1..6}: that member's certificate is compressed index 62, past bit 31
    yield 6, [m for m in _shattered_family(6) if m & 63 != 62]


def test_occupancy_paths_agree():
    """The numpy pass and the plain-Python reference agree on positions,
    words and the canonical certificate for k = 1..6."""
    shattered = 0
    for k, masks in _agreement_cases():
        fast = _occupancy_numpy(masks, k)
        assert fast == _occupancy_python(masks, k), (k, masks)
        assert fast.positions == [positions_of(m) for m in masks]
        shattered += fast.certificates.count(None)
    assert shattered >= 6  # each k's shattered family has one shattered member


def test_occupancy_certificates_match_the_oracle():
    """The canonical pick is the least (in colex order) of the largest
    certificates that the brute-force oracle lists."""
    for k, masks in _agreement_cases():
        occ = occupancy_words(masks, k)
        lists = [elements_of(m) for m in masks]
        for m, cert in zip(masks, occ.certificates):
            certs = oracle_certificates(elements_of(m), lists)
            if not certs:
                assert cert is None
                continue
            top = max(len(c) for c in certs)
            assert cert.bit_count() == top
            assert cert == min(mask_from(c) for c in certs if len(c) == top)


def test_occupancy_above_six_takes_the_python_path(monkeypatch):
    def refuse(masks, k):
        raise AssertionError("numpy path used for k > 6")

    rng = SplitMix64(3)
    masks = sorted({_random_member(rng, 12, 7) for _ in range(10)})
    want = _occupancy_python(masks, 7)
    monkeypatch.setattr(traces, "_occupancy_numpy", refuse)
    assert occupancy_words(masks, 7) == want


def test_occupancy_semantics_by_hand():
    # fam = {123, 124} over [4]: traces of 124 on 123 are {12}; occupancy of
    # member 123 has bits for {1,2} (from 124) and {1,2,3} (itself).
    masks = [0b0111, 0b1011]
    occ = occupancy_words(masks, 3).words
    pos = positions_of(0b0111)
    realized = {i for i in range(8) if occ[0] >> i & 1}
    want = {compress_trace(0b0011, pos), compress_trace(0b0111, pos)}
    assert realized == want


REPRESENTATIONS = ["set-walk", "bitsets"]


def _tracker(n, k, representation):
    """A TraceTracker in the given member representation: the threshold at 0
    puts every size on bitsets, and at infinity on the set walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "BITSET_MIN_CANDIDATES", 0 if representation == "bitsets" else inf)
        tracker = TraceTracker(n, k)
    assert (tracker._has is not None) == (representation == "bitsets")
    return tracker


def _grow_both(n, k, candidates, want):
    """Offer the candidates to a tracker of each representation in lockstep;
    each verdict must equal want(kept, cand), and after each offer both must
    hold the same dead set and the same snapshot of it. Returns the trackers
    by representation."""
    trackers = {r: _tracker(n, k, r) for r in REPRESENTATIONS}
    walk, bits = trackers.values()
    kept = []
    for cand in candidates:
        ok = want(kept, cand)
        for name, tracker in trackers.items():
            assert tracker.try_add(cand) == ok, f"{name}: cand {cand:#x} after {kept}"
        assert walk._dead == bits._dead, f"cand {cand:#x} after {kept}"
        assert walk._dead_bytes == bits._dead_bytes, f"cand {cand:#x} after {kept}"
        if ok:
            kept.append(cand)
    for tracker in trackers.values():
        assert tracker.masks() == kept
    return trackers


def _oracle_verdict(n, d):
    def want(kept, cand):
        elems = [tuple(e + 1 for e in range(n) if m >> e & 1) for m in kept + [cand]]
        return oracle_vc_le(n, elems, d)

    return want


def test_tracker_matches_oracle_on_random_sequences():
    """try_add accepts exactly the additions that keep VC <= d (oracle-checked),
    in both member representations."""
    rng = SplitMix64(99)
    for trial in range(12):
        n = 5 + rng.below(3)
        d = 1 + rng.below(2)
        k = d + 1
        pool = list(k_subset_masks(n, k))
        rng.shuffle(pool)
        _grow_both(n, k, pool[:18], _oracle_verdict(n, d))


def test_tracker_k6_matches_oracle():
    """k = 6 exceeds the batch numpy occupancy width; the tracker has no such
    limit in either representation."""
    _grow_both(9, 6, _k6_pool()[:12], _oracle_verdict(9, 5))


def _k6_pool():
    rng = SplitMix64(1234)
    pool = list(k_subset_masks(9, 6))
    rng.shuffle(pool)
    return pool


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tracker_agrees_with_recheck_from_scratch(data):
    """Each try_add verdict, in both representations, equals a fresh
    occupancy check of kept + [G]."""
    k = data.draw(st.integers(1, 6), label="k")
    n = data.draw(st.integers(k, k + 4), label="n")
    order = data.draw(st.permutations(list(k_subset_masks(n, k))), label="order")
    _grow_both(n, k, order[:30], _recheck_verdict(k))


def _recheck_verdict(k):
    proper = proper_trace_mask(k)

    def want(kept, cand):
        return all(occ & proper != proper for occ in occupancy_words(kept + [cand], k).words)

    return want


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_tracker_commit_that_kills_a_member_raises(representation):
    """Clear a killer's dead mark, so the kill test misses it, and commit it:
    the commit must refuse to leave a member with every trace realized. The
    six members after {1,2,3} realize each of its proper traces but {}, and
    {7,8,9} realizes {} on it while missing no other member's last trace."""
    tracker = _tracker(9, 3, representation)
    members = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6), (1, 4, 5), (2, 4, 6), (3, 5, 6)]
    for m in members:
        assert tracker.try_add(mask_from(m))
    killer = mask_from((7, 8, 9))
    assert _is_dead(tracker, killer)
    tracker._dead &= ~(1 << tracker._position[killer])
    tracker._dead_bytes = tracker._dead.to_bytes(len(tracker._dead_bytes), "little")
    assert not _is_dead(tracker, killer)
    with pytest.raises(InvariantViolation, match="a kill was missed"):
        tracker.try_add(killer)


def _is_dead(tracker, G):
    """G's dead mark, as the kill test reads it from the bytes snapshot, which
    must hold the dead bitset."""
    dead = tracker._dead_bytes
    assert dead == tracker._dead.to_bytes(len(dead), "little")
    i = tracker._position[G]
    return bool(dead[i >> 3] >> (i & 7) & 1)


def _dead_cases():
    """(n, k, candidate sequence): per k in 2..4 a prefix and a whole shuffled
    pool; at k = 6 the sequence of test_tracker_k6_matches_oracle, which marks
    nothing, and the shattered family without the member realizing {1,2,3} on
    {1..6}, whose killers are {1,2,3} plus any three of 7..12."""
    rng = SplitMix64(24)
    for k in range(2, 5):
        for length in (18, None):
            n = k + 3 + rng.below(3)
            pool = list(k_subset_masks(n, k))
            rng.shuffle(pool)
            yield n, k, pool[:length]
    yield 9, 6, _k6_pool()[:12]
    yield 12, 6, [m for m in _shattered_family(6) if m & 63 != 0b111]


def test_tracker_dead_set_matches_occupancy():
    """After growing, in both representations, a non-member G is dead exactly
    when some member's occupancy word over members + [G] covers every proper
    trace: G would kill that member."""
    for n, k, sequence in _dead_cases():
        proper = proper_trace_mask(k)

        def kills(members, G):
            words = occupancy_words(members + [G], k).words[:-1]
            return any(w & proper == proper for w in words)

        trackers = _grow_both(n, k, sequence, _recheck_verdict(k))
        for name, tracker in trackers.items():
            members = tracker.masks()
            for G in k_subset_masks(n, k):
                if G not in members:
                    assert _is_dead(tracker, G) == kills(members, G), (name, n, k, G)


@pytest.mark.parametrize("n, k", [(7, 1), (6, 6), (9, 3), (63, 2)])
def test_candidate_table(n, k):
    """Positions are indices in canonical order; holders[x] has the positions
    of the candidates that hold element x + 1, avoiders[x] the others."""
    table = traces.candidate_table(n, k)
    want = list(k_subset_masks(n, k))
    assert list(table.masks) == want
    assert [table.position[m] for m in want] == list(range(len(want)))
    assert len(table.holders) == len(table.avoiders) == n
    for x, (held, avoided) in enumerate(zip(table.holders, table.avoiders)):
        assert held == sum(1 << i for i, m in enumerate(want) if m >> x & 1)
        assert avoided == sum(1 << i for i, m in enumerate(want) if not m >> x & 1)
