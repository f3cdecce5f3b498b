"""Per-member trace occupancy for k-uniform families.

For a member F of a k-uniform family, the traces of other members on F are
subsets of F; compressing each trace onto F's own bit positions gives an index
in [0, 2^k), and the set of realized traces becomes a 2^k-bit occupancy word.
F has a certificate iff some proper-subset bit is still clear.

preference(k) is the canonical order of the proper traces, largest first and
the least compressed index first within a size; a member's certificate is the
first of them it leaves unrealized. occupancy_words is the one certificate
kernel for certificate assignment and the pipeline: one batch pass (numpy
while a word fits 64 bits, so for k <= 6) gives every member its occupancy
word and that certificate. Above that width the same result comes from plain
Python, which is also the reference the tests hold the numpy pass to.
compress_trace reads a trace's compressed index from the member mask alone:
each trace element sets the index bit of its rank among the member's
elements.

TraceTracker, the generator's incremental form, is plain Python over the
candidate table of (n, k): every k-subset of [n] with its position, and per
element the bitsets of the positions of the candidates that hold it and of
those that avoid it. Its class docstring sets out the dead candidates it
keeps and its two member stores.
"""

from functools import lru_cache
from operator import xor
from typing import NamedTuple

import numpy as np

from .bitwords import k_subset_masks, positions_of
from .errors import InvariantViolation

# the batch numpy path packs occupancy into one unsigned word of 2^k bits,
# the narrowest that holds it (uint8 up to k = 3, uint64 at k = 6), so it
# needs 2^k <= 64 bits
_NUMPY_MAX_K = 6
_WORD_TYPES = (np.uint8, np.uint8, np.uint8, np.uint8, np.uint16, np.uint32, np.uint64)
_BIT_INDEX = np.arange(63, dtype=np.int64)
# TraceTracker keeps its members as bitsets from this many candidate k-sets
# C(n, k) up, and walks a set of traces per member below it. Measured
# crossover (2-vCPU Xeon, CPython 3.11): (16,2), 560 candidates, generates
# faster on the walk, (17,2), 680, on bitsets; (18,3), 3,060, in half the time
BITSET_MIN_CANDIDATES = 600


def full_trace_bit(k: int) -> int:
    return 1 << ((1 << k) - 1)


def proper_trace_mask(k: int) -> int:
    """Occupancy bits of the proper subsets: everything except the full trace."""
    return full_trace_bit(k) - 1


def size_layer_mask(k: int, s: int) -> int:
    """Occupancy bits of the proper subsets of size exactly s."""
    m = 0
    for c in range(1 << k):
        if c.bit_count() == s and c != (1 << k) - 1:
            m |= 1 << c
    return m


@lru_cache(maxsize=None)
def preference(k: int) -> tuple[int, ...]:
    """Compressed indices of the proper traces of a k-set in canonical
    preference order: larger traces first, then lower index (ascending index
    inside a size is ascending canonical order of the subsets). The sort is
    stable under reverse, so equal sizes keep ascending index."""
    return tuple(sorted(range((1 << k) - 1), key=int.bit_count, reverse=True))


def first_unrealized(word: int, k: int) -> int | None:
    """Compressed index of the first proper trace in preference(k) that the
    occupancy word leaves clear, the member's certificate; None when every
    proper trace is realized. A word has at most |F| set bits, so the scan
    stops within |F| + 1 steps."""
    for c in preference(k):
        if not word >> c & 1:
            return c
    return None


def expand_index(c: int, positions) -> int:
    """Decode a compressed trace index back to a mask on the given positions."""
    m = 0
    while c:
        low = c & -c
        m |= 1 << positions[low.bit_length() - 1]
        c ^= low
    return m


def compress_trace(trace_mask: int, mask: int) -> int:
    """Compressed index of a trace on the member `mask` (trace_mask a submask
    of it): each trace bit sets the index bit of its rank among mask's bits."""
    c = 0
    while trace_mask:
        low = trace_mask & -trace_mask
        c |= 1 << (mask & (low - 1)).bit_count()
        trace_mask ^= low
    return c


class Occupancy(NamedTuple):
    """occupancy_words' result: one entry per member, in input order.

    words holds each member's occupancy word: bit c is set when some member's
    trace on it, its own full trace included, has compressed index c
    (compress_trace(other & mask, mask)). certificates holds each member's
    canonical maximum certificate as a mask (the least unrealized proper trace
    of the largest size), or None for a shattered member, which has no
    certificate.
    """

    words: list
    certificates: list


def occupancy_words(masks, k: int) -> Occupancy:
    """Occupancy word and canonical certificate of every member."""
    if len(masks) == 0:
        return Occupancy([], [])
    if 1 <= k <= _NUMPY_MAX_K:
        return _occupancy_numpy(masks, k)
    return _occupancy_python(masks, k)


def _occupancy_numpy(masks, k: int) -> Occupancy:
    m = len(masks)
    word_type = _WORD_TYPES[k]
    arr = np.array(masks, dtype=np.int64)
    bits = (arr[:, None] >> _BIT_INDEX[: max(masks).bit_length()]).astype(np.uint8)
    bits &= 1
    # pos[t, i]: bit position t of member i, ascending in t
    pos = np.nonzero(bits)[1].reshape(m, k).T.copy()
    # has[p, j] << t: member j holds bit p, pre-shifted to trace bit t. The
    # trace of member j on member i compresses to the OR over t of
    # has[pos[t, i], j] << t.
    has = bits.T.copy()
    comp = has[pos[0]]
    for t in range(1, k):
        has <<= 1
        comp |= has[pos[t]]
    word = comp.astype(word_type, copy=False)
    np.left_shift(word_type(1), word, out=word)
    occ = np.bitwise_or.reduce(word, axis=1)
    # each member's first clear bit in preference order. Every shift stays in
    # one dtype (numpy 2 refuses uint64 >> int64): word_type for the bit test,
    # int64 for the decode
    order = np.array(preference(k), dtype=word_type)
    rank = ((occ[:, None] >> order) & 1).argmin(axis=1)
    index = order[rank].astype(np.int64)
    shifts = np.arange(k, dtype=np.int64)[:, None]
    certs = ((index >> shifts & 1) << pos).sum(axis=0).tolist()
    words = occ.tolist()
    full = (1 << (1 << k)) - 1  # a shattered member's word: every bit set
    if full in words:
        certs = [None if w == full else c for c, w in zip(certs, words)]
    return Occupancy(words, certs)


def _occupancy_python(masks, k: int) -> Occupancy:
    words, certs = [], []
    for mask in masks:
        occ = 0
        for other in masks:
            occ |= 1 << compress_trace(other & mask, mask)
        best = first_unrealized(occ, k)
        words.append(occ)
        certs.append(None if best is None else expand_index(best, positions_of(mask)))
    return Occupancy(words, certs)


class CandidateTable(NamedTuple):
    """candidate_table's result: the k-subsets of [n] a generator offers."""

    masks: tuple  # every k-subset of [n] as a mask, in canonical order
    position: dict  # mask -> its index in masks
    holders: tuple  # per element x of [n], the positions of the masks holding x, as bits
    avoiders: tuple  # per element x of [n], the positions of the other masks, as bits


@lru_cache(maxsize=32)
def candidate_table(n: int, k: int) -> CandidateTable:
    """The candidate k-sets of [n], listed once per (n, k); the generator
    shuffles a copy of masks, and each TraceTracker reads positions and
    element bitsets from the same table."""
    masks = tuple(k_subset_masks(n, k))
    arr = np.array(masks, dtype=np.int64)
    holders = tuple(
        int.from_bytes(np.packbits((arr & (1 << x)) != 0, bitorder="little").tobytes(), "little")
        for x in range(n)
    )
    everything = (1 << len(masks)) - 1
    avoiders = tuple(everything ^ held for held in holders)
    return CandidateTable(masks, dict(zip(masks, range(len(masks)))), holders, avoiders)


class TraceTracker:
    """Incrementally grown k-uniform family that keeps every member certified.

    try_add(G) takes a k-subset G of [n] and commits it iff afterwards every
    member, G included, still has a proper subset unrealized as a trace (i.e.
    keeps a certificate). There is no removal: the generator only ever grows
    its family.

    G realizes at most one new trace on each member F, namely G & F, so G
    kills F exactly when F is critical, with a single unrealized proper trace
    T, and G & F == T. When F becomes critical, every such G is marked dead at
    once: the candidates that hold T's elements and none of F's others, the
    AND of T's holder bitsets with the others' avoider bitsets, k big-int
    ANDs however many killers there are. The kill test is then one bit
    read, from a bytes copy of the dead bitset that each commit that marks
    refreshes, since reading a bit of the int itself would shift all of it.
    A mark never needs undoing, because traces only accumulate: a member,
    once critical, stays critical with the same T, and try_add never commits a
    kill, so a candidate is dead exactly when it would kill a current member.
    A commit that leaves a member with no unrealized proper trace raises
    InvariantViolation.

    A candidate that passes the kill test is checked and committed in one of
    two member stores, chosen once from C(n, k). Each hands the members a
    commit leaves critical to one rule, _mark_critical, with a test of the
    traces realized on them; try_add alone reads and refreshes the snapshot:

    - the set walk (below BITSET_MIN_CANDIDATES candidates): each member keeps
      the set of traces realized on it, self-trace included; a candidate
      builds the set of its traces over every member, and a commit walks
      every member again. Its cost grows with the family.
    - member bitsets (at or above it): member i is bit i of Python ints.
      has[x] holds the members that contain element x and miss[t] those that
      still lack proper trace t; each member keeps its count of missing
      traces. Splitting the member bitset on G's k elements yields, for every
      t within G, the members whose trace on G is t, in 2^(k+1) - 2 AND/XOR
      operations whatever the family size, and a commit touches only the
      members that gain a trace. The constant overhead loses on small
      families, which the set walk serves.

    Both make the same decisions, so the family grown is the same.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self._masks = []
        table = candidate_table(n, k)
        self._position = table.position
        self._holders = table.holders
        self._avoiders = table.avoiders
        # positions of the candidates that would kill a member, and its bytes
        self._dead = 0
        self._dead_bytes = bytes((len(table.masks) + 7) // 8)
        if len(table.masks) < BITSET_MIN_CANDIDATES:
            self._has = None
            self._realized = []  # per member, the set of traces realized on it
        else:
            self._has = {1 << x: 0 for x in range(n)}  # element bit -> members holding it
            self._miss = {}  # proper trace t -> members that contain t and lack it
            self._missing = []  # per member, how many proper traces it lacks

    def masks(self) -> list[int]:
        return list(self._masks)

    def try_add(self, G: int) -> bool:
        i = self._position[G]
        if self._dead_bytes[i >> 3] >> (i & 7) & 1:
            return False
        dead = self._dead
        if not (self._add_walk(G) if self._has is None else self._add_bits(G)):
            return False
        # ints are immutable, so a commit that marked nothing leaves the same
        # object; one refresh serves all the marks of a commit
        if self._dead is not dead:
            self._dead_bytes = self._dead.to_bytes(len(self._dead_bytes), "little")
        return True

    def _mark_critical(self, F: int, realized):
        """Member F lacks at most one proper trace, and realized(T) tells
        whether trace T is realized on it: mark dead every candidate G with
        G & F == T for the one it lacks, or raise when it lacks none."""
        T = (F - 1) & F
        while realized(T):
            if not T:
                raise InvariantViolation(f"commit realized every trace on {F:#x}; a kill was missed")
            T = (T - 1) & F
        holders, avoiders = self._holders, self._avoiders
        dead, rest = -1, F
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            dead &= holders[x] if T & low else avoiders[x]
        self._dead |= dead

    def _add_walk(self, G: int) -> bool:
        """Commit G unless it shatters itself, and mark the killers of the
        members it leaves critical; return whether it was committed."""
        own = {F & G for F in self._masks}
        own.add(G)
        everything = 1 << self.k
        if len(own) == everything:
            return False
        for F, realized in zip(self._masks, self._realized):
            t = F & G
            if t not in realized:
                realized.add(t)
                if len(realized) >= everything - 1:
                    self._mark_critical(F, realized.__contains__)
        self._masks.append(G)
        self._realized.append(own)
        if len(own) == everything - 1:
            self._mark_critical(G, own.__contains__)
        return True

    def _add_bits(self, G: int) -> bool:
        """_add_walk on member bitsets."""
        has = self._has
        # parts[c]: the members whose trace on G has compressed index c, bit j
        # of c standing for G's j-th lowest element; the last part, G itself, is
        # empty and dropped
        parts = [(1 << len(self._masks)) - 1]
        rest = G
        while rest:
            low = rest & -rest
            rest ^= low
            hit = list(map(has[low].__and__, parts))
            parts = list(map(xor, parts, hit)) + hit
        parts.pop()
        if all(parts):
            return False
        miss, missing, masks = self._miss, self._missing, self._masks
        i = len(masks)
        bit = 1 << i
        lacking, critical = 0, []  # how many proper traces G lacks; critical members
        traces, rest = [0], G  # traces[c]: the trace with compressed index c
        while rest:
            low = rest & -rest
            rest ^= low
            has[low] |= bit
            traces += [t | low for t in traces]
        for t, part in zip(traces, parts):
            if not part:
                lacking += 1
                miss[t] = miss.get(t, 0) | bit
                continue
            gained = part & miss.get(t, 0)
            if not gained:
                continue
            miss[t] ^= gained
            while gained:
                low = gained & -gained
                gained ^= low
                j = low.bit_length() - 1
                left = missing[j] - 1
                missing[j] = left
                if left <= 1:
                    critical.append(j)
        masks.append(G)
        missing.append(lacking)
        if lacking == 1:
            critical.append(i)
        for j in critical:
            self._mark_critical(masks[j], lambda t: not miss.get(t, 0) >> j & 1)
        return True
