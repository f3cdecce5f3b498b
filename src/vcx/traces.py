"""Per-member trace occupancy for k-uniform families.

For a member F of a k-uniform family, the traces of other members on F are
subsets of F; compressing each trace onto F's own bit positions gives an index
in [0, 2^k), and the set of realized traces becomes a 2^k-bit occupancy word.
F has a certificate iff some proper-subset bit is still clear.

occupancy_words builds all words in one batch (numpy while a word fits an
int64) for certificate assignment and the pipeline. TraceTracker, the
generator's incremental form, is plain Python: it indexes the members with one
proper trace left, so most rejections cost a few dict lookups.
"""

from functools import lru_cache

import numpy as np

from .bitwords import popcount, positions_of
from .errors import InvariantViolation

# the batch numpy path packs occupancy into int64, so it needs 2^k <= 63 bits
_NUMPY_MAX_K = 5


def full_trace_bit(k: int) -> int:
    return 1 << ((1 << k) - 1)


def proper_trace_mask(k: int) -> int:
    """Occupancy bits of the proper subsets: everything except the full trace."""
    return full_trace_bit(k) - 1


def size_layer_mask(k: int, s: int) -> int:
    """Occupancy bits of the proper subsets of size exactly s."""
    m = 0
    for c in range(1 << k):
        if popcount(c) == s and c != (1 << k) - 1:
            m |= 1 << c
    return m


@lru_cache(maxsize=None)
def size_layers(k: int) -> tuple[int, ...]:
    """size_layer_mask(k, s) for every s < k, built once per k."""
    return tuple(size_layer_mask(k, s) for s in range(k))


def largest_unrealized(occ: int, layers) -> tuple[int, int] | None:
    """(size, compressed index) of the largest unrealized proper trace, the
    canonically least of its size; layers = size_layers(k). None when every
    proper trace is realized."""
    for size in range(len(layers) - 1, -1, -1):
        free = layers[size] & ~occ
        if free:
            return size, (free & -free).bit_length() - 1
    return None


def expand_index(c: int, positions) -> int:
    """Decode a compressed trace index back to a mask on the given positions."""
    m = 0
    while c:
        low = c & -c
        m |= 1 << positions[low.bit_length() - 1]
        c ^= low
    return m


def compress_trace(trace_mask: int, positions) -> int:
    c = 0
    for t, p in enumerate(positions):
        if trace_mask >> p & 1:
            c |= 1 << t
    return c


def occupancy_words(masks, k: int, positions=None) -> list[int]:
    """Realized-trace occupancy word for every member, self-trace included.

    positions, when given, holds positions_of(mask) for every mask, in order.
    """
    if len(masks) == 0:
        return []
    if k <= _NUMPY_MAX_K:
        return _occupancy_numpy(masks, k, positions)
    return _occupancy_python(masks, k, positions)


def _occupancy_numpy(masks, k: int, positions=None) -> list[int]:
    arr = np.asarray(masks, dtype=np.int64)
    pos = np.array(positions or [positions_of(m) for m in masks], dtype=np.intp)
    pos = pos.reshape(len(masks), k)
    # has[p, j]: member j holds bit p. The trace of member j on member i
    # compresses to the bits has[pos[i, t], j], t < k.
    has = ((arr >> np.arange(max(masks).bit_length())[:, None]) & 1).astype(np.uint8)
    comp = np.zeros((len(masks), len(masks)), dtype=np.uint8)
    for t in range(k):
        comp |= has[pos[:, t]] << t
    occ = np.bitwise_or.reduce(np.left_shift(1, comp, dtype=np.int64), axis=1)
    return [int(x) for x in occ]


def _occupancy_python(masks, k: int, positions=None) -> list[int]:
    out = []
    for mask, pos in zip(masks, positions or map(positions_of, masks)):
        occ = 0
        for other in masks:
            occ |= 1 << compress_trace(other & mask, pos)
        out.append(occ)
    return out


class TraceTracker:
    """Incrementally grown k-uniform family that keeps every member certified.

    try_add(G) commits G iff afterwards every member, G included, still has a
    proper subset unrealized as a trace (i.e. keeps a certificate). There is
    no removal: the generator only ever grows its family.

    Each member keeps the set of traces realized on it (its occupancy word in
    set form, self-trace included), so its memory grows with the traces seen,
    not with 2^k. G realizes at most one new trace on each member F, namely
    G & F, so G kills F exactly when F is critical, with a single unrealized
    proper trace T, and G & F == T. The critical index maps T to those
    members, which makes the kill test one lookup per proper submask of G.
    The index is exact because traces only accumulate: a member, once
    critical, stays critical with the same T until something kills it, and
    try_add never commits a kill.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self._masks = []
        self._realized = []  # per member, the set of traces realized on it
        self._critical = {}  # T -> members whose only unrealized proper trace is T

    def masks(self) -> list[int]:
        return list(self._masks)

    def try_add(self, G: int) -> bool:
        critical = self._critical
        T = G
        while T:
            T = (T - 1) & G
            for F in critical.get(T, ()):
                if G & F == T:
                    return False
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
                    self._mark_critical(F, realized)
        self._masks.append(G)
        self._realized.append(own)
        if len(own) == everything - 1:
            self._mark_critical(G, own)
        return True

    def _mark_critical(self, F: int, realized: set):
        if len(realized) == 1 << self.k:
            raise InvariantViolation(f"commit realized every trace on {F:#x}; a kill was missed")
        T = F
        while T in realized:
            T = (T - 1) & F
        self._critical.setdefault(T, []).append(F)
