"""Set-system core: uniform families, shattering, VC dimension, shadows.

Every set is a subset of a fixed ground set [n] = {1, ..., n} stored as an
integer bit word (element e <-> bit e-1). Canonical order on words is integer
order on the bits, i.e. colex order on the sets; every "least" tie-break in
this package means least in that order.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .bitwords import k_subset_masks, mask_of, set_text
from .errors import UsageError

MAX_GROUND_SET = 63
MAX_SHATTER_CHECK = 25
# vc_dimension refuses a level whose scan would intersect more (s-subset,
# member) pairs than this; the largest scan the tests, demos and benchmark do
# is far below it
MAX_VC_SCAN = 1 << 26
# most k-subsets a generator or a shadow lists; larger requests are refused up front
MAX_GEN_CANDIDATES = 1 << 18
# most work random generation may do, C(n, d+1) candidates times the 2^(d+1)
# parts into which each candidate that passes the kill test splits the family,
# one per trace: the (19,17) family needs about 2^22.2, and (18,11), about
# 2^26.2, would run for minutes
MAX_GEN_WORK = 1 << 23
# most worker processes a fuzz campaign or search starts: a process pool forks
# all of its workers at once, so a larger request is refused before any starts
MAX_THREADS = 64


def check_threads(threads: int):
    if threads > MAX_THREADS:
        raise UsageError(f"{threads} worker processes exceed the limit of {MAX_THREADS}")


@dataclass(frozen=True)
class UniformFamily:
    """A k-uniform family over [n]: distinct k-subsets as masks, ascending."""

    n: int
    k: int
    masks: tuple[int, ...]

    def __post_init__(self):
        n, k, masks = self.n, self.k, self.masks
        if not 1 <= n <= MAX_GROUND_SET:
            raise UsageError(f"ground set size {n} outside 1..{MAX_GROUND_SET}")
        if not 0 <= k <= n:
            raise UsageError(f"uniformity {k} outside 0..{n}")
        for m in masks[:1] + masks[-1:]:  # the least and the largest, once masks ascend
            if m < 0 or m >> n:
                raise UsageError(f"bit word {m:#x} has elements outside [{n}]")
        prev = -1
        for m in masks:
            if m <= prev:
                raise UsageError("members must be strictly increasing in canonical order")
            if m.bit_count() != k:
                raise UsageError(
                    f"member {set_text(m)} has size {m.bit_count()}, family is {k}-uniform"
                )
            prev = m

    @classmethod
    def from_masks(cls, n: int, k: int, masks) -> "UniformFamily":
        return cls(n, k, tuple(sorted(set(masks))))

    @classmethod
    def from_element_lists(cls, n: int, k: int, lists) -> "UniformFamily":
        lists = [tuple(xs) for xs in lists]
        for xs in lists:
            for e in xs:
                if not 1 <= e <= n:
                    raise UsageError(f"element {e} outside ground set [{n}]")
        return cls.from_masks(n, k, map(mask_of, lists))

    @cached_property
    def shadow_count(self) -> Counter:
        """Shadow (k-1)-set mask -> number of members containing it (0 off the shadow).

        Masks fit int64 (n <= 63), so numpy lists every member with one bit
        dropped, a row per dropped bit, and Counter counts the list in C.
        """
        masks = np.array(self.masks, dtype=np.int64)
        rest = masks.copy()
        shadows = np.empty((self.k, len(masks)), dtype=np.int64)
        for row in shadows:
            low = rest & -rest
            rest ^= low
            np.bitwise_xor(masks, low, out=row)
        return Counter(shadows.ravel().tolist())

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __contains__(self, mask: int) -> bool:
        i = bisect_left(self.masks, mask)
        return i < len(self.masks) and self.masks[i] == mask


def is_shattered(S: int, fam: UniformFamily) -> bool:
    """Whether every subset of S occurs as a trace of some member on S."""
    if S < 0 or S >> fam.n:
        raise UsageError(f"bit word {S:#x} has elements outside [{fam.n}]")
    size = S.bit_count()
    if size > MAX_SHATTER_CHECK:
        raise UsageError(f"shattering check capped at |S| <= {MAX_SHATTER_CHECK}, got {size}")
    realized = {m & S for m in fam.masks}
    return len(realized) == 1 << size


def shattered_witness(fam: UniformFamily, s: int) -> int | None:
    """Canonically least shattered s-subset of [n], or None if there is none."""
    if s < 0 or s > MAX_SHATTER_CHECK:
        raise UsageError(f"witness size {s} outside 0..{MAX_SHATTER_CHECK}")
    if s > fam.n:
        return None
    target = 1 << s
    masks = fam.masks
    for cand in k_subset_masks(fam.n, s):
        if len({m & cand for m in masks}) == target:
            return cand
    return None


def vc_dimension(fam: UniformFamily) -> int:
    """Largest size of a shattered subset of [n]; -1 for the empty family.

    Shattered sets are downward closed, so the scan over sizes stops at the
    first size with no witness. A shattered set of a k-uniform family has at
    most k elements (it needs a full trace) and an s-set needs 2^s members,
    capping the scan.
    """
    if len(fam) == 0:
        return -1
    cap = min(fam.k, fam.n, len(fam).bit_length() - 1)
    for s in range(1, cap + 1):
        if comb(fam.n, s) * len(fam) > MAX_VC_SCAN:
            raise UsageError(
                f"vc_dimension would test C({fam.n},{s}) sets against {len(fam)} members; "
                f"the limit is {MAX_VC_SCAN} pairs"
            )
        if shattered_witness(fam, s) is None:
            return s - 1
    return cap


def shadow(fam: UniformFamily) -> tuple[int, ...]:
    """All (k-1)-sets contained in at least one member, ascending."""
    if fam.k == 0:
        raise UsageError("shadow of a 0-uniform family is undefined")
    return tuple(sorted(fam.shadow_count))


def complement_shadow(fam: UniformFamily) -> tuple[int, ...]:
    """The (k-1)-sets of [n] missing from the shadow, ascending."""
    if fam.k == 0:
        raise UsageError("shadow of a 0-uniform family is undefined")
    present = fam.shadow_count
    return tuple(b for b in k_subset_masks(fam.n, fam.k - 1) if b not in present)


def sauer_shelah_bound(n: int, d: int) -> int:
    """Number of subsets of [n] of size at most d."""
    return sum(comb(n, i) for i in range(0, d + 1))


def frankl_pach_bound(n: int, d: int) -> int:
    """C(n, d), the classical upper bound for (d+1)-uniform families of VC <= d."""
    return comb(n, d)
