"""Typed set-system core: subset words, uniform families, traces, VC dimension.

A SubsetWord is a subset of a fixed ground set [n] = {1, ..., n} stored as an
integer bit word (element e <-> bit e-1). Canonical order on words of the same
ground set is integer order on the bits, i.e. colex order on the sets; every
"least" tie-break in this package means least in that order.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .bitwords import elements_of, k_subset_masks, mask_of, popcount
from .errors import UsageError

MAX_GROUND_SET = 63
MAX_SHATTER_CHECK = 25
# vc_dimension refuses a level whose scan would intersect more (s-subset,
# member) pairs than this; the largest scan the tests, demos and benchmark do
# is far below it
MAX_VC_SCAN = 1 << 26


@dataclass(frozen=True)
class SubsetWord:
    """A subset of [n] as a bit word. Immutable and totally ordered."""

    bits: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise UsageError(f"ground set size {self.n} outside 1..{MAX_GROUND_SET}")
        if self.bits < 0 or self.bits >> self.n:
            raise UsageError(f"bit word {self.bits:#x} has elements outside [{self.n}]")

    @classmethod
    def from_elements(cls, n: int, elements) -> "SubsetWord":
        elements = list(elements)
        for e in elements:
            if not 1 <= e <= n:
                raise UsageError(f"element {e} outside ground set [{n}]")
        return cls(mask_of(elements), n)

    def elements(self) -> tuple[int, ...]:
        return elements_of(self.bits)

    def __len__(self) -> int:
        return popcount(self.bits)

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.bits >> (element - 1) & 1)

    def _check_same_ground(self, other: "SubsetWord"):
        if self.n != other.n:
            raise UsageError(f"ground set mismatch: [{self.n}] vs [{other.n}]")

    def __and__(self, other: "SubsetWord") -> "SubsetWord":
        self._check_same_ground(other)
        return SubsetWord(self.bits & other.bits, self.n)

    def __or__(self, other: "SubsetWord") -> "SubsetWord":
        self._check_same_ground(other)
        return SubsetWord(self.bits | other.bits, self.n)

    def __sub__(self, other: "SubsetWord") -> "SubsetWord":
        self._check_same_ground(other)
        return SubsetWord(self.bits & ~other.bits, self.n)

    def __le__(self, other: "SubsetWord") -> bool:
        self._check_same_ground(other)
        return self.bits <= other.bits

    def __lt__(self, other: "SubsetWord") -> bool:
        self._check_same_ground(other)
        return self.bits < other.bits

    def issubset(self, other: "SubsetWord") -> bool:
        self._check_same_ground(other)
        return self.bits & ~other.bits == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"

    def __repr__(self) -> str:
        return f"SubsetWord({str(self)}, n={self.n})"


@dataclass(frozen=True)
class UniformFamily:
    """A k-uniform family over [n]: distinct k-subsets in canonical order."""

    n: int
    k: int
    members: tuple[SubsetWord, ...]

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise UsageError(f"uniformity {self.k} outside 0..{self.n}")
        prev = -1
        for w in self.members:
            if w.n != self.n:
                raise UsageError(f"member {w} has ground set [{w.n}], family has [{self.n}]")
            if len(w) != self.k:
                raise UsageError(f"member {w} has size {len(w)}, family is {self.k}-uniform")
            if w.bits <= prev:
                raise UsageError("members must be strictly increasing in canonical order")
            prev = w.bits

    @classmethod
    def from_masks(cls, n: int, k: int, masks) -> "UniformFamily":
        unique = sorted(set(masks))
        return cls(n, k, tuple(SubsetWord(m, n) for m in unique))

    @classmethod
    def from_element_lists(cls, n: int, k: int, lists) -> "UniformFamily":
        return cls.from_masks(n, k, (mask_of(xs) for xs in lists))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(w.bits for w in self.members)

    @cached_property
    def mask_set(self) -> frozenset:
        return frozenset(self.masks)

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
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, word: SubsetWord) -> bool:
        return word.n == self.n and word.bits in self.mask_set


@dataclass(frozen=True)
class ShadowSet:
    """The (k-1)-sets below a k-uniform family, or their complement in C([n], k-1)."""

    n: int
    k: int
    members: tuple[SubsetWord, ...]
    complement: bool

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def trace(F: SubsetWord, S: SubsetWord) -> SubsetWord:
    """The trace of F on S, plain intersection with ground-set checking."""
    return F & S


def is_shattered(S: SubsetWord, fam: UniformFamily) -> bool:
    """Whether every subset of S occurs as a trace of some member on S."""
    if S.n != fam.n:
        raise UsageError(f"ground set mismatch: [{S.n}] vs [{fam.n}]")
    size = len(S)
    if size > MAX_SHATTER_CHECK:
        raise UsageError(f"shattering check capped at |S| <= {MAX_SHATTER_CHECK}, got {size}")
    s = S.bits
    realized = {m & s for m in fam.masks}
    return len(realized) == 1 << size


def shattered_witness(fam: UniformFamily, s: int) -> SubsetWord | None:
    """Canonically least shattered s-subset of [n], or None if there is none."""
    if s < 0 or s > MAX_SHATTER_CHECK:
        raise UsageError(f"witness size {s} outside 0..{MAX_SHATTER_CHECK}")
    if s > fam.n:
        return None
    target = 1 << s
    masks = fam.masks
    for cand in k_subset_masks(fam.n, s):
        if len({m & cand for m in masks}) == target:
            return SubsetWord(cand, fam.n)
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


def shadow(fam: UniformFamily) -> ShadowSet:
    """All (k-1)-sets contained in at least one member."""
    if fam.k == 0:
        raise UsageError("shadow of a 0-uniform family is undefined")
    words = tuple(SubsetWord(b, fam.n) for b in sorted(fam.shadow_count))
    return ShadowSet(fam.n, fam.k, words, complement=False)


def complement_shadow(fam: UniformFamily) -> ShadowSet:
    """The (k-1)-sets of [n] missing from the shadow."""
    if fam.k == 0:
        raise UsageError("shadow of a 0-uniform family is undefined")
    present = fam.shadow_count
    words = tuple(
        SubsetWord(b, fam.n) for b in k_subset_masks(fam.n, fam.k - 1) if b not in present
    )
    return ShadowSet(fam.n, fam.k, words, complement=True)


def sauer_shelah_bound(n: int, d: int) -> int:
    """Number of subsets of [n] of size at most d."""
    return sum(comb(n, i) for i in range(0, d + 1))


def frankl_pach_bound(n: int, d: int) -> int:
    """C(n, d), the classical upper bound for (d+1)-uniform families of VC <= d."""
    return comb(n, d)
