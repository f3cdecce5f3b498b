"""Sunflower extraction in k-uniform families.

A p-sunflower is p distinct members whose pairwise intersections all equal one
core set. The finder follows the classical recursion: a maximal pairwise
disjoint subfamily either already has p sets (core empty), or its union meets
every member, so the most popular element of that union lies in a large link,
and a sunflower found there lifts back. At the size threshold k!(p-1)^k the
recursion cannot fail.
"""

from dataclasses import dataclass
from math import factorial

from .bitwords import bit, elements_of
from .errors import UsageError
from .families import UniformFamily


@dataclass(frozen=True)
class Sunflower:
    core: int
    petals: tuple[int, ...]  # ascending


def validate_sunflower(flower: Sunflower) -> bool:
    """True iff all pairwise petal intersections equal the core (and the core
    lies inside every petal, which matters only for a single petal)."""
    core = flower.core
    masks = flower.petals
    if len(set(masks)) != len(masks):
        return False
    for m in masks:
        if core & ~m:
            return False
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b != core:
                return False
    return True


def find_sunflower(fam: UniformFamily, p: int) -> Sunflower | None:
    """A p-sunflower in fam, or None. Deterministic for a given input.

    Guaranteed to succeed when len(fam) > k! (p-1)^k: the greedy disjoint
    subfamily either suffices or has union of size < kp meeting every member,
    so the most popular element keeps more than (k-1)! (p-1)^(k-1) members in
    its link. At exact threshold equality the guarantee is tight only for
    k = 1, where p - 1 distinct singletons really do lack a p-th petal; for
    k >= 2 the known extremal sizes sit strictly below the threshold and the
    recursion finds a flower in practice.
    """
    if p < 1:
        raise UsageError(f"petal count must be at least 1, got {p}")
    found = _find(list(fam.masks), p)
    if found is None:
        return None
    core_mask, petal_masks = found
    return Sunflower(core_mask, tuple(sorted(petal_masks)))


def _find(masks: list[int], p: int):
    disjoint = []
    union = 0
    for m in masks:  # canonical order: the list stays sorted through recursion
        if m & union == 0:
            disjoint.append(m)
            union |= m
    if len(disjoint) >= p:
        return 0, disjoint
    if union == 0:
        return None
    best_e, best_count = 0, -1
    for e in elements_of(union):
        count = sum(1 for m in masks if m >> (e - 1) & 1)
        if count > best_count:
            best_e, best_count = e, count
    x = bit(best_e)
    link = [m & ~x for m in masks if m & x]
    sub = _find(link, p)
    if sub is None:
        return None
    core_mask, petal_masks = sub
    return core_mask | x, [m | x for m in petal_masks]


def sunflower_threshold(k: int, p: int) -> int:
    """k! (p-1)^k, the classical size guaranteeing a p-sunflower."""
    return factorial(k) * (p - 1) ** k
