"""Certificates of members of a (d+1)-uniform family.

A certificate of a member F is a proper subset T of F that no member realizes
as a trace on F. Bounded VC dimension is exactly certificate existence for
every member, and the map F -> (canonical least maximum certificate) induces
the fiber structure that the counting pipeline consumes.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import factorial

from .bitwords import bit, elements_of, mask_of, popcount, positions_of
from .constructions import MAX_GEN_CANDIDATES
from .errors import InvariantViolation, MemberShattered, UsageError
from .families import SubsetWord, UniformFamily
from .traces import (
    compress_trace,
    expand_index,
    largest_unrealized,
    occupancy_words,
    size_layer_mask,
)

TRIANGLE = "TRIANGLE"
CHERRY = "CHERRY"
SINGLETON = "SINGLETON"


@dataclass
class CertificateAssignment:
    """Maximum-certificate assignment for every member, with fibers and strata.

    assigned maps member mask -> certificate mask. fibers groups members by
    assigned certificate; strata groups them by certificate size. Lists are
    canonically sorted and dict keys ascend, so equal inputs build equal
    objects. build_assignment keeps each member's occupancy word and bit
    positions, so that validate and the pipeline need not recompute them.
    """

    family: UniformFamily
    d: int
    assigned: dict = field(default_factory=dict)
    fibers: dict = field(default_factory=dict)
    strata: dict = field(default_factory=dict)
    occupancy: dict | None = field(default=None, compare=False, repr=False)
    positions: dict | None = field(default=None, compare=False, repr=False)

    def member_positions(self) -> dict:
        """member mask -> positions_of(mask), computed once per assignment."""
        if self.positions is None:
            self.positions = {m: positions_of(m) for m in self.family.masks}
        return self.positions

    def certificate_of(self, F: SubsetWord) -> SubsetWord:
        return SubsetWord(self.assigned[F.bits], self.family.n)

    def validate(self):
        """Re-derive everything and fail loudly on any mismatch.

        Each certificate must be a valid one and the canonical choice: no
        unrealized trace is larger or of equal size and canonically earlier.
        The groupings and the fiber-size facts are checked too.
        """
        fam = self.family
        if set(self.assigned) != set(fam.masks):
            raise InvariantViolation("assignment domain differs from the family")
        positions = self.member_positions()
        occs = self.occupancy or dict(
            zip(fam.masks, occupancy_words(fam.masks, fam.k, [positions[m] for m in fam.masks]))
        )
        layers = [size_layer_mask(fam.k, s) for s in range(fam.k)]
        above = [sum(layers[s + 1 :]) for s in range(fam.k)]  # bits of every larger size
        regroup_fibers = {}
        regroup_strata = {}
        for m in fam.masks:
            c = self.assigned[m]
            if c & ~m or c == m:
                raise InvariantViolation(f"assigned {c:#x} is not a proper subset of {m:#x}")
            ci = compress_trace(c, positions[m])
            unrealized = ~occs[m]
            if not unrealized >> ci & 1:
                raise InvariantViolation(f"assigned {c:#x} is a realized trace on {m:#x}")
            size = c.bit_count()
            if unrealized & (above[size] | layers[size] & ((1 << ci) - 1)):
                raise InvariantViolation(f"assigned {c:#x} is not the canonical choice on {m:#x}")
            regroup_fibers.setdefault(c, []).append(m)
            regroup_strata.setdefault(size, []).append(m)
        if {t: tuple(v) for t, v in sorted(regroup_fibers.items())} != self.fibers:
            raise InvariantViolation("fiber grouping is inconsistent with assigned")
        if {s: tuple(v) for s, v in sorted(regroup_strata.items())} != self.strata:
            raise InvariantViolation("strata grouping is inconsistent with assigned")
        supersets = fam.shadow_count  # d-set -> members containing it
        for t, members in self.fibers.items():
            if t.bit_count() == self.d and (len(members) != 1 or supersets[t] != 1):
                raise InvariantViolation(
                    f"size-d certificate {t:#x} must pin a unique superset member"
                )
            if t.bit_count() == self.d - 1 and len(members) > 3:
                raise InvariantViolation(f"fiber of {t:#x} has {len(members)} > 3 members")


def build_assignment(fam: UniformFamily, d: int) -> CertificateAssignment:
    """Assign every member its canonical maximum certificate.

    Runs on the vectorized occupancy words: for each member, take the lowest
    unrealized compressed index in the largest size layer that has one
    (ascending index inside a size class is ascending canonical order of the
    subsets).
    """
    if fam.k != d + 1:
        raise UsageError(f"family is {fam.k}-uniform, expected {d + 1}-uniform for d={d}")
    if 1 << fam.k > MAX_GEN_CANDIDATES:  # occupancy words hold 2^(d+1) traces each
        raise UsageError(f"2^{fam.k} traces per member exceed the limit of {MAX_GEN_CANDIDATES}")
    masks = fam.masks
    positions = [positions_of(m) for m in masks]
    occs = occupancy_words(masks, fam.k, positions)
    layers = [size_layer_mask(fam.k, s) for s in range(fam.k)]
    assigned = {}
    for m, occ, pos in zip(masks, occs, positions):
        best = largest_unrealized(occ, layers)
        if best is None:
            raise MemberShattered(SubsetWord(m, fam.n), d)
        assigned[m] = expand_index(best[1], pos)
    assign = assemble_assignment(fam, d, assigned)
    assign.occupancy = dict(zip(masks, occs))
    assign.positions = dict(zip(masks, positions))
    return assign


def assemble_assignment(fam: UniformFamily, d: int, assigned: dict) -> CertificateAssignment:
    """Package an explicit member->certificate map into fibers and strata."""
    fibers = {}
    strata = {}
    for m in fam.masks:  # canonical member order keeps the groupings sorted
        c = assigned[m]
        fibers.setdefault(c, []).append(m)
        strata.setdefault(c.bit_count(), []).append(m)
    return CertificateAssignment(
        family=fam,
        d=d,
        assigned=dict(assigned),
        fibers={t: tuple(v) for t, v in sorted(fibers.items())},
        strata={s: tuple(v) for s, v in sorted(strata.items())},
    )


def fiber_bound(d: int) -> int:
    """The proven ceiling (d+1)! * (d+1)^(d+1) on any fiber size."""
    return factorial(d + 1) * (d + 1) ** (d + 1)


def fiber_size_histogram(assign: CertificateAssignment):
    """Histogram of fiber sizes plus the maximum, checked against fiber_bound."""
    hist = Counter(len(v) for v in assign.fibers.values())
    biggest = max(hist) if hist else 0
    limit = fiber_bound(assign.d)
    if biggest > limit:
        raise InvariantViolation(f"fiber of size {biggest} exceeds the bound {limit}")
    return dict(sorted(hist.items())), biggest


@dataclass(frozen=True)
class FiberShape:
    """Classified fiber of a size-(d-1) certificate T.

    kind is TRIANGLE, CHERRY, or SINGLETON. elements names the distinguished
    elements beyond T ((x,y,z), (a,b,c) with a shared, or (x,y)). side_u and
    side_v are the side sets describing all remaining supersets of T in the
    family; leaf_pair is the optional extra CHERRY superset T+{b,c}.
    """

    kind: str
    T: SubsetWord
    elements: tuple
    fiber: tuple
    side_u: tuple = ()
    side_v: tuple = ()
    leaf_pair: bool = False

    def reconstructed_fiber(self) -> tuple:
        n = self.T.n
        t = self.T.bits
        if self.kind == TRIANGLE:
            x, y, z = self.elements
            raw = [t | mask_of((x, y)), t | mask_of((y, z)), t | mask_of((x, z))]
        elif self.kind == CHERRY:
            a, b, c = self.elements
            raw = [t | mask_of((a, b)), t | mask_of((a, c))]
        else:
            x, y = self.elements
            raw = [t | mask_of((x, y))]
        return tuple(SubsetWord(r, n) for r in sorted(raw))


def fiber_shape_elements(t_mask: int, fiber_masks) -> tuple:
    """(kind, elements) for a fiber of a size-(d-1) certificate.

    Works from the member list alone, so the pipeline can reuse it on fibers
    restricted to a subclass of the family.
    """
    pairs = []
    for m in fiber_masks:
        p = m & ~t_mask
        if t_mask & ~m or popcount(p) != 2:
            raise InvariantViolation(f"fiber member {m:#x} does not extend {t_mask:#x} by a pair")
        pairs.append(p)
    if len(pairs) == 1:
        x, y = elements_of(pairs[0])
        return SINGLETON, (x, y)
    if len(pairs) == 2:
        shared = pairs[0] & pairs[1]
        if popcount(shared) != 1:
            raise InvariantViolation("2-member fiber must share exactly one element beyond T")
        a = shared.bit_length()
        b, c = sorted(((pairs[0] ^ shared).bit_length(), (pairs[1] ^ shared).bit_length()))
        return CHERRY, (a, b, c)
    if len(pairs) == 3:
        union = pairs[0] | pairs[1] | pairs[2]
        if popcount(union) != 3 or len({*pairs}) != 3:
            raise InvariantViolation("3-member fiber must be a triangle on three elements")
        x, y, z = elements_of(union)
        return TRIANGLE, (x, y, z)
    raise InvariantViolation(f"fiber has {len(pairs)} members, only 1..3 are possible")


def classify_fiber(T: SubsetWord, assign: CertificateAssignment) -> FiberShape:
    """Classify the fiber of a size-(d-1) certificate and validate its ambient
    superset pattern against the family."""
    fam = assign.family
    if len(T) != assign.d - 1:
        raise UsageError(f"classify_fiber needs |T| = d-1 = {assign.d - 1}, got {len(T)}")
    t = T.bits
    fiber = assign.fibers.get(t)
    if fiber is None:
        raise UsageError(f"{T} is not an assigned certificate")
    kind, elems = fiber_shape_elements(t, fiber)
    supersets = [m for m in fam.masks if t & ~m == 0]
    others = [m for m in supersets if m not in set(fiber)]
    fiber_words = tuple(SubsetWord(m, fam.n) for m in fiber)
    if kind == TRIANGLE:
        if others:
            raise InvariantViolation(
                f"triangle fiber of {T} admits no other supersets, found {len(others)}"
            )
        return FiberShape(TRIANGLE, T, elems, fiber_words)
    if kind == CHERRY:
        a, b, c = elems
        bc = mask_of((b, c))
        side_u = []
        leaf_pair = False
        for m in others:
            p = m & ~t
            if p == bc:
                leaf_pair = True
            elif p >> (a - 1) & 1:
                side_u.append((p & ~bit(a)).bit_length())
            else:
                raise InvariantViolation(
                    f"superset {m:#x} of cherry fiber {T} avoids the shared element {a}"
                )
        return FiberShape(CHERRY, T, elems, fiber_words, tuple(sorted(side_u)), (), leaf_pair)
    x, y = elems
    side_u, side_v = [], []
    for m in others:
        p = m & ~t
        if p >> (x - 1) & 1:
            side_u.append((p & ~bit(x)).bit_length())
        elif p >> (y - 1) & 1:
            side_v.append((p & ~bit(y)).bit_length())
        else:
            raise InvariantViolation(
                f"superset {m:#x} of singleton fiber {T} avoids both {x} and {y}"
            )
    return FiberShape(SINGLETON, T, elems, fiber_words, tuple(sorted(side_u)), tuple(sorted(side_v)))
