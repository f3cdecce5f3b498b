"""Certificates of members of a (d+1)-uniform family.

A certificate of a member F is a proper subset T of F that no member realizes
as a trace on F. Bounded VC dimension is exactly certificate existence for
every member, and the map F -> (canonical least maximum certificate) induces
the fiber structure that the counting pipeline consumes.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from .bitwords import bit, elements_of, mask_of, set_text
from .errors import InvariantViolation, MemberShattered, UsageError
from .families import MAX_CHECK_WORK, MAX_GEN_CANDIDATES, UniformFamily
from .traces import Occupancy, compress_trace, first_unrealized, occupancy_words

TRIANGLE = "TRIANGLE"
CHERRY = "CHERRY"
SINGLETON = "SINGLETON"

@dataclass
class CertificateAssignment:
    """Maximum-certificate assignment for every member, with fibers and strata.

    assigned maps member mask -> certificate mask, and occupancy is the
    occupancy_words pass over family.masks that the certificates were read
    from. fibers groups members by assigned certificate and strata groups
    them by certificate size; both derive from assigned, in canonical member
    order with ascending keys, so equal inputs build equal objects.
    """

    family: UniformFamily
    d: int
    assigned: dict
    occupancy: Occupancy = field(compare=False, repr=False)

    @cached_property
    def fibers(self) -> dict:
        return self._grouped(lambda c: c)

    @cached_property
    def strata(self) -> dict:
        return self._grouped(int.bit_count)

    def _grouped(self, key) -> dict:
        groups = {}
        for m in self.family.masks:
            groups.setdefault(key(self.assigned[m]), []).append(m)
        return {g: tuple(v) for g, v in sorted(groups.items())}

    def validate(self):
        """Re-check every certificate and fail loudly on any mismatch.

        Each certificate must be a valid one and the canonical choice: no
        unrealized trace is larger or of equal size and canonically earlier.
        The fiber-size facts are checked too: a size-d certificate has one
        superset in the family, so its fiber, whose members all contain it,
        is that one member; a size-(d-1) fiber has at most 3 members.
        """
        fam, occ, assigned, d = self.family, self.occupancy, self.assigned, self.d
        supersets = fam.shadow_count  # d-set -> members containing it
        # with equal sizes, finding every member finds the whole domain
        if len(assigned) != len(fam) or len(occ.words) != len(fam):
            raise InvariantViolation("assignment domain differs from the family")
        for m, word in zip(fam.masks, occ.words):
            c = assigned.get(m)
            if c is None:
                raise InvariantViolation("assignment domain differs from the family")
            if c & ~m or c == m:
                raise InvariantViolation(f"assigned {c:#x} is not a proper subset of {m:#x}")
            ci = compress_trace(c, m)
            if word >> ci & 1:
                raise InvariantViolation(f"assigned {c:#x} is a realized trace on {m:#x}")
            if first_unrealized(word, fam.k) != ci:
                raise InvariantViolation(f"assigned {c:#x} is not the canonical choice on {m:#x}")
            if ci.bit_count() == d and supersets[c] != 1:
                raise InvariantViolation(
                    f"size-d certificate {c:#x} must pin a unique superset member"
                )
        for t, members in self.fibers.items():
            if len(members) > 3 and t.bit_count() == d - 1:
                raise InvariantViolation(f"fiber of {t:#x} has {len(members)} > 3 members")


def check_occupancy_work(size: int, k: int):
    """Refuse a k-uniform family of `size` members when occupancy_words'
    split pass, 2^k parts of ceil(size / 64) words for each member, would
    exceed MAX_CHECK_WORK word operations."""
    words = -(-size // 64)
    if size * words << k > MAX_CHECK_WORK:
        raise UsageError(
            f"{size} members times 2^{k} traces times {words} words exceed the limit of "
            f"{MAX_CHECK_WORK}"
        )


def build_assignment(fam: UniformFamily, d: int) -> CertificateAssignment:
    """Assign every member its canonical maximum certificate.

    The certificates come from the one occupancy_words pass: for each member,
    the first trace in preference(d + 1) that it leaves unrealized
    (traces.first_unrealized).
    """
    if fam.k != d + 1:
        raise UsageError(f"family is {fam.k}-uniform, expected {d + 1}-uniform for d={d}")
    if 1 << fam.k > MAX_GEN_CANDIDATES:  # occupancy words hold 2^(d+1) traces each
        raise UsageError(f"2^{fam.k} traces per member exceed the limit of {MAX_GEN_CANDIDATES}")
    check_occupancy_work(len(fam), fam.k)
    masks = fam.masks
    occ = occupancy_words(masks, fam.k)
    if None in occ.certificates:
        raise MemberShattered(masks[occ.certificates.index(None)], d)
    return CertificateAssignment(fam, d, dict(zip(masks, occ.certificates)), occ)


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
    T: int
    elements: tuple
    fiber: tuple  # member masks, ascending
    side_u: tuple = ()
    side_v: tuple = ()
    leaf_pair: bool = False

    def reconstructed_fiber(self) -> tuple:
        t = self.T
        if self.kind == TRIANGLE:
            x, y, z = self.elements
            raw = [t | mask_of((x, y)), t | mask_of((y, z)), t | mask_of((x, z))]
        elif self.kind == CHERRY:
            a, b, c = self.elements
            raw = [t | mask_of((a, b)), t | mask_of((a, c))]
        else:
            x, y = self.elements
            raw = [t | mask_of((x, y))]
        return tuple(sorted(raw))


def fiber_shape_elements(t_mask: int, fiber_masks) -> tuple:
    """(kind, elements) for a fiber of a size-(d-1) certificate.

    Works from the member list alone, so the pipeline can reuse it on fibers
    restricted to a subclass of the family.
    """
    pairs = []
    for m in fiber_masks:
        p = m & ~t_mask
        if t_mask & ~m or p.bit_count() != 2:
            raise InvariantViolation(f"fiber member {m:#x} does not extend {t_mask:#x} by a pair")
        pairs.append(p)
    if len(pairs) == 1:
        x, y = elements_of(pairs[0])
        return SINGLETON, (x, y)
    if len(pairs) == 2:
        shared = pairs[0] & pairs[1]
        if shared.bit_count() != 1:
            raise InvariantViolation("2-member fiber must share exactly one element beyond T")
        a = shared.bit_length()
        b, c = sorted(((pairs[0] ^ shared).bit_length(), (pairs[1] ^ shared).bit_length()))
        return CHERRY, (a, b, c)
    if len(pairs) == 3:
        union = pairs[0] | pairs[1] | pairs[2]
        if union.bit_count() != 3 or len({*pairs}) != 3:
            raise InvariantViolation("3-member fiber must be a triangle on three elements")
        x, y, z = elements_of(union)
        return TRIANGLE, (x, y, z)
    raise InvariantViolation(f"fiber has {len(pairs)} members, only 1..3 are possible")


def classify_fiber(t: int, assign: CertificateAssignment) -> FiberShape:
    """Classify the fiber of a size-(d-1) certificate t and validate its
    ambient superset pattern against the family."""
    if t.bit_count() != assign.d - 1:
        raise UsageError(f"classify_fiber needs |T| = d-1 = {assign.d - 1}, got {t.bit_count()}")
    fiber = assign.fibers.get(t)
    if fiber is None:
        raise UsageError(f"{set_text(t)} is not an assigned certificate")
    kind, elems = fiber_shape_elements(t, fiber)
    others = [m for m in assign.family.masks if t & ~m == 0 and m not in fiber]
    if kind == TRIANGLE:
        if others:
            raise InvariantViolation(
                f"triangle fiber of {set_text(t)} admits no other supersets, found {len(others)}"
            )
        return FiberShape(TRIANGLE, t, elems, fiber)
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
                    f"superset {m:#x} of cherry fiber {set_text(t)} avoids the shared element {a}"
                )
        return FiberShape(CHERRY, t, elems, fiber, tuple(sorted(side_u)), (), leaf_pair)
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
                f"superset {m:#x} of singleton fiber {set_text(t)} avoids both {x} and {y}"
            )
    return FiberShape(SINGLETON, t, elems, fiber, tuple(sorted(side_u)), tuple(sorted(side_v)))
