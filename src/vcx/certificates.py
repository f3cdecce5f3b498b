"""Certificates of members of a (d+1)-uniform family.

A certificate of a member F is a proper subset T of F that no member realizes
as a trace on F. Bounded VC dimension is exactly certificate existence for
every member, and the map F -> (canonical least maximum certificate) induces
the fiber structure that the counting pipeline consumes.

A d-subset of F is a trace on F exactly when another member holds it, so a
member with a d-subset of shadow count 1 takes the first such subset in
preference order as its certificate, read off the family's shadow counts.
Only the other members, whose d-subsets are all shared, go through the
occupancy_words pass.
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

    assigned maps member mask -> certificate mask, in family order. occupancy
    is the occupancy_words pass the certificates of the low members were
    read from: the members whose d-subsets all lie in other members, in
    family order, against all of the family's members. Every other member's
    certificate is its first d-subset in preference order with shadow count
    1. fibers groups members by assigned certificate and strata groups them
    by certificate size; both derive from assigned, in canonical member order
    with ascending keys, so equal inputs build equal objects.
    """

    family: UniformFamily
    d: int
    assigned: dict
    occupancy: Occupancy = field(compare=False, repr=False)

    @cached_property
    def fibers(self) -> dict:
        return self._grouped(None)

    @cached_property
    def strata(self) -> dict:
        return self._grouped(int.bit_count)

    def _grouped(self, key) -> dict:
        """Members grouped by key(certificate), or by the certificate when key
        is None: one stable sort of the member indices by key, so keys ascend
        and each group keeps canonical member order."""
        masks = self.family.masks
        keys = list(map(self.assigned.__getitem__, masks))
        if key is not None:
            keys = list(map(key, keys))
        groups, last = {}, -1  # no key is negative
        for i in sorted(range(len(masks)), key=keys.__getitem__):
            if keys[i] != last:
                last = keys[i]
                group = groups[last] = []
            group.append(masks[i])
        return {g: tuple(members) for g, members in groups.items()}

    def validate(self):
        """Re-check every certificate and fail loudly on any mismatch.

        Each certificate must be a valid one and the canonical choice: no
        unrealized trace is larger or of equal size and canonically earlier.
        A d-subset is realized exactly when another member holds it, so a
        size-d certificate must have one superset in the family, and every
        d-subset before it in preference order two or more; its fiber, whose
        members all contain it, is then that one member. Every other member
        must have all its d-subsets shared, and is checked on the next word
        the assignment carries. A size-(d-1) fiber has at most 3 members.
        """
        fam, assigned, d, k = self.family, self.assigned, self.d, self.family.k
        supersets = fam.shadow_count  # d-set -> members containing it
        # with equal sizes, finding every member finds the whole domain
        if len(assigned) != len(fam):
            raise InvariantViolation("assignment domain differs from the family")
        words = iter(self.occupancy.words)
        for m in fam.masks:
            c = assigned.get(m)
            if c is None:
                raise InvariantViolation("assignment domain differs from the family")
            if c & ~m or c == m:
                raise InvariantViolation(f"assigned {c:#x} is not a proper subset of {m:#x}")
            size_d = c.bit_count() == d
            if size_d and supersets[c] != 1:
                raise InvariantViolation(
                    f"size-d certificate {c:#x} must pin a unique superset member"
                )
            # the d-subsets before c in preference order drop the elements
            # above the one c drops; below size d, every d-subset is before c
            before = m & -(m ^ c) << 1 if size_d else m
            while before:
                top = 1 << before.bit_length() - 1
                if supersets[m ^ top] < 2:
                    raise InvariantViolation(
                        f"assigned {c:#x} is not the canonical choice on {m:#x}"
                    )
                before ^= top
            if size_d:
                continue
            word = next(words, None)
            if word is None:
                raise InvariantViolation("assignment domain differs from the family")
            ci = compress_trace(c, m)
            if word >> ci & 1:
                raise InvariantViolation(f"assigned {c:#x} is a realized trace on {m:#x}")
            if first_unrealized(word, k) != ci:
                raise InvariantViolation(f"assigned {c:#x} is not the canonical choice on {m:#x}")
        if next(words, None) is not None:
            raise InvariantViolation("assignment domain differs from the family")
        for t, members in self.fibers.items():
            if len(members) > 3 and t.bit_count() == d - 1:
                raise InvariantViolation(f"fiber of {t:#x} has {len(members)} > 3 members")


def check_occupancy_work(rows: int, k: int, size: int):
    """Refuse an occupancy_words call on `rows` rows against a k-uniform
    family of `size` members when its split pass, 2^k parts of
    ceil(size / 64) words for each row, would exceed MAX_CHECK_WORK word
    operations."""
    words = -(-size // 64)
    if rows * words << k > MAX_CHECK_WORK:
        raise UsageError(
            f"{rows} members times 2^{k} traces times {words} words exceed the limit of "
            f"{MAX_CHECK_WORK}"
        )


def lone_subsets(fam: UniformFamily) -> list:
    """Per member, in family order, its first (k-1)-subset in preference
    order (without its highest element, then without the next highest, and
    so on) that no other member holds, or None when every one is shared."""
    counts = fam.shadow_count
    picks = []
    for m in fam.masks:
        rest, pick = m, None
        while rest:
            top = 1 << rest.bit_length() - 1
            if counts[m ^ top] == 1:
                pick = m ^ top
                break
            rest ^= top
        picks.append(pick)
    return picks


def build_assignment(fam: UniformFamily, d: int) -> CertificateAssignment:
    """Assign every member its canonical maximum certificate.

    A member with a d-subset that no other member holds takes the first one
    in preference(d + 1) (lone_subsets); the others, the low members, take
    theirs from one occupancy_words pass of their rows against the whole
    family: the first trace in preference(d + 1) that they leave unrealized
    (traces.first_unrealized).
    """
    if fam.k != d + 1:
        raise UsageError(f"family is {fam.k}-uniform, expected {d + 1}-uniform for d={d}")
    if 1 << fam.k > MAX_GEN_CANDIDATES:  # occupancy words hold 2^(d+1) traces each
        raise UsageError(f"2^{fam.k} traces per member exceed the limit of {MAX_GEN_CANDIDATES}")
    masks = fam.masks
    picks = lone_subsets(fam)
    low = [m for m, pick in zip(masks, picks) if pick is None]
    check_occupancy_work(len(low), fam.k, len(fam))
    occ = occupancy_words(low, fam.k, masks)
    if None in occ.certificates:
        raise MemberShattered(low[occ.certificates.index(None)], d)
    certs = iter(occ.certificates)
    assigned = {m: next(certs) if pick is None else pick for m, pick in zip(masks, picks)}
    return CertificateAssignment(fam, d, assigned, occ)


def fiber_bound(d: int) -> int:
    """The proven ceiling (d+1)! * (d+1)^(d+1) on any fiber size."""
    return factorial(d + 1) * (d + 1) ** (d + 1)


def fiber_size_histogram(assign: CertificateAssignment):
    """Histogram of fiber sizes plus the maximum, checked against fiber_bound."""
    hist = Counter(map(len, assign.fibers.values()))
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
    arr = assign.family.mask_array
    others = [m for m in arr[(arr & t) == t].tolist() if m not in fiber]
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
