"""Partition-and-injection pipeline for (d+1)-uniform families of VC <= d.

Given such a family over [n], the pipeline certifies the size bound

    |F| <= |F1| + |F2| + C(n-1, d) - |comp-shadow(F3) within C(V, d)|

by partitioning F into three parts, mapping the third part into an index
family of small subsets of V = [n] minus two anchor elements via a half-unit
coefficient vector map, and upgrading that map to an injection. Every
structural step is asserted; the two density thresholds are only reported.

All family members and index sets are plain bit-word ints here; the report
converts to element tuples at the JSON boundary.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .bitwords import bit, k_subset_masks, mask_of, positions_of
from .certificates import (
    CHERRY,
    SINGLETON,
    TRIANGLE,
    CertificateAssignment,
    build_assignment,
    fiber_shape_elements,
)
from .errors import InvariantViolation, MemberShattered, UsageError
from .families import MAX_GEN_CANDIDATES, UniformFamily
from .traces import compress_trace, expand_index, occupancy_words

H0STAR = "H0STAR"
H11 = "H11"
H12 = "H12"
KD = "KD"
KD1 = "KD1"


@dataclass(frozen=True)
class PairCollection:
    """Greedy-maximal matching of size-(d-1)-certificate members whose
    certificates union to exactly the pairwise intersection."""

    pairs: tuple  # ((F, F'), ...) with F < F', list sorted
    paired: frozenset  # every member covered by some pair


@dataclass
class BoundAudit:
    f_size: int
    f1_size: int
    f2_size: int
    f3_size: int
    index_size: int
    comp_shadow_g: int
    comp_shadow_f3_v: int
    comp_shadow_g_v: int
    binom_n1_d: int
    asserted: list  # (name, lhs, rhs, ok)
    reported: dict

    @property
    def slack(self) -> int:
        """The chain's right side minus |F|: its room, 0 when the bound is tight."""
        return (
            _chain_rhs(self.f1_size, self.f2_size, self.binom_n1_d, self.comp_shadow_f3_v)
            - self.f_size
        )


def _chain_rhs(f1_size: int, f2_size: int, binom_n1_d: int, comp_shadow_f3_v: int) -> int:
    """|F1| + |F2| + C(n-1, d) - |comp-shadow(F3) within V|: the chain's right side."""
    return f1_size + f2_size + binom_n1_d - comp_shadow_f3_v


@dataclass
class PartitionReport:
    family: UniformFamily
    d: int
    assign: CertificateAssignment
    pair_collection: PairCollection
    assign_g: CertificateAssignment
    anchors: tuple
    v_mask: int
    f1: tuple
    f2: tuple
    f3: tuple
    classes: dict  # member mask -> class label
    index_sets: tuple  # the index family S, canonical order
    index_of: dict  # mask -> position in index_sets
    # the later stages' results, put on by run_pipeline
    fmap: dict | None = None  # member mask -> ((index, half-units), ...)
    max_column: int | None = None
    gmap: dict | None = None  # member mask -> index position
    audit: BoundAudit | None = None


def build_pair_collection(assign: CertificateAssignment) -> PairCollection:
    """Scan ordered pairs of the (d-1) stratum and keep both-unused matches
    with c(F) | c(F') == F & F'.

    One pass is maximal: a member left unpaired was unpaired, with every
    later member that is still unpaired, when its own scan found no match.
    """
    d = assign.d
    members = assign.strata.get(d - 1, ())
    cert = assign.assigned
    paired = set()
    pairs = []
    for i, fa in enumerate(members):
        if fa in paired:
            continue
        for fb in members[i + 1 :]:
            if fb in paired:
                continue
            if cert[fa] | cert[fb] == fa & fb:
                inter = fa & fb
                if inter.bit_count() != d:
                    raise InvariantViolation(
                        f"paired members intersect in {inter.bit_count()} != d elements"
                    )
                if (cert[fa] & cert[fb]).bit_count() != d - 2:
                    raise InvariantViolation("paired certificates must share d-2 elements")
                pairs.append((fa, fb))
                paired.add(fa)
                paired.add(fb)
                break
    return PairCollection(tuple(pairs), frozenset(paired))


def build_g_and_reassign(assign: CertificateAssignment, pc: PairCollection):
    """Drop the paired members and the strata below d-1, and recompute maximum
    certificates inside the survivor family G; returns G's assignment.

    A member whose maximum certificate inside the survivors still has size d-1
    keeps its original certificate (that choice is what makes the later
    disjointness argument work); a member that can now do size d takes the
    canonical least size-d certificate.

    When nothing is dropped, G is F itself and its assignment is F's, with
    the occupancy pass, strata and shadow counts already built; a second
    occupancy pass runs only when pairing or the low strata drop members.
    Either way every survivor goes through the checks below.
    """
    fam = assign.family
    d = assign.d
    if not pc.paired and min(assign.strata, default=d) >= d - 1:
        sub, occ = fam, assign.occupancy
    else:
        keep = tuple(
            m for m in fam.masks if assign.assigned[m].bit_count() >= d - 1 and m not in pc.paired
        )
        sub = UniformFamily(fam.n, fam.k, keep)
        occ = occupancy_words(sub.masks, sub.k)
    cg = {}
    for m, cert, word in zip(sub.masks, occ.certificates, occ.words):
        size = None if cert is None else cert.bit_count()
        if size == d:
            cg[m] = cert
            continue
        if size is None or size < d - 1:
            raise InvariantViolation(
                f"member {m:#x} has maximum survivor certificate of size {size}, "
                f"expected at least d-1"
            )
        old = assign.assigned[m]
        if old.bit_count() != d - 1:
            raise InvariantViolation(
                f"member {m:#x} lost its size-{old.bit_count()} certificate in the survivors"
            )
        if word >> compress_trace(old, m) & 1:
            raise InvariantViolation(
                f"original certificate of {m:#x} is realized inside the survivors"
            )
        cg[m] = old
    # with nothing dropped, a canonical assignment reassigns to itself: the
    # same pass picks the size-d certificates and every other member keeps its
    # own, so F's assignment, strata already grouped, serves as G's
    if sub is fam and cg == assign.assigned:
        assign_g = assign
    else:
        assign_g = CertificateAssignment(sub, d, cg, occ)
    _check_certificate_zones(assign_g)
    return assign_g


def _check_certificate_zones(assign_g: CertificateAssignment):
    """Distinct size-(d-1) certificates must claim disjoint zones.

    The zone of (F, c) is the three subsets S with c <= S <= F and |S| in
    {d-1, d}. A clash would contradict maximality of the pair collection.
    """
    d = assign_g.d
    owner = {}
    for m in assign_g.strata.get(d - 1, ()):
        c = assign_g.assigned[m]
        extra = m & ~c
        zone = [c]
        rest = extra
        while rest:
            low = rest & -rest
            zone.append(c | low)
            rest ^= low
        for s in zone:
            prev = owner.get(s)
            if prev is not None and prev != c:
                raise InvariantViolation(
                    f"zone set {s:#x} claimed by distinct certificates {prev:#x} and {c:#x}"
                )
            owner[s] = c


def select_anchor_pair(assign_g: CertificateAssignment) -> tuple:
    """The pair (i, j) minimizing (complement-shadow load, (d-1)-stratum load,
    canonical pair order), loads summed over the two elements.

    The complement-shadow load of e counts the d-sets through e outside G's
    shadow: C(n-1, d-1) minus the shadow sets through e. So the least summed
    complement-shadow load is the greatest summed shadow load.
    """
    n, d = assign_g.family.n, assign_g.d
    if n < 2:
        raise UsageError(f"anchor selection needs n >= 2, got {n}")
    stratum = assign_g.strata.get(d - 1, ())
    # one load per element: the stratum load stays below the weight, so the
    # pair sums order by shadow load first
    weight = 2 * len(stratum) + 1
    load = _element_counts(stratum, n) - _element_counts(assign_g.family.shadow_count, n) * weight
    i, j = _pairs(n)
    best = int((load[i] + load[j]).argmin())  # the first minimum is the canonically least pair
    return int(i[best]) + 1, int(j[best]) + 1


@lru_cache(maxsize=None)
def _pairs(n: int):
    """Every pair i < j of positions 0..n-1, in canonical order."""
    return np.triu_indices(n, 1)


def _element_counts(masks, n: int) -> np.ndarray:
    """count[e - 1] = how many of the masks contain element e, for e in 1..n."""
    arr = np.fromiter(masks, dtype=np.int64, count=len(masks))
    return ((arr[:, None] >> np.arange(n, dtype=np.int64)) & 1).sum(axis=0)


def partition_family(
    fam: UniformFamily, d: int, assume_vc: bool = False, assign: CertificateAssignment | None = None
) -> PartitionReport:
    """Run the pipeline through class assignment and index-family construction.

    For a (d+1)-uniform family, VC <= d is exactly certificate existence for
    every member, so the entry check rides on the assignment build. With
    assume_vc the same failure is reported as an invariant violation instead
    of a usage error. A caller that already holds the canonical assignment of
    fam passes it as assign, and the build is skipped.
    """
    if d < 1:
        raise UsageError(f"pipeline needs d >= 1, got d={d}")
    if fam.n < 2:
        raise UsageError(f"pipeline needs n >= 2, got n={fam.n}")
    if comb(fam.n - 2, d - 1) > MAX_GEN_CANDIDATES:  # the (d-1)-subsets of V, listed below
        raise UsageError(
            f"C({fam.n - 2},{d - 1}) index sets exceed the limit of {MAX_GEN_CANDIDATES}"
        )
    if assign is None:
        try:
            assign = build_assignment(fam, d)
        except MemberShattered as exc:
            if assume_vc:
                raise InvariantViolation(f"certificate existence failed: {exc}") from exc
            raise UsageError(f"family has VC dimension > d: {exc}") from exc
    elif assign.family != fam or assign.d != d:
        raise UsageError("the given assignment belongs to a different family or d")
    pc = build_pair_collection(assign)
    assign_g = build_g_and_reassign(assign, pc)
    i, j = select_anchor_pair(assign_g)
    ij = (1 << (i - 1)) | (1 << (j - 1))
    v_mask = ((1 << fam.n) - 1) & ~ij
    cg = assign_g.assigned

    low_strata = [m for m in fam.masks if assign.assigned[m].bit_count() <= d - 2]
    f1 = sorted(set(low_strata) | pc.paired)

    f2 = []
    classes = {}  # F3 member -> label, in G's ascending order
    for m in assign_g.family.masks:
        c = cg[m]
        size = c.bit_count()
        meet = m & ij
        in_gd1_anchor = size == d - 1 and meet
        in_gij = meet == ij and (c & ~ij).bit_count() <= d - 2
        if in_gd1_anchor or in_gij:
            f2.append(m)
        elif not meet:
            classes[m] = KD if size == d else KD1
        elif size != d:
            raise InvariantViolation(
                f"member {m:#x} meets the anchors with a size-{size} certificate"
            )
        elif c & ij == 0:
            classes[m] = H0STAR
        elif (c & ij).bit_count() > 1:
            raise InvariantViolation(f"member {m:#x} has both anchors inside its certificate")
        elif meet.bit_count() == 1:
            classes[m] = H11
        else:
            classes[m] = H12
    f3 = tuple(classes)

    # three ascending runs, which sorted merges: equal to the family's
    # strictly ascending members exactly when they split it without overlap
    if sorted(f1 + f2 + list(f3)) != list(fam.masks):
        raise InvariantViolation("partition is not exact")

    # the (d-1)-subsets of V, then the d-subsets of V in F3's shadow: F3 is G
    # without F2
    index_sets = list(_v_subsets(v_mask, d - 1))
    f3_shadow = _shadow_count_without(assign_g.family, f2)
    index_sets += [s for s, c in f3_shadow.items() if c and not s & ij]
    index_sets.sort()
    index_of = {s: pos for pos, s in enumerate(index_sets)}

    return PartitionReport(
        family=fam,
        d=d,
        assign=assign,
        pair_collection=pc,
        assign_g=assign_g,
        anchors=(i, j),
        v_mask=v_mask,
        f1=tuple(f1),
        f2=tuple(f2),
        f3=f3,
        classes=classes,
        index_sets=tuple(index_sets),
        index_of=index_of,
    )


def _shadow_count_without(fam: UniformFamily, removed) -> Counter:
    """fam's shadow counts with the members in removed taken out, on a copy:
    fam.shadow_count stays as it is. A set left with count 0 is off the shadow."""
    counts = fam.shadow_count.copy()
    for m in removed:
        rest = m
        while rest:
            low = rest & -rest
            counts[m ^ low] -= 1
            rest ^= low
    return counts


def _v_subsets(v_mask: int, size: int):
    """Subsets of the anchor complement of the given size, canonical order."""
    positions = positions_of(v_mask)
    for sub in k_subset_masks(len(positions), size):
        yield expand_index(sub, positions)


def build_f(report: PartitionReport) -> dict:
    """The coefficient-vector map on F3: member mask -> ((index, half-units), ...).

    Every member gets total mass 2 half-units on one or two index sets; which
    sets depends on its class, and for the (d-1)-certificate members inside V
    on the shape of the certificate's restricted fiber and on how many
    anchor-side members share the certificate's V-part.
    """
    d = report.d
    v = report.v_mask
    cg = report.assign_g.assigned
    idx = report.index_of

    def index(mask: int, context: str) -> int:
        try:
            return idx[mask]
        except KeyError:
            raise InvariantViolation(f"{context}: image {mask:#x} outside the index family") from None

    h11_by_vpart = {}
    kd1_fibers = {}
    fmap = {}
    for m, label in report.classes.items():
        c = cg[m]
        if label in (H0STAR, KD):
            fmap[m] = ((index(c, label), 2),)
        elif label == H12:
            fmap[m] = ((index(m & v, label), 2),)
        elif label == H11:
            h11_by_vpart.setdefault(c & v, []).append(m)
            fmap[m] = (
                (index(m & v, label), 1),
                (index(c & v, label), 1),
            )
        else:
            kd1_fibers.setdefault(c, []).append(m)
    for t, fiber in sorted(kd1_fibers.items()):
        fiber.sort()
        kind, elems = fiber_shape_elements(t, fiber)
        if kind == TRIANGLE:
            x, y, z = elems
            images = {
                t | mask_of((x, y)): t | bit(x),
                t | mask_of((y, z)): t | bit(y),
                t | mask_of((x, z)): t | bit(z),
            }
            for m in fiber:
                fmap[m] = ((index(images[m], "triangle fiber"), 2),)
        elif kind == CHERRY:
            a, b, c = elems
            images = {t | mask_of((a, b)): t | bit(b), t | mask_of((a, c)): t | bit(c)}
            for m in fiber:
                fmap[m] = ((index(images[m], "cherry fiber"), 2),)
        else:
            fmap[fiber[0]] = _singleton_image(
                report, t, fiber[0], elems, h11_by_vpart.get(t, ()), index
            )
    return fmap


def _singleton_image(report, t: int, member: int, elems, hits, index):
    """Image of a lone restricted-fiber member T+{x,y}, steered by the
    anchor-side members whose certificate's V-part is T."""
    x, y = elems
    v = report.v_mask
    if len(hits) > 2:
        raise InvariantViolation(
            f"certificate V-part {t:#x} is shared by {len(hits)} anchor-side members"
        )
    if len(hits) == 0:
        return ((index(t, "singleton fiber, unshared"), 2),)
    if len(hits) == 1:
        a_mask = hits[0] & v & ~t
        if a_mask.bit_count() != 1:
            raise InvariantViolation("anchor-side member must add one element of V beyond T")
        a = a_mask.bit_length()
        if a not in (x, y):
            raise InvariantViolation(
                f"anchor-side element {a} is not one of the fiber pair ({x},{y})"
            )
        b = y if a == x else x
        return (
            (index(t, "singleton fiber, one sharer"), 1),
            (index(t | bit(b), "singleton fiber, one sharer"), 1),
        )
    h1, h2 = sorted(hits)
    inter = h1 & h2
    if t & ~inter:
        raise InvariantViolation("anchor-side sharers must both contain T")
    extra = inter & ~t
    if extra == 0:
        a1 = (h1 & v & ~t).bit_length()
        a2 = (h2 & v & ~t).bit_length()
        if {a1, a2} != {x, y}:
            raise InvariantViolation(
                f"anchor-side elements {{{a1},{a2}}} differ from the fiber pair ({x},{y})"
            )
        return (
            (index(t | bit(x), "singleton fiber, split sharers"), 1),
            (index(t | bit(y), "singleton fiber, split sharers"), 1),
        )
    if extra.bit_count() != 1 or extra & ~v:
        raise InvariantViolation("anchor-side sharers overlap beyond T in more than one V element")
    a = extra.bit_length()
    if a not in (x, y):
        raise InvariantViolation(
            f"shared anchor-side element {a} is not one of the fiber pair ({x},{y})"
        )
    b = y if a == x else x
    return ((index(t | bit(b), "singleton fiber, aligned sharers"), 2),)


def verify_column_sums(report: PartitionReport, fmap: dict) -> int:
    """Column sums of the coefficient vectors, each at most 2 half-units;
    returns the largest sum."""
    sums = {}
    for m in report.f3:
        total = 0
        for pos, half in fmap[m]:
            target = report.index_sets[pos]
            if target & ~m:
                raise InvariantViolation(
                    f"image {target:#x} of member {m:#x} is not a subset of the member"
                )
            sums[pos] = sums.get(pos, 0) + half
            total += half
        if total != 2:
            raise InvariantViolation(f"member {m:#x} carries mass {total}, expected 2 half-units")
    worst = max(sums.values(), default=0)
    if worst > 2:
        raise InvariantViolation(f"column sum {worst} exceeds 2 half-units")
    return worst


def build_injection_g(f3: tuple, fmap: dict) -> dict:
    """Upgrade f to an injection F3 -> index family: member mask -> index position.

    Unit-image members keep their image; the half-half members are matched to
    the pool of indices their supports touch, in canonical order on both
    sides. Column sums <= 2 make the pool big enough and keep it disjoint
    from the unit images. f3 may come in any order; the map is built in
    ascending member order, and every member of f3 needs its own index.
    """
    f3 = sorted(f3)  # linear on the pipeline's ascending F3
    units = [fmap[m][0][0] for m in f3 if len(fmap[m]) == 1]
    u1 = set(units)
    if len(u1) != len(units):
        raise InvariantViolation("two unit-image members share an index")
    pool_usage = Counter(pos for m in f3 if len(fmap[m]) != 1 for pos, _ in fmap[m])
    if not u1.isdisjoint(pool_usage):
        raise InvariantViolation("unit images collide with the half-half index pool")
    for pos, used in pool_usage.items():
        if used > 2:
            raise InvariantViolation(f"index {pos} supports {used} > 2 half-half members")
    if len(f3) - len(units) > len(pool_usage):
        raise InvariantViolation("half-half members outnumber their index pool")
    pool = iter(sorted(pool_usage))
    gmap = {m: fmap[m][0][0] if len(fmap[m]) == 1 else next(pool) for m in f3}
    if len(set(gmap.values())) != len(f3):
        raise InvariantViolation("injection has a collision")
    return gmap


def audit_bound(report: PartitionReport) -> BoundAudit:
    """Assert the exact counting chain; the audit also carries the reported-only ratios."""
    fam = report.family
    n, d = fam.n, report.d
    v = report.v_mask

    g_shadow = report.assign_g.family.shadow_count  # built by select_anchor_pair
    f3_in_v_shadow = sum(1 for s in report.index_sets if s.bit_count() == d)

    comp_shadow_g = comb(n, d) - len(g_shadow)
    comp_shadow_f = comb(n, d) - len(fam.shadow_count)
    comp_shadow_f3_v = comb(n - 2, d) - f3_in_v_shadow
    comp_shadow_g_v = comb(n - 2, d) - sum(1 for s in g_shadow if s & ~v == 0)

    checks = [
        ("f3_le_index_family", len(report.f3), len(report.index_sets)),
        (
            "family_le_f1_f2_chain",
            len(fam),
            _chain_rhs(len(report.f1), len(report.f2), comb(n - 1, d), comp_shadow_f3_v),
        ),
    ]
    asserted = []
    for name, lhs, rhs in checks:
        ok = lhs <= rhs
        asserted.append((name, lhs, rhs, ok))
        if not ok:
            raise InvariantViolation(f"audit check {name} failed: {lhs} > {rhs}")

    reported = {
        "f1_f2_size": len(report.f1) + len(report.f2),
        "comp_shadow_f": comp_shadow_f,
        "tenth_comp_shadow_f": Fraction(comp_shadow_f, 10),
        "pair_member_count": len(report.pair_collection.paired),
        "pair_threshold": Fraction(400 * d * d * n ** max(d - 2, 0), n ** max(2 - d, 0)),
        "corollary_lhs": comp_shadow_f,
        "corollary_rhs": Fraction(10 * (comb(n - 1, d) - len(fam)), 9),
    }
    return BoundAudit(
        f_size=len(fam),
        f1_size=len(report.f1),
        f2_size=len(report.f2),
        f3_size=len(report.f3),
        index_size=len(report.index_sets),
        comp_shadow_g=comp_shadow_g,
        comp_shadow_f3_v=comp_shadow_f3_v,
        comp_shadow_g_v=comp_shadow_g_v,
        binom_n1_d=comb(n - 1, d),
        asserted=asserted,
        reported=reported,
    )


def run_pipeline(
    fam: UniformFamily, d: int, assume_vc: bool = False, assign: CertificateAssignment | None = None
) -> PartitionReport:
    """partition_family + build_f + verify_column_sums + injection + audit,
    each stage's result put on the report."""
    report = partition_family(fam, d, assume_vc=assume_vc, assign=assign)
    report.fmap = build_f(report)
    report.max_column = verify_column_sums(report, report.fmap)
    report.gmap = build_injection_g(report.f3, report.fmap)
    report.audit = audit_bound(report)
    return report
