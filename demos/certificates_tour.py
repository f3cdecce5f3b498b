"""Tour of certificates: what they are, who gets one, and how fibers look."""

import argparse

from vcx import (
    UniformFamily,
    build_assignment,
    classify_fiber,
    fiber_bound,
    random_maximal_vc_family,
    vc_dimension,
)
from vcx.bitwords import set_text, submasks
from vcx.constructions import FuzzSeed


def tour_by_hand():
    # Four triples over [6]. A certificate for a member F is a proper subset
    # T of F whose trace is realized by no other member: seeing T pins down F.
    n = 6
    fam = UniformFamily.from_element_lists(
        n, 3, [(3, 4, 5), (1, 3, 4), (2, 3, 5), (2, 4, 5)]
    )
    print(f"family over [{n}]:", " ".join(map(set_text, fam)))
    print("vc dimension:", vc_dimension(fam))
    print()
    assign = build_assignment(fam, 2)
    for f in fam:
        realized = {m & f for m in fam}
        certs = [t for t in sorted(submasks(f)) if t != f and t not in realized]
        print(f"member {set_text(f)}")
        print("  certificates:", " ".join(map(set_text, certs)) or "(none)")
        print(f"  assigned (largest, then least as an integer): {set_text(assign.assigned[f])}")
    print()


def tour_random(seed, n, d):
    fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
    assign = build_assignment(fam, d)
    print(f"random maximal family, seed={seed}, n={n}, d={d}: {len(fam)} members")

    sizes = sorted(assign.strata)
    print("strata |c(F)| ->", {s: len(assign.strata[s]) for s in sizes})
    print(f"fiber size cap for d={d}: {fiber_bound(d)}")

    # Fibers over size-(d-1) certificates have one of three shapes.
    shapes = {}
    for t, fiber in sorted(assign.fibers.items()):
        if t.bit_count() != d - 1:
            continue
        shape = classify_fiber(t, assign)
        shapes[shape.kind] = shapes.get(shape.kind, 0) + 1
        if len(fiber) > 1:
            members = " ".join(map(set_text, sorted(fiber)))
            print(f"  fiber over {set_text(t)}: {shape.kind.lower()} on {members}")
    print("size-(d-1) fiber shapes:", shapes or "(none)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--d", type=int, default=2)
    args = ap.parse_args()

    tour_by_hand()
    tour_random(args.seed, args.n, args.d)


if __name__ == "__main__":
    main()
