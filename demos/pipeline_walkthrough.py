"""Step through the counting pipeline on one family.

The pipeline splits a (d+1)-uniform family of VC dimension at most d into
three parts F1/F2/F3, labels the third part by how members meet an anchor
pair (i,j), spreads two half-units of mass per member over an index family S,
and then injects F3 into S. The audit at the end turns the resulting size
bound into exact integer comparisons for this particular family, ending with

    |F| <= |F1| + |F2| + C(n-1,d) - |complement-shadow(F3) restricted to V|

which chains through Pascal's rule on C(n-1,d). Run with no arguments for the
six-member star over [5], or pass --seed/--n/--d for a random maximal family.
"""

import argparse
from fractions import Fraction

from vcx import random_maximal_vc_family, run_pipeline, star_family
from vcx.bitwords import set_text
from vcx.constructions import FuzzSeed


def walkthrough(fam, d):
    n = fam.n
    report = run_pipeline(fam, d)

    print(f"family: {len(fam)} members, (d+1)={fam.k}-uniform over [{n}]")

    pc = report.pair_collection
    print(f"\npair collection: {len(pc.pairs)} pairs, covering {len(pc.paired)} members")
    for a, b in pc.pairs:
        print(f"  {set_text(a)} with {set_text(b)}")

    i, j = report.anchors
    print(f"\nanchor pair (i,j) = ({i},{j}), V = {set_text(report.v_mask)}")
    print(f"partition sizes: |F1|={len(report.f1)} |F2|={len(report.f2)} |F3|={len(report.f3)}")

    print("\nF3 classes (how c_G and the member meet {i,j}):")
    for m in report.f3:
        print(f"  {set_text(m)}: {report.classes[m]}")

    print(f"\nindex family S ({len(report.index_sets)} sets):")
    print(" ", " ".join(set_text(s) for s in report.index_sets))

    print("\nmass map f (2 half-units per F3 member) and injection g:")
    for m in report.f3:
        image = " + ".join(
            f"{units}/2 at {set_text(report.index_sets[idx])}"
            for idx, units in report.fmap[m]
        )
        gcell = ""
        if m in report.gmap:
            gcell = f"   g -> {set_text(report.index_sets[report.gmap[m]])}"
        print(f"  {set_text(m)}: {image}{gcell}")
    print(f"max column sum: {report.max_column} half-units (cap 2)")

    print("\naudit (each line checked exactly):")
    for name, lhs, rhs, ok in report.audit.asserted:
        print(f"  {name}: {lhs} <= {rhs}  [{'ok' if ok else 'VIOLATED'}]")
    print(f"  slack of the chain: {report.audit.slack}")
    for key, value in sorted(report.audit.reported.items()):
        if isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        print(f"  reported {key}: {value}")


def main():
    ap = argparse.ArgumentParser(description="walk the partition pipeline")
    ap.add_argument("--seed", type=int, default=None, help="random family instead of the star")
    ap.add_argument("--n", type=int, default=9)
    ap.add_argument("--d", type=int, default=2)
    args = ap.parse_args()

    if args.seed is None:
        print("== star family over [5], d=2 (every member holds the anchor pair) ==\n")
        walkthrough(star_family(5, 2), 2)
    else:
        print(f"== random maximal family, seed={args.seed}, n={args.n}, d={args.d} ==\n")
        walkthrough(random_maximal_vc_family(FuzzSeed(args.seed, args.n, args.d)), args.d)


if __name__ == "__main__":
    main()
