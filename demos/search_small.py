import argparse
import time
from math import comb

from vcx import (
    certificate_order_max,
    exact_max,
    lower_bound_witness,
    search_bracket,
    vc_dimension,
)
from vcx import UniformFamily
from vcx.bitwords import set_text

# Exact extremal numbers at desk scale. For each (n,d) the engine enumerates
# (d+1)-uniform families with VC dimension at most d over packed occupancy
# words, pruning with the cuts of the vcx.search docstring, and reports the
# maximum size with a witness.


def fmt(masks):
    return " ".join(map(set_text, masks))


def table(rows):
    print(f"{'n':>3} {'d':>3} {'max':>5} {'C(n-1,d)':>9} {'C(n,d)-1':>9} {'nodes':>9} {'ms':>7}")
    for n, d, r, ms in rows:
        print(
            f"{n:>3} {d:>3} {r.best:>5} {comb(n - 1, d):>9} {comb(n, d) - 1:>9} "
            f"{r.nodes:>9} {ms:>7.0f}"
        )


def main():
    ap = argparse.ArgumentParser(description="exact search on small instances")
    ap.add_argument("--full", action="store_true", help="also run the (7,2) witness search")
    args = ap.parse_args()

    rows = []
    for n, d in [(4, 1), (5, 1), (5, 2), (6, 2), (5, 4)]:
        t0 = time.monotonic()
        r = exact_max(n, d)
        rows.append((n, d, r, (time.monotonic() - t0) * 1000))
    table(rows)
    print("(the C(n,d)-1 cap only applies once n >= 2(d+1); at (5,2) the")
    print(" complete 3-uniform family is VC-safe, so the maximum is C(5,3)=10)")

    n, d = 6, 2
    lo, hi = search_bracket(n, d)
    r = exact_max(n, d)
    print(f"\nbracket at (n,d)=({n},{d}): [{lo},{hi}], exact value {r.best}")
    fam = UniformFamily.from_masks(n, d + 1, r.witness)
    print(f"witness (vc={vc_dimension(fam)}): {fmt(r.witness)}")

    # Order-s probe: force every member to carry a certificate of size
    # exactly s and see whether the maximum drops below C(n-1,d).
    print()
    for s in (0, 2):
        r = certificate_order_max(6, 2, s)
        print(f"all certificates of size {s}: max {r.best} (C(5,2)={comb(5, 2)})")

    if args.full:
        n = 7
        t0 = time.monotonic()
        r = lower_bound_witness(n, 2)
        ms = (time.monotonic() - t0) * 1000
        print(f"\nwitness search at ({n},2), target {r.target}: found size {r.best} in {ms:.0f} ms")
        print(fmt(r.witness))


if __name__ == "__main__":
    main()
