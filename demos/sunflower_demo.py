"""Sunflower extraction at the classic threshold.

A sunflower with p petals is a family of p sets whose pairwise intersections
all equal the common core. Any k-uniform family larger than k!(p-1)^k contains
one; the extractor below also finds them in most families of exactly that
size, and the demo shows the one boundary case where size exactly k!(p-1)^k
is not enough.
"""

import argparse

from vcx import (
    SplitMix64,
    UniformFamily,
    find_sunflower,
    sunflower_threshold,
    validate_sunflower,
)
from vcx.bitwords import k_subset_masks, set_text


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=30)
    args = ap.parse_args()

    print("thresholds k!(p-1)^k:")
    for k in (1, 2, 3):
        for p in (3, 4):
            print(f"  k={k} p={p}: {sunflower_threshold(k, p)}")

    # Hand-sized extraction: six edges on [6] must contain a 3-petal sunflower
    # since 6 = 2!(3-1)^2 and the family below has no tighter structure.
    fam = UniformFamily.from_element_lists(
        6, 2, [(1, 2), (3, 4), (5, 6), (1, 3), (2, 4), (1, 5)]
    )
    flower = find_sunflower(fam, 3)
    print(f"\nsix edges on [6]: core {set_text(flower.core)}, petals", end=" ")
    print(" ".join(map(set_text, flower.petals)))
    assert validate_sunflower(flower)

    # The k=1 boundary: p-1 distinct singletons meet the threshold but can
    # never contain p petals, so extraction must report failure there.
    singles = UniformFamily.from_element_lists(9, 1, [(1,), (2,), (3,)])
    print("3 singletons, p=4 (threshold met exactly):", find_sunflower(singles, 4))
    print("3 singletons, p=3:", "found" if find_sunflower(singles, 3) else "none")

    # Random families of exactly threshold size, k >= 2: extraction has
    # succeeded on every draw we have tried; count any misses loudly.
    rng = SplitMix64(args.seed)
    misses = 0
    for _ in range(args.trials):
        k = 2 + rng.below(2)
        p = 3 + rng.below(2)
        need = sunflower_threshold(k, p)
        n = 14
        pool = list(k_subset_masks(n, k))
        rng.shuffle(pool)
        fam = UniformFamily.from_masks(n, k, pool[:need])
        if find_sunflower(fam, p) is None:
            misses += 1
    print(f"\n{args.trials} random threshold-size draws with k in 2..3: {misses} misses")


if __name__ == "__main__":
    main()
