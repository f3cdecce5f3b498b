from vcx.bitwords import elements_of, k_subset_masks, mask_of
from vcx.constructions import SplitMix64
from vcx.families import UniformFamily
from vcx.sunflower import Sunflower, find_sunflower, sunflower_threshold, validate_sunflower


def fam_of(n, k, *element_lists):
    return UniformFamily.from_element_lists(n, k, element_lists)


def flower_of(core, petals):
    return Sunflower(mask_of(core), tuple(mask_of(p) for p in petals))


def test_disjoint_family_is_its_own_sunflower():
    fam = fam_of(6, 2, [1, 2], [3, 4], [5, 6])
    flower = find_sunflower(fam, 3)
    assert flower is not None and validate_sunflower(flower)
    assert flower.core == 0
    assert {elements_of(p) for p in flower.petals} == {(1, 2), (3, 4), (5, 6)}


def test_common_element_family():
    fam = fam_of(4, 2, [1, 2], [1, 3], [1, 4])
    flower = find_sunflower(fam, 3)
    assert flower is not None and validate_sunflower(flower)
    assert elements_of(flower.core) == (1,)
    assert len(flower.petals) >= 3


def test_threshold_example_k2_p3():
    # K4's six edges plus {5,6} and {5,7}: size 8 = 2! * 2^2, so a
    # 3-sunflower must exist. The greedy-disjoint pass already finds one.
    lists = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [5, 6], [5, 7]]
    fam = UniformFamily.from_element_lists(7, 2, lists)
    assert len(fam) == sunflower_threshold(2, 3)
    flower = find_sunflower(fam, 3)
    assert flower is not None and validate_sunflower(flower)
    assert len(flower.petals) >= 3
    assert all(p in fam for p in flower.petals)


def test_no_sunflower_below_threshold_is_allowed():
    fam = fam_of(3, 2, [1, 2], [1, 3], [2, 3])
    assert find_sunflower(fam, 3) is None


def test_validate_examples():
    assert validate_sunflower(flower_of([], [[1, 2], [3, 4], [5, 6]]))
    assert not validate_sunflower(flower_of([1], [[1, 2], [1, 3], [2, 3]]))
    assert validate_sunflower(flower_of([1], [[1, 2], [1, 3]]))


def test_threshold_values():
    assert sunflower_threshold(2, 3) == 8
    assert sunflower_threshold(3, 3) == 48
    assert sunflower_threshold(3, 4) == 162
    assert sunflower_threshold(1, 5) == 4


def test_threshold_families_always_yield_seeded():
    """Threshold-size families with k in {2,3} always contain a p-sunflower.

    k = 1 is excluded by arithmetic, not convenience: at exactly p-1
    singletons the classical bound is tight and no p-sunflower exists
    (see the tightness test below).
    """
    rng = SplitMix64(2718)
    for trial in range(60):
        k = 2 + rng.below(2)
        p = 3 + rng.below(2)
        need = sunflower_threshold(k, p)
        n = 12 + rng.below(8)
        pool = list(k_subset_masks(n, k))
        while len(pool) < need:
            n += 2
            pool = list(k_subset_masks(n, k))
        rng.shuffle(pool)
        fam = UniformFamily.from_masks(n, k, pool[:need])
        flower = find_sunflower(fam, p)
        assert flower is not None, f"trial {trial}: missed at threshold (k={k}, p={p})"
        assert validate_sunflower(flower), f"trial {trial}"
        assert len(flower.petals) >= p
        assert all(pet in fam for pet in flower.petals)


def test_singleton_threshold_is_tight():
    # 1-uniform families show the classical bound cannot be weakened to >=:
    # p-1 distinct singletons sit at threshold size and max out at p-1 petals.
    fam = fam_of(5, 1, [1], [2], [3])
    assert sunflower_threshold(1, 4) == 3
    assert find_sunflower(fam, 4) is None
    assert find_sunflower(fam, 3) is not None
