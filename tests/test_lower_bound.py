"""PAPER.md's lower bound: the Ahlswede-Khachatrian family.

AK(n, d) is a (d+1)-uniform family over [n] of VC dimension at most d and size
C(n-1, d) + C(n-4, d-2), the largest size known. It is built here from its
definition and checked against the oracles, the checker and the search.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from oracles import oracle_vc_le
from vcx.bitwords import elements_of
from vcx.certificates import build_assignment
from vcx.constructions import star_family
from vcx.families import UniformFamily
from vcx.fuzzing import check_family
from vcx.search import lower_bound_witness

SPECIAL = frozenset({1, 2, 3, 4})


@lru_cache(maxsize=4)
def ak_family(n: int, d: int) -> UniformFamily:
    """The (d+1)-sets F whose trace on {1,2,3,4} is {2}, {2,3,4}, or holds
    1 and some other special element."""
    members = []
    for F in combinations(range(1, n + 1), d + 1):
        core = SPECIAL.intersection(F)
        if core in ({2}, {2, 3, 4}) or (1 in core and len(core) >= 2):
            members.append(F)
    return UniformFamily.from_element_lists(n, d + 1, members)


CASES = [
    (8, 2, 1), (12, 2, 1), (20, 2, 1), (10, 3, 7), (14, 3, 11), (40, 3, 37), (63, 3, 60),
    (10, 4, 21),
]


@pytest.mark.parametrize("n, d, slack", CASES, ids=[f"n{n}_d{d}" for n, d, _ in CASES])
def test_ak_family_size_vc_and_audit_slack(n, d, slack):
    fam = ak_family(n, d)
    assert len(fam) == comb(n - 1, d) + comb(n - 4, d - 2)
    if n <= 14:
        lists = [list(elements_of(m)) for m in fam]
        assert oracle_vc_le(n, lists, d)
    assert check_family(fam, d).audit_slack == slack


@pytest.mark.parametrize("n", [40, 63])
def test_star_family_at_the_paper_scale_has_audit_slack_0(n):
    """star(n,3) has C(n-1,3) members, 9,139 at n = 40 and 37,820 at n = 63;
    every member's d-subset without element 1 lies in it alone, so no member
    needs the occupancy pass. The star meets the bound exactly."""
    fam = star_family(n, 3)
    assert len(fam) == comb(n - 1, 3)
    assert check_family(fam, 3).audit_slack == 0


@pytest.mark.parametrize(
    "build, n, rows",
    [(star_family, 40, 0), (ak_family, 40, 775), (ak_family, 63, 1948)],
    ids=["star_n40", "ak_n40", "ak_n63"],
)
def test_occupancy_rows_at_the_paper_scale(build, n, rows):
    """Only the members whose d-subsets all lie in other members go through
    the occupancy pass: none of the star, and a few of AK. AK(63,3)'s 1,948
    rows against its 37,879 members are past numpy's pair cap, so its check
    takes the split pass."""
    assert len(build_assignment(build(n, 3), 3).occupancy.words) == rows


def test_ak_family_is_the_search_witness_at_8_2():
    assert ak_family(8, 2).masks == lower_bound_witness(8, 2).witness
