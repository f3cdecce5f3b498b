from dataclasses import asdict

import pytest

from oracles import oracle_vc_le
from vcx import fuzzing
from vcx.bitwords import elements_of
from vcx.constructions import FuzzSeed, random_maximal_vc_family
from vcx.errors import UsageError
from vcx.fuzzing import fuzz_campaign


def without_wall_time(summary):
    fields = asdict(summary)
    fields.pop("wall_ms")
    return fields


def test_campaign_summary_does_not_depend_on_threads():
    serial = fuzz_campaign(8, 2, 40, threads=1)
    pooled = fuzz_campaign(8, 2, 40, threads=2)
    assert serial.passes == 40
    assert without_wall_time(pooled) == without_wall_time(serial)


# (n, d) -> (passes, min slack, max fiber, shapes) of fuzz_campaign(n, d,
# count) at seed0 = 0: 10 seeds per cell at d = 4, 4 at d = 5
WIDE_D_PINNED = {
    (10, 4): (10, 46, 66, {"CHERRY": 12, "SINGLETON": 67, "TRIANGLE": 1}),
    (11, 4): (10, 97, 28, {"CHERRY": 13, "SINGLETON": 165}),
    (12, 4): (10, 136, 10, {"CHERRY": 26, "SINGLETON": 200, "TRIANGLE": 2}),
    (13, 4): (10, 204, 3, {"CHERRY": 12, "SINGLETON": 172, "TRIANGLE": 1}),
    (14, 4): (10, 305, 3, {"CHERRY": 16, "SINGLETON": 129, "TRIANGLE": 2}),
    (12, 5): (4, 221, 265, {"CHERRY": 4, "SINGLETON": 21}),
    (13, 5): (4, 395, 75, {"CHERRY": 21, "SINGLETON": 152}),
    (14, 5): (4, 637, 3, {"CHERRY": 13, "SINGLETON": 124, "TRIANGLE": 1}),
}


def test_campaigns_at_d4_and_d5(monkeypatch):
    """The checker at d = 4 and 5, where the pipeline's d-dependent parts
    (pairs whose certificates share d - 2 elements, the strata below d - 1)
    run: every family passes, the aggregates are pinned, pairing and the low
    strata occur in the grid, and two families are held to the VC oracle."""
    pairs, low_strata = 0, set()
    run_pipeline = fuzzing.run_pipeline

    def spy(fam, d, assign):
        nonlocal pairs
        report = run_pipeline(fam, d, assign=assign)
        pairs += len(report.pair_collection.pairs)
        low_strata.update(s for s in assign.strata if s < d - 1)
        return report

    monkeypatch.setattr(fuzzing, "run_pipeline", spy)
    for (n, d), pinned in WIDE_D_PINNED.items():
        summary = fuzz_campaign(n, d, pinned[0])
        assert summary.failures == []
        got = (summary.passes, summary.min_slack, summary.max_fiber, summary.shapes)
        assert got == pinned, (n, d)
    assert pairs > 0
    assert low_strata == {0, 1, 2, 3}
    for n, d in ((10, 4), (12, 5)):
        fam = random_maximal_vc_family(FuzzSeed(0, n, d))
        assert oracle_vc_le(n, [elements_of(m) for m in fam.masks], d)


def test_check_family_at_high_d():
    """check_family at d = 17, where the occupancy words are 2^18 bits wide:
    the canonicity check in validate must stay linear in 2^k per member, so
    a 19-member family checks in about a second in a few MiB."""
    fam = random_maximal_vc_family(FuzzSeed(0, 19, 17))
    check = fuzzing.check_family(fam, 17, seed=0)
    assert (check.size, check.max_fiber, check.audit_slack) == (19, 3, 17)
    assert check.shapes == {"TRIANGLE": 1, "SINGLETON": 16}


class Generated(Exception):
    pass


def _refuse_to_generate(fseed):
    raise Generated


def test_campaign_refuses_an_uncheckable_family_before_generating(monkeypatch):
    """Below n = 2(d+1) any two (d+1)-sets meet, so the family is all C(n, d+1)
    candidates: at (16,9) that is 8008 members, too much work to check."""
    monkeypatch.setattr(fuzzing, "random_maximal_vc_family", _refuse_to_generate)
    with pytest.raises(UsageError, match=r"8008 members times 2\^10 traces .* limit of 536870912"):
        fuzz_campaign(16, 9, 1)


@pytest.mark.parametrize("n, d", [(16, 5), (7, 3)])
def test_campaign_generates_every_checkable_cell(monkeypatch, n, d):
    """(16,5) has C(16,6) = 8008 candidates but n >= 2(d+1), so its family is
    smaller and checks fine; (7,3) has 35 candidates: neither is refused."""
    monkeypatch.setattr(fuzzing, "random_maximal_vc_family", _refuse_to_generate)
    with pytest.raises(Generated):
        fuzz_campaign(n, d, 1)
