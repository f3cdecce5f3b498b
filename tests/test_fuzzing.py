from dataclasses import asdict

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
