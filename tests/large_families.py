"""Report seconds and peak RSS of the checks at the paper's scale.

AK(63,3) (37,879 members) and star(63,3) (37,820) go through check_family and
must keep their audit slacks of 60 and 0, as they do in Tier-1
(tests/test_lower_bound.py); the cell `vcx fuzz --n 16 --d 7 --count 1`, a
5,970-member family at k = 8 that Tier-1 leaves out, must exit 0. Each case
runs in a fresh process, so its peak RSS is its own, and prints its size,
slack, seconds and peak RSS. pytest does not collect this file; run it from
the repository root:

    PYTHONPATH=src python tests/large_families.py

It exits 1 when a case fails or misses its slack.
"""

import io
import json
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout

# case -> pinned audit slack
SLACKS = {"AK(63,3)": 60, "star(63,3)": 0, "fuzz(16,7)": None}


def run_case(name):
    """Run one case in this process: (size, slack)."""
    if name == "fuzz(16,7)":
        from vcx import cli

        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["fuzz", "--n", "16", "--d", "7", "--count", "1", "--json"])
        if code != 0:
            raise SystemExit(f"{name}: vcx fuzz exited {code}")
        summary = json.loads(out.getvalue())
        return summary["max_size"], summary["min_slack"]
    from test_lower_bound import ak_family

    from vcx.constructions import star_family
    from vcx.fuzzing import check_family

    fam = ak_family(63, 3) if name == "AK(63,3)" else star_family(63, 3)
    return len(fam), check_family(fam, 3).audit_slack


def main():
    if len(sys.argv) == 2:
        t0 = time.monotonic()
        size, slack = run_case(sys.argv[1])
        seconds = time.monotonic() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"size": size, "slack": slack, "seconds": seconds, "rss_mb": rss_mb}))
        return 0
    failed = 0
    for name, want in SLACKS.items():
        proc = subprocess.run(
            [sys.executable, __file__, name], capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            print(f"{name}: FAILED\n{proc.stderr}")
            failed += 1
            continue
        got = json.loads(proc.stdout.splitlines()[-1])
        ok = want is None or got["slack"] == want
        failed += not ok
        print(
            f"{name}: {got['size']} members, slack {got['slack']}"
            f"{'' if ok else f' (want {want})'}, {got['seconds']:.1f} s, "
            f"{got['rss_mb']:.0f} MB peak RSS"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
