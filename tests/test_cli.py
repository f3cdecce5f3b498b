import json
import subprocess
import sys
import time

import pytest

from vcx.constructions import FuzzSeed, random_maximal_vc_family
from vcx.famfile import format_family, load_family
from vcx.fuzzing import dump_failure_artifact


def run_cli(*args, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "vcx", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )
    return proc


def run_json(*args, cwd=None):
    proc = run_cli(*args, "--json", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def strip_volatile(payload):
    payload = json.loads(json.dumps(payload))
    payload["manifest"].pop("wall_time_ms")
    payload.pop("wall_time_ms", None)
    payload.pop("wall_ms", None)
    return payload


def test_gen_vc_round_trip(tmp_path):
    out = tmp_path / "star.fam"
    proc = run_cli("gen", "--kind", "star", "--n", "5", "--d", "2", "--out", str(out))
    assert proc.returncode == 0
    fam = load_family(str(out))
    assert len(fam) == 6
    # canonical member list survives a write/load cycle byte-identically
    assert format_family(fam) == out.read_text()

    payload = run_json("vc", "--input", str(out))
    assert payload["vc"] == 2
    assert payload["frankl_pach"] == 10
    assert payload["manifest"]["input_digest"] is not None


def test_gen_random_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.fam", tmp_path / "b.fam"
    run_cli("gen", "--kind", "random", "--n", "7", "--d", "2", "--seed", "9", "--out", str(a))
    run_cli("gen", "--kind", "random", "--n", "7", "--d", "2", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_shadow_json(tmp_path):
    out = tmp_path / "star.fam"
    run_cli("gen", "--kind", "star", "--n", "5", "--d", "2", "--out", str(out))
    payload = run_json("shadow", "--input", str(out), "--r", "2", "--complement")
    assert payload["size"] == 0
    payload = run_json("shadow", "--input", str(out), "--r", "2")
    assert payload["size"] == 10


def test_certify_json(tmp_path):
    out = tmp_path / "star.fam"
    run_cli("gen", "--kind", "star", "--n", "5", "--d", "2", "--out", str(out))
    payload = run_json("certify", "--input", str(out), "--d", "2")
    assert payload["certificates"]["1 2 3"] == [2, 3]
    assert payload["strata"] == {"2": 6}
    assert payload["fiber_histogram"] == {"1": 6}
    assert payload["max_fiber"] == 1


def test_pipeline_json_contract(tmp_path):
    out = tmp_path / "star.fam"
    run_cli("gen", "--kind", "star", "--n", "5", "--d", "2", "--out", str(out))
    payload = run_json("pipeline", "--input", str(out), "--d", "2")
    for key in ("anchors", "sizes", "classes", "f", "g", "asserted", "reported"):
        assert key in payload, key
    assert payload["anchors"] == [1, 2]
    assert payload["sizes"]["binom_n1_d"] == 6
    assert all(item["ok"] for item in payload["asserted"])
    assert payload["reported"]["pair_threshold"] == {"num": 1600, "den": 1}


def test_pipeline_reruns_identical(tmp_path):
    out = tmp_path / "f.fam"
    run_cli("gen", "--kind", "random", "--n", "8", "--d", "2", "--seed", "21", "--out", str(out))
    one = run_json("pipeline", "--input", str(out), "--d", "2")
    two = run_json("pipeline", "--input", str(out), "--d", "2")
    assert one["manifest"]["result_digest"] == two["manifest"]["result_digest"]
    assert strip_volatile(one) == strip_volatile(two)


def test_search_json_and_exit_codes(tmp_path):
    payload = run_json("search", "--n", "6", "--d", "2", "--mode", "exact")
    assert payload["best"] == 13 and payload["optimal"]
    assert payload["bracket"] == [11, 14]

    proc = run_cli("search", "--n", "6", "--d", "2", "--max-nodes", "40")
    assert proc.returncode == 3  # budget gone, no optimality proof

    proc = run_cli("search", "--n", "6", "--d", "2", "--mode", "witness", "--target", "40",
                   "--max-nodes", "500")
    assert proc.returncode == 3

    proc = run_cli("search", "--n", "6", "--d", "2", "--mode", "order-s")
    assert proc.returncode == 1  # missing --s


def test_sunflower_json(tmp_path):
    out = tmp_path / "f.fam"
    (out).write_text("6 2\n1 2\n3 4\n5 6\n")
    payload = run_json("sunflower", "--input", str(out), "--p", "3")
    assert payload["found"] and payload["core"] == []
    assert len(payload["petals"]) == 3


def test_fuzz_clean_run_and_replay(tmp_path):
    proc = run_cli(
        "fuzz", "--n", "6", "--d", "2", "--count", "10", "--seed0", "0",
        "--artifacts", str(tmp_path / "dumps"), "--json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passes"] == 10 and payload["failures"] == []
    assert not (tmp_path / "dumps").exists(), "no artifacts expected on a clean run"

    # craft an artifact by hand and replay it; generation must be bit-identical
    fam = random_maximal_vc_family(FuzzSeed(5, 6, 2))
    stem = dump_failure_artifact(
        str(tmp_path / "dumps"), 6, 2, 5, "synthetic", format_family(fam)
    )
    proc = run_cli("fuzz", "--replay", stem + ".json")
    assert proc.returncode == 0
    assert "no failure reproduced" in proc.stdout


def test_usage_and_invariant_exits(tmp_path):
    proc = run_cli("vc", "--input", str(tmp_path / "missing.fam"))
    assert proc.returncode == 1

    bad = tmp_path / "bad.fam"
    bad.write_text("4 3\n1 2 3\n1 2 3\n")
    proc = run_cli("vc", "--input", str(bad))
    assert proc.returncode == 1
    assert "duplicate" in proc.stderr

    full = tmp_path / "full.fam"
    run_cli("gen", "--kind", "complete", "--n", "6", "--d", "2", "--out", str(full))
    proc = run_cli("pipeline", "--input", str(full), "--d", "2")
    assert proc.returncode == 1  # shattered member is bad input by default
    proc = run_cli("pipeline", "--input", str(full), "--d", "2", "--assume-vc")
    assert proc.returncode == 2  # but an invariant violation under --assume-vc


def test_directory_input_is_a_usage_error(tmp_path):
    for cmd, extra in [
        ("vc", []),
        ("shadow", ["--r", "1"]),
        ("certify", ["--d", "2"]),
        ("sunflower", ["--p", "3"]),
        ("pipeline", ["--d", "2"]),
    ]:
        proc = run_cli(cmd, "--input", str(tmp_path), *extra)
        assert proc.returncode == 1, (cmd, proc.stderr)
        assert "usage error" in proc.stderr and "Traceback" not in proc.stderr, cmd


def assert_usage_error(proc, *words):
    assert proc.returncode == 1, proc.stderr
    assert "usage error" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    for word in words:
        assert word in proc.stderr, proc.stderr


def test_gen_out_directory_is_a_usage_error(tmp_path):
    proc = run_cli("gen", "--kind", "star", "--n", "5", "--d", "2", "--out", str(tmp_path))
    assert_usage_error(proc, "cannot write")


def test_replay_directory_is_a_usage_error(tmp_path):
    assert_usage_error(run_cli("fuzz", "--replay", str(tmp_path)), "cannot read")


def test_non_utf8_input_is_a_usage_error(tmp_path):
    bad = tmp_path / "f.fam"
    bad.write_bytes(b"4 3\n1 2 \xff\n")
    assert_usage_error(run_cli("vc", "--input", str(bad)), "cannot read", str(bad))


def test_non_utf8_replay_family_is_a_usage_error(tmp_path):
    stem = dump_failure_artifact(str(tmp_path), 6, 2, 5, "synthetic", "")
    with open(stem + ".fam", "wb") as fh:
        fh.write(b"\xff\n")
    proc = run_cli("fuzz", "--replay", stem + ".json")
    assert_usage_error(proc, "cannot read", stem + ".fam")


@pytest.mark.parametrize(
    "args",
    [
        ("search", "--n", "6", "--d", "2", "--threads", "0"),
        ("fuzz", "--n", "6", "--d", "2", "--count", "-3"),
        ("search", "--n", "6", "--d", "2", "--max-nodes", "-1"),
    ],
    ids=["threads", "count", "max-nodes"],
)
def test_out_of_range_counts_are_rejected_at_parse_time(args):
    assert_usage_error(run_cli(*args), args[-2])


@pytest.mark.parametrize(
    "args",
    [
        ("vc", "--input", "x.fam", "--threads", "2"),
        ("certify", "--input", "x.fam", "--d", "2", "--seed", "3"),
    ],
    ids=["vc-threads", "certify-seed"],
)
def test_flags_a_command_would_ignore_are_refused(args):
    assert_usage_error(run_cli(*args), "unrecognized arguments", args[-2])


def test_search_cost_guard_refuses_huge_instance():
    # C(63,31) candidates: refused before any enumeration starts
    assert_usage_error(run_cli("search", "--n", "63", "--d", "30"), "candidates")


@pytest.mark.parametrize(
    "k, r, extra",
    [(32, 31, ["--complement"]), (60, 30, [])],
    ids=["complement-C(63,31)", "level-C(60,30)"],
)
def test_shadow_cost_guard_refuses_huge_listing(tmp_path, k, r, extra):
    # one member of size k over [63]: tiny input, astronomically many r-sets
    fam = tmp_path / "one.fam"
    fam.write_text(f"63 {k}\n" + " ".join(str(e) for e in range(1, k + 1)) + "\n")
    t0 = time.monotonic()
    proc = run_cli("shadow", "--input", str(fam), "--r", str(r), *extra, timeout=10)
    assert_usage_error(proc, "limit")
    assert time.monotonic() - t0 < 1.0


def test_version_and_help():
    assert run_cli("--version").returncode == 0
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("gen", "vc", "shadow", "certify", "sunflower", "pipeline", "search", "fuzz"):
        assert sub in proc.stdout


@pytest.mark.parametrize(
    "content, word",
    [
        ("not json {", "JSONDecodeError"),
        ('{"n": 6}', "'d'"),
        ('{"n": 6, "d": 2.5, "seed": 1}', "integers"),
    ],
    ids=["not-json", "missing-key", "wrong-type"],
)
def test_malformed_replay_manifest_is_a_usage_error(tmp_path, content, word):
    manifest = tmp_path / "fail.json"
    manifest.write_text(content)
    assert_usage_error(run_cli("fuzz", "--replay", str(manifest)), "malformed replay manifest", word)


@pytest.mark.parametrize("value", ["-1", "nan"], ids=["negative", "nan"])
def test_search_timeout_is_checked_at_parse_time(value):
    assert_usage_error(run_cli("search", "--n", "6", "--d", "2", "--timeout", value), "--timeout")


@pytest.mark.parametrize("kind", ["random", "complete"])
def test_gen_cost_guard_refuses_huge_instance(tmp_path, kind):
    # C(63,31) candidates: refused before any enumeration starts
    out = tmp_path / "huge.fam"
    proc = run_cli("gen", "--kind", kind, "--n", "63", "--d", "30", "--out", str(out))
    assert_usage_error(proc, "candidates")
    assert not out.exists()
