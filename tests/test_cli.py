import concurrent.futures
import importlib
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import vcx
from vcx import cli, fuzzing
from vcx.constructions import FuzzSeed, random_maximal_vc_family
from vcx.errors import InvariantViolation
from vcx.famfile import format_family, load_family
from vcx.families import MAX_THREADS
from vcx.fuzzing import dump_failure_artifact


# the package's own source directory, absolute, so that cwd= may point anywhere
SRC = os.path.dirname(os.path.dirname(os.path.abspath(vcx.__file__)))


def _cli_env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(*args, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "vcx", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_cli_env(),
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


# result digests of every command on one seeded family; a refactor of the CLI
# must leave each of them unchanged
PINNED_DIGESTS = [
    ("gen", ["--kind", "random", "--n", "10", "--d", "2", "--seed", "3", "--out", "f.fam"],
     "4937707bd04532c4"),
    ("vc", ["--input", "f.fam"], "56d79e331334ac17"),
    ("shadow", ["--input", "f.fam", "--r", "2", "--complement"], "2f6d2b486e0c5979"),
    ("certify", ["--input", "f.fam", "--d", "2"], "f021deef1f0aa2b2"),
    ("sunflower", ["--input", "f.fam", "--p", "3"], "51c2425b5fa397b4"),
    ("pipeline", ["--input", "f.fam", "--d", "2"], "c538eea96417d974"),
    ("search", ["--n", "6", "--d", "2"], "a71a7ce83ee9e58d"),
    ("fuzz", ["--n", "8", "--d", "2", "--count", "5"], "404e1c7955b80875"),
]


def test_result_digests_are_pinned(tmp_path):
    # gen's payload holds its --out string, so every command runs in tmp_path
    for cmd, extra, digest in PINNED_DIGESTS:
        payload = run_json(cmd, *extra, cwd=tmp_path)
        assert payload["manifest"]["result_digest"] == digest, cmd


# table-mode stdout of the commands that print sets, on the same family
PINNED_TABLES = [
    (["vc", "--input", "f.fam"],
     "n=10 k=3 members=26\n"
     "vc_dimension = 2\n"
     "sauer_shelah bound at vc: 56\n"
     "frankl_pach bound C(n, k-1): 45\n"),
    (["shadow", "--input", "f.fam", "--r", "2", "--complement"],
     "complement shadow at r=2: 3 sets\n"
     "  2 6\n"
     "  3 6\n"
     "  6 10\n"),
    (["certify", "--input", "f.fam", "--d", "2"],
     "certified 26 members at d=2\n"
     "  stratum |c|=1: 3 members\n"
     "  stratum |c|=2: 23 members\n"
     "  fiber sizes {1: 26} (max 1, bound 162)\n"
     "  fiber of {2}: SINGLETON\n"
     "  fiber of {6}: SINGLETON\n"
     "  fiber of {10}: SINGLETON\n"),
    (["sunflower", "--input", "f.fam", "--p", "3"],
     "3-sunflower with core {}\n"
     "  petal 1 2 3\n"
     "  petal 4 5 6\n"
     "  petal 7 8 9\n"),
    (["pipeline", "--input", "f.fam", "--d", "2"],
     "partition at d=2: |F1|=0 |F2|=2 |F3|=24 of 26\n"
     "anchors (1, 7), index family size 33\n"
     "audit: 26 <= 0 + 2 + 36 - 3 = 35\n"
     "max column sum: 2 half-units\n"),
    (["pipeline", "--input", "star.fam", "--d", "2"],
     "partition at d=2: |F1|=0 |F2|=0 |F3|=6 of 6\n"
     "anchors (1, 2), index family size 6\n"
     "audit: 6 <= 0 + 0 + 6 - 0 = 6  [tight]\n"
     "max column sum: 2 half-units\n"),
    (["shadow", "--input", "f.fam", "--r", "1"],
     "shadow at r=1: 10 sets\n" + "".join(f"  {e}\n" for e in range(1, 11))),
]


def test_table_output_is_pinned(tmp_path):
    gen = PINNED_DIGESTS[0][1]
    assert run_cli("gen", *gen, cwd=tmp_path).returncode == 0
    star = ["--kind", "star", "--n", "5", "--d", "2", "--out", "star.fam"]
    assert run_cli("gen", *star, cwd=tmp_path).returncode == 0
    for argv, text in PINNED_TABLES:
        proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text, argv[0]


@pytest.mark.parametrize("text, p, line", [
    ("3 1\n2\n", "2", "no 2-sunflower found (size 1 <= threshold 1 is allowed to miss)\n"),
    ("3 1\n", "1", "no 1-sunflower found (size 0 <= threshold 0 is allowed to miss)\n"),
], ids=["one-member", "empty"])
def test_sunflower_miss_names_the_threshold_it_is_allowed_under(tmp_path, text, p, line):
    # a miss is allowed only while size <= k!(p-1)^k; the guarantee needs size > threshold
    (tmp_path / "f.fam").write_text(text)
    proc = run_cli("sunflower", "--input", "f.fam", "--p", p, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == line


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


def test_fuzz_d_below_one_is_a_usage_error(tmp_path):
    # refused before the first seed: no family is filed as failing, nothing is written
    proc = run_cli("fuzz", "--n", "5", "--d", "0", "--count", "2", cwd=tmp_path)
    assert_usage_error(proc, "d >= 1")
    assert "FAIL" not in proc.stdout
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "args, word",
    [
        (("--target", "12"), "--target"),
        (("--mode", "order-s", "--s", "1", "--target", "12"), "--target"),
        (("--s", "1"), "--s"),
        (("--mode", "witness", "--s", "1"), "--s"),
    ],
    ids=["target-exact", "target-order-s", "s-exact", "s-witness"],
)
def test_search_flags_of_another_mode_are_refused(args, word):
    proc = run_cli("search", "--n", "6", "--d", "2", *args)
    assert_usage_error(proc, word)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.fixture
def no_process_pool(monkeypatch):
    """A ProcessPoolExecutor that fails the test if anything constructs one."""

    def refuse(*args, **kwargs):
        pytest.fail("a process pool was constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.mark.parametrize(
    "argv",
    [["fuzz", "--n", "8", "--d", "2", "--count", "1"], ["search", "--n", "6", "--d", "2"]],
    ids=["fuzz", "search"],
)
def test_threads_above_the_cap_are_refused_before_any_process(argv, no_process_pool, capsys):
    assert cli.main([*argv, "--threads", str(MAX_THREADS + 1)]) == 1
    assert f"exceed the limit of {MAX_THREADS}" in capsys.readouterr().err


def test_search_at_the_thread_cap_runs(no_process_pool, capsys):
    # (6,2) settles inside the serial probe, so the cap itself starts no pool
    assert cli.main(["search", "--n", "6", "--d", "2", "--threads", str(MAX_THREADS)]) == 0
    assert "best=13 optimal=True" in capsys.readouterr().out


def test_search_cost_guard_refuses_huge_instance():
    # C(63,31) candidates: refused before any enumeration starts
    assert_usage_error(run_cli("search", "--n", "63", "--d", "30"), "candidates")


def test_closed_pipe_exits_quietly(tmp_path):
    """A reader that closes the pipe after one line ends the run with exit
    141 and no traceback; the 27,405 shadow lines overflow the pipe buffer."""
    fam = tmp_path / "big.fam"
    masks = [sum(1 << (e - 1) for e in c)
             for c in itertools.islice(itertools.combinations(range(1, 31), 5), 30_000)]
    fam.write_text(format_family(vcx.UniformFamily.from_masks(30, 5, masks)))
    with subprocess.Popen(  # leaving the block closes both pipes
        [sys.executable, "-m", "vcx", "shadow", "--input", str(fam), "--r", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    ) as proc:
        assert proc.stdout.readline().startswith(b"shadow at r=4: 27405 sets")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in stderr, stderr


def test_import_loads_numpy_but_not_the_process_pool():
    """Only a search or campaign that starts a pool loads multiprocessing;
    the benchmark's import-time metric reads numpy's row of -X importtime."""
    code = "import sys, vcx; print('numpy' in sys.modules, 'multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    assert proc.stdout.split() == ["True", "False"], proc.stderr


_SHARED = "bitwords cli errors famfile families sunflower"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--version"], ""),
        (["gen", "--kind", "random", "--n", "10", "--d", "2", "--out", "gen.fam", "--json"],
         "constructions traces"),
        (["vc", "--input", "input.fam", "--json"], ""),
        (["shadow", "--input", "input.fam", "--r", "2", "--complement", "--json"], ""),
        (["certify", "--input", "input.fam", "--d", "2", "--json"], "certificates traces"),
        (["sunflower", "--input", "input.fam", "--p", "3", "--json"], ""),
        (["pipeline", "--input", "input.fam", "--d", "2", "--json"],
         "certificates pipeline traces"),
        (["search", "--n", "6", "--d", "2", "--json"], "constructions search traces"),
        (["fuzz", "--n", "8", "--d", "2", "--count", "5", "--json"],
         "certificates constructions fuzzing pipeline traces"),
    ],
    ids=["version", "gen", "vc", "shadow", "certify", "sunflower", "pipeline", "search", "fuzz"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    """The benchmark's nine cli commands, each through cli.main in a fresh
    interpreter: every vcx module it leaves in sys.modules, and nothing else."""
    fam = random_maximal_vc_family(FuzzSeed(1, 10, 2))
    (tmp_path / "input.fam").write_text(format_family(fam))
    code = (
        "import contextlib, io, sys\n"
        "from vcx import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = cli.main(sys.argv[1:])\n"
        "    except SystemExit as exc:  # --version exits through argparse\n"
        "        code = exc.code\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('vcx.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=_cli_env(), timeout=60)
    expected = sorted(f"vcx.{m}" for m in f"{_SHARED} {loaded}".split())
    assert proc.stdout.split() == ["0", *expected], proc.stderr


# every public name of the package, by its module, as `import vcx` exported
# them when it imported every module
PUBLIC_NAMES = {
    "certificates": ["CertificateAssignment", "FiberShape", "build_assignment",
                     "classify_fiber", "fiber_bound", "fiber_size_histogram"],
    "constructions": ["FuzzSeed", "SplitMix64", "complete_family",
                      "random_maximal_vc_family", "star_family"],
    "errors": ["InvariantViolation", "MemberShattered", "UsageError", "VcxError"],
    "famfile": ["dump_family", "format_family", "load_family", "parse_family"],
    "fuzzing": ["CampaignSummary", "FamilyCheck", "check_family", "fuzz_campaign"],
    "families": ["UniformFamily", "complement_shadow", "frankl_pach_bound", "is_shattered",
                 "sauer_shelah_bound", "shadow", "shattered_witness", "vc_dimension"],
    "pipeline": ["BoundAudit", "PartitionReport", "audit_bound", "build_f",
                 "build_injection_g", "build_pair_collection", "partition_family",
                 "run_pipeline", "verify_column_sums"],
    "search": ["SearchResult", "certificate_order_max", "exact_max", "lower_bound_witness",
               "search_bracket"],
    "sunflower": ["Sunflower", "find_sunflower", "sunflower_threshold", "validate_sunflower"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_package_namespace_resolves_every_public_name(module):
    """Each name resolves by attribute and by `from vcx import name`, to the
    object its own module defines, and dir(vcx) lists it."""
    own = importlib.import_module(f"vcx.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(vcx, name) is getattr(own, name)
        scope = {}
        exec(f"from vcx import {name}", scope)
        assert scope[name] is getattr(own, name)
        assert name in dir(vcx)


def test_package_all_lists_the_public_names():
    assert sorted(vcx.__all__) == sorted(n for names in PUBLIC_NAMES.values() for n in names)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        vcx.no_such_name


def _refusal_seconds(argv):
    """Seconds cli.main(argv) takes in this process to end in a usage error:
    the guard's own cost, without interpreter start and imports."""
    t0 = time.monotonic()
    assert cli.main(argv) == 1
    return time.monotonic() - t0


@pytest.mark.parametrize(
    "k, r, extra",
    [(32, 31, ["--complement"]), (60, 30, [])],
    ids=["complement-C(63,31)", "level-C(60,30)"],
)
def test_shadow_cost_guard_refuses_huge_listing(tmp_path, k, r, extra):
    # one member of size k over [63]: tiny input, astronomically many r-sets
    fam = tmp_path / "one.fam"
    fam.write_text(f"63 {k}\n" + " ".join(str(e) for e in range(1, k + 1)) + "\n")
    argv = ["shadow", "--input", str(fam), "--r", str(r), *extra]
    assert_usage_error(run_cli(*argv, timeout=10), "limit")
    assert _refusal_seconds(argv) < 1.0


@pytest.mark.parametrize(
    "argv",
    [["fuzz", "--count", "1"], ["gen", "--kind", "random", "--out", "x.fam"]],
    ids=["fuzz", "gen"],
)
def test_random_generation_guard_refuses_2_to_the_d_work(tmp_path, monkeypatch, argv):
    # C(18,12) = 18,564 candidates, each with 2^12 traces: minutes of work
    argv = [*argv, "--n", "18", "--d", "11"]
    proc = run_cli(*argv, cwd=tmp_path, timeout=30)
    assert_usage_error(proc, "2^12 traces", "limit")
    monkeypatch.chdir(tmp_path)
    assert _refusal_seconds(argv) < 5.0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "cmd, k, d, word",
    [("certify", 30, 29, "2^30 traces"), ("pipeline", 10, 9, "C(61,8) index sets")],
    ids=["certify-2^30-traces", "pipeline-C(61,8)-index-sets"],
)
def test_wide_member_cost_guards_refuse_before_listing(tmp_path, cmd, k, d, word):
    # one member of size k over [63]: 2^k occupancy bits, C(61, d-1) index sets
    fam = tmp_path / "one.fam"
    fam.write_text(f"63 {k}\n" + " ".join(str(e) for e in range(1, k + 1)) + "\n")
    argv = [cmd, "--input", str(fam), "--d", str(d)]
    assert_usage_error(run_cli(*argv, timeout=10), word, "limit")
    assert _refusal_seconds(argv) < 1.0


def test_certify_checks_families_past_the_numpy_pair_cap(tmp_path):
    # one member more than numpy's |F| x |F| pass takes: the split pass checks
    # it and finds a shattered member
    fam = tmp_path / "big.fam"
    members = itertools.islice(itertools.combinations(range(1, 32), 3), 4097)
    fam.write_text("31 3\n" + "".join(" ".join(map(str, m)) + "\n" for m in members))
    proc = run_cli("certify", "--input", str(fam), "--d", "2", timeout=30)
    assert proc.returncode == 1
    assert "is shattered" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_certify_refuses_families_over_the_check_work_limit(tmp_path):
    # C(16,10) = 8008 members, each split into 2^10 parts of 126 words
    fam = tmp_path / "complete.fam"
    gen = run_cli("gen", "--kind", "complete", "--n", "16", "--d", "9", "--out", str(fam))
    assert gen.returncode == 0, gen.stderr
    argv = ["certify", "--input", str(fam), "--d", "9"]
    proc = run_cli(*argv, timeout=10)
    assert_usage_error(proc, "8008 members times 2^10 traces", "limit of 536870912")
    assert _refusal_seconds(argv) < 1.0


def test_certify_shattered_member_is_bad_input(tmp_path):
    full = tmp_path / "full.fam"
    run_cli("gen", "--kind", "complete", "--n", "6", "--d", "2", "--out", str(full))
    proc = run_cli("certify", "--input", str(full), "--d", "2")
    assert proc.returncode == 1
    assert "is shattered" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


@pytest.fixture
def failing_checks(monkeypatch):
    """Every check_family call of a fuzz campaign raises InvariantViolation."""

    def broken(fam, d, seed=-1):
        raise InvariantViolation("planted")

    monkeypatch.setattr(fuzzing, "check_family", broken)


def test_fuzz_failure_exits_2_and_dumps_artifacts(tmp_path, failing_checks, capsys):
    dumps = tmp_path / "dumps"
    argv = ["fuzz", "--n", "6", "--d", "2", "--count", "2", "--artifacts", str(dumps), "--json"]
    assert cli.main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] == 0
    assert payload["failures"] == [[0, "InvariantViolation: planted"],
                                   [1, "InvariantViolation: planted"]]
    for seed in (0, 1):
        stem = dumps / f"fail-n6-d2-seed{seed}"
        fam = random_maximal_vc_family(FuzzSeed(seed, 6, 2))
        assert load_family(str(stem.with_suffix(".fam"))) == fam
        assert json.loads(stem.with_suffix(".json").read_text())["seed"] == seed


def test_fuzz_unwritable_artifacts_are_a_usage_error(tmp_path, failing_checks, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = ["fuzz", "--n", "6", "--d", "2", "--count", "1", "--artifacts", str(blocker)]
    assert cli.main(argv) == 1
    assert "usage error: cannot write artifacts" in capsys.readouterr().err


def test_fuzz_limit_a_check_refuses_is_not_a_family_failure(tmp_path):
    # 19-sets over [20] generate fine, but 2^19 traces per member break the
    # certificate limit on every seed: a usage error, with nothing written
    proc = run_cli("fuzz", "--n", "20", "--d", "18", "--count", "2", cwd=tmp_path)
    assert_usage_error(proc, "2^19 traces")
    assert list(tmp_path.iterdir()) == []


def test_k_zero_families_are_usage_errors(tmp_path):
    # the empty member has no line in a .fam file, so k = 0 is refused both ways
    out = tmp_path / "empty.fam"
    proc = run_cli("gen", "--kind", "complete", "--n", "4", "--d", "-1", "--out", str(out))
    assert_usage_error(proc, "k >= 1")
    assert not out.exists()
    out.write_text("4 0\n")
    assert_usage_error(run_cli("vc", "--input", str(out)), "outside 1..4")


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
