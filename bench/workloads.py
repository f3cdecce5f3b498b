"""The four benchmark workloads: campaign, check_wide, search and cli.

Each workload makes its inputs from the benchmark seed in setup(), lists one
pass of timed operations in ops(), checks a pass's outputs in check(), and
turns a traced run into per-layer metrics in layer_metrics(). Class
attributes: `seeded` (inputs depend on the seed), `pass_is_one_request` (a
whole pass is timed as one request), `speed_exponent` (README.md,
"Steadiness"), `trace_setup` (the traced run traces setup too) and `provides`
(the per-layer metrics a traced pass yields). Why each workload exists is
written down in README.md next to this file.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from functools import partial

from vcx import cli, constructions, fuzzing
from vcx.certificates import fiber_bound
from vcx.famfile import dump_family
from vcx.fuzzing import fuzz_campaign
from vcx.search import certificate_order_max, exact_max

from tracer import NOT_CALLED

KNOWN_SHAPES = {"TRIANGLE", "CHERRY", "SINGLETON"}
# One benchmark seed shifts every family seed by this much, so seed 0 is
# exactly the acceptance campaign's first seeds of each cell.
SEED_STRIDE = 1000

CHECKER_SPANS = [
    "traces.occupancy_words", "certificates.build_assignment",
    "certificates.CertificateAssignment.validate", "certificates.classify_fiber",
    "fuzzing.check_family", "pipeline.partition_family", "pipeline.build_pair_collection",
    "pipeline.build_g_and_reassign", "pipeline.select_anchor_pair", "pipeline.build_f",
    "pipeline.verify_column_sums", "pipeline.build_injection_g", "pipeline.audit_bound",
]


def _family_record(d, size, shapes, classes, max_fiber, max_column, slack):
    return {"d": d, "size": size, "shapes": dict(shapes), "classes": dict(classes),
            "max_fiber": max_fiber, "max_column": max_column, "slack": slack}


def _family_invariant_ok(rec):
    return (rec["max_fiber"] <= fiber_bound(rec["d"]) and rec["max_column"] <= 2
            and rec["slack"] >= 0 and set(rec["shapes"]) <= KNOWN_SHAPES)


def _aggregate(records):
    """Per-group campaign aggregate: shape and class counts, maxima, minimum slack, sizes."""
    shapes, classes = {}, {}
    for rec in records:
        for kind, cnt in rec["shapes"].items():
            shapes[kind] = shapes.get(kind, 0) + cnt
        for label, cnt in rec["classes"].items():
            classes[label] = classes.get(label, 0) + cnt
    return {
        "families": len(records),
        "shapes": dict(sorted(shapes.items())),
        "classes": dict(sorted(classes.items())),
        "max_fiber": max(r["max_fiber"] for r in records),
        "max_column": max(r["max_column"] for r in records),
        "min_slack": min(r["slack"] for r in records),
        "size_range": [min(r["size"] for r in records), max(r["size"] for r in records)],
    }


def _only(records):
    return records[0]


def check_grouped(results, expected, record_of, summarize=_only):
    """Failed-operation count and per-group summary of one pass.

    results holds (group, value, seconds) triples, value being an exception
    when the operation raised. record_of maps a value to its checked record,
    or None when an invariant breaks. An operation fails on an exception or a
    broken invariant; every operation of a group fails when the group's
    summary differs from `expected` (None skips that comparison).
    """
    bad = set()
    groups = {}
    for i, (group, value, _) in enumerate(results):
        rec = None if isinstance(value, BaseException) else record_of(value)
        if rec is None:
            bad.add(i)
        groups.setdefault(group, []).append((i, rec))
    summary = {}
    for group, items in groups.items():
        recs = [rec for _, rec in items if rec is not None]
        summary[group] = json.loads(json.dumps(summarize(recs))) if recs else None
        if expected is not None and summary[group] != expected.get(group):
            bad.update(i for i, _ in items)
    return len(bad), summary


def _per_family_layers(totals, counts, generated, checked):
    """Generator metrics per generated family, checker metrics per checked family."""
    def calls(name):
        return totals.get(name, NOT_CALLED).calls

    def self_ms(name):
        return totals.get(name, NOT_CALLED).self_ms

    out = {}
    if generated:
        tried = calls("traces.TraceTracker.try_add")
        out["constructions.random_maximal_vc_family.self_ms"] = (
            self_ms("constructions.random_maximal_vc_family") / generated)
        out["constructions.candidates"] = tried / generated
        out["constructions.accept_ratio"] = (
            counts["traces.TraceTracker.try_add.accepted"] / tried if tried else 0.0)
        out["traces.TraceTracker.try_add.calls"] = tried / generated
        out["traces.TraceTracker.try_add.self_ms"] = self_ms("traces.TraceTracker.try_add") / generated
    if checked:
        out["traces.occupancy_words.calls_per_family"] = calls("traces.occupancy_words") / checked
        out["traces.occupancy_words.rows"] = counts["traces.occupancy_words.rows"] / checked
        out["certificates.build_assignment.calls_per_family"] = (
            calls("certificates.build_assignment") / checked)
        out["certificates.classify_fiber.calls"] = calls("certificates.classify_fiber") / checked
        for name in CHECKER_SPANS:
            out[f"{name}.self_ms"] = self_ms(name) / checked
    return out


class Campaign:
    """fuzz_campaign over the acceptance grid, one family per operation."""

    name = "campaign"
    provides = "families"
    trace_setup = False
    pass_is_one_request = False
    speed_exponent = 0.8
    seeded = True
    GRID = [(n, d) for d in (2, 3) for n in range(8, 15)]
    PER_CELL = 32

    def __init__(self, seed, workdir):
        self.seed = seed

    def _seed0(self, i):
        return i * 100_000 + self.seed * SEED_STRIDE

    def setup(self):
        # one family per cell, on the seed just past the timed ones, so lazy
        # set-up inside the program finishes before timing starts
        for i, (n, d) in enumerate(self.GRID):
            fuzz_campaign(n, d, 1, seed0=self._seed0(i) + self.PER_CELL)

    def ops(self):
        return [
            (f"n{n}_d{d}", partial(fuzz_campaign, n, d, 1, seed0=self._seed0(i) + j))
            for j in range(self.PER_CELL)
            for i, (n, d) in enumerate(self.GRID)
        ]

    trace_ops = ops

    @staticmethod
    def _record(summary):
        if summary.failures or summary.passes != 1:
            return None
        rec = _family_record(summary.d, summary.min_size, summary.shapes, summary.classes,
                             summary.max_fiber, summary.max_column, summary.min_slack)
        return rec if _family_invariant_ok(rec) else None

    def check(self, results, expected):
        return check_grouped(results, expected, self._record, _aggregate)

    def layer_metrics(self, totals, counts, passes):
        families = passes * len(self.GRID) * self.PER_CELL
        return _per_family_layers(totals, counts, families, families)


class CheckWide:
    """check_family on wide families that setup generates."""

    name = "check_wide"
    provides = "families"
    trace_setup = True
    pass_is_one_request = False
    speed_exponent = 0.5
    seeded = True
    CONFIGS = [(20, 2), (24, 2), (28, 2), (16, 3), (18, 3)]
    PER_CONFIG = 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.families = []

    def setup(self):
        self.families = []
        for j, (n, d) in enumerate(self.CONFIGS):
            for r in range(self.PER_CONFIG):
                seed = (j + 1) * 1_000_000 + self.seed * SEED_STRIDE + r
                fam = constructions.random_maximal_vc_family(constructions.FuzzSeed(seed, n, d))
                self.families.append((f"n{n}_d{d}", fam, d))

    def ops(self):
        return [(group, partial(self._check, fam, d)) for group, fam, d in self.families]

    @staticmethod
    def _check(fam, d):
        # looked up on the module per call, so a traced pass reaches the wrapper
        return fuzzing.check_family(fam, d)

    trace_ops = ops

    @staticmethod
    def _record(fc):
        rec = _family_record(fc.d, fc.size, fc.shapes, fc.classes, fc.max_fiber,
                             fc.max_column, fc.audit_slack)
        return rec if _family_invariant_ok(rec) else None

    def check(self, results, expected):
        return check_grouped(results, expected, self._record, _aggregate)

    def layer_metrics(self, totals, counts, passes):
        # the tracer saw one traced setup, so generator spans cover each family once
        families = len(self.families)
        return _per_family_layers(totals, counts, families, passes * families)


class Search:
    """Branch and bound: a serial set, then one instance on two worker processes."""

    name = "search"
    provides = "search"
    trace_setup = False
    pass_is_one_request = True
    speed_exponent = 0.5
    seeded = False  # the instances are fixed; only timing varies between seeds
    SERIAL = [
        ("exact_6_2", partial(exact_max, 6, 2)),
        ("order_7_2_0", partial(certificate_order_max, 7, 2, 0)),
        ("order_7_2_1", partial(certificate_order_max, 7, 2, 1)),
        ("order_7_2_2", partial(certificate_order_max, 7, 2, 2)),
    ]
    PARALLEL = ("parallel", partial(certificate_order_max, 7, 2, 1, threads=2))
    PARALLEL_OF = "order_7_2_1"

    def __init__(self, seed, workdir):
        self.last = {}

    def setup(self):
        # small instances of every mode the timed pass uses, the pool included
        exact_max(5, 2)
        for s in range(3):
            certificate_order_max(6, 2, s)
        certificate_order_max(6, 2, 1, threads=2)

    def ops(self):
        return self.SERIAL + [self.PARALLEL]

    trace_ops = ops

    def _record(self, result):
        return {"best": result.best, "optimal": result.optimal} if result.optimal else None

    def check(self, results, expected):
        failed, summary = check_grouped(results, expected, self._record)
        if summary.get("parallel") != summary.get(self.PARALLEL_OF):
            failed += 1
        self.last = {g: v for g, v, _ in results if not isinstance(v, BaseException)}
        return failed, summary

    def layer_metrics(self, totals, counts, passes):
        out = {}
        serial_s = 0.0
        for group, _ in self.SERIAL:
            r = self.last[group]
            out[f"search.{group}.nodes"] = r.nodes
            seconds = totals[f"op.{group}"].total_ms / passes / 1e3
            out[f"search.{group}.nodes_per_s"] = r.nodes / seconds
            serial_s += seconds
        par = self.last["parallel"]
        out["search.parallel.nodes"] = par.nodes
        out["search.parallel.node_ratio"] = par.nodes / self.last[self.PARALLEL_OF].nodes
        out["search.serial.wall_s"] = serial_s
        out["search.parallel.wall_s"] = totals["op.parallel"].total_ms / passes / 1e3
        return out


def _digest_of(cmd, returncode, stdout):
    """The CLI command's result digest, or None when the run did not succeed."""
    if returncode != 0:
        return None
    if cmd == "version":
        return hashlib.sha256(stdout.encode()).hexdigest()[:16]
    payload = json.loads(stdout)
    ok = {
        "certify": lambda p: p["max_fiber"] <= p["fiber_bound"],
        "pipeline": lambda p: all(a["ok"] for a in p["asserted"]),
        "search": lambda p: p["optimal"] and p["best"] == 13,
        "fuzz": lambda p: not p["failures"] and p["passes"] == p["count"],
    }.get(cmd, lambda p: True)(payload)
    return payload["manifest"]["result_digest"] if ok else None


class Cli:
    """Fresh `python -m vcx ... --json` processes, one after another."""

    name = "cli"
    provides = "cli"
    trace_setup = False
    pass_is_one_request = False
    speed_exponent = 0.75
    seeded = True
    IMPORT_RUNS = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = os.path.join(workdir, "cli")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.cwd = os.path.dirname(src)

    def commands(self):
        rel = os.path.relpath(self.dir, self.cwd)
        fam = os.path.join(rel, "input.fam")
        s = str(self.seed)
        return [
            ("version", ["--version"]),
            ("gen", ["gen", "--kind", "random", "--n", "10", "--d", "2", "--seed", s,
                     "--out", os.path.join(rel, "gen.fam"), "--json"]),
            ("vc", ["vc", "--input", fam, "--json"]),
            ("shadow", ["shadow", "--input", fam, "--r", "2", "--complement", "--json"]),
            ("certify", ["certify", "--input", fam, "--d", "2", "--json"]),
            ("sunflower", ["sunflower", "--input", fam, "--p", "3", "--json"]),
            ("pipeline", ["pipeline", "--input", fam, "--d", "2", "--json"]),
            ("search", ["search", "--n", "6", "--d", "2", "--json"]),
            ("fuzz", ["fuzz", "--n", "8", "--d", "2", "--count", "5",
                      "--seed0", str(self.seed * SEED_STRIDE),
                      "--artifacts", os.path.join(rel, "artifacts"), "--json"]),
        ]

    def _spawn(self, argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              cwd=self.cwd, env=self.env, timeout=120)

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        fam = constructions.random_maximal_vc_family(constructions.FuzzSeed(self.seed + 1, 10, 2))
        dump_family(fam, os.path.join(self.dir, "input.fam"))
        self._spawn(["-m", "vcx", "--version"])

    def _run_process(self, cmd, argv):
        proc = self._spawn(["-m", "vcx", *argv])
        return cmd, proc.returncode, proc.stdout

    def _run_inprocess(self, cmd, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --version exits through argparse
                code = exc.code
        return cmd, code, out.getvalue()

    def ops(self):
        return [(cmd, partial(self._run_process, cmd, argv)) for cmd, argv in self.commands()]

    def trace_ops(self):
        # os.chdir is avoided: relative paths resolve against the checkout root
        return [(cmd, partial(self._run_inprocess, cmd, argv)) for cmd, argv in self.commands()]

    def _record(self, value):
        cmd, code, stdout = value
        try:
            digest = _digest_of(cmd, code, stdout)
        except (ValueError, KeyError, TypeError):
            return None
        return digest

    def check(self, results, expected):
        return check_grouped(results, expected, self._record)

    def _import_ms(self):
        """Median cumulative import time of vcx and numpy, from -X importtime."""
        found = {"vcx": [], "numpy": []}
        for _ in range(self.IMPORT_RUNS):
            proc = self._spawn(["-X", "importtime", "-c", "import vcx"])
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2] in found:
                    found[parts[2]].append(int(parts[1]) / 1e3)
        return {"cli.import_ms": statistics.median(found["vcx"]),
                "cli.import_numpy_ms": statistics.median(found["numpy"])}

    def layer_metrics(self, totals, counts, passes):
        """Self ms per pass of in-process cli.main calls, each command's own ms
        (its whole cli.main call), and import times."""
        out = {f"{name}.self_ms": totals.get(name, NOT_CALLED).self_ms / passes for name in (
            "famfile.load_family", "families.vc_dimension",
            "families.complement_shadow", "sunflower.find_sunflower")}
        for cmd, _ in self.commands():
            out[f"cli.{cmd}.command_ms"] = totals[f"op.{cmd}"].total_ms / passes
        out.update(self._import_ms())
        return out

    def process_metrics(self, results, layers):
        """Start-up ms per command: mean process wall time minus the command's own ms."""
        walls = {}
        for group, _, seconds in results:
            walls.setdefault(group, []).append(seconds * 1e3)
        return {f"cli.{cmd}.startup_ms": statistics.fmean(wall) - layers[f"cli.{cmd}.command_ms"]
                for cmd, wall in walls.items()}

WORKLOADS = {w.name: w for w in (Campaign, CheckWide, Search, Cli)}

