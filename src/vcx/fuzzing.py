"""Randomized validation drives: build maximal families, then check everything.

check_family is the single-family workhorse. fuzz_campaign runs it over a
seed range and aggregates a summary, dumping replayable artifacts when a
family manages to break an invariant.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from math import comb

from .certificates import build_assignment, check_member_pairs, classify_fiber, fiber_size_histogram
from .constructions import FuzzSeed, check_random_generation, random_maximal_vc_family
from .errors import InvariantViolation, UsageError, VcxError
from .families import UniformFamily, check_threads
from .famfile import format_family
from .pipeline import run_pipeline


@dataclass
class FamilyCheck:
    """Per-family statistics from a fully asserted certificate + pipeline run."""

    seed: int
    n: int
    d: int
    size: int
    strata: dict
    max_fiber: int
    shapes: dict
    classes: dict
    max_column: int
    audit_slack: int


@dataclass
class CampaignSummary:
    n: int
    d: int
    count: int
    seed0: int
    passes: int = 0
    failures: list = field(default_factory=list)  # (seed, message)
    max_fiber: int = 0
    max_column: int = 0
    min_slack: int | None = None
    shapes: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    min_size: int | None = None
    max_size: int = 0
    wall_ms: int = 0


def check_family(fam: UniformFamily, d: int, seed: int = -1) -> FamilyCheck:
    """Assert every structural claim the package makes about one family.

    Covers the certificate assignment (validity, canonical tie-break, fiber
    facts), the shape classification of every size-(d-1) fiber, and the whole
    partition pipeline through the audited counting chain. Any disagreement
    raises InvariantViolation from the failing layer.
    """
    assign = build_assignment(fam, d)
    assign.validate()
    _, biggest = fiber_size_histogram(assign)

    shapes: dict = {}
    for t, members in assign.fibers.items():
        if t.bit_count() != d - 1:
            continue
        shape = classify_fiber(t, assign)
        if shape.reconstructed_fiber() != members:
            raise InvariantViolation(
                f"fiber of {t:#x} does not round-trip through its {shape.kind} shape"
            )
        shapes[shape.kind] = shapes.get(shape.kind, 0) + 1

    report = run_pipeline(fam, d, assign=assign)
    classes: dict = {}
    for label in report.classes.values():
        classes[label] = classes.get(label, 0) + 1

    return FamilyCheck(
        seed=seed,
        n=fam.n,
        d=d,
        size=len(fam),
        strata={s: len(v) for s, v in assign.strata.items()},
        max_fiber=biggest,
        shapes=shapes,
        classes=classes,
        max_column=report.max_column,
        audit_slack=report.audit.slack,
    )


def _run_one(seed: int, n: int, d: int):
    """Generate-and-check one seed; returns (seed, FamilyCheck|None, error|None, fam_text)."""
    fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
    try:
        return seed, check_family(fam, d, seed=seed), None, None
    except UsageError:
        raise  # a limit the arguments break, not a fault of this family
    except (VcxError, AssertionError) as exc:
        return seed, None, f"{type(exc).__name__}: {exc}", format_family(fam)


def _fold(summary: CampaignSummary, outcome, artifact_dir):
    seed, check, error, fam_text = outcome
    if error is not None:
        summary.failures.append((seed, error))
        if artifact_dir is not None:
            dump_failure_artifact(artifact_dir, summary.n, summary.d, seed, error, fam_text)
        return
    summary.passes += 1
    summary.max_fiber = max(summary.max_fiber, check.max_fiber)
    summary.max_column = max(summary.max_column, check.max_column)
    if summary.min_slack is None or check.audit_slack < summary.min_slack:
        summary.min_slack = check.audit_slack
    if summary.min_size is None or check.size < summary.min_size:
        summary.min_size = check.size
    summary.max_size = max(summary.max_size, check.size)
    for kind, cnt in check.shapes.items():
        summary.shapes[kind] = summary.shapes.get(kind, 0) + cnt
    for label, cnt in check.classes.items():
        summary.classes[label] = summary.classes.get(label, 0) + cnt


def dump_failure_artifact(artifact_dir, n, d, seed, error, fam_text):
    """Write the offending family plus a replay manifest next to it."""
    stem = os.path.join(artifact_dir, f"fail-n{n}-d{d}-seed{seed}")
    manifest = {
        "n": n,
        "d": d,
        "seed": seed,
        "error": error,
        "replay": f"vcx fuzz --n {n} --d {d} --count 1 --seed0 {seed}",
    }
    try:
        os.makedirs(artifact_dir, exist_ok=True)
        with open(stem + ".fam", "w") as fh:
            fh.write(fam_text)
        with open(stem + ".json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write artifacts to {artifact_dir}: {exc}") from None
    return stem


def fuzz_campaign(
    n: int,
    d: int,
    count: int,
    seed0: int = 0,
    threads: int = 1,
    artifact_dir=None,
) -> CampaignSummary:
    """Check `count` seeded random maximal families on ground set [n].

    Seeds run seed0..seed0+count-1 and each seed's work is independent, so
    results do not depend on `threads`. Failures are collected rather than
    raised; callers decide whether a nonempty failure list is fatal. A d the
    pipeline cannot check is refused before the first seed, so it is never
    filed as a failure of every family, and so is an (n, d) whose family is
    known to exceed MAX_MEMBER_PAIRS before it is generated; threads above
    MAX_THREADS is refused before any worker starts.
    """
    if d < 1:
        raise UsageError(f"fuzz needs d >= 1, got d={d}")
    check_threads(threads)
    if n < 2 * (d + 1):
        # any two (d+1)-sets meet, so no member realizes the empty trace and
        # every candidate joins the family; the generator's own refusals
        # come first
        check_random_generation(n, d)
        check_member_pairs(comb(n, d + 1))
    t0 = time.monotonic()
    summary = CampaignSummary(n=n, d=d, count=count, seed0=seed0)
    seeds = range(seed0, seed0 + count)
    if threads > 1:
        # imported here, so that a process that never starts a pool never
        # loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = pool.map(_run_one, seeds, [n] * count, [d] * count, chunksize=64)
            for outcome in outcomes:
                _fold(summary, outcome, artifact_dir)
    else:
        for seed in seeds:
            _fold(summary, _run_one(seed, n, d), artifact_dir)
    summary.wall_ms = int((time.monotonic() - t0) * 1000)
    return summary
