"""Command-line surface: generators, family reports, pipeline, search, fuzz.

Each command is cmd_x(args, fam) -> (payload, lines, exit_code), where fam is
the family parsed from --input (None for commands without one). It computes
only its payload, a JSON-ready dict, and the table lines printed without
--json. run_command does the rest for every command: it reads --input, times
the run, and prints either the lines or the payload with its run manifest
(command, input digest, seed, version, wall time, result digest). fuzz
--replay alone bypasses it: it prints one line and writes no manifest.

Exit codes: 0 success, 1 usage error, 2 invariant violation, 3 budget
exhausted before the target was reached, 141 (128 + SIGPIPE, as a shell
reports a process killed by a broken pipe) when the reader closed standard
output early, as `vcx shadow ... | head -1` does; the rest of the output is
dropped without a traceback. All JSON output is deterministic
for fixed inputs and seeds; wall-time and node-count fields are the only
ones allowed to vary between reruns and they are excluded from the result
digest recorded in the manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from math import comb

from . import __version__, _lazy_getattr
from .bitwords import elements_of, elements_text
from .errors import InvariantViolation, MemberShattered, UsageError
from .families import (
    MAX_GEN_CANDIDATES,
    MAX_THREADS,
    UniformFamily,
    complement_shadow,
    frankl_pach_bound,
    sauer_shelah_bound,
    shadow,
    vc_dimension,
)
from .famfile import dump_family, format_family, load_family, read_file
from .sunflower import find_sunflower, sunflower_threshold, validate_sunflower

# Each command imports the modules it runs in its own body, so that it loads
# no others. These entry points stay names of this module, resolved on access,
# for callers that look them up here.
__getattr__ = _lazy_getattr(
    globals(),
    {
        "random_maximal_vc_family": "constructions",
        "build_assignment": "certificates",
        "classify_fiber": "certificates",
        "check_family": "fuzzing",
        "run_pipeline": "pipeline",
    },
)

EXIT_BROKEN_PIPE = 141

# Fields that may legitimately differ between two runs with identical inputs.
VOLATILE_FIELDS = frozenset({"wall_time_ms", "wall_ms", "nodes"})


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit content hash; small, portable, good enough for manifests."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _strip_volatile(value):
    if isinstance(value, dict):
        return {k: _strip_volatile(v) for k, v in value.items() if k not in VOLATILE_FIELDS}
    if isinstance(value, list):
        return [_strip_volatile(v) for v in value]
    return value


def result_digest(payload: dict) -> str:
    canon = json.dumps(_strip_volatile(payload), sort_keys=True, separators=(",", ":"))
    return f"{fnv1a64(canon.encode()):016x}"


class Parser(argparse.ArgumentParser):
    """argparse variant that reports bad arguments via UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _at_least(low: int, kind=int):
    def parse(text: str):
        value = kind(text)
        if not value >= low:  # NaN fails every comparison, so it is refused too
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "integer" if kind is int else "number"  # argparse names the type
    return parse


def _command(subs, name: str, help: str, reads_input: bool = False):
    """A subparser with --json, and with --input when the command reads a family."""
    sub = subs.add_parser(name, help=help)
    if reads_input:
        sub.add_argument("--input", required=True)
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    return sub


def make_parser() -> Parser:
    p = Parser(prog="vcx", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"vcx {__version__}")
    subs = p.add_subparsers(dest="cmd", required=True)

    g = _command(subs, "gen", "write a generated family to a .fam file")
    g.add_argument("--kind", choices=("star", "complete", "random"), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0, help="seed for --kind random")

    _command(subs, "vc", "VC dimension and the classical size bounds", reads_input=True)

    s = _command(subs, "shadow", "r-shadow or its complement within C([n],r)", reads_input=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--complement", action="store_true")

    c = _command(
        subs, "certify", "maximum-certificate assignment and fiber shapes", reads_input=True
    )
    c.add_argument("--d", type=int, required=True)

    f = _command(subs, "sunflower", "find a p-sunflower if one is reachable", reads_input=True)
    f.add_argument("--p", type=int, required=True)

    pl = _command(
        subs, "pipeline", "partition, coefficient map, injection, audit", reads_input=True
    )
    pl.add_argument("--d", type=int, required=True)
    pl.add_argument(
        "--assume-vc",
        action="store_true",
        help="treat a shattered member as an invariant violation, not bad input",
    )

    se = _command(subs, "search", "branch and bound over (d+1)-uniform families")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--d", type=int, required=True)
    se.add_argument("--mode", choices=("exact", "witness", "order-s"), default="exact")
    se.add_argument("--s", type=int, default=None, help="certificate order for order-s mode")
    se.add_argument("--target", type=int, default=None)
    se.add_argument("--max-nodes", type=_at_least(0), default=None)
    se.add_argument("--timeout", type=_at_least(0, float), default=None, help="seconds")
    se.add_argument(
        "--threads",
        type=_at_least(1),
        default=1,
        help=f"worker processes (default 1, at most {MAX_THREADS}); a search with "
        "--max-nodes, or one a short serial probe settles, stays serial; workers "
        "start where the probe stopped",
    )

    fz = _command(subs, "fuzz", "seeded campaign asserting every invariant")
    fz.add_argument("--n", type=int)
    fz.add_argument("--d", type=int)
    fz.add_argument("--count", type=_at_least(0), default=100)
    fz.add_argument("--seed0", type=int, default=0)
    fz.add_argument("--artifacts", default="fuzz-artifacts", help="failure dump directory")
    fz.add_argument("--replay", default=None, help="replay a dumped failure manifest")
    fz.add_argument(
        "--threads",
        type=_at_least(1),
        default=1,
        help=f"worker processes (default 1, at most {MAX_THREADS})",
    )

    return p


def cmd_gen(args, _fam):
    from .constructions import FuzzSeed, complete_family, random_maximal_vc_family, star_family

    if args.kind == "star":
        fam = star_family(args.n, args.d)
    elif args.kind == "complete":
        fam = complete_family(args.n, args.d + 1)
    else:
        fam = random_maximal_vc_family(FuzzSeed(args.seed, args.n, args.d))
    try:
        text = dump_family(fam, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    payload = {
        "kind": args.kind,
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "out": args.out,
        "family_digest": f"{fnv1a64(text.encode()):016x}",
    }
    return payload, [f"wrote {len(fam)} members (n={fam.n}, k={fam.k}) to {args.out}"], 0


def cmd_vc(args, fam):
    vc = vc_dimension(fam)
    payload = {
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "vc": vc,
        "sauer_shelah": sauer_shelah_bound(fam.n, max(vc, 0)),
        "frankl_pach": frankl_pach_bound(fam.n, fam.k - 1),
    }
    lines = [
        f"n={fam.n} k={fam.k} members={len(fam)}",
        f"vc_dimension = {vc}",
        f"sauer_shelah bound at vc: {payload['sauer_shelah']}",
        f"frankl_pach bound C(n, k-1): {payload['frankl_pach']}",
    ]
    return payload, lines, 0


def cmd_shadow(args, fam):
    if not 0 <= args.r < fam.k:
        raise UsageError(f"--r must lie in [0, {fam.k - 1}] for a {fam.k}-uniform family")
    # every level from k-1 down to r is listed, and the complement lists C(n, r)
    sizes = [min(comb(fam.n, j), len(fam) * comb(fam.k, j)) for j in range(args.r, fam.k)]
    if args.complement:
        sizes.append(comb(fam.n, args.r))
    if max(sizes) > MAX_GEN_CANDIDATES:
        raise UsageError(
            f"shadow at r={args.r} could list {max(sizes)} sets, over the limit of "
            f"{MAX_GEN_CANDIDATES}"
        )
    level = fam
    while level.k > args.r + 1:
        level = UniformFamily(fam.n, level.k - 1, shadow(level))
    sh = complement_shadow(level) if args.complement else shadow(level)
    members = [elements_of(m) for m in sh]
    payload = {
        "n": fam.n,
        "r": args.r,
        "complement": args.complement,
        "size": len(members),
        "members": members,
    }
    label = "complement shadow" if args.complement else "shadow"
    lines = [f"{label} at r={args.r}: {len(members)} sets"]
    lines += ["  " + elements_text(m) for m in sh]
    return payload, lines, 0


def cmd_certify(args, fam):
    from .certificates import build_assignment, classify_fiber, fiber_bound, fiber_size_histogram

    assign = build_assignment(fam, args.d)
    hist, biggest = fiber_size_histogram(assign)
    shapes, shape_lines = [], []
    for t in assign.fibers:
        if t.bit_count() != args.d - 1:
            continue
        shape = classify_fiber(t, assign)
        shape_lines.append(f"  fiber of {{{elements_text(t)}}}: {shape.kind}")
        shapes.append(
            {
                "certificate": elements_of(t),
                "kind": shape.kind,
                "elements": list(shape.elements),
                "fiber": [elements_of(m) for m in shape.fiber],
                "side_u": list(shape.side_u),
                "side_v": list(shape.side_v),
                "leaf_pair": shape.leaf_pair,
            }
        )
    payload = {
        "n": fam.n,
        "d": args.d,
        "size": len(fam),
        "certificates": {elements_text(m): elements_of(c) for m, c in assign.assigned.items()},
        "strata": {str(s): len(v) for s, v in assign.strata.items()},
        "fiber_histogram": {str(s): c for s, c in hist.items()},
        "max_fiber": biggest,
        "fiber_bound": fiber_bound(args.d),
        "shapes": shapes,
    }
    lines = [f"certified {len(fam)} members at d={args.d}"]
    lines += [f"  stratum |c|={s}: {len(v)} members" for s, v in assign.strata.items()]
    lines.append(f"  fiber sizes {hist} (max {biggest}, bound {fiber_bound(args.d)})")
    return payload, lines + shape_lines, 0


def cmd_sunflower(args, fam):
    flower = find_sunflower(fam, args.p)
    if flower is not None and not validate_sunflower(flower):
        raise InvariantViolation("found object failed sunflower validation")
    payload = {
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "p": args.p,
        "threshold": sunflower_threshold(fam.k, args.p),
        "found": flower is not None,
        "core": elements_of(flower.core) if flower else None,
        "petals": [elements_of(m) for m in flower.petals] if flower else None,
    }
    if flower is None:
        lines = [
            f"no {args.p}-sunflower found "
            f"(size {len(fam)} <= threshold {payload['threshold']} is allowed to miss)"
        ]
    else:
        lines = [f"{args.p}-sunflower with core {{{elements_text(flower.core)}}}"]
        lines += ["  petal " + elements_text(m) for m in flower.petals]
    return payload, lines, 0


def _audit_payload(report) -> dict:
    from fractions import Fraction

    audit = report.audit
    sizes = {k: v for k, v in asdict(audit).items() if k not in ("asserted", "reported")}
    asserted = [
        {"name": name, "lhs": lhs, "rhs": rhs, "ok": ok}
        for name, lhs, rhs, ok in audit.asserted
    ]
    return {
        "n": report.family.n,
        "d": report.d,
        "anchors": list(report.anchors),
        "sizes": sizes,
        "classes": {elements_text(m): label for m, label in report.classes.items()},
        "index_family": [elements_of(s) for s in report.index_sets],
        "f": {
            elements_text(m): [[idx, units] for idx, units in image]
            for m, image in report.fmap.items()
        },
        "g": {elements_text(m): idx for m, idx in report.gmap.items()},
        "asserted": asserted,
        # the reported ratios are ints and Fractions; a Fraction is {"num", "den"}
        "reported": {
            name: {"num": v.numerator, "den": v.denominator} if isinstance(v, Fraction) else v
            for name, v in audit.reported.items()
        },
    }


def cmd_pipeline(args, fam):
    from .pipeline import run_pipeline

    report = run_pipeline(fam, args.d, assume_vc=args.assume_vc)
    audit = report.audit
    lines = [
        f"partition at d={args.d}: |F1|={audit.f1_size} |F2|={audit.f2_size} "
        f"|F3|={audit.f3_size} of {audit.f_size}",
        f"anchors {report.anchors}, index family size {audit.index_size}",
        f"audit: {audit.f_size} <= {audit.f1_size} + {audit.f2_size} "
        f"+ {audit.binom_n1_d} - {audit.comp_shadow_f3_v} = {audit.f_size + audit.slack}"
        + ("  [tight]" if audit.slack == 0 else ""),
        f"max column sum: {report.max_column} half-units",
    ]
    return _audit_payload(report), lines, 0


def cmd_search(args, _fam):
    from .search import certificate_order_max, exact_max, lower_bound_witness, search_bracket

    if args.target is not None and args.mode != "witness":
        raise UsageError("--target applies to witness mode only")
    if args.s is not None and args.mode != "order-s":
        raise UsageError("--s applies to order-s mode only")
    if args.mode == "order-s":
        if args.s is None:
            raise UsageError("order-s mode requires --s")
        result = certificate_order_max(
            args.n, args.d, args.s, args.max_nodes, args.timeout, args.threads
        )
    elif args.mode == "witness":
        result = lower_bound_witness(
            args.n, args.d, args.target, args.max_nodes, args.timeout, args.threads
        )
    else:
        result = exact_max(args.n, args.d, args.max_nodes, args.timeout, args.threads)
    bracket = search_bracket(args.n, args.d)
    payload = dict(
        asdict(result),
        witness=[elements_of(m) for m in result.witness],
        bracket=list(bracket) if bracket else None,
    )
    reached = result.target is not None and result.best >= result.target
    lines = [
        f"mode={result.mode} best={result.best} optimal={result.optimal} "
        f"nodes={result.nodes}{'' if result.nodes_exact else '~'}",
        f"bracket={bracket}",
    ]
    if result.target is not None:
        lines.append(f"target {result.target}: {'reached' if reached else 'not reached'}")
    settled = reached if result.mode == "witness" else result.optimal
    return payload, lines, 0 if settled else 3


def cmd_fuzz(args, _fam):
    from .fuzzing import fuzz_campaign

    if args.n is None or args.d is None:
        raise UsageError("fuzz requires --n and --d (or --replay)")
    summary = fuzz_campaign(
        args.n, args.d, args.count, args.seed0,
        threads=args.threads, artifact_dir=args.artifacts,
    )
    lines = [
        f"campaign n={summary.n} d={summary.d}: {summary.passes}/{summary.count} passed",
        f"max fiber {summary.max_fiber}, max column {summary.max_column} half-units, "
        f"tightest audit slack {summary.min_slack}",
        f"fiber shapes {summary.shapes}",
    ]
    for seed, msg in summary.failures:
        lines.append(f"FAIL seed {seed}: {msg} (artifacts in {args.artifacts})")
    return asdict(summary), lines, 2 if summary.failures else 0


def _replay(args) -> int:
    """Re-run a dumped fuzz failure and confirm the generation is bit-identical."""
    from .constructions import FuzzSeed, random_maximal_vc_family
    from .fuzzing import check_family

    try:
        manifest = json.loads(read_file(args.replay))
        n, d, seed = (manifest[key] for key in ("n", "d", "seed"))
        if not all(isinstance(v, int) for v in (n, d, seed)):
            raise TypeError("n, d and seed must be integers")
    except (ValueError, KeyError, TypeError) as exc:  # bad JSON, missing key, wrong type
        raise UsageError(f"malformed replay manifest {args.replay}: {exc!r}") from None
    fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
    fam_path = args.replay[:-5] + ".fam" if args.replay.endswith(".json") else None
    if fam_path:
        if format_family(fam) != read_file(fam_path):
            raise InvariantViolation("regenerated family differs from the dumped artifact")
    check_family(fam, d, seed=seed)
    print(f"replay of seed {seed} (n={n}, d={d}): no failure reproduced")
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "vc": cmd_vc,
    "shadow": cmd_shadow,
    "certify": cmd_certify,
    "sunflower": cmd_sunflower,
    "pipeline": cmd_pipeline,
    "search": cmd_search,
    "fuzz": cmd_fuzz,
}


def run_command(args, argv) -> int:
    """Read --input, time the command, print its table lines or its JSON report."""
    t0 = time.monotonic()
    raw = fam = None
    if getattr(args, "input", None) is not None:
        raw = read_file(args.input, binary=True)
        fam = load_family(args.input)
    payload, lines, code = COMMANDS[args.cmd](args, fam)
    if not args.json:
        for line in lines:
            print(line)
        return code
    # the seed the run drew from: fuzz's --seed0 or gen --kind random's --seed
    if args.cmd == "fuzz":
        seed = args.seed0
    else:
        seed = args.seed if args.cmd == "gen" and args.kind == "random" else None
    manifest = {
        "command": " ".join(["vcx", *argv]),
        "input_digest": f"{fnv1a64(raw):016x}" if raw is not None else None,
        "seed": seed,
        "version": __version__,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
        "result_digest": result_digest(payload),
    }
    print(json.dumps(dict(payload, manifest=manifest), sort_keys=True, indent=2))
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "fuzz" and args.replay is not None:
            code = _replay(args)
        else:
            code = run_command(args, argv)
        sys.stdout.flush()  # a closed pipe raises here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # the recipe of the Python docs (signal module, "Note on SIGPIPE"):
        # point stdout at devnull so that the final flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"vcx: usage error: {exc}", file=sys.stderr)
        return 1
    except MemberShattered as exc:
        print(f"vcx: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"vcx: invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
