"""Command-line surface: generators, family reports, pipeline, search, fuzz.

Exit codes: 0 success, 1 usage error, 2 invariant violation, 3 budget
exhausted before the target was reached. All JSON output is deterministic
for fixed inputs and seeds; wall-time and node-count fields are the only
ones allowed to vary between reruns and they are excluded from the result
digest recorded in the manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb

from . import __version__
from .bitwords import elements_of, popcount
from .certificates import (
    build_assignment,
    classify_fiber,
    fiber_bound,
    fiber_size_histogram,
)
from .constructions import (
    MAX_GEN_CANDIDATES,
    FuzzSeed,
    complete_family,
    random_maximal_vc_family,
    star_family,
)
from .errors import InvariantViolation, MemberShattered, UsageError
from .families import (
    SubsetWord,
    UniformFamily,
    complement_shadow,
    frankl_pach_bound,
    sauer_shelah_bound,
    shadow,
    vc_dimension,
)
from .famfile import dump_family, format_family, load_family
from .fuzzing import check_family, fuzz_campaign
from .pipeline import run_pipeline
from .search import (
    certificate_order_max,
    exact_max,
    lower_bound_witness,
    search_bracket,
)
from .sunflower import find_sunflower, sunflower_threshold, validate_sunflower

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


@dataclass
class RunManifest:
    command: str
    input_digest: str | None
    seed: int | None
    version: str
    wall_time_ms: int
    result_digest: str


def build_manifest(args, payload, t0, input_bytes=None, seed=None) -> RunManifest:
    digest = f"{fnv1a64(input_bytes):016x}" if input_bytes is not None else None
    return RunManifest(
        command=" ".join(args.argv),
        input_digest=digest,
        seed=seed,
        version=__version__,
        wall_time_ms=int((time.monotonic() - t0) * 1000),
        result_digest=result_digest(payload),
    )


def _member_key(mask: int) -> str:
    return " ".join(str(e) for e in elements_of(mask))


def _encode(value):
    """JSON-safe encoding: Fractions become {"num","den"}, tuples become lists."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def emit_report(payload: dict, manifest: RunManifest, as_json: bool, table_lines=None):
    if as_json:
        payload = dict(payload)
        payload["manifest"] = asdict(manifest)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in table_lines or []:
            print(line)


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


def _json(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def make_parser() -> Parser:
    p = Parser(prog="vcx", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"vcx {__version__}")
    subs = p.add_subparsers(dest="cmd", required=True)

    g = subs.add_parser("gen", help="write a generated family to a .fam file")
    g.add_argument("--kind", choices=("star", "complete", "random"), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0, help="seed for --kind random")
    _json(g)

    v = subs.add_parser("vc", help="VC dimension and the classical size bounds")
    v.add_argument("--input", required=True)
    _json(v)

    s = subs.add_parser("shadow", help="r-shadow or its complement within C([n],r)")
    s.add_argument("--input", required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--complement", action="store_true")
    _json(s)

    c = subs.add_parser("certify", help="maximum-certificate assignment and fiber shapes")
    c.add_argument("--input", required=True)
    c.add_argument("--d", type=int, required=True)
    _json(c)

    f = subs.add_parser("sunflower", help="find a p-sunflower if one is reachable")
    f.add_argument("--input", required=True)
    f.add_argument("--p", type=int, required=True)
    _json(f)

    pl = subs.add_parser("pipeline", help="partition, coefficient map, injection, audit")
    pl.add_argument("--input", required=True)
    pl.add_argument("--d", type=int, required=True)
    pl.add_argument(
        "--assume-vc",
        action="store_true",
        help="treat a shattered member as an invariant violation, not bad input",
    )
    _json(pl)

    se = subs.add_parser("search", help="branch and bound over (d+1)-uniform families")
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
        help="worker processes (default 1); a search with --max-nodes, or one a short "
        "serial probe settles, stays serial; workers start where the probe stopped",
    )
    _json(se)

    fz = subs.add_parser("fuzz", help="seeded campaign asserting every invariant")
    fz.add_argument("--n", type=int)
    fz.add_argument("--d", type=int)
    fz.add_argument("--count", type=_at_least(0), default=100)
    fz.add_argument("--seed0", type=int, default=0)
    fz.add_argument("--artifacts", default="fuzz-artifacts", help="failure dump directory")
    fz.add_argument("--replay", default=None, help="replay a dumped failure manifest")
    fz.add_argument("--threads", type=_at_least(1), default=1, help="worker processes (default 1)")
    _json(fz)

    return p


def cmd_gen(args) -> int:
    t0 = time.monotonic()
    if args.kind == "star":
        fam = star_family(args.n, args.d)
    elif args.kind == "complete":
        fam = complete_family(args.n, args.d + 1)
    else:
        fam = random_maximal_vc_family(FuzzSeed(args.seed, args.n, args.d))
    try:
        dump_family(fam, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    payload = {
        "kind": args.kind,
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "out": args.out,
        "family_digest": f"{fnv1a64(format_family(fam).encode()):016x}",
    }
    seed = args.seed if args.kind == "random" else None
    manifest = build_manifest(args, payload, t0, seed=seed)
    emit_report(
        payload,
        manifest,
        args.json,
        [f"wrote {len(fam)} members (n={fam.n}, k={fam.k}) to {args.out}"],
    )
    return 0


def _read(path: str, mode: str = "r"):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_input(path: str):
    """The input file's bytes (for the manifest) and the family they hold."""
    return _read(path, "rb"), load_family(path)


def cmd_vc(args) -> int:
    t0 = time.monotonic()
    raw, fam = _load_input(args.input)
    vc = vc_dimension(fam)
    payload = {
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "vc": vc,
        "sauer_shelah": sauer_shelah_bound(fam.n, max(vc, 0)),
        "frankl_pach": frankl_pach_bound(fam.n, fam.k - 1),
    }
    manifest = build_manifest(args, payload, t0, input_bytes=raw)
    emit_report(
        payload,
        manifest,
        args.json,
        [
            f"n={fam.n} k={fam.k} members={len(fam)}",
            f"vc_dimension = {vc}",
            f"sauer_shelah bound at vc: {payload['sauer_shelah']}",
            f"frankl_pach bound C(n, k-1): {payload['frankl_pach']}",
        ],
    )
    return 0


def cmd_shadow(args) -> int:
    t0 = time.monotonic()
    raw, fam = _load_input(args.input)
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
        below = (w.bits for w in shadow(level).members)
        level = UniformFamily.from_masks(fam.n, level.k - 1, below)
    sh = complement_shadow(level) if args.complement else shadow(level)
    members = [elements_of(w.bits) for w in sh.members]
    payload = {
        "n": fam.n,
        "r": args.r,
        "complement": args.complement,
        "size": len(members),
        "members": members,
    }
    manifest = build_manifest(args, payload, t0, input_bytes=raw)
    label = "complement shadow" if args.complement else "shadow"
    lines = [f"{label} at r={args.r}: {len(members)} sets"]
    lines += ["  " + " ".join(str(e) for e in m) for m in members]
    emit_report(payload, manifest, args.json, lines)
    return 0


def cmd_certify(args) -> int:
    t0 = time.monotonic()
    raw, fam = _load_input(args.input)
    assign = build_assignment(fam, args.d)
    hist, biggest = fiber_size_histogram(assign)
    shapes = []
    for t in assign.fibers:
        if popcount(t) != args.d - 1:
            continue
        shape = classify_fiber(SubsetWord(t, fam.n), assign)
        shapes.append(
            {
                "certificate": elements_of(t),
                "kind": shape.kind,
                "elements": list(shape.elements),
                "fiber": [elements_of(w.bits) for w in shape.fiber],
                "side_u": list(shape.side_u),
                "side_v": list(shape.side_v),
                "leaf_pair": shape.leaf_pair,
            }
        )
    payload = {
        "n": fam.n,
        "d": args.d,
        "size": len(fam),
        "certificates": {_member_key(m): elements_of(c) for m, c in assign.assigned.items()},
        "strata": {str(s): len(v) for s, v in assign.strata.items()},
        "fiber_histogram": {str(s): c for s, c in hist.items()},
        "max_fiber": biggest,
        "fiber_bound": fiber_bound(args.d),
        "shapes": shapes,
    }
    manifest = build_manifest(args, payload, t0, input_bytes=raw)
    lines = [f"certified {len(fam)} members at d={args.d}"]
    lines += [f"  stratum |c|={s}: {len(v)} members" for s, v in assign.strata.items()]
    lines.append(f"  fiber sizes {hist} (max {biggest}, bound {fiber_bound(args.d)})")
    for sh in shapes:
        lines.append(
            f"  fiber of {{{' '.join(map(str, sh['certificate']))}}}: {sh['kind']}"
        )
    emit_report(payload, manifest, args.json, lines)
    return 0


def cmd_sunflower(args) -> int:
    t0 = time.monotonic()
    raw, fam = _load_input(args.input)
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
        "core": elements_of(flower.core.bits) if flower else None,
        "petals": [elements_of(w.bits) for w in flower.petals] if flower else None,
    }
    manifest = build_manifest(args, payload, t0, input_bytes=raw)
    if flower is None:
        lines = [
            f"no {args.p}-sunflower found "
            f"(size {len(fam)} < threshold {payload['threshold']} is allowed to miss)"
        ]
    else:
        lines = [f"{args.p}-sunflower with core {{{' '.join(map(str, payload['core']))}}}"]
        lines += ["  petal " + " ".join(map(str, pet)) for pet in payload["petals"]]
    emit_report(payload, manifest, args.json, lines)
    return 0


def _audit_payload(report) -> dict:
    audit = report.audit
    sizes = {
        "f_size": audit.f_size,
        "f1_size": audit.f1_size,
        "f2_size": audit.f2_size,
        "f3_size": audit.f3_size,
        "index_size": audit.index_size,
        "comp_shadow_g": audit.comp_shadow_g,
        "comp_shadow_f3_v": audit.comp_shadow_f3_v,
        "comp_shadow_g_v": audit.comp_shadow_g_v,
        "binom_n1_d": audit.binom_n1_d,
    }
    asserted = [
        {"name": name, "lhs": lhs, "rhs": rhs, "ok": ok}
        for name, lhs, rhs, ok in audit.asserted
    ]
    return {
        "n": report.family.n,
        "d": report.d,
        "anchors": list(report.anchors),
        "sizes": sizes,
        "classes": {_member_key(m): label for m, label in report.classes.items()},
        "index_family": [elements_of(s) for s in report.index_sets],
        "f": {
            _member_key(m): [[idx, units] for idx, units in image]
            for m, image in report.fmap.items()
        },
        "g": {_member_key(m): idx for m, idx in report.gmap.items()},
        "asserted": asserted,
        "reported": _encode(audit.reported),
    }


def cmd_pipeline(args) -> int:
    t0 = time.monotonic()
    raw, fam = _load_input(args.input)
    report = run_pipeline(fam, args.d, assume_vc=args.assume_vc)
    payload = _audit_payload(report)
    manifest = build_manifest(args, payload, t0, input_bytes=raw)
    audit = report.audit
    chain = next(c for c in audit.asserted if c[0] == "family_le_f1_f2_chain")
    lines = [
        f"partition at d={args.d}: |F1|={audit.f1_size} |F2|={audit.f2_size} "
        f"|F3|={audit.f3_size} of {audit.f_size}",
        f"anchors {report.anchors}, index family size {audit.index_size}",
        f"audit: {chain[1]} <= {audit.f1_size} + {audit.f2_size} "
        f"+ {audit.binom_n1_d} - {audit.comp_shadow_f3_v} = {chain[2]}"
        + ("  [tight]" if chain[1] == chain[2] else ""),
        f"max column sum: {report.max_column} half-units",
    ]
    emit_report(payload, manifest, args.json, lines)
    return 0


def cmd_search(args) -> int:
    t0 = time.monotonic()
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
    payload = {
        "n": result.n,
        "d": result.d,
        "mode": result.mode,
        "s": result.s,
        "target": result.target,
        "best": result.best,
        "optimal": result.optimal,
        "witness": [elements_of(m) for m in result.witness],
        "nodes": result.nodes,
        "nodes_exact": result.nodes_exact,
        "wall_time_ms": result.wall_time_ms,
        "bracket": list(bracket) if bracket else None,
    }
    manifest = build_manifest(args, payload, t0, seed=None)
    reached = result.target is not None and result.best >= result.target
    lines = [
        f"mode={result.mode} best={result.best} optimal={result.optimal} "
        f"nodes={result.nodes}{'' if result.nodes_exact else '~'}",
        f"bracket={bracket}",
    ]
    if result.target is not None:
        lines.append(f"target {result.target}: {'reached' if reached else 'not reached'}")
    emit_report(payload, manifest, args.json, lines)
    if result.mode == "witness":
        return 0 if reached else 3
    return 0 if result.optimal else 3


def cmd_fuzz(args) -> int:
    t0 = time.monotonic()
    if args.replay is not None:
        return _replay(args)
    if args.n is None or args.d is None:
        raise UsageError("fuzz requires --n and --d (or --replay)")
    summary = fuzz_campaign(
        args.n, args.d, args.count, args.seed0,
        threads=args.threads, artifact_dir=args.artifacts,
    )
    payload = {
        "n": summary.n,
        "d": summary.d,
        "count": summary.count,
        "seed0": summary.seed0,
        "passes": summary.passes,
        "failures": [[seed, msg] for seed, msg in summary.failures],
        "max_fiber": summary.max_fiber,
        "max_column": summary.max_column,
        "min_slack": summary.min_slack,
        "shapes": summary.shapes,
        "classes": summary.classes,
        "min_size": summary.min_size,
        "max_size": summary.max_size,
        "wall_ms": summary.wall_ms,
    }
    manifest = build_manifest(args, payload, t0, seed=args.seed0)
    lines = [
        f"campaign n={summary.n} d={summary.d}: {summary.passes}/{summary.count} passed",
        f"max fiber {summary.max_fiber}, max column {summary.max_column} half-units, "
        f"tightest audit slack {summary.min_slack}",
        f"fiber shapes {summary.shapes}",
    ]
    for seed, msg in summary.failures:
        lines.append(f"FAIL seed {seed}: {msg} (artifacts in {args.artifacts})")
    emit_report(payload, manifest, args.json, lines)
    return 2 if summary.failures else 0


def _replay(args) -> int:
    """Re-run a dumped fuzz failure and confirm the generation is bit-identical."""
    try:
        manifest = json.loads(_read(args.replay))
        n, d, seed = (manifest[key] for key in ("n", "d", "seed"))
        if not all(isinstance(v, int) for v in (n, d, seed)):
            raise TypeError("n, d and seed must be integers")
    except (ValueError, KeyError, TypeError) as exc:  # bad JSON, missing key, wrong type
        raise UsageError(f"malformed replay manifest {args.replay}: {exc!r}") from None
    fam = random_maximal_vc_family(FuzzSeed(seed, n, d))
    fam_path = args.replay[:-5] + ".fam" if args.replay.endswith(".json") else None
    if fam_path:
        if format_family(fam) != _read(fam_path):
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = ["vcx"] + argv
        return COMMANDS[args.cmd](args)
    except UsageError as exc:
        print(f"vcx: usage error: {exc}", file=sys.stderr)
        return 1
    except MemberShattered as exc:
        print(f"vcx: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"vcx: invariant violation: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"vcx: usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
