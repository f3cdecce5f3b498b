"""vcx benchmark: one command, four workloads, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; vcx is imported from its src/
directory. With --trace 0 the last line of standard output is a JSON object
holding every end-to-end metric named in BENCHMARK.json; with --trace 1 it
holds every per-layer metric instead. `--freeze` rewrites reference.json, the
outputs every run at the reference seed is checked against. README.md in this
directory explains the workloads and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# Untraced process passes behind the cli start-up metrics of a traced run.
PROCESS_PASSES = 2
# Workloads that supply the per-layer metrics a traced workload does not run.
FILL_ORDER = ["campaign", "search", "cli"]
# The machine-speed gauge: a fixed pure-Python kernel timed at least every
# GAUGE_EVERY_S between operations; end-to-end times and rates are corrected
# by its samples against GAUGE_NOMINAL_S (see README.md, "Steadiness").
GAUGE_ITERATIONS = 100_000
GAUGE_EVERY_S = 0.2
GAUGE_NOMINAL_S = 0.020
# Metrics computed from a span other than their own name's prefix.
DERIVED = {"traces.TraceTracker.try_add": ["constructions.candidates", "constructions.accept_ratio"]}


class Gauge:
    """Samples how fast the machine runs a fixed kernel, between operations."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def tick(self, force=False):
        if not force and perf_counter() - self._last < GAUGE_EVERY_S:
            return
        t = perf_counter()
        x, table = 0, {}
        for i in range(GAUGE_ITERATIONS):
            x = (x * 31 + i) & 0xFFFFFFFF
            table[x & 1023] = i
        self._last = perf_counter()
        self.samples.append(self._last - t)

    @staticmethod
    def factor(sample, exponent):
        """What a time measured while the kernel took `sample` seconds is
        multiplied by: the kernel's speed-up over its nominal time, raised to
        the workload's exponent, i.e. how strongly that workload's times
        follow the kernel's on the reference machine (README.md, "Steadiness")."""
        return (GAUGE_NOMINAL_S / sample) ** exponent


def run_pass(ops, gauge, tracer=None):
    """Run one pass of operations; a raising operation yields its exception."""
    results = []
    for group, fn in ops:
        gauge.tick()
        t = perf_counter()
        try:
            if tracer is None:
                value = fn()
            else:
                with tracer.span(f"op.{group}"):
                    value = fn()
        except Exception as exc:  # counted as a failed operation, never fatal
            traceback.print_exc(file=sys.stderr)
            value = exc
        results.append((group, value, perf_counter() - t))
    return results


class Checker:
    """Checks passes against the reference, or against the run's first pass."""

    def __init__(self, workload, seed, reference):
        fixed = seed == REFERENCE_SEED or not workload.seeded
        self.workload = workload
        self.expected = reference.get(workload.name) if fixed else None
        self.attempted = 0
        self.failed = 0

    def __call__(self, results):
        bad, summary = self.workload.check(results, self.expected)
        if self.expected is None:
            self.expected = summary
        self.attempted += len(results)
        self.failed += bad
        return summary


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def measure(workload, seconds, checker, gauge):
    """End-to-end metrics: median set-up, then whole passes for `seconds`.

    Returns the gauge-scaled metrics and the unscaled ones. Each set-up is
    scaled by the gauge samples just before and after it, since set-up is
    too short to see the run's typical speed; the passes by the run's median.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        gauge.tick(force=True)
        t = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t)
    gauge.tick(force=True)
    around = gauge.samples[-SETUP_REPEATS - 1:]
    exponent = workload.speed_exponent
    scaled_setups = [
        s * gauge.factor((before + after) / 2, exponent)
        for s, before, after in zip(setups, around, around[1:])
    ]
    times, latencies = [], []
    passes = 0
    start = perf_counter()
    # two passes at least, so a percentile has two samples even on search
    while passes < 2 or perf_counter() - start < seconds:
        passes += 1
        results = run_pass(workload.ops(), gauge)
        checker(results)
        pass_times = [s for _, _, s in results]
        times += pass_times
        latencies += [sum(pass_times)] if workload.pass_is_one_request else pass_times
    raw = {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    f = gauge.factor(statistics.median(gauge.samples), exponent)
    scaled = dict(raw, ops_per_s=raw["ops_per_s"] / f, op_ms_p50=raw["op_ms_p50"] * f,
                  op_ms_p90=raw["op_ms_p90"] * f, setup_s=statistics.median(scaled_setups))
    return scaled, raw


def traced_slice(workload, seconds, checker, twin, tracer, gauge):
    """Per-layer metrics of one workload from traced passes.

    With `twin`, each traced pass follows an untraced pass of the same
    operations, until `seconds` have passed, and trace.overhead_frac compares
    the two. Without it, one traced pass runs.
    """
    if workload.trace_setup:
        with tracer.installed():
            workload.setup()
    else:
        workload.setup()
    untraced = traced = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or (twin and perf_counter() - start < seconds):
        if twin:
            results = run_pass(workload.trace_ops(), gauge)
            checker(results)
            untraced += sum(s for _, _, s in results)
        with tracer.installed():
            results = run_pass(workload.trace_ops(), gauge, tracer)
        checker(results)
        traced += sum(s for _, _, s in results)
        passes += 1
    metrics = workload.layer_metrics(tracer.totals(), tracer.counts, passes)
    if twin:
        metrics["trace.overhead_frac"] = traced / untraced - 1
    if hasattr(workload, "process_metrics"):
        results = []
        for _ in range(PROCESS_PASSES):
            one = run_pass(workload.ops(), gauge)
            checker(one)
            results += one
        metrics.update(workload.process_metrics(results, metrics))
    return metrics


def trace(name, seed, seconds, reference, workloads, gauge):
    """The named workload's traced metrics, filled up from the workloads that
    own the layers it does not run; every trace is written out at the end."""
    metrics = {}
    tracers = {}
    checkers = []
    for other in [name] + [w for w in FILL_ORDER if w != name]:
        if any(workloads[w].provides == workloads[other].provides for w in tracers):
            continue
        workload = workloads[other](seed, WORKDIR)
        tracers[other] = Tracer()
        checker = Checker(workload, seed, reference)
        checkers.append(checker)
        found = traced_slice(workload, seconds, checker, other == name, tracers[other], gauge)
        for key, value in found.items():
            metrics.setdefault(key, value)
    missing = sorted({m for t in tracers.values() for m in t.missing})
    for span in missing:
        for key in list(metrics):
            if key.startswith(span + ".") or key in DERIVED.get(span, ()):
                del metrics[key]
    for other, tr in tracers.items():
        tr.write(os.path.join(WORKDIR, f"trace-{name}-{other}.tsv"))
    if missing:
        print(f"missing entry points: {' '.join(missing)}")
    return metrics, sum(c.attempted for c in checkers), sum(c.failed for c in checkers)


def freeze(workloads):
    """Record one pass of every workload at the reference seed."""
    reference = {"seed": REFERENCE_SEED}
    for name, cls in workloads.items():
        workload = cls(REFERENCE_SEED, WORKDIR)
        workload.setup()
        checker = Checker(workload, REFERENCE_SEED, {})
        reference[name] = checker(run_pass(workload.ops(), Gauge()))
        if checker.failed:
            sys.exit(f"bench: {name} failed {checker.failed} checks; reference not written")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="campaign")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "vcx", "__init__.py")):
        sys.exit(f"bench: no vcx sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    if args.freeze:
        freeze(WORKLOADS)
        return
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["seed"] != REFERENCE_SEED:
        sys.exit("bench: reference.json was frozen at another seed")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    gauge = Gauge()
    if args.trace:
        wanted = spec["per_layer"]
        metrics, attempted, failed = trace(
            args.workload, args.seed, seconds, reference, WORKLOADS, gauge)
    else:
        wanted = spec["end_to_end"]
        workload = WORKLOADS[args.workload](args.seed, WORKDIR)
        checker = Checker(workload, args.seed, reference)
        metrics, raw = measure(workload, seconds, checker, gauge)
        attempted, failed = checker.attempted, checker.failed
        print(f"raw: {json.dumps(raw)}", file=sys.stderr)
    print(f"gauge: {len(gauge.samples)} samples, median {statistics.median(gauge.samples):.6f} s",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
