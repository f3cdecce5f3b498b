"""In-memory span recorder that wraps vcx entry points where they are looked up.

A span has a name, a start, an end and a parent. Spans live in flat arrays
while the benchmark runs and are written out once at the end. A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

import importlib
from array import array
from collections import Counter, namedtuple
from contextlib import contextmanager
from time import perf_counter_ns

# (span name, places the callable is looked up). "module:attr" patches a
# module global, "module:Class.attr" patches a method on the class. A name is
# reported missing only when none of its places exists any more.
TARGETS = [
    ("constructions.random_maximal_vc_family",
     ["vcx.constructions:random_maximal_vc_family", "vcx.fuzzing:random_maximal_vc_family",
      "vcx.cli:random_maximal_vc_family"]),
    ("traces.TraceTracker.try_add", ["vcx.traces:TraceTracker.try_add"]),
    ("traces.occupancy_words", ["vcx.certificates:occupancy_words", "vcx.pipeline:occupancy_words"]),
    ("certificates.build_assignment",
     ["vcx.fuzzing:build_assignment", "vcx.certificates:build_assignment",
      "vcx.pipeline:build_assignment", "vcx.cli:build_assignment"]),
    ("certificates.CertificateAssignment.validate",
     ["vcx.certificates:CertificateAssignment.validate"]),
    ("certificates.classify_fiber", ["vcx.fuzzing:classify_fiber", "vcx.cli:classify_fiber"]),
    ("fuzzing.check_family", ["vcx.fuzzing:check_family", "vcx.cli:check_family"]),
    ("pipeline.run_pipeline", ["vcx.fuzzing:run_pipeline", "vcx.cli:run_pipeline"]),
    ("pipeline.partition_family", ["vcx.pipeline:partition_family"]),
    ("pipeline.build_pair_collection", ["vcx.pipeline:build_pair_collection"]),
    ("pipeline.build_g_and_reassign", ["vcx.pipeline:build_g_and_reassign"]),
    ("pipeline.select_anchor_pair", ["vcx.pipeline:select_anchor_pair"]),
    ("pipeline.build_f", ["vcx.pipeline:build_f"]),
    ("pipeline.verify_column_sums", ["vcx.pipeline:verify_column_sums"]),
    ("pipeline.build_injection_g", ["vcx.pipeline:build_injection_g"]),
    ("pipeline.audit_bound", ["vcx.pipeline:audit_bound"]),
    ("famfile.load_family", ["vcx.cli:load_family"]),
    ("families.vc_dimension", ["vcx.cli:vc_dimension", "vcx.search:vc_dimension"]),
    ("families.complement_shadow", ["vcx.cli:complement_shadow"]),
    ("sunflower.find_sunflower", ["vcx.cli:find_sunflower"]),
]


Total = namedtuple("Total", "calls self_ms total_ms")
NOT_CALLED = Total(0, 0.0, 0.0)


def _resolve(place):
    """(owner object, attribute name) for a "module:attr" or "module:Class.attr" place."""
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Records spans around wrapped callables and around benchmark operations."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = Counter()
        self.missing = []
        self.unbound = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        counts = self.counts
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if name == "traces.occupancy_words":
                counts["traces.occupancy_words.rows"] += len(args[0])
            elif name == "traces.TraceTracker.try_add" and result:
                counts["traces.TraceTracker.try_add.accepted"] += 1
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every reachable place of every target; remember what is gone."""
        self.missing, self.unbound = [], []
        for name, places in targets:
            bound = 0
            for place in places:
                owner, attr = _resolve(place)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.unbound.append(place)
                    continue
                setattr(owner, attr, self._wrap(name, fn))
                self._undo.append((owner, attr, fn))
                bound += 1
            if not bound:
                self.missing.append(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def totals(self):
        """{name: Total} summed over every recorded span of that name."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            total_ns[nid] += dur[i]
        return {self.names[nid]: Total(calls[nid], self_ns[nid] / 1e6, total_ns[nid] / 1e6)
                for nid in calls}

    def write(self, path):
        """Dump every span as one tab-separated line: id, parent, name, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# missing: {' '.join(self.missing) or '-'}\n")
            fh.write(f"# unbound: {' '.join(self.unbound) or '-'}\n")
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{p}\t{self.names[nid]}\t{s}\t{e}\n")
