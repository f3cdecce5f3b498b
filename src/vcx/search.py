"""Exact maximization of VC-bounded (and certificate-constrained) families.

Depth-first branch and bound over all (d+1)-subsets of [n] in canonical
order, include-branch first. A partial family carries per-member occupancy
words; a member whose required trace layer fills up is dead. The first chosen
member is forced to be the canonical least candidate: any nonempty family is
isomorphic to one containing it, and the reported value is
isomorphism-invariant.

Forward checking: each node branches over a live list, the later candidates
that can join the family right now, each with its occupancy word against the
current family. Adding members only adds traces, so a candidate that would kill
someone at a node does so in every descendant and is dropped for good. The
bound is therefore size + len(live), capped at C(n,d). Dropping dead
candidates and pruning on that bound cut only subtrees that cannot beat the
incumbent, so results and witnesses match a plain index walk; only node counts
shrink.

Three modes share the engine and differ only in the required trace layer:
  exact    every member needs some proper subset unrealized (VC <= d)
  witness  exact's predicate, but stop as soon as `target` is reached
  order-s  every member needs an unrealized proper subset of size exactly s
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

from .bitwords import k_subset_masks
from .constructions import star_family
from .errors import InvariantViolation, UsageError
from .families import UniformFamily, vc_dimension
from .traces import (
    compress_trace,
    full_trace_bit,
    occupancy_words,
    positions_of,
    proper_trace_mask,
    size_layer_mask,
)

MODE_EXACT = "exact"
MODE_WITNESS = "witness"
MODE_ORDER = "order"

_TIME_CHECK_STRIDE = 4096

# Cost guard, checked before any enumeration. The engine lists all C(n,d+1)
# candidates with two 2^(d+1)-entry trace tables each, and its DFS recurses
# once per candidate decision, so the candidate count must stay below Python's
# default recursion limit (1000). The largest instance the tests, demos and
# benchmark run, (8,2), has 56 candidates and 448 trace entries.
MAX_CANDIDATES = 500
MAX_TRACE_ENTRIES = 1 << 16


@dataclass
class SearchResult:
    n: int
    d: int
    mode: str
    s: int | None
    target: int | None
    best: int
    witness: tuple  # member masks, canonical order
    optimal: bool
    nodes: int
    nodes_exact: bool
    wall_time_ms: int


def search_bracket(n: int, d: int) -> tuple | None:
    """[C(n-1,d) + C(n-4,d-2), C(n,d) - 1], defined for d >= 2, n >= 2(d+1)."""
    if d < 2 or n < 2 * (d + 1):
        return None
    return comb(n - 1, d) + comb(n - 4, d - 2), comb(n, d) - 1


class _Budget(Exception):
    pass


class _Engine:
    """One sequential branch-and-bound run. Subtree tasks re-enter via resume()."""

    def __init__(self, n: int, d: int, required_mask: int, max_nodes=None, deadline=None):
        self.n = n
        self.d = d
        self.k = d + 1
        self.cands = list(k_subset_masks(n, d + 1))
        self.req = required_mask
        self.full_bit = full_trace_bit(self.k)
        # lut[i][t] = occupancy bit contributed by trace t on candidate i;
        # trace_of[i] inverts it
        self.luts = []
        for c in self.cands:
            pos = positions_of(c)
            lut = {}
            sub = 0
            while True:
                lut[sub] = 1 << compress_trace(sub, pos)
                if sub == c:
                    break
                sub = (sub - c) & c
            self.luts.append(lut)
        self.trace_of = [{bit: sub for sub, bit in lut.items()} for lut in self.luts]
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.fp_cap = comb(n, d)
        self.nodes = 0
        self.best = 0
        self.witness = ()
        self.stop_at = None
        self.stopped = False
        self.exhausted = True

    def run(self, seed_best: int, seed_witness, stop_at=None):
        if stop_at is not None and seed_best >= stop_at:
            self.best, self.witness = seed_best, tuple(seed_witness)
            self.stopped = True
            self.exhausted = False
            return
        if self.full_bit & self.req == self.req:
            raise InvariantViolation("a single member family cannot be infeasible")
        self.resume(1, [0], seed_best, stop_at, seed_witness)

    def resume(self, start_index: int, member_indices, seed_best: int, stop_at=None,
               seed_witness=()):
        """Run the subtree that has already fixed decisions below start_index."""
        self.best = seed_best
        self.witness = tuple(seed_witness)
        self.stop_at = stop_at
        members = list(member_indices)
        occs = [self._word(mi, members) for mi in members]
        try:
            self._dfs(members, occs, self._live(start_index, members, occs))
        except _Budget:
            self.exhausted = False
        if self.stopped:
            self.exhausted = False

    def _word(self, j, members):
        """Occupancy word of candidate j against the members, self-trace included."""
        H = self.cands[j]
        lut = self.luts[j]
        word = self.full_bit
        for mi in members:
            word |= lut[self.cands[mi] & H]
        return word

    def _live(self, start, members, occs):
        """(index, word) for every candidate from start on that can join the family now."""
        req = self.req
        live = []
        for j in range(start, len(self.cands)):
            word = self._word(j, members)
            if word & req == req:
                continue
            H = self.cands[j]
            if any(
                (occ | self.luts[mi][H & self.cands[mi]]) & req == req
                for mi, occ in zip(members, occs)
            ):
                continue
            live.append((j, word))
        return live

    def collect_frontier(self, depth: int):
        """All feasible (start, members) states with decisions fixed for the
        first `depth` candidates, in DFS discovery order. Root stays forced."""
        frontier = []

        def walk(members, occs, live):
            if not live or live[0][0] >= depth:
                frontier.append((depth, tuple(members)))
                return
            new_occs, tail = self._include(members, occs, live)
            walk(members + [live[0][0]], new_occs, tail)
            walk(members, occs, live[1:])

        walk([0], [self.full_bit], self._live(1, [0], [self.full_bit]))
        return frontier

    def _include(self, members, occs, live):
        """The members' words after adding the live head, and the rest of the
        live list filtered to the candidates that can still join.

        The head is live, so it kills no one. A member whose required traces
        are now all realized but one is critical: any later candidate whose
        trace on it is that last one would kill it. Members critical before
        this step had their killers dropped when they became critical, since
        traces only accumulate."""
        i, word = live[0]
        G = self.cands[i]
        req = self.req
        cands, luts, trace_of = self.cands, self.luts, self.trace_of
        new_occs = []
        last = []  # (member mask, its last unrealized required trace) for new criticals
        for mi, occ in zip(members, occs):
            F = cands[mi]
            occ2 = occ | luts[mi][G & F]
            new_occs.append(occ2)
            rem = req & ~occ2
            if rem & (rem - 1) == 0 and rem != req & ~occ:
                last.append((F, trace_of[mi][rem]))
        new_occs.append(word)
        rem = req & ~word
        if rem & (rem - 1) == 0:
            last.append((G, trace_of[i][rem]))
        tail = []
        for j, w in live[1:]:
            H = cands[j]
            w |= luts[j][G & H]
            if w & req == req:
                continue
            for F, T in last:
                if H & F == T:
                    break
            else:
                tail.append((j, w))
        return new_occs, tail

    def _dfs(self, members, occs, live):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Budget
        if self.deadline is not None and self.nodes % _TIME_CHECK_STRIDE == 0:
            if time.monotonic() > self.deadline:
                raise _Budget
        if self.stopped:
            return
        size = len(members)
        bound = size + len(live)
        if bound > self.fp_cap:
            bound = self.fp_cap
        if bound <= self.best:
            return
        if not live:
            self._record(size, members)
            return
        new_occs, tail = self._include(members, occs, live)
        members.append(live[0][0])
        self._dfs(members, new_occs, tail)
        members.pop()
        if self.stopped:
            return
        self._dfs(members, occs, live[1:])

    def _record(self, size, members):
        if size > self.best:
            self.best = size
            self.witness = tuple(self.cands[i] for i in members)
            if self.stop_at is not None and self.best >= self.stop_at:
                self.stopped = True


def _required_mask(k: int, mode: str, s: int | None) -> int:
    if mode == MODE_ORDER:
        return size_layer_mask(k, s)
    return proper_trace_mask(k)


def _verify_witness(n: int, d: int, mode: str, s: int | None, witness):
    """Re-check the returned family against the set-system primitives."""
    fam = UniformFamily.from_masks(n, d + 1, witness)
    if len(fam) != len(witness):
        raise InvariantViolation("witness has duplicate members")
    if mode == MODE_ORDER:
        layer = size_layer_mask(d + 1, s)
        for m, occ in zip(fam.masks, occupancy_words(fam.masks, d + 1)):
            if occ & layer == layer:
                raise InvariantViolation(
                    f"witness member {m:#x} has no certificate of size exactly {s}"
                )
    else:
        if vc_dimension(fam) > d:
            raise InvariantViolation("witness family exceeds the VC budget")
    return fam


def _search(
    n: int, d: int, mode: str, s: int | None, stop_at, max_nodes, timeout, threads
) -> SearchResult:
    if not 1 <= d + 1 <= n:
        raise UsageError(f"need 1 <= d+1 <= n, got n={n} d={d}")
    if n > 63:
        raise UsageError(f"ground set {n} exceeds 63")
    cands = comb(n, d + 1)
    if cands > MAX_CANDIDATES or cands << (d + 1) > MAX_TRACE_ENTRIES:
        raise UsageError(
            f"n={n} d={d} has {cands} candidates of {1 << (d + 1)} traces each; "
            f"search admits at most {MAX_CANDIDATES} candidates and "
            f"{MAX_TRACE_ENTRIES} trace entries"
        )
    if mode == MODE_ORDER and not 0 <= s <= d:
        raise UsageError(f"certificate order must lie in 0..{d}, got {s}")
    seed_best, seed_witness = 0, ()
    if mode == MODE_WITNESS:
        star = star_family(n, d)
        seed_best, seed_witness = len(star), star.masks
    started = time.monotonic()
    deadline = started + timeout if timeout is not None else None
    req = _required_mask(d + 1, mode, s)
    if threads > 1:
        result = _search_parallel(
            n, d, req, seed_best, seed_witness, stop_at, max_nodes, deadline, threads
        )
        best, witness, nodes, exhausted, nodes_exact = result
    else:
        eng = _Engine(n, d, req, max_nodes=max_nodes, deadline=deadline)
        eng.run(seed_best, seed_witness, stop_at=stop_at)
        best, witness = eng.best, eng.witness
        nodes, exhausted, nodes_exact = eng.nodes, eng.exhausted, True
    _verify_witness(n, d, mode, s, witness)
    wall_ms = int((time.monotonic() - started) * 1000)
    return SearchResult(
        n=n,
        d=d,
        mode=mode,
        s=s,
        target=stop_at,
        best=best,
        witness=tuple(sorted(witness)),
        optimal=exhausted,
        nodes=nodes,
        nodes_exact=nodes_exact,
        wall_time_ms=wall_ms,
    )


_SPLIT_DEPTH = 9


def _subtree_worker(payload):
    (n, d, req, start_index, members, seed_best, stop_at, max_nodes, remaining_time) = payload
    deadline = time.monotonic() + remaining_time if remaining_time is not None else None
    eng = _Engine(n, d, req, max_nodes=max_nodes, deadline=deadline)
    eng.resume(start_index, members, seed_best, stop_at=stop_at)
    return eng.best, eng.witness, eng.nodes, eng.exhausted


def _search_parallel(n, d, req, seed_best, seed_witness, stop_at, max_nodes, deadline, threads):
    eng = _Engine(n, d, req)
    frontier = eng.collect_frontier(_SPLIT_DEPTH)
    best, witness = seed_best, tuple(seed_witness)
    if stop_at is not None and best >= stop_at:
        return best, witness, 0, False, True
    per_task_nodes = None if max_nodes is None else max(1, max_nodes // max(1, len(frontier)))
    remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
    payloads = [
        (n, d, req, i, members, best, stop_at, per_task_nodes, remaining)
        for (i, members) in frontier
    ]
    nodes = 0
    exhausted = True
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_subtree_worker, p) for p in payloads]
        for fut in futures:
            if stop_at is not None and best >= stop_at:
                fut.cancel()
                exhausted = False
                continue
            task_best, task_witness, task_nodes, task_exhausted = fut.result()
            nodes += task_nodes
            exhausted = exhausted and task_exhausted
            if task_best > best and task_witness:
                best, witness = task_best, tuple(task_witness)
    if stop_at is not None and best >= stop_at:
        exhausted = False
    return best, witness, nodes, exhausted, False


def exact_max(n, d, max_nodes=None, timeout=None, threads=1) -> SearchResult:
    """Maximum size of a (d+1)-uniform family over [n] with VC dimension <= d."""
    return _search(n, d, MODE_EXACT, None, None, max_nodes, timeout, threads)


def lower_bound_witness(n, d, target=None, max_nodes=None, timeout=None, threads=1) -> SearchResult:
    """Search for a family of size >= target, seeded with the star incumbent.

    target defaults to the lower end of the search bracket. The star cannot be
    extended by any set avoiding its center, so the engine must discover a
    structurally different family; it stops as soon as one reaches the target.
    """
    if target is None:
        bracket = search_bracket(n, d)
        if bracket is None:
            raise UsageError(
                f"no default target for n={n} d={d}; pass target explicitly"
            )
        target = bracket[0]
    return _search(n, d, MODE_WITNESS, None, target, max_nodes, timeout, threads)


def certificate_order_max(n, d, s, max_nodes=None, timeout=None, threads=1) -> SearchResult:
    """Maximum size when every member needs a certificate of size exactly s."""
    return _search(n, d, MODE_ORDER, s, None, max_nodes, timeout, threads)
