"""Exact maximization of VC-bounded (and certificate-constrained) families.

Depth-first branch and bound over all (d+1)-subsets of [n] in canonical
order, include-branch first. A partial family carries per-member occupancy
words; a member whose required trace layer fills up is dead. The first chosen
member is forced to be the canonical least candidate: any nonempty family is
isomorphic to one containing it, and the reported value is
isomorphism-invariant.

Forward checking: each node branches over the live candidates, the later ones
that can join the family right now. Adding members only adds traces, so a
candidate that would kill someone at a node does so in every descendant and is
dropped for good. The bound is therefore size + |live|, capped at C(n,d).
Dropping dead candidates and pruning on that bound cut only subtrees that
cannot beat the incumbent, so results and witnesses match a plain index walk;
only node counts shrink.

Packed state: with k = d+1, candidate j owns slot j, bits [j*2^k, (j+1)*2^k),
of one int `occ` that holds its occupancy word against the current members
(self-trace included), for members and non-members alike. Live candidates,
members and critical members (one required trace left) are ints with only
slot-low bits (bit j*2^k) set. Two rows per candidate, built once per (n, d):
onto[i] has in slot h the bit of trace cands[i] & cands[h] compressed on h, so
including i is occ | onto[i]; seen[i] has in slot h the bit of the same trace
compressed on i, so (seen[i] >> t) picks out at the slot-low bits the
candidates whose trace on i is t, the ones that kill i once t is its last
required trace. A slot's top bit is the full trace, which is never required,
so "is this slot of the unrealized required traces nonzero" is one addition
for all slots at once: adding 2^(2^k - 1) - 1 to each slot carries into its
top bit exactly when the rest of the slot is nonzero.

Three modes share the engine and differ only in the required trace layer:
  exact    every member needs some proper subset unrealized (VC <= d)
  witness  exact's predicate, but stop as soon as `target` is reached
  order-s  every member needs an unrealized proper subset of size exactly s
"""

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bitwords import k_subset_masks, submasks
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

# Cost guard, checked before any enumeration. The engine keeps two rows of
# C(n,d+1) * 2^(d+1) bits per candidate, at most 8 MiB at both limits, and its
# DFS recurses once per included member, so the candidate count must stay below
# Python's default recursion limit (1000). The largest instance the tests,
# demos and benchmark run, (8,2), has 56 candidates and 448 trace entries.
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


@lru_cache(maxsize=4)
def _tables(n: int, d: int):
    """(cands, onto, seen) for the packed engine; see the module docstring."""
    k = d + 1
    cands = tuple(k_subset_masks(n, k))
    # index_on[h][t]: compressed index of trace t on cands[h]
    index_on = [{t: compress_trace(t, positions_of(c)) for t in submasks(c)} for c in cands]
    nbytes = ((len(cands) << k) + 7) >> 3
    onto, seen = [], []
    for ci, on_i in zip(cands, index_on):
        o, s = bytearray(nbytes), bytearray(nbytes)
        for h, (ch, on_h) in enumerate(zip(cands, index_on)):
            t = ci & ch
            p = (h << k) + on_h[t]
            o[p >> 3] |= 1 << (p & 7)
            p = (h << k) + on_i[t]
            s[p >> 3] |= 1 << (p & 7)
        onto.append(int.from_bytes(o, "little"))
        seen.append(int.from_bytes(s, "little"))
    return cands, onto, seen


class _Engine:
    """One sequential branch-and-bound run. Subtree tasks re-enter via resume()."""

    def __init__(self, n: int, d: int, required_mask: int, max_nodes=None, deadline=None):
        self.k = k = d + 1
        self.cands, self.onto, self.seen = _tables(n, d)
        self.slot = (1 << (1 << k)) - 1
        self.low = ((1 << (len(self.cands) << k)) - 1) // self.slot
        self.req = required_mask * self.low
        self.full = full_trace_bit(k) * self.low
        self.top = (1 << k) - 1  # the full trace's bit in a slot
        self.half = (self.slot >> 1) * self.low
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
        if self.req & ~self.full == 0:
            raise InvariantViolation("a single member family cannot be infeasible")
        self.resume(1, [0], seed_best, stop_at, seed_witness)

    def resume(self, start_index: int, member_indices, seed_best: int, stop_at=None,
               seed_witness=()):
        """Run the subtree that has already fixed decisions below start_index."""
        self.best = seed_best
        self.witness = tuple(seed_witness)
        self.stop_at = stop_at
        try:
            self._dfs(*self.state(start_index, member_indices), len(member_indices))
        except _Budget:
            self.exhausted = False
        if self.stopped:
            self.exhausted = False

    def state(self, start, member_indices):
        """(occ, members, critical, live) after fixing member_indices and
        deciding every candidate below start."""
        k = self.k
        occ, members = self.full, 0
        for m in member_indices:
            occ |= self.onto[m]
            members |= 1 << (m << k)
        later = self.low >> (start << k) << (start << k)
        return self._settle(occ, members, 0, later & ~members)

    def _settle(self, occ, members, crit, live):
        """The state for occ and members, with live cut to the candidates that
        can still join, given the members that were critical before.

        A candidate is dead when its slot holds every required trace. A member
        with one required trace t left is critical, and every candidate whose
        trace on it is t would kill it; criticals found before had their
        killers dropped then, since traces only accumulate. Setting bit 0 of
        the non-member slots makes every slot of x nonzero, so x - low borrows
        inside each slot and x & (x - low) clears one bit per slot."""
        miss = self.req & ~occ
        live &= (miss + self.half) >> self.top
        x = miss | (self.low ^ members)
        now = members & ~((x & (x - self.low)) + self.half >> self.top)
        new = now & ~crit
        while new:
            b = new & -new
            p = b.bit_length() - 1
            t = (miss >> p & self.slot).bit_length() - 1
            live &= ~(self.seen[p >> self.k] >> t)
            new ^= b
        return occ, members, now, live

    def _include_head(self, occ, members, crit, live):
        """The child state that includes the lowest live candidate."""
        head = live & -live
        return self._settle(occ | self.onto[head.bit_length() - 1 >> self.k],
                            members | head, crit, live ^ head)

    def indices(self, members):
        """Candidate indices of the slot-low bits of members, ascending."""
        out = []
        while members:
            b = members & -members
            out.append(b.bit_length() - 1 >> self.k)
            members ^= b
        return out

    def collect_frontier(self, depth: int):
        """All feasible (start, members) states with decisions fixed for the
        first `depth` candidates, in DFS discovery order. Root stays forced."""
        frontier = []
        before = (1 << (depth << self.k)) - 1

        def walk(occ, members, crit, live):
            if not live & before:
                frontier.append((depth, tuple(self.indices(members))))
                return
            walk(*self._include_head(occ, members, crit, live))
            walk(occ, members, crit, live & (live - 1))

        walk(*self.state(1, [0]))
        return frontier

    def _dfs(self, occ, members, crit, live, size):
        while True:
            self.nodes += 1
            if self.max_nodes is not None and self.nodes > self.max_nodes:
                raise _Budget
            if self.deadline is not None and self.nodes % _TIME_CHECK_STRIDE == 0:
                if time.monotonic() > self.deadline:
                    raise _Budget
            if self.stopped:
                return
            bound = size + live.bit_count()
            if bound > self.fp_cap:
                bound = self.fp_cap
            if bound <= self.best:
                return
            if not live:
                self._record(size, members)
                return
            self._dfs(*self._include_head(occ, members, crit, live), size + 1)
            if self.stopped:
                return
            live &= live - 1  # the exclude branch drops the head

    def _record(self, size, members):
        if size > self.best:
            self.best = size
            self.witness = tuple(self.cands[i] for i in self.indices(members))
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
    """Run the frontier subtrees on a pool, at most 2*threads in flight.

    Tasks go out in frontier order, each seeded with the best size finished
    tasks have reported, so every task it learns from lies before it. The
    first task in frontier order with a family of the final best size (in
    witness mode: of size stop_at or more) is therefore seeded below that
    size and finds the family the serial run finds; earlier tasks report
    less and later ones cannot displace it. After a task reaches stop_at,
    nothing more is dispatched and later tasks are not counted."""
    if stop_at is not None and seed_best >= stop_at:
        return seed_best, tuple(seed_witness), 0, False, True
    frontier = _Engine(n, d, req).collect_frontier(_SPLIT_DEPTH)  # fills _tables pre-fork
    per_task_nodes = None if max_nodes is None else max(1, max_nodes // max(1, len(frontier)))
    results = [None] * len(frontier)
    reached = len(frontier)  # first frontier position whose task reached stop_at
    top = seed_best  # the best size the finished tasks have reported
    pending = {}

    def collect():
        nonlocal top, reached
        for fut in wait(pending, return_when=FIRST_COMPLETED).done:
            pos = pending.pop(fut)
            results[pos] = fut.result()
            top = max(top, results[pos][0])
            if stop_at is not None and results[pos][0] >= stop_at:
                reached = min(reached, pos)

    with ProcessPoolExecutor(max_workers=threads) as pool:
        for pos, (start, members) in enumerate(frontier):
            if len(pending) == 2 * threads:
                collect()
            if reached < len(frontier):
                break
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            payload = (n, d, req, start, members, top, stop_at, per_task_nodes, remaining)
            pending[pool.submit(_subtree_worker, payload)] = pos
        while any(pos < reached for pos in pending.values()):
            collect()
        for fut in pending:  # past the witness: drop queued tasks, reap running ones
            if not fut.cancel():
                fut.result()
    best, witness = seed_best, tuple(seed_witness)
    nodes = 0
    exhausted = reached == len(frontier)
    for task_best, task_witness, task_nodes, task_exhausted in results[: reached + 1]:
        nodes += task_nodes
        exhausted = exhausted and task_exhausted
        if task_best > best and task_witness:
            best, witness = task_best, tuple(task_witness)
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
