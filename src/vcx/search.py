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
only node counts shrink. The deletion bound below caps it further.

Lex-leader cuts (Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking
predicates for search problems", KR 1996) under the n-1 adjacent
transpositions (i i+1) of [n]. A node decides a 0/1 vector x over the
candidates in canonical order: members are 1, every other candidate that is not
live is 0 (dead ones above the head included), live ones are undecided. For
each transposition tau, walk the moved pairs (c, tau(c)), c < tau(c), in order
of c; stop at the first pair with a live end, and at the first pair with
x_c != x_tau(c) cut the node if x_c = 0: tau then maps every family below it to
a lex-greater one. Include-first DFS meets families in decreasing lex order,
so the witness is the lex-greatest family of the final best size (in witness
mode, of size >= target); every family before it is smaller, so the bound
never cuts its path. Its orbit under Sym([n]) holds only families of its size,
so it is its orbit's lex-leader and no lex cut removes it either. Results and
witnesses are those of the uncut search; only node counts shrink.

The check needs only the members. Members lie below the head and live
candidates at or above it, and tau keeps the order of the smaller ends and of
their images, so from the first moved pair with a live end on, every image
lies above the head and is no member. The rule's outcome is therefore fixed by
the first pair whose ends differ in membership: the node is cut when its
smaller end is not a member. Packed, each transposition is the slot-low mask of
its smaller ends c plus its moved pairs grouped by index offset
delta = tau(c) - c, as (delta * 2^k, slot mask) pairs (one to three groups on
(7,2) and (8,2)), so the member bits of the images land at slot c with one
shift and one AND per group. An include child differs from its parent only by
the head h, and a transposition that fixes h has none of its moved pairs at h,
so its walk is the parent's, which passed; the child checks only the
transpositions that move h (moving[h]). A task root checks all of them.

Deletion bound (exact and order modes). The members that avoid an element x
form a family on the other n-1 points that meets the same predicate, since
dropping members only drops traces, so there are at most opt = opt(n-1, d) of
them, in the same mode and order. Every family below a node therefore has at
most |(members | live) through x| + opt members, for each x, and the node is
cut when that is at most best for some x. Each member avoids n-k elements, so
summing over x gives (n-k) |F| <= n * opt: the root is capped at
n * opt // (n-k). Like size + |live|, this bounds every family below the node,
so the argument above covers it: no node on the witness's path is cut before
best reaches the witness's size, and results and witnesses stay those of the
uncut search. Settling an include child can drop candidates through any
element, so all n counts are checked there; an exclude step drops only the
head, so only the counts of its k elements are. opt comes from _optimum, a
nested serial search on [n-1] settled once per process. Runs with max_nodes
or timeout go without the bound, so a budget counts the nodes it always
counted and no nested search runs outside it. Witness runs go without it too:
the nested exact search on [n-1] costs more than the witness, 84,651 nodes
against 7,812 at (8,2).

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
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bitwords import k_subset_masks, positions_of, submasks
from .constructions import star_family
from .errors import InvariantViolation, UsageError
from .families import MAX_GROUND_SET, UniformFamily, check_threads, vc_dimension
from .traces import (
    compress_trace,
    full_trace_bit,
    occupancy_words,
    proper_trace_mask,
    size_layer_mask,
)

MODE_EXACT = "exact"
MODE_WITNESS = "witness"
MODE_ORDER = "order"

_TIME_CHECK_STRIDE = 4096

# Serial nodes a threads > 1 search runs before it starts a pool (see _search):
# about 40 ms at 0.3-0.4M nodes/s, twice the pool's start-up cost on two cores.
_PROBE = 1 << 14

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
    """[C(n-1,d) + C(n-4,d-2), C(n,d) - 1], defined for d >= 2, n >= 2(d+1).

    The lower end is the Ahlswede-Khachatrian size, not the best known size at
    small n: at (8,3) it is 39, while random_maximal_vc_family(FuzzSeed(4, 8,
    3)) has 45 members and VC dimension 3.
    """
    if d < 2 or n < 2 * (d + 1):
        return None
    return comb(n - 1, d) + comb(n - 4, d - 2), comb(n, d) - 1


class _Budget(Exception):
    pass


@lru_cache(maxsize=4)
def _tables(n: int, d: int):
    """(cands, onto, seen, swaps, moving, through, through_of) for the packed
    engine; see the module docstring. moving[j] holds the swaps of the
    transpositions that move cands[j], through[x] the slot-low mask of the
    candidates through element x+1, and through_of[j] the through masks of the
    elements of cands[j]."""
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
    index = {c: j for j, c in enumerate(cands)}
    swaps, moved = [], []
    for e in range(n - 1):  # the transposition of elements e+1 and e+2
        pair = 3 << e
        ends, groups = 0, {}
        for c, m in enumerate(cands):
            if m & pair == 1 << e:  # c < tau(c) exactly when c holds e+1
                shift = index[m ^ pair] - c << k
                groups[shift] = groups.get(shift, 0) | 1 << (c << k)
                ends |= 1 << (c << k)
        if ends:
            swaps.append((ends, tuple(groups.items())))
            moved.append(pair)
    moving = tuple(
        tuple(sw for sw, pair in zip(swaps, moved) if m & pair not in (0, pair)) for m in cands
    )
    through = tuple(
        sum(1 << (j << k) for j, m in enumerate(cands) if m >> x & 1) for x in range(n)
    )
    through_of = tuple(tuple(through[x] for x in positions_of(m)) for m in cands)
    return cands, onto, seen, tuple(swaps), moving, through, through_of


class _Engine:
    """One sequential branch-and-bound run of the whole tree or of a subtree task."""

    def __init__(self, n: int, d: int, required_mask: int, max_nodes=None, deadline=None,
                 opt=None):
        self.k = k = d + 1
        (self.cands, self.onto, self.seen, self.swaps, self.moving, self.through,
         self.through_of) = _tables(n, d)
        self.slot = (1 << (1 << k)) - 1
        self.low = ((1 << (len(self.cands) << k)) - 1) // self.slot
        self.req = required_mask * self.low
        self.full = full_trace_bit(k) * self.low
        self.top = (1 << k) - 1  # the full trace's bit in a slot
        self.half = (self.slot >> 1) * self.low
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.fp_cap = comb(n, d)
        # opt(n-1, d) for the deletion bound; without one, a value no best reaches
        self.opt = len(self.cands) + 1 if opt is None else opt
        if opt is not None:
            self.fp_cap = min(self.fp_cap, n * opt // (n - k))
        self.nodes = 0
        self.halt = None  # (members, live) of the node that ran out of max_nodes

    def run(self, start_index: int, member_indices, seed_best: int, seed_witness=(),
            stop_at=None):
        """Run the subtree that has fixed decisions below start_index; the
        whole tree is run(1, [0], ...)."""
        self.best, self.witness, self.stop_at = seed_best, tuple(seed_witness), stop_at
        self.stopped = stop_at is not None and seed_best >= stop_at
        try:
            if not self.stopped:
                self._dfs(*self.state(start_index, member_indices), len(member_indices),
                          self.swaps)
            self.exhausted = not self.stopped
        except _Budget:
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

    def _dominated(self, members, swaps=None):
        """Whether some transposition of swaps (default: all of them) maps
        every family below this node to a lex-greater one (see the module
        docstring). At slot c, the smaller end of a moved pair, pm holds the
        member bit of tau(c), and the lowest bit of e is the first pair whose
        ends differ in membership."""
        for ends, groups in self.swaps if swaps is None else swaps:
            pm = 0
            for shift, mask in groups:
                pm |= members >> shift & mask
            e = (members ^ pm) & ends
            if e & -e & pm:
                return True
        return False

    def indices(self, members):
        """Candidate indices of the slot-low bits of members, ascending."""
        return [p >> self.k for p in positions_of(members)]

    def collect_frontier(self, depth: int, halt):
        """All feasible (start, members) states with decisions fixed for the
        first `depth` candidates, in DFS discovery order. Root stays forced.
        A state is left out when it lies wholly before the node halt =
        (members, live): over the candidates below depth that halt decided,
        the first where they differ is one of the state's members, whose
        include branch the DFS finished before excluding it on the way to halt."""
        frontier = []
        before = (1 << (depth << self.k)) - 1
        halt_members, halt_live = halt
        decided = self.low & before & ~halt_live

        def walk(occ, members, crit, live):
            if self._dominated(members):
                return
            if not live & before:
                diff = (members ^ halt_members) & decided
                if not diff & -diff & members:
                    frontier.append((depth, tuple(self.indices(members))))
                return
            walk(*self._include_head(occ, members, crit, live))
            walk(occ, members, crit, live & (live - 1))

        walk(*self.state(1, [0]))
        return frontier

    def _dfs(self, occ, members, crit, live, size, swaps):
        """The subtree of a node, with swaps the transpositions its lex check
        needs: all of them at a task root, those that move the head at an
        include child. Members, and so the lex cut, stay fixed along the
        exclude loop, and an exclude step changes the deletion bound's counts
        only at the elements of the dropped head."""
        fresh = True
        through = self.through
        while True:
            self.nodes += 1
            if self.max_nodes is not None and self.nodes > self.max_nodes:
                self.halt = members, live
                raise _Budget
            if self.deadline is not None and self.nodes % _TIME_CHECK_STRIDE == 0:
                if time.monotonic() > self.deadline:
                    raise _Budget
            if self.stopped:
                return
            bound = size + live.bit_count()
            if bound > self.fp_cap:
                bound = self.fp_cap
            if bound <= self.best or fresh and self._dominated(members, swaps):
                return
            fresh = False
            if not live:
                self._record(size, members)
                return
            slack = self.best - self.opt
            if slack >= 0:
                ml = members | live
                for t in through:
                    if (ml & t).bit_count() <= slack:
                        return
            head = live & -live
            j = head.bit_length() - 1 >> self.k
            self._dfs(*self._settle(occ | self.onto[j], members | head, crit, live ^ head),
                      size + 1, self.moving[j])
            if self.stopped:
                return
            live ^= head  # the exclude branch drops the head
            through = self.through_of[j]

    def _record(self, size, members):
        if size > self.best:
            self.best = size
            self.witness = tuple(self.cands[i] for i in self.indices(members))
            if self.stop_at is not None and self.best >= self.stop_at:
                self.stopped = True


_OPTIMA = {}  # (n, d, required mask) -> settled maximum, kept for the process's life


def _optimum(n: int, d: int, req: int):
    """The maximum of the exact or order search on [n] with required trace
    layer req, None when [n] holds no (d+1)-set: opt(n, d) of the deletion
    bound on [n+1]. A nested serial run without a budget settles it once per
    process; its nodes count toward no caller's. It runs before the caller
    builds its own tables, so the nested chain cannot evict them."""
    if n <= d:
        return None
    key = n, d, req
    if key not in _OPTIMA:
        eng = _Engine(n, d, req, opt=_optimum(n - 1, d, req))
        eng.run(1, [0], 0)
        _OPTIMA[key] = eng.best
    return _OPTIMA[key]


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
        for m, occ in zip(fam.masks, occupancy_words(fam.masks, d + 1).words):
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
    """Run one search serially, or with threads > 1 and no max_nodes as a
    serial probe and then a pool.

    A run with max_nodes is serial whatever threads is, so a node budget means
    the same in every run: a pool visits other nodes than the serial DFS and
    could end the same budget with another result. Otherwise, with
    threads > 1, the serial engine first runs as a probe of _PROBE nodes. If it
    exhausts the tree, reaches stop_at, or stops on the caller's deadline, its
    result is returned exactly as a serial call returns it. Only a probe that
    runs out of its own budget, with time left before the deadline, hands
    over to _search_parallel, with the node it halted at and seeded with its
    best and witness. The probe is a prefix of the serial DFS, so its first
    family of any size is the serial run's first, and a task replaces it only
    with a strictly larger family (see _search_parallel); the witness is still
    the serial one. Reported nodes are then the probe's plus the pool's, with
    nodes_exact False: the pool's count depends on task timing.
    """
    if not 1 <= d + 1 <= n:
        raise UsageError(f"need 1 <= d+1 <= n, got n={n} d={d}")
    check_threads(threads)
    if n > MAX_GROUND_SET:
        raise UsageError(f"ground set {n} exceeds {MAX_GROUND_SET}")
    cands = comb(n, d + 1)
    if cands > MAX_CANDIDATES or cands << (d + 1) > MAX_TRACE_ENTRIES:
        raise UsageError(
            f"n={n} d={d} has {cands} candidates of {1 << (d + 1)} traces each; "
            f"search admits at most {MAX_CANDIDATES} candidates and "
            f"{MAX_TRACE_ENTRIES} trace entries"
        )
    if mode == MODE_ORDER and not 0 <= s <= d:
        raise UsageError(f"certificate order must lie in 0..{d}, got {s}")
    req = _required_mask(d + 1, mode, s)
    if req & ~full_trace_bit(d + 1) == 0:
        raise InvariantViolation("a single member family cannot be infeasible")
    seed_best, seed_witness = 0, ()
    if mode == MODE_WITNESS:
        star = star_family(n, d)
        seed_best, seed_witness = len(star), star.masks
    started = time.monotonic()
    deadline = started + timeout if timeout is not None else None
    # the deletion bound; budgeted and witness runs go without (module docstring)
    unbudgeted = max_nodes is None and timeout is None
    opt = _optimum(n - 1, d, req) if unbudgeted and mode != MODE_WITNESS else None
    probe = threads > 1 and max_nodes is None
    eng = _Engine(n, d, req, max_nodes=_PROBE if probe else max_nodes, deadline=deadline,
                  opt=opt)
    eng.run(1, [0], seed_best, seed_witness, stop_at)
    best, witness, nodes, exhausted = eng.best, eng.witness, eng.nodes, eng.exhausted
    # a halt node means the probe ran out of its own budget, not of time
    pooled = probe and eng.halt is not None and (deadline is None or time.monotonic() < deadline)
    if pooled:
        best, witness, task_nodes, exhausted = _search_parallel(
            n, d, req, opt, best, witness, eng.halt, stop_at, deadline, threads
        )
        nodes += task_nodes
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
        nodes_exact=not pooled,
        wall_time_ms=wall_ms,
    )


_SPLIT_DEPTH = 9


def _subtree_worker(payload):
    (n, d, req, opt, start_index, members, seed_best, stop_at, remaining_time) = payload
    deadline = time.monotonic() + remaining_time if remaining_time is not None else None
    eng = _Engine(n, d, req, deadline=deadline, opt=opt)
    eng.run(start_index, members, seed_best, stop_at=stop_at)
    return eng.best, eng.witness, eng.nodes, eng.exhausted


def _search_parallel(n, d, req, opt, seed_best, seed_witness, halt, stop_at, deadline, threads):
    """Run the frontier subtrees the serial probe has not finished on a pool,
    at most 2*threads in flight.

    _search calls this once a serial probe has run out of its budget at the
    node halt, with the probe's best and witness as seeds. The frontier leaves
    out the tasks wholly before halt, which the probe searched.

    Tasks go out in frontier order, each seeded with the best size finished
    tasks have reported, or the probe's if larger, so every task it learns
    from lies before it. A task only replaces the witness with a strictly
    larger family, so if the probe already holds the final best size its
    witness stands. Otherwise the first task in frontier order with a family
    of the final best size (in witness mode: of size stop_at or more) is
    seeded below that size and finds the family the serial run finds; earlier
    tasks report less and later ones cannot displace it. After a task reaches
    stop_at, nothing more is dispatched and later tasks are not counted."""
    # imported here, so that a process that never starts a pool never loads
    # multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    frontier = _Engine(n, d, req).collect_frontier(_SPLIT_DEPTH, halt)  # fills _tables pre-fork
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
            payload = (n, d, req, opt, start, members, top, stop_at, remaining)
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
    return best, witness, nodes, exhausted


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
