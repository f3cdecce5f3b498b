from hashlib import sha256
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_certificates, oracle_ilp_max, oracle_max_family, oracle_vc_le
from vcx.bitwords import elements_of
from vcx.errors import UsageError
from vcx.families import UniformFamily, vc_dimension
from vcx.search import (
    MAX_CANDIDATES,
    _OPTIMA,
    _PROBE,
    _TIME_CHECK_STRIDE,
    _Engine,
    _optimum,
    certificate_order_max,
    exact_max,
    lower_bound_witness,
    search_bracket,
)
from vcx.traces import proper_trace_mask, size_layer_mask


def witness_family(result):
    return UniformFamily.from_masks(result.n, result.d + 1, result.witness)


def test_bracket_values():
    assert search_bracket(6, 2) == (comb(5, 2) + comb(2, 0), comb(6, 2) - 1)
    assert search_bracket(7, 2) == (16, 20)
    assert search_bracket(8, 3) == (comb(7, 3) + comb(4, 1), comb(8, 3) - 1)
    assert search_bracket(5, 2) is None  # needs n >= 2(d+1)
    assert search_bracket(6, 1) is None  # stated for d >= 2 only


def test_exact_max_tiny_instances_vs_oracle():
    r = exact_max(4, 1)
    assert r.best == 3 and r.optimal
    assert r.best == oracle_max_family(4, 1)
    assert vc_dimension(witness_family(r)) <= 1

    r = exact_max(5, 2)
    assert r.best == 10 and r.optimal
    assert r.best == oracle_max_family(5, 2)

    r = exact_max(5, 1)
    assert r.best == 4 and r.optimal
    assert r.best == oracle_max_family(5, 1)


def test_exact_max_single_member_degenerate():
    r = exact_max(5, 4)
    assert r.best == 1 and r.optimal


def test_exact_max_6_2_exhausts_inside_bracket():
    r = exact_max(6, 2)
    assert r.optimal
    lo, hi = search_bracket(6, 2)
    assert lo <= r.best <= hi
    # Derived by exhaustion here and confirmed by an independently written
    # DFS oracle; the asymptotic lower-bound formula is not the value at n=6.
    assert r.best == 13
    fam = witness_family(r)
    assert len(fam) == 13 and vc_dimension(fam) == 2


def test_exact_nodes_are_deterministic():
    a = exact_max(6, 2)
    b = exact_max(6, 2)
    assert a.best == b.best and a.nodes == b.nodes and a.witness == b.witness


def test_witness_mode_hits_targets():
    r = lower_bound_witness(6, 2)
    assert r.target == 11 and r.best >= 11
    members = [elements_of(m) for m in witness_family(r)]
    assert oracle_vc_le(6, members, 2)

    r = lower_bound_witness(6, 2, target=6)
    assert r.best >= 6  # the star seed alone suffices, no search needed
    assert r.nodes == 0

    r = lower_bound_witness(7, 2, target=16)
    assert r.best >= 16
    assert oracle_vc_le(7, [elements_of(m) for m in witness_family(r)], 2)


def test_witness_mode_needs_a_bracket_or_target():
    with pytest.raises(UsageError):
        lower_bound_witness(5, 2)  # no bracket below n = 2(d+1)


def test_order_mode_small_values():
    r0 = certificate_order_max(6, 2, 0)
    r2 = certificate_order_max(6, 2, 2)
    assert r0.optimal and r2.optimal
    assert r0.best == 10 and r2.best == 10
    for r, s in ((r0, 0), (r2, 2)):
        sets = [elements_of(m) for m in witness_family(r)]
        assert len(sets) == 10 and _keeps_certificates(sets, s)


def test_order_mode_rejects_bad_s():
    with pytest.raises(UsageError):
        certificate_order_max(6, 2, 3)
    with pytest.raises(UsageError):
        certificate_order_max(6, 2, -1)


def test_budget_cuts_mark_nonoptimal():
    r = exact_max(6, 2, max_nodes=50)
    assert not r.optimal
    assert r.nodes == 51  # the node that overran is counted
    assert r.best >= 1


def test_parallel_search_agrees():
    a = exact_max(6, 2)
    b = exact_max(6, 2, threads=2)
    assert a.best == b.best
    assert b.optimal
    assert a.nodes <= _PROBE  # settled by the serial probe: no pool
    assert (b.nodes, b.nodes_exact) == (a.nodes, True)


# (best, optimal, witness) recorded from the index-walk engine before forward
# checking; pruning must change node counts only, never what is found
PINNED_RESULTS = [
    ((exact_max, 4, 1), 3, True, (3, 5, 6)),
    ((exact_max, 5, 1), 4, True, (3, 5, 9, 17)),
    ((exact_max, 5, 2), 10, True, (7, 11, 13, 14, 19, 21, 22, 25, 26, 28)),
    ((exact_max, 6, 2), 13, True, (7, 11, 13, 14, 19, 21, 22, 25, 35, 37, 38, 42, 52)),
    ((exact_max, 5, 4), 1, True, (31,)),
    ((exact_max, 7, 2), 16, True, (7, 11, 13, 14, 19, 21, 22, 25, 35, 37, 38, 42, 52, 67, 69, 70)),
    ((certificate_order_max, 6, 2, 0), 10, True, (7, 11, 13, 14, 19, 21, 22, 25, 26, 28)),
    ((certificate_order_max, 6, 2, 1), 10, True, (7, 11, 13, 14, 19, 21, 22, 35, 37, 38)),
    ((certificate_order_max, 6, 2, 2), 10, True, (7, 11, 13, 19, 21, 25, 35, 37, 41, 49)),
    ((certificate_order_max, 7, 2, 0), 15, True,
     (7, 11, 13, 19, 21, 25, 35, 37, 41, 49, 67, 69, 73, 81, 97)),
    ((certificate_order_max, 7, 2, 1), 15, True,
     (7, 11, 13, 19, 21, 25, 35, 37, 41, 49, 67, 69, 73, 81, 97)),
    ((certificate_order_max, 7, 2, 2), 15, True,
     (7, 11, 13, 19, 21, 25, 35, 37, 41, 49, 67, 69, 73, 81, 97)),
    ((lower_bound_witness, 6, 2), 11, False, (7, 11, 13, 14, 19, 21, 22, 25, 26, 35, 44)),
    ((lower_bound_witness, 7, 2, 16), 16, False,
     (7, 11, 13, 14, 19, 21, 22, 25, 35, 37, 38, 42, 52, 67, 69, 70)),
    ((lower_bound_witness, 8, 2), 22, False,
     (7, 11, 13, 14, 19, 21, 25, 35, 37, 41, 50, 67, 69, 73, 82, 98, 131, 133, 137, 146,
      162, 194)),
]


@pytest.mark.parametrize(
    "call, best, optimal, witness",
    PINNED_RESULTS,
    ids=[f"{c[0].__name__}{c[1:]}" for c, *_ in PINNED_RESULTS],
)
def test_search_results_are_pinned(call, best, optimal, witness):
    fn, *args = call
    r = fn(*args)
    assert (r.best, r.optimal, r.witness) == (best, optimal, witness)


@pytest.mark.parametrize(
    "fn, args",
    [
        (exact_max, (5, 1)),
        (certificate_order_max, (7, 2, 2)),
        (lower_bound_witness, (7, 2, 16)),
        (exact_max, (6, 2)),
        (lower_bound_witness, (8, 2)),
        (exact_max, (7, 2)),
    ],
    ids=["exact", "order", "witness", "exact_6_2", "witness_8_2", "exact_7_2"],
)
def test_serial_and_parallel_agree(fn, args):
    serial = fn(*args)
    parallel = fn(*args, threads=2)
    assert (parallel.best, parallel.optimal) == (serial.best, serial.optimal)
    assert parallel.witness == serial.witness
    if serial.nodes <= _PROBE:  # settled inside the serial probe: no pool
        assert (parallel.nodes, parallel.nodes_exact) == (serial.nodes, True)
    else:  # exact (7,2), 84,063 serial nodes, reaches the pool
        assert parallel.nodes_exact is False
        # The probe already holds 16, so every task is seeded with the final
        # best and the count does not depend on task timing; the pool skips
        # the tasks the probe finished.
        assert parallel.nodes == 88_402


# exact (7,2), 84,063 nodes: a budget up to 100,000 binds past _PROBE
BUDGET_CALLS = [
    (certificate_order_max, (7, 2, 0)),
    (certificate_order_max, (7, 2, 1)),
    (certificate_order_max, (7, 2, 2)),
    (exact_max, (6, 2)),
    (exact_max, (7, 2)),
]
RESULT_FIELDS = ("best", "optimal", "witness", "nodes", "nodes_exact")


def _fields(r):
    return [getattr(r, f) for f in RESULT_FIELDS]


@settings(max_examples=40, deadline=None)
@given(call=st.sampled_from(BUDGET_CALLS), max_nodes=st.integers(1, 100_000))
def test_budgets_mean_the_same_with_threads(call, max_nodes):
    """A budgeted search runs serially whatever threads is."""
    fn, args = call
    serial = fn(*args, max_nodes=max_nodes)
    assert _fields(fn(*args, max_nodes=max_nodes, threads=2)) == _fields(serial)


@settings(max_examples=20, deadline=None)
@given(call=st.sampled_from(BUDGET_CALLS), spare=st.integers(0, 10_000))
def test_a_budget_only_stops_the_unbudgeted_search(call, spare):
    """A budget the search never reaches returns the unbudgeted result."""
    fn, args = call
    free = fn(*args)
    assert _fields(fn(*args, max_nodes=free.nodes + spare)) == _fields(free)


def test_probe_stopped_by_deadline_starts_no_pool():
    r = exact_max(7, 2, timeout=0, threads=2)
    assert not r.optimal
    assert r.nodes_exact  # the pool would have made the count inexact
    # the deadline is read at every _TIME_CHECK_STRIDE-th node, after its count
    assert exact_max(7, 2, timeout=0).nodes == _TIME_CHECK_STRIDE


def _keeps_certificates(sets, s):
    """Every member keeps an unrealized proper trace (of size s, when given)."""
    return all(
        any(s is None or len(T) == s for T in oracle_certificates(F, sets)) for F in sets
    )


def _draw_task_root(data):
    """A random subtree task root of (n,2), n = 6 or 7: n, its engine, s (None
    for exact and witness), the candidates as element sets, start and the
    members, a feasible set of candidates below start, ascending."""
    n = data.draw(st.sampled_from([6, 7]), label="n")
    s = data.draw(st.sampled_from([None, 0, 1, 2]), label="s")
    eng = _Engine(n, 2, proper_trace_mask(3) if s is None else size_layer_mask(3, s))
    sets = [frozenset(e for e in range(1, n + 1) if m >> (e - 1) & 1) for m in eng.cands]
    start = data.draw(st.integers(1, len(sets)), label="start")
    limit = data.draw(st.integers(0, 12), label="limit")
    members = []
    for i in data.draw(st.permutations(range(start)), label="order"):
        if len(members) < limit and _keeps_certificates([sets[j] for j in members + [i]], s):
            members.append(i)
    return n, eng, s, sets, start, sorted(members)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_resume_live_set_matches_from_scratch_check(data):
    """The live set a subtree task starts from, and the one after including
    its head: every later candidate, not a member, that can join the members
    without leaving anyone, itself included, without a certificate."""
    _, eng, s, sets, start, members = _draw_task_root(data)

    def expected(start, members):
        fam = [sets[j] for j in members]
        return [
            j
            for j in range(start, len(sets))
            if j not in members and _keeps_certificates(fam + [sets[j]], s)
        ]

    state = eng.state(start, members)
    live = eng.indices(state[-1])
    assert live == expected(start, members)
    if live:  # the include branch updates the state incrementally
        child = eng._include_head(*state)
        assert eng.indices(child[-1]) == expected(live[0] + 1, members + [live[0]])


def _lex_cut(n, cands, members, live):
    """The lex-leader rule on candidate masks: for some transposition (i i+1),
    walking the moved pairs (c, tau(c)), c < tau(c), in order of c, the first
    pair whose ends differ in the family comes before any pair with a live end
    and has c outside the family. Non-live non-members are out."""
    index = {m: j for j, m in enumerate(cands)}
    for i in range(1, n):
        lo, hi = 1 << (i - 1), 1 << i
        for c, m in enumerate(cands):
            if m & lo and not m & hi:
                t = index[m ^ lo ^ hi]
                if c in live or t in live:
                    break
                if (c in members) != (t in members):
                    if c not in members:
                        return True
                    break
    return False


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lex_cut_matches_moved_pair_walk(data):
    """The packed cut at a subtree task's root and at its include child
    agrees with a plain walk of each adjacent transposition's moved pairs."""
    n, eng, _, _, start, members = _draw_task_root(data)
    state = eng.state(start, members)
    children = [state, eng._include_head(*state)] if state[-1] else [state]
    for _, packed_members, _, packed_live in children:
        expected = _lex_cut(
            n, eng.cands, set(eng.indices(packed_members)), set(eng.indices(packed_live))
        )
        assert eng._dominated(packed_members) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_head_only_lex_check_matches_full_check(data):
    """At the include child of a node that passes every transposition, the
    transpositions that map the head to an earlier candidate decide the cut
    alone. About a quarter of the drawn roots pass and have a head."""
    _, eng, _, _, start, members = _draw_task_root(data)
    state = eng.state(start, members)
    if eng._dominated(state[1]) or not state[-1]:
        return
    head = state[-1] & -state[-1]
    child_members = eng._include_head(*state)[1]
    moving = eng.moving[head.bit_length() - 1 >> eng.k]
    assert eng._dominated(child_members, moving) == eng._dominated(child_members)


def test_lex_cut_prunes_the_search():
    # without the cut: 10,131 and 50,741 nodes
    assert exact_max(6, 2).nodes < 1000
    assert certificate_order_max(7, 2, 1).nodes < 5000


NODE_COUNTS = [
    (exact_max, (6, 2), 599),
    (certificate_order_max, (7, 2, 0), 189),
    (certificate_order_max, (7, 2, 1), 1_107),
    (certificate_order_max, (7, 2, 2), 1_653),
    # d = 1 bounds with the table's optima: 87, 181, 17 and 47 nodes with the
    # cap chained from opt(4, 1) = 3
    (exact_max, (6, 1), 53),
    (exact_max, (7, 1), 101),
    (certificate_order_max, (6, 1, 0), 11),
    (certificate_order_max, (6, 1, 1), 35),
]


@pytest.mark.parametrize(
    "fn, args, nodes", NODE_COUNTS, ids=[f"{fn.__name__}{args}" for fn, args, _ in NODE_COUNTS]
)
def test_serial_node_counts_are_pinned(fn, args, nodes):
    """The visited tree, node for node: a child the bound or the lex cut
    removes is counted as well as every child that is searched."""
    r = fn(*args)
    assert r.optimal and r.nodes_exact
    assert r.nodes == nodes


def _engine(n, d, s, max_nodes=None):
    """The engine of a serial exact (s None) or order-s search on [n]."""
    req = proper_trace_mask(d + 1) if s is None else size_layer_mask(d + 1, s)
    return _Engine(n, d, req, max_nodes=max_nodes, opt=_optimum(n - 1, d, s))


# the benchmark's serial instances: 300, 95, 554 and 827 settles when every
# include child is settled before its lex check
SETTLE_COUNTS = [((6, 2, None), 181), ((7, 2, 0), 57), ((7, 2, 1), 272), ((7, 2, 2), 374)]


@pytest.mark.parametrize("nds, settles", SETTLE_COUNTS, ids=[str(a) for a, _ in SETTLE_COUNTS])
def test_lex_cut_children_are_not_settled(nds, settles):
    """An include child is lex-checked on its members before it is settled,
    and one the lex cut removes is counted without being settled."""
    eng = _engine(*nds)
    calls = []
    settle = eng._settle

    def counted(*args):
        calls.append(args)
        return settle(*args)

    eng._settle = counted
    eng.run(1, [0], 0)
    assert eng.exhausted and len(calls) == settles


def test_budget_halts_hold_settled_live_sets():
    """At every budget through the full tree of order (7,2,1) and exact (6,2),
    every candidate live at the halt node can join its members, as
    collect_frontier needs, and halt, nodes, best and exhaustion match their
    digest from before lex-cut children went unsettled."""
    rows = []
    for (n, d, s), top in [((7, 2, 1), 1_107), ((6, 2, None), 599)]:
        sets = [elements_of(m) for m in _engine(n, d, s).cands]
        for b in range(top + 1):
            eng = _engine(n, d, s, max_nodes=b)
            eng.run(1, [0], 0)
            rows.append((b, eng.halt, eng.nodes, eng.best, eng.exhausted))
            if eng.halt is not None:
                fam = [sets[i] for i in eng.indices(eng.halt[0])]
                for j in eng.indices(eng.halt[1]):
                    assert _keeps_certificates(fam + [sets[j]], s), (n, s, b, j)
    assert sha256(repr(rows).encode()).hexdigest()[:16] == "6b1368ba0380fb2e"


def test_deletion_bound_prunes_the_search():
    # without the bound: 2,813 nodes; results alone cannot show the bound
    assert certificate_order_max(7, 2, 2).nodes < 2_813


def test_budgeted_and_witness_runs_use_the_deletion_bound():
    """Every run reads opt(n-1, d) from the table, so a budget the search does
    not reach counts the unbudgeted nodes, and a witness run is cut as well."""
    assert exact_max(7, 2, max_nodes=90_000).nodes == exact_max(7, 2).nodes == 84_063
    assert lower_bound_witness(8, 2).nodes == 2_124  # 7,812 without the bound


@pytest.mark.parametrize("fn, args", [(exact_max, (7, 2)), (lower_bound_witness, (8, 2))],
                         ids=["exact_7_2", "witness_8_2"])
def test_a_serial_search_runs_one_engine(monkeypatch, fn, args):
    """No search runs inside another: opt(n-1, d) is data."""
    runs = []
    run = _Engine.run

    def counted(self, *a, **kw):
        runs.append(a)
        return run(self, *a, **kw)

    monkeypatch.setattr(_Engine, "run", counted)
    fn(*args)
    assert len(runs) == 1


def _settled(n, d, s):
    """The engine's maximum on [n], its deletion bound sized by the table's
    opt(n-1, d); the test fails unless the run exhausts the tree."""
    eng = _engine(n, d, s)
    eng.run(1, [0], 0)
    assert eng.exhausted
    return eng.best


def test_optimum_table_entries_resettle():
    """Each (d, s) of the table, re-settled for n = d+1 up to its largest key,
    bottom up, so each run leans only on values already checked. Exact (8,2)
    runs on two workers and uses only the (7,2) entry."""
    top = {}
    for n, d, s in _OPTIMA:
        top[d, s] = max(top.get((d, s), n), n)
    for (d, s), last in top.items():
        for n in range(d + 1, last + 1):
            if (n, d, s) == (8, 2, None):
                r = exact_max(8, 2, threads=2)
                assert r.optimal
                best = r.best
            else:
                best = _settled(n, d, s)
            assert _optimum(n, d, s) == best, f"({n},{d},{s}) settles at {best}"
    for n in (4, 5, 6):
        for s in (None, 0, 1, 2):
            assert _optimum(n, 2, s) == oracle_ilp_max(n, 2, s), (n, s)


@pytest.mark.parametrize(
    "fn, args",
    [
        (exact_max, (6, 2)),
        (certificate_order_max, (6, 2, 0)),
        (certificate_order_max, (6, 2, 1)),
        (certificate_order_max, (6, 2, 2)),
    ],
    ids=["exact_6_2", "order_6_2_0", "order_6_2_1", "order_6_2_2"],
)
def test_values_match_ilp_oracle(fn, args):
    r = fn(*args)
    assert r.optimal
    assert r.best == oracle_ilp_max(*args)


def test_witness_8_2_reaches_bracket_lower_end():
    r = lower_bound_witness(8, 2)
    assert r.target == search_bracket(8, 2)[0] == 22
    assert r.best == 22
    assert oracle_vc_le(8, [elements_of(m) for m in witness_family(r)], 2)


def test_cost_guard_refuses_before_enumerating():
    assert comb(63, 31) > MAX_CANDIDATES
    with pytest.raises(UsageError, match="candidates"):
        exact_max(63, 30)
    with pytest.raises(UsageError, match="candidates"):
        lower_bound_witness(63, 30)  # refused before the star seed is built
    with pytest.raises(UsageError, match="trace entries"):
        certificate_order_max(40, 39, 1)  # one candidate, but 2^40 traces on it
