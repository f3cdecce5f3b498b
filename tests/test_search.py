from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_certificates, oracle_ilp_max, oracle_max_family, oracle_vc_le
from vcx.errors import UsageError
from vcx.families import UniformFamily, vc_dimension
from vcx.search import (
    MAX_CANDIDATES,
    _PROBE,
    _Engine,
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
    members = [w.elements() for w in witness_family(r).members]
    assert oracle_vc_le(6, members, 2)

    r = lower_bound_witness(6, 2, target=6)
    assert r.best >= 6  # the star seed alone suffices, no search needed
    assert r.nodes == 0

    r = lower_bound_witness(7, 2, target=16)
    assert r.best >= 16
    assert oracle_vc_le(7, [w.elements() for w in witness_family(r).members], 2)


def test_witness_mode_needs_a_bracket_or_target():
    with pytest.raises(UsageError):
        lower_bound_witness(5, 2)  # no bracket below n = 2(d+1)


def test_order_mode_small_values():
    r0 = certificate_order_max(6, 2, 0)
    r2 = certificate_order_max(6, 2, 2)
    assert r0.optimal and r2.optimal
    assert r0.best == 10 and r2.best == 10
    for r, s in ((r0, 0), (r2, 2)):
        sets = [w.elements() for w in witness_family(r).members]
        assert len(sets) == 10 and _keeps_certificates(sets, s)


def test_order_mode_rejects_bad_s():
    with pytest.raises(UsageError):
        certificate_order_max(6, 2, 3)
    with pytest.raises(UsageError):
        certificate_order_max(6, 2, -1)


def test_budget_cuts_mark_nonoptimal():
    r = exact_max(6, 2, max_nodes=50)
    assert not r.optimal
    assert r.nodes <= 60
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
    else:  # exact (7,2), 84,651 serial nodes, reaches the pool
        assert parallel.nodes_exact is False
        # The probe already holds 16, so every task is seeded with the final
        # best and the count does not depend on task timing; the pool skips
        # the tasks the probe finished.
        assert parallel.nodes == 88_838


@settings(max_examples=40, deadline=None)
@given(
    call=st.sampled_from([
        (certificate_order_max, (7, 2, 0)),
        (certificate_order_max, (7, 2, 1)),
        (certificate_order_max, (7, 2, 2)),
        (exact_max, (6, 2)),
        (exact_max, (7, 2)),  # 84,651 nodes: the budget binds past _PROBE
    ]),
    max_nodes=st.integers(1, 100_000),
)
def test_budgets_mean_the_same_with_threads(call, max_nodes):
    """A budgeted search runs serially whatever threads is."""
    fn, args = call
    serial = fn(*args, max_nodes=max_nodes)
    parallel = fn(*args, max_nodes=max_nodes, threads=2)
    fields = ("best", "optimal", "witness", "nodes", "nodes_exact")
    assert [getattr(parallel, f) for f in fields] == [getattr(serial, f) for f in fields]


def test_probe_stopped_by_deadline_starts_no_pool():
    r = exact_max(7, 2, timeout=0, threads=2)
    assert not r.optimal
    assert r.nodes_exact  # the pool would have made the count inexact


def _keeps_certificates(sets, s):
    """Every member keeps an unrealized proper trace (of size s, when given)."""
    return all(
        any(s is None or len(T) == s for T in oracle_certificates(F, sets)) for F in sets
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_resume_live_set_matches_from_scratch_check(data):
    """The live set a subtree task starts from, and the one after including
    its head: every later candidate, not a member, that can join the members
    without leaving anyone, itself included, without a certificate."""
    n = data.draw(st.sampled_from([6, 7]), label="n")
    s = data.draw(st.sampled_from([None, 0, 1, 2]), label="s")  # None: exact and witness
    eng = _Engine(n, 2, proper_trace_mask(3) if s is None else size_layer_mask(3, s))
    sets = [frozenset(e for e in range(1, n + 1) if m >> (e - 1) & 1) for m in eng.cands]
    start = data.draw(st.integers(1, len(sets)), label="start")
    limit = data.draw(st.integers(0, 12), label="limit")
    members = []
    for i in data.draw(st.permutations(range(start)), label="order"):
        if len(members) < limit and _keeps_certificates([sets[j] for j in members + [i]], s):
            members.append(i)
    members.sort()

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
    n = data.draw(st.sampled_from([6, 7]), label="n")
    s = data.draw(st.sampled_from([None, 0, 1, 2]), label="s")  # None: exact
    eng = _Engine(n, 2, proper_trace_mask(3) if s is None else size_layer_mask(3, s))
    sets = [frozenset(e for e in range(1, n + 1) if m >> (e - 1) & 1) for m in eng.cands]
    start = data.draw(st.integers(1, len(sets)), label="start")
    limit = data.draw(st.integers(0, 12), label="limit")
    members = []
    for i in data.draw(st.permutations(range(start)), label="order"):
        if len(members) < limit and _keeps_certificates([sets[j] for j in members + [i]], s):
            members.append(i)
    state = eng.state(start, sorted(members))
    children = [state, eng._include_head(*state)] if state[-1] else [state]
    for _, packed_members, _, packed_live in children:
        expected = _lex_cut(
            n, eng.cands, set(eng.indices(packed_members)), set(eng.indices(packed_live))
        )
        assert eng._dominated(packed_members) == expected


def test_lex_cut_prunes_the_search():
    # without the cut: 10,131 and 50,741 nodes
    assert exact_max(6, 2).nodes < 1000
    assert certificate_order_max(7, 2, 1).nodes < 5000


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
    assert oracle_vc_le(8, [w.elements() for w in witness_family(r).members], 2)


def test_cost_guard_refuses_before_enumerating():
    assert comb(63, 31) > MAX_CANDIDATES
    with pytest.raises(UsageError, match="candidates"):
        exact_max(63, 30)
    with pytest.raises(UsageError, match="candidates"):
        lower_bound_witness(63, 30)  # refused before the star seed is built
    with pytest.raises(UsageError, match="trace entries"):
        certificate_order_max(40, 39, 1)  # one candidate, but 2^40 traces on it
