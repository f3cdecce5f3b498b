"""Independent brute-force oracles shared by the test modules.

Everything here works on plain tuples and frozensets over elements 1..n,
deliberately avoiding the package's bitmask machinery so that a bug in the
fast path cannot cancel itself out in a test.
"""

from itertools import combinations


def oracle_is_shattered(S, member_lists):
    """Every subset of S occurs as some member's trace on S."""
    S = frozenset(S)
    traces = {frozenset(m) & S for m in member_lists}
    return len(traces) == 1 << len(S)


def oracle_vc(n, member_lists):
    """Largest shattered-subset size, scanning all 2^n subsets of [n]."""
    if not member_lists:
        return -1
    members = [frozenset(m) for m in member_lists]
    universe = list(range(1, n + 1))
    best = 0
    for bits in range(1 << n):
        S = frozenset(e for i, e in enumerate(universe) if bits >> i & 1)
        if len(S) <= best:
            continue
        traces = {m & S for m in members}
        if len(traces) == 1 << len(S):
            best = len(S)
    return best


def oracle_vc_le(n, member_lists, d):
    """VC <= d iff no (d+1)-subset is shattered (shattering is downward closed)."""
    for S in combinations(range(1, n + 1), d + 1):
        if oracle_is_shattered(S, member_lists):
            return False
    return True


def oracle_certificates(F, member_lists):
    """All proper subsets of F unrealized as a trace on F, as frozensets."""
    F = frozenset(F)
    realized = {frozenset(m) & F for m in member_lists}
    out = []
    for r in range(len(F)):
        for T in combinations(sorted(F), r):
            if frozenset(T) not in realized:
                out.append(frozenset(T))
    return out


def oracle_compress(trace_mask, positions):
    """Compressed index of a trace on a member by the positional loop: bit t of
    the index is the trace's bit at the member's t-th lowest bit position."""
    c = 0
    for t, p in enumerate(positions):
        if trace_mask >> p & 1:
            c |= 1 << t
    return c


def oracle_occupancy(member_lists):
    """(words, certificates), one entry per member in input order, by comparing
    every pair of members. A member's word sets bit c when some member's trace
    on it, its own included, has compressed index c; its certificate is the
    least (as a bit word) of its largest certificates, or None when it has none."""
    members = [frozenset(m) for m in member_lists]
    words, certs = [], []
    for F in members:
        positions = [e - 1 for e in sorted(F)]
        word = 0
        for other in members:
            word |= 1 << oracle_compress(mask_from(other & F), positions)
        words.append(word)
        found = oracle_certificates(F, member_lists)
        top = max(map(len, found), default=None)
        certs.append(None if top is None else min(mask_from(T) for T in found if len(T) == top))
    return words, certs


def oracle_shadow_count(member_lists):
    """(k-1)-subset, as a sorted element tuple -> number of members containing it."""
    counts = {}
    for m in member_lists:
        for S in combinations(sorted(m), len(m) - 1):
            counts[S] = counts.get(S, 0) + 1
    return counts


def oracle_max_family(n, d):
    """Max size of a VC <= d family of (d+1)-sets, by full 2^C(n,d+1) scan."""
    cands = list(combinations(range(1, n + 1), d + 1))
    best = 0
    for bits in range(1 << len(cands)):
        fam = [cands[i] for i in range(len(cands)) if bits >> i & 1]
        if len(fam) > best and oracle_vc_le(n, fam, d):
            best = len(fam)
    return best


def mask_from(elements):
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def oracle_ilp_max(n, d, s=None):
    """Max size of a family of (d+1)-sets over [n] with VC <= d or, given s,
    in which every member keeps an unrealized trace of size exactly s.

    An integer program solved by scipy's HiGHS, sharing nothing with the
    search engine. x_F = 1 makes candidate F a member; y_{S,T} = 1 says T is
    not a trace on S. Each member S needs one such T among its proper subsets
    (of size s, given s): sum_T y_{S,T} >= x_S. Each member F realizes its
    trace on every S: x_F + y_{S, F&S} <= 1. The first candidate is fixed in,
    since any nonempty family is isomorphic to one containing it.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    cands = [frozenset(c) for c in combinations(range(1, n + 1), d + 1)]
    required = {
        S: [
            frozenset(T)
            for r in (range(d + 1) if s is None else [s])
            for T in combinations(sorted(S), r)
        ]
        for S in cands
    }
    x = {F: i for i, F in enumerate(cands)}
    y = {}
    for S in cands:
        for T in required[S]:
            y[S, T] = len(x) + len(y)
    rows = []  # (coefficient by variable, lower, upper)
    for S in cands:
        rows.append(({x[S]: -1} | {y[S, T]: 1 for T in required[S]}, 0, np.inf))
    for F in cands:
        for S in cands:
            if (S, F & S) in y:
                rows.append(({x[F]: 1, y[S, F & S]: 1}, -np.inf, 1))
    matrix = np.zeros((len(rows), len(x) + len(y)))
    for i, (coefficients, _, _) in enumerate(rows):
        for j, a in coefficients.items():
            matrix[i, j] = a
    cost = np.zeros(len(x) + len(y))
    cost[: len(x)] = -1
    lower = np.zeros(len(cost))
    lower[0] = 1
    res = milp(
        cost,
        integrality=np.ones(len(cost)),
        bounds=Bounds(lower, np.ones(len(cost))),
        constraints=LinearConstraint(matrix, [r[1] for r in rows], [r[2] for r in rows]),
    )
    if not res.success:
        raise RuntimeError(f"ILP oracle failed on n={n} d={d} s={s}: {res.message}")
    return round(-res.fun)
