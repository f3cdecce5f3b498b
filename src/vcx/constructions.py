"""Reference families: stars, complete families, and random maximal ones.

The random generator must be reproducible across platforms and Python
versions, so it uses an explicit split-mix 64-bit stream instead of the
stdlib random module.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .bitwords import k_subset_masks
from .errors import UsageError
from .families import MAX_GEN_CANDIDATES, MAX_GEN_WORK, MAX_GROUND_SET, UniformFamily
from .traces import TraceTracker, candidate_table

_MASK64 = (1 << 64) - 1
# split-mix 64 constants: golden-ratio increment and the two finalizer mixers
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit stream; the whole package's only RNG."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _SM_GAMMA) & _MASK64
        return _mix(self.state)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise UsageError(f"bound must be positive, got {bound}")
        return self.next64() % bound

    def shuffle(self, items: list):
        """Fisher-Yates in place, with the draws of below(i + 1) for i from
        len - 1 down to 1. Draw r mixes the counter state + r * gamma, so all
        the draws are mixed in one numpy pass."""
        draws = len(items) - 1
        if draws <= 0:
            return
        steps = np.arange(1, draws + 1, dtype=np.uint64)
        counters = steps * np.uint64(_SM_GAMMA) + np.uint64(self.state)
        bounds = np.arange(draws + 1, 1, -1, dtype=np.uint64)
        picks = (_mix(counters) % bounds).tolist()
        self.state = (self.state + draws * _SM_GAMMA) & _MASK64
        for i, j in zip(range(draws, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def _mix(z):
    """The split-mix 64 finalizer, on a Python int or a uint64 numpy array
    (array products wrap mod 2**64, so the mask is a no-op there)."""
    z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class FuzzSeed:
    """Parameters of one random-maximal generation run."""

    seed: int
    n: int
    d: int


def _check_cost(n: int, k: int):
    if comb(n, k) > MAX_GEN_CANDIDATES:
        raise UsageError(f"C({n},{k}) candidates exceed the limit of {MAX_GEN_CANDIDATES}")


def star_family(n: int, d: int) -> UniformFamily:
    """All (d+1)-subsets of [n] containing element 1; size C(n-1, d)."""
    if not 0 <= d < n:
        raise UsageError(f"need 0 <= d < n, got n={n} d={d}")
    _check_cost(n - 1, d)
    masks = [1 | (rest << 1) for rest in k_subset_masks(n - 1, d)]
    return UniformFamily.from_masks(n, d + 1, masks)


def complete_family(n: int, k: int) -> UniformFamily:
    """All k-subsets of [n]."""
    if not 0 <= k <= n:
        raise UsageError(f"need 0 <= k <= n, got n={n} k={k}")
    _check_cost(n, k)
    return UniformFamily.from_masks(n, k, k_subset_masks(n, k))


def random_maximal_vc_family(fseed: FuzzSeed) -> UniformFamily:
    """A random maximal (d+1)-uniform family of VC dimension at most d.

    Shuffles all candidate (d+1)-sets with the seeded stream and adds each one
    iff every member would still keep a certificate afterwards. The result is
    maximal: no rejected candidate becomes addable later, because traces only
    accumulate.
    """
    n, d = fseed.n, fseed.d
    check_random_generation(n, d)
    candidates = list(candidate_table(n, d + 1).masks)
    SplitMix64(fseed.seed).shuffle(candidates)
    tracker = TraceTracker(n, d + 1)
    for cand in candidates:
        tracker.try_add(cand)
    return UniformFamily.from_masks(n, d + 1, tracker.masks())


def check_random_generation(n: int, d: int):
    """Refuse an (n, d) that random_maximal_vc_family cannot generate,
    before any candidate is listed."""
    if not 1 <= d + 1 <= n:
        raise UsageError(f"need 1 <= d+1 <= n, got n={n} d={d}")
    if n > MAX_GROUND_SET:
        raise UsageError(f"ground set {n} exceeds {MAX_GROUND_SET}")
    _check_cost(n, d + 1)
    # each candidate that passes the kill test splits the family into the
    # 2^(d+1) parts of its traces
    if comb(n, d + 1) << (d + 1) > MAX_GEN_WORK:
        raise UsageError(
            f"C({n},{d + 1}) candidates times 2^{d + 1} traces exceed the limit of {MAX_GEN_WORK}"
        )
