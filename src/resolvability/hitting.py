"""Exact minimum hitting set over small universes (n <= 62).

Sets are ``int`` bitmasks over universe 0..n-1. The exact solver runs
reduction rules (forced singletons, dominated-set removal), then a
depth-first search that branches on vertices in increasing index order
with a disjoint-packing lower bound. Searching cardinalities in
increasing order and vertices in index order makes the first solution
found both minimum and lexicographically smallest (as a sorted vertex
sequence), so witnesses are deterministic.
"""

from dataclasses import dataclass
from itertools import combinations

from .graph import bits_list, iter_bits

MAX_UNIVERSE = 62


class InfeasibleInstanceError(ValueError):
    """The family contains an empty set, so no hitting set exists."""


@dataclass(frozen=True)
class HittingSolution:
    mask: int
    size: int
    optimal: bool = True

    def vertices(self):
        return bits_list(self.mask)


def verify_hitting(sets, mask):
    """True iff ``mask`` intersects every set of the family."""
    return all(mask & s for s in sets)


def _check_instance(n, sets):
    if n > MAX_UNIVERSE:
        raise ValueError(f"universe size {n} exceeds {MAX_UNIVERSE}")
    if any(s == 0 for s in sets):
        raise InfeasibleInstanceError("family contains an empty set")


def greedy_hitting(n, sets):
    """Greedy upper bound: repeatedly pick the vertex hitting the most
    uncovered sets, ties broken by lowest index. Returns a bitmask."""
    _check_instance(n, sets)
    uncovered = list(sets)
    chosen = 0
    while uncovered:
        counts = [0] * n
        for s in uncovered:
            for v in iter_bits(s):
                counts[v] += 1
        best = max(range(n), key=lambda v: (counts[v], -v))
        chosen |= 1 << best
        uncovered = [s for s in uncovered if not s >> best & 1]
    return chosen


def _reduce(sets):
    """Apply forced-singleton and dominated-set rules.

    Returns (forced_mask, remaining_sets). The reduced instance has
    exactly the same hitting sets as the original: singletons force
    their element into every hitting set, and a superset of a kept set
    is hit whenever the subset is.
    """
    forced = 0
    work = set(sets)
    while True:
        singles = [s for s in work if s.bit_count() == 1]
        if not singles:
            break
        for s in singles:
            forced |= s
        work = {s for s in work if not s & forced}
    # dominated-set removal: drop any set containing another kept set
    kept = []
    for s in sorted(work, key=lambda s: (s.bit_count(), s)):
        if not any(k & ~s == 0 for k in kept):
            kept.append(s)
    return forced, kept


def _packing_bound(sets):
    """Size of a maximal pairwise-disjoint subfamily: every member needs
    its own element, so this lower-bounds the hitting set size."""
    used = 0
    count = 0
    for s in sets:
        if not s & used:
            used |= s
            count += 1
    return count


def _lex_search(n, sets, budget, start=0):
    """First (lex-smallest) hitting set of at most ``budget`` vertices,
    choosing vertices in increasing index order, or None."""
    if not sets:
        return 0
    if budget == 0:
        return None
    if _packing_bound(sets) > budget:
        return None
    avail = -1 << start
    union = 0
    for s in sets:
        if not s & avail:
            return None  # some set only has vertices already skipped
        union |= s
    for v in range(start, n):
        bit = 1 << v
        if not union & bit:
            continue
        rest = [s for s in sets if not s & bit]
        sub = _lex_search(n, rest, budget - 1, v + 1)
        if sub is not None:
            return bit | sub
    return None


def min_hitting_exact(n, sets, use_reductions=True):
    """Exact minimum hitting set with the lexicographically smallest
    optimal witness (compared as sorted vertex-index sequences).

    An empty family yields the empty set of cardinality 0.
    """
    _check_instance(n, sets)
    if use_reductions:
        forced, work = _reduce(sets)
    else:
        forced, work = 0, sorted(set(sets), key=lambda s: (s.bit_count(), s))
    if not work:
        return HittingSolution(forced, forced.bit_count())
    ub = greedy_hitting(n, work).bit_count()
    for extra in range(_packing_bound(work), ub + 1):
        found = _lex_search(n, work, extra)
        if found is not None:
            # forced vertices belong to every hitting set, and every
            # optimum uses exactly ``extra`` further vertices, so the
            # first solution in index order is the lex-min optimum.
            mask = forced | found
            return HittingSolution(mask, mask.bit_count())
    raise AssertionError("greedy bound unreachable")  # pragma: no cover


def brute_force_min_hitting(n, sets):
    """Independent oracle: enumerate subsets by cardinality then lex
    order and return the first hitting set. Exponential; tests only."""
    _check_instance(n, sets)
    if not sets:
        return HittingSolution(0, 0)
    for k in range(0, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if verify_hitting(sets, mask):
                return HittingSolution(mask, k)
    raise AssertionError("full universe must hit every non-empty set")
