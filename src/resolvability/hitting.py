"""Exact minimum hitting set over small universes (n <= 62).

Sets are ``int`` bitmasks over universe 0..n-1. The family is used
transposed: one bitmask per vertex over set indices, so "the sets still
unhit after picking v" is one AND and "the supersets of k" is the AND
over k's vertices. The transposition runs in C: every set fills a
fixed-width byte lane of one int, and the vertices are the columns of
that int's binary text. The exact solver runs reduction rules (forced
singletons, then dominated-set removal in one pass over the transposed
family), then transposes the reduced family for the search. A depth-first
search branches on vertices in increasing index order under a budget
that grows 1, 2, ...; it drops a node when an unhit set has only
vertices it already skipped, or when a disjoint packing of unhit sets,
cut to the vertices it may still choose, needs more than the budget.
Both prunes drop only subtrees without a solution, so the first
solution found is both minimum and lexicographically smallest (as a
sorted vertex sequence), and witnesses are deterministic. Every solver
returns its hitting set as a bitmask.
"""

from itertools import combinations, repeat

from .graph import iter_bits

MAX_UNIVERSE = 62


class InfeasibleInstanceError(ValueError):
    """The family contains an empty set, so no hitting set exists."""


def verify_hitting(sets, mask):
    """True iff ``mask`` intersects every set of the family."""
    return all(mask & s for s in sets)


def _check_instance(n, sets):
    if n > MAX_UNIVERSE:
        raise ValueError(f"universe size {n} exceeds {MAX_UNIVERSE}")
    if 0 in sets:
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


def _by_size(sets):
    """The distinct sets in (bit_count, value) order. Two stable sorts
    on C-level keys give that order without building key tuples."""
    order = sorted(set(sets))
    order.sort(key=int.bit_count)
    return order


def _columns(n, sets):
    """The non-empty list ``sets`` transposed: ``cover[v]`` is the
    bitmask of the indices of the sets containing v.

    Each set fills a byte lane of ``lane`` bits in one int, the first
    set in the lowest lane. Written in binary, that int is a text whose
    column v, every ``lane``-th character, read in base 2 is cover[v].
    """
    width = (n + 7) // 8
    lane = 8 * width
    packed = int.from_bytes(b"".join(map(
        int.to_bytes, reversed(sets), repeat(width), repeat("big"))), "big")
    text = format(packed, f"0{len(sets) * lane}b")
    return [int(text[lane - 1 - v::lane], 2) for v in range(n)]


def _reduce(n, sets):
    """Apply forced-singleton and dominated-set rules.

    Returns (forced_mask, remaining_sets). The reduced instance has
    exactly the same hitting sets as the original: singletons force
    their element into every hitting set, and a superset of a kept set
    is hit whenever the subset is.

    Dominated sets go in one pass over the transposed family in
    ``_by_size`` order, where every superset of a set comes after it.
    The first live set is kept; the AND of ``cover[v]`` over its
    vertices holds it and all its supersets, which stop being live. So a
    set is kept iff no kept set before it is a subset of it, and the
    kept sets come in ``_by_size`` order.
    """
    # one pass suffices: dropping the sets a forced vertex hits leaves
    # every other set as it was, so no new singleton appears
    forced = 0
    for s in sets:
        if s.bit_count() == 1:
            forced |= s
    work = {s for s in sets if not s & forced}
    if not work:
        return forced, []
    order = _by_size(work)
    cover = _columns(n, order)
    live = (1 << len(order)) - 1
    kept = []
    while live:
        s = order[(live & -live).bit_length() - 1]
        kept.append(s)
        supersets = live
        for v in iter_bits(s):
            supersets &= cover[v]
        live ^= supersets
    return forced, kept


def _transpose(n, sets):
    """Index the non-empty family by vertex: ``cover[v]`` is the bitmask
    of the indices of the sets containing v, and ``below[t]`` that of
    the sets whose vertices all lie below t (t = 0..n)."""
    cover = _columns(n, sets)
    everything = (1 << len(sets)) - 1
    below = [everything] * (n + 1)
    reaching = 0  # the sets with a vertex >= t
    for t in range(n - 1, -1, -1):
        reaching |= cover[t]
        below[t] = everything ^ reaching
    return cover, below


def min_hitting_exact(n, sets, use_reductions=True):
    """The bitmask of a minimum hitting set: the lexicographically
    smallest optimum, compared as sorted vertex-index sequences.

    After the reductions, the search tries budgets 1, 2, ... and returns
    the first hitting set it meets within a budget, choosing vertices in
    increasing index order. Its nodes are ``(unhit, budget, start)``:
    ``unhit`` is the bitmask of set indices not yet hit and only vertices
    >= ``start`` may still be chosen. Picking v leaves
    ``unhit & ~cover[v]``. A node is dropped when more than ``budget``
    unhit sets, each cut to the vertices >= ``start``, are pairwise
    disjoint; its branching stops at the first v with an unhit set lying
    wholly below v (``unhit & below[v]``), all of whose vertices were
    skipped. Both prunes drop only subtrees that hold no hitting set
    within the budget, so the first solution found is the one a plain
    index-order search would meet first: the lexicographically smallest
    optimum.

    An empty family yields the empty set, mask 0.
    """
    _check_instance(n, sets)
    if use_reductions:
        forced, work = _reduce(n, sets)
    else:
        forced, work = 0, _by_size(sets)
    if not work:
        return forced
    cover, below = _transpose(n, work)

    def search(unhit, budget, start):
        # every unhit set keeps a vertex >= start, since the loop below
        # stops before it skips the last vertex of an unhit set; so each
        # packed set clears at least itself and the packing loop ends
        if not unhit:
            return 0
        avail = -1 << start
        rest = unhit
        packed = 0
        while rest:
            packed += 1
            if packed > budget:
                return None
            s = work[(rest & -rest).bit_length() - 1] & avail
            while s:
                low = s & -s
                rest &= ~cover[low.bit_length() - 1]
                s ^= low
        for v in range(start, n):
            if unhit & below[v]:
                return None  # a set whose vertices were all skipped
            if unhit & cover[v]:
                sub = search(unhit & ~cover[v], budget - 1, v + 1)
                if sub is not None:
                    return 1 << v | sub
        return None

    # a budget below the packing bound fails in the root's packing loop
    everything = (1 << len(work)) - 1
    for extra in range(1, n + 1):
        found = search(everything, extra, 0)
        if found is not None:
            # forced vertices belong to every hitting set, and every
            # optimum uses exactly ``extra`` further vertices, so the
            # first solution in index order is the lex-min optimum.
            return forced | found
    raise AssertionError("the universe hits every set")  # pragma: no cover


def brute_force_min_hitting(n, sets):
    """Independent oracle: enumerate subsets by cardinality then lex
    order and return the first hitting set's bitmask. Exponential; tests
    only."""
    _check_instance(n, sets)
    for k in range(0, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if verify_hitting(sets, mask):
                return mask
    raise AssertionError("full universe must hit every non-empty set")
