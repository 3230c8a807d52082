"""Exact minimum hitting set over small universes (n <= 62).

Sets are ``int`` bitmasks over universe 0..n-1. Every solver returns the
lexicographically smallest minimum hitting set (compared as sorted
vertex sequences) as a bitmask, so witnesses are deterministic.
``min_hitting_exact`` picks one of two exact solvers by n.

For n <= ``SMALL_UNIVERSE`` = 9, ``small_min_hitting`` reads the answer
off tables of all 2^n vertex subsets: a subset misses a set s iff it is
disjoint from s, so the OR of one precomputed 2^n-bit int per distinct
set marks every subset that is not a hitting set. The tables are built
for each n on first use, never at import, and kept for the process:
about 76 KB for every n <= 9. The cutoff is 9 because that is the
largest order the builtin class source sweeps; a cutoff of 12 holds
2 MB of tables and raised the peak RSS of the benchmark's graph panel
(orders 8 and up) by 1.4-1.7 MB, near that metric's 10% bound.

For larger n, a depth-first branch and bound. The family is used
transposed: one bitmask per vertex over set indices, so "the sets still
unhit after picking v" is one AND and "the supersets of k" is the AND
over k's vertices. The transposition runs in C: every set fills a
fixed-width byte lane of one int, and the vertices are the columns of
that int's binary text. The search runs reduction rules (forced
singletons, then dominated-set removal in one pass over the transposed
family), then transposes the reduced family for the search. It branches
on vertices in increasing index order under a budget that grows 1, 2,
...; it drops a node when an unhit set has only vertices it already
skipped, or when a disjoint packing of unhit sets, cut to the vertices
it may still choose, needs more than the budget. Both prunes drop only
subtrees without a solution, so the first solution found is both
minimum and lexicographically smallest.
"""

from functools import cache, reduce
from itertools import repeat
from operator import or_

from .graph import iter_bits

MAX_UNIVERSE = 62
SMALL_UNIVERSE = 9


class InfeasibleInstanceError(ValueError):
    """The family contains an empty set, so no hitting set exists."""


def verify_hitting(sets, mask):
    """True iff ``mask`` intersects every set of the family."""
    return all(mask & s for s in sets)


def _check_instance(n, sets, cap=MAX_UNIVERSE):
    if n > cap:
        raise ValueError(f"universe size {n} exceeds {cap}")
    if 0 in sets:
        raise InfeasibleInstanceError("family contains an empty set")


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


@cache
def _subset_tables(n):
    """``(avoid, layers, unrev)`` over the 2^n subsets of 0..n-1, each
    subset m placed at bit ``rev(m)``, which has vertex v at bit
    n - 1 - v. ``avoid[s]`` is the 2^n-bit int marking every subset
    disjoint from s; ``layers[k]`` marks the subsets of k vertices;
    ``unrev[rev(m)]`` is m."""
    inside = [1]  # inside[c] marks every subset of c
    for v in range(n):
        step = 1 << (n - 1 - v)
        inside += [x | x << step for x in inside]  # subsets of c | 1 << v
    unrev = [int(format(p, f"0{n}b")[::-1], 2) for p in range(1 << n)]
    layers = [0] * (n + 1)
    for p in range(1 << n):
        layers[p.bit_count()] |= 1 << p
    return inside[::-1], layers, unrev


def small_min_hitting(n, sets):
    """``min_hitting_exact`` for n <= SMALL_UNIVERSE, from subset tables.

    A subset misses s iff it is disjoint from s, so the OR of
    ``avoid[s]`` over the distinct sets marks every subset that is not a
    hitting set. Among those left, the least size is the optimum, and in
    a layer of one size the highest bit ``rev(m)`` is the m with the
    smallest first differing vertex: the lexicographically smallest
    optimum.
    """
    _check_instance(n, sets, SMALL_UNIVERSE)
    avoid, layers, unrev = _subset_tables(n)
    missing = reduce(or_, map(avoid.__getitem__, set(sets)), 0)
    for layer in layers:
        free = layer & ~missing
        if free:
            return unrev[free.bit_length() - 1]
    raise AssertionError("the universe hits every set")  # pragma: no cover


def _branch_and_bound(n, sets, use_reductions=True):
    """``min_hitting_exact`` by depth-first search, for any n <= 62;
    ``use_reductions=False`` searches the unreduced family.

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


def min_hitting_exact(n, sets):
    """The bitmask of a minimum hitting set: the lexicographically
    smallest optimum, compared as sorted vertex-index sequences. An
    empty family yields the empty set, mask 0."""
    if n <= SMALL_UNIVERSE:
        return small_min_hitting(n, sets)
    return _branch_and_bound(n, sets)
