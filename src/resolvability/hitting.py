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
fixed-width lane of one int, and the vertices are the columns of that
int's binary text. The search runs on the family's reduction
(forced singletons, then dominated-set removal in one pass over the
transposed family), which a caller may hand in as a function that only
this path calls. It branches on vertices in increasing index order
under a budget that grows from a given lower bound on the optimum, or
1; it drops a node when an unhit set has only vertices it already
skipped, or when a disjoint packing of unhit sets, cut to the vertices
it may still choose, needs more than the budget. Both prunes drop only
subtrees without a solution, so the first solution found is both
minimum and lexicographically smallest.
"""

from functools import cache, reduce
from itertools import compress
from operator import not_, or_
from struct import pack

from .graph import MAX_ORDER

SMALL_UNIVERSE = 9


class InfeasibleInstanceError(ValueError):
    """The family contains an empty set, so no hitting set exists."""


def verify_hitting(sets, mask):
    """True iff ``mask`` intersects every set of the family."""
    return all(mask & s for s in sets)


def _check_instance(n, sets, cap=MAX_ORDER):
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


# (lane width in bits, struct code) for universes of up to 16, 32 and
# 64 vertices
LANES = ((16, "H"), (32, "I"), (64, "Q"))


def _columns(n, sets):
    """The non-empty list ``sets`` transposed: ``cover[v]`` is the
    bitmask of the indices of the sets containing v.

    ``struct.pack`` puts each set in a lane of ``lane`` bits of one
    little-endian int, the first set in the lowest lane. Written in
    binary, that int is a text whose column v, every ``lane``-th
    character, read in base 2 is cover[v].
    """
    lane, code = next(kind for kind in LANES if kind[0] >= n)
    packed = int.from_bytes(pack(f"<{len(sets)}{code}", *sets), "little")
    text = format(packed, f"0{len(sets) * lane}b")
    return [int(text[lane - 1 - v::lane], 2) for v in range(n)]


def reduce_family(n, sets, forced=0):
    """Apply forced-singleton and dominated-set rules.

    Returns (forced_mask, remaining_sets). The reduced instance has
    exactly the same hitting sets as the original plus the singletons
    of the given ``forced`` mask: singletons force their element into
    every hitting set, and a superset of a kept set is hit whenever the
    subset is. So the reduction of a family made of other families is
    that of their kept sets and forced masks.

    The distinct sets are taken in order of size, where the singletons
    lead and every superset of a set comes after it. Dominated sets then
    go in one pass over the transposed family. The first live set is
    kept; the AND of ``cover[v]`` over its vertices holds it and all its
    supersets, which stop being live. So a set is kept iff no kept set
    before it is a subset of it, that is iff no other set is a subset of
    it, whatever the order among sets of one size; the kept sets are
    returned in ``_by_size`` order.
    """
    order = sorted(set(sets), key=int.bit_count)
    lead = 0
    for s in order:
        if s & (s - 1):
            break
        forced |= s
        lead += 1
    # one pass suffices: dropping the sets a forced vertex hits leaves
    # every other set as it was, so no new singleton appears
    if forced:
        rest = order[lead:]
        order = list(compress(rest, map(not_, map(forced.__and__, rest))))
    if not order:
        return forced, []
    cover = _columns(n, order)
    live = (1 << len(order)) - 1
    kept = []
    while live:
        s = order[(live & -live).bit_length() - 1]
        kept.append(s)
        supersets = live
        while s:
            low = s & -s
            supersets &= cover[low.bit_length() - 1]
            s ^= low
        live ^= supersets
    return forced, _by_size(kept)


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


def _search(n, forced, work, lower=0):
    """``forced`` with the lexicographically smallest minimum hitting set
    of the sets ``work``, none of which holds a forced vertex, found by
    depth-first search. ``lower`` is a lower bound on the optimum of
    the whole instance, forced vertices included.

    The search tries budgets from the one ``lower`` leaves, or 1, upward
    and returns the first hitting set it meets within a budget, choosing
    vertices in increasing index order. Its nodes are
    ``(unhit, budget, start)``: ``unhit`` is the bitmask of set indices
    not yet hit and only vertices >= ``start`` may still be chosen.
    Picking v leaves ``unhit & ~cover[v]``. A node is dropped when more
    than ``budget`` unhit sets, each cut to the vertices >= ``start``,
    are pairwise disjoint; the sets that the packed set i clears, those
    meeting it in a vertex >= ``start``, are worked out once per
    (start, i) and kept. Branching stops at the first v with an unhit
    set lying wholly below v (``unhit & below[v]``), all of whose
    vertices were skipped. Both prunes drop only subtrees that hold no
    hitting set within the budget, and every budget below the optimum
    fails, so the first solution found is the one a plain index-order
    search would meet first: the lexicographically smallest optimum.
    """
    if not work:
        return forced
    cover, below = _transpose(n, work)
    # keeps[start][i]: the complement of the sets packed set i clears
    keeps = [[None] * len(work) for _ in range(n)]

    def search(unhit, budget, start):
        # every unhit set keeps a vertex >= start, since the loop below
        # stops before it skips the last vertex of an unhit set; so each
        # packed set clears at least itself and the packing loop ends
        if not unhit:
            return 0
        memo = keeps[start]
        rest = unhit
        packed = 0
        while rest:
            packed += 1
            if packed > budget:
                return None
            i = (rest & -rest).bit_length() - 1
            keep = memo[i]
            if keep is None:
                s = work[i] >> start << start
                hit = 0
                while s:
                    low = s & -s
                    hit |= cover[low.bit_length() - 1]
                    s ^= low
                keep = memo[i] = ~hit
            rest &= keep
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
    for extra in range(max(1, lower - forced.bit_count()), n + 1):
        found = search(everything, extra, 0)
        if found is not None:
            # forced vertices belong to every hitting set, and every
            # optimum uses exactly ``extra`` further vertices, so the
            # first solution in index order is the lex-min optimum.
            return forced | found
    raise AssertionError("the universe hits every set")  # pragma: no cover


def min_hitting_exact(n, sets, lower=0, reduced=None):
    """The bitmask of a minimum hitting set: the lexicographically
    smallest optimum, compared as sorted vertex-index sequences. An
    empty family yields the empty set, mask 0.

    For n > SMALL_UNIVERSE, ``lower`` is a lower bound on the optimum,
    such as the optimum of a family each of whose sets contains one of
    ``sets``, and the search starts its budgets there; ``reduced``, if
    given, is called with no arguments for the ``(forced, kept)`` pair
    of a reduction with the same hitting sets as ``sets``, such as
    ``SetFamily.reduction``, and the search starts from it in place of
    ``reduce_family(n, sets)``. The subset tables for smaller n read
    ``sets`` whole and use neither.
    """
    if n <= SMALL_UNIVERSE:
        return small_min_hitting(n, sets)
    _check_instance(n, sets)
    forced, work = reduce_family(n, sets) if reduced is None else reduced()
    return _search(n, forced, work, lower)
