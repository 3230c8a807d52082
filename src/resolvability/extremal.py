"""Exhaustive class sources and extremal-difference verification.

``GraphSource.enumeration(n)`` yields the connected graphs of order
2 <= n <= 9 up to isomorphism, one per class: the graph of the class's
canonical form (``canon.canonical_form``), decoded by ``canon``, which
owns the edge-mask layout, in increasing form order.
That graph is the class's first graph in the labeled stream, every
labeled connected graph of order n by increasing edge mask. The classes
of order n come from those of order n - 1 by adding one vertex (after
McKay, J. Algorithms 26 (1998)). ``sources`` serves each order n >= 2 of
a sweep from a named graph6 stream (one graph per line; required above
9) or else the builtin enumeration; a stream's exhaustiveness is the
caller's claim, not ours.

``sweep`` is one loop over ``GraphSource.graphs()`` for either kind of
source, over the difference pairs and pointwise laws its caller names:
``verify`` sweeps ``verify.THEOREM_PAIRS`` with ``verify.LAWS``,
``extremal_difference`` one pair and no law. This module states no
claim of its own. All six invariants are functions of the unlabeled
graph, so a difference's maximum over the labeled stream is its maximum
over the classes, first reached at the first graph of some class. So
the sweep computes the invariants and checks the caller's laws once per
class, on that graph; it folds a graph6 stream, which yields every
graph, by ``canon.canonical_form``.
"""

from collections import namedtuple
from functools import cache
from math import comb

from .canon import _inverse, _search, adjacency, canonical_form
from .graph import (
    Graph,
    GraphError,
    _reachable,
    is_connected,
    iter_bits,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .invariants import check_tags, invariant_values

MAX_BUILTIN_N = 9


ExtremalReport = namedtuple(
    "ExtremalReport", "xi1 xi2 n max_diff witness_graph6 graphs_scanned")


class GraphSource(namedtuple("GraphSource", "n path", defaults=(None,))):
    """Where the graphs of order n come from: the builtin class
    enumeration (n <= 9), or the graph6 stream file ``path``."""

    __slots__ = ()

    @classmethod
    def enumeration(cls, n):
        if not 2 <= n <= MAX_BUILTIN_N:
            raise GraphError(
                f"builtin enumeration supports 2 <= n <= {MAX_BUILTIN_N}")
        return cls(n)

    @classmethod
    def graph6_file(cls, path, n):
        return cls(n, path)

    def graphs(self):
        """Yield the source's graphs. The enumeration yields one graph
        per isomorphism class, the graph of its canonical form, in
        increasing form order: each class's first labeled graph, in
        stream order.

        A graph6 stream yields every graph; ``sweep`` folds it by class.
        It must hold only connected graphs of order ``n``; the first
        line that breaks this or is not graph6 raises GraphError naming
        the file and the line, and so does a stream with no graph at
        all.
        """
        if self.path is None:
            for form in sorted(_classes(self.n)):
                yield Graph(self.n, adjacency(self.n, form))
            return
        count = 0
        # non-ASCII bytes decode to surrogates, which parse_graph6 rejects
        with open(self.path, encoding="ascii", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    g = parse_graph6(line)
                except Graph6Error as exc:
                    raise Graph6Error(
                        f"{self.path}, line {line_no}: {exc}") from None
                if g.n != self.n:
                    raise GraphError(
                        f"{self.path}, line {line_no}: graph of order {g.n} "
                        f"in a stream of order {self.n}"
                    )
                if not is_connected(g):
                    raise GraphError(
                        f"{self.path}, line {line_no}: graph is disconnected")
                yield g
                count += 1
        if not count:
            raise GraphError(f"{self.path}: stream holds no graphs")


def sources(lo, hi, streams=None):
    """One GraphSource per order lo..hi, in order: the graph6 file that
    ``streams`` (order -> path) names for an order, else the builtin
    enumeration. Raises GraphError before any graph is read if lo < 2, a
    stream's order lies outside lo..hi or an order above 9 has no
    stream."""
    if lo < 2:
        raise GraphError(
            f"no sweep of order {lo}: invariants are defined for n >= 2")
    streams = streams or {}
    outside = sorted(n for n in streams if not lo <= n <= hi)
    if outside:
        raise GraphError(f"stream for order {outside[0]} outside {lo}..{hi}")
    for n in range(max(lo, MAX_BUILTIN_N + 1), hi + 1):
        if n not in streams:
            raise GraphError(
                f"builtin enumeration supports 2 <= n <= {MAX_BUILTIN_N}; "
                f"use a graph6 stream for n = {n}")
    return [GraphSource.graph6_file(streams[n], n) if n in streams
            else GraphSource.enumeration(n) for n in range(lo, hi + 1)]


@cache
def _classes(n):
    """``{form: automorphisms}`` over the classes of connected graphs of
    order n: each class's canonical form, and automorphisms of the
    form's graph (lists v -> image) that generate its group. Cached per
    order, so the sources of a range share one chain from order 1;
    callers only read the dicts.

    Every connected graph of order n >= 2 loses a vertex and stays
    connected (a leaf of a spanning tree), so it is a class of order
    n - 1, as its form's graph, with vertex n - 1 added on a nonempty
    neighbourhood S. An automorphism of the parent maps S to S' and the
    child on S onto the child on S', so one S per orbit of the parent's
    group reaches every class, and keeping only new forms keeps each
    class once.

    A child is searched only if its new vertex has the largest key
    (``_new_vertex_leads``) among its non-cut vertices. That loses no
    class: let v* be a non-cut vertex of G with the largest key. G - v*
    is connected, so its class is a parent, and the orbit
    representative of N(v*)'s image there builds a child isomorphic to
    G, with the new vertex in the place of v*. Keys and cut vertices are
    invariant under isomorphism, so that child passes.
    """
    if n == 1:
        return {0: []}
    out = {}
    for parent, gens in _classes(n - 1).items():
        adj = adjacency(n - 1, parent)
        for s in _subset_orbits(n - 1, gens):
            child = [a | (s >> v & 1) << n - 1 for v, a in enumerate(adj)]
            child.append(s)
            if not _new_vertex_leads(child):
                continue
            form, order, autos = _search(n, child)
            if form not in out:
                # vertex order[j] of the child is vertex j of the form's graph
                pos = _inverse(order)
                out[form] = [[pos[g[v]] for v in order] for g in autos]
    return out


def _new_vertex_leads(adj):
    """True iff no non-cut vertex of the connected graph ``adj`` has a
    larger key than its last vertex, which is not a cut vertex. The key
    of a vertex is (degree, sorted degrees of its neighbours)."""
    deg = [a.bit_count() for a in adj]
    last = len(adj) - 1
    top = deg[last]
    top_nbrs = None
    for v in range(last):
        if deg[v] < top:
            continue
        if deg[v] == top:
            if top_nbrs is None:
                top_nbrs = sorted(deg[w] for w in iter_bits(adj[last]))
            if sorted(deg[w] for w in iter_bits(adj[v])) <= top_nbrs:
                continue
        rest = (1 << last + 1) - 1 ^ 1 << v
        if _reachable(adj, 1 << last, 1 << v) == rest:
            return False
    return True


def _subset_orbits(m, gens):
    """Yield the least member of each orbit of the nonempty subsets of
    0..m-1 under the group that the permutations ``gens`` generate. Each
    generator's image of every subset is tabled first, a vertex at a
    time."""
    images = []  # per generator, the image of every subset
    for g in gens:
        image = [0]
        for v in range(m):
            bit = 1 << g[v]
            image += [x | bit for x in image]  # subsets holding v
        images.append(image)
    seen = bytearray(1 << m)
    for s in range(1, 1 << m):
        if seen[s]:
            continue
        seen[s] = 1
        todo = [s]
        for x in todo:  # todo grows as the orbit fills
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    todo.append(y)
        yield s


def _labeled_connected(n):
    """Labeled connected graphs on n vertices (OEIS A001187), by
    c_n = 2^C(n,2) - sum_{k<n} C(n-1, k-1) c_k 2^C(n-k,2), where term k
    counts the graphs whose component of vertex 0 has k vertices."""
    c = [0, 1]
    for m in range(2, n + 1):
        c.append(2 ** comb(m, 2) - sum(
            comb(m - 1, k - 1) * c[k] * 2 ** comb(m - k, 2)
            for k in range(1, m)))
    return c[n]


def _class_stats(g, laws):
    """``(values, messages of the laws it breaks)`` of g, which stand for
    every graph of its class."""
    values = invariant_values(g)
    return values, [msg for msg, holds in laws if not holds(g, values)]


# reports: (xi1, xi2) -> ExtremalReport; law_failures: (graph6, message)
SweepResult = namedtuple("SweepResult",
                         "n graphs_scanned reports law_failures")


def sweep(source, pairs, laws=()):
    """One pass over a graph source, reducing the extremal differences
    of the caller's ``pairs`` of tags (first maximizer in stream order
    wins) and collecting the failures of the caller's pointwise
    ``laws``, ``(message, holds(g, values))`` pairs such as
    ``verify.LAWS``, once per class. With no laws, none is evaluated.

    The builtin enumeration yields one graph per isomorphism class, and
    the sweep takes each. A graph6 stream yields every graph, so the
    sweep folds it, at every order, by isomorphism class
    (``canon.canonical_form``). Either way the invariants are computed
    on the first graph of each class; later graphs of the class repeat
    its values, so only first graphs enter the reduction, and a law
    failure is reported at the first graph of each failing class.
    ``graphs_scanned`` counts the labeled graphs the source stands for:
    every labeled connected graph of order n for the enumeration
    (OEIS A001187), and the stream's graphs for a stream.
    """
    pairs = tuple(pairs)
    check_tags(tag for pair in pairs for tag in pair)
    fold = source.path is not None
    classes = set()  # canonical forms seen so far
    best = dict.fromkeys(pairs)  # (diff, first graph with it)
    failures = []
    scanned = 0
    for g in source.graphs():
        scanned += 1
        if fold:
            form = canonical_form(g.n, g.adj)
            if form in classes:
                continue
            classes.add(form)
        values, violations = _class_stats(g, laws)
        for p in pairs:
            diff = values[p[0]] - values[p[1]]
            cur = best[p]
            if cur is None or diff > cur[0]:
                best[p] = (diff, g)
        if violations:
            g6 = write_graph6(g)
            failures.extend((g6, msg) for msg in violations)
    n = source.n
    if not fold:
        scanned = _labeled_connected(n)
    reports = {
        p: ExtremalReport(p[0], p[1], n, diff, write_graph6(w), scanned)
        for p, (diff, w) in best.items()
    }
    return SweepResult(n, scanned, reports, failures)


def extremal_difference(xi1, xi2, source):
    """Exact maximum of xi1(G) - xi2(G) over the source, with the first
    maximizer in stream order as witness."""
    result = sweep(source, pairs=((xi1, xi2),))
    return result.reports[(xi1, xi2)]
