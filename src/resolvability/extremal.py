"""Exhaustive enumeration and extremal-difference verification.

The builtin enumerator walks every labeled connected simple graph of
order n <= 7 in edge-mask order, with no isomorphism rejection. It runs
in blocks: for each neighbourhood of the last vertex, over the graphs on
the other vertices, keeping those whose every component the
neighbourhood meets. ``sources`` serves each order of a sweep from a
named graph6 stream (one graph per line; required above 7) or else the
enumerator; a stream's exhaustiveness is the caller's claim, not ours.

``sweep`` is one loop over ``GraphSource.graphs()`` for either kind of
source. Because all six invariants are functions of the unlabeled
graph, the maximum of a difference over the labeled stream equals the
maximum over isomorphism classes. Per graph the sweep computes only a
degree-sorted relabeling key (equal keys always mean isomorphic graphs)
and skips a key it has seen; the first graph of each key enters the
reduction and is where a law failure is reported. For n <= 7 a new key
is folded into its isomorphism class by ``canon.canonical_form``, so
the invariants are computed once per class; above 7 once per key. The
class table lives for one sweep.
"""

from dataclasses import dataclass, field
from itertools import compress
from operator import or_

from .canon import canonical_form, relabeled_mask
from .graph import (
    Graph,
    GraphError,
    is_connected,
    is_maximal_neighbour_graph,
    max_degree,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .invariants import check_tags, invariant_values

MAX_BUILTIN_N = 7

# Difference pairs appearing in the verification suite.
THEOREM_PAIRS = (
    ("mhs_weak", "psi"),
    ("psi", "mhs_weak"),
    ("mhs_weak", "mhs_strict"),
    ("mhs_strict", "mhs_weak"),
    ("mhs_strict", "beta_M"),
    ("beta_M", "mhs_strict"),
    ("psi", "beta_E"),
    ("beta_E", "psi"),
)


@dataclass(frozen=True)
class ExtremalReport:
    xi1: str
    xi2: str
    n: int
    max_diff: int
    witness_graph6: str
    graphs_scanned: int


@dataclass
class GraphSource:
    """Where graphs come from: builtin labeled enumeration (n <= 7) or a
    graph6 stream file."""

    kind: str  # "enumeration" | "graph6"
    n: int = None
    path: str = None

    @classmethod
    def enumeration(cls, n):
        if not 2 <= n <= MAX_BUILTIN_N:
            raise GraphError(
                f"builtin enumeration supports 2 <= n <= {MAX_BUILTIN_N}; "
                f"use a graph6 stream for n = {n}"
            )
        return cls("enumeration", n=n)

    @classmethod
    def graph6_file(cls, path, n=None):
        return cls("graph6", n=n, path=path)

    def graphs(self):
        """Yield the source's graphs. A graph6 stream must hold graphs of
        one order (``n`` if given, else the first graph's) and only
        connected graphs; the first line that breaks this or is not
        graph6 raises GraphError naming the file and the line, and so
        does a stream with no graph at all."""
        if self.kind == "enumeration":
            yield from enumerate_connected(self.n)
            return
        order = self.n
        empty = True
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
                if order is None:
                    order = g.n
                elif g.n != order:
                    raise GraphError(
                        f"{self.path}, line {line_no}: graph of order {g.n} "
                        f"in a stream of order {order}"
                    )
                if not is_connected(g):
                    raise GraphError(
                        f"{self.path}, line {line_no}: graph is disconnected")
                empty = False
                yield g
        if empty:
            raise GraphError(f"{self.path}: stream holds no graphs")


def sources(lo, hi, streams=None):
    """One GraphSource per order lo..hi, in order: the graph6 file that
    ``streams`` (order -> path) names for an order, else the builtin
    enumeration. Raises GraphError before any graph is read if a
    stream's order lies outside lo..hi or an order has no source."""
    streams = streams or {}
    outside = sorted(n for n in streams if not lo <= n <= hi)
    if outside:
        raise GraphError(f"stream for order {outside[0]} outside {lo}..{hi}")
    return [GraphSource.graph6_file(streams[n], n=n) if n in streams
            else GraphSource.enumeration(n) for n in range(lo, hi + 1)]


def enumerate_connected(n):
    """Yield every labeled connected simple graph on n vertices exactly
    once, in increasing edge-mask order (mask bit b is the b-th pair
    (i, j), i < j, in column order).

    The top n - 1 mask bits are the neighbourhood N of the last vertex
    and the bits below them a graph H on the other vertices, so the loop
    runs over N and then over H in mask order. The graph is connected
    iff N meets every component of H. H's component partition is a
    byte-sized id per mask, and H itself is the graph on the first
    n - 2 vertices (a table of all of them) plus the neighbourhood of
    vertex n - 2.
    """
    if not 2 <= n <= MAX_BUILTIN_N:
        raise GraphError(f"builtin enumeration supports 2 <= n <= {MAX_BUILTIN_N}")
    a, b = n - 2, n - 1  # the last two vertices
    # graphs on vertices 0..a-1 in mask order, each with its components
    small, small_comps = [()], [()]
    for v in range(a):
        small = [(*[x | (nv >> u & 1) << v for u, x in enumerate(s)], nv)
                 for nv in range(1 << v) for s in small]
        small_comps = [_join(comps, nv, v)
                       for nv in range(1 << v) for comps in small_comps]
    # component partition id of each H, indexed by H's mask; na is the
    # neighbourhood of vertex a, nb (below) that of vertex b
    ids = {}
    part_id = bytearray(
        ids.setdefault(tuple(sorted(_join(comps, na, a))), len(ids))
        for na in range(1 << a) for comps in small_comps
    )
    size = len(small)
    for nb in range(1, 1 << b):
        meets = bytes(all(c & nb for c in part) for part in ids)
        connected = part_id.translate(meets.ljust(256, b"\0"))
        for na in range(1 << a):
            # edges from the vertices below a to a and b
            extra = [(na >> u & 1) << a | (nb >> u & 1) << b for u in range(a)]
            tail = (na | (nb >> a & 1) << b, nb)
            for s in compress(small, connected[na * size:(na + 1) * size]):
                yield Graph(n, (*map(or_, s, extra), *tail))


def _join(comps, nv, v):
    """Components after adding vertex v with neighbourhood nv."""
    joined = 1 << v
    out = []
    for c in comps:
        if c & nv:
            joined |= c
        else:
            out.append(c)
    out.append(joined)
    return out


def _degree_sorted_key(n, adj):
    """Adjacency matrix after relabeling vertices by (degree, index).

    Key equality implies isomorphism (both graphs relabel to the same
    labeled graph), which makes it a sound cache key.
    """
    return relabeled_mask(
        n, adj, sorted(range(n), key=list(map(int.bit_count, adj)).__getitem__))


@dataclass(frozen=True)
class _ClassStats:
    values: dict
    law_violations: tuple


def _law_violations(n, values, maximal_neighbour, delta, is_path):
    """Pointwise statements that must hold on every connected graph:
    the mhs chain, the maximal-neighbour biconditionals, the log bound
    on beta_E and the path characterizations."""
    v = values
    out = []
    if not 2 <= v["mhs_weak"] <= v["mhs_strict"] <= n:
        out.append("mhs chain 2 <= mhs_weak <= mhs_strict <= n violated")
    if n >= 3 and v["mhs_weak"] > n - 1:
        out.append("mhs_weak <= n-1 violated")
    if v["mhs_weak"] > v["psi"]:
        out.append("psi >= mhs_weak violated")
    if v["mhs_strict"] > v["beta_M"]:
        out.append("beta_M >= mhs_strict violated")
    if not ((v["mhs_strict"] == n) == maximal_neighbour == (v["beta_M"] == n)):
        out.append("maximal-neighbour biconditional violated")
    if v["beta_E"] < (delta - 1).bit_length():
        out.append("beta_E >= ceil(log2 max_degree) violated")
    if (v["beta_E"] == 1) != is_path:
        out.append("beta_E = 1 iff path violated")
    if (v["beta_M"] == 2) != is_path:
        out.append("beta_M = 2 iff path violated")
    return tuple(out)


def _class_stats(classes, key, g):
    """Invariant values and law violations of g's class, computed on g
    itself the first time ``key`` appears in ``classes``. A key names a
    class of isomorphic graphs, so any member of the class gives the
    same values."""
    stats = classes.get(key)
    if stats is None:
        n = g.n
        values = invariant_values(g)
        delta = max_degree(g)
        is_path = delta <= 2 and g.num_edges() == n - 1
        stats = classes[key] = _ClassStats(values, _law_violations(
            n, values, is_maximal_neighbour_graph(g), delta, is_path))
    return stats


@dataclass
class SweepResult:
    n: int
    graphs_scanned: int
    reports: dict  # (xi1, xi2) -> ExtremalReport
    law_failures: list = field(default_factory=list)  # (index, graph6, message)


def sweep(source, pairs=THEOREM_PAIRS, law_checks=False):
    """One pass over a graph source, reducing the requested extremal
    differences (first maximizer in stream order wins) and optionally
    collecting pointwise law failures, once per degree-sorted key.

    Graphs with a key seen before are isomorphic to that key's first
    graph, so they repeat its values: only first graphs of their key
    enter the reduction, and a law failure is reported at the first
    graph of each failing key.
    """
    pairs = tuple(pairs)
    check_tags(tag for pair in pairs for tag in pair)
    classes = {}  # class -> _ClassStats, for this sweep only
    keys = set()  # degree-sorted keys seen so far
    best = dict.fromkeys(pairs)  # (diff, first graph with it)
    failures = []
    for index, g in enumerate(source.graphs()):
        key = _degree_sorted_key(g.n, g.adj)
        if key in keys:
            continue
        keys.add(key)
        if g.n <= MAX_BUILTIN_N:
            # fold the key into its isomorphism class; above this order
            # the canonical search, with no orbit pruning, would cost
            # K_n n! leaves
            key = canonical_form(g.n, g.adj)
        stats = _class_stats(classes, key, g)
        values = stats.values
        for p in pairs:
            diff = values[p[0]] - values[p[1]]
            cur = best[p]
            if cur is None or diff > cur[0]:
                best[p] = (diff, g)
        if law_checks and stats.law_violations:
            g6 = write_graph6(g)
            failures.extend((index, g6, msg) for msg in stats.law_violations)
    # graphs() yields at least one graph or raises
    n, scanned = g.n, index + 1
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
