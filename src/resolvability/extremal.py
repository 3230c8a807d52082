"""Exhaustive enumeration and extremal-difference verification.

``enumerate_connected`` walks every labeled connected simple graph of
order n <= 7 in edge-mask order. It runs in blocks: for each
neighbourhood of the last two vertices, over the graphs on the other
vertices, keeping those whose every component the neighbourhoods meet.
``sources`` serves each order n >= 2 of a sweep from a named graph6
stream (one graph per line; required above 7) or else the builtin
enumeration; a stream's exhaustiveness is the caller's claim, not ours.

``sweep`` is one loop over ``GraphSource.graphs()`` for either kind of
source. Because all six invariants are functions of the unlabeled
graph, the maximum of a difference over the labeled stream equals the
maximum over isomorphism classes, and the first maximizer is the first
graph of some class. So the sweep computes the invariants once per
class, on the class's first graph in stream order, and checks the
pointwise laws there too, so a law failure is reported at the first
graph of its class. The builtin enumeration yields exactly those first
graphs (853 of 1,866,256 at n = 7), each with its index in the labeled
stream. A graph6 stream yields every graph, and the sweep folds it by
isomorphism class (``canon.canonical_form``) at every order.
"""

from dataclasses import dataclass, field
from itertools import compress
from operator import add, or_

from .canon import canonical_form, canonical_labeling
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
        _check_builtin(n)
        return cls("enumeration", n=n)

    @classmethod
    def graph6_file(cls, path, n=None):
        return cls("graph6", n=n, path=path)

    def graphs(self):
        """Yield ``(index, graph)`` pairs in stream order, where index is
        the graph's position in the labeled stream.

        A graph6 stream yields every graph; ``sweep`` folds it by class.
        It must hold graphs of one order (``n`` if given, else the first
        graph's) and only connected graphs; the first line that breaks
        this or is not graph6 raises GraphError naming the file and the
        line, and so does a stream with no graph at all.

        The enumeration stands for the stream ``enumerate_connected(n)``
        but yields only the first graph of each isomorphism class. The
        last of them is the stream's last graph, K_n, so the last index
        + 1 is the labeled total.
        """
        if self.kind == "enumeration":
            yield from _class_firsts(self.n)
            return
        order = self.n
        index = 0
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
                yield index, g
                index += 1
        if not index:
            raise GraphError(f"{self.path}: stream holds no graphs")


def sources(lo, hi, streams=None):
    """One GraphSource per order lo..hi, in order: the graph6 file that
    ``streams`` (order -> path) names for an order, else the builtin
    enumeration. Raises GraphError before any graph is read if lo < 2, a
    stream's order lies outside lo..hi or an order above 7 has no
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
    return [GraphSource.graph6_file(streams[n], n=n) if n in streams
            else GraphSource.enumeration(n) for n in range(lo, hi + 1)]


def enumerate_connected(n):
    """Yield every labeled connected simple graph on n vertices exactly
    once, in increasing edge-mask order (mask bit b is the b-th pair
    (i, j), i < j, in column order)."""
    _check_builtin(n)
    small, comps = _small_graphs(n - 2)
    for na, nb, connected in _blocks(n, comps):
        extra, tail = _lift(n, na, nb)
        for s in compress(small, connected):
            yield Graph(n, (*map(or_, s, extra), *tail))


def _class_firsts(n):
    """Yield ``(index, graph)`` for the first graph of each isomorphism
    class of ``enumerate_connected(n)``, in stream order, with its
    position in that stream. The last one is K_n, the stream's last
    graph and the only graph of its class.

    A graph is (s, na, nb): s on the vertices 0..a-1 (a = n - 2), na
    the neighbourhood of vertex a and nb that of b = n - 1, with a-b bit
    hb. Relabeling s by its canonical labeling pi_s, fixing a and b,
    gives (s*, pi_s(na), pi_s(nb)), so graphs with equal keys (hb,
    class of s, pi_s(na), pi_s(nb)) are isomorphic, and so are graphs
    whose keys differ by an automorphism of s*. The key of a graph G
    rooted at an ordered pair (p, q) of its vertices is the key of G
    relabeled so that p and q become a and b and the other vertices
    keep their order; a graph's own key is its key rooted at (a, b).

    A graph is yielded iff its own key is not marked, and when G is
    yielded, the Aut(s*)-orbit of its key rooted at every (p, q) is
    marked. This yields exactly the first graph of each class. If a
    later graph H is isomorphic to G by phi, then phi sends H's (a, b)
    to some (p, q) of G and H - {a, b} onto G - {p, q}, so H's own key
    and G's key rooted at (p, q) differ by an automorphism of s*: H's
    key is marked and H is skipped. A key is marked only by a graph
    yielded earlier, which is isomorphic to every graph with a key in
    that orbit, so no first graph of a class is skipped.

    Each block keys its graphs by maps over per-s tables and tests the
    keys against a byte per key; a graph with an unmarked key is
    rechecked (an earlier graph of its block may have marked it), then
    built, marks its class's keys and is yielded. No table outlives
    the call.
    """
    _check_builtin(n)
    a = n - 2
    small, comps = _small_graphs(a)
    # per small graph s: class id, and pi_s of every neighbourhood mask
    # (moved[m][s], a byte); per class: each automorphism of s*, as a
    # map of masks
    forms, sids, autos = {}, [], []
    moved = [bytearray(len(small)) for _ in range(1 << a)]
    for si, s in enumerate(small):
        form, orders = canonical_labeling(a, s)
        sid = forms.setdefault(form, len(forms))
        sids.append(sid)
        if sid == len(autos):
            # two leaf orders differ by an automorphism: j -> pos_i[order_0[j]]
            autos.append([_mask_map([pos[v] for v in orders[0]])
                          for pos in map(_inverse, orders)])
        for col, x in zip(moved, _mask_map(_inverse(orders[0]))):
            col[si] = x
    # key = ((hb * classes + id) << a | pi_s(na)) << a | pi_s(nb & low)
    low, width = (1 << a) - 1, 1 << 2 * a
    # the tables' ints are shared objects (as few as the distinct values),
    # so each list costs a pointer per small graph
    head = [i * width for i in range(2 * len(forms))]
    heads = [[head[hb * len(forms) + i] for i in sids] for hb in (0, 1)]
    shifted = [x << a for x in range(1 << a)]
    na_part = [[shifted[x] for x in col] for col in moved]
    seen = bytearray(2 * len(forms) * width)
    # per root pair p < q: the row map that sends the other vertices, in
    # order, to 0..a-1 (and p, q to a, b), and for each j in 1..a-1 the
    # j-th other vertex, the mask of 0..j-1 and the place of its bits in
    # the column-order edge mask of G - {p, q}, which indexes small
    roots = []
    for q in range(1, n):
        for p in range(q):
            others = [v for v in range(n) if v != p and v != q]
            to = _inverse(others + [p, q])
            roots.append((p, q, _mask_map(to), [
                (v, (1 << j) - 1, j * (j - 1) // 2)
                for j, v in enumerate(others) if j]))

    def mark(adj):
        """Mark the Aut(s*)-orbit of adj's key rooted at every (p, q)."""
        for p, q, to, gather in roots:
            si = sum((to[adj[v]] & below) << place
                     for v, below, place in gather)
            sid = sids[si]
            base = head[(adj[p] >> q & 1) * len(forms) + sid]
            x, y = moved[to[adj[p]] & low][si], moved[to[adj[q]] & low][si]
            for m in autos[sid]:
                seen[base | m[x] << a | m[y]] = 1  # rooted at (p, q)
                seen[base | m[y] << a | m[x]] = 1  # rooted at (q, p)

    index = 0
    for na, nb, connected in _blocks(n, comps):
        # nb >> a is the a-b bit hb
        keys = list(compress(map(add, map(add, heads[nb >> a], na_part[na]),
                                 moved[nb & low]), connected))
        flags = bytes(map(seen.__getitem__, keys))  # before this block's marks
        i = flags.find(0)
        if i >= 0:
            extra, tail = _lift(n, na, nb)
            graphs = list(compress(small, connected))
            while i >= 0:
                if not seen[keys[i]]:  # an earlier graph may have marked it
                    adj = (*map(or_, graphs[i], extra), *tail)
                    mark(adj)
                    yield index + i, Graph(n, adj)
                i = flags.find(0, i + 1)
        index += len(keys)


def _inverse(perm):
    """The inverse of a permutation given as a list."""
    inv = [0] * len(perm)
    for j, v in enumerate(perm):
        inv[v] = j
    return inv


def _mask_map(perm):
    """Image of every mask under the vertex map v -> perm[v], as bytes
    (so for at most 8 vertices)."""
    out = bytearray(1 << len(perm))
    for m in range(1, len(out)):
        out[m] = out[m & (m - 1)] | 1 << perm[(m & -m).bit_length() - 1]
    return bytes(out)


def _check_builtin(n):
    if not 2 <= n <= MAX_BUILTIN_N:
        raise GraphError(f"builtin enumeration supports 2 <= n <= {MAX_BUILTIN_N}")


def _small_graphs(a):
    """Every graph on the vertices 0..a-1 in mask order, as adjacency
    tuples, and the components of each."""
    small, comps = [()], [()]
    for v in range(a):
        small = [(*[x | (nv >> u & 1) << v for u, x in enumerate(s)], nv)
                 for nv in range(1 << v) for s in small]
        comps = [_join(c, nv, v) for nv in range(1 << v) for c in comps]
    return small, comps


def _blocks(n, small_comps):
    """Yield ``(na, nb, connected)`` for the labeled connected graphs on
    n vertices, in edge-mask order.

    The top n - 1 mask bits are the neighbourhood nb of the last vertex
    b and the bits below them a graph H on the other vertices, so the
    walk runs over nb and then over H in mask order. H is a small graph
    s on the first a = n - 2 vertices plus the neighbourhood na of
    vertex a. The graph is connected iff nb meets every component of H,
    and H's component partition is a byte-sized id per mask, so
    ``connected`` is one byte per small graph, in mask order, set iff s
    with na and nb is connected.
    """
    a, b = n - 2, n - 1
    # component partition id of each H, indexed by H's mask
    ids = {}
    part_id = bytearray(
        ids.setdefault(tuple(sorted(_join(comps, na, a))), len(ids))
        for na in range(1 << a) for comps in small_comps
    )
    size = len(small_comps)
    for nb in range(1, 1 << b):
        meets = bytes(all(c & nb for c in part) for part in ids)
        connected = part_id.translate(meets.ljust(256, b"\0"))
        for na in range(1 << a):
            yield na, nb, connected[na * size:(na + 1) * size]


def _lift(n, na, nb):
    """``(extra, tail)``: or-ing ``extra`` into a small graph's rows and
    appending ``tail`` gives the graph with na and nb."""
    a, b = n - 2, n - 1
    extra = [(na >> u & 1) << a | (nb >> u & 1) << b for u in range(a)]
    return extra, (na | (nb >> a & 1) << b, nb)


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


def _class_stats(g):
    """``(values, law violations)`` of g, which stand for every graph of
    its class."""
    n = g.n
    values = invariant_values(g)
    delta = max_degree(g)
    is_path = delta <= 2 and g.num_edges() == n - 1
    return values, _law_violations(
        n, values, is_maximal_neighbour_graph(g), delta, is_path)


@dataclass
class SweepResult:
    n: int
    graphs_scanned: int
    reports: dict  # (xi1, xi2) -> ExtremalReport
    law_failures: list = field(default_factory=list)  # (index, graph6, message)


def sweep(source, pairs=THEOREM_PAIRS):
    """One pass over a graph source, reducing the requested extremal
    differences (first maximizer in stream order wins) and collecting
    pointwise law failures, once per class.

    The builtin enumeration yields one graph per isomorphism class, and
    the sweep takes each. A graph6 stream yields every graph, so the
    sweep folds it, at every order, by isomorphism class
    (``canon.canonical_form``). Either way the invariants are computed
    on the first graph of each class; later graphs of the class repeat
    its values, so only first graphs enter the reduction, and a law
    failure is reported at the first graph of each failing class.
    ``graphs_scanned`` counts the labeled stream.
    """
    pairs = tuple(pairs)
    check_tags(tag for pair in pairs for tag in pair)
    fold = source.kind == "graph6"
    classes = set()  # canonical forms seen so far
    best = dict.fromkeys(pairs)  # (diff, first graph with it)
    failures = []
    for index, g in source.graphs():
        if fold:
            form = canonical_form(g.n, g.adj)
            if form in classes:
                continue
            classes.add(form)
        values, violations = _class_stats(g)
        for p in pairs:
            diff = values[p[0]] - values[p[1]]
            cur = best[p]
            if cur is None or diff > cur[0]:
                best[p] = (diff, g)
        if violations:
            g6 = write_graph6(g)
            failures.extend((index, g6, msg) for msg in violations)
    # graphs() yields at least one graph, and the stream's last graph
    # last, or raises
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
