"""Graph type, named-family generators, distances and degree queries.

Vertices are 0-based indices internally; user-facing output uses the
1-based labels v_1..v_n. Vertex sets are plain ``int`` bitmasks (bit v
set means vertex v is a member), which keeps the exact search code fast
and allocation-free.
"""

from itertools import combinations

# the largest order of a graph this package builds, reads or solves:
# that of the graph6 short form and the universe cap of the hitting-set
# solver, which reads it from here; its distances fit the family
# builders' byte rows
MAX_ORDER = 62


class GraphError(ValueError):
    """Invalid graph input (bad index, self-loop, parameter out of range)."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph.

    Carries one unreachable vertex pair as ``unreachable_pair`` (0-based).
    """

    def __init__(self, u, v):
        self.unreachable_pair = (u, v)
        super().__init__(
            f"graph is disconnected: no path between v_{u + 1} and v_{v + 1}"
        )


def iter_bits(mask):
    """Yield the indices of set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def mask_of(vertices):
    """Bitmask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_list(mask):
    """Sorted tuple of the indices of set bits of ``mask``."""
    return tuple(iter_bits(mask))


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``adj`` is a tuple of per-vertex neighbor bitmasks, symmetric and
    irreflexive by construction. Instances are immutable and safe to
    share across workers.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, adj):
        self.n = n
        self.adj = tuple(adj)

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"

    def edges(self):
        """Edges as (u, v) pairs with u < v, in canonical sorted order."""
        return [
            (u, v)
            for u in range(self.n)
            for v in iter_bits(self.adj[u])
            if u < v
        ]

    def num_edges(self):
        return sum(a.bit_count() for a in self.adj) // 2


def from_edge_list(n, edges):
    """Build a graph from vertex count and (u, v) pairs.

    Duplicate pairs (in either orientation) collapse to one edge.
    Raises GraphError on out-of-range indices or self-loops.
    """
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def is_connected(g):
    """True iff ``g`` is connected (an n=1 graph is connected)."""
    full = (1 << g.n) - 1
    return _reachable(g.adj) == full


def _reachable(adj, start=1, blocked=0):
    """The vertices reachable from the vertex set ``start`` (a bitmask;
    vertex 0 by default) by paths that avoid the vertex set ``blocked``."""
    seen = start | blocked
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen & ~blocked


def all_pairs_distances(g):
    """All-pairs hop distances by BFS, as a tuple of row tuples.

    The result ``d`` satisfies d[u][u] = 0, symmetry, d[u][v] = 1 iff
    uv is an edge, and the triangle inequality. Raises
    DisconnectedGraphError naming an unreachable pair.
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        seen = 1 << s
        frontier = seen
        depth = 0
        while frontier:
            depth += 1
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                row[v] = depth
        if seen != full:
            missing = (full & ~seen & -(full & ~seen)).bit_length() - 1
            raise DisconnectedGraphError(s, missing)
        rows.append(tuple(row))
    return tuple(rows)


def leaf_count(g):
    """Number of degree-1 vertices."""
    return sum(1 for a in g.adj if a.bit_count() == 1)


def max_degree(g):
    """Maximum vertex degree."""
    return max(a.bit_count() for a in g.adj)


def is_maximal_neighbour_graph(g):
    """True iff every vertex v has a neighbor u with N[v] a subset of N[u]."""
    if g.n < 2:
        raise GraphError("maximal-neighbour check requires at least 2 vertices")
    for v in range(g.n):
        closed_v = g.adj[v] | (1 << v)
        if not any(
            closed_v & ~(g.adj[u] | (1 << u)) == 0 for u in iter_bits(g.adj[v])
        ):
            return False
    return True


# --- named families ---------------------------------------------------------
#
# Labeling follows the usual 1-based conventions for these families
# (path endpoints v_1/v_n, star center v_1), mapped to 0-based indices.


def path(n):
    """Path P_n: v_1 - v_2 - ... - v_n."""
    if n < 2:
        raise GraphError(f"path requires n >= 2, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    """Cycle C_n."""
    if n < 3:
        raise GraphError(f"cycle requires n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    """Star S_n on n vertices: center v_1 adjacent to v_2..v_n."""
    if n < 3:
        raise GraphError(f"star requires n >= 3, got {n}")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete(n):
    """Complete graph K_n."""
    if n < 2:
        raise GraphError(f"complete requires n >= 2, got {n}")
    return from_edge_list(n, list(combinations(range(n), 2)))


def complete_bipartite(r, t):
    """Complete bipartite K_{r,t}; part one is v_1..v_r, part two the rest."""
    if r < 1 or t < 1:
        raise GraphError(f"complete_bipartite requires r, t >= 1, got ({r}, {t})")
    return from_edge_list(r + t, [(i, r + j) for i in range(r) for j in range(t)])


def t_prime_tree(n):
    """Caterpillar tree T'_n with m = n // 2: a spine v_1..v_{n-m+1} and a
    pendant leaf v_{n-m+i} hanging from v_i for i = 2..m. Has m + 1 leaves."""
    if n < 4:
        raise GraphError(f"t_prime_tree requires n >= 4, got {n}")
    m = n // 2
    edges = [(i - 1, i) for i in range(1, n - m + 1)]
    edges += [(i - 1, n - m + i - 1) for i in range(2, m + 1)]
    return from_edge_list(n, edges)


GENERATORS = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
    "complete": (complete, 1),
    "bipartite": (complete_bipartite, 2),
    "tprime": (t_prime_tree, 1),
}


def check_order(n, error=GraphError):
    """Raise ``error`` for an order above MAX_ORDER, before anything of
    that size is built."""
    if n > MAX_ORDER:
        raise error(f"graph order {n} exceeds {MAX_ORDER}, the largest supported")


def generate(spec):
    """Build a family graph from a spec string like ``path:7`` or
    ``bipartite:2,5``."""
    name, sep, rest = spec.partition(":")
    if name not in GENERATORS:
        raise GraphError(
            f"unknown family {name!r}; choose from {sorted(GENERATORS)}"
        )
    fn, arity = GENERATORS[name]
    if not sep:
        raise GraphError(f"family spec {spec!r} is missing parameters")
    try:
        params = [int(p) for p in rest.split(",")]
    except ValueError:
        raise GraphError(f"non-integer parameter in family spec {spec!r}") from None
    if len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {params}")
    check_order(sum(params))  # each family's order: its parameters' sum
    return fn(*params)


# --- edge-list text format ---------------------------------------------------


def parse_edge_list_text(text):
    """Parse the edge-list text format: first line "n m", then m lines
    "u v" with 1-based vertex labels."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    try:
        n, m = map(int, lines[0][1].split())
    except ValueError:
        raise GraphError(f"bad header line {lines[0][1]!r}, expected 'n m'") from None
    check_order(n)
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for no, ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphError(f"line {no}: bad edge line {ln!r}, expected 'u v'") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"line {no}: edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise GraphError(f"line {no}: self-loop at vertex {u} is not allowed")
        edges.append((u - 1, v - 1))
    return from_edge_list(n, edges)
