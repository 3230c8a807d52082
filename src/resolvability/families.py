"""Distance-derived vertex sets and resolver families.

For each edge uv the strict sets W(u,v) = {w : d(u,w) < d(v,w)} and
their complements Wbar(u,v) = {w : d(u,w) >= d(v,w)} drive the two
hitting-set invariants. Pair families hold, for every unordered pair of
items (vertices, edges, or both), the set of vertices that resolve the
pair; minimum hitting sets of those families are the metric, edge
metric and mixed metric dimensions. The mixed family is the vertex and
edge pair families followed by the vertex-edge pairs, so
``compose_mixed_family`` builds it from the other two without
recomputing their sets. The psi family holds, for every vertex pair,
the complements of the level sets of s -> d(u,s) - d(v,s); its minimum
hitting sets are the minimum doubly resolving sets.

The pair builders pack each distance row once into an int holding
d(., w) in byte w (a graph within the solver's 62-vertex universe has
distances below 62). The resolver set of two packed rows is then read
off the bytes of their XOR, non-zero exactly where the rows differ, by
one byte translation and one base-2 parse, with no loop over vertices.

A family is its sets alone, in the order its builder documents. All
set-building functions are pure functions of immutable inputs.
"""

from itertools import combinations, product

from .graph import GraphError


class SetFamily:
    """Ordered family of vertex subsets (bitmasks) over universe 0..n-1."""

    __slots__ = ("n", "sets", "__weakref__")

    def __init__(self, n, sets):
        self.n = n
        self.sets = sets

    def __eq__(self, other):
        return (isinstance(other, SetFamily) and self.n == other.n
                and self.sets == other.sets)

    def __hash__(self):
        return hash((self.n, self.sets))

    def __repr__(self):
        return f"SetFamily(n={self.n}, sets={self.sets!r})"


def _require_adjacent(dist, u, v):
    if u == v or dist[u][v] != 1:
        raise GraphError(f"vertices v_{u + 1} and v_{v + 1} are not adjacent")


def w_sets(dist, u, v):
    """The five per-edge sets (W_uv, W_vu, Wbar_uv, Wbar_vu, uWv) as
    bitmasks, where uWv is the set of vertices equidistant from u and v.

    Requires uv to be an edge; d(u,v) = 1 certifies adjacency.
    """
    _require_adjacent(dist, u, v)
    n = len(dist)
    du, dv = dist[u], dist[v]
    w_uv = w_vu = eq = 0
    for w in range(n):
        a, b = du[w], dv[w]
        if a < b:
            w_uv |= 1 << w
        elif b < a:
            w_vu |= 1 << w
        else:
            eq |= 1 << w
    full = (1 << n) - 1
    return w_uv, w_vu, full & ~w_uv, full & ~w_vu, eq


def _w_family(g, dist, first):
    """Sets ``w_sets(...)[first]`` and ``[first + 1]`` over all edges in
    canonical order, the (u, v) set before the (v, u) set."""
    sets = []
    for u, v in g.edges():
        sets.extend(w_sets(dist, u, v)[first:first + 2])
    return SetFamily(g.n, tuple(sets))


def family_strict(g, dist):
    """Family {W_uv, W_vu} over all edges; its minimum hitting set size
    is mhs_<(G)."""
    return _w_family(g, dist, 0)


def family_weak(g, dist):
    """Family {Wbar_uv, Wbar_vu} over all edges; its minimum hitting set
    size is mhs_<=(G)."""
    return _w_family(g, dist, 2)


# a bytes.translate table mapping byte 0 to "0" and every other byte to
# "1": it turns the bytes of the XOR of two packed rows into the binary
# text of their resolver set
NONZERO = b"0" + b"1" * 255


def _packed_rows(rows):
    """Each distance row as one int holding d(., w) in byte w. Rows of a
    graph with n <= 256 fit, its distances being at most n - 1."""
    return [int.from_bytes(bytes(row), "little") for row in rows]


def _pair_family(n, pairs):
    """One resolver set {w : x[w] != y[w]} per pair (x, y) of packed
    distance rows in ``pairs``, as a tuple in the order of ``pairs``.
    Byte w of x ^ y is non-zero iff x and y differ at w, and big-endian
    bytes put vertex n - 1 first, as base 2 reads it."""
    return tuple([int((x ^ y).to_bytes(n, "big").translate(NONZERO), 2)
                  for x, y in pairs])


def _edge_distance_rows(g, dist):
    """Packed distance rows d(e, .) of the edges in canonical order,
    using d(e, w) = min(d(u, w), d(v, w))."""
    return _packed_rows(map(min, dist[u], dist[v]) for u, v in g.edges())


def vertex_pair_family(g, dist):
    """One resolver set per unordered pair of distinct vertices:
    {w : d(u,w) != d(v,w)}."""
    return SetFamily(g.n, _pair_family(
        g.n, combinations(_packed_rows(dist), 2)))


def edge_pair_family(g, dist):
    """One resolver set per unordered pair of distinct edges."""
    return SetFamily(g.n, _pair_family(
        g.n, combinations(_edge_distance_rows(g, dist), 2)))


def compose_mixed_family(g, dist, vertex, edge):
    """The mixed pair family from g's built vertex and edge pair
    families: their sets, then one resolver set per (vertex, edge) pair
    in vertex-major order. Only the vertex-edge sets are computed."""
    cross = _pair_family(g.n, product(
        _packed_rows(dist), _edge_distance_rows(g, dist)))
    return SetFamily(g.n, vertex.sets + edge.sets + cross)


def psi_family(g, dist):
    """Family whose minimum hitting sets are the minimum doubly resolving
    sets.

    A pair (u, v) is doubly resolved by S iff s -> d(u,s) - d(v,s) is
    non-constant on S, i.e. S lies inside none of its level sets C, i.e.
    S hits V - C. Level sets of one vertex only matter for |S| < 2, which
    the sets V - {s} rule out (a doubly resolving set has at least two
    vertices), so the family is {V - C : C a level set with |C| >= 2 of
    some pair} followed by {V - {s} : s in V}.
    """
    n = g.n
    full = (1 << n) - 1
    sets = []
    for u, v in combinations(range(n), 2):
        du, dv = dist[u], dist[v]
        classes = {}
        for s in range(n):
            key = du[s] - dv[s]
            classes[key] = classes.get(key, 0) | 1 << s
        for c in classes.values():
            if c.bit_count() >= 2:
                sets.append(full & ~c)
    sets.extend(full & ~(1 << s) for s in range(n))
    return SetFamily(n, tuple(sets))


def doubly_resolves(dist, x, y, u, v):
    """True iff the witness pair (x, y) doubly resolves (u, v), i.e.
    d(u,x) - d(u,y) != d(v,x) - d(v,y)."""
    return dist[u][x] - dist[u][y] != dist[v][x] - dist[v][y]


def is_doubly_resolving(dist, members):
    """True iff the vertex set doubly resolves every pair of distinct
    vertices. ``members`` is an iterable of vertex indices; sets of
    fewer than two vertices never doubly resolve.

    Equivalent to the two-witness definition: (u, v) is doubly resolved
    by some pair from S iff s -> d(u,s) - d(v,s) is non-constant on S.
    """
    s = tuple(members)
    if len(s) < 2:
        return False
    n = len(dist)
    s0, rest = s[0], s[1:]
    for u in range(n):
        du = dist[u]
        for v in range(u + 1, n):
            dv = dist[v]
            base = du[s0] - dv[s0]
            if all(du[t] - dv[t] == base for t in rest):
                return False
    return True
