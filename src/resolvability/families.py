"""Distance-derived resolver families, all built by one kernel.

Each distance row d(x, .) is packed into one int holding d(x, w) in
byte w (a graph within the solver's 62-vertex universe has distances
below 62, so a byte holds them with the offsets below). ``_pair_family``
reads the set {w : byte w of a ^ b is non-zero} off a pair (a, b) of
packed rows by one byte translation and one base-2 parse, with no loop
over vertices, and every family's sets come from that kernel on pairs
of row combinations. With ONES the row holding 1 in every byte:

- vertex, edge and mixed pair families (beta, beta_E, beta_M): the
  resolver set {w : d(x,w) != d(y,w)} of two items, read off their
  rows; an edge uv has the row min(d(u,.), d(v,.)). The mixed family is
  the vertex and edge pair families followed by the vertex-edge pairs,
  so ``compose_mixed_family`` builds it from the other two;
- weak family (mhs_<=): {Wbar(u,v), Wbar(v,u)} over the edges uv, with
  Wbar(u,v) = {w : d(u,w) >= d(v,w)}. On an edge d(u,w) - d(v,w) is -1,
  0 or 1, so Wbar(u,v) = {w : d(u,w) + 1 != d(v,w)}, read off
  (row_u + ONES, row_v);
- strict family (mhs_<): {W(u,v), W(v,u)}, with
  W(u,v) = {w : d(u,w) < d(v,w)} the complement of Wbar(u,v), so it
  is the weak family with each set complemented;
- psi family: byte s of z = row_u + 64 ONES - row_v is
  d(u,s) - d(v,s) + 64, with no borrow, so the complement of the level
  set of the value k - 64 is read off (z, k ONES).

A family is its sets alone, in the order its builder documents. All
set-building functions are pure functions of immutable inputs.
"""

from itertools import combinations, product


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


# a bytes.translate table mapping byte 0 to "0" and every other byte to
# "1": it turns the bytes of the XOR of two packed rows into the binary
# text of their resolver set
NONZERO = b"0" + b"1" * 255


def _packed_rows(rows):
    """Each distance row as one int holding d(., w) in byte w. Rows of a
    graph with n <= 256 fit, its distances being at most n - 1."""
    return [int.from_bytes(bytes(row), "little") for row in rows]


def _ones(n):
    """The packed row holding 1 in each of its n bytes."""
    return int.from_bytes(b"\x01" * n, "little")


def _pair_family(n, pairs):
    """One set {w : byte w of x != byte w of y} per pair (x, y) of packed
    rows in ``pairs``, as a tuple in the order of ``pairs``. Byte w of
    x ^ y is non-zero iff x and y differ at w, and big-endian bytes put
    vertex n - 1 first, as base 2 reads it."""
    return tuple([int((x ^ y).to_bytes(n, "big").translate(NONZERO), 2)
                  for x, y in pairs])


def _edge_distance_rows(g, dist):
    """Packed distance rows d(e, .) of the edges in canonical order,
    using d(e, w) = min(d(u, w), d(v, w))."""
    return _packed_rows(map(min, dist[u], dist[v]) for u, v in g.edges())


def family_weak(g, dist):
    """Family {Wbar_uv, Wbar_vu} over all edges in canonical order, the
    (u, v) set before the (v, u) set; its minimum hitting set size is
    mhs_<=(G)."""
    rows = _packed_rows(dist)
    ones = _ones(g.n)
    return SetFamily(g.n, _pair_family(g.n, (
        pair for u, v in g.edges()
        for pair in ((rows[u] + ones, rows[v]), (rows[v] + ones, rows[u])))))


def family_strict(g, dist, weak):
    """Family {W_uv, W_vu} over all edges in canonical order, the (u, v)
    set before the (v, u) set; its minimum hitting set size is
    mhs_<(G). On an edge W(u,v) is the complement of Wbar(u,v), so the
    sets are those of g's built weak family, each complemented."""
    full = (1 << g.n) - 1
    return SetFamily(g.n, tuple([full ^ s for s in weak.sets]))


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


def _psi_levels(n, rows):
    """(z, k ONES) for each level set of s -> d(u,s) - d(v,s) with at
    least two vertices, pair by pair, in order of its least vertex."""
    ones = _ones(n)
    shift = 64 * ones
    for x, y in combinations(rows, 2):
        z = x + shift - y
        level = z.to_bytes(n, "little")
        for k in dict.fromkeys(level):  # in order of first occurrence
            if level.count(k) > 1:
                yield z, k * ones


def psi_family(g, dist):
    """Family whose minimum hitting sets are the minimum doubly resolving
    sets.

    A pair (u, v) is doubly resolved by S iff s -> d(u,s) - d(v,s) is
    non-constant on S, i.e. S lies inside none of its level sets C, i.e.
    S hits V - C. Level sets of one vertex only matter for |S| < 2, which
    the sets V - {s} rule out (a doubly resolving set has at least two
    vertices), so the family is, for each pair u < v in turn, V - C for
    each level set C with |C| >= 2 in order of its least vertex,
    followed by {V - {s} : s in V}.
    """
    n = g.n
    full = (1 << n) - 1
    return SetFamily(n, _pair_family(n, _psi_levels(n, _packed_rows(dist)))
                     + tuple([full ^ 1 << s for s in range(n)]))


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
