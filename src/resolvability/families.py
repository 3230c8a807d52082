"""Distance-derived resolver families.

Every builder takes one graph's ``Rows``, which makes the edge list,
the edge rows and each form of the distance rows at most once, and the
built families its own family is composed of.

Most sets are resolver sets {w : d(x,w) != d(y,w)} of two items x, y
with distance rows. Those come from bit-plane rows: a row holds, in
bits b*n .. b*n + n - 1, the vertices w whose distance has bit b set,
so the resolver set of two rows is their XOR with its planes ORed
together. An edge uv has the row d(e, .) = min(d(u, .), d(v, .)).

- vertex and edge pair families (beta, beta_E): the resolver set of
  each pair of vertices, and of each pair of edges;
- strict family (mhs_<): {W(u,v), W(v,u)} over the edges uv, with
  W(u,v) = {w : d(u,w) < d(v,w)}. On the edge e = uv, v and e differ
  exactly where u is the closer end, so W(u,v) is the resolver set of
  v and e: the strict sets are the cross sets of the edges' own ends;
- weak family (mhs_<=): {Wbar(u,v), Wbar(v,u)}, Wbar(u,v) =
  {w : d(u,w) >= d(v,w)} being the complement of W(u,v);
- mixed family (beta_M): the resolver sets of all pairs of items
  (vertices and edges). Its vertex-edge sets with the vertex on the
  edge are the strict sets, so it is composed of the vertex, edge and
  strict families, followed by the (n - 2)m cross sets of a vertex and
  an edge not containing it, the only sets ``compose_mixed_family``
  computes;
- psi family: its hitting sets are the doubly resolving sets, those
  hitting the complement of each level set of s -> d(u,s) - d(v,s).
  The complement of a pair's level-0 set is its vertex resolver set,
  and those of an edge's other level sets are its weak sets, so
  ``psi_family`` is composed of the vertex and weak families, followed
  by the complements of the other level sets of the other pairs and
  the sets V - {s}. It reads byte rows, one int holding d(u, w) in
  byte w: byte s of row_u + 64 ONES - row_v, ONES holding 1 in each
  byte, is d(u,s) - d(v,s) + 64 with no borrow, so each complement is
  one byte translation of that row away.

A family composed of others (its ``parts``) starts with their sets, in
the order its builder takes them, so it contains each of them; that is
what makes their optima lower bounds of its own. All set-building
functions are pure functions of immutable inputs.
"""

from functools import cached_property
from itertools import combinations, repeat, starmap
from operator import xor

from .hitting import reduce_family


class SetFamily:
    """Ordered family of vertex subsets (bitmasks) over universe 0..n-1:
    the sets of the families ``parts`` it is composed of, in order, then
    its own ``sets``."""

    __slots__ = ("n", "sets", "parts", "_own", "_reduced", "__weakref__")

    def __init__(self, n, sets, parts=()):
        self.n = n
        self.sets = sum([part.sets for part in parts], ()) + sets
        self.parts = parts
        self._own = sets
        self._reduced = None

    def reduction(self):
        """The ``(forced, kept)`` pair of ``reduce_family``, which has
        the hitting sets of ``sets``, made on first use and then kept.
        A composed family's is made from its parts' and its own sets."""
        if self._reduced is None:
            forced, kept = 0, []
            for part in self.parts:
                part_forced, part_kept = part.reduction()
                forced |= part_forced
                kept += part_kept
            self._reduced = reduce_family(self.n, kept + list(self._own),
                                          forced)
        return self._reduced


def _edge_distance_rows(rows, packed):
    """The byte rows d(e, .) = min(d(u, .), d(v, .)) of the edges uv,
    from vertex byte rows ``packed``, whole or masked to a vertex set:
    the ends' rows differ by at most 1 in each byte, so each byte of
    x + ONES - y is 0, 1 or 2, and 2, its bit 1, marks where y is less."""
    ones = rows.ones
    return [x - (x + ones - y >> 1 & ones)
            for x, y in [(packed[u], packed[v]) for u, v in rows.edges]]


# PLANES[b] is a bytes.translate table mapping each byte to "1" if it
# has bit b set and to "0" if not: runs of 2**b of each, in turn.
# Distances below 64 need b < 6
PLANES = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(6)]


def _plane_rows(n, depth, packed):
    """Each packed row of distances below 2**depth as one int holding,
    in bits b*n .. b*n + n - 1, the vertices whose distance has bit b
    set. Big-endian bytes put vertex n - 1 first; each plane comes off
    them by one byte translation, plane depth - 1 first, and the joined
    text is read in base 2."""
    tables = PLANES[depth - 1::-1]
    return [int(b"".join([text.translate(t) for t in tables]), 2)
            for text in [x.to_bytes(n, "big") for x in packed]]


def _fold(n, depth, xors):
    """The set {w : bit w of some plane of z is set} for each XOR z of
    two plane rows in ``xors``, as a tuple: the upper planes are ORed
    onto the lower ones, halving their number each time."""
    full = (1 << n) - 1
    while depth > 2:
        depth = (depth + 1) // 2
        shift = n * depth
        xors = [z | z >> shift for z in xors]
    if depth == 2:
        return tuple([(z | z >> n) & full for z in xors])
    return tuple(xors)


class Rows:
    """One graph's distance rows in the forms builders and predicates
    read: vertex rows as byte ints and as bit-plane ints, made at once,
    and, each on first use and then kept, the edge list, the edge rows
    as bit-plane ints and the strict sets, which the W-set families take."""

    def __init__(self, g, dist):
        self.g = g
        n = self.n = g.n
        # each row as one int holding d(., w) in byte w, a byte being
        # enough for the distances of a graph with n <= 62
        self.packed = [int.from_bytes(bytes(row), "little") for row in dist]
        self.ones = int.from_bytes(b"\x01" * n, "little")  # 1 in each byte
        # planes per bit-plane row: the bit length of the diameter
        self.depth = max(1, max(map(max, dist)).bit_length())
        self.planes = _plane_rows(n, self.depth, self.packed)

    def fold(self, xors):
        """The resolver set of each XOR of two plane rows in ``xors``,
        as a tuple."""
        return _fold(self.n, self.depth, xors)

    @cached_property
    def edges(self):
        return self.g.edges()

    @cached_property
    def edge_planes(self):
        return _plane_rows(self.n, self.depth,
                           _edge_distance_rows(self, self.packed))

    @cached_property
    def strict_sets(self):
        """W(u,v), then W(v,u), for each edge uv in canonical order."""
        planes = self.planes
        ends = [planes[x] for u, v in self.edges for x in (v, u)]
        doubled = [e for e in self.edge_planes for _ in (0, 1)]
        return self.fold(map(xor, ends, doubled))


def family_weak(rows):
    """Family {Wbar_uv, Wbar_vu} over all edges in canonical order, the
    (u, v) set before the (v, u) set; its minimum hitting set size is
    mhs_<=(G). Each set is the complement of the strict set at its
    place."""
    full = (1 << rows.n) - 1
    return SetFamily(rows.n, tuple([full ^ s for s in rows.strict_sets]))


def family_strict(rows):
    """Family {W_uv, W_vu} over all edges in canonical order, the (u, v)
    set before the (v, u) set; its minimum hitting set size is
    mhs_<(G)."""
    return SetFamily(rows.n, rows.strict_sets)


def vertex_pair_family(rows):
    """One resolver set per unordered pair of distinct vertices:
    {w : d(u,w) != d(v,w)}."""
    return SetFamily(rows.n, rows.fold(
        starmap(xor, combinations(rows.planes, 2))))


def edge_pair_family(rows):
    """One resolver set per unordered pair of distinct edges."""
    return SetFamily(rows.n, rows.fold(
        starmap(xor, combinations(rows.edge_planes, 2))))


def compose_mixed_family(rows, vertex, edge, strict):
    """The mixed pair family composed of the graph's built vertex, edge
    and strict families, followed, edge by edge in canonical order, by
    the resolver sets of the edge and each vertex not on it, in vertex
    order. Only those (n - 2)m sets are computed."""
    planes = rows.planes
    left, right = [], []
    for (u, v), e in zip(rows.edges, rows.edge_planes):
        others = planes[:u] + planes[u + 1:v] + planes[v + 1:]
        left += others
        right += repeat(e, len(others))
    return SetFamily(rows.n, rows.fold(map(xor, left, right)),
                     (vertex, edge, strict))


# LEVEL[k] is a bytes.translate table mapping byte k to "0" and every
# other byte to "1", a 256-byte window of ONE_ZERO with its "0" at k;
# the bytes of a psi level row are 64 +- a distance, below 128
ONE_ZERO = b"1" * 255 + b"0" + b"1" * 255
LEVEL = [ONE_ZERO[255 - k:511 - k] for k in range(128)]


def psi_family(rows, vertex, weak):
    """Family whose minimum hitting sets are the minimum doubly resolving
    sets, composed of the graph's built vertex pair and weak families.

    A pair (u, v) is doubly resolved by S iff s -> d(u,s) - d(v,s) is
    non-constant on S, i.e. S lies inside none of its level sets C, i.e.
    S hits V - C. Level sets of one vertex only matter for |S| < 2,
    which the sets V - {s} rule out (a doubly resolving set has at least
    two vertices). The complement of the level-0 set of (u, v) is their
    vertex resolver set, which is V or contains some V - {s} when that
    level set has fewer than two vertices. On an edge uv the function
    takes only the values -1, 0 and 1, and its level sets of -1 and 1
    are W(u,v) and W(v,u), so their complements are the weak sets
    Wbar(u,v) and Wbar(v,u); that of a level set of one vertex is a set
    V - {s} anyway. So the family is the vertex family, then the weak
    family, then, for each pair u < v that is not an edge, V - C for
    each level set C of a non-zero value with |C| >= 2 in order of its
    least vertex, then {V - {s} : s in V}. As it contains the weak
    family, mhs_<=(G) <= psi(G). The big-endian bytes of each level row
    put vertex n - 1 first, as base 2 reads them.
    """
    n, packed, adj = rows.n, rows.packed, rows.g.adj
    full = (1 << n) - 1
    shift = 64 * rows.ones
    sets = []
    for u, v in combinations(range(n), 2):
        if adj[u] >> v & 1:
            continue
        level = (packed[u] + shift - packed[v]).to_bytes(n, "big")
        for k in dict.fromkeys(level[::-1]):  # in order of least vertex
            if k != 64 and level.count(k) > 1:
                sets.append(int(level.translate(LEVEL[k]), 2))
    sets += [full ^ 1 << s for s in range(n)]
    return SetFamily(n, tuple(sets), (vertex, weak))


def _masked(rows, members):
    """Each vertex's distance vector to the vertex set ``members``: its
    byte row with the bytes of every other vertex cleared."""
    mask = sum([255 << 8 * t for t in set(members)])
    return [x & mask for x in rows.packed]


def _distinct(keys):
    return len(set(keys)) == len(keys)


def is_doubly_resolving(rows, members):
    """True iff the vertex set doubly resolves every pair of distinct
    vertices. ``members`` is an iterable of vertex indices; sets of
    fewer than two vertices never doubly resolve.

    Equivalent to the two-witness definition: (u, v) is doubly resolved
    by some pair from S iff s -> d(u,s) - d(v,s) is non-constant on S,
    i.e. iff the vectors (d(u,s) - d(u,s_0))_s and (d(v,s) - d(v,s_0))_s
    over s in S differ, s_0 being the first member. So u is keyed by its
    masked row + (64 - d(u,s_0)) ONES_S, ONES_S holding 1 in the bytes
    of S, whose byte s, d(u,s) - d(u,s_0) + 64, is in 3..125 (no carry).
    """
    s = tuple(members)
    if len(s) < 2:
        return False
    shift, ones = 8 * s[0], sum([1 << 8 * t for t in set(s)])
    return _distinct([x + (64 - (x >> shift & 255)) * ones
                      for x in _masked(rows, s)])


def is_mixed_resolving(rows, members):
    """True iff the vertex set resolves every pair of distinct items:
    the vertices and edges have distinct distance vectors to it."""
    keys = _masked(rows, members)
    return _distinct(keys + _edge_distance_rows(rows, keys))


def is_edge_resolving(rows, members):
    """True iff the edges have distinct distance vectors to the set."""
    return _distinct(_edge_distance_rows(rows, _masked(rows, members)))
