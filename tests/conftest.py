import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from resolvability import (
    edge_pair_family, family_strict, family_weak, from_edge_list,
    invariant_values, vertex_pair_family)
from resolvability.canon import adjacency, canonical_form
from resolvability.extremal import THEOREM_PAIRS, GraphSource, sweep
from resolvability.families import compose_mixed_family
from resolvability.hitting import verify_hitting


def random_connected_graph(rng, n_min=2, n_max=12):
    """Random connected graph: random tree plus random extra edges."""
    n = rng.randint(n_min, n_max)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = rng.randint(0, len(possible) // 2)
    edges += rng.sample(possible, extra)
    return from_edge_list(n, edges)


def _connected_by_dfs(n, edge_set):
    """Independent connectivity check (adjacency lists + explicit stack)."""
    adj = {v: [] for v in range(n)}
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _slots(n):
    """The vertex pairs (i, j), i < j, in column order: bit b of an edge
    mask is the b-th pair."""
    return [(i, j) for j in range(1, n) for i in range(j)]


@lru_cache(maxsize=None)
def slot_unpack_enumeration(n):
    """Every labeled connected graph on n vertices, in increasing edge
    mask order (bit b is the b-th pair (i, j), i < j, in column order)."""
    slots = _slots(n)
    out = []
    for mask in range(1 << len(slots)):
        edges = [p for b, p in enumerate(slots) if mask >> b & 1]
        if _connected_by_dfs(n, edges):
            out.append(from_edge_list(n, edges))
    return tuple(out)


@lru_cache(maxsize=None)
def brute_force_classes(n, connected=True):
    """``((form, |Aut|, masks of the class), ...)`` for the isomorphism
    classes of the (connected) graphs on n vertices, by a naive scan of
    the edge masks in increasing order keyed by the brute-force form,
    the least mask over all n! relabelings: each class appears at its
    first mask, which is its form. Shares no code with ``canon``."""
    slots = _slots(n)
    index = {p: b for b, p in enumerate(slots)}
    # per relabeling p: the image bit of each slot
    images = [[index[min(p[i], p[j]), max(p[i], p[j])] for i, j in slots]
              for p in permutations(range(n))]
    seen, out = set(), []
    for mask in range(1 << len(slots)):
        if mask in seen or connected and not _connected_by_dfs(
                n, [p for b, p in enumerate(slots) if mask >> b & 1]):
            continue
        bits = [b for b in range(len(slots)) if mask >> b & 1]
        masks = {sum(1 << image[b] for b in bits) for image in images}
        assert min(masks) == mask
        seen |= masks
        out.append((mask, len(images) // len(masks), frozenset(masks)))
    return tuple(out)


@lru_cache(maxsize=None)
def unfiltered_class_forms(n):
    """The canonical forms of the connected graphs of order n, grown
    from those of order n - 1 by a new vertex on every nonempty
    neighbourhood, each child keyed by ``canonical_form``: the class
    chain with no subset orbits and no prefilter."""
    if n == 1:
        return frozenset({0})
    forms = set()
    for parent in unfiltered_class_forms(n - 1):
        adj = adjacency(n - 1, parent)
        for s in range(1, 1 << n - 1):
            child = [a | (s >> v & 1) << n - 1 for v, a in enumerate(adj)]
            forms.add(canonical_form(n, child + [s]))
    return frozenset(forms)


def mixed_pair_family(g, dist):
    """The mixed pair family as the beta_M pipeline builds it: the
    vertex and edge pair families, then the vertex-edge pairs."""
    return compose_mixed_family(
        g, dist, vertex_pair_family(g, dist), edge_pair_family(g, dist))


def strict_family(g, dist):
    """The strict family as the mhs_strict pipeline builds it: the
    weak family, then its sets complemented."""
    return family_strict(g, dist, family_weak(g, dist))


def w_sets(dist, u, v):
    """The five sets (W_uv, W_vu, Wbar_uv, Wbar_vu, uWv) of the edge uv as
    bitmasks, uWv being the vertices equidistant from u and v, by
    comparing d(u, w) with d(v, w) vertex by vertex: the definitional
    reference for the strict and weak families."""
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


def reference_strict(g, dist):
    """W(u,v), then W(v,u), for each edge uv in canonical order."""
    return tuple(s for u, v in g.edges() for s in w_sets(dist, u, v)[:2])


def reference_weak(g, dist):
    """Wbar(u,v), then Wbar(v,u), for each edge uv in canonical order."""
    return tuple(s for u, v in g.edges() for s in w_sets(dist, u, v)[2:4])


def reference_psi(g, dist):
    """The psi family by its definition: for each pair u < v, V - C for
    each level set C of s -> d(u,s) - d(v,s) with |C| >= 2, in order of
    its least vertex; then V - {s} for each vertex s."""
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
    return tuple(sets)


def doubly_resolves(dist, x, y, u, v):
    """True iff the witness pair (x, y) doubly resolves (u, v), i.e.
    d(u,x) - d(u,y) != d(v,x) - d(v,y)."""
    return dist[u][x] - dist[u][y] != dist[v][x] - dist[v][y]


def brute_force_min_hitting(n, sets):
    """Independent oracle: enumerate subsets by cardinality then lex
    order and return the first hitting set's bitmask. Exponential."""
    for k in range(0, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if verify_hitting(sets, mask):
                return mask
    raise AssertionError("full universe must hit every non-empty set")


def random_hitting_instance(rng, max_universe=16, max_sets=24):
    """Random instance with no empty sets."""
    n = rng.randint(2, max_universe)
    k = rng.randint(1, max_sets)
    sets = []
    for _ in range(k):
        size = rng.randint(1, max(1, n // 2))
        sets.append(sum(1 << v for v in rng.sample(range(n), size)))
    return n, tuple(sets)


@pytest.fixture(scope="session")
def theorem_sweeps():
    """Memoized exhaustive sweeps (all theorem pairs + pointwise laws)."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = sweep(GraphSource.enumeration(n), THEOREM_PAIRS)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def connected_classes():
    """Memoized connected graphs of order n by isomorphism class: a list
    of (representative, its invariant_values, the labeled graphs of the
    class), the representative being the first graph enumerated with
    its canonical form, which is the builtin source's graph."""
    cache = {}

    def get(n):
        if n not in cache:
            members = {}
            for g in slot_unpack_enumeration(n):
                members.setdefault(canonical_form(n, g.adj), []).append(g)
            reps = [graphs[0] for graphs in members.values()]
            assert reps == list(GraphSource.enumeration(n).graphs())
            cache[n] = [(graphs[0], invariant_values(graphs[0]), graphs)
                        for graphs in members.values()]
        return cache[n]

    return get
