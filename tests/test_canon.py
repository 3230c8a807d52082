import random
from itertools import compress, permutations

import pytest

from resolvability.canon import _search, canonical_form, relabeled_mask
from resolvability.graph import (
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
)

from conftest import (
    brute_force_classes, random_connected_graph, slot_unpack_enumeration)


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _brute_form(g):
    """Smallest sorted edge list over all relabelings of g."""
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges()))
        for p in permutations(range(g.n))
    )


def _adjacency(n, mask):
    """Adjacency masks of the graph with edge mask ``mask`` (bit b is the
    b-th pair (i, j), i < j, in column order)."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    adj = [0] * n
    for i, j in compress(pairs, (mask >> b & 1 for b in range(len(pairs)))):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _coset(n, adj):
    """``(form, orders)``: the form and the images of the search's best
    order under the group its automorphisms generate, the best first."""
    form, best, autos = _search(n, adj)
    orders, todo = {tuple(best)}, [best]
    for order in todo:  # todo grows as the closure finds new orders
        for image in {tuple([g[v] for v in order]) for g in autos} - orders:
            orders.add(image)
            todo.append(list(image))
    return form, todo


def _cube(d):
    return from_edge_list(1 << d, [(u, u | 1 << b) for u in range(1 << d)
                                   for b in range(d) if not u >> b & 1])


# |Aut|: K_8 8!, K_{4,4} 2 * 4! * 4!, C_8 16, Q_3 48
_NAMED = ((complete(8), 40320), (complete_bipartite(4, 4), 1152),
          (cycle(8), 16), (_cube(3), 48))


def _brute_form_mask(g):
    """``(least edge mask over all relabelings, number of relabelings
    with it)`` by brute force; the number is |Aut|."""
    bit = [[1 << max(i, j) * (max(i, j) - 1) // 2 + min(i, j)
            for j in range(g.n)] for i in range(g.n)]
    edges = g.edges()
    masks = [sum([bit[p[u]][p[v]] for u, v in edges])
             for p in permutations(range(g.n))]
    return min(masks), masks.count(min(masks))


def test_pruned_search_matches_unpruned_oracle():
    # every labeled graph with n <= 6, connected or not, keyed by the
    # brute-force form; then K_8, K_{4,4}, C_8 and Q_3
    for n in range(1, 7):
        for form, autos, masks in brute_force_classes(n, connected=False):
            for mask in masks:
                got, orders = _coset(n, _adjacency(n, mask))
                assert (got, len(orders)) == (form, autos)
    for g, autos in _NAMED:
        form, orders = _coset(g.n, g.adj)
        assert (form, len(orders)) == _brute_form_mask(g) == (form, autos)


def test_pruning_reaches_k16():
    # unpruned, K_16 has 16! leaves; pruned, 121
    g = complete(16)
    assert canonical_form(16, g.adj) == canonical_form(
        16, _relabel(g, list(reversed(range(16)))).adj)


def _petersen():
    return from_edge_list(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)]
                          + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])


def _z4_squared(steps):
    """Cayley graph of Z_4 x Z_4 with connection set +-steps."""
    steps = {(x % 4, y % 4) for a, b in steps for x, y in ((a, b), (-a, -b))}
    return from_edge_list(16, [
        (u, v) for v in range(16) for u in range(v)
        if ((v // 4 - u // 4) % 4, (v - u) % 4) in steps])


def _random_cubic(rng, n):
    """Random 3-regular simple graph on n vertices (pairing model)."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = {tuple(sorted(ends[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return from_edge_list(n, sorted(edges))


_LARGER = {
    "K_16": complete(16),
    "Q_5": _cube(5),
    "rook_4x4": _z4_squared([(0, 1), (0, 2), (1, 0), (2, 0)]),
    "shrikhande": _z4_squared([(0, 1), (1, 0), (1, 1)]),
    "petersen": _petersen(),
    **{f"cubic_{n}": _random_cubic(random.Random(n), n) for n in (10, 20, 30)},
}


@pytest.mark.parametrize("name", sorted(_LARGER))
def test_larger_graphs_invariant_under_relabeling(name):
    g = _LARGER[name]
    form, order, autos = _search(g.n, g.adj)
    assert relabeled_mask(g.n, g.adj, order) == form
    assert all(relabeled_mask(g.n, g.adj, a) == relabeled_mask(
        g.n, g.adj, range(g.n)) for a in autos)
    rng = random.Random(name)
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.n, _relabel(g, perm).adj) == form


def test_invariant_under_relabeling():
    rng = random.Random(2024)
    for _ in range(200):
        g = random_connected_graph(rng, 7, 7)
        form = canonical_form(g.n, g.adj)
        for _ in range(10):
            perm = list(range(7))
            rng.shuffle(perm)
            h = _relabel(g, perm)
            assert canonical_form(h.n, h.adj) == form


@pytest.mark.parametrize("n", range(2, 6))
def test_equal_forms_iff_isomorphic(n):
    # equal forms <=> equal brute-force forms, for every pair of graphs:
    # the map between the two kinds of form is one-to-one
    form_of_brute, brute_of_form = {}, {}
    for g in slot_unpack_enumeration(n):
        form, brute = canonical_form(n, g.adj), _brute_form(g)
        assert form_of_brute.setdefault(brute, form) == form
        assert brute_of_form.setdefault(form, brute) == brute


def test_class_counts():
    # connected graphs up to isomorphism, OEIS A001349
    counts = [len({canonical_form(n, g.adj)
                   for g in slot_unpack_enumeration(n)})
              for n in range(2, 7)]
    assert counts == [1, 2, 6, 21, 112]


@pytest.mark.parametrize("n", range(1, 6))
def test_labelings_are_the_automorphism_coset(n):
    # every graph on n vertices, connected or not: each order maps the
    # graph onto its form, and there is one order per automorphism
    for mask in range(1 << n * (n - 1) // 2):
        adj = _adjacency(n, mask)
        form, orders = _coset(n, adj)
        assert form == canonical_form(n, adj)
        assert all(relabeled_mask(n, adj, order) == form for order in orders)
        assert len(set(map(tuple, orders))) == len(orders)
        own = relabeled_mask(n, adj, range(n))
        autos = sum(relabeled_mask(n, adj, p) == own
                    for p in permutations(range(n)))
        assert len(orders) == autos


def test_empty_graph_labeling():
    assert _search(0, ()) == (0, [], [])
