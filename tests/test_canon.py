import random
from itertools import compress, permutations

import pytest

from resolvability.canon import canonical_form, canonical_labeling, relabeled_mask
from resolvability.extremal import enumerate_connected
from resolvability.graph import from_edge_list

from conftest import random_connected_graph


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _brute_form(g):
    """Smallest sorted edge list over all relabelings of g."""
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges()))
        for p in permutations(range(g.n))
    )


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
    for g in enumerate_connected(n):
        form, brute = canonical_form(n, g.adj), _brute_form(g)
        assert form_of_brute.setdefault(brute, form) == form
        assert brute_of_form.setdefault(form, brute) == brute


def test_class_counts():
    # connected graphs up to isomorphism, OEIS A001349
    counts = [len({canonical_form(n, g.adj) for g in enumerate_connected(n)})
              for n in range(2, 7)]
    assert counts == [1, 2, 6, 21, 112]




@pytest.mark.parametrize("n", range(1, 6))
def test_labelings_are_the_automorphism_coset(n):
    # every graph on n vertices, connected or not: each order maps the
    # graph onto its form, and there is one order per automorphism
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, j in compress(pairs, (mask >> b & 1 for b in range(len(pairs)))):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        form, orders = canonical_labeling(n, adj)
        assert form == canonical_form(n, adj)
        assert all(relabeled_mask(n, adj, order) == form for order in orders)
        assert len(set(map(tuple, orders))) == len(orders)
        own = relabeled_mask(n, adj, range(n))
        autos = sum(relabeled_mask(n, adj, p) == own
                    for p in permutations(range(n)))
        assert len(orders) == autos


def test_empty_graph_labeling():
    assert canonical_labeling(0, ()) == (0, [[]])
