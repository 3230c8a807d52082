import random
from itertools import permutations

import pytest

from resolvability.canon import canonical_form
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

