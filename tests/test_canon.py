import random
from itertools import compress, permutations

import pytest

from resolvability.canon import (
    _refine,
    canonical_form,
    canonical_labeling,
    relabeled_mask,
)
from resolvability.extremal import GraphSource, enumerate_connected
from resolvability.graph import (
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    iter_bits,
)

from conftest import random_connected_graph


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _brute_form(g):
    """Smallest sorted edge list over all relabelings of g."""
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges()))
        for p in permutations(range(g.n))
    )


def _unpruned_leaves(n, adj):
    """Yield ``(relabeled mask, order)`` for every leaf of the search
    without automorphism pruning (K_n visits n! leaves)."""
    by_degree = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    stack = [_refine(adj, [by_degree[d] for d in sorted(by_degree)])]
    while stack:
        cells = stack.pop()
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            yield relabeled_mask(n, adj, order), order
            continue
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1:]
        for v in iter_bits(cell):
            bit = 1 << v
            stack.append(_refine(adj, head + [bit, cell & ~bit] + tail))


def _oracle_labeling(n, adj):
    """``(form, number of leaves with it)`` by the unpruned search; the
    number is |Aut|, as two leaves with the form differ by exactly one
    automorphism."""
    masks = [form for form, _ in _unpruned_leaves(n, adj)]
    return min(masks), masks.count(min(masks))


def _cube():
    return from_edge_list(8, [(u, u | 1 << b) for u in range(8)
                              for b in range(3) if not u >> b & 1])


# |Aut|: K_8 8!, K_{4,4} 2 * 4! * 4!, C_8 16, Q_3 48
_NAMED = ((complete(8), 40320), (complete_bipartite(4, 4), 1152),
          (cycle(8), 16), (_cube(), 48))


def test_pruned_search_matches_unpruned_oracle():
    # every builtin class with n <= 7, then K_8, K_{4,4}, C_8 and Q_3
    cases = [(g, None) for n in range(2, 8)
             for _, g in GraphSource.enumeration(n).graphs()]
    assert len(cases) == 1 + 2 + 6 + 21 + 112 + 853
    for g, autos in cases + list(_NAMED):
        form, orders = canonical_labeling(g.n, g.adj)
        assert (form, len(orders)) == _oracle_labeling(g.n, g.adj)
        assert autos in (None, len(orders))
        assert canonical_form(g.n, g.adj) == form
        assert all(relabeled_mask(g.n, g.adj, order) == form
                   for order in orders)
        assert len(set(map(tuple, orders))) == len(orders)


def test_pruning_reaches_k16():
    # unpruned, K_16 has 16! leaves; pruned, 121
    g = complete(16)
    assert canonical_form(16, g.adj) == canonical_form(
        16, _relabel(g, list(reversed(range(16)))).adj)


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
