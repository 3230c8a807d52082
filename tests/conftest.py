import random

import pytest

from resolvability import (
    edge_pair_family, from_edge_list, invariant_values, vertex_pair_family)
from resolvability.canon import canonical_form
from resolvability.extremal import (
    THEOREM_PAIRS, GraphSource, enumerate_connected, sweep)
from resolvability.families import compose_mixed_family


def random_connected_graph(rng, n_min=2, n_max=12):
    """Random connected graph: random tree plus random extra edges."""
    n = rng.randint(n_min, n_max)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = rng.randint(0, len(possible) // 2)
    edges += rng.sample(possible, extra)
    return from_edge_list(n, edges)


def mixed_pair_family(g, dist):
    """The mixed pair family as the beta_M pipeline builds it: the
    vertex and edge pair families, then the vertex-edge pairs."""
    return compose_mixed_family(
        g, dist, vertex_pair_family(g, dist), edge_pair_family(g, dist))


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
    its canonical form."""
    cache = {}

    def get(n):
        if n not in cache:
            members = {}
            for g in enumerate_connected(n):
                members.setdefault(canonical_form(n, g.adj), []).append(g)
            cache[n] = [(graphs[0], invariant_values(graphs[0]), graphs)
                        for graphs in members.values()]
        return cache[n]

    return get
