import random
from itertools import combinations
from math import ceil, log2

import pytest

from resolvability import (
    GraphError,
    all_invariants,
    all_pairs_distances,
    complete,
    complete_bipartite,
    cycle,
    doubly_metric_dimension,
    edge_dim_log_bound_check,
    edge_metric_dimension,
    family_weak,
    from_edge_list,
    invariant_values,
    is_doubly_resolving,
    is_maximal_neighbour_graph,
    leaf_count,
    metric_dimension,
    mhs_strict,
    mhs_weak,
    mixed_metric_dimension,
    path,
    star,
    t_prime_tree,
    verify_hitting,
)
from resolvability.extremal import enumerate_connected
from resolvability.graph import mask_of
from resolvability.invariants import result_record
from resolvability.graph6 import write_graph6

from conftest import random_connected_graph


def brute_force_psi(dist):
    """First doubly resolving vertex set by size, then lexicographic
    order. Exponential; independent of the psi family and the solver."""
    n = len(dist)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if is_doubly_resolving(dist, combo):
                return combo
    raise AssertionError("V is doubly resolving for every connected graph")


class TestMhs:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_path(self, n):
        g = path(n)
        s, w = mhs_strict(g), mhs_weak(g)
        assert (s.value, w.value) == (2, 2)
        assert s.witness == w.witness == (0, n - 1)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete(self, n):
        g = complete(n)
        assert mhs_weak(g).value == 2
        assert mhs_strict(g).value == n

    @pytest.mark.parametrize("m", range(2, 7))
    def test_k2m(self, m):
        g = complete_bipartite(2, m)
        s, w = mhs_strict(g), mhs_weak(g)
        assert (s.value, w.value) == (2, 2)
        assert s.witness == (0, 1)  # the two-vertex part {u_1, u_2}

    def test_rejects_n1(self):
        with pytest.raises(GraphError):
            mhs_strict(from_edge_list(1, []))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            mhs_weak(from_edge_list(4, [(0, 1), (2, 3)]))


class TestMetricDimensions:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete(self, n):
        g = complete(n)
        assert metric_dimension(g).value == n - 1
        assert edge_metric_dimension(g).value == n - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle(self, n):
        g = cycle(n)
        assert metric_dimension(g).value == 2
        assert edge_metric_dimension(g).value == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_path_dimensions(self, n):
        g = path(n)
        assert metric_dimension(g).value == 1
        assert edge_metric_dimension(g).value == 1
        assert mixed_metric_dimension(g).value == 2

    def test_mixed_bipartite(self):
        assert mixed_metric_dimension(complete_bipartite(2, 3)).value == 4
        assert mixed_metric_dimension(complete_bipartite(3, 3)).value == 4
        assert mixed_metric_dimension(complete_bipartite(3, 4)).value == 5

    @pytest.mark.parametrize("n", range(2, 7))
    def test_path_characterizations_exhaustive(self, n):
        for g in enumerate_connected(n):
            values = invariant_values(g)
            is_path = g.num_edges() == n - 1 and max(g.degrees()) <= 2
            assert (values["beta_E"] == 1) == is_path
            assert (values["beta_M"] == 2) == is_path


class TestDoublyMetricDimension:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 2), (5, 4), (8, 7)])
    def test_complete(self, n, expected):
        assert doubly_metric_dimension(complete(n)).value == expected

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle(self, n):
        assert doubly_metric_dimension(cycle(n)).value == (2 if n % 2 else 3)

    def test_trees_leaf_count(self):
        for g in (star(5), t_prime_tree(8), t_prime_tree(11)):
            assert doubly_metric_dimension(g).value == leaf_count(g)

    def test_witness_is_doubly_resolving(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=8)
            res = doubly_metric_dimension(g)
            d = all_pairs_distances(g)
            assert is_doubly_resolving(d, res.witness)
            assert len(res.witness) == res.value

    def test_witness_hits_weak_family(self):
        # doubly resolving sets must intersect every complement W-set
        rng = random.Random(22)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=8)
            res = doubly_metric_dimension(g)
            fam = family_weak(g, all_pairs_distances(g))
            assert verify_hitting(fam.sets, mask_of(res.witness))

    def test_deterministic_witness(self):
        g = cycle(6)
        assert doubly_metric_dimension(g) == doubly_metric_dimension(g)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_brute_force_exhaustive(self, n):
        # value and witness equal the first doubly resolving set by size,
        # then lexicographic order; covers P_2 and K_3, whose level-set
        # families are empty
        for g in enumerate_connected(n):
            d = all_pairs_distances(g)
            res = doubly_metric_dimension(g, d)
            want = brute_force_psi(d)
            assert (res.value, res.witness) == (len(want), want)


class TestOrderingChain:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_exhaustive(self, n):
        for g in enumerate_connected(n):
            v = invariant_values(g)
            assert 2 <= v["mhs_weak"] <= min(v["mhs_strict"], v["psi"])
            assert v["mhs_strict"] <= min(v["beta_M"], n)
            if n >= 3:
                assert v["mhs_weak"] <= n - 1
            assert v["psi"] <= max(2, n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_maximal_neighbour_biconditional(self, n):
        for g in enumerate_connected(n):
            v = invariant_values(g)
            mn = is_maximal_neighbour_graph(g)
            assert (v["mhs_strict"] == n) == mn == (v["beta_M"] == n)


class TestLogBound:
    def test_examples(self):
        assert edge_dim_log_bound_check(complete(8))
        assert edge_dim_log_bound_check(path(5))
        assert edge_dim_log_bound_check(cycle(4))

    def test_random(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_connected_graph(rng, n_max=9)
            assert edge_dim_log_bound_check(g)


class TestResults:
    def test_witness_sizes_match_values(self):
        g = complete_bipartite(2, 4)
        for tag, res in all_invariants(g).items():
            assert res.tag == tag
            assert len(res.witness) == res.value

    def test_result_record_shape(self):
        g = path(4)
        rec = result_record(g, write_graph6(g), all_invariants(g))
        assert rec["n"] == 4 and rec["m"] == 3
        assert rec["beta"] == 1 and rec["psi"] == 2
        assert rec["witnesses"]["mhs_strict"] == [1, 4]


# Values and lexicographically smallest witnesses on graphs too large for
# brute force, recorded before the hitting-set search was rewritten over
# a vertex-indexed family. Any change to the search order, its prunes or
# the reductions that alters a witness shows here.
PINNED = [
    (
        lambda: t_prime_tree(20),
        "ShCGGC@?G?g?G?C?@??G??_?@??@???_?",
        {
            "beta": (2, (0, 10)),
            "beta_E": (2, (0, 10)),
            "beta_M": (11, (0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
            "psi": (11, (0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
            "mhs_strict": (11, (0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
            "mhs_weak": (11, (0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)),
        },
    ),
    (
        lambda: random_connected_graph(random.Random(11), 16, 20),
        "RxrQ|b`PNrNVnjvcBCqafxf}?Nvc`g",
        {
            "beta": (5, (0, 1, 2, 5, 8)),
            "beta_E": (11, (0, 1, 4, 6, 7, 8, 10, 12, 13, 14, 16)),
            "beta_M": (11, (3, 6, 7, 9, 10, 11, 12, 13, 16, 17, 18)),
            "psi": (5, (0, 1, 2, 15, 16)),
            "mhs_strict": (8, (0, 1, 3, 4, 9, 12, 15, 18)),
            "mhs_weak": (3, (0, 1, 3)),
        },
    ),
    (
        lambda: random_connected_graph(random.Random(30), 16, 20),
        "Sr[s]yAXIkk[el[GF]S}Y[Z_NJUBswP{w",
        {
            "beta": (5, (0, 1, 3, 6, 10)),
            "beta_E": (10, (0, 1, 2, 3, 5, 6, 8, 9, 11, 15)),
            "beta_M": (11, (0, 1, 2, 3, 4, 5, 7, 8, 11, 17, 19)),
            "psi": (5, (0, 1, 3, 6, 10)),
            "mhs_strict": (7, (0, 1, 2, 3, 8, 15, 17)),
            "mhs_weak": (3, (0, 1, 19)),
        },
    ),
]


@pytest.mark.parametrize(
    "make, graph6, expected", PINNED, ids=["tprime20", "dense19", "dense20"]
)
def test_pinned_witnesses(make, graph6, expected):
    g = make()
    assert write_graph6(g) == graph6
    got = {tag: (r.value, r.witness) for tag, r in all_invariants(g).items()}
    assert got == expected
