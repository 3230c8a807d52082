import random

import pytest

from resolvability import (
    DisconnectedGraphError,
    GraphError,
    all_pairs_distances,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    is_connected,
    is_maximal_neighbour_graph,
    leaf_count,
    max_degree,
    path,
    star,
    t_prime_tree,
)
from resolvability.graph import generate, parse_edge_list_text

from conftest import random_connected_graph


class TestFromEdgeList:
    def test_p2(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.n == 2
        assert g.edges() == [(0, 1)]

    def test_k4_all_pairs(self):
        g = from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert g == complete(4)

    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(1, 1)])

    def test_adjacency_symmetric_irreflexive(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_connected_graph(rng, n_max=10)
            for u in range(g.n):
                assert not g.adj[u] >> u & 1
                for v in range(g.n):
                    assert g.adj[u] >> v & 1 == g.adj[v] >> u & 1


class TestDistances:
    def test_p3(self):
        d = all_pairs_distances(path(3))
        assert d[0][2] == 2

    def test_complete_all_ones(self):
        d = all_pairs_distances(complete(6))
        assert all(d[u][v] == 1 for u in range(6) for v in range(6) if u != v)

    def test_k2m_partition_distances(self):
        g = complete_bipartite(2, 4)
        d = all_pairs_distances(g)
        for a in range(2):
            for b in range(2, 6):
                assert d[a][b] == 1
        assert d[0][1] == 2
        assert all(d[a][b] == 2 for a in range(2, 6) for b in range(2, 6) if a != b)

    def test_disconnected_raises_with_pair(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError) as exc:
            all_pairs_distances(g)
        u, v = exc.value.unreachable_pair
        assert {u, v} <= {0, 1, 2, 3}

    def test_matrix_invariants_random(self):
        rng = random.Random(123)
        for _ in range(1000):
            g = random_connected_graph(rng, n_max=10)
            d = all_pairs_distances(g)
            n = g.n
            for u in range(n):
                assert d[u][u] == 0
                for v in range(n):
                    assert d[u][v] == d[v][u]
                    assert (d[u][v] == 1) == bool(g.adj[u] >> v & 1)
                    for w in range(n):
                        assert d[u][w] <= d[u][v] + d[v][w]


class TestGenerators:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_path_edge_count(self, n):
        assert path(n).num_edges() == n - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_edge_count(self, n):
        assert cycle(n).num_edges() == n

    @pytest.mark.parametrize("n", range(3, 9))
    def test_star_shape(self, n):
        g = star(n)
        assert g.num_edges() == n - 1
        assert g.adj[0].bit_count() == n - 1

    def test_star4_exact(self):
        assert star(4).edges() == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_edge_count(self, n):
        assert complete(n).num_edges() == n * (n - 1) // 2

    @pytest.mark.parametrize("r,t", [(1, 1), (2, 3), (3, 4), (2, 8)])
    def test_bipartite_edge_count(self, r, t):
        assert complete_bipartite(r, t).num_edges() == r * t

    def test_all_generated_connected(self):
        for g in (path(5), cycle(6), star(7), complete(5),
                  complete_bipartite(2, 5), t_prime_tree(9)):
            assert is_connected(g)

    def test_tprime_8_matches_figure(self):
        # spine v1..v5 plus leaves v6, v7, v8 on v2, v3, v4
        expected = {(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7)}
        assert set(t_prime_tree(8).edges()) == expected

    def test_tprime_9_matches_figure(self):
        expected = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                    (1, 6), (2, 7), (3, 8)}
        assert set(t_prime_tree(9).edges()) == expected

    @pytest.mark.parametrize("n", range(4, 21))
    def test_tprime_leaf_count(self, n):
        g = t_prime_tree(n)
        assert g.num_edges() == n - 1
        assert leaf_count(g) == n // 2 + 1

    def test_parameter_below_minimum(self):
        for fn, bad in ((path, 1), (cycle, 2), (star, 2), (complete, 1),
                        (t_prime_tree, 3)):
            with pytest.raises(GraphError):
                fn(bad)
        with pytest.raises(GraphError):
            complete_bipartite(0, 3)

    def test_generate_spec(self):
        assert generate("path:7") == path(7)
        assert generate("bipartite:2,5") == complete_bipartite(2, 5)
        with pytest.raises(GraphError):
            generate("pentagram:5")
        with pytest.raises(GraphError):
            generate("path:2,3")


class TestQueries:
    def test_leaf_count_tprime8(self):
        assert leaf_count(t_prime_tree(8)) == 5

    def test_max_degree(self):
        assert max_degree(star(6)) == 5
        assert max_degree(cycle(5)) == 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_is_maximal_neighbour(self, n):
        assert is_maximal_neighbour_graph(complete(n))

    def test_p4_not_maximal_neighbour(self):
        # direct check: v1's only neighbor v2 has N[v2] missing nothing of
        # N[v1], but v2's neighbors v1, v3 both miss one of N[v2]
        assert not is_maximal_neighbour_graph(path(4))

    def test_maximal_neighbour_requires_two_vertices(self):
        with pytest.raises(GraphError):
            is_maximal_neighbour_graph(from_edge_list(1, []))


class TestEdgeListText:
    def test_round_trip(self):
        # T'_8 in 1-based labels: the spine v_1..v_5 and leaves v_6..v_8
        text = "8 7\n1 2\n2 3\n3 4\n4 5\n2 6\n3 7\n4 8\n"
        g = parse_edge_list_text(text)
        assert g == t_prime_tree(8)
        lines = [f"{g.n} {g.num_edges()}"]
        lines += [f"{u + 1} {v + 1}" for u, v in g.edges()]
        assert sorted(lines) == sorted(text.splitlines())

    def test_bad_header(self):
        with pytest.raises(GraphError):
            parse_edge_list_text("hello\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError):
            parse_edge_list_text("3 2\n1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("3 1\n0 3\n", "line 2: edge (0, 3) out of range 1..3"),
        ("3 1\n3 3\n", "line 2: self-loop at vertex 3 is not allowed"),
        ("3 2\n1 2\n\n2 4\n", "line 4: edge (2, 4) out of range 1..3"),
        ("3 1\n1 x\n", "line 2: bad edge line '1 x', expected 'u v'"),
    ])
    def test_edge_line_errors_name_line_and_labels(self, text, message):
        # labels as written (1-based) and the line's number in the text,
        # blank lines counted
        with pytest.raises(GraphError) as exc:
            parse_edge_list_text(text)
        assert str(exc.value) == message

    def test_zero_based_checks_stay(self):
        with pytest.raises(GraphError, match=r"edge \(0, 3\) out of range"):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(GraphError, match="self-loop at vertex 2"):
            from_edge_list(3, [(2, 2)])
