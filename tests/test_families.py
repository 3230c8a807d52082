import random
from collections import Counter
from itertools import combinations, product

import pytest

from resolvability import (
    GraphError,
    all_pairs_distances,
    complete,
    complete_bipartite,
    cycle,
    doubly_resolves,
    edge_pair_family,
    family_strict,
    family_weak,
    from_edge_list,
    is_doubly_resolving,
    path,
    star,
    vertex_pair_family,
    w_sets,
)
from resolvability.families import compose_mixed_family, psi_family
from resolvability.graph import bits_list, mask_of

from conftest import (
    mixed_pair_family, random_connected_graph, slot_unpack_enumeration)


def _dist(g):
    return all_pairs_distances(g)


class TestWSets:
    def test_complete_edge(self):
        g = complete(5)
        d = _dist(g)
        w_uv, w_vu, wb_uv, wb_vu, eq = w_sets(d, 1, 3)
        assert bits_list(w_uv) == (1,)
        assert bits_list(w_vu) == (3,)
        assert wb_uv == (1 << 5) - 1 - (1 << 1)
        assert bits_list(eq) == (0, 2, 4)

    def test_path_edge_split(self):
        g = path(6)
        d = _dist(g)
        for i in range(5):
            w_uv, w_vu, _, _, eq = w_sets(d, i, i + 1)
            assert bits_list(w_uv) == tuple(range(i + 1))
            assert bits_list(w_vu) == tuple(range(i + 1, 6))
            assert eq == 0

    def test_k2m_edge(self):
        g = complete_bipartite(2, 4)  # u_1,u_2 = 0,1; v_1..v_4 = 2..5
        d = _dist(g)
        w_uv, w_vu, _, _, _ = w_sets(d, 0, 3)
        assert set(bits_list(w_uv)) == {0} | ({2, 3, 4, 5} - {3})
        assert set(bits_list(w_vu)) == {3, 1}

    def test_non_adjacent_rejected(self):
        d = _dist(path(4))
        with pytest.raises(GraphError):
            w_sets(d, 0, 2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identities_exhaustive(self, n):
        for g in slot_unpack_enumeration(n):
            d = _dist(g)
            full = (1 << n) - 1
            for u, v in g.edges():
                w_uv, w_vu, wb_uv, wb_vu, eq = w_sets(d, u, v)
                assert w_uv & w_vu == 0
                assert w_uv >> u & 1 and w_vu >> v & 1
                assert w_vu & ~wb_uv == 0 and w_uv & ~wb_vu == 0
                assert wb_uv | wb_vu == full
                assert eq == wb_uv & ~w_vu == wb_vu & ~w_uv

    def test_identities_random(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_connected_graph(rng, n_max=12)
            d = _dist(g)
            full = (1 << g.n) - 1
            for u, v in g.edges():
                w_uv, w_vu, wb_uv, wb_vu, eq = w_sets(d, u, v)
                assert w_uv & w_vu == 0
                assert wb_uv | wb_vu == full
                assert eq == wb_uv & ~w_vu == wb_vu & ~w_uv


class TestEdgeFamilies:
    def test_weak_k3(self):
        g = complete(3)
        fam = family_weak(g, _dist(g))
        assert len(fam.sets) == 6
        assert all(m.bit_count() == 2 for m in fam.sets)

    def test_strict_p2(self):
        g = path(2)
        fam = family_strict(g, _dist(g))
        assert fam.sets == (0b01, 0b10)

    def test_strict_star_has_leaf_singletons(self):
        g = star(4)
        fam = family_strict(g, _dist(g))
        for leaf in (1, 2, 3):
            assert (1 << leaf) in fam.sets

    def test_deterministic_order(self):
        g = cycle(5)
        d = _dist(g)
        f1, f2 = family_strict(g, d), family_strict(g, d)
        assert f1 == f2
        # W(v1,v2), then W(v2,v1): the first edge's sets lead
        assert f1.sets[:2] == w_sets(d, 0, 1)[:2]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_all_members_nonempty(self, n):
        for g in slot_unpack_enumeration(n):
            d = _dist(g)
            assert all(m for m in family_strict(g, d).sets)
            assert all(m for m in family_weak(g, d).sets)


class TestPairFamilies:
    def test_p3_vertex_pairs(self):
        g = path(3)
        fam = vertex_pair_family(g, _dist(g))
        # pairs in order (v1,v2), (v1,v3), (v2,v3)
        assert bits_list(fam.sets[1]) == (0, 2)

    def test_p3_edge_pairs(self):
        g = path(3)
        fam = edge_pair_family(g, _dist(g))
        assert len(fam.sets) == 1
        assert fam.sets[0] >> 0 & 1  # v_1 resolves the two edges

    def test_k2_mixed(self):
        g = path(2)
        fam = mixed_pair_family(g, _dist(g))
        # pairs in order (v1,v2), (v1,e(v1,v2)), (v2,e(v1,v2)); P_2 has
        # no edge pair
        assert bits_list(fam.sets[1]) == (1,)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_mixed_resolver_nonempty_exhaustive(self, n):
        for g in slot_unpack_enumeration(n):
            fam = mixed_pair_family(g, _dist(g))
            assert all(m for m in fam.sets)

    def test_family_sizes(self):
        g = cycle(4)
        d = _dist(g)
        assert len(vertex_pair_family(g, d).sets) == 6
        assert len(edge_pair_family(g, d).sets) == 6
        assert len(mixed_pair_family(g, d).sets) == 28

    def test_mixed_matches_all_item_pairs(self):
        # the same multiset of sets as one resolver set per unordered
        # pair of items (vertices, then edges), in the order vertex
        # pairs, edge pairs, vertex-edge pairs
        rng = random.Random(99)
        graphs = [path(2), path(3), complete(5)] + [
            random_connected_graph(rng, n_min=4, n_max=9) for _ in range(60)]
        for g in graphs:
            d = _dist(g)
            rows = list(d) + [
                tuple(min(d[u][w], d[v][w]) for w in range(g.n))
                for u, v in g.edges()]
            want = Counter(
                sum(1 << w for w in range(g.n) if x[w] != y[w])
                for x, y in combinations(rows, 2))
            fam = mixed_pair_family(g, d)
            assert Counter(fam.sets) == want
            head = vertex_pair_family(g, d).sets + edge_pair_family(g, d).sets
            assert fam.sets[:len(head)] == head


def _compared_per_vertex(n, pairs):
    """Resolver sets of row pairs, comparing the rows vertex by vertex:
    the reference for the packed-row kernel."""
    return tuple(sum(1 << w for w in range(n) if x[w] != y[w])
                 for x, y in pairs)


def _dense(seed, n):
    """A random spanning tree plus each other pair with probability 1/2."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [(u, v) for u, v in combinations(range(n), 2)
              if rng.random() < 0.5]
    return from_edge_list(n, edges)


class TestPackedRows:
    @pytest.mark.parametrize("make", [
        lambda: path(62),  # distances up to 61, 8-byte rows
        lambda: complete(12),
        lambda: _dense(1, 17),
        lambda: _dense(2, 24),
        lambda: _dense(3, 40),
    ], ids=["path62", "complete12", "dense17", "dense24", "dense40"])
    def test_pair_builders_match_per_vertex(self, make):
        g = make()
        d = _dist(g)
        edge_rows = [tuple(map(min, d[u], d[v])) for u, v in g.edges()]
        vertex = vertex_pair_family(g, d)
        edge = edge_pair_family(g, d)
        assert vertex.sets == _compared_per_vertex(g.n, combinations(d, 2))
        assert edge.sets == _compared_per_vertex(
            g.n, combinations(edge_rows, 2))
        assert compose_mixed_family(g, d, vertex, edge).sets == (
            vertex.sets + edge.sets
            + _compared_per_vertex(g.n, product(d, edge_rows)))


class TestDoublyResolving:
    def test_path_endpoints(self):
        for n in range(2, 9):
            g = path(n)
            assert is_doubly_resolving(_dist(g), (0, n - 1))

    def test_c4_antipodal_fails(self):
        g = cycle(4)
        d = _dist(g)
        assert not is_doubly_resolving(d, (0, 2))
        assert not doubly_resolves(d, 0, 2, 1, 3)

    def test_subset_of_w_uv_fails(self):
        # if all of S is strictly closer to u than v, the pair (u, v)
        # cannot be doubly resolved by S
        g = path(5)
        d = _dist(g)
        assert not is_doubly_resolving(d, (0, 1))  # both in W(v2,v3)

    def test_single_vertex_never_doubly_resolves(self):
        g = complete(4)
        assert not is_doubly_resolving(_dist(g), (0,))
        assert not is_doubly_resolving(_dist(g), ())

    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_vertex_set_doubly_resolves(self, n):
        for g in slot_unpack_enumeration(n):
            assert is_doubly_resolving(_dist(g), range(n))

    def test_matches_two_witness_definition(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_connected_graph(rng, n_max=7)
            d = _dist(g)
            n = g.n
            members = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
            expected = all(
                any(
                    doubly_resolves(d, x, y, u, v)
                    for x, y in combinations(members, 2)
                )
                for u, v in combinations(range(n), 2)
            )
            assert is_doubly_resolving(d, members) == expected


class TestPsiFamily:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_hitting_sets_are_doubly_resolving_sets(self, n):
        for g in slot_unpack_enumeration(n):
            d = _dist(g)
            sets = psi_family(g, d).sets
            for mask in range(1 << n):
                members = bits_list(mask)
                hits = all(mask & s for s in sets)
                assert hits == is_doubly_resolving(d, members)

    def test_p3_sets(self):
        g = path(3)
        fam = psi_family(g, _dist(g))
        # pair (v1,v3): levels -2, 0, 2 are singletons; pairs (v1,v2) and
        # (v2,v3) each have one level set of size 2
        # V - C(v1,v2;1), V - C(v2,v3;-1), then V - {v1}, V - {v2}, V - {v3}
        assert fam.sets == (0b001, 0b100, 0b110, 0b101, 0b011)
