import random
from collections import Counter
from itertools import combinations

import pytest

from resolvability import (
    all_invariants,
    all_pairs_distances,
    complete,
    complete_bipartite,
    cycle,
    edge_pair_family,
    family_strict,
    family_weak,
    is_doubly_resolving,
    is_mixed_resolving,
    path,
    star,
    vertex_pair_family,
)
from resolvability.extremal import GraphSource
from resolvability.families import Rows, compose_mixed_family, psi_family
from resolvability.graph import bits_list, mask_of
from resolvability.hitting import reduce_family
from resolvability.invariants import TAGS

from conftest import (
    dense_graph,
    doubly_resolves,
    mixed_pair_family,
    panel_members,
    psi_pair_family,
    random_connected_graph,
    reference_cross,
    reference_doubly_resolving,
    reference_mixed_resolving,
    reference_psi,
    reference_psi_levels,
    reference_strict,
    reference_weak,
    slot_unpack_enumeration,
    w_sets,
)


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


_each_reference = pytest.mark.parametrize("build, reference", [
    pytest.param(family_strict, reference_strict, id="strict"),
    pytest.param(family_weak, reference_weak, id="weak"),
    pytest.param(psi_pair_family, reference_psi, id="psi"),
])


class TestDefinitionalReference:
    # the packed-row builders give the sets of the definitional builders
    # in conftest, in the same order

    @_each_reference
    def test_every_class_up_to_7(self, build, reference):
        count = 0
        for n in range(2, 8):
            for g in GraphSource.enumeration(n).graphs():
                d = _dist(g)
                assert build(Rows(g, d)).sets == reference(g, d)
                count += 1
        assert count == 995  # OEIS A001349, n = 2..7

    @_each_reference
    def test_random_up_to_20(self, build, reference):
        rng = random.Random(2025)
        for _ in range(200):
            g = random_connected_graph(rng, n_max=20)
            d = _dist(g)
            assert build(Rows(g, d)).sets == reference(g, d)

    @_each_reference
    def test_largest_distances(self, build, reference):
        # P_62 has distances up to 61, the most a packed byte meets
        for g in (path(62), cycle(62)):
            d = _dist(g)
            assert build(Rows(g, d)).sets == reference(g, d)


class TestEdgeFamilies:
    def test_weak_k3(self):
        g = complete(3)
        fam = family_weak(Rows(g, _dist(g)))
        assert len(fam.sets) == 6
        assert all(m.bit_count() == 2 for m in fam.sets)

    def test_strict_p2(self):
        g = path(2)
        d = _dist(g)
        fam = family_strict(Rows(g, d))
        assert fam.sets == (0b01, 0b10)

    def test_strict_star_has_leaf_singletons(self):
        g = star(4)
        d = _dist(g)
        fam = family_strict(Rows(g, d))
        for leaf in (1, 2, 3):
            assert (1 << leaf) in fam.sets

    def test_deterministic_order(self):
        g = cycle(5)
        d = _dist(g)
        f1, f2 = family_strict(Rows(g, d)), family_strict(Rows(g, d))
        assert f1.sets == f2.sets
        # W(v1,v2), then W(v2,v1): the first edge's sets lead
        assert f1.sets[:2] == w_sets(d, 0, 1)[:2]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_all_members_nonempty(self, n):
        for g in slot_unpack_enumeration(n):
            d = _dist(g)
            rows = Rows(g, d)
            assert all(m for m in family_strict(rows).sets)
            assert all(m for m in family_weak(rows).sets)


class TestPairFamilies:
    def test_p3_vertex_pairs(self):
        g = path(3)
        fam = vertex_pair_family(Rows(g, _dist(g)))
        # pairs in order (v1,v2), (v1,v3), (v2,v3)
        assert bits_list(fam.sets[1]) == (0, 2)

    def test_p3_edge_pairs(self):
        g = path(3)
        fam = edge_pair_family(Rows(g, _dist(g)))
        assert len(fam.sets) == 1
        assert fam.sets[0] >> 0 & 1  # v_1 resolves the two edges

    def test_k2_mixed(self):
        g = path(2)
        fam = mixed_pair_family(Rows(g, _dist(g)))
        # the pair (v1,v2), then the strict sets W(v1,v2) and W(v2,v1),
        # which resolve (v2,e) and (v1,e) for the edge e = v1v2; P_2 has
        # no edge pair, and no vertex off its edge
        assert fam.sets == (0b11, 0b01, 0b10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_mixed_resolver_nonempty_exhaustive(self, n):
        for g in slot_unpack_enumeration(n):
            fam = mixed_pair_family(Rows(g, _dist(g)))
            assert all(m for m in fam.sets)

    def test_family_sizes(self):
        g = cycle(4)
        rows = Rows(g, _dist(g))
        assert len(vertex_pair_family(rows).sets) == 6
        assert len(edge_pair_family(rows).sets) == 6
        assert len(mixed_pair_family(rows).sets) == 28

    def test_mixed_matches_all_item_pairs(self):
        # the same multiset of sets as one resolver set per unordered
        # pair of items (vertices, then edges): the strict sets are the
        # vertex-edge sets with the vertex on the edge
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
            built = Rows(g, d)
            fam = mixed_pair_family(built)
            assert Counter(fam.sets) == want
            head = (vertex_pair_family(built).sets
                    + edge_pair_family(built).sets + family_strict(built).sets)
            assert fam.sets[:len(head)] == head

    @pytest.mark.parametrize("n", range(2, 6))
    def test_hitting_sets_are_mixed_resolving_sets(self, n):
        # the beta_M predicate holds exactly on the hitting sets of the
        # mixed family, P_2 (n = 2) included
        for g in slot_unpack_enumeration(n):
            rows = Rows(g, _dist(g))
            sets = mixed_pair_family(rows).sets
            for mask in range(1 << n):
                hits = all(mask & s for s in sets)
                assert hits == is_mixed_resolving(rows, bits_list(mask))


def _compared_per_vertex(n, pairs):
    """Resolver sets of row pairs, comparing the rows vertex by vertex:
    the reference for the packed-row kernel."""
    return tuple(sum(1 << w for w in range(n) if x[w] != y[w])
                 for x, y in pairs)


class TestPackedRows:
    @pytest.mark.parametrize("make", [
        lambda: path(62),  # distances up to 61, 8-byte rows
        lambda: complete(12),
        lambda: dense_graph(1, 17),
        lambda: dense_graph(2, 24),
        lambda: dense_graph(3, 40),
    ], ids=["path62", "complete12", "dense17", "dense24", "dense40"])
    def test_pair_builders_match_per_vertex(self, make):
        g = make()
        d = _dist(g)
        edge_rows = [tuple(map(min, d[u], d[v])) for u, v in g.edges()]
        rows = Rows(g, d)
        vertex = vertex_pair_family(rows)
        edge = edge_pair_family(rows)
        strict = family_strict(rows)
        assert vertex.sets == _compared_per_vertex(g.n, combinations(d, 2))
        assert edge.sets == _compared_per_vertex(
            g.n, combinations(edge_rows, 2))
        assert strict.sets == reference_strict(g, d)
        off_edge = [(d[x], row) for (u, v), row in zip(g.edges(), edge_rows)
                    for x in range(g.n) if x not in (u, v)]
        assert compose_mixed_family(rows, vertex, edge, strict).sets == (
            vertex.sets + edge.sets + strict.sets
            + _compared_per_vertex(g.n, off_edge))


class TestDoublyResolving:
    def test_path_endpoints(self):
        for n in range(2, 9):
            g = path(n)
            assert is_doubly_resolving(Rows(g, _dist(g)), (0, n - 1))

    def test_c4_antipodal_fails(self):
        g = cycle(4)
        d = _dist(g)
        assert not is_doubly_resolving(Rows(g, d), (0, 2))
        assert not doubly_resolves(d, 0, 2, 1, 3)

    def test_subset_of_w_uv_fails(self):
        # if all of S is strictly closer to u than v, the pair (u, v)
        # cannot be doubly resolved by S
        g = path(5)
        rows = Rows(g, _dist(g))
        assert not is_doubly_resolving(rows, (0, 1))  # both in W(v2,v3)

    def test_single_vertex_never_doubly_resolves(self):
        g = complete(4)
        rows = Rows(g, _dist(g))
        assert not is_doubly_resolving(rows, (0,))
        assert not is_doubly_resolving(rows, ())

    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_vertex_set_doubly_resolves(self, n):
        for g in slot_unpack_enumeration(n):
            assert is_doubly_resolving(Rows(g, _dist(g)), range(n))

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
            assert is_doubly_resolving(Rows(g, d), members) == expected


def _assert_predicates_match_references(g, masks):
    d = _dist(g)
    rows, edges = Rows(g, d), g.edges()
    for mask in masks:
        members = bits_list(mask)
        assert is_doubly_resolving(rows, members) == (
            reference_doubly_resolving(d, members)), members
        assert is_mixed_resolving(rows, members) == (
            reference_mixed_resolving(d, edges, members)), members


class TestPredicatesMatchReferences:
    # the byte-row predicates against the tuple-keyed references in
    # conftest, which read the distance matrix
    def test_every_subset_of_every_class(self):
        count = 0
        for n in range(2, 7):
            for g in GraphSource.enumeration(n).graphs():
                _assert_predicates_match_references(g, range(1 << n))
                count += 1 << n
        assert count == 7956

    @pytest.mark.parametrize("make, tags", [
        (lambda: path(62), TAGS),  # distances up to 61
        (lambda: complete(12), TAGS),
        # its beta_E, beta_M and mhs_strict searches take minutes
        (lambda: dense_graph(3, 40), ("beta", "psi", "mhs_weak")),
    ], ids=["path62", "complete12", "dense40"])
    def test_witnesses_and_their_one_vertex_changes(self, make, tags):
        g = make()
        results = all_invariants(g, tags)
        witnesses = {mask_of(r.witness) for r in results.values()}
        _assert_predicates_match_references(g, {
            w ^ change for w in witnesses
            for change in [0] + [1 << v for v in range(g.n)]})


class TestPsiFamily:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_hitting_sets_are_doubly_resolving_sets(self, n):
        for g in slot_unpack_enumeration(n):
            rows = Rows(g, _dist(g))
            sets = psi_pair_family(rows).sets
            for mask in range(1 << n):
                members = bits_list(mask)
                hits = all(mask & s for s in sets)
                assert hits == is_doubly_resolving(rows, members)

    def test_p3_sets(self):
        g = path(3)
        d = _dist(g)
        rows = Rows(g, d)
        fam = psi_family(rows, vertex_pair_family(rows), family_weak(rows))
        # the vertex pair sets V - C(.;0) of (v1,v2), (v1,v3), (v2,v3);
        # the weak sets Wbar(v1,v2), Wbar(v2,v1), Wbar(v2,v3), Wbar(v3,v2)
        # of the edges; pair (v1,v3), the only other one, has the
        # singleton levels -2, 0, 2; then V - {v1}, V - {v2}, V - {v3}
        assert fam.sets == (0b111, 0b101, 0b111,
                            0b110, 0b001, 0b100, 0b011,
                            0b110, 0b101, 0b011)


def _inclusions(g):
    """Check, on g, the family inclusions behind the lower bounds that
    ``all_invariants`` starts beta_M and psi from, against the
    definitional layouts in conftest: the mixed family with all n m
    vertex-edge sets, and the psi family of level sets."""
    d = _dist(g)
    rows = Rows(g, d)
    full = (1 << g.n) - 1
    vertex = vertex_pair_family(rows)
    edge = edge_pair_family(rows)
    strict = family_strict(rows)
    weak = family_weak(rows)
    old_mixed = set(vertex.sets + edge.sets + reference_cross(g, d))
    # each vertex, edge and strict set is a set of the n m mixed family
    assert old_mixed.issuperset(strict.sets)
    # ... which the composed mixed family equals as a set of sets
    mixed = compose_mixed_family(rows, vertex, edge, strict)
    assert set(mixed.sets) == old_mixed
    # each vertex and weak set is V or a set of the psi family
    levels = set(reference_psi_levels(g, d))
    assert all(s == full or s in levels for s in vertex.sets + weak.sets)
    # ... which the composed psi family equals as a set of sets, up to V
    psi = psi_family(rows, vertex, weak)
    assert set(psi.sets) | {full} == levels | {full}
    assert psi.parts == (vertex, weak)


class TestInclusions:
    def test_every_class_up_to_8(self):
        count = 0
        for n in range(3, 9):
            for g in GraphSource.enumeration(n).graphs():
                _inclusions(g)
                count += 1
        assert count == 12111  # OEIS A001349, n = 3..8

    def test_panel_members(self):
        members = panel_members()
        assert len(members) == 150
        for _, _, g, _ in members:
            _inclusions(g)


def test_reductions_of_panel_families():
    # each family's reduction equals that of its whole sets: the mixed
    # and psi families, reduced first, make theirs from their parts'
    for _, _, g, _ in panel_members():
        rows = Rows(g, _dist(g))
        vertex = vertex_pair_family(rows)
        edge = edge_pair_family(rows)
        strict = family_strict(rows)
        weak = family_weak(rows)
        for family in (compose_mixed_family(rows, vertex, edge, strict),
                       psi_family(rows, vertex, weak), vertex, edge, strict,
                       weak):
            assert family.reduction() == reduce_family(g.n, family.sets)
