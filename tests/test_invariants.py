import random
import weakref
from itertools import combinations
from math import comb

import pytest

from resolvability import (
    GraphError,
    all_invariants,
    all_pairs_distances,
    complete,
    complete_bipartite,
    cycle,
    family_weak,
    from_edge_list,
    invariant_values,
    is_doubly_resolving,
    is_maximal_neighbour_graph,
    leaf_count,
    max_degree,
    path,
    star,
    t_prime_tree,
    verify_hitting,
)
from resolvability import families, invariants
from resolvability.canon import canonical_form
from resolvability.graph import mask_of
from resolvability.invariants import TAGS, result_record
from resolvability.graph6 import write_graph6

from conftest import random_connected_graph, slot_unpack_enumeration


def brute_force_psi(dist):
    """First doubly resolving vertex set by size, then lexicographic
    order. Exponential; independent of the psi family and the solver."""
    n = len(dist)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if is_doubly_resolving(dist, combo):
                return combo
    raise AssertionError("V is doubly resolving for every connected graph")


def _is_path(g):
    return g.num_edges() == g.n - 1 and max_degree(g) <= 2


class TestMhs:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_path(self, n):
        g = path(n)
        s, w = all_invariants(g, ("mhs_strict", "mhs_weak")).values()
        assert (s.value, w.value) == (2, 2)
        assert s.witness == w.witness == (0, n - 1)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete(self, n):
        g = complete(n)
        assert all_invariants(g, ("mhs_weak",))["mhs_weak"].value == 2
        assert all_invariants(g, ("mhs_strict",))["mhs_strict"].value == n

    @pytest.mark.parametrize("m", range(2, 7))
    def test_k2m(self, m):
        g = complete_bipartite(2, m)
        s, w = all_invariants(g, ("mhs_strict", "mhs_weak")).values()
        assert (s.value, w.value) == (2, 2)
        assert s.witness == (0, 1)  # the two-vertex part {u_1, u_2}

    def test_rejects_n1(self):
        with pytest.raises(GraphError):
            all_invariants(from_edge_list(1, []), ("mhs_strict",))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            all_invariants(from_edge_list(4, [(0, 1), (2, 3)]), ("mhs_weak",))


class TestMetricDimensions:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete(self, n):
        g = complete(n)
        assert all_invariants(g, ("beta",))["beta"].value == n - 1
        assert all_invariants(g, ("beta_E",))["beta_E"].value == n - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle(self, n):
        g = cycle(n)
        assert all_invariants(g, ("beta",))["beta"].value == 2
        assert all_invariants(g, ("beta_E",))["beta_E"].value == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_path_dimensions(self, n):
        g = path(n)
        assert all_invariants(g, ("beta",))["beta"].value == 1
        assert all_invariants(g, ("beta_E",))["beta_E"].value == 1
        assert all_invariants(g, ("beta_M",))["beta_M"].value == 2

    def test_mixed_bipartite(self):
        for r, t, expected in ((2, 3, 4), (3, 3, 4), (3, 4, 5)):
            g = complete_bipartite(r, t)
            assert all_invariants(g, ("beta_M",))["beta_M"].value == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_path_characterizations_exhaustive(self, n, connected_classes):
        # one graph per isomorphism class; test_chain_exhaustive checks
        # every labeled graph against its class
        for rep, values, _ in connected_classes(n):
            assert (values["beta_E"] == 1) == _is_path(rep)
            assert (values["beta_M"] == 2) == _is_path(rep)


class TestDoublyMetricDimension:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 2), (5, 4), (8, 7)])
    def test_complete(self, n, expected):
        assert all_invariants(complete(n), ("psi",))["psi"].value == expected

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle(self, n):
        psi = all_invariants(cycle(n), ("psi",))["psi"]
        assert psi.value == (2 if n % 2 else 3)

    def test_trees_leaf_count(self):
        for g in (star(5), t_prime_tree(8), t_prime_tree(11)):
            assert all_invariants(g, ("psi",))["psi"].value == leaf_count(g)

    def test_witness_is_doubly_resolving(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=8)
            res = all_invariants(g, ("psi",))["psi"]
            d = all_pairs_distances(g)
            assert is_doubly_resolving(d, res.witness)
            assert len(res.witness) == res.value

    def test_witness_hits_weak_family(self):
        # doubly resolving sets must intersect every complement W-set
        rng = random.Random(22)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=8)
            res = all_invariants(g, ("psi",))["psi"]
            fam = family_weak(g, all_pairs_distances(g))
            assert verify_hitting(fam.sets, mask_of(res.witness))

    def test_deterministic_witness(self):
        g = cycle(6)
        assert all_invariants(g, ("psi",)) == all_invariants(g, ("psi",))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_brute_force_exhaustive(self, n):
        # value and witness equal the first doubly resolving set by size,
        # then lexicographic order; covers P_2 and K_3, whose level-set
        # families are empty
        for g in slot_unpack_enumeration(n):
            d = all_pairs_distances(g)
            res = all_invariants(g, ("psi",))["psi"]
            want = brute_force_psi(d)
            assert (res.value, res.witness) == (len(want), want)


class TestOrderingChain:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_exhaustive(self, n, connected_classes):
        # the one pass over every labeled graph: it also pins each graph's
        # values, maximal-neighbour test and path test to its class
        # representative's, which the per-class tests read
        for rep, values, graphs in connected_classes(n):
            for g in graphs:
                v = invariant_values(g)
                assert v == values
                assert (is_maximal_neighbour_graph(g)
                        == is_maximal_neighbour_graph(rep))
                assert _is_path(g) == _is_path(rep)
                assert 2 <= v["mhs_weak"] <= min(v["mhs_strict"], v["psi"])
                assert v["mhs_strict"] <= min(v["beta_M"], n)
                if n >= 3:
                    assert v["mhs_weak"] <= n - 1
                assert v["psi"] <= max(2, n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_maximal_neighbour_biconditional(self, n, connected_classes):
        for rep, v, _ in connected_classes(n):
            mn = is_maximal_neighbour_graph(rep)
            assert (v["mhs_strict"] == n) == mn == (v["beta_M"] == n)


class TestLogBound:
    # beta_E(G) >= ceil(log2(max degree))
    def test_examples(self):
        for g in (complete(8), path(5), cycle(4)):
            assert (all_invariants(g, ("beta_E",))["beta_E"].value
                    >= (max_degree(g) - 1).bit_length())

    def test_random(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_connected_graph(rng, n_max=9)
            assert (all_invariants(g, ("beta_E",))["beta_E"].value
                    >= (max_degree(g) - 1).bit_length())


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

    def test_result_record_keeps_given_tags(self):
        g = path(4)
        rec = result_record(g, write_graph6(g), all_invariants(g, ("psi",)))
        assert set(rec) == {"graph6", "n", "m", "psi", "witnesses"}
        assert rec["witnesses"] == {"psi": [1, 4]}


def _classes_up_to_5():
    for n in range(2, 6):
        forms = set()
        for g in slot_unpack_enumeration(n):
            form = canonical_form(n, g.adj)
            if form not in forms:
                forms.add(form)
                yield g


class TestPipeline:
    @pytest.mark.parametrize("source", ["random", "classes"])
    def test_single_invariants_match_all(self, source):
        if source == "random":
            rng = random.Random(99)
            graphs = [random_connected_graph(rng, n_min=4, n_max=9)
                      for _ in range(60)]
        else:
            graphs = list(_classes_up_to_5())
            assert len(graphs) == 1 + 2 + 6 + 21
        for g in graphs:
            everything = all_invariants(g)
            assert tuple(everything) == TAGS
            for tag in TAGS:
                alone = all_invariants(g, (tag,))
                assert tuple(alone) == (tag,)
                assert alone[tag] == everything[tag]
            assert invariant_values(g) == {
                tag: r.value for tag, r in everything.items()}

    def test_tags_keep_their_order(self):
        got = all_invariants(cycle(5), ("mhs_weak", "beta"))
        assert tuple(got) == ("mhs_weak", "beta")

    def test_unknown_tag(self):
        with pytest.raises(GraphError, match="unknown invariant 'bogus'"):
            all_invariants(path(3), ("beta", "bogus"))

    @pytest.mark.parametrize("n", [63, 300])
    def test_universe_cap_before_any_build(self, n):
        # P_300 has distances above 255, which no packed row can hold
        with pytest.raises(ValueError, match=f"universe size {n} exceeds 62"):
            all_invariants(path(n), ("beta", "beta_E"))

    def test_pair_sets_built_once(self, monkeypatch):
        # all six invariants build the vertex and edge pair families once;
        # beta_M's family reuses them and computes only the vertex-edge
        # pairs, so every pair resolver set is computed exactly once
        calls = []
        for name in ("vertex_pair_family", "edge_pair_family"):
            def counted(*args, _name=name, _f=getattr(families, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(families, name, counted)
        built = []
        pair_family = families._pair_family

        def counted_pair_family(*args):
            result = pair_family(*args)
            built.append(len(result))
            return result

        monkeypatch.setattr(families, "_pair_family", counted_pair_family)
        for g in (t_prime_tree(9), complete_bipartite(3, 4),
                  random_connected_graph(random.Random(5), 6, 9)):
            calls.clear()
            built.clear()
            all_invariants(g)
            n, m = g.n, g.num_edges()
            assert sorted(calls) == ["edge_pair_family", "vertex_pair_family"]
            assert sum(built) == comb(n, 2) + comb(m, 2) + n * m

    def test_families_freed_after_last_use(self, monkeypatch):
        # at each solve, only the families a tag still to solve needs are
        # alive: beta's and beta_E's live on for beta_M, then all go
        refs = []
        for name in ("vertex_pair_family", "edge_pair_family",
                     "compose_mixed_family", "psi_family", "family_strict",
                     "family_weak"):
            def recorded(*args, _f=getattr(families, name)):
                result = _f(*args)
                refs.append(weakref.ref(result))
                return result
            monkeypatch.setattr(families, name, recorded)
        alive = []
        solver = invariants.min_hitting_exact

        def counted(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return solver(*args)

        monkeypatch.setattr(invariants, "min_hitting_exact", counted)
        all_invariants(cycle(6))
        assert alive == [1, 2, 3, 1, 1, 1]
        refs.clear()
        alive.clear()
        all_invariants(cycle(6), ("beta_M", "psi", "beta"))
        assert alive == [3, 2, 1]


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
