import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvability import (
    InfeasibleInstanceError,
    Rows,
    all_pairs_distances,
    complete,
    edge_pair_family,
    family_strict,
    family_weak,
    min_hitting_exact,
    path,
    star,
    verify_hitting,
    vertex_pair_family,
)
from resolvability.extremal import GraphSource
from resolvability.families import SetFamily
from resolvability.graph import bits_list, mask_of
from resolvability.hitting import (
    SMALL_UNIVERSE, reduce_family, small_min_hitting)

from conftest import (
    _branch_and_bound,
    brute_force_min_hitting,
    mixed_pair_family,
    psi_pair_family,
    random_connected_graph,
    random_hitting_instance,
)


class TestVerify:
    def test_singletons(self):
        sets = (0b01, 0b10)
        assert verify_hitting(sets, 0b11)
        assert not verify_hitting(sets, 0b01)

    def test_path_endpoints_hit_strict_family(self):
        g = path(5)
        d = all_pairs_distances(g)
        fam = family_strict(Rows(g, d))
        assert verify_hitting(fam.sets, mask_of((0, 4)))

    def test_empty_family_vacuous(self):
        assert verify_hitting((), 0)


class TestExact:
    def test_weak_family_complete_graphs(self):
        for n in range(3, 8):
            g = complete(n)
            fam = family_weak(Rows(g, all_pairs_distances(g)))
            assert min_hitting_exact(n, fam.sets).bit_count() == 2

    def test_strict_family_star(self):
        n = 6
        g = star(n)
        d = all_pairs_distances(g)
        fam = family_strict(Rows(g, d))
        sol = min_hitting_exact(n, fam.sets)
        assert bits_list(sol) == tuple(range(1, n))

    def test_empty_family(self):
        # both solvers: subset tables for n <= 9, branch and bound above
        for n in range(SMALL_UNIVERSE + 2):
            assert min_hitting_exact(n, ()) == 0

    def test_empty_set_infeasible(self):
        for n in (4, SMALL_UNIVERSE + 1):
            with pytest.raises(InfeasibleInstanceError):
                min_hitting_exact(n, (0b1, 0))

    def test_universe_cap(self):
        with pytest.raises(ValueError):
            min_hitting_exact(63, (1,))
        with pytest.raises(ValueError, match="exceeds 9"):
            small_min_hitting(SMALL_UNIVERSE + 1, (1,))

    def test_lexicographic_witness(self):
        # optima are all {a, b} with a in {0,1}, b in {2,3}; the
        # sorted-sequence order prefers (0, 2)
        sets = (0b0011, 0b1100)
        assert bits_list(min_hitting_exact(4, sets)) == (0, 2)

    def test_deterministic(self):
        rng = random.Random(4)
        for _ in range(50):
            n, sets = random_hitting_instance(rng)
            a = min_hitting_exact(n, sets)
            b = min_hitting_exact(n, sets)
            assert a == b

    def test_solution_validity(self):
        rng = random.Random(11)
        for _ in range(200):
            n, sets = random_hitting_instance(rng)
            assert verify_hitting(sets, min_hitting_exact(n, sets))


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(300):
            n, sets = random_hitting_instance(rng)
            oracle = brute_force_min_hitting(n, sets)
            assert min_hitting_exact(n, sets) == oracle  # both lex-minimal
            for use_reductions in (True, False):
                sol = _branch_and_bound(n, sets, use_reductions)
                assert sol == oracle

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.lists(st.integers(min_value=1), min_size=1, max_size=12),
    )
    def test_matches_brute_force_property(self, n, raw_sets):
        sets = tuple(s % (1 << n) or 1 for s in raw_sets)
        assert min_hitting_exact(n, sets) == brute_force_min_hitting(n, sets)


# builder name -> builder from the graph's Rows; the mixed and psi
# entries first build the families their builders take
RESOLVER_BUILDERS = {
    "family_strict": family_strict,
    "family_weak": family_weak,
    "vertex_pair_family": vertex_pair_family,
    "edge_pair_family": edge_pair_family,
    "mixed_pair_family": mixed_pair_family,
    "psi_family": psi_pair_family,
}


class TestResolverFamilies:
    @pytest.mark.parametrize(
        "builder", RESOLVER_BUILDERS.values(), ids=list(RESOLVER_BUILDERS)
    )
    def test_matches_brute_force(self, builder):
        # real resolver families: larger and more structured than the
        # random instances above (many nested and overlapping sets)
        rng = random.Random(99)
        for _ in range(60):
            g = random_connected_graph(rng, n_min=4, n_max=9)
            sets = builder(Rows(g, all_pairs_distances(g))).sets
            oracle = brute_force_min_hitting(g.n, sets)
            assert small_min_hitting(g.n, sets) == oracle
            for use_reductions in (True, False):
                assert _branch_and_bound(g.n, sets, use_reductions) == oracle


class TestSmallMinHitting:
    def test_matches_branch_and_bound_on_class_families(self):
        # every non-empty family of every class with n <= 7: the six
        # families of 995 classes, less P_2's empty edge family
        checked = 0
        for n in range(2, 8):
            for g in GraphSource.enumeration(n).graphs():
                rows = Rows(g, all_pairs_distances(g))
                for builder in RESOLVER_BUILDERS.values():
                    sets = builder(rows).sets
                    if sets:
                        assert (small_min_hitting(n, sets)
                                == _branch_and_bound(n, sets))
                        checked += 1
        assert checked == 5969

    def test_matches_brute_force_on_random_families(self):
        # 1 <= n <= 9, with repeated sets and empty families
        rng = random.Random(9)
        for _ in range(1200):
            n = rng.randint(1, SMALL_UNIVERSE)
            sets = []
            for _ in range(rng.randint(0, 30)):
                if sets and rng.random() < 0.3:
                    sets.append(rng.choice(sets))
                else:
                    sets.append(rng.getrandbits(n) or 1 << rng.randrange(n))
            assert small_min_hitting(n, sets) == brute_force_min_hitting(
                n, sets)


def _reduce_by_comparison(sets):
    """The reductions as a comparison of each set with every kept set:
    the reference that ``reduce_family``'s transposed pass must match."""
    forced = 0
    work = set(sets)
    while True:
        singles = [s for s in work if s.bit_count() == 1]
        if not singles:
            break
        for s in singles:
            forced |= s
        work = {s for s in work if not s & forced}
    kept = []
    for s in sorted(work, key=lambda s: (s.bit_count(), s)):
        if not any(k & ~s == 0 for k in kept):
            kept.append(s)
    return forced, kept


def _nested_family(rng, n):
    """Random non-empty sets over 0..n-1 with duplicates, subsets and
    supersets of earlier sets, and now and then a singleton."""
    sets = []
    for _ in range(rng.randint(1, 80)):
        kind = rng.random()
        if sets and kind < 0.2:
            s = rng.choice(sets)
        elif sets and kind < 0.4:
            s = rng.choice(sets) | rng.getrandbits(n)
        elif sets and kind < 0.6:
            s = rng.choice(sets) & rng.getrandbits(n)
        elif kind < 0.63:
            s = 1 << rng.randrange(n)
        else:
            s = rng.getrandbits(n) & rng.getrandbits(n)
        sets.append(s or 1 << rng.randrange(n))
    return sets


class TestReduce:
    def test_matches_comparison_on_random_families(self):
        # universes of 1..62 vertices: every lane width 2, 4 and 8 bytes
        rng = random.Random(62)
        for n in range(1, 63):
            for _ in range(12):
                sets = _nested_family(rng, n)
                assert reduce_family(n, sets) == _reduce_by_comparison(sets)

    def test_matches_comparison_on_dense_edge_family(self):
        # 267 edges, 35,511 edge pair sets, 3,333 left after the rules
        g = random_connected_graph(random.Random(0), 32, 32)
        sets = edge_pair_family(Rows(g, all_pairs_distances(g))).sets
        forced, kept = reduce_family(g.n, sets)
        assert (forced, kept) == _reduce_by_comparison(sets)
        assert len(kept) > 3000

    def test_reduction_of_reduced_parts(self):
        # a family composed of others and further sets reduces, from
        # their forced vertices and kept sets, to what the whole family
        # reduces to: the composed beta_M and psi reductions rest on it
        rng = random.Random(63)
        for n in range(1, 40):
            for _ in range(8):
                parts = tuple(SetFamily(n, tuple(_nested_family(rng, n)))
                              for _ in range(rng.randint(1, 3)))
                own = tuple(_nested_family(rng, n)[:rng.randint(0, 20)])
                whole = [s for part in parts for s in part.sets] + list(own)
                assert (SetFamily(n, own, parts).reduction()
                        == reduce_family(n, whole))
