import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvability import (
    InfeasibleInstanceError,
    all_pairs_distances,
    brute_force_min_hitting,
    complete,
    edge_pair_family,
    family_strict,
    family_weak,
    greedy_hitting,
    min_hitting_exact,
    path,
    star,
    verify_hitting,
    vertex_pair_family,
)
from resolvability.families import psi_family
from resolvability.graph import bits_list, mask_of
from resolvability.hitting import _reduce

from conftest import (
    mixed_pair_family, random_connected_graph, random_hitting_instance)


class TestVerify:
    def test_singletons(self):
        sets = (0b01, 0b10)
        assert verify_hitting(sets, 0b11)
        assert not verify_hitting(sets, 0b01)

    def test_path_endpoints_hit_strict_family(self):
        g = path(5)
        fam = family_strict(g, all_pairs_distances(g))
        assert verify_hitting(fam.sets, mask_of((0, 4)))

    def test_empty_family_vacuous(self):
        assert verify_hitting((), 0)


class TestGreedy:
    def test_single_singleton(self):
        assert greedy_hitting(3, (0b010,)) == 0b010

    def test_k3_strict_family_needs_three(self):
        g = complete(3)
        fam = family_strict(g, all_pairs_distances(g))
        got = greedy_hitting(3, fam.sets)
        assert got.bit_count() == 3

    def test_empty_set_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            greedy_hitting(3, (0b010, 0))

    def test_greedy_is_valid(self):
        rng = random.Random(17)
        for _ in range(200):
            n, sets = random_hitting_instance(rng)
            assert verify_hitting(sets, greedy_hitting(n, sets))


class TestExact:
    def test_weak_family_complete_graphs(self):
        for n in range(3, 8):
            g = complete(n)
            fam = family_weak(g, all_pairs_distances(g))
            assert min_hitting_exact(n, fam.sets).bit_count() == 2

    def test_strict_family_star(self):
        n = 6
        g = star(n)
        fam = family_strict(g, all_pairs_distances(g))
        sol = min_hitting_exact(n, fam.sets)
        assert bits_list(sol) == tuple(range(1, n))

    def test_empty_family(self):
        assert min_hitting_exact(10, ()) == 0

    def test_empty_set_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            min_hitting_exact(4, (0b1, 0))

    def test_universe_cap(self):
        with pytest.raises(ValueError):
            min_hitting_exact(63, (1,))

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

    def test_solution_validity_and_greedy_bound(self):
        rng = random.Random(11)
        for _ in range(200):
            n, sets = random_hitting_instance(rng)
            sol = min_hitting_exact(n, sets)
            assert verify_hitting(sets, sol)
            assert sol.bit_count() <= greedy_hitting(n, sets).bit_count()


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(300):
            n, sets = random_hitting_instance(rng)
            oracle = brute_force_min_hitting(n, sets)
            for use_reductions in (True, False):
                sol = min_hitting_exact(n, sets, use_reductions=use_reductions)
                assert sol == oracle  # both lex-minimal

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.lists(st.integers(min_value=1), min_size=1, max_size=12),
    )
    def test_matches_brute_force_property(self, n, raw_sets):
        sets = tuple(s % (1 << n) or 1 for s in raw_sets)
        assert min_hitting_exact(n, sets) == brute_force_min_hitting(n, sets)


RESOLVER_BUILDERS = (
    family_strict,
    family_weak,
    vertex_pair_family,
    edge_pair_family,
    mixed_pair_family,
    psi_family,
)


class TestResolverFamilies:
    @pytest.mark.parametrize(
        "builder", RESOLVER_BUILDERS, ids=lambda b: b.__name__
    )
    def test_matches_brute_force(self, builder):
        # real resolver families: larger and more structured than the
        # random instances above (many nested and overlapping sets)
        rng = random.Random(99)
        for _ in range(60):
            g = random_connected_graph(rng, n_min=4, n_max=9)
            sets = builder(g, all_pairs_distances(g)).sets
            oracle = brute_force_min_hitting(g.n, sets)
            for use_reductions in (True, False):
                sol = min_hitting_exact(
                    g.n, sets, use_reductions=use_reductions)
                assert sol == oracle


def _reduce_by_comparison(sets):
    """The reductions as a comparison of each set with every kept set:
    the reference that ``_reduce``'s transposed pass must match."""
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
        # universes of 1..62 vertices: every byte lane width 1..8
        rng = random.Random(62)
        for n in range(1, 63):
            for _ in range(12):
                sets = _nested_family(rng, n)
                assert _reduce(n, sets) == _reduce_by_comparison(sets)

    def test_matches_comparison_on_dense_edge_family(self):
        # 267 edges, 35,511 edge pair sets, 3,333 left after the rules
        g = random_connected_graph(random.Random(0), 32, 32)
        sets = edge_pair_family(g, all_pairs_distances(g)).sets
        forced, kept = _reduce(g.n, sets)
        assert (forced, kept) == _reduce_by_comparison(sets)
        assert len(kept) > 3000
