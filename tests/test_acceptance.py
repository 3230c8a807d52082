"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 3 sweeps every labeled connected graph up to order 7, which
is the slow part of the suite (about a minute on one core).
"""

import random
import time

from resolvability import (
    all_invariants,
    all_pairs_distances,
    brute_force_min_hitting,
    complete,
    complete_bipartite,
    cycle,
    family_weak,
    invariant_values,
    is_maximal_neighbour_graph,
    leaf_count,
    min_hitting_exact,
    parse_graph6,
    path,
    star,
    t_prime_tree,
    verify_hitting,
    w_sets,
    write_graph6,
)
from resolvability.graph import mask_of
from resolvability.families import edge_pair_family

from conftest import (
    random_connected_graph, random_hitting_instance, slot_unpack_enumeration)

_SEEN_GRAPHS = []  # every graph touched by criteria 1-7, for criterion 8


def _note(g):
    _SEEN_GRAPHS.append(g)
    return g


def _report(number, passed, text):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number} failed: {text}"


def _mhs(g):
    """``(mhs_strict, mhs_weak)`` of g."""
    res = all_invariants(g, ("mhs_strict", "mhs_weak"))
    return res["mhs_strict"].value, res["mhs_weak"].value


def test_criterion_1_closed_form_mhs_table():
    t0 = time.time()
    failures = []
    for n in range(2, 11):
        v = _mhs(_note(path(n)))
        if v != (2, 2):
            failures.append(f"P_{n}: {v}")
    for n in range(3, 11):
        if _mhs(_note(star(n))) != (n - 1, n - 1):
            failures.append(f"S_{n}")
        if _mhs(_note(complete(n))) != (n, 2):
            failures.append(f"K_{n}")
    for m in range(2, 9):
        if _mhs(_note(complete_bipartite(2, m))) != (2, 2):
            failures.append(f"K_2,{m}")
    elapsed = time.time() - t0
    _report(1, not failures and elapsed < 5.0,
            f"mhs closed forms on 4 families, {elapsed:.2f}s "
            f"(limit 5s){'; ' + str(failures) if failures else ''}")


def test_criterion_2_psi_closed_forms():
    t0 = time.time()
    failures = []
    for n in range(2, 10):
        psi = all_invariants(_note(complete(n)), ("psi",))["psi"]
        if psi.value != max(2, n - 1):
            failures.append(f"K_{n}")
    for n in range(3, 11):
        expected = 2 if n % 2 else 3
        if all_invariants(_note(cycle(n)), ("psi",))["psi"].value != expected:
            failures.append(f"C_{n}")
    for n in range(3, 10):
        g = _note(star(n))
        if all_invariants(g, ("psi",))["psi"].value != leaf_count(g):
            failures.append(f"S_{n}")
    for n in range(4, 13):
        g = _note(t_prime_tree(n))
        if all_invariants(g, ("psi",))["psi"].value != leaf_count(g):
            failures.append(f"T'_{n}")
    elapsed = time.time() - t0
    _report(2, not failures and elapsed < 60.0,
            f"psi closed forms, {elapsed:.2f}s "
            f"(limit 60s){'; ' + str(failures) if failures else ''}")


def test_criterion_3_exhaustive_extremal(theorem_sweeps):
    t0 = time.time()
    failures = []
    for n in range(3, 8):
        res = theorem_sweeps(n)
        d = {p: r.max_diff for p, r in res.reports.items()}
        expect = {
            ("mhs_weak", "psi"): 0,
            ("psi", "mhs_weak"): n - 3,
            ("mhs_weak", "mhs_strict"): 0,
            ("mhs_strict", "mhs_weak"): n - 2,
            ("mhs_strict", "beta_M"): 0,
            ("beta_M", "mhs_strict"): n - 3,
        }
        for pair, want in expect.items():
            if d[pair] != want:
                failures.append(f"n={n} {pair}: {d[pair]} != {want}")
        if n == 3:
            if d[("psi", "beta_E")] != 1:
                failures.append(f"n=3 (psi-beta_E): {d[('psi', 'beta_E')]}")
        else:
            if not n // 2 - 1 <= d[("psi", "beta_E")] <= n - 3:
                failures.append(f"n={n} (psi-beta_E) out of bounds")
        for report in res.reports.values():
            _SEEN_GRAPHS.append(parse_graph6(report.witness_graph6))
    elapsed = time.time() - t0
    _report(3, not failures,
            f"exhaustive extremal n=3..7, {elapsed:.1f}s "
            f"(target 600s){'; ' + str(failures) if failures else ''}")


def test_criterion_4_maximal_neighbour_biconditional(theorem_sweeps):
    failures = []
    # explicit triple-equivalence on small orders
    for n in range(2, 6):
        for g in slot_unpack_enumeration(n):
            v = invariant_values(g)
            flags = (v["mhs_strict"] == n, is_maximal_neighbour_graph(g),
                     v["beta_M"] == n)
            if len(set(flags)) != 1:
                failures.append(f"n={n} {write_graph6(g)}: {flags}")
    # n = 6 via the sweep's pointwise law check
    bad = [f for f in theorem_sweeps(6).law_failures
           if "maximal-neighbour" in f[1]]
    failures.extend(bad)
    _report(4, not failures,
            f"mhs_strict=n <=> maximal-neighbour <=> beta_M=n on all "
            f"connected graphs n=2..6"
            f"{'; ' + str(failures[:3]) if failures else ''}")


def _w_identity_checks(g, dist, failures):
    n = g.n
    full = (1 << n) - 1
    for u, v in g.edges():
        w_uv, w_vu, wb_uv, wb_vu, eq = w_sets(dist, u, v)
        if (w_uv & w_vu or wb_uv | wb_vu != full
                or eq != wb_uv & ~w_vu or eq != wb_vu & ~w_uv):
            failures.append(f"W identities on {write_graph6(g)}")
            return


def _value_checks(g, v, failures):
    n = g.n
    if not 2 <= v["mhs_weak"] <= v["mhs_strict"] <= n:
        failures.append(f"Lemma 1 chain on {write_graph6(g)}")
    if n >= 3 and v["mhs_weak"] > n - 1:
        failures.append(f"mhs_weak bound on {write_graph6(g)}")
    delta = max(a.bit_count() for a in g.adj)
    if v["beta_E"] < (delta - 1).bit_length():
        failures.append(f"log bound on {write_graph6(g)}")


def _psi_witness_check(g, dist, witness, failures):
    if not verify_hitting(family_weak(g, dist).sets, mask_of(witness)):
        failures.append(f"doub condition on {write_graph6(g)}")


def test_criterion_5_structural_invariants(connected_classes):
    failures = []
    # the values are class invariants, so they are checked once per
    # class; the W-set identities and the psi witness depend on the
    # labeling, so they are checked on every labeled graph
    for n in range(2, 7):
        for rep, values, graphs in connected_classes(n):
            _value_checks(rep, values, failures)
            for g in graphs:
                dist = all_pairs_distances(g)
                _w_identity_checks(g, dist, failures)
                psi = all_invariants(g, ("psi",))["psi"]
                _psi_witness_check(g, dist, psi.witness, failures)
        if failures:
            break
    rng = random.Random(20260823)
    for _ in range(1000):
        g = _note(random_connected_graph(rng, n_max=12))
        dist = all_pairs_distances(g)
        _w_identity_checks(g, dist, failures)
        results = all_invariants(g)
        _value_checks(g, {t: r.value for t, r in results.items()}, failures)
        _psi_witness_check(g, dist, results["psi"].witness, failures)
        if len(failures) > 3:
            break
    _report(5, not failures,
            f"W-set identities, Lemma 1 chain, Property 1, log bound and "
            f"doub conditions on all connected n<=6 plus 1000 random n<=12"
            f"{'; ' + str(failures[:3]) if failures else ''}")


def test_criterion_6_solver_oracle_equivalence():
    rng = random.Random(424242)
    mismatches = []
    for i in range(1000):
        n, sets = random_hitting_instance(rng, max_universe=16, max_sets=24)
        oracle = brute_force_min_hitting(n, sets)
        for use_reductions in (True, False):
            sol = min_hitting_exact(n, sets, use_reductions=use_reductions)
            if sol != oracle:
                mismatches.append((i, use_reductions))
    _report(6, not mismatches,
            f"exact solver vs brute-force oracle on 1000 random instances, "
            f"reductions on and off"
            f"{'; ' + str(mismatches[:3]) if mismatches else ''}")


def test_criterion_7_tprime_reproduction():
    figure_edges = {
        8: {(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7)},
        9: {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (2, 7), (3, 8)},
    }
    failures = []
    for n in (8, 9):
        g = _note(t_prime_tree(n))
        m = n // 2
        if set(g.edges()) != figure_edges[n]:
            failures.append(f"T'_{n} edges")
        if all_invariants(g, ("psi",))["psi"].value != m + 1:
            failures.append(f"psi(T'_{n})")
        if all_invariants(g, ("beta_E",))["beta_E"].value != 2:
            failures.append(f"beta_E(T'_{n})")
        base = mask_of((0, n - m))
        fam = edge_pair_family(g, all_pairs_distances(g))
        if not verify_hitting(fam.sets, base):
            failures.append(f"T'_{n} edge base {{v_1, v_{n - m + 1}}}")
    _report(7, not failures,
            f"T'_8 and T'_9 match the construction, psi = floor(n/2)+1, "
            f"beta_E = 2 with base {{v_1, v_(n-m+1)}}"
            f"{'; ' + str(failures) if failures else ''}")


def test_criterion_8_graph6_round_trip():
    graphs = list(_SEEN_GRAPHS)
    for n in range(2, 7):
        graphs.extend(slot_unpack_enumeration(n))
    failures = 0
    for g in graphs:
        if g.n > 62:
            continue
        s = write_graph6(g)
        if parse_graph6(s) != g or write_graph6(parse_graph6(s)) != s:
            failures += 1
    _report(8, failures == 0 and len(graphs) > 1000,
            f"graph6 round-trip byte-identical on {len(graphs)} graphs "
            f"from criteria 1-7")
