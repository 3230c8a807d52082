import json
import random
from functools import lru_cache
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from resolvability import (
    GraphError,
    extremal_difference,
    invariant_values,
    parse_graph6,
    write_graph6,
)
from resolvability import extremal
from resolvability.canon import canonical_form, relabeled_mask
from resolvability.extremal import (
    THEOREM_PAIRS,
    ExtremalReport,
    GraphSource,
    SweepResult,
    sources,
    sweep,
)
from resolvability.graph import (
    Graph,
    from_edge_list,
    is_maximal_neighbour_graph,
    max_degree,
)

from conftest import (
    _connected_by_dfs,
    brute_force_classes,
    random_connected_graph,
    slot_unpack_enumeration,
    unfiltered_class_forms,
)


def _write_stream(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(write_graph6(g) + "\n")


# connected graphs up to isomorphism (OEIS A001349)
A001349 = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# labeled connected graphs (OEIS A001187)
A001187 = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256,
           8: 251548592, 9: 66296291072}

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify.json"


@lru_cache(maxsize=None)
def _class_firsts_naive(n):
    """(graph, values) for the first graph of each isomorphism class of
    the full labeled stream, in stream order."""
    seen, out = set(), []
    for g in slot_unpack_enumeration(n):
        form = canonical_form(n, g.adj)
        if form not in seen:
            seen.add(form)
            out.append((g, invariant_values(g)))
    return tuple(out)


def _naive_sweep(n, pairs):
    """The sweep's result from every labeled graph: the first maximizer
    of each pair and the law failures of each class's first graph."""
    best = {}
    failures = []
    for g, values in _class_firsts_naive(n):
        for p in pairs:
            diff = values[p[0]] - values[p[1]]
            if p not in best or diff > best[p][0]:
                best[p] = (diff, g)
        delta = max_degree(g)
        is_path = g.num_edges() == n - 1 and delta <= 2
        for msg in extremal._law_violations(
                n, values, is_maximal_neighbour_graph(g), delta, is_path):
            failures.append((write_graph6(g), msg))
    scanned = A001187[n]
    reports = {p: ExtremalReport(p[0], p[1], n, d, write_graph6(w), scanned)
               for p, (d, w) in best.items()}
    return SweepResult(n, scanned, reports, failures)


def _flag_paths(n, values, maximal_neighbour, delta, is_path):
    return ("flagged path",) if is_path else ()


def _flag_all(n, values, maximal_neighbour, delta, is_path):
    return ("flagged", f"flagged {n}")


def _group_order(n, gens):
    """Order of the permutation group that ``gens`` generate."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    for p in todo:  # todo grows as the closure finds new elements
        for image in {tuple([g[v] for v in p]) for g in gens} - group:
            group.add(image)
            todo.append(image)
    return len(group)


class TestEnumeration:
    def test_n2_single_graph(self):
        graphs = list(GraphSource.enumeration(2).graphs())
        assert len(graphs) == 1
        assert graphs[0].edges() == [(0, 1)]

    def test_n3_shapes(self):
        # the path centred at vertex 0, then the triangle
        graphs = list(GraphSource.enumeration(3).graphs())
        assert [g.edges() for g in graphs] == [
            [(0, 1), (0, 2)], [(0, 1), (0, 2), (1, 2)]]

    def test_n4_count_matches_independent_filter(self):
        from itertools import combinations
        pairs = list(combinations(range(4), 2))
        expected = 0
        for mask in range(64):
            edge_set = [p for i, p in enumerate(pairs) if mask >> i & 1]
            if _connected_by_dfs(4, edge_set):
                expected += 1
        result = sweep(GraphSource.enumeration(4), pairs=())
        assert result.graphs_scanned == expected

    def test_no_duplicates(self):
        # no two yielded graphs are isomorphic, by brute force
        forms = [min(tuple(sorted(tuple(sorted((p[u], p[v])))
                                  for u, v in g.edges()))
                     for p in permutations(range(5)))
                 for g in GraphSource.enumeration(5).graphs()]
        assert len(set(forms)) == len(forms) == A001349[5]

    def test_out_of_range(self):
        for n in (1, 10):
            with pytest.raises(GraphError, match="2 <= n <= 9"):
                GraphSource.enumeration(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_prefilter_keeps_every_class(self, n):
        # the forms equal those of the chain with no subset orbits and
        # no largest-key prefilter
        assert set(extremal._classes(n)) == unfiltered_class_forms(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_class_counts_and_groups(self, n):
        # A001349 classes; the found automorphisms generate each group,
        # so the classes' labeled counts n!/|Aut| add up to A001187
        classes = extremal._classes(n)
        assert len(classes) == A001349[n]
        assert sum(factorial(n) // _group_order(n, gens)
                   for gens in classes.values()) == A001187[n]

    def test_orders_share_one_chain(self, monkeypatch):
        # the sources of orders 3..7 build the class chain from order 1
        # once: 1,046 canonical searches, as many as _classes(7) alone
        calls = []
        search = extremal._search

        def counted(*args):
            calls.append(args[0])
            return search(*args)

        monkeypatch.setattr(extremal, "_search", counted)
        extremal._classes.cache_clear()
        for source in sources(3, 7):
            for _ in source.graphs():
                pass
        assert len(calls) == 1046
        extremal._classes.cache_clear()
        extremal._classes(7)
        assert len(calls) == 2 * 1046

    def test_labeled_count_recurrence(self):
        assert {n: extremal._labeled_connected(n)
                for n in range(2, 10)} == A001187


class TestIsomorphismInvariance:
    def test_invariants_stable_under_relabeling(self):
        rng = random.Random(77)
        for _ in range(100):
            g = random_connected_graph(rng, n_max=7)
            n = g.n
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            h = from_edge_list(n, edges)
            assert invariant_values(g) == invariant_values(h)


class TestExtremalDifference:
    def test_psi_minus_weak(self):
        report = extremal_difference(
            "psi", "mhs_weak", GraphSource.enumeration(5))
        assert report.max_diff == 2

    def test_strict_minus_weak(self):
        report = extremal_difference(
            "mhs_strict", "mhs_weak", GraphSource.enumeration(5))
        assert report.max_diff == 3

    def test_weak_minus_psi_is_zero(self):
        report = extremal_difference(
            "mhs_weak", "psi", GraphSource.enumeration(4))
        assert report.max_diff == 0

    def test_beta_m_minus_strict_witness_is_k24(self):
        report = extremal_difference(
            "beta_M", "mhs_strict", GraphSource.enumeration(6))
        assert report.max_diff == 3
        witness = parse_graph6(report.witness_graph6)
        values = invariant_values(witness)
        assert values["beta_M"] - values["mhs_strict"] == 3
        # witness class is K_{2,4}: bipartite 2+4, all degrees 2 or 4
        assert sorted(a.bit_count() for a in witness.adj) == [2, 2, 2, 2, 4, 4]

    def test_witness_reproduces_max(self):
        for xi1, xi2 in (("psi", "beta_E"), ("mhs_strict", "mhs_weak")):
            report = extremal_difference(xi1, xi2, GraphSource.enumeration(5))
            values = invariant_values(parse_graph6(report.witness_graph6))
            assert values[xi1] - values[xi2] == report.max_diff

    @pytest.mark.parametrize("n", (4, 5))
    def test_witness_is_first_maximizer(self, n):
        graphs = slot_unpack_enumeration(n)
        values = [invariant_values(g) for g in graphs]
        result = sweep(GraphSource.enumeration(n))
        for (xi1, xi2), report in result.reports.items():
            diffs = [v[xi1] - v[xi2] for v in values]
            first = graphs[diffs.index(max(diffs))]
            assert report.max_diff == max(diffs)
            assert report.witness_graph6 == write_graph6(first)

    def test_deterministic(self):
        a = extremal_difference("psi", "mhs_weak", GraphSource.enumeration(4))
        b = extremal_difference("psi", "mhs_weak", GraphSource.enumeration(4))
        assert a == b

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            extremal_difference("psi", "nope", GraphSource.enumeration(3))


class TestStreamSource:
    def test_stream_agrees_with_builtin(self, tmp_path):
        for n in (5, 6):
            p = tmp_path / f"n{n}.g6"
            _write_stream(p, slot_unpack_enumeration(n))
            builtin = sweep(GraphSource.enumeration(n), THEOREM_PAIRS)
            stream = sweep(GraphSource.graph6_file(str(p)), THEOREM_PAIRS)
            assert stream == builtin

    def test_empty_stream(self, tmp_path):
        p = tmp_path / "empty.g6"
        p.write_text("\n  \n")
        with pytest.raises(GraphError, match="empty.g6: stream holds no graphs"):
            extremal_difference("psi", "mhs_weak",
                                GraphSource.graph6_file(str(p)))

    def test_mixed_orders_rejected(self, tmp_path):
        p = tmp_path / "mixed.g6"
        p.write_text("A_\n\nBw\n")
        with pytest.raises(GraphError, match="line 3: graph of order 3 in "
                                             "a stream of order 2"):
            extremal_difference("psi", "mhs_weak",
                                GraphSource.graph6_file(str(p)))

    @pytest.mark.parametrize("text,message", [
        ("A_\n\nA!\n", "line 3: graph6 string"),
        ("A_\nA?\n", "line 2: graph is disconnected"),
        ("A_\nA\u00e9\n", "line 2: graph6 string"),
    ])
    def test_bad_line_named(self, tmp_path, text, message):
        p = tmp_path / "bad.g6"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(GraphError, match=f"bad.g6, {message}"):
            extremal_difference("psi", "mhs_weak",
                                GraphSource.graph6_file(str(p)))


class TestSources:
    def test_orders_and_kinds(self):
        got = sources(3, 8, {4: "n4.g6", 8: "n8.g6"})
        assert [(s.n, s.kind, s.path) for s in got] == [
            (3, "enumeration", None), (4, "graph6", "n4.g6"),
            (5, "enumeration", None), (6, "enumeration", None),
            (7, "enumeration", None), (8, "graph6", "n8.g6")]
        assert sources(3, 5) == sources(3, 5, {}) == [
            GraphSource.enumeration(n) for n in (3, 4, 5)]

    @pytest.mark.parametrize("order", [2, 9])
    def test_stream_outside_range(self, order):
        with pytest.raises(GraphError,
                           match=f"stream for order {order} outside 3..8"):
            sources(3, 8, {order: "/nonexistent.g6", 8: "n8.g6"})

    def test_order_without_source(self):
        with pytest.raises(GraphError, match="builtin enumeration supports "
                           "2 <= n <= 9; use a graph6 stream for n = 10"):
            sources(7, 11, {11: "n11.g6"})

    @pytest.mark.parametrize("lo,streams", [
        (1, {}), (0, {}), (0, {0: "n0.g6"}), (1, {3: "n3.g6"})])
    def test_order_below_2(self, lo, streams):
        # no stream can help below order 2, so the message offers none
        with pytest.raises(GraphError) as info:
            sources(lo, 3, streams)
        assert str(info.value) == (
            f"no sweep of order {lo}: invariants are defined for n >= 2")


class TestSweepLaws:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_no_law_failures(self, n):
        result = sweep(GraphSource.enumeration(n), pairs=())
        assert result.law_failures == []
        assert result.graphs_scanned == len(slot_unpack_enumeration(n))

    def test_law_failures_reported_once_per_class(self, monkeypatch, tmp_path):
        monkeypatch.setattr(extremal, "_law_violations", _flag_paths)
        graphs = slot_unpack_enumeration(4)
        paths = [g for g in graphs
                 if g.num_edges() == 3 and max_degree(g) == 2]
        result = sweep(GraphSource.enumeration(4), pairs=())
        # P_4 is one class: one failure, at its first labeled graph
        assert result.law_failures == [
            (write_graph6(paths[0]), "flagged path")]
        p = tmp_path / "n4.g6"
        _write_stream(p, graphs)
        stream = sweep(GraphSource.graph6_file(str(p)), pairs=())
        assert stream.law_failures == result.law_failures

    @pytest.mark.parametrize("n", (5, 6))
    def test_law_failures_match_naive_scan(self, monkeypatch, tmp_path, n):
        monkeypatch.setattr(extremal, "_law_violations", _flag_paths)
        # naive: the first graph of each isomorphism class that is a path
        expected = []
        for g, _ in _class_firsts_naive(n):
            if g.num_edges() == n - 1 and max_degree(g) == 2:
                expected.append((write_graph6(g), "flagged path"))
        assert len(expected) == 1  # P_n is one class
        result = sweep(GraphSource.enumeration(n), pairs=())
        assert result.law_failures == expected
        p = tmp_path / f"n{n}.g6"
        _write_stream(p, slot_unpack_enumeration(n))
        stream = sweep(GraphSource.graph6_file(str(p)), pairs=())
        assert stream.law_failures == expected


class TestEnumerationSource:
    """The builtin source yields only the first graph of each class;
    the sweep must not see the difference."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("laws", ["real", "paths", "all"])
    def test_sweep_equals_naive_scan(self, monkeypatch, n, laws):
        if laws != "real":
            monkeypatch.setattr(extremal, "_law_violations",
                                _flag_paths if laws == "paths" else _flag_all)
        result = sweep(GraphSource.enumeration(n), THEOREM_PAIRS)
        assert result == _naive_sweep(n, THEOREM_PAIRS)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_yields_first_graph_of_each_class(self, n):
        # the naive scan keyed by the brute-force form, which shares no
        # code with canon: each class at its first labeled graph
        firsts = [form for form, _, _ in brute_force_classes(n)]
        slots = [(i, j) for j in range(1, n) for i in range(j)]
        graphs = list(GraphSource.enumeration(n).graphs())
        assert all(g.n == n for g in graphs)
        assert [sum(1 << b for b, (i, j) in enumerate(slots)
                    if g.adj[j] >> i & 1) for g in graphs] == firsts

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sweep_does_not_fold(self, monkeypatch, n):
        def no_fold(*args):
            raise AssertionError("builtin source folded")

        monkeypatch.setattr(extremal, "canonical_form", no_fold)
        result = sweep(GraphSource.enumeration(n), THEOREM_PAIRS)
        assert result == _naive_sweep(n, THEOREM_PAIRS)

    def test_stream_is_folded(self, monkeypatch, tmp_path):
        # every labeled graph of order 5: one solve and, with paths
        # flagged, one law failure per class, as from the builtin source
        p = tmp_path / "n5.g6"
        _write_stream(p, slot_unpack_enumeration(5))
        monkeypatch.setattr(extremal, "_law_violations", _flag_paths)
        calls = []

        def counted(g):
            calls.append(g)
            return invariant_values(g)

        monkeypatch.setattr(extremal, "invariant_values", counted)
        stream = sweep(GraphSource.graph6_file(str(p)), THEOREM_PAIRS)
        assert len(calls) == A001349[5]
        assert stream == sweep(GraphSource.enumeration(5), THEOREM_PAIRS)

    def test_stream_above_7_is_folded_by_class(self, monkeypatch, tmp_path):
        # two labelings of P_8 whose degree-sorted relabelings differ,
        # with a star between them: one solve and one law failure per class
        p8 = from_edge_list(8, [(v, v + 1) for v in range(7)])
        walk = [3, 0, 7, 5, 1, 6, 2, 4]
        other = from_edge_list(8, list(zip(walk, walk[1:])))
        star = from_edge_list(8, [(0, v) for v in range(1, 8)])
        by_degree = [sorted(range(8),
                            key=lambda v: (g.adj[v].bit_count(), v))
                     for g in (p8, other)]
        assert (relabeled_mask(8, p8.adj, by_degree[0])
                != relabeled_mask(8, other.adj, by_degree[1]))
        p = tmp_path / "n8.g6"
        _write_stream(p, [p8, star, other])
        monkeypatch.setattr(extremal, "_law_violations", _flag_paths)
        calls = []

        def counted(g):
            calls.append(g)
            return invariant_values(g)

        monkeypatch.setattr(extremal, "invariant_values", counted)
        result = sweep(GraphSource.graph6_file(str(p)), THEOREM_PAIRS)
        assert calls == [p8, star]
        assert result.law_failures == [(write_graph6(p8), "flagged path")]
        assert result.graphs_scanned == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_graphs_scanned_is_labeled_count(self, n):
        result = sweep(GraphSource.enumeration(n), pairs=())
        assert result.graphs_scanned == A001187[n]

    def test_order_7_matches_reference(self, monkeypatch):
        reference = json.loads(REFERENCE.read_text())["reports"]["7"]
        yielded, calls = [], []
        graphs = GraphSource.graphs

        def recorded(source):
            for g in graphs(source):
                yielded.append(g)
                yield g

        def counted(g):
            calls.append(g)
            return invariant_values(g)

        monkeypatch.setattr(GraphSource, "graphs", recorded)
        monkeypatch.setattr(extremal, "invariant_values", counted)
        result = sweep(GraphSource.enumeration(7), THEOREM_PAIRS)
        assert len(yielded) == A001349[7]
        assert len({canonical_form(7, g.adj) for g in yielded}) == A001349[7]
        assert calls == yielded
        assert result.graphs_scanned == A001187[7]
        assert result.law_failures == []
        got = {f"{a}-{b}": {"max_diff": r.max_diff,
                            "witness_graph6": r.witness_graph6}
               for (a, b), r in result.reports.items()}
        assert got == reference


class TestClassSolves:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_solve_per_isomorphism_class(self, monkeypatch, n):
        calls = []

        def counted(g):
            calls.append(g)
            return invariant_values(g)

        monkeypatch.setattr(extremal, "invariant_values", counted)
        sweep(GraphSource.enumeration(n), THEOREM_PAIRS)
        assert len(calls) == A001349[n]
