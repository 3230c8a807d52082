import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from resolvability import (
    GraphError,
    enumerate_connected,
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

from conftest import random_connected_graph


def _write_stream(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(write_graph6(g) + "\n")


def _connected_by_dfs(n, edge_set):
    """Independent connectivity check (adjacency lists + explicit stack)."""
    adj = {v: [] for v in range(n)}
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _slot_unpack_enumeration(n):
    """Every edge mask on n vertices in increasing order (bit b is the
    b-th pair (i, j), i < j, in column order), keeping connected ones."""
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(slots)):
        edges = [p for b, p in enumerate(slots) if mask >> b & 1]
        if _connected_by_dfs(n, edges):
            yield from_edge_list(n, edges)


# connected graphs up to isomorphism (OEIS A001349)
A001349 = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# labeled connected graphs (OEIS A001187)
A001187 = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify.json"


@lru_cache(maxsize=None)
def _class_firsts_naive(n):
    """(index, graph, values) for the first graph of each isomorphism
    class of the full labeled stream, in stream order."""
    seen, out = set(), []
    for index, g in enumerate(enumerate_connected(n)):
        form = canonical_form(n, g.adj)
        if form not in seen:
            seen.add(form)
            out.append((index, g, invariant_values(g)))
    return tuple(out)


def _naive_sweep(n, pairs):
    """The sweep's result from every labeled graph: the first maximizer
    of each pair and the law failures of each class's first graph."""
    best = {}
    failures = []
    for index, g, values in _class_firsts_naive(n):
        for p in pairs:
            diff = values[p[0]] - values[p[1]]
            if p not in best or diff > best[p][0]:
                best[p] = (diff, g)
        delta = max_degree(g)
        is_path = g.num_edges() == n - 1 and delta <= 2
        for msg in extremal._law_violations(
                n, values, is_maximal_neighbour_graph(g), delta, is_path):
            failures.append((index, write_graph6(g), msg))
    scanned = A001187[n]
    reports = {p: ExtremalReport(p[0], p[1], n, d, write_graph6(w), scanned)
               for p, (d, w) in best.items()}
    return SweepResult(n, scanned, reports, failures)


def _flag_paths(n, values, maximal_neighbour, delta, is_path):
    return ("flagged path",) if is_path else ()


def _flag_all(n, values, maximal_neighbour, delta, is_path):
    return ("flagged", f"flagged {n}")


class TestEnumeration:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_same_sequence_as_slot_unpack(self, n):
        # witnesses are first maximizers, so the order matters too
        assert list(enumerate_connected(n)) == list(_slot_unpack_enumeration(n))

    def test_n2_single_graph(self):
        graphs = list(enumerate_connected(2))
        assert len(graphs) == 1
        assert graphs[0].edges() == [(0, 1)]

    def test_n3_shapes(self):
        graphs = list(enumerate_connected(3))
        assert len(graphs) == 4  # three labeled paths and the triangle
        sizes = sorted(g.num_edges() for g in graphs)
        assert sizes == [2, 2, 2, 3]

    def test_n4_count_matches_independent_filter(self):
        from itertools import combinations
        pairs = list(combinations(range(4), 2))
        expected = 0
        for mask in range(64):
            edge_set = [p for i, p in enumerate(pairs) if mask >> i & 1]
            if _connected_by_dfs(4, edge_set):
                expected += 1
        assert sum(1 for _ in enumerate_connected(4)) == expected

    def test_no_duplicates(self):
        seen = set()
        for g in enumerate_connected(4):
            key = tuple(g.adj)
            assert key not in seen
            seen.add(key)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            list(enumerate_connected(8))
        with pytest.raises(GraphError):
            GraphSource.enumeration(1)


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
        assert sorted(witness.degrees()) == [2, 2, 2, 2, 4, 4]

    def test_witness_reproduces_max(self):
        for xi1, xi2 in (("psi", "beta_E"), ("mhs_strict", "mhs_weak")):
            report = extremal_difference(xi1, xi2, GraphSource.enumeration(5))
            values = invariant_values(parse_graph6(report.witness_graph6))
            assert values[xi1] - values[xi2] == report.max_diff

    @pytest.mark.parametrize("n", (4, 5))
    def test_witness_is_first_maximizer(self, n):
        graphs = list(enumerate_connected(n))
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
            _write_stream(p, enumerate_connected(n))
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
        with pytest.raises(GraphError, match="graph6 stream for n = 8"):
            sources(6, 9, {9: "n9.g6"})

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
        assert result.graphs_scanned == sum(1 for _ in enumerate_connected(n))

    def test_law_failures_reported_once_per_class(self, monkeypatch, tmp_path):
        monkeypatch.setattr(extremal, "_law_violations", _flag_paths)
        graphs = list(enumerate_connected(4))
        paths = [i for i, g in enumerate(graphs)
                 if g.num_edges() == 3 and max(g.degrees()) == 2]
        result = sweep(GraphSource.enumeration(4), pairs=())
        # P_4 is one class: one failure, at its first labeled graph
        assert result.law_failures == [
            (paths[0], write_graph6(graphs[paths[0]]), "flagged path")]
        p = tmp_path / "n4.g6"
        _write_stream(p, graphs)
        stream = sweep(GraphSource.graph6_file(str(p)), pairs=())
        assert stream.law_failures == result.law_failures

    @pytest.mark.parametrize("n", (5, 6))
    def test_law_failures_match_naive_scan(self, monkeypatch, tmp_path, n):
        monkeypatch.setattr(extremal, "_law_violations", _flag_paths)
        # naive: the first graph of each isomorphism class that is a path
        expected = []
        for index, g, _ in _class_firsts_naive(n):
            if g.num_edges() == n - 1 and max(g.degrees()) == 2:
                expected.append((index, write_graph6(g), "flagged path"))
        assert len(expected) == 1  # P_n is one class
        result = sweep(GraphSource.enumeration(n), pairs=())
        assert result.law_failures == expected
        p = tmp_path / f"n{n}.g6"
        _write_stream(p, enumerate_connected(n))
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
    def test_indices_are_stream_positions(self, n):
        yielded = list(GraphSource.enumeration(n).graphs())
        assert yielded == [(i, g) for i, g, _ in _class_firsts_naive(n)]

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
        _write_stream(p, enumerate_connected(5))
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
        by_degree = [sorted(range(8), key=lambda v: (g.degrees()[v], v))
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
        assert result.law_failures == [(0, write_graph6(p8), "flagged path")]
        assert result.graphs_scanned == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_graphs_scanned_is_labeled_count(self, n):
        result = sweep(GraphSource.enumeration(n), pairs=())
        assert result.graphs_scanned == A001187[n]

    def test_order_7_matches_reference(self, monkeypatch):
        reference = json.loads(REFERENCE.read_text())["reports"]["7"]
        yielded, calls = [], []
        class_firsts = extremal._class_firsts

        def recorded(n):
            for index, g in class_firsts(n):
                yielded.append(g)
                yield index, g

        def counted(g):
            calls.append(g)
            return invariant_values(g)

        monkeypatch.setattr(extremal, "_class_firsts", recorded)
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
