import json
from pathlib import Path

import pytest

from resolvability import GraphSource, verify_theorems
from resolvability.verify import (
    family_formula,
    verify_families,
    verify_order,
    verify_tprime_construction,
)

from conftest import slot_unpack_enumeration


def test_verify_small_orders_all_pass():
    checks = verify_theorems(3, 5)
    assert checks
    failed = [c for c in checks if not c.passed]
    assert failed == []


def test_verify_order_3_statements():
    checks = {c.name: c for c in verify_order(GraphSource.enumeration(3))}
    assert checks["dedge3"].passed
    assert checks["dedge3'"].passed
    assert checks["psimhs1(ii)"].passed
    assert checks["pointwise-laws"].passed


def test_verify_order_4_dedge_bounds():
    checks = {c.name: c for c in verify_order(GraphSource.enumeration(4))}
    assert checks["dedge"].passed
    assert checks["dedge"].statement == "1 <= (psi - beta_E)(n) <= 1"


def test_family_checks_pass():
    assert all(c.passed for c in verify_families(2, 7))


def test_family_rows_match_reference():
    # the closed forms come from family_formula, less beta_M(K_n); the
    # rows of verify 3..7 are pinned by the benchmark's reference
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify.json"
    rows = json.loads(reference.read_text())["full"]["rows"]
    want = [r for r in rows if r["check"].startswith("family-")]
    got = [{"check": c.name, "n": c.n, "statement": c.statement,
            "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
           for c in verify_families(3, 7)]
    assert got == want


def test_tprime_construction():
    for n in (8, 9):
        assert all(c.passed for c in verify_tprime_construction(n))


def test_family_formula_values():
    assert family_formula("path", (9,))["mhs_strict"] == 2
    assert family_formula("complete", (6,)) == {
        "mhs_strict": 6, "mhs_weak": 2, "psi": 5,
        "beta": 5, "beta_E": 5, "beta_M": 6,
    }
    assert family_formula("bipartite", (2, 4))["beta_M"] == 5
    assert family_formula("bipartite", (3, 3))["beta_M"] == 4
    assert family_formula("tprime", (9,)) == {"psi": 5, "beta_E": 2}


def test_stream_backed_order(tmp_path):
    # a stream for an order the builtin enumerator covers: equality
    # claims degrade to bound consistency but still pass
    from resolvability import write_graph6
    p = tmp_path / "n4.g6"
    with open(p, "w") as fh:
        for g in slot_unpack_enumeration(4):
            fh.write(write_graph6(g) + "\n")
    checks = verify_order(GraphSource.graph6_file(str(p), n=4))
    assert all(c.passed for c in checks)
    assert any("stream" in c.statement for c in checks)


def test_stream_without_order(tmp_path):
    # a source that names no order takes it from its stream's graphs
    from resolvability import cycle, path, write_graph6
    p = tmp_path / "n4.g6"
    p.write_text(f"{write_graph6(path(4))}\n{write_graph6(cycle(4))}\n")
    checks = verify_order(GraphSource.graph6_file(str(p)))
    assert {c.n for c in checks} == {4}
    assert "dedge" in {c.name for c in checks}
    assert all(c.passed for c in checks)


def test_stream_in_builtin_range_degrades_that_order(tmp_path):
    from resolvability import write_graph6
    p = tmp_path / "n4.g6"
    with open(p, "w") as fh:
        for g in slot_unpack_enumeration(4):
            fh.write(write_graph6(g) + "\n")
    checks = verify_theorems(3, 5, {4: str(p)})
    assert all(c.passed for c in checks)
    statements = {c.n: c.statement for c in checks if c.name == "psimhs1(i)"}
    assert statements == {
        3: "(mhs_weak - psi)(n) = 0",
        4: "(mhs_weak - psi)(n) <= 0 (stream, not provably exhaustive)",
        5: "(mhs_weak - psi)(n) = 0",
    }


def test_stream_dedge_checks_upper_bound_only(tmp_path):
    # P_8 and C_8 both give psi - beta_E = 1, below the exhaustive lower
    # bound 8 // 2 - 1 = 3; a stream cannot claim that bound
    from resolvability import cycle, path, write_graph6
    p = tmp_path / "n8.g6"
    p.write_text(f"{write_graph6(path(8))}\n{write_graph6(cycle(8))}\n")
    checks = {c.name: c
              for c in verify_order(GraphSource.graph6_file(str(p), n=8))}
    dedge = checks["dedge"]
    assert dedge.passed
    assert dedge.statement == (
        "(psi - beta_E)(n) <= 5 (stream, not provably exhaustive)")
    assert dedge.detail == "computed 1"
    assert all(c.passed for c in checks.values())


def test_bad_range():
    with pytest.raises(Exception):
        verify_theorems(5, 3)


def test_missing_stream_fails_before_any_sweep(monkeypatch):
    from resolvability import GraphError, verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept an order before checking every source")

    monkeypatch.setattr(verify, "sweep", no_sweep)
    with pytest.raises(GraphError, match="stream"):
        verify_theorems(3, 10)


def test_out_of_range_stream_fails_before_any_sweep(monkeypatch):
    from resolvability import GraphError, verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before checking every stream")

    monkeypatch.setattr(verify, "sweep", no_sweep)
    with pytest.raises(GraphError, match="stream for order 9 outside 3..4"):
        verify_theorems(3, 4, {9: "/nonexistent.g6"})


def test_check_line_format():
    line = verify_order(GraphSource.enumeration(3))[0].line()
    assert line.startswith("[PASS]") or line.startswith("[FAIL]")
