import json
from pathlib import Path

import pytest

from resolvability import invariant_values, verify_theorems
from resolvability.graph import generate
from resolvability.verify import (
    CLOSED_FORMS,
    DIFFERENCES,
    LAWS,
    verify_families,
    verify_order,
    verify_tprime_construction,
)


def test_verify_small_orders_all_pass():
    checks = verify_theorems(3, 5)
    assert checks
    failed = [c for c in checks if not c.passed]
    assert failed == []


def test_verify_order_3_statements():
    checks = {c.name: c for c in verify_order(3)}
    assert checks["dedge3"].passed
    assert checks["dedge3'"].passed
    assert checks["psimhs1(ii)"].passed
    assert checks["pointwise-laws"].passed


def test_verify_order_4_dedge_bounds():
    checks = {c.name: c for c in verify_order(4)}
    assert checks["dedge"].passed
    assert checks["dedge"].statement == "1 <= (psi - beta_E)(n) <= 1"


# per LAWS row: a graph, and changes to its values that break that law
# and no other
LAW_BREAKS = (
    ("path:4", {"mhs_strict": 1}),
    ("complete:4", {"mhs_weak": 4, "psi": 4}),
    ("path:4", {"psi": 1}),
    ("path:4", {"mhs_strict": 3}),
    ("cycle:5", {"beta_M": 5}),
    ("star:6", {"beta_E": 2}),
    ("path:4", {"beta_E": 2}),
    ("path:4", {"beta_M": 3}),
)


@pytest.mark.parametrize("row", range(len(LAWS)))
def test_each_law_fires_alone(row):
    assert len(LAW_BREAKS) == len(LAWS)
    spec, changes = LAW_BREAKS[row]
    g = generate(spec)
    values = invariant_values(g)
    assert all(holds(g, values) for _, holds in LAWS)
    values.update(changes)
    assert [msg for msg, holds in LAWS if not holds(g, values)] == [
        LAWS[row][0]]


def test_family_checks_pass():
    assert all(c.passed for c in verify_families(2, 7))


def test_family_rows_match_reference():
    # the closed forms come from CLOSED_FORMS, less beta_M(K_n); the rows
    # of verify 3..7, with the T'_8 and T'_9 rows, are pinned by the
    # benchmark's reference
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify.json"
    rows = json.loads(reference.read_text())["full"]["rows"]
    want = [r for r in rows if r["check"].startswith(("family-", "tprime-"))]
    assert {r["n"] for r in want if r["check"].startswith("tprime-")} == {8, 9}
    checks = (verify_families(3, 7) + verify_tprime_construction(8)
              + verify_tprime_construction(9))
    got = [{"check": c.name, "n": c.n, "statement": c.statement,
            "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
           for c in checks]
    assert got == want


def test_tprime_construction():
    for n in (8, 9):
        assert all(c.passed for c in verify_tprime_construction(n))


def family_formula(family, n):
    """The closed forms, by tag, of the member of order n of ``family``."""
    return CLOSED_FORMS[family][2](n)


def test_family_formula_values():
    assert family_formula("path", 9)["mhs_strict"] == 2
    assert family_formula("complete", 6) == {
        "mhs_strict": 6, "mhs_weak": 2, "psi": 5,
        "beta": 5, "beta_E": 5, "beta_M": 6,
    }
    assert family_formula("bipartite", 6)["beta_M"] == 5  # K_{2,4}
    assert family_formula("bipartite", 3)["beta_M"] == 2  # K_{2,1} = P_3
    assert family_formula("tprime", 9) == {"psi": 5, "beta_E": 2}


# DIFFERENCES row -> the CLOSED_FORMS family whose member of order n
# attains the row's value (the lower end of a range)
ATTAINED_BY = {
    "psimhs1(i)": "path", "hslel1(i)": "path", "mdiml1(i)": "path",
    "psimhs1(ii)": "complete", "hslel1(ii)": "complete",
    "mdiml1(ii)": "bipartite", "dedge": "tprime",
}


def test_differences_attained_by_closed_forms():
    # the tables alone, no solve: on the attaining family the closed
    # forms of a and b differ by each row's value at every n = 4..62
    covered = set()
    for name, (a, b), (least, greatest), value in DIFFERENCES:
        for n in range(max(4, least), min(62, greatest or 62) + 1):
            forms = family_formula(ATTAINED_BY[name], n)
            want = value(n)
            want = want[0] if isinstance(want, tuple) else want
            assert forms[a] - forms[b] == want, (name, n)
            covered.add(name)
    assert covered == set(ATTAINED_BY)


def test_bad_range():
    with pytest.raises(Exception):
        verify_theorems(5, 3)


def test_missing_stream_fails_before_any_sweep(monkeypatch):
    from resolvability import GraphError, verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept an order before checking the range")

    monkeypatch.setattr(verify, "sweep", no_sweep)
    with pytest.raises(GraphError) as exc:
        verify_theorems(3, 10)
    assert str(exc.value) == ("verify supports 2 <= n <= 9, the orders of "
                              "the builtin enumeration; got 3..10")


def test_check_line_format():
    line = verify_order(3)[0].line()
    assert line.startswith("[PASS]") or line.startswith("[FAIL]")
