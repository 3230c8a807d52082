"""The program's record types, and what importing the CLI loads.

The results are named tuples and ``SetFamily`` a slotted class, so
importing ``resolvability.cli`` loads neither ``dataclasses`` (with the
``inspect``/``ast`` chain it pulls in) nor ``csv``; every ``compute``
process pays that import.
"""

import os
import subprocess
import sys
import weakref

from resolvability.extremal import (
    ExtremalReport,
    GraphSource,
    SweepResult,
    extremal_difference,
)
from resolvability.families import SetFamily
from resolvability.invariants import InvariantResult
from resolvability.verify import CheckResult

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # compare modules the import adds: ``site`` may preload some
    code = ("import sys; before = set(sys.modules); import resolvability.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "resolvability.cli" in added
    assert not {"dataclasses", "inspect", "csv"} & set(added)


def test_record_fields():
    assert InvariantResult._fields == ("tag", "value", "witness")
    assert ExtremalReport._fields == (
        "xi1", "xi2", "n", "max_diff", "witness_graph6", "graphs_scanned")
    assert GraphSource._fields == ("kind", "n", "path")
    assert SweepResult._fields == (
        "n", "graphs_scanned", "reports", "law_failures")
    assert CheckResult._fields == ("name", "n", "statement", "passed",
                                   "detail")


def test_record_defaults():
    assert CheckResult("c", 3, "s", True).detail == ""
    assert GraphSource("graph6") == ("graph6", None, None)
    assert GraphSource.enumeration(4) == ("enumeration", 4, None)
    first, second = SweepResult(3, 4, {}), SweepResult(3, 4, {})
    assert first.law_failures == []
    assert first.law_failures is not second.law_failures


def test_records_unpack_and_keep_methods():
    tag, value, witness = InvariantResult("psi", 2, (0, 3))
    assert (tag, value, witness) == ("psi", 2, (0, 3))
    assert InvariantResult("psi", 2, (0, 3)).witness_labels() == [1, 4]
    assert CheckResult("c", 3, "s", False, "d").line() == "[FAIL] n=3 c: s (d)"
    assert (repr(InvariantResult("psi", 2, (0, 3)))
            == "InvariantResult(tag='psi', value=2, witness=(0, 3))")


def test_extremal_report_asdict():
    # the dict, in this key order, that the csv and json rows are made of
    report = extremal_difference("psi", "beta_E", GraphSource.enumeration(5))
    assert list(report._asdict().items()) == [
        ("xi1", "psi"), ("xi2", "beta_E"), ("n", 5), ("max_diff", 1),
        ("witness_graph6", "Ds_"), ("graphs_scanned", 728)]


def test_set_family_value_semantics():
    fam = SetFamily(3, (1, 6))
    assert weakref.ref(fam)() is fam
    assert fam == SetFamily(3, (1, 6))
    assert fam != SetFamily(4, (1, 6)) and fam != SetFamily(3, (6, 1))
    assert fam != (3, (1, 6))
    assert hash(fam) == hash(SetFamily(3, (1, 6)))
    assert len({fam, SetFamily(3, (1, 6))}) == 1
    assert repr(fam) == "SetFamily(n=3, sets=(1, 6))"
    # a composed family is its parts' sets, then its own: its parts
    # enter neither equality, hash nor repr
    composed = SetFamily(3, (4,), (fam, SetFamily(3, (2,))))
    assert composed.sets == (1, 6, 2, 4)
    assert composed.parts == (fam, SetFamily(3, (2,)))
    assert composed == SetFamily(3, (1, 6, 2, 4))
    assert hash(composed) == hash(SetFamily(3, (1, 6, 2, 4)))
    assert repr(composed) == "SetFamily(n=3, sets=(1, 6, 2, 4))"
    assert SetFamily(3, (1, 6)).parts == ()
