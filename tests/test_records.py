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
    assert GraphSource._fields == ("n", "path")
    assert SweepResult._fields == (
        "n", "graphs_scanned", "reports", "law_failures")
    assert CheckResult._fields == ("name", "n", "statement", "passed",
                                   "detail")


def test_record_defaults():
    assert CheckResult("c", 3, "s", True).detail == ""
    assert GraphSource.enumeration(4) == (4, None)
    assert GraphSource.graph6_file("n4.g6", 4) == (4, "n4.g6")


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


def test_set_family_fields():
    fam = SetFamily(3, (1, 6))
    assert weakref.ref(fam)() is fam
    assert (fam.n, fam.sets, fam.parts) == (3, (1, 6), ())
    # a composed family is its parts' sets, then its own
    other = SetFamily(3, (2,))
    composed = SetFamily(3, (4,), (fam, other))
    assert composed.sets == (1, 6, 2, 4)
    assert composed.parts == (fam, other)
