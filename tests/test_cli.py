import csv
import io
import json

import pytest

from resolvability.cli import main
from resolvability.graph import GraphError

from conftest import slot_unpack_enumeration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_complete_5(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "complete:5",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)[0]
        assert record["psi"] == 4
        assert record["mhs_weak"] == 2
        assert record["mhs_strict"] == 5

    def test_tprime_9(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "tprime:9",
                           "--format", "json")
        record = json.loads(out)[0]
        assert code == 0
        assert record["psi"] == 5
        assert record["beta_E"] == 2

    def test_graph6_k4(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", "C~",
                           "--format", "json")
        record = json.loads(out)[0]
        assert code == 0
        assert record["beta"] == 3

    def test_edges_file(self, capsys, tmp_path):
        p = tmp_path / "p4.txt"
        p.write_text("4 3\n1 2\n2 3\n3 4\n")
        code, out, _ = run(capsys, "compute", "--edges", str(p))
        assert code == 0
        assert "beta" in out

    def test_invariant_selection(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "path:5",
                           "--invariants", "psi,mhs_weak")
        assert code == 0
        assert "psi" in out and "mhs_weak" in out and "beta_M" not in out

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_repeated_invariant_listed_once(self, capsys, fmt):
        code, out, _ = run(capsys, "compute", "--gen", "complete:6",
                           "--invariants", "psi,psi,beta_E",
                           "--format", fmt)
        assert code == 0
        if fmt == "json":
            record = json.loads(out)
            assert len(record) == 1
            assert sorted(record[0]["witnesses"]) == ["beta_E", "psi"]
        else:
            lines = out.splitlines()
            assert len(lines) == 3  # header, psi, beta_E
            assert [line.split(",")[0].split()[0] for line in lines[1:]] == [
                "psi", "beta_E"]

    def test_witnesses_one_based(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "path:4",
                           "--invariants", "mhs_strict")
        assert code == 0
        assert "v1 v4" in out

    def test_disconnected_input(self, capsys, tmp_path):
        p = tmp_path / "disc.txt"
        p.write_text("4 2\n1 2\n3 4\n")
        code, _, err = run(capsys, "compute", "--edges", str(p))
        assert code == 1
        assert "disconnected" in err

    @pytest.mark.parametrize("line, message", [
        ("0 3", "line 2: edge (0, 3) out of range 1..3"),
        ("3 3", "line 2: self-loop at vertex 3"),
        ("2 4", "line 2: edge (2, 4) out of range 1..3"),
    ])
    def test_edge_list_errors_are_one_based(self, capsys, tmp_path, line,
                                            message):
        p = tmp_path / "bad.txt"
        p.write_text(f"3 1\n{line}\n")
        code, _, err = run(capsys, "compute", "--edges", str(p))
        assert code == 1
        assert message in err

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "~zz")
        assert code == 1
        assert "error" in err

    def test_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "compute", "--gen", "path:3",
                           "--graph6", "C~")
        assert code == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "compute", "--gen", "cycle:6")
        _, out2, _ = run(capsys, "compute", "--gen", "cycle:6")
        assert out1 == out2

    def test_selection_solves_only_selected(self, capsys, monkeypatch):
        from resolvability import invariants

        solves = []
        original = invariants.min_hitting_exact

        def counted(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(invariants, "min_hitting_exact", counted)
        code, out, _ = run(capsys, "compute", "--gen", "complete:6",
                           "--invariants", "psi", "--format", "json")
        assert code == 0
        assert len(solves) == 1
        record = json.loads(out)[0]
        assert record["psi"] == 5
        assert set(record) == {"graph6", "n", "m", "psi", "witnesses"}
        assert record["witnesses"] == {"psi": [1, 2, 3, 4, 5]}

    def test_empty_invariant_list(self, capsys):
        code, out, err = run(capsys, "compute", "--gen", "path:3",
                             "--invariants=")
        assert code == 1
        assert out == ""
        assert err == "error: empty --invariants list; name at least one tag\n"

    def test_unknown_invariant(self, capsys):
        code, out, err = run(capsys, "compute", "--gen", "path:3",
                             "--invariants", "psi,bogus")
        assert code == 1
        assert out == ""
        assert "unknown invariant 'bogus'" in err


class TestFamilies:
    def test_paths(self, capsys):
        code, out, _ = run(capsys, "families", "path", "2..10",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        mhs_rows = [r for r in rows if r["invariant"].startswith("mhs")]
        assert mhs_rows and all(r["computed"] == "2" for r in mhs_rows)
        assert all(r["status"] == "ok" for r in rows)

    def test_stars(self, capsys):
        code, out, _ = run(capsys, "families", "star", "3..9",
                           "--format", "csv")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            if row["invariant"].startswith("mhs"):
                assert int(row["computed"]) == int(row["param"]) - 1

    def test_cycles_psi_alternates(self, capsys):
        code, out, _ = run(capsys, "families", "cycle", "3..10",
                           "--format", "csv")
        assert code == 0
        psi = [int(r["computed"]) for r in csv.DictReader(io.StringIO(out))
               if r["invariant"] == "psi"]
        assert psi == [2 if n % 2 else 3 for n in range(3, 11)]

    def test_bipartite_means_k2n(self, capsys):
        code, out, _ = run(capsys, "families", "bipartite", "3..5",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["param"] for r in rows} == {"3", "4", "5"}
        for row in rows:
            assert row["graph"] == f"bipartite:2,{row['param']}"
            _, record, _ = run(capsys, "compute", "--gen", row["graph"],
                               "--format", "json")
            record = json.loads(record)[0]
            assert record["n"] == int(row["param"]) + 2
            assert record[row["invariant"]] == int(row["computed"])
        with pytest.raises(SystemExit):
            run(capsys, "families", "--help")
        assert "K_{2,N}" in capsys.readouterr().out

    def test_below_minimum(self, capsys):
        code, _, err = run(capsys, "families", "cycle", "2..4")
        assert code == 1

    def test_empty_range(self, capsys):
        code, out, err = run(capsys, "families", "path", "6..4")
        assert code == 1
        assert out == ""
        assert "empty range '6..4'" in err


class TestExtremal:
    def test_psi_weak_sweep(self, capsys):
        code, out, _ = run(capsys, "extremal", "psi", "mhs_weak", "4..6",
                           "--format", "csv")
        assert code == 0
        diffs = [int(r["max_diff"]) for r in csv.DictReader(io.StringIO(out))]
        assert diffs == [1, 2, 3]

    def test_empty_range(self, capsys):
        code, out, err = run(capsys, "extremal", "psi", "beta", "5..3")
        assert code == 1
        assert out == ""
        assert "empty range '5..3'" in err

    # int() reads the first four as 3..10, 3..4, 3..4 and 3
    @pytest.mark.parametrize("text", [
        "3..1_0", "\uff13..\uff14", "+3..4", "\u0663", "3..-4", " 3..4",
        "3..4..5", ".."])
    def test_bad_range(self, capsys, text):
        code, out, err = run(capsys, "extremal", "psi", "beta", text)
        assert code == 1
        assert out == ""
        assert err == f"error: bad range {text!r}, expected N or N..M\n"

    @pytest.mark.parametrize("argv", [
        ("1..3",), ("0..3", "--stream", "0:x.g6")])
    def test_order_below_2(self, capsys, argv):
        code, out, err = run(capsys, "extremal", "psi", "beta", *argv)
        assert code == 1
        assert out == ""
        assert err == (f"error: no sweep of order {argv[0][0]}: invariants "
                       f"are defined for n >= 2\n")

    def test_stream_required_above_9(self, capsys):
        code, _, err = run(capsys, "extremal", "psi", "beta_E", "10")
        assert code == 1
        assert "stream" in err

    def test_missing_stream_fails_before_any_sweep(self, capsys, monkeypatch):
        from resolvability import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept an order before checking every source")

        monkeypatch.setattr(cli, "extremal_difference", no_sweep)
        code, _, err = run(capsys, "extremal", "psi", "beta_E", "5..10")
        assert code == 1
        assert "stream" in err

    def test_bare_path_stream_fails(self, capsys, tmp_path):
        from resolvability import path, write_graph6
        p = tmp_path / "p8.g6"
        p.write_text(write_graph6(path(8)) + "\n")
        code, out, err = run(capsys, "extremal", "psi", "beta_E", "8",
                             "--stream", str(p))
        assert code == 1
        assert out == ""
        assert err == f"error: bad --stream {str(p)!r}, expected N:PATH\n"

    def test_out_of_range_stream_fails_before_any_sweep(
        self, capsys, monkeypatch
    ):
        from resolvability import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking every stream")

        monkeypatch.setattr(cli, "extremal_difference", no_sweep)
        code, out, err = run(capsys, "extremal", "psi", "beta", "3..4",
                             "--stream", "9:/nonexistent.g6")
        assert code == 1
        assert out == ""
        assert "stream for order 9 outside 3..4" in err

    def test_one_stream_per_order(self, capsys, tmp_path):
        from resolvability import cycle, path, write_graph6
        p8, p9 = tmp_path / "n8.g6", tmp_path / "n9.g6"
        p8.write_text(f"{write_graph6(path(8))}\n{write_graph6(cycle(8))}\n")
        p9.write_text(f"{write_graph6(path(9))}\n")
        code, out, _ = run(capsys, "extremal", "psi", "beta_E", "8..9",
                           "--stream", f"8:{p8}", "--stream", f"9:{p9}",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["graphs_scanned"]) for r in rows] == [
            ("8", "2"), ("9", "1")]

    def test_json_csv_same_values(self, capsys):
        code, out_csv, _ = run(capsys, "extremal", "mhs_strict", "mhs_weak",
                               "4..5", "--format", "csv")
        code2, out_json, _ = run(capsys, "extremal", "mhs_strict", "mhs_weak",
                                 "4..5", "--format", "json")
        assert code == code2 == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)
        for a, b in zip(csv_rows, json_rows):
            for key, value in b.items():
                assert str(value) == a[key]

    def test_out_file(self, capsys, tmp_path):
        p = tmp_path / "report.json"
        code, out, _ = run(capsys, "extremal", "psi", "mhs_weak", "4",
                           "--format", "json", "--out", str(p))
        assert code == 0 and out == ""
        assert json.loads(p.read_text())[0]["max_diff"] == 1


class TestVerify:
    def test_pass_range(self, capsys):
        code, out, err = run(capsys, "verify", "3..4")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "checks passed" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_out_file_equals_stdout(self, capsys, tmp_path, fmt):
        code, out, _ = run(capsys, "verify", "3..4", "--format", fmt)
        assert code == 0
        p = tmp_path / f"verify.{fmt}"
        code, written, _ = run(capsys, "verify", "3..4", "--format", fmt,
                               "--out", str(p))
        assert code == 0 and written == ""
        assert p.read_text(encoding="utf-8") == out

    def test_stream_argument(self, capsys, tmp_path):
        from resolvability import write_graph6
        p = tmp_path / "n4.g6"
        with open(p, "w") as fh:
            for g in slot_unpack_enumeration(4):
                fh.write(write_graph6(g) + "\n")
        code, out, _ = run(capsys, "verify", "3..4", "--stream",
                           f"4:{p}")
        assert code == 0

    @pytest.mark.parametrize("item", [
        "f.g6", "x:f.g6", ":f.g6", "\u0663:f.g6", "\uff14:f.g6", "+4:f.g6"])
    def test_bad_stream_argument(self, capsys, item):
        code, out, err = run(capsys, "verify", "3..4", "--stream", item)
        assert code == 1
        assert out == ""
        assert err == f"error: bad --stream {item!r}, expected N:PATH\n"

    def test_repeated_stream_order_fails(self, capsys, tmp_path):
        from resolvability import cycle, path, write_graph6
        a, b = tmp_path / "a.g6", tmp_path / "b.g6"
        a.write_text(f"{write_graph6(path(8))}\n")
        b.write_text(f"{write_graph6(cycle(8))}\n")
        code, out, err = run(capsys, "verify", "8..8", "--stream", f"8:{a}",
                             "--stream", f"8:{b}")
        assert code == 1
        assert out == ""
        assert err == "error: --stream names order 8 twice\n"

    def test_wrong_order_stream_fails_fast(self, capsys, tmp_path):
        from resolvability import path, write_graph6
        p = tmp_path / "p7.g6"
        p.write_text(f"{write_graph6(path(7))}\n")
        code, out, err = run(capsys, "verify", "8..8", "--stream", f"8:{p}")
        assert code == 1
        assert out == ""
        assert f"{p}, line 1: graph of order 7 in a stream of order 8" in err

    def test_missing_stream_for_large_n(self, capsys):
        code, _, err = run(capsys, "verify", "10..10")
        assert code == 1
        assert "stream" in err

    def test_order_2_stream_named(self, capsys):
        # order 2 lies in the typed range but has no sweep to read it
        code, out, err = run(capsys, "verify", "2..3", "--stream", "2:x.g6")
        assert code == 1
        assert out == ""
        assert err == "error: stream for order 2, which verify never sweeps\n"


class TestParser:
    def test_successive_calls_do_not_share_streams(self, capsys, monkeypatch):
        from resolvability import cli
        seen = []

        def parse_streams(items):
            seen.append(items)
            raise GraphError("stop before any sweep")

        monkeypatch.setattr(cli, "_parse_streams", parse_streams)
        for path in ("a.g6", "b.g6"):
            code, _, _ = run(capsys, "verify", "8..8", "--stream", f"8:{path}")
            assert code == 1
        assert seen == [["8:a.g6"], ["8:b.g6"]]

    def test_bad_argument_exits_2(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["compute", "--gen", "path:4", "--format", "xml"])
            assert exc.value.code == 2
            assert "invalid choice: 'xml'" in capsys.readouterr().err
        code, out, _ = run(capsys, "compute", "--gen", "path:4",
                           "--invariants", "psi", "--format", "csv")
        assert (code, out) == (0, "invariant,value,witness\npsi,2,v1 v4\n")
