"""Command-line interface.

Subcommands: ``compute`` (invariants of one graph), ``families``
(computed-vs-formula tables), ``extremal`` (extremal-difference sweeps)
and ``verify`` (theorem verification, over the builtin enumeration
only); ``extremal`` alone takes the repeatable ``--stream N:PATH`` (see
``extremal.sources``). All vertex labels in input and output are
1-based. Exit codes: 0 success / all checks pass, 1 input or usage
error, 2 verification failure.
"""

import argparse
import io
import json
import sys
from functools import cache

from . import graph as gr
from .extremal import ExtremalReport, extremal_difference, sources
from .graph import GraphError
from .graph6 import parse_graph6, write_graph6
from .invariants import TAGS, all_invariants, result_record
from .verify import CLOSED_FORMS, closed_form_values, verify_theorems


def _emit(rows, fmt, out, columns):
    """Render a list of row dicts as a table, csv or json."""
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        import csv  # here, so that the other formats do not pay its import
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        text = buf.getvalue()
    else:
        widths = {
            c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
            for c in columns
        }
        lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
        for row in rows:
            lines.append(
                "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
            )
        text = "\n".join(line.rstrip() for line in lines) + "\n"
    _write(text, out)


def _write(text, out):
    """Write ``text`` to the file ``out``, or to stdout if it is None."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_order(text):
    """True iff ``text`` is ASCII digits only; ``int()`` would also take
    signs, underscores, spaces and the digits of other scripts."""
    return text.isascii() and text.isdigit()


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    hi = hi if sep else lo
    if not (_is_order(lo) and _is_order(hi)):
        raise GraphError(f"bad range {text!r}, expected N or N..M")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise GraphError(f"empty range {text!r}: {hi} < {lo}")
    return lo, hi


def _parse_streams(items):
    """The repeated ``--stream N:PATH`` items as an order -> path dict."""
    streams = {}
    for item in items or ():
        n_text, sep, path = item.partition(":")
        if not sep or not _is_order(n_text):
            raise GraphError(f"bad --stream {item!r}, expected N:PATH")
        n = int(n_text)
        if n in streams:
            raise GraphError(f"--stream names order {n} twice")
        streams[n] = path
    return streams


def _load_graph(args):
    given = [s for s in (args.gen, args.graph6, args.edges) if s is not None]
    if len(given) != 1:
        raise GraphError("exactly one of --gen, --graph6, --edges is required")
    if args.gen is not None:
        return gr.generate(args.gen)
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    with open(args.edges, "r", encoding="utf-8") as fh:
        return gr.parse_edge_list_text(fh.read())


def cmd_compute(args):
    g = _load_graph(args)
    selected = TAGS
    if args.invariants is not None:
        if not args.invariants.strip():
            raise GraphError("empty --invariants list; name at least one tag")
        selected = tuple(t.strip() for t in args.invariants.split(","))
    results = all_invariants(g, selected)
    if args.format == "json":
        record = result_record(g, write_graph6(g), results)
        _emit([record], "json", args.out, [])
        return 0
    rows = [
        {
            "invariant": tag,
            "value": r.value,
            "witness": " ".join(f"v{v}" for v in r.witness_labels()),
        }
        for tag, r in results.items()
    ]
    _emit(rows, args.format, args.out, ["invariant", "value", "witness"])
    return 0


def cmd_families(args):
    lo, hi = _parse_range(args.range)
    rows = []
    for param in range(lo, hi + 1):
        # the bipartite member with parameter N is K_{2,N}, of order N + 2
        n = param + 2 if args.family == "bipartite" else param
        spec = CLOSED_FORMS[args.family][1](n)
        values = closed_form_values(args.family, n)
        for tag in TAGS:
            if tag in values:
                want, got = values[tag]
                rows.append({
                    "family": args.family, "param": param, "graph": spec,
                    "invariant": tag, "formula": want, "computed": got,
                    "status": "ok" if got == want else "MISMATCH",
                })
    _emit(rows, args.format, args.out,
          ["family", "param", "graph", "invariant", "formula", "computed",
           "status"])
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def cmd_extremal(args):
    lo, hi = _parse_range(args.range)
    rows = [extremal_difference(args.xi1, args.xi2, source)._asdict()
            for source in sources(lo, hi, _parse_streams(args.stream))]
    _emit(rows, args.format, args.out, list(ExtremalReport._fields))
    return 0


def cmd_verify(args):
    lo, hi = _parse_range(args.range)
    checks = verify_theorems(lo, hi)
    if args.format == "table":
        _write("".join(c.line() + "\n" for c in checks), args.out)
    else:
        rows = [
            {
                "check": c.name, "n": c.n, "statement": c.statement,
                "status": "PASS" if c.passed else "FAIL", "detail": c.detail,
            }
            for c in checks
        ]
        _emit(rows, args.format, args.out,
              ["check", "n", "statement", "status", "detail"])
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed",
          file=sys.stderr)
    return 0 if failed == 0 else 2


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, an input error, not argparse's
    2, which this CLI keeps for a failed check. Subparsers take its
    class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def build_parser():
    """The parser, built once per process: parse_args leaves it as it was."""
    parser = _Parser(
        prog="resolvability",
        description="Exact graph resolvability invariants "
                    "(beta, beta_E, beta_M, psi, mhs_strict, mhs_weak).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of a single graph")
    p.add_argument("--gen", help="family spec, e.g. path:7 or bipartite:2,5")
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--edges", help="edge-list file ('n m' header, 1-based)")
    p.add_argument("--invariants", help="comma list of tags (default: all)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser(
        "families", help="computed-vs-formula family table",
        description="Compare computed invariants with the closed forms of "
                    "a named family over a parameter range. For "
                    "'bipartite' the parameter N means K_{2,N} "
                    "(compute --gen bipartite:2,N).")
    p.add_argument("family", choices=sorted(CLOSED_FORMS))
    p.add_argument("range", help="parameter range, e.g. 2..10 "
                                 "(bipartite N is K_{2,N})")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("extremal", help="extremal difference sweep")
    p.add_argument("xi1", choices=TAGS)
    p.add_argument("xi2", choices=TAGS)
    p.add_argument("range", help="order range, e.g. 4..7")
    p.add_argument("--stream", action="append", metavar="N:PATH",
                   help="graph6 stream for order N (repeatable)")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", help="run the theorem verification suite")
    p.add_argument("range", help="order range within 2..9, e.g. 3..6")
    p.set_defaults(func=cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
        sp.add_argument("--out", help="write output to a file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
