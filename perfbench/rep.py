"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1
        [--setup-only] [--tiny] [--reference DIR]

Imports the program from ``src``, builds the workload's inputs from the
seed (set-up), runs the workload through ``resolvability.cli.main``
(measured phase), checks every output, and prints one JSON object as its
last line of standard output. ``run.py`` starts one of these per
repetition, so the program's class cache never carries over between
repetitions.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import checks
import inputs
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
PROGRAM_MODULES = ("cli", "extremal", "families", "graph", "graph6",
                   "hitting", "invariants", "verify")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_reference(ref_dir, name):
    with open(os.path.join(ref_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def captured_sweeps(verify_module):
    """Collect the result of every sweep the verify module runs: the
    reports carry the counts and witnesses that the checks need."""
    sweeps = []
    sweep = verify_module.sweep

    def captured(*args, **kwargs):
        sweeps.append(sweep(*args, **kwargs))
        return sweeps[-1]

    verify_module.sweep = captured
    try:
        yield sweeps
    finally:
        verify_module.sweep = sweep


def quiet_main(cli, argv):
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- workloads ----------------------------------------------------------------
#
# Each workload has a set-up (inputs from the seed), a measured phase that
# returns what the checks need, and a check function.


def verify_argv(args):
    lo, hi = inputs.TINY_VERIFY_RANGE if args.tiny else inputs.VERIFY_RANGE
    return ["verify", f"{lo}..{hi}", "--format", "json"]


def setup_panel(args):
    draw = inputs.panel_draw(args.seed, args.tiny)
    return {"members": [(s, j, inputs.write_graph6(*inputs.panel_member(s, j)))
                        for s, j in draw]}


def run_verify(cli, argv):
    code, out = quiet_main(cli, argv)
    return {"code": code, "rows": json.loads(out) if code in (0, 2) else []}


def run_panel(cli, members):
    clock = time.perf_counter
    records, latencies = [], []
    for _, _, g6 in members:
        start = clock()
        code, out = quiet_main(cli, ["compute", "--graph6", g6, "--format", "json"])
        latencies.append(clock() - start)
        records.append((code, out))
    return {"records": records, "latencies": latencies}


def check_family_row(tally, row):
    """Family and T'_n rows against the paper's closed forms."""
    name, n = row["check"], row["n"]
    if name.startswith("family-"):
        family = name[len("family-"):]
        tag = row["statement"].split("(")[0]
        if family.startswith("K_{2,"):
            family = "bipartite2"
    elif name in ("tprime-psi", "tprime-betaE"):
        family, tag = "tprime", "psi" if name == "tprime-psi" else "beta_E"
    else:
        return
    got = int(row["detail"].split()[-1])
    want = checks.closed_forms(family, n)[tag]
    tally.equal(got, want, f"closed form {tag}({family}, n={n})")


def check_verify_3_7(tally, args, data, result, sweeps):
    ref = load_reference(args.reference, "verify.json")
    key = "tiny" if args.tiny else "full"
    lo, hi = inputs.TINY_VERIFY_RANGE if args.tiny else inputs.VERIFY_RANGE
    tally.equal(result["code"], 0, "verify exit code")
    tally.equal(len(result["rows"]), len(ref[key]["rows"]), "verify check count")
    for row in result["rows"]:
        tally.equal(row["status"], "PASS", f"verify {row['check']} n={row['n']}")
        check_family_row(tally, row)
    tally.equal(result["rows"], ref[key]["rows"], "verify rows against the reference")
    # the sweeps' reports, against A001187, the reference, brute force on
    # each witness graph and the paper's extremal differences
    tally.equal([s.n for s in sweeps], list(range(lo, hi + 1)), "swept orders")
    for s in sweeps:
        tally.equal(s.graphs_scanned, checks.A001187[s.n],
                    f"n={s.n} graphs scanned against A001187")
        tally.check(not s.law_failures, f"n={s.n} pointwise law failures "
                    f"{s.law_failures[:3]}")
        brute = {}
        for (xi1, xi2), report in sorted(s.reports.items()):
            what = f"n={s.n} {xi1}-{xi2}"
            want = ref["reports"][str(s.n)][f"{xi1}-{xi2}"]
            tally.equal(report.max_diff, want["max_diff"], f"{what} max_diff")
            tally.equal(report.witness_graph6, want["witness_graph6"], f"{what} witness")
            g6 = report.witness_graph6
            if g6 not in brute:
                brute[g6] = checks.brute_force_values(*inputs.parse_graph6(g6))
            tally.equal(brute[g6][xi1] - brute[g6][xi2], report.max_diff,
                        f"{what} witness {g6} by brute force")
            if (xi1, xi2) in checks.THEOREM_DIFFS:
                tally.equal(report.max_diff, checks.THEOREM_DIFFS[(xi1, xi2)](s.n),
                            f"{what} against the paper")
            elif (xi1, xi2) == ("psi", "beta_E"):
                dlo, dhi = checks.dedge_range(s.n)
                tally.check(dlo <= report.max_diff <= dhi,
                            f"{what} = {report.max_diff} outside [{dlo}, {dhi}]")


def check_panel(tally, args, data, result, sweeps):
    ref = load_reference(args.reference, "panel.json")
    for (stratum, j, g6), (code, out) in zip(data["members"], result["records"]):
        what = f"{stratum}/{j} {g6}"
        if not tally.equal(code, 0, f"{what} exit code"):
            continue
        record = json.loads(out)[0]
        n, adj = inputs.parse_graph6(g6)
        tally.equal((record["graph6"], record["n"], record["m"]),
                    (g6, n, len(checks.edges(n, adj))), f"{what} graph")
        want = ref[stratum][j]
        tally.equal(g6, want["graph6"], f"{what} input against the reference")
        values = {t: record[t] for t in checks.TAGS}
        for tag in checks.TAGS:
            tally.equal(values[tag], want[tag], f"{what} {tag} against the reference")
            tally.equal(record["witnesses"][tag], want["witnesses"][tag],
                        f"{what} {tag} witness against the reference")
        checks.check_witnesses(tally, what, n, adj, values, record["witnesses"])
        if stratum in ("tprime", "cycle"):
            for tag, v in checks.closed_forms(stratum, n).items():
                tally.equal(values[tag], v, f"{what} {tag} closed form")


WORKLOADS = {
    # name: (set-up, measured phase, checks)
    "verify_3_7": (lambda args: {},
                   lambda cli, args, data: run_verify(cli, verify_argv(args)),
                   check_verify_3_7),
    "compute_panel": (setup_panel,
                      lambda cli, args, data: run_panel(cli, data["members"]),
                      check_panel),
}


def count_graphs(workload, data, sweeps):
    if workload == "compute_panel":
        return len(data["members"])
    return sum(s.graphs_scanned for s in sweeps)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--reference", default=os.path.join(HERE, "data"))
    args = p.parse_args()
    setup, measure, check = WORKLOADS[args.workload]

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from resolvability import cli
    data = setup(args)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    modules = {name: sys.modules[f"resolvability.{name}"] for name in PROGRAM_MODULES}
    tracer = Tracer() if args.trace else None
    with captured_sweeps(modules["verify"]) as sweeps:
        if tracer:
            tracer.install(modules)
        try:
            start = time.perf_counter()
            result = measure(cli, args, data)
            wall_s = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
    rss = peak_rss_mb()

    tally = checks.Tally()
    check(tally, args, data, result, sweeps)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "graphs": count_graphs(args.workload, data, sweeps),
        "latencies_s": result.get("latencies", []),
        "peak_rss_mb": rss,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
    }
    if tracer:
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.csv")
        tracer.write(path)
        out["trace_file"] = os.path.relpath(path, ROOT)
        out["layers"] = tracer.layer_metrics(
            sum(s.graphs_scanned for s in sweeps))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
