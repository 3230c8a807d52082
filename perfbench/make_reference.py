"""Record the reference outputs that the benchmark's checks compare with.

    python3 perfbench/make_reference.py

Writes ``perfbench/data/``: the ``verify 3..7`` and ``verify 3..5`` rows
and sweep reports, and the ``compute`` record of every panel member. It
checks the recorded outputs against this directory's own definitions:
the definitional predicates for every panel witness, the paper's closed
forms and extremal differences, brute force on every extremal witness
graph, and OEIS A001187. Takes about three minutes; rerun only when the
program's outputs are meant to change.
"""

import argparse
import json
import os
import sys

import checks
import inputs
import rep

DATA = os.path.join(rep.HERE, "data")


def record_verify(cli, verify_mod):
    out = {}
    for key, (lo, hi) in (("full", inputs.VERIFY_RANGE),
                          ("tiny", inputs.TINY_VERIFY_RANGE)):
        with rep.captured_sweeps(verify_mod) as sweeps:
            code, text = rep.quiet_main(cli, ["verify", f"{lo}..{hi}", "--format", "json"])
        if code != 0:
            sys.exit(f"verify {lo}..{hi} exited {code}")
        out[key] = {"rows": json.loads(text)}
        if key == "full":
            out["reports"] = {
                str(s.n): {
                    f"{x1}-{x2}": {"max_diff": r.max_diff,
                                   "witness_graph6": r.witness_graph6}
                    for (x1, x2), r in s.reports.items()
                }
                for s in sweeps
            }
    return out


def record_panel(cli):
    out = {}
    tally = checks.Tally()
    for stratum in inputs.panel_strata():
        out[stratum] = []
        for j in range(inputs.PANEL_STRATUM_SIZE):
            n, adj = inputs.panel_member(stratum, j)
            g6 = inputs.write_graph6(n, adj)
            code, text = rep.quiet_main(cli, ["compute", "--graph6", g6,
                                              "--format", "json"])
            if code != 0:
                sys.exit(f"compute {g6} exited {code}")
            record = json.loads(text)[0]
            values = {t: record[t] for t in checks.TAGS}
            checks.check_witnesses(tally, g6, n, adj, values, record["witnesses"])
            if stratum in ("tprime", "cycle"):
                for tag, v in checks.closed_forms(stratum, n).items():
                    tally.equal(values[tag], v, f"{g6} {tag} closed form")
            out[stratum].append(dict(values, graph6=g6, witnesses=record["witnesses"]))
            print(f"panel {stratum}/{j} n={n}", file=sys.stderr)
    if tally.failed:
        sys.exit(f"panel checks failed: {tally.messages}")
    return out


def main():
    sys.path.insert(0, os.path.join(rep.ROOT, "src"))
    from resolvability import cli
    from resolvability import verify as verify_mod

    os.makedirs(DATA, exist_ok=True)
    ref = record_verify(cli, verify_mod)
    with open(os.path.join(DATA, "verify.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
    print("verify recorded", file=sys.stderr)
    with open(os.path.join(DATA, "panel.json"), "w", encoding="utf-8") as fh:
        json.dump(record_panel(cli), fh, indent=1, sort_keys=True)
    print("panel recorded", file=sys.stderr)
    # the verify reference must pass the independent checks of a run
    for tiny in (False, True):
        args = argparse.Namespace(reference=DATA, tiny=tiny)
        with rep.captured_sweeps(verify_mod) as sweeps:
            result = rep.run_verify(cli, rep.verify_argv(args))
        tally = checks.Tally()
        rep.check_verify_3_7(tally, args, {}, result, sweeps)
        if tally.failed:
            sys.exit(f"verify reference fails its checks: {tally.messages}")
    print("reference written to", os.path.relpath(DATA, rep.ROOT), file=sys.stderr)


if __name__ == "__main__":
    main()
