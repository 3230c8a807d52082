"""Benchmark of the resolvability program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter
(``rep.py``) and one at a time. The number of repetitions is fixed before
the run: as many of the workload's nominal length as fit in
``--seconds``, at least one (``verify_3_7`` takes about 45 s, so one).
Set-up is timed in batches of fresh interpreters before, between and
after the repetitions. Prints every metric by name and unit, then, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, each the median of its value over repetitions. With
``--trace 1`` the run makes one untraced and one traced repetition and
reports the per-layer metrics of the traced one, with the tracing
overhead (traced minus untraced ``wall_s``); the spans go to
``perfbench/_work/``.

``--tiny`` runs each workload on a tiny input and ``--reference DIR``
reads the reference outputs from DIR; both exist for the smoke test.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
BUDGET_S = 170  # a run must end within 180 s
# Nominal length of one repetition, in seconds. The count of repetitions
# follows from it and --seconds alone, so a slow spell of the host does
# not cut a run to fewer repetitions.
REP_SECONDS = {"verify_3_7": 45, "compute_panel": 24}
# Set-up samples per batch. The host's speed changes in spells of a few
# seconds; batches spread over the run average over them, as the
# measured phase does, where one batch would catch a single spell.
SETUP_BATCH = 8


class RepFailed(Exception):
    pass


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, so that swapping one panel graph for another moves
    the estimate a little rather than by a whole rank."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # the weights vanish (below 1e-15) more than 8 sigma away from p
    width = 8 * math.sqrt(p * (1 - p) / (n + 1))
    cdf = [betainc(a, b, i / n) if abs(i / n - p) < width else float(i / n > p)
           for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def run_rep(args, deadline, *extra):
    cmd = [sys.executable, REP, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.reference:
        cmd += ["--reference", args.reference]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{' '.join(cmd[1:])} did not finish in time") from None
    if proc.returncode != 0:
        raise RepFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_batch(args, deadline):
    return [run_rep(args, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_BATCH)]


def end_to_end(args, deadline):
    count = max(1, int(args.seconds // REP_SECONDS[args.workload]))
    reps, setups = [], []
    for _ in range(count):
        setups += setup_batch(args, deadline)
        reps.append(run_rep(args, deadline, "--trace", "0"))
    setups += setup_batch(args, deadline)
    setups += [r["setup_s"] for r in reps]
    # verify_3_7 times no single graph: its one sample is the mean
    per_graph_ms = [[t * 1000 for t in r["latencies_s"]]
                    or [r["wall_s"] / r["graphs"] * 1000] for r in reps]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "graphs_per_s": statistics.median(r["graphs"] / r["wall_s"] for r in reps),
        "graph_p50_ms": statistics.median(quantile(x, 0.5) for x in per_graph_ms),
        "graph_p90_ms": statistics.median(quantile(x, 0.9) for x in per_graph_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    note = (f"{len(reps)} repetition(s) of {reps[0]['graphs']} graphs, "
            f"{len(per_graph_ms[0])} per-graph samples each, "
            f"{len(setups)} set-up samples")
    return reps, metrics, note


def traced(args, deadline):
    plain = run_rep(args, deadline, "--trace", "0")
    trace = run_rep(args, deadline, "--trace", "1")
    metrics = dict(trace["layers"])
    metrics["trace.wall_s"] = trace["wall_s"]
    metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    note = (f"untraced wall_s {plain['wall_s']:.3f} s, traced "
            f"{trace['wall_s']:.3f} s, spans in {trace['trace_file']}")
    return [plain, trace], metrics, note


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", help=argparse.SUPPRESS)
    args = p.parse_args()
    deadline = time.monotonic() + BUDGET_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "resolvability", "__init__.py")):
        print("error: the program's source (src/resolvability) is missing",
              file=sys.stderr)
        return 2
    try:
        run_rep(args, deadline, "--setup-only")  # fills the bytecode caches
        reps, metrics, note = (traced if args.trace else end_to_end)(args, deadline)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"{args.workload} seed {args.seed}: {note}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} "
          "checks failed)")
    for r in reps:
        for message in r["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
