"""Span tracing of the program's layers, installed from outside.

``Tracer.install`` replaces layer entry points in the program's modules
with timing wrappers, so the program itself carries no tracing code.
Each wrapped call is a span with a name, start, end and parent span.
Spans stay in memory and ``write`` saves them when the run ends.

Calls made once per scanned graph (the sweep's key and class lookup) are
counted and timed but not stored one by one: ``verify 3..7`` makes 1.9
million of each. A layer's self time is its spans' time minus the time
of the spans they caused.
"""

import csv
import time
from collections import defaultdict

FAMILIES = ("strict", "weak", "vertex", "edge", "mixed")

# Entry points: (module, attribute, span name). Names bound by
# ``from ... import`` are patched in the importing module.
POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "verify_theorems", "verify.theorems"),
    ("verify", "verify_order", "verify.order"),
    ("verify", "verify_families", "verify.families"),
    ("verify", "verify_tprime_construction", "verify.tprime"),
    ("verify", "sweep", "extremal.sweep"),
    ("extremal", "sweep", "extremal.sweep"),
    ("extremal", "invariant_values", "invariants.values"),
    ("cli", "all_invariants", "invariants.all"),
    ("verify", "all_invariants", "invariants.all"),
    ("invariants", "all_pairs_distances", "graph.apsp"),
    ("graph", "all_pairs_distances", "graph.apsp"),
    ("graph6", "parse_graph6", "graph6.parse"),
    ("cli", "parse_graph6", "graph6.parse"),
    ("graph6", "write_graph6", "graph6.write"),
    ("cli", "write_graph6", "graph6.write"),
    ("extremal", "write_graph6", "graph6.write"),
)
# Per-graph calls, timed but not stored as span records.
HOT_LEAVES = (("extremal", "_degree_sorted_key", "extremal.key"),)
HOT_FRAMES = (("extremal", "_class_stats", "extremal.lookup"),)
BUILDERS = (
    ("families", "family_strict", "strict"),
    ("families", "family_weak", "weak"),
    ("families", "vertex_pair_family", "vertex"),
    ("families", "edge_pair_family", "edge"),
    ("families", "mixed_pair_family", "mixed"),
    ("verify", "edge_pair_family", "edge"),
)
SOLVERS = (
    ("invariants", "min_hitting_exact"),
    ("invariants", "min_hitting_size"),
)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[0.0, 0]]  # open spans: [time in child spans, span id]
        self.spans = []  # (id, name, start, end, parent id)
        self.next_id = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.family_of = {}  # id(sets tuple) -> family of its latest build
        self.patched = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, args, kwargs, record=True):
        stack = self.stack
        parent = stack[-1]
        if record:
            self.next_id += 1
            frame = [0.0, self.next_id]
        else:
            frame = [0.0, parent[1]]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            parent[0] += dur
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[0]
            if record:
                self.spans.append((frame[1], name, start, end, parent[1]))

    def span(self, name, fn, record=True):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, record)
        return traced

    def leaf(self, name, fn):
        stack, clock, stat = self.stack, self.clock, self.stats[name]

        def traced(*args):
            start = clock()
            result = fn(*args)
            dur = clock() - start
            stack[-1][0] += dur
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur
            return result
        return traced

    def builder(self, family, fn):
        name = f"families.{family}"

        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            self.family_of[id(result.sets)] = family
            self.counts[f"{name}.sets"] += len(result.sets)
            return result
        return traced

    def solver(self, fn):
        def traced(n, sets, *args, **kwargs):
            family = self.family_of.get(id(sets), "other")
            return self._span(f"hitting.{family}", fn, (n, sets) + args, kwargs)
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, modules, module, attr, make):
        mod = modules.get(module)
        if mod is None or not hasattr(mod, attr):
            return  # entry point absent in this version of the program
        original = getattr(mod, attr)
        self.patched.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self, modules):
        """Wrap the entry points found in ``modules`` (name -> module)."""
        for module, attr, name in POINTS:
            self._patch(modules, module, attr, lambda f, n=name: self.span(n, f))
        for module, attr, name in HOT_LEAVES:
            self._patch(modules, module, attr, lambda f, n=name: self.leaf(n, f))
        for module, attr, name in HOT_FRAMES:
            self._patch(modules, module, attr,
                        lambda f, n=name: self.span(n, f, record=False))
        for module, attr, family in BUILDERS:
            self._patch(modules, module, attr,
                        lambda f, fam=family: self.builder(fam, f))
        for module, attr in SOLVERS:
            self._patch(modules, module, attr, self.solver)

    def uninstall(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    # -- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent"))
            out.writerows(self.spans)
            out.writerow(())
            out.writerow(("name", "calls", "total_s", "self_s"))
            for name, (calls, total, self_s) in sorted(self.stats.items()):
                out.writerow((name, calls, f"{total:.6f}", f"{self_s:.6f}"))

    def layer_metrics(self, graphs_scanned):
        """Per-layer metrics by module name."""
        s = self.stats

        def calls(name):
            return s[name][0] if name in s else 0

        def total(*names):
            return sum(s[n][1] for n in names if n in s)

        def own(*names):
            return sum(s[n][2] for n in names if n in s)

        lookups = calls("extremal.lookup")
        solves = calls("invariants.values")
        solvers = [n for n in s if n.startswith("hitting.")]
        m = {
            "extremal.self_s": own("extremal.sweep", "extremal.lookup"),
            "extremal.key_s": total("extremal.key"),
            "extremal.key_calls": calls("extremal.key"),
            "extremal.graphs_scanned": graphs_scanned,
            "extremal.class_lookups": lookups,
            "extremal.class_solves": solves,
            "extremal.cache_hit_ratio": 1 - solves / lookups if lookups else 0.0,
        }
        for fam in FAMILIES:
            m[f"families.{fam}.build_s"] = total(f"families.{fam}")
            m[f"families.{fam}.sets"] = self.counts[f"families.{fam}.sets"]
        m["hitting.solve_s"] = total(*solvers)
        m["hitting.solves"] = sum(calls(n) for n in solvers)
        for fam in FAMILIES:
            m[f"hitting.{fam}.solve_s"] = total(f"hitting.{fam}")
        m.update({
            "invariants.values_s": total("invariants.values"),
            "invariants.values_calls": calls("invariants.values"),
            "invariants.all_s": total("invariants.all"),
            "invariants.all_calls": calls("invariants.all"),
            "invariants.self_s": own("invariants.values", "invariants.all"),
            "graph.apsp_s": total("graph.apsp"),
            "graph.apsp_calls": calls("graph.apsp"),
            "graph6.parse_s": total("graph6.parse"),
            "graph6.parse_calls": calls("graph6.parse"),
            "graph6.write_s": total("graph6.write"),
            "graph6.write_calls": calls("graph6.write"),
            "verify.order_s": total("verify.order"),
            "verify.families_s": total("verify.families"),
            "verify.tprime_s": total("verify.tprime"),
            "cli.self_s": own("cli.main"),
        })
        return m
