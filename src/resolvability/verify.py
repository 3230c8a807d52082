"""Theorem verification: extremal-difference identities, pointwise laws
and closed-form family values, checked by exhaustive search.

Each check produces one CheckResult line. Failed checks are report
entries, never exceptions; bad input (such as a stream of the wrong
order) raises GraphError. ``extremal.sources`` picks each order's
source. For an order backed by a user-supplied graph6 stream the
exact-equality and range claims degrade to their upper bounds, since
the artifact cannot vouch that the stream is exhaustive.
"""

from collections import namedtuple

from . import graph as gr
from .extremal import THEOREM_PAIRS, sources, sweep
from .families import Rows, edge_pair_family
from .hitting import verify_hitting
from .invariants import all_invariants
from .graph import mask_of


class CheckResult(namedtuple("CheckResult", "name n statement passed detail",
                             defaults=("",))):
    __slots__ = ()

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] n={self.n} {self.name}: {self.statement}{extra}"


def _range_check(name, n, label, actual, lo, hi, exhaustive):
    if exhaustive:
        statement, passed = f"{lo} <= {label} <= {hi}", lo <= actual <= hi
    else:
        # stream source: the stream may lack the extremal graphs, so only
        # the upper bound is certain
        statement = f"{label} <= {hi} (stream, not provably exhaustive)"
        passed = actual <= hi
    return CheckResult(name, n, statement, passed, f"computed {actual}")


def _eq_check(name, n, label, actual, expected, exhaustive):
    if not exhaustive:
        return _range_check(name, n, label, actual, expected, expected, False)
    return CheckResult(
        name, n, f"{label} = {expected}", actual == expected,
        f"computed {actual}",
    )


# (name, (a, b), n -> exact maximum of a - b over connected graphs of
# order n >= 3)
_IDENTITIES = (
    ("psimhs1(i)", ("mhs_weak", "psi"), lambda n: 0),
    ("psimhs1(ii)", ("psi", "mhs_weak"), lambda n: n - 3),
    ("hslel1(i)", ("mhs_weak", "mhs_strict"), lambda n: 0),
    ("hslel1(ii)", ("mhs_strict", "mhs_weak"), lambda n: n - 2),
    ("mdiml1(i)", ("mhs_strict", "beta_M"), lambda n: 0),
    ("mdiml1(ii)", ("beta_M", "mhs_strict"), lambda n: n - 3),
)


def verify_order(source):
    """All sweep-based checks for one source (exhaustive if builtin)."""
    exhaustive = source.kind == "enumeration"
    result = sweep(source, THEOREM_PAIRS)
    n = result.n  # a stream source need not name its order
    d = {p: result.reports[p].max_diff for p in THEOREM_PAIRS}
    checks = []
    if n >= 3:
        for name, (a, b), value in _IDENTITIES:
            checks.append(_eq_check(
                name, n, f"({a} - {b})(n)", d[(a, b)], value(n), exhaustive))
    if n == 3:
        checks.append(_eq_check(
            "dedge3", 3, "(psi - beta_E)(3)",
            d[("psi", "beta_E")], 1, exhaustive))
        checks.append(_eq_check(
            "dedge3'", 3, "(beta_E - psi)(3)",
            d[("beta_E", "psi")], 0, exhaustive))
    elif n >= 4:
        checks.append(_range_check(
            "dedge", n, "(psi - beta_E)(n)",
            d[("psi", "beta_E")], n // 2 - 1, n - 3, exhaustive))
    checks.append(CheckResult(
        "pointwise-laws", n,
        "mhs chain, maximal-neighbour biconditionals, log bound, "
        "path characterizations hold on every graph",
        not result.law_failures,
        "; ".join(
            f"{g6}: {msg}" for g6, msg in result.law_failures[:3]
        ),
    ))
    return checks


def _family_expectations(n):
    """(name, graph, expected values dict) triples for order n: the
    ``family_formula`` values of each family from its least order on,
    the bipartite one as K_{2,n-2}."""
    out = []
    for family, least in (("path", 2), ("star", 3), ("complete", 3),
                          ("cycle", 3), ("bipartite", 4), ("tprime", 4)):
        if n >= least:
            params = (2, n - 2) if family == "bipartite" else (n,)
            expected = family_formula(family, params)
            if family == "complete":
                del expected["beta_M"]  # not in perfbench/data/verify.json
            name = "K_{2,%d}" % (n - 2) if family == "bipartite" else family
            out.append((name, gr.GENERATORS[family][0](*params), expected))
    return out


def verify_families(n_min, n_max):
    """Closed-form values on the generated families for orders in
    [n_min, n_max]."""
    checks = []
    for n in range(n_min, n_max + 1):
        for name, g, expected in _family_expectations(n):
            results = all_invariants(g, tuple(expected))
            for tag, want in sorted(expected.items()):
                got = results[tag].value
                checks.append(CheckResult(
                    f"family-{name}", n, f"{tag}({name}, n={n}) = {want}",
                    got == want, f"computed {got}",
                ))
    return checks


def verify_tprime_construction(n):
    """T'_n spot check: leaf count, psi, beta_E, and validity of the
    edge resolving set {v_1, v_{n-m+1}}."""
    g = gr.t_prime_tree(n)
    m = n // 2
    checks = []
    leaves = gr.leaf_count(g)
    checks.append(CheckResult(
        "tprime-leaves", n, f"l(T'_{n}) = {m + 1}",
        leaves == m + 1, f"computed {leaves}"))
    results = all_invariants(g, ("psi", "beta_E"))
    checks.append(CheckResult(
        "tprime-psi", n, f"psi(T'_{n}) = {m + 1}",
        results["psi"].value == m + 1, f"computed {results['psi'].value}"))
    checks.append(CheckResult(
        "tprime-betaE", n, f"beta_E(T'_{n}) = 2",
        results["beta_E"].value == 2, f"computed {results['beta_E'].value}"))
    base = mask_of((0, n - m))  # v_1 and v_{n-m+1}
    family = edge_pair_family(Rows(g, gr.all_pairs_distances(g)))
    checks.append(CheckResult(
        "tprime-base", n,
        f"{{v_1, v_{n - m + 1}}} is an edge resolving set of T'_{n}",
        verify_hitting(family.sets, base)))
    return checks


def family_formula(name, params):
    """Known closed-form invariant values for a named family, keyed by
    invariant tag. Only values with a closed form are present."""
    if name == "path":
        (n,) = params
        return {"beta": 1, "beta_E": 1, "beta_M": 2, "psi": 2,
                "mhs_strict": 2, "mhs_weak": 2}
    if name == "star":
        (n,) = params
        return {"mhs_strict": n - 1, "mhs_weak": n - 1, "psi": n - 1}
    if name == "cycle":
        (n,) = params
        return {"psi": 2 if n % 2 else 3, "beta": 2, "beta_E": 2}
    if name == "complete":
        (n,) = params
        return {"mhs_strict": n, "mhs_weak": 2, "psi": max(2, n - 1),
                "beta": n - 1, "beta_E": n - 1, "beta_M": n}
    if name == "bipartite":
        r, t = params
        out = {}
        if min(r, t) >= 2:
            out["beta_M"] = r + t - 1 if 2 in (r, t) else r + t - 2
        if 2 in (r, t) and max(r, t) >= 2:
            out["mhs_strict"] = 2
            out["mhs_weak"] = 2
        return out
    if name == "tprime":
        (n,) = params
        return {"psi": n // 2 + 1, "beta_E": 2}
    raise gr.GraphError(f"no closed forms known for family {name!r}")


def verify_theorems(n_min, n_max, stream_paths=None):
    """Full verification report over orders n_min..n_max.

    ``stream_paths`` maps orders to graph6 stream files, as in
    ``extremal.sources``. Returns a list of CheckResult.
    """
    if not 2 <= n_min <= n_max:
        raise gr.GraphError(f"invalid order range {n_min}..{n_max}")
    if n_min == 2 and 2 in (stream_paths or {}):
        # order 2 has no sweep checks, so its stream would go unread
        raise gr.GraphError("stream for order 2, which verify never sweeps")
    checks = []
    for source in sources(max(3, n_min), n_max, stream_paths):
        checks.extend(verify_order(source))
    checks.extend(verify_families(n_min, n_max))
    for n in (8, 9):
        checks.extend(verify_tprime_construction(n))
    return checks
