"""Theorem verification: extremal-difference identities, pointwise laws
and closed-form family values, checked by exhaustive search.

The paper's claims are data in three tables, and each kind has one
check. ``DIFFERENCES`` holds the extremal differences, each an exact
value or a range, with the orders it covers; ``verify_order`` sweeps
their pairs, ``THEOREM_PAIRS``, with the pointwise ``LAWS``, which
``extremal.sweep`` evaluates once per class. ``CLOSED_FORMS`` holds the
families' closed forms, and ``closed_form_values`` the one check of a
family member against it, shared with the CLI's ``families``. There,
``bipartite N`` is K_{2,N}; here the bipartite member of order n is
K_{2,n-2}, and ``beta_M(K_n)`` is left out.

Each check produces one CheckResult line. Failed checks are report
entries, never exceptions; bad input (such as an order past the builtin
enumeration) raises GraphError.
"""

from collections import namedtuple

from . import graph as gr
from .extremal import MAX_BUILTIN_N, GraphSource, sweep
from .families import Rows, is_edge_resolving
from .invariants import all_invariants


class CheckResult(namedtuple("CheckResult", "name n statement passed detail",
                             defaults=("",))):
    __slots__ = ()

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] n={self.n} {self.name}: {self.statement}{extra}"


def _check(name, n, label, actual, want):
    """``actual`` equals ``want``, or lies in it if it is a (lo, hi)
    range."""
    if isinstance(want, tuple):
        lo, hi = want
        statement, passed = f"{lo} <= {label} <= {hi}", lo <= actual <= hi
    else:
        statement, passed = f"{label} = {want}", actual == want
    return CheckResult(name, n, statement, passed, f"computed {actual}")


# (name, (a, b), (least, greatest or None) order it covers, n -> the
# maximum of a - b over the connected graphs of order n: exact, or a
# (lo, hi) range), in the order of verify's rows
DIFFERENCES = (
    ("psimhs1(i)", ("mhs_weak", "psi"), (3, None), lambda n: 0),
    ("psimhs1(ii)", ("psi", "mhs_weak"), (3, None), lambda n: n - 3),
    ("hslel1(i)", ("mhs_weak", "mhs_strict"), (3, None), lambda n: 0),
    ("hslel1(ii)", ("mhs_strict", "mhs_weak"), (3, None), lambda n: n - 2),
    ("mdiml1(i)", ("mhs_strict", "beta_M"), (3, None), lambda n: 0),
    ("mdiml1(ii)", ("beta_M", "mhs_strict"), (3, None), lambda n: n - 3),
    ("dedge3", ("psi", "beta_E"), (3, 3), lambda n: 1),
    ("dedge3'", ("beta_E", "psi"), (3, 3), lambda n: 0),
    ("dedge", ("psi", "beta_E"), (4, None), lambda n: (n // 2 - 1, n - 3)),
)
# the pairs verify sweeps, in the order they first appear above
THEOREM_PAIRS = tuple(dict.fromkeys(pair for _, pair, _, _ in DIFFERENCES))


def _is_path(g):
    """A connected graph is a path iff it is a tree of maximum degree
    at most 2."""
    return gr.max_degree(g) <= 2 and g.num_edges() == g.n - 1


# (message, holds(g, values)): the pointwise laws, which hold on every
# connected graph g with invariant values ``values``
LAWS = (
    ("mhs chain 2 <= mhs_weak <= mhs_strict <= n violated",
     lambda g, v: 2 <= v["mhs_weak"] <= v["mhs_strict"] <= g.n),
    ("mhs_weak <= n-1 violated",
     lambda g, v: g.n < 3 or v["mhs_weak"] <= g.n - 1),
    ("psi >= mhs_weak violated", lambda g, v: v["mhs_weak"] <= v["psi"]),
    ("beta_M >= mhs_strict violated",
     lambda g, v: v["mhs_strict"] <= v["beta_M"]),
    ("maximal-neighbour biconditional violated",
     lambda g, v: (v["mhs_strict"] == g.n) == gr.is_maximal_neighbour_graph(g)
     == (v["beta_M"] == g.n)),
    ("beta_E >= ceil(log2 max_degree) violated",
     lambda g, v: v["beta_E"] >= (gr.max_degree(g) - 1).bit_length()),
    ("beta_E = 1 iff path violated",
     lambda g, v: (v["beta_E"] == 1) == _is_path(g)),
    ("beta_M = 2 iff path violated",
     lambda g, v: (v["beta_M"] == 2) == _is_path(g)),
)

# family: (least order of its verify rows, spec of its member of order n,
# that member's closed forms by tag), in the order of verify's rows
CLOSED_FORMS = {
    "path": (2, lambda n: f"path:{n}", lambda n: {
        "beta": 1, "beta_E": 1, "beta_M": 2, "psi": 2,
        "mhs_strict": 2, "mhs_weak": 2}),
    "star": (3, lambda n: f"star:{n}", lambda n: {
        "mhs_strict": n - 1, "mhs_weak": n - 1, "psi": n - 1}),
    "complete": (3, lambda n: f"complete:{n}", lambda n: {
        "mhs_strict": n, "mhs_weak": 2, "psi": max(2, n - 1),
        "beta": n - 1, "beta_E": n - 1, "beta_M": n}),
    "cycle": (3, lambda n: f"cycle:{n}", lambda n: {
        "psi": 2 if n % 2 else 3, "beta": 2, "beta_E": 2}),
    # K_{2,n-2}
    "bipartite": (4, lambda n: f"bipartite:2,{n - 2}", lambda n: {
        "mhs_strict": 2, "mhs_weak": 2, "beta_M": n - 1}),
    "tprime": (4, lambda n: f"tprime:{n}", lambda n: {
        "psi": n // 2 + 1, "beta_E": 2}),
}


def verify_order(n):
    """All sweep-based checks of order n, over the builtin enumeration
    of its classes."""
    result = sweep(GraphSource.enumeration(n), THEOREM_PAIRS, LAWS)
    checks = []
    for name, (a, b), (least, greatest), value in DIFFERENCES:
        if least <= n <= (greatest or n):
            # a row for one order names it; others name the variable n
            label = f"({a} - {b})({n if least == greatest else 'n'})"
            checks.append(_check(
                name, n, label, result.reports[(a, b)].max_diff, value(n)))
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


def closed_form_values(family, n):
    """{tag: (closed form, computed)} on the member of order n of
    ``family``, built by ``graph.generate``; only those tags are solved."""
    g = gr.generate(CLOSED_FORMS[family][1](n))
    forms = CLOSED_FORMS[family][2](n)
    results = all_invariants(g, tuple(forms))
    return {tag: (want, results[tag].value) for tag, want in forms.items()}


def verify_families(n_min, n_max):
    """Closed-form values on the generated families for orders in
    [n_min, n_max]."""
    checks = []
    for n in range(n_min, n_max + 1):
        for family, (least, _, _) in CLOSED_FORMS.items():
            if n < least:
                continue
            values = closed_form_values(family, n)
            if family == "complete":
                del values["beta_M"]  # not in perfbench/data/verify.json
            name = "K_{2,%d}" % (n - 2) if family == "bipartite" else family
            for tag, (want, got) in sorted(values.items()):
                checks.append(_check(
                    f"family-{name}", n, f"{tag}({name}, n={n})", got, want))
    return checks


def verify_tprime_construction(n):
    """T'_n spot check: leaf count, psi, beta_E, and that {v_1,
    v_{n-m+1}} is an edge resolving set: the edges' distances to it
    differ."""
    g = gr.t_prime_tree(n)
    values = closed_form_values("tprime", n)
    leaves = values["psi"][0]  # the psi of a tree is its leaf count
    checks = [_check(
        "tprime-leaves", n, f"l(T'_{n})", gr.leaf_count(g), leaves)]
    for name, tag in (("tprime-psi", "psi"), ("tprime-betaE", "beta_E")):
        want, got = values[tag]
        checks.append(_check(name, n, f"{tag}(T'_{n})", got, want))
    base = (0, n - n // 2)  # v_1 and v_{n-m+1}, m = n // 2
    checks.append(CheckResult(
        "tprime-base", n,
        f"{{v_1, v_{base[1] + 1}}} is an edge resolving set of T'_{n}",
        is_edge_resolving(Rows(g, gr.all_pairs_distances(g)), base)))
    return checks


def verify_theorems(n_min, n_max):
    """Full verification report over orders n_min..n_max, each swept
    exhaustively by the builtin enumeration. The T'_8 and T'_9 checks
    run whatever the range. Returns a list of CheckResult.
    """
    if not 2 <= n_min <= n_max:
        raise gr.GraphError(f"invalid order range {n_min}..{n_max}")
    if n_max > MAX_BUILTIN_N:
        raise gr.GraphError(
            f"verify supports 2 <= n <= {MAX_BUILTIN_N}, the orders of the "
            f"builtin enumeration; got {n_min}..{n_max}")
    checks = []
    for n in range(max(3, n_min), n_max + 1):
        checks.extend(verify_order(n))
    checks.extend(verify_families(n_min, n_max))
    for n in (8, 9):
        checks.extend(verify_tprime_construction(n))
    return checks
