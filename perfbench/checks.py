"""Output checks that do not use the program's code.

Distances come from this module's own breadth-first search, and each
invariant's witness is tested against the invariant's definition, not
against the set families the solver builds. For small graphs the values
themselves are found by brute force over all vertex subsets.
"""

from itertools import combinations

TAGS = ("beta", "beta_E", "beta_M", "psi", "mhs_strict", "mhs_weak")

# Labeled connected graphs on n vertices (OEIS A001187).
A001187 = {3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# Extremal differences from the paper, exact for exhaustive orders:
# (xi1, xi2) -> function of n giving max over G of xi1(G) - xi2(G).
THEOREM_DIFFS = {
    ("mhs_weak", "psi"): lambda n: 0,
    ("psi", "mhs_weak"): lambda n: n - 3,
    ("mhs_weak", "mhs_strict"): lambda n: 0,
    ("mhs_strict", "mhs_weak"): lambda n: n - 2,
    ("mhs_strict", "beta_M"): lambda n: 0,
    ("beta_M", "mhs_strict"): lambda n: n - 3,
}


def dedge_range(n):
    """Bounds on max (psi - beta_E) over connected graphs of order n."""
    return (1, 1) if n == 3 else (n // 2 - 1, n - 3)


def closed_forms(family, n):
    """Invariant values the paper gives in closed form for a named family
    member of order n (for K_{2,t}, n = t + 2)."""
    if family == "path":
        return {"beta": 1, "beta_E": 1, "beta_M": 2, "psi": 2,
                "mhs_strict": 2, "mhs_weak": 2}
    if family == "star":
        return {"mhs_strict": n - 1, "mhs_weak": n - 1, "psi": n - 1}
    if family == "complete":
        return {"mhs_strict": n, "mhs_weak": 2, "psi": max(2, n - 1),
                "beta": n - 1, "beta_E": n - 1, "beta_M": n}
    if family == "cycle":
        return {"psi": 2 if n % 2 else 3, "beta": 2, "beta_E": 2}
    if family == "bipartite2":
        return {"mhs_strict": 2, "mhs_weak": 2, "beta_M": n - 1}
    if family == "tprime":
        return {"psi": n // 2 + 1, "beta_E": 2}
    raise KeyError(family)


class Tally:
    """Counts checks attempted and keeps the first failure messages."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.KEEP:
                self.messages.append(message)
        return ok

    def equal(self, got, want, what):
        return self.check(got == want, f"{what}: got {got!r}, want {want!r}")


def distances(n, adj):
    """All-pairs hop distances by breadth-first search."""
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adj[u] >> v & 1 and row[v] < 0:
                        row[v] = depth
                        nxt.append(v)
            frontier = nxt
        rows.append(row)
    return rows


def edges(n, adj):
    return [(u, v) for v in range(n) for u in range(v) if adj[u] >> v & 1]


class Definitions:
    """The six invariants' defining predicates on one graph."""

    def __init__(self, n, adj):
        self.n = n
        d = self.dist = distances(n, adj)
        self.edges = edges(n, adj)
        vertex_rows = [tuple(r) for r in d]
        edge_rows = [tuple(min(d[a][w], d[b][w]) for w in range(n))
                     for a, b in self.edges]
        self.rows = {
            "beta": vertex_rows,
            "beta_E": edge_rows,
            "beta_M": vertex_rows + edge_rows,
        }

    def holds(self, tag, s):
        """True iff the vertex tuple s satisfies the definition of tag."""
        d = self.dist
        if tag in self.rows:
            # distinct distance vectors to s
            rows = self.rows[tag]
            return len({tuple(r[w] for w in s) for r in rows}) == len(rows)
        if tag == "psi":
            # every vertex pair is doubly resolved by two witnesses in s
            if len(s) < 2:
                return False
            return all(
                any(d[u][x] - d[u][y] != d[v][x] - d[v][y]
                    for x, y in combinations(s, 2))
                for u, v in combinations(range(self.n), 2)
            )
        strict = tag == "mhs_strict"
        for a, b in self.edges:
            for u, v in ((a, b), (b, a)):
                # W(u,v) = {w : d(u,w) < d(v,w)}, Wbar(u,v) = {w : >=}
                if not any((d[u][w] < d[v][w]) == strict for w in s):
                    return False
        return True

    def minimum(self, tag):
        """Smallest size of a vertex set satisfying tag, by brute force."""
        for k in range(1, self.n + 1):
            if any(self.holds(tag, s) for s in combinations(range(self.n), k)):
                return k
        raise ValueError(f"no subset satisfies {tag}")


def check_witnesses(tally, what, n, adj, values, witnesses):
    """Each 1-based witness has the reported size and satisfies its
    invariant's definition."""
    defs = Definitions(n, adj)
    for tag in TAGS:
        w = tuple(v - 1 for v in witnesses[tag])
        tally.equal(len(w), values[tag], f"{what} {tag} witness size")
        tally.check(defs.holds(tag, w), f"{what} {tag} witness {witnesses[tag]} "
                    "fails the definition")


def brute_force_values(n, adj):
    """Exact values of all six invariants by brute force (small n)."""
    defs = Definitions(n, adj)
    return {tag: defs.minimum(tag) for tag in TAGS}
