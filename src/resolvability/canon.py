"""Canonical forms of small graphs, by partition refinement and
individualization (after McKay & Piperno, J. Symb. Comput. 60 (2014)).

``canonical_form(n, adj)`` starts from the vertices grouped by degree,
refines that ordered partition until it is equitable (every vertex of a
cell has the same number of neighbours in each cell), and then branches
on each vertex of the first cell with more than one vertex in turn,
individualizing it and refining again. Every discrete partition the
search reaches is a relabeling of the graph; the form is the smallest
``relabeled_mask`` over them. Each step commutes with relabeling, so
isomorphic graphs reach the same set of relabeled graphs: equal forms
mean isomorphic graphs and the converse holds by construction.
``canonical_labeling`` also returns every leaf order that reaches the
form; any two differ by an automorphism, so they give the whole group.

There is no orbit pruning, so a graph with many automorphisms visits
many leaves (K_n visits n!). That keeps the search to small orders. The
builtin enumeration of order n calls ``canonical_labeling`` once per
graph on n - 2 vertices (1,024 at n = 7) and the sweep of it calls
neither function; ``canonical_form`` folds graph6 streams of order
<= 7.
"""

from .graph import iter_bits


def relabeled_mask(n, adj, order):
    """Adjacency matrix of the graph relabeled so that vertex ``order[j]``
    becomes j, as an int with bit n*j + i set iff j and i are adjacent."""
    col = ((1 << n * n) - 1) // ((1 << n) - 1 or 1)  # bit 0 of every row
    rows = 0
    for v in reversed(order):
        rows = rows << n | adj[v]
    mask = 0
    for j, v in enumerate(order):
        mask |= (rows >> v & col) << j  # column order[j] of every row
    return mask


def _refine(adj, cells):
    """Split the ordered cells (vertex bitmasks) until the partition is
    equitable. A cell splits by each vertex's neighbour counts into all
    cells, smallest count vector first."""
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups = {}
            for v in iter_bits(cell):
                a = adj[v]
                sig = tuple([(a & c).bit_count() for c in cells])
                groups[sig] = groups.get(sig, 0) | 1 << v
            out.extend(groups[sig] for sig in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def canonical_form(n, adj):
    """Smallest relabeled adjacency mask over the leaves of the
    individualization-refinement search; equal for two graphs on n
    vertices iff they are isomorphic."""
    return min(form for form, _ in _leaves(n, adj))


def canonical_labeling(n, adj):
    """``(form, orders)``: the canonical form and every leaf order that
    gives it; relabeling vertex ``order[j]`` to j maps the graph onto
    its form. Two such orders differ by an automorphism, and as the
    search visits every leaf, each automorphism arises so."""
    best, orders = None, []
    for form, order in _leaves(n, adj):
        if best is None or form < best:
            best, orders = form, [order]
        elif form == best:
            orders.append(order)
    return best, orders


def _leaves(n, adj):
    """Yield ``(relabeled mask, order)`` for every leaf of the search."""
    by_degree = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    stack = [_refine(adj, [by_degree[d] for d in sorted(by_degree)])]
    while stack:
        cells = stack.pop()
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            yield relabeled_mask(n, adj, order), order
            continue
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1:]
        for v in iter_bits(cell):
            bit = 1 << v
            stack.append(_refine(adj, head + [bit, cell & ~bit] + tail))
