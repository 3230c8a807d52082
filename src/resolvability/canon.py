"""Canonical forms of small graphs, by partition refinement and
individualization (after McKay & Piperno, J. Symb. Comput. 60 (2014)).

``canonical_form(n, adj)`` refines the one-cell partition, first by
degree, until it is equitable (every vertex of a cell has the same
number of neighbours in each cell), and then branches on each vertex of
the first cell with more than one vertex in turn, individualizing it
and refining again. Every discrete partition the search reaches is a
relabeling of the graph; the form is the smallest ``relabeled_mask``
over them. Each step commutes with relabeling, so the trees of
isomorphic graphs hold the same leaf masks: equal forms mean isomorphic
graphs and the converse holds by construction.

Two leaves with equal masks differ by an automorphism. The search skips
each child that a found automorphism maps onto an explored sibling,
whose subtree holds the same masks, so K_n visits n(n-1)/2 + 1 leaves. ``canonical_labeling`` also
returns every order giving the form, one per automorphism.
"""

from .graph import iter_bits, mask_of


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
    return _search(n, adj)[0]


def canonical_labeling(n, adj):
    """``(form, orders)``: the canonical form and every order that gives
    it; relabeling vertex ``order[j]`` to j maps the graph onto its
    form. The orders are the images of the search's best leaf, first,
    under the group its automorphisms generate."""
    form, best, gens = _search(n, adj)
    group, todo = {tuple(best)}, [best]
    for order in todo:  # todo grows as the closure finds new orders
        for image in {tuple([g[v] for v in order]) for g in gens} - group:
            group.add(image)
            todo.append(list(image))
    return form, todo


def _search(n, adj):
    """``(form, order, automorphisms)``: the least leaf mask, the first
    leaf order with it, and automorphisms (lists v -> image).

    A leaf with the best mask so far gives ``order[j] -> best_order[j]``.
    A child is skipped if the found automorphisms that fix the vertices
    individualized above it map an explored sibling onto it. They fix
    the node's partition, as each step commutes with relabeling, so
    they map that sibling's subtree onto the child's, masks unchanged.
    The best leaves are the images of the first, b, one per
    automorphism. By induction on the search order each is visited,
    giving a found map onto b, or is a found image of a visited one, so
    the automorphisms found generate the group.
    """
    best, autos = None, []

    def visit(cells, fixed):
        nonlocal best
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            form = relabeled_mask(n, adj, order)
            if best is None or form < best[0]:
                best = form, order
            elif form == best[0]:
                autos.append([w for _, w in sorted(zip(order, best[1]))])
            return
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1:]
        explored, gens, known = 0, [], 0  # gens: autos[:known] fixing fixed
        for v in iter_bits(cell):
            gens += [g for g in autos[known:] if all(g[u] == u for u in fixed)]
            known = len(autos)
            if _orbit(explored, gens) >> v & 1:
                continue
            bit = 1 << v
            visit(_refine(adj, head + [bit, cell & ~bit] + tail), fixed + [v])
            explored |= bit

    visit(_refine(adj, [(1 << n) - 1] if n else []), [])
    return (*best, autos)


def _orbit(mask, gens):
    """The images of ``mask``'s vertices under products of ``gens``."""
    todo = mask
    while todo:
        todo = mask_of(g[v] for v in iter_bits(todo) for g in gens) & ~mask
        mask |= todo
    return mask
