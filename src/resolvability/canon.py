"""Canonical forms of graphs: the least edge mask over all relabelings,
found by an individualization search pruned by automorphisms (after
McKay & Piperno, J. Symb. Comput. 60 (2014)).

A graph's edge mask has bit j(j-1)/2 + i set iff vertices i < j are
adjacent: the pairs in column order, as in graph6. This module owns
that layout: ``relabeled_mask`` encodes it and ``adjacency`` decodes it,
for the graph6 codec and the class enumeration alike; only ``_search``
builds masks itself, a column at a time as it gives labels. Masks
compare column n - 1 (the neighbours of vertex n - 1) first, then column
n - 2, and so on. ``canonical_form(n, adj)`` is the least mask over all
relabelings of the graph, so equal forms mean isomorphic graphs and the
form is the mask of the class's first labeled graph in mask order.

``_search`` assigns the labels from n - 1 down. The unlabeled vertices
form an ordered partition whose cells are ranges of the labels still
free; the next label is the top one, and it goes to a vertex of the top
cell. A vertex's column is least when its neighbours take the lowest
labels of each cell, so only the vertices with the least such column
branch, and every cell then splits, neighbours below and the rest
above. A branch whose columns so far exceed the best leaf's is cut, and
so is a child that a found automorphism (two leaves with equal masks
give one) maps onto an explored sibling: K_n visits n(n-1)/2 + 1 leaves.
"""

from .graph import iter_bits, mask_of


def relabeled_mask(n, adj, order):
    """Edge mask of the graph relabeled so that vertex ``order[j]``
    becomes j: bit j(j-1)/2 + i is set iff i < j are then adjacent."""
    pos = _inverse(order)
    mask = 0
    for j, v in enumerate(order):
        for u in iter_bits(adj[v]):
            if pos[u] < j:
                mask |= 1 << j * (j - 1) // 2 + pos[u]
    return mask


def adjacency(n, mask):
    """Adjacency masks of the graph on n vertices whose edge mask is
    ``mask``: the inverse of ``relabeled_mask(n, adj, range(n))``."""
    adj = [0] * n
    for j in range(1, n):
        adj[j] = mask >> j * (j - 1) // 2 & (1 << j) - 1
        for i in iter_bits(adj[j]):
            adj[i] |= 1 << j
    return adj


def _inverse(perm):
    """The inverse of a permutation given as a list."""
    inv = [0] * len(perm)
    for j, v in enumerate(perm):
        inv[v] = j
    return inv


def canonical_form(n, adj):
    """Least edge mask over all relabelings of the graph; equal for two
    graphs on n vertices iff they are isomorphic."""
    return _search(n, adj)[0]


def _search(n, adj):
    """``(form, order, automorphisms)``: the least mask, the first leaf
    order with it (vertex ``order[j]`` gets label j) and automorphisms
    (lists v -> image).

    A node that has given the labels above j holds the least column of
    each of them; every relabeling that keeps its vertices' labels and
    puts each other vertex in its cell's range has those columns. A
    leaf with the best mask so far gives ``order[j] -> best_order[j]``.
    A child is skipped if the found automorphisms that fix the labeled
    vertices map an explored sibling onto it. They fix the node's cells,
    which depend only on adjacency to the labeled vertices, so they map
    that sibling's subtree onto the child's, masks unchanged. The best
    leaves are the images of the first, b, one per automorphism. By
    induction on the search order each is visited, giving a found map
    onto b, or is a found image of a visited one, so the automorphisms
    found generate the group.
    """
    best, autos = None, []
    order = [0] * n

    def visit(cells, j, mask):
        # cells: (lowest label, vertex mask), by label; they cover 0..j
        nonlocal best
        if len(cells) == j + 1:  # one vertex per cell: the rest is forced
            order[:j + 1] = rest = [c.bit_length() - 1 for _, c in cells]
            for lo in range(1, j + 1):
                a, col = adj[rest[lo]], 0
                for i in range(lo):
                    col |= (a >> rest[i] & 1) << i
                mask |= col << lo * (lo - 1) // 2
            if best is None or mask < best[0]:
                best = mask, order[:]
            elif mask == best[0]:
                autos.append([w for _, w in sorted(zip(order, best[1]))])
            return
        cols = []
        for v in iter_bits(cells[-1][1]):
            a, col = adj[v], 0
            for lo, c in cells:
                col |= ((1 << (a & c).bit_count()) - 1) << lo
            cols.append((col, v))
        least = min(cols)[0]
        base = j * (j - 1) // 2
        mask |= least << base
        if best is not None and mask >> base > best[0] >> base:
            return
        fixed = order[j + 1:]
        explored, gens, known = 0, [], 0  # gens: autos[:known] fixing fixed
        for col, v in cols:
            if col != least:
                continue
            if len(autos) > known:
                gens += [g for g in autos[known:]
                         if all(g[u] == u for u in fixed)]
                known = len(autos)
            if gens and _orbit(explored, gens) >> v & 1:
                continue
            order[j] = v
            a, child = adj[v], []
            for lo, c in cells:
                c &= ~(1 << v)
                if c & a:
                    child.append((lo, c & a))
                if c & ~a:
                    child.append((lo + (c & a).bit_count(), c & ~a))
            visit(child, j - 1, mask)
            explored |= 1 << v

    visit([(0, (1 << n) - 1)] if n else [], n - 1, 0)
    return (*best, autos)


def _orbit(mask, gens):
    """The images of ``mask``'s vertices under products of ``gens``."""
    todo = mask
    while todo:
        todo = mask_of(g[v] for v in iter_bits(todo) for g in gens) & ~mask
        mask |= todo
    return mask
