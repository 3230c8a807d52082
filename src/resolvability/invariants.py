"""The six resolvability invariants with certifying witnesses.

Every invariant is one pipeline: distance rows, then a set family, then
the exact hitting-set solver, then a witness check. ``_PIPELINE`` maps
each tag to the name of the function in ``families`` that builds its
family, the tags whose families that function takes, and any check
beyond hitting the family. mhs_strict and mhs_weak are minimum hitting
sets of the strict/weak W-set families; beta and beta_E of the vertex-
and edge-pair resolver families; beta_M of the mixed family, which is
the beta, beta_E and mhs_strict families followed by the cross sets of
a vertex and an edge not containing it; psi (the doubly metric
dimension) of the psi family, the beta family followed by the other
level sets, whose hitting sets are exactly the doubly resolving sets.

``all_invariants(g, tags)`` runs the tags it is given from one distance
matrix and one ``families.Rows``, so the edge list and each form of the
rows are made once, and builds each family at most once: beta_M reuses
the beta, beta_E and mhs_strict families, psi the beta family, and both
W-set families read the same strict sets. It solves the tags in
``_ORDER``, each after the tags in its ``_BELOW``: every set of their
families contains a set of its own, so their optima bound its optimum
below, and for n > 9 its search starts there. For n > 9 each family is
also reduced once, and the reduction of a family built from others
starts from their reductions and adds only the sets that follow
theirs. Families and reductions are dropped after their last use.
Every witness hits its whole family, and a psi witness is also
re-checked by the two-witness definition (``is_doubly_resolving``),
before it leaves this module.
"""

from collections import namedtuple

from . import families as fam
from .graph import GraphError, all_pairs_distances, bits_list
from .hitting import (MAX_UNIVERSE, SMALL_UNIVERSE, min_hitting_exact,
                      reduce_family, verify_hitting)

TAGS = ("beta", "beta_E", "beta_M", "psi", "mhs_strict", "mhs_weak")


def check_tags(tags):
    """Raise GraphError at the first tag that is not in TAGS."""
    for tag in tags:
        if tag not in TAGS:
            raise GraphError(f"unknown invariant {tag!r}; choose from {TAGS}")


# tag -> (name of its builder in ``families``, tags whose families it
# takes after the graph and distances, witness check on (distances,
# witness) or None). A family built from others starts with their sets,
# in this order. Builders are looked up by name at call time, so a
# wrapper installed there (a counting one in the tests) sees every build.
_PIPELINE = {
    "beta": ("vertex_pair_family", (), None),
    "beta_E": ("edge_pair_family", (), None),
    "beta_M": ("compose_mixed_family", ("beta", "beta_E", "mhs_strict"),
               None),
    "psi": ("psi_family", ("beta",), fam.is_doubly_resolving),
    "mhs_strict": ("family_strict", (), None),
    "mhs_weak": ("family_weak", (), None),
}

# tag -> the tags whose optima are lower bounds of its own: each set of
# their families contains a set of its family. beta_M's family holds the
# three families, and psi's the beta family; a weak set Wbar(u,v) is
# V - C for the level set C of the value -1 of (u, v), which holds u, so
# it is a psi set; and Wbar(u,v) holds the strict set W(v,u).
_BELOW = {
    "beta_M": ("beta", "beta_E", "mhs_strict"),
    "psi": ("beta", "mhs_weak"),
    "mhs_strict": ("mhs_weak",),
}

# the order the tags are solved in: each after the tags in its _BELOW
_ORDER = ("beta", "beta_E", "mhs_weak", "mhs_strict", "beta_M", "psi")


class InvariantResult(namedtuple("InvariantResult", "tag value witness")):
    """An invariant's value and witness, the sorted 0-based vertex
    indices of a minimum hitting set."""

    __slots__ = ()

    def witness_labels(self):
        return [v + 1 for v in self.witness]


def _solve(tag, family, dist, lower, reduced):
    sets = family.sets
    # only P_2's edge-pair family is empty (one edge, no pair to resolve);
    # the closed form beta_E(P_n) = 1 covers n = 2, with witness {v_1}
    mask = min_hitting_exact(family.n, sets, lower, reduced) if sets else 1
    witness = bits_list(mask)
    check = _PIPELINE[tag][2]
    valid = verify_hitting(sets, mask) and (not check or check(dist, witness))
    if not valid:  # pragma: no cover
        raise RuntimeError(f"{tag}: solver returned an invalid witness")
    return InvariantResult(tag, len(witness), witness)


def _family(tag, g, dist, rows, built):
    """tag's family from ``built`` (tag -> family), built there first."""
    if tag not in built:
        name, parts, _ = _PIPELINE[tag]
        built[tag] = getattr(fam, name)(
            g, dist, *[_family(part, g, dist, rows, built) for part in parts],
            rows=rows)
    return built[tag]


def _reduction(tag, built, reduced):
    """tag's ``(forced, kept)`` reduction from ``reduced`` (tag ->
    reduction), made there first from its built family: that of a
    family built from others is made from their reductions and the
    sets that follow theirs."""
    if tag not in reduced:
        sets = built[tag].sets
        parts = _PIPELINE[tag][1]
        forced, kept = 0, []
        for part in parts:
            part_forced, part_kept = _reduction(part, built, reduced)
            forced |= part_forced
            kept += part_kept
        own = sets[sum(len(built[part].sets) for part in parts):]
        reduced[tag] = reduce_family(built[tag].n, kept + list(own), forced)
    return reduced[tag]


def all_invariants(g, tags=TAGS):
    """The invariants named by ``tags`` (default all six) with
    witnesses, as a dict tag -> InvariantResult in the order of
    ``tags``. Each witness is the lexicographically smallest optimum.
    Only the families those tags need are built, each once, and the
    tags are solved in ``_ORDER``, so each search starts at the largest
    optimum already found among the tags that bound it below."""
    tags = tuple(dict.fromkeys(tags))  # each tag once, in order
    check_tags(tags)
    if g.n < 2:
        raise GraphError("invariants are defined for graphs with n >= 2")
    # checked before any family is built: the pair builders pack each
    # distance in a byte, which larger graphs can overflow
    if g.n > MAX_UNIVERSE:
        raise ValueError(f"universe size {g.n} exceeds {MAX_UNIVERSE}")
    dist = all_pairs_distances(g)
    rows = fam.Rows(g, dist)
    # the subset tables of small universes read each family whole
    reducing = g.n > SMALL_UNIVERSE
    order = sorted(tags, key=_ORDER.index)
    built = {}  # tag -> family, kept while a tag still to solve needs it
    reduced = {}  # tag -> (forced, kept), the same
    results = {}
    for i, tag in enumerate(order):
        family = _family(tag, g, dist, rows, built)
        lower = max([results[t].value for t in _BELOW.get(tag, ())
                     if t in results], default=0)
        results[tag] = _solve(tag, family, dist, lower,
                              _reduction(tag, built, reduced) if reducing
                              else None)
        # families are the bulk of the memory, so each goes after its
        # last use
        later = {t for u in order[i + 1:] for t in (u, *_PIPELINE[u][1])}
        for done in built.keys() - later:
            del built[done]
            reduced.pop(done, None)
    return {tag: results[tag] for tag in tags}


def invariant_values(g):
    """Values of all six invariants, as a dict tag -> int."""
    return {tag: r.value for tag, r in all_invariants(g).items()}


def result_record(g, graph6_string, results):
    """JSON-ready record for one graph: the values and 1-based witnesses
    of the tags in ``results``."""
    record = {"graph6": graph6_string, "n": g.n, "m": g.num_edges()}
    for tag, r in results.items():
        record[tag] = r.value
    record["witnesses"] = {
        tag: r.witness_labels() for tag, r in results.items()
    }
    return record
