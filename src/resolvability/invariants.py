"""The six resolvability invariants with certifying witnesses.

Every invariant is one pipeline: distance rows, then a set family, then
the exact hitting-set solver, then a witness check. ``_PIPELINE`` maps
each tag to the name of the builder in ``families`` that makes its
family from the graph's ``Rows``, the tags whose families it is
composed of, and, for a composed tag, the name of its definitional
predicate in ``families``, which reads the same ``Rows``. beta
and beta_E are minimum hitting sets of the vertex and edge pair
resolver families, mhs_strict and mhs_weak of the strict and weak
W-set families, beta_M of the mixed family and psi (the doubly metric
dimension) of the psi family, whose hitting sets are exactly the
doubly resolving sets.

``all_invariants(g, tags)`` walks ``_PIPELINE`` once, from one distance
matrix and one ``Rows``: it builds each family the tags need, solves the
tags asked for, and drops each family after its last use. A composed
family holds the sets of its parts, so their optima bound its own below,
and each search starts at the largest of them found. The solver takes
each family's ``reduction`` and makes it only if it searches; a composed
family's is made from those of its parts.

A composed tag (beta_M, psi) is first offered the witnesses of its
solved parts whose value is that lower bound lo. The first that passes
the tag's definitional predicate (``is_mixed_resolving``,
``is_doubly_resolving``, which key the byte rows masked to the witness)
is its answer, and its family is never built.
That answer is exact and lexicographically smallest: the witness w of
such a part P is P's lexicographically smallest optimum; any optimum T
of the composed family has size lo and hits P's family, so it is an
optimum of P and w <= T; and w, passing the predicate, hits the composed
family. Otherwise the family is built and searched from lo. So every
witness of a simple tag hits its family, and every composed witness
passes its predicate, a check that does not read the family, and a
searched one hits its family too, before it leaves this module.
"""

from collections import namedtuple

from . import families as fam
from .graph import GraphError, all_pairs_distances, bits_list, check_order
from .hitting import min_hitting_exact, verify_hitting

TAGS = ("beta", "beta_E", "beta_M", "psi", "mhs_strict", "mhs_weak")


def check_tags(tags):
    """Raise GraphError at the first tag that is not in TAGS."""
    for tag in tags:
        if tag not in TAGS:
            raise GraphError(f"unknown invariant {tag!r}; choose from {TAGS}")


# tag -> (name of its builder in ``families``, tags whose families it
# takes after the rows, in the order its family holds their sets, name
# of the definitional predicate in ``families`` that a composed tag's
# witnesses pass, or None), in solve order, each tag after its parts.
# Builders take the rows and the parts' families, predicates the rows
# and a witness. Both are looked up in ``families`` at call time, so a
# wrapper installed there (a counting one in the tests) sees every call.
_PIPELINE = {
    "beta": ("vertex_pair_family", (), None),
    "beta_E": ("edge_pair_family", (), None),
    "mhs_weak": ("family_weak", (), None),
    "mhs_strict": ("family_strict", (), None),
    "beta_M": ("compose_mixed_family", ("beta", "beta_E", "mhs_strict"),
               "is_mixed_resolving"),
    "psi": ("psi_family", ("beta", "mhs_weak"), "is_doubly_resolving"),
}


class InvariantResult(namedtuple("InvariantResult", "tag value witness")):
    """An invariant's value and witness, the sorted 0-based vertex
    indices of a minimum hitting set."""

    __slots__ = ()

    def witness_labels(self):
        return [v + 1 for v in self.witness]


def _solve(tag, family, rows, lower):
    sets = family.sets
    # only P_2's edge-pair family is empty (one edge, no pair to resolve);
    # the closed form beta_E(P_n) = 1 covers n = 2, with witness {v_1}
    mask = (min_hitting_exact(family.n, sets, lower, family.reduction)
            if sets else 1)
    witness = bits_list(mask)
    check = _PIPELINE[tag][2]
    valid = verify_hitting(sets, mask) and (
        not check or getattr(fam, check)(rows, witness))
    if not valid:  # pragma: no cover
        raise RuntimeError(f"{tag}: solver returned an invalid witness")
    return InvariantResult(tag, len(witness), witness)


def all_invariants(g, tags=TAGS):
    """The invariants named by ``tags`` (default all six) with
    witnesses, as a dict tag -> InvariantResult in the order of
    ``tags``. Each witness is the lexicographically smallest optimum.
    Only the families those tags need are built, each once, and each
    search starts at the largest optimum found among its tag's parts;
    beta_M and psi build none when a part's witness answers them."""
    tags = tuple(dict.fromkeys(tags))  # each tag once, in order
    check_tags(tags)
    if g.n < 2:
        raise GraphError("invariants are defined for graphs with n >= 2")
    # checked before any family is built: the pair builders pack each
    # distance in a byte, which larger graphs can overflow
    check_order(g.n)
    needed = set(tags)
    for tag in reversed(_PIPELINE):  # a tag's parts come before it
        if tag in needed:
            needed.update(_PIPELINE[tag][1])
    plan = [tag for tag in _PIPELINE if tag in needed]
    rows = fam.Rows(g, all_pairs_distances(g))
    built = {}  # tag -> family, kept while a later tag takes it
    results = {}
    for i, tag in enumerate(plan):
        name, parts, check = _PIPELINE[tag]
        solved = [results[p] for p in parts if p in results]
        lower = max([r.value for r in solved], default=0)
        # a part's witness of the lower bound that passes the predicate
        # is the family's lexicographically smallest optimum (see above)
        for r in solved:
            if r.value == lower and getattr(fam, check)(rows, r.witness):
                results[tag] = InvariantResult(tag, lower, r.witness)
                break
        else:
            built[tag] = getattr(fam, name)(rows, *[built[p] for p in parts])
            if tag in tags:
                results[tag] = _solve(tag, built[tag], rows, lower)
        # families are the bulk of the memory, so each goes after its
        # last use
        later = {p for t in plan[i + 1:] for p in _PIPELINE[t][1]}
        for done in built.keys() - later:
            del built[done]
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
