"""The six resolvability invariants with certifying witnesses.

Every invariant is one pipeline: distance rows, then a set family, then
the exact hitting-set solver, then a witness check. ``_PIPELINE`` maps
each tag to the function that builds its family, the tags whose families
that function reuses, and any check beyond hitting the family.
mhs_strict and mhs_weak are minimum hitting sets of the strict/weak
W-set families; beta and beta_E of the vertex- and edge-pair resolver
families, and beta_M of the mixed family, which is those two followed by
the vertex-edge pairs; psi (the doubly metric dimension) of the psi
family, whose hitting sets are exactly the doubly resolving sets.

``all_invariants(g, tags)`` runs the tags it is given from one distance
matrix and builds each family at most once, so beta_M reuses the beta
and beta_E families; a family is dropped after its last use. Every
witness hits its family, and a psi witness is also re-checked by the
two-witness definition (``is_doubly_resolving``), before it leaves this
module.
"""

from dataclasses import dataclass

from . import families as fam
from .graph import GraphError, all_pairs_distances, bits_list
from .hitting import MAX_UNIVERSE, min_hitting_exact, verify_hitting

TAGS = ("beta", "beta_E", "beta_M", "psi", "mhs_strict", "mhs_weak")


def check_tags(tags):
    """Raise GraphError at the first tag that is not in TAGS."""
    for tag in tags:
        if tag not in TAGS:
            raise GraphError(f"unknown invariant {tag!r}; choose from {TAGS}")


# tag -> (family function, tags whose families it takes after the graph
# and distances, witness check on (distances, witness) or None). Family
# functions are looked up in ``families`` at call time, so a wrapper
# installed there (a counting one in the tests) sees every build.
_PIPELINE = {
    "beta": (lambda g, d: fam.vertex_pair_family(g, d), (), None),
    "beta_E": (lambda g, d: fam.edge_pair_family(g, d), (), None),
    "beta_M": (lambda g, d, vertex, edge: fam.compose_mixed_family(
        g, d, vertex, edge), ("beta", "beta_E"), None),
    "psi": (lambda g, d: fam.psi_family(g, d), (), fam.is_doubly_resolving),
    "mhs_strict": (lambda g, d: fam.family_strict(g, d), (), None),
    "mhs_weak": (lambda g, d: fam.family_weak(g, d), (), None),
}


@dataclass(frozen=True)
class InvariantResult:
    tag: str
    value: int
    witness: tuple  # sorted 0-based vertex indices

    def witness_labels(self):
        return [v + 1 for v in self.witness]


def _solve(tag, family, dist):
    sets = family.sets
    # only P_2's edge-pair family is empty (one edge, no pair to resolve);
    # the closed form beta_E(P_n) = 1 covers n = 2, with witness {v_1}
    mask = min_hitting_exact(family.n, sets) if sets else 1
    witness = bits_list(mask)
    check = _PIPELINE[tag][2]
    valid = verify_hitting(sets, mask) and (not check or check(dist, witness))
    if not valid:  # pragma: no cover
        raise RuntimeError(f"{tag}: solver returned an invalid witness")
    return InvariantResult(tag, len(witness), witness)


def all_invariants(g, tags=TAGS):
    """The invariants named by ``tags`` (default all six) with
    witnesses, as a dict tag -> InvariantResult in the order of
    ``tags``. Each witness is the lexicographically smallest optimum.
    Only the families those tags need are built, each once."""
    tags = tuple(dict.fromkeys(tags))  # each tag once, in order
    check_tags(tags)
    if g.n < 2:
        raise GraphError("invariants are defined for graphs with n >= 2")
    # checked before any family is built: the pair builders pack each
    # distance in a byte, which larger graphs can overflow
    if g.n > MAX_UNIVERSE:
        raise ValueError(f"universe size {g.n} exceeds {MAX_UNIVERSE}")
    dist = all_pairs_distances(g)
    built = {}  # tag -> family, kept while a tag still to solve needs it

    def family(tag):
        if tag not in built:
            build, parts, _ = _PIPELINE[tag]
            built[tag] = build(g, dist, *map(family, parts))
        return built[tag]

    results = {}
    for i, tag in enumerate(tags):
        results[tag] = _solve(tag, family(tag), dist)
        # families are the bulk of the memory, so each goes after its
        # last use
        later = {t for u in tags[i + 1:] for t in (u, *_PIPELINE[u][1])}
        for done in built.keys() - later:
            del built[done]
    return results


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
