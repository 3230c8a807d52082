"""The six resolvability invariants with certifying witnesses.

Every invariant is one pipeline: distance rows, then a set family, then
the exact hitting-set solver, then a witness check. mhs_strict and
mhs_weak are minimum hitting sets of the strict/weak W-set families;
beta, beta_E and beta_M of the vertex-, edge- and mixed-pair resolver
families; psi (the doubly metric dimension) of the psi family, whose
hitting sets are exactly the doubly resolving sets.

Every witness hits its family, and a psi witness is also re-checked by
the two-witness definition (``is_doubly_resolving``), before it leaves
this module.
"""

from dataclasses import dataclass
from math import ceil, log2

from . import families as fam
from .graph import GraphError, all_pairs_distances, bits_list, max_degree
from .hitting import min_hitting_exact, verify_hitting

TAGS = ("beta", "beta_E", "beta_M", "psi", "mhs_strict", "mhs_weak")


@dataclass(frozen=True)
class InvariantResult:
    tag: str
    value: int
    witness: tuple  # sorted 0-based vertex indices

    def witness_labels(self):
        return [v + 1 for v in self.witness]


def _distances(g):
    if g.n < 2:
        raise GraphError("invariants are defined for graphs with n >= 2")
    return all_pairs_distances(g)


def _solve_family(g, family, tag):
    for i, m in enumerate(family.sets):
        if m == 0:
            raise GraphError(f"{tag}: no vertex resolves {family.labels[i]}")
    sol = min_hitting_exact(g.n, family.sets)
    if not verify_hitting(family.sets, sol.mask):  # pragma: no cover
        raise RuntimeError(f"{tag}: solver returned a non-hitting witness")
    return InvariantResult(tag, sol.size, bits_list(sol.mask))


def mhs_strict(g, dist=None):
    """Minimum hitting set of {W_uv, W_vu | uv edge} (mhs_<)."""
    dist = dist if dist is not None else _distances(g)
    return _solve_family(g, fam.family_strict(g, dist), "mhs_strict")


def mhs_weak(g, dist=None):
    """Minimum hitting set of {Wbar_uv, Wbar_vu | uv edge} (mhs_<=)."""
    dist = dist if dist is not None else _distances(g)
    return _solve_family(g, fam.family_weak(g, dist), "mhs_weak")


def metric_dimension(g, dist=None):
    """beta(G): minimum resolving set size."""
    dist = dist if dist is not None else _distances(g)
    return _solve_family(g, fam.vertex_pair_family(g, dist), "beta")


def edge_metric_dimension(g, dist=None):
    """beta_E(G): minimum edge resolving set size."""
    dist = dist if dist is not None else _distances(g)
    family = fam.edge_pair_family(g, dist)
    if not family.sets:
        # single-edge graph (P_2): no edge pairs to resolve, but the
        # known closed form beta_E(P_n) = 1 covers n = 2, so the empty
        # set is not reported; {v_1} resolves vacuously
        return InvariantResult("beta_E", 1, (0,))
    return _solve_family(g, family, "beta_E")


def mixed_metric_dimension(g, dist=None):
    """beta_M(G): minimum mixed resolving set size."""
    dist = dist if dist is not None else _distances(g)
    return _solve_family(g, fam.mixed_pair_family(g, dist), "beta_M")


def doubly_metric_dimension(g, dist=None):
    """psi(G): minimum doubly resolving set size.

    Solved as the minimum hitting set of the psi family, so the witness
    is the lexicographically smallest minimum doubly resolving set; it
    is re-checked by the two-witness definition.
    """
    dist = dist if dist is not None else _distances(g)
    result = _solve_family(g, fam.psi_family(g, dist), "psi")
    if not fam.is_doubly_resolving(dist, result.witness):  # pragma: no cover
        raise RuntimeError("psi: solver returned a non-doubly-resolving witness")
    return result


def edge_dim_log_bound_check(g, dist=None):
    """Sanity invariant: beta_E(G) >= ceil(log2(max degree))."""
    dist = dist if dist is not None else _distances(g)
    value = edge_metric_dimension(g, dist).value
    delta = max_degree(g)
    return value >= ceil(log2(delta))


def _all_invariants(g, dist):
    return {
        "beta": metric_dimension(g, dist),
        "beta_E": edge_metric_dimension(g, dist),
        "beta_M": mixed_metric_dimension(g, dist),
        "psi": doubly_metric_dimension(g, dist),
        "mhs_strict": mhs_strict(g, dist),
        "mhs_weak": mhs_weak(g, dist),
    }


def all_invariants(g):
    """All six invariants with witnesses, computed from one distance
    matrix. Returns a dict keyed by tag."""
    return _all_invariants(g, _distances(g))


def invariant_values(g, dist=None):
    """Values of all six invariants, as a dict tag -> int."""
    dist = dist if dist is not None else _distances(g)
    return {tag: r.value for tag, r in _all_invariants(g, dist).items()}


def result_record(g, graph6_string, results):
    """JSON-ready record for one graph: values plus 1-based witnesses."""
    record = {"graph6": graph6_string, "n": g.n, "m": g.num_edges()}
    for tag in TAGS:
        record[tag] = results[tag].value
    record["witnesses"] = {
        tag: results[tag].witness_labels() for tag in TAGS
    }
    return record
