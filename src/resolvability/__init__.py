"""Exact computation of six graph resolvability invariants.

Invariant tags: beta (metric dimension), beta_E (edge metric
dimension), beta_M (mixed metric dimension), psi (doubly metric
dimension), mhs_strict (minimum hitting set of the strict W-set
family), mhs_weak (minimum hitting set of the complement family, a
lower bound for psi). All computation is exact integer arithmetic on
desk-scale graphs (n <= 62 for I/O, exhaustive enumeration of the
isomorphism classes to n = 9).
"""

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    all_pairs_distances,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    is_connected,
    is_maximal_neighbour_graph,
    leaf_count,
    max_degree,
    path,
    star,
    t_prime_tree,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .families import (
    SetFamily,
    edge_pair_family,
    family_strict,
    family_weak,
    is_doubly_resolving,
    vertex_pair_family,
)
from .hitting import (
    InfeasibleInstanceError,
    min_hitting_exact,
    verify_hitting,
)
from .invariants import (
    TAGS,
    InvariantResult,
    all_invariants,
    invariant_values,
)
from .extremal import (
    ExtremalReport,
    GraphSource,
    extremal_difference,
    sweep,
)
from .verify import CheckResult, verify_theorems

__version__ = "0.1.0"
