"""Topological compatibility of parallel tasks and interconnect topologies.

Quantifies how well a task's communication graph (ring, star, arbitrary)
fits a computing system's interconnect by embedding the task graph into the
reachability-transformed system graph.  The headline quantities are the
parallelism potential p (largest embeddable task order) and the
compatibility index C = p/n.
"""

from .errors import (
    BudgetExceeded,
    EdgeListFormatError,
    HostTooLarge,
    InvalidEdge,
    InvalidParameter,
    InvalidPotential,
    InvalidReachability,
    InvalidVertex,
    TopoCompatError,
)
from .graph import (
    Graph,
    diameter,
    from_edge_list,
    graph_power,
    is_bipartite,
)
from .topologies import (
    TopologySpec,
    complete,
    gray_code_cycle,
    hypercube,
    parse_topology_spec,
    ring,
    star,
)
from .embedding import (
    Embedding,
    SearchBudget,
    find_embedding,
    longest_cycle,
    verify_embedding,
)
from .compat import (
    CompatibilityReport,
    compatibility_index,
    compatibility_table,
    hypercube_star_potential,
    ring_potential,
    star_potential,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "from_edge_list",
    "diameter",
    "graph_power",
    "is_bipartite",
    "TopologySpec",
    "parse_topology_spec",
    "hypercube",
    "ring",
    "star",
    "complete",
    "gray_code_cycle",
    "Embedding",
    "SearchBudget",
    "find_embedding",
    "verify_embedding",
    "longest_cycle",
    "CompatibilityReport",
    "hypercube_star_potential",
    "star_potential",
    "ring_potential",
    "compatibility_index",
    "compatibility_table",
    "TopoCompatError",
    "InvalidVertex",
    "InvalidEdge",
    "InvalidParameter",
    "InvalidReachability",
    "InvalidPotential",
    "HostTooLarge",
    "BudgetExceeded",
    "EdgeListFormatError",
    "__version__",
]
