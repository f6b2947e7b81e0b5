"""hspex: p-spectral radius machinery and structural hypergraph predicates.

The package decides desk-scale questions about uniform hypergraphs: exact
Lagrangian optimization over l^p spheres, tightness/bridge/plateau
certificates, forbidden-family saturation and extremal sweeps, and
reproducible theorem-check suites.
"""

from .errors import HspexError
from .hypergraph import (
    Hypergraph,
    complete_r_graph,
    disjoint_union,
    ell_cliques,
    l_gadget,
    new_hypergraph,
    parse_hypergraph,
    serialize,
)
from .canonical import canonical_key, canonical_relabeling
from .embedding import contains_induced_subgraph, contains_subgraph
from .spectral import (
    SolverConfig,
    SpectralSolution,
    adjacency_spectral_radius,
    cloning_lagrangian_delta,
    degree_ratio_lower_bound,
    eigen_residual,
    lagrangian,
    lagrangian_gradient,
    principal_ratio,
    rho_infinity,
    rho_upper_bound,
    solve_rho_p,
)
from .structure import (
    BridgeCertificate,
    TightnessCertificate,
    find_k_bridges,
    find_plateaus,
    is_k_bridge,
    is_k_plateaued,
    is_k_tight,
    is_lambda_plateau,
    partitions_of,
    refines,
)
from .families import (
    ExtremalResult,
    ForbiddenFamily,
    PredicateFamily,
    check_clonal_on,
    check_hereditary_witness,
    check_multiplicative_witness,
    enumerate_family,
    extremal_lambda_p,
    extremal_pi,
    is_edge_maximal,
    is_member,
    isomorphic,
    saturate,
)

__version__ = "0.1.0"

__all__ = [
    "HspexError",
    "Hypergraph",
    "new_hypergraph",
    "complete_r_graph",
    "disjoint_union",
    "ell_cliques",
    "l_gadget",
    "parse_hypergraph",
    "serialize",
    "canonical_key",
    "canonical_relabeling",
    "contains_subgraph",
    "contains_induced_subgraph",
    "SolverConfig",
    "SpectralSolution",
    "lagrangian",
    "lagrangian_gradient",
    "eigen_residual",
    "solve_rho_p",
    "rho_infinity",
    "principal_ratio",
    "degree_ratio_lower_bound",
    "rho_upper_bound",
    "cloning_lagrangian_delta",
    "adjacency_spectral_radius",
    "TightnessCertificate",
    "BridgeCertificate",
    "partitions_of",
    "refines",
    "is_k_tight",
    "is_k_bridge",
    "find_k_bridges",
    "is_lambda_plateau",
    "find_plateaus",
    "is_k_plateaued",
    "ForbiddenFamily",
    "PredicateFamily",
    "ExtremalResult",
    "is_member",
    "is_edge_maximal",
    "saturate",
    "check_clonal_on",
    "check_hereditary_witness",
    "check_multiplicative_witness",
    "enumerate_family",
    "extremal_pi",
    "extremal_lambda_p",
    "isomorphic",
]
