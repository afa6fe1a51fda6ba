"""Stable matching with complementary firm preferences.

Certification of balancedness conditions on firms' acceptable sets,
firm decompositions, a complete desk-scale solver, and the rounding
pipeline from stable fractional matchings to stable integral ones.
"""

from .market import (
    BlockReport,
    FirmPreference,
    Market,
    MarketError,
    Matching,
    acceptable_set_family,
    acceptable_sets,
    find_block,
    is_stable,
)
from .prefs import (
    ComplementarityGraph,
    DecomposedMarket,
    complementarity_graph,
    complementarity_witness,
    decompose_by_components,
    decompose_by_sets,
    is_additive,
    is_complementary,
    primitive_acceptable_sets,
)
from .matrices import (
    MatrixCertificate,
    ZeroOneMatrix,
    is_balanced,
    is_totally_balanced,
    is_totally_unimodular,
    matrix_of_sets,
)
from .hypergraphs import (
    HyperCycle,
    acceptable_set_hypergraph,
    check_hypergraph_balanced,
    firm_worker_hypergraph,
)
from .fractional import (
    ConstraintSystem,
    FractionalMatching,
    apply_stable_transformations,
    build_constraint_system,
    extract_integral_solution,
    round_fractional,
    verify_fractional_stability,
)
from .solve import solve
from .techtree import (
    TechnologyTree,
    check_neighbour_condition,
    engagements,
    find_neighbour_ordering,
    worker_set_matrix,
)
from .oracle import all_stable_matchings, cyclic_market, exists_for_all_worker_prefs

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
