"""Structural analysis of Hamiltonian cycles in the n-dimensional hypercube.

The package models hypercube vertices as integers (entry i = bit i), and
provides: validated Hamiltonian cycles with per-dimension profiles and
balance checks (:mod:`qube.cycles`), inscribed-square detection
(:mod:`qube.squares`), exact maximum-independent and balanced-independent
set solvers with the pair-graph reduction (:mod:`qube.independence`), the
paper's bounds: the balanced-independence tables, square-forcing
thresholds, the counting argument and table 1 (:mod:`qube.bounds`),
exhaustive pruned enumeration and randomized sampling of cycles
(:mod:`qube.enumeration`), property sweeps over a corpus
(:mod:`qube.verify`), and a command-line interface (:mod:`qube.cli`).
"""

from .bounds import (
    ALPHA_EQUI_COMPUTED,
    ALPHA_EQUI_HYPERCUBE,
    EquiValueUnavailable,
    lower_bound_set,
    rim_threshold,
)
from .cycles import (
    CycleError,
    DimensionUnused,
    DuplicateVertex,
    HamiltonianCycle,
    NonAdjacentStep,
    NotClosed,
    WrongLength,
    check_balance,
    check_chromatic_conditions,
    check_segment_sums,
    chromatic_vector,
    color,
    dimension_profile,
    dimension_profiles,
    gray_cycle,
    permute_dims,
    validate_cycle,
)
from .enumeration import (
    PruneConfig,
    count_cycles,
    enumerate_cycles,
    path_prefixes,
    sample_cycles,
)
from .graphs import (
    BipartiteGraph,
    ReducedGraph,
    UndirectedGraph,
    format_bipartite,
    format_graph,
    hypercube_bipartite,
    hypercube_graph,
    is_balanced,
    is_independent,
    is_maximal_independent,
    parse_bipartite,
    parse_graph,
)
from .hypercube import (
    MAX_DIM,
    drop_entry,
    edge_dim,
    gray_code,
    parity,
    parity_excluding,
)
from .independence import (
    SizeLimitExceeded,
    brute_force_equi,
    equi_independence,
    equi_reduction,
    max_independent_set,
    unpack_pair_witness,
)
from .squares import check_threshold_implication, find_squares, has_square

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
