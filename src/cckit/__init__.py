"""Combinatorial-complex toolkit.

Constructions, topological/metric invariants, covering certificates, and
color-refinement distinguishability engines for ranked cell complexes over
integer nodes.
"""

from .complex import (
    Cell,
    CombinatorialComplex,
    NeighborhoodKind,
    NeighborhoodSpec,
    SimpleGraph,
    SparseBinaryMatrix,
    adjacency,
    augmented_hasse_graph,
    build_cc,
    co_adjacency,
    decode_json,
    disjoint_union,
    disjoint_union_all,
    encode_json,
    graph_as_cc,
    hasse_graph,
    incidence_down,
    incidence_up,
    natural_specs,
    neighborhood,
    neighborhood_matrix,
)
from .covering import (
    CellMap,
    CoverCertificate,
    CoveringViolation,
    cell_map_from_node_map,
    check_isomorphism,
    fiber_sizes,
    strip_covers,
    torus_mod_cover,
    torus_union_certificate,
    verify_covering,
)
from .generators import (
    StripParams,
    TorusParams,
    cartesian_product,
    cycle_graph,
    cylinder,
    moebius,
    mog_example_pair,
    star_graph,
    torus,
)
from .invariants import (
    INFINITE,
    BettiVector,
    Orientability,
    OrientabilityVerdict,
    betti_gf2,
    boundary_edge_graph,
    boundary_matrices,
    connected_components,
    cross_diameter,
    cycle_lengths,
    diameter,
    euler_characteristic,
    orientability_2d,
    shortest_paths,
)
from .iso import IsoResult, cc_isomorphic
from .lifting import (
    CyclicLiftParams,
    MogParams,
    avg_spd_lens,
    chordless_cycles,
    cyclic_lift,
    fine_cover_params,
    mog_pool,
    triangular_lift,
)
from .refinement import (
    Engine,
    Fingerprint,
    HompBlock,
    PairColoring,
    PoolStage,
    SclBlock,
    Verdict,
    default_smcn_diagram,
    distinguish,
    homp_refine,
    scl_refine,
    smcn_refine,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
