"""Homomorphism complexes of directed graphs.

The package computes the polyhedral complex of multihomomorphisms between
two digraphs and the machinery around it: neighborhood complexes, integral
homology, discrete Morse matchings, foldings and homotopy relations,
reconfiguration, and a collection of standard constructions (tournaments,
Mycielskians, sphere-building tournaments).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    DihomError,
    Disconnected,
    EmptyComplex,
    EmptyHom,
    FaceNotInComplex,
    HasLoop,
    InvalidFold,
    InvalidMatching,
    InvalidRange,
    InvalidSize,
    InvalidVariant,
    InvalidVertex,
    MalformedPartition,
    NotAcyclic,
    NotAHomomorphism,
    ParseError,
    ShapeMismatch,
    SizeCapExceeded,
)
from .digraph import (
    DEFAULT_CAP,
    MAX_VERTICES,
    Digraph,
    VertexMap,
    contains_bipartite,
    coproduct,
    enumerate_homomorphisms,
    exponential,
    exponential_maps,
    has_homomorphism,
    induced_subgraph,
    is_homomorphism,
    looped_part,
    product,
    quotient,
    underlying_symmetrization,
)
from .constructions import (
    automorphism_group_order,
    canonical_form,
    canonical_key,
    complete_bipartite_digraph,
    digraph_from_key,
    directed_cycle,
    directed_path,
    enumerate_tournaments,
    homotopy_witness_pair,
    interval_bidirected,
    interval_directed_looped,
    is_isomorphic,
    line_digraph,
    mycielskian,
    sphere_tournament,
    transitive_tournament,
)
from .complexes import (
    Poset,
    SimplicialComplex,
    directed_clique_complex,
    empty_complex,
    face_poset,
    full_simplex,
    in_neighborhood_complex,
    order_complex,
    out_neighborhood_complex,
    poset_product,
    simplex_boundary,
    universality_graph,
    void_complex,
)
from .homology import (
    ChainComplex,
    HomologyGroups,
    LerayCertificate,
    homology_of_poset,
    is_n_leray,
    reduced_homology,
    smith_normal_form,
    sphere_homology,
)
from .homcomplex import (
    HomPoset,
    HomSkeleton,
    MultiHom,
    NuReduction,
    StaircaseCell,
    closure_nu,
    hom_one_skeleton,
    hom_poset,
    is_multihom,
    multihom_of_map,
    staircase_cells,
)
from .morse import (
    CollapseResult,
    Matching,
    collapse_free_pairs,
    is_acyclic_matching,
    random_discrete_morse,
    replay_collapses,
    tournament_matching,
)
from .homotopy import (
    HomotopyClasses,
    all_folds,
    bihomotopic,
    dihomotopic,
    find_fold,
    fold,
    homotopy_classes,
    is_dismantlable,
    is_stiff,
    line_homotopic,
    stiff_reduction,
)
from .reconfig import (
    diameter,
    is_connected_hom,
    meet_path,
    oriented_chromatic_number,
)
from .cli import emit_digraph, parse_digraph

import types as _types

__all__ = sorted(
    name
    for name, value in list(globals().items())
    if not name.startswith("_")
    and name != "annotations"
    and not isinstance(value, _types.ModuleType)
)
