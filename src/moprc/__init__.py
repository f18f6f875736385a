"""Maximal outerplanar graphs: construction, cut spines, and rainbow
connectivity.

The package builds MOPs from construction orders or edge lists,
measures them (including a linear-time eccentricity scheme), extracts
central cut spines, colors edges so every vertex pair gets a rainbow
path within 3 * radius colors, and verifies everything against
brute-force oracles and exact searches.
"""

__version__ = "0.1.0"

from .coloring import ColoringStats, rainbow_coloring
from .core import (
    CanonicalMop,
    EdgeColoring,
    Graph,
    MopGraph,
    ValidationReport,
    edge,
    from_canonical,
    hamiltonian_cycle,
    hamiltonian_degree_sequence,
    mop_from_edges,
    to_canonical,
    triangles,
    validate_mop,
)
from .errors import (
    DomainError,
    FormatError,
    InvalidAttachment,
    MoprcError,
    NotACut,
    NotChordal,
    NotMop,
    ScaleLimit,
)
from .files import (
    parse_coloring,
    parse_mop,
    spine_to_dot,
    to_dot,
    write_coloring,
    write_mop,
)
from .generators import FamilyInstance, fan, fan_coloring, lad, lad_plus, random_mop, random_mop_graph
from .metrics import (
    DistanceTable,
    EccentricitySummary,
    bfs,
    ecc_diam_rad_center,
    eta,
    layers,
    linear_eccentricities,
)
from .spine import (
    CutSpine,
    SpineNode,
    build_ccs,
    chordal_peo,
    maximal_fans,
    mcs,
    realize_paths,
)
from .verify import (
    ExactResult,
    VerifyResult,
    disjoint_cut_property,
    enumerate_small_edge_cuts,
    exact_rc,
    exact_src,
    is_rainbow_connected,
    is_strong_rainbow_connected,
    rainbow_witness,
)

__all__ = [
    "CanonicalMop",
    "ColoringStats",
    "CutSpine",
    "DistanceTable",
    "DomainError",
    "EccentricitySummary",
    "EdgeColoring",
    "ExactResult",
    "FamilyInstance",
    "FormatError",
    "Graph",
    "InvalidAttachment",
    "MopGraph",
    "MoprcError",
    "NotACut",
    "NotChordal",
    "NotMop",
    "ScaleLimit",
    "SpineNode",
    "ValidationReport",
    "VerifyResult",
    "bfs",
    "build_ccs",
    "chordal_peo",
    "disjoint_cut_property",
    "ecc_diam_rad_center",
    "edge",
    "enumerate_small_edge_cuts",
    "eta",
    "exact_rc",
    "exact_src",
    "fan",
    "fan_coloring",
    "from_canonical",
    "hamiltonian_cycle",
    "hamiltonian_degree_sequence",
    "is_rainbow_connected",
    "is_strong_rainbow_connected",
    "lad",
    "lad_plus",
    "layers",
    "linear_eccentricities",
    "maximal_fans",
    "mcs",
    "mop_from_edges",
    "parse_coloring",
    "parse_mop",
    "rainbow_coloring",
    "rainbow_witness",
    "random_mop",
    "random_mop_graph",
    "realize_paths",
    "spine_to_dot",
    "to_canonical",
    "to_dot",
    "triangles",
    "validate_mop",
    "write_coloring",
    "write_mop",
]
