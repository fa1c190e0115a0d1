"""Exact rational cohomology of toric surfaces with reflection symmetry.

The package builds projective toric surfaces from rational convex polygons,
presents their rational cohomology rings by generators and relations, and
certifies that folding a polygon by a mirror or a dihedral group induces an
isomorphism onto the invariant subring. Everything runs over Fraction; there
are no floats and no randomness anywhere.
"""

from .catalog import (
    BUILTINS, builtin, circle_polygon, corpus, d12_polytope, g2_polytope,
    hexagon, house_pentagon, ninegon, square,
)
from .cohomology import (
    CohomologyRing, cohomology_ring, invariant_deg2, orbit_sums, ring_action,
)
from .errors import (
    CaseMismatch, DegenerateOffsets, NotASymmetry, ToricSymError,
)
from .geometry import (
    RationalPolygon, format_rational, parse_rational, polygon_from_halfspaces,
    polygon_from_json, polygon_from_vertices,
)
from .rootsystems import (
    CoeffTable, RootSystem, default_offsets, g2_golden_table, golden_table,
    root_system, weight_polytope,
)
from .symmetry import (
    DihedralGroup, FundamentalRegion, Reflection, detect_reflections,
    dihedral_coefficients, dihedral_group, fundamental_region,
)
from .theorem import (
    RingMap, VerificationReport, build_dihedral_map, check_image_invariant,
    check_isomorphism, check_well_defined, verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTINS", "CaseMismatch", "CoeffTable", "CohomologyRing",
    "DegenerateOffsets", "DihedralGroup",
    "FundamentalRegion", "NotASymmetry", "RationalPolygon", "Reflection",
    "RingMap", "RootSystem", "ToricSymError", "VerificationReport",
    "build_dihedral_map", "builtin",
    "check_image_invariant", "check_isomorphism", "check_well_defined",
    "circle_polygon", "cohomology_ring", "corpus", "d12_polytope",
    "default_offsets", "detect_reflections", "dihedral_coefficients",
    "dihedral_group", "format_rational", "fundamental_region",
    "g2_golden_table", "g2_polytope", "golden_table", "hexagon",
    "house_pentagon", "invariant_deg2", "ninegon", "orbit_sums",
    "parse_rational", "polygon_from_halfspaces", "polygon_from_json",
    "polygon_from_vertices", "ring_action", "root_system",
    "square", "verify_theorem", "weight_polytope",
]
