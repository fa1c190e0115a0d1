"""Rank-2 Weyl group data and the polygons it acts on.

Coordinates are fixed once and for all: polygon points carry coordinates in
the simple-root basis of the character plane, and edge normals carry
coordinates in the dual coweight basis, so that the pairing between a point
and a normal is the plain dot product of coordinate tuples. In these
coordinates the generator action on normals sends the j-th coordinate
covector to itself minus delta_ij times the i-th Cartan row, and the action
on points is the transpose. Both actions are Mat2, integer matrices given
row-major (see toricsym.symmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DegenerateOffsets, RedundantHalfspace, Unbounded
from .exactlin import Rat
from .geometry import RationalPolygon, format_point, polygon_from_halfspaces
from .symmetry import (
    IDENTITY, DihedralGroup, FundamentalRegion, Mat2, Reflection,
    dihedral_coefficients, dihedral_group, fundamental_region, mul,
)

# Cartan matrices, rows = simple coroots in the dual coweight basis. The
# off-diagonal split (which root is long) follows the classical labelling
# where the rotation s1*s2 has order 3, 4, 4, 6.
CARTAN = {
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "C2": ((2, -2), (-1, 2)),
    "G2": ((2, -3), (-1, 2)),
}

ROTATION_ORDER = {"A2": 3, "B2": 4, "C2": 4, "G2": 6}


@dataclass(frozen=True)
class RootSystem:
    tag: str
    cartan: tuple[tuple[int, int], tuple[int, int]]
    normal_action: tuple[Mat2, Mat2]  # generators on normal coords
    point_action: tuple[Mat2, Mat2]   # transposes, on point coords

    @property
    def rotation_order(self) -> int:
        return ROTATION_ORDER[self.tag]

    def reflection(self, i: int) -> Reflection:
        return Reflection.from_matrix(self.point_action[i - 1])

    def weyl_group(self) -> DihedralGroup:
        return dihedral_group(self.reflection(1), self.reflection(2))


def root_system(tag: str) -> RootSystem:
    """The rank-2 system named by tag, one of A2, B2, C2, G2.

    The reducible rank-2 type is excluded: its group fixes no wedge with a
    two-dimensional polygon orbit space of the shape handled here.
    """
    if tag not in CARTAN:
        raise ValueError(f"unknown root system {tag!r}; pick one of "
                         + ", ".join(sorted(CARTAN)))
    cartan = (a, b), (c, d) = CARTAN[tag]
    # column j of generator i is e_j, less the i-th Cartan row when i == j
    n1, n2 = (1 - a, 0, -b, 1), (1, -c, 0, 1 - d)
    rs = RootSystem(tag, cartan, (n1, n2), tuple(
        (g[0], g[2], g[1], g[3]) for g in (n1, n2)))
    assert mul(n1, n1) == IDENTITY and mul(n2, n2) == IDENTITY
    rot = mul(n1, n2)
    power = IDENTITY
    for _ in range(ROTATION_ORDER[tag]):
        power = mul(power, rot)
    assert power == IDENTITY
    return rs


def normal_orbit(rs: RootSystem, start: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Orbit of a normal vector under the generator action, breadth-first
    from start so low word length comes first."""
    start = (int(start[0]), int(start[1]))
    seen = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for a, b, c, d in rs.normal_action:
                w = (a * v[0] + b * v[1], c * v[0] + d * v[1])
                if w not in seen:
                    seen.append(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(seen)


def normal_families(rs: RootSystem) -> tuple[tuple[tuple[int, int], ...],
                                             tuple[tuple[int, int], ...]]:
    """The two facet-normal orbits of the invariant polygons.

    Family 0 is the orbit of (0, 1) and supports the edge met by the first
    mirror ray; family 1 is the orbit of (1, 0). Each has size equal to the
    rotation order.
    """
    fam0 = normal_orbit(rs, (0, 1))
    fam1 = normal_orbit(rs, (1, 0))
    assert len(fam0) == len(fam1) == rs.rotation_order
    return fam0, fam1


def dominant_point(rs: RootSystem) -> tuple[Rat, Rat]:
    """The point pairing to 1 with both simple coroots (strictly inside the
    wedge cut by the two mirrors)."""
    (a, b), (c, d) = rs.cartan
    det = Fraction(a * d - b * c)
    return (Fraction(d - b, 1) / det, Fraction(a - c, 1) / det)


def default_offsets(rs: RootSystem) -> tuple[Rat, Rat]:
    """Per-family offsets that make every half-space supporting: the support
    values of the orbit of the level-1 dominant point."""
    p = dominant_point(rs)
    return (-p[1], -p[0])


OffsetSpec = Union[None, int, Fraction, tuple]


def weight_polytope(rs: RootSystem, offsets: OffsetSpec = None) -> RationalPolygon:
    """Group-invariant polygon cut by the two normal families.

    offsets: None picks the per-type defaults; a single negative rational
    applies uniformly; a pair applies per family (family 0 first). Offsets
    are constant on each family, which is exactly the invariance condition.
    Raises DegenerateOffsets when some half-space contributes no edge, which
    happens for legal-looking uniform choices on the unequal-length types.
    """
    if offsets is None:
        pair = default_offsets(rs)
    elif isinstance(offsets, tuple):
        pair = (Fraction(offsets[0]), Fraction(offsets[1]))
    else:
        pair = (Fraction(offsets), Fraction(offsets))
    if pair[0] >= 0 or pair[1] >= 0:
        raise DegenerateOffsets("offsets must be negative")
    fam0, fam1 = normal_families(rs)
    halfspaces = [(n, pair[0]) for n in fam0] + [(n, pair[1]) for n in fam1]
    try:
        poly = polygon_from_halfspaces(halfspaces)
    except (RedundantHalfspace, Unbounded) as exc:
        raise DegenerateOffsets(
            f"offsets {format_point(pair)} leave a half-space without an "
            f"edge: {exc}") from exc
    assert poly.m == 2 * rs.rotation_order
    return poly


@dataclass(frozen=True)
class CoeffTable:
    """Mirror-normal expansion coefficients of the normal jumps along the
    two orbit families of a wedge's boundary edges.

    rows_first / rows_second: one (word_name, c, d) triple per summand in
    the first and last slot, where the jump of the edge normal under the
    group element equals c times the first mirror normal plus d times the
    second.
    """

    region: FundamentalRegion
    rows_first: tuple[tuple[str, int, int], ...]
    rows_second: tuple[tuple[str, int, int], ...]


def golden_table(rs: RootSystem,
                 offsets: OffsetSpec = None) -> CoeffTable:
    """Run the full wedge pipeline on the invariant polygon and tabulate the
    expansion coefficients for the first and last slots."""
    poly = weight_polytope(rs, offsets)
    group = rs.weyl_group()
    fr = fundamental_region(poly, group, chamber_hint=dominant_point(rs))
    table = dihedral_coefficients(fr)

    def rows(slot):
        return tuple((u.name, table.c[(u.word, slot)], table.d[(u.word, slot)])
                     for u in table.sets[slot])

    return CoeffTable(fr, rows(min(fr.slots)), rows(max(fr.slots)))


def g2_golden_table() -> CoeffTable:
    return golden_table(root_system("G2"))


# Reference values for the G2 table, used by the demo command to diff its
# freshly computed rows. Each triple is (word, c, d).
G2_EXPECTED_FIRST = (
    ("id", 0, 0), ("s2", 0, 1), ("s1s2", 1, 1),
    ("s2s1s2", 1, 3), ("s1s2s1s2", 2, 3), ("s2s1s2s1s2", 2, 4))
G2_EXPECTED_SECOND = (
    ("id", 0, 0), ("s1", 1, 0), ("s2s1", 1, 3),
    ("s1s2s1", 3, 3), ("s2s1s2s1", 3, 6), ("s1s2s1s2s1", 4, 6))
