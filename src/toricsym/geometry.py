"""Rational convex polygons with the origin inside.

A polygon is stored as a counterclockwise vertex cycle together with its
edges; every edge carries the primitive integer outward normal n and the
rational offset a for which the polygon is { x : <x, n> + a <= 0 }. Offsets
are negative exactly because the origin is interior. Construction from
vertices and from half-spaces are mutual inverses on valid data.

All arithmetic is exact. Vertex cycles are canonicalized (the
lexicographically smallest vertex comes first) so equal polygons compare
equal and edge indices are reproducible.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    CollinearTriple, NotConvex, OriginNotInterior, RedundantHalfspace,
    Unbounded, ZeroVector,
)
from .exactlin import Rat

Point = tuple[Rat, Rat]
IntVec = tuple[int, int]


def pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def cross(a: Sequence, b: Sequence) -> Rat:
    """det(a, b), in the entries' own type: an int for two integer vectors,
    such as edge normals. A caller that divides keeps a Fraction operand."""
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Sequence, b: Sequence) -> Rat:
    return a[0] * b[0] + a[1] * b[1]


def nonadjacent_pairs(m: int) -> list[tuple[int, int]]:
    """The pairs i < j of edges of an m-gon that share no vertex, in
    lexicographic order: 2 <= j - i <= m - 2. They index the quadratic
    generators x_i x_j of the Stanley-Reisner ideal of the normal fan."""
    return [(i, j) for i in range(m) for j in range(i + 2, min(m, i + m - 1))]


def primitive(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector to the primitive integer vector with
    the same direction."""
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise ZeroVector("cannot primitivize (0, 0)")
    q = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    a, b = int(x * q), int(y * q)
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)


RAT_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")


def parse_rational(value) -> Rat:
    """Strict JSON-side rational parser: int or "p/q" string, nothing else.

    Floats (and bools) are rejected so no reading of input can silently
    introduce rounding.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"floating point value {value!r} rejected: inputs must be exact "
            "rationals written as integers or 'p/q' strings")
    if isinstance(value, str):
        if not RAT_RE.match(value.strip()):
            raise ValueError(f"malformed rational string {value!r}")
        return Fraction(value.strip())
    raise ValueError(f"expected a rational, got {type(value).__name__}")


def format_rational(x: Rat) -> str:
    """x as "p" or "p/q", exact at any length: str(int) refuses more digits
    than sys.get_int_max_str_digits(), a limit that guards the parsing of
    input, while an integral Decimal is exact and prints every digit."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def format_point(v: Sequence) -> str:
    return f"({format_rational(v[0])}, {format_rational(v[1])})"


@dataclass(frozen=True)
class Edge:
    """One polygon edge: the ccw segment [tail, head] on the supporting line
    <x, normal> + offset = 0, with normal primitive and outward."""

    tail: Point
    head: Point
    normal: IntVec
    offset: Rat


@dataclass(frozen=True)
class RationalPolygon:
    vertices: tuple[Point, ...]
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def normals(self) -> tuple[IntVec, ...]:
        return tuple(e.normal for e in self.edges)

    def halfspaces(self) -> tuple[tuple[IntVec, Rat], ...]:
        return tuple((e.normal, e.offset) for e in self.edges)

    def area(self) -> Rat:
        s = Fraction(0)
        vs = self.vertices
        for i in range(len(vs)):
            s += cross(vs[i], vs[(i + 1) % len(vs)])
        return s / 2

    def to_json(self, name: str = "polygon") -> dict:
        return {
            "name": name,
            "vertices": [
                [format_rational(x), format_rational(y)]
                for (x, y) in self.vertices
            ],
        }


def _canonical_rotation(points: list[Point]) -> list[Point]:
    k = min(range(len(points)), key=lambda i: points[i])
    return points[k:] + points[:k]


def _build(points: list[Point], allow_boundary_origin: bool) -> RationalPolygon:
    n = len(points)
    if n < 3:
        raise NotConvex("need at least 3 vertices")
    area2 = sum(cross(points[i], points[(i + 1) % n]) for i in range(n))
    if area2 == 0:
        raise NotConvex("vertex cycle has zero area")
    if area2 < 0:
        points = [points[0]] + points[1:][::-1]
    dirs = [(points[(i + 1) % n][0] - points[i][0],
             points[(i + 1) % n][1] - points[i][1]) for i in range(n)]
    for i in range(n):
        turn = cross(dirs[i], dirs[(i + 1) % n])
        if turn == 0:
            a, b, c = points[i], points[(i + 1) % n], points[(i + 2) % n]
            raise CollinearTriple(
                f"vertices {format_point(a)}, {format_point(b)}, "
                f"{format_point(c)} are collinear")
        if turn < 0:
            raise NotConvex(
                f"reflex turn at vertex {format_point(points[(i + 1) % n])}")
    # every turn is a left turn of less than a half turn, so the edge
    # directions wind w >= 1 times around, and w counts the steps from the
    # lower half-plane back into the upper one
    upper = [d[1] > 0 or (d[1] == 0 and d[0] > 0) for d in dirs]
    winds = sum(upper[i] and not upper[i - 1] for i in range(n))
    if winds != 1:
        raise NotConvex(f"edge directions wind {winds} times around")
    points = _canonical_rotation(points)
    edges = []
    for i in range(n):
        tail, head = points[i], points[(i + 1) % n]
        d = (head[0] - tail[0], head[1] - tail[1])
        normal = primitive((d[1], -d[0]))
        offset = -dot(tail, normal)
        if offset > 0 or (offset == 0 and not allow_boundary_origin):
            raise OriginNotInterior(
                "the origin must lie strictly inside the polygon")
        edges.append(Edge(tail, head, normal, offset))
    return RationalPolygon(tuple(points), tuple(edges))


def polygon_from_vertices(points: Iterable[Sequence]) -> RationalPolygon:
    """Validate a vertex cycle (any orientation) into a RationalPolygon.

    Raises NotConvex, CollinearTriple or OriginNotInterior.
    """
    pts = [pt(p[0], p[1]) for p in points]
    return _build(pts, allow_boundary_origin=False)


def _region_polygon(points: Iterable[Sequence]) -> RationalPolygon:
    # Internal constructor for fundamental regions, whose mirror edges pass
    # through the origin (offset 0). Everything else stays strict.
    pts = [pt(p[0], p[1]) for p in points]
    return _build(pts, allow_boundary_origin=True)


def _angular_cmp(a: IntVec, b: IntVec) -> int:
    # counterclockwise from the positive x-axis; exact, no trig
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def polygon_from_halfspaces(
        halfspaces: Iterable[tuple[Sequence, object]]) -> RationalPolygon:
    """Intersect half-spaces { <x, n> + a <= 0 } into a polygon.

    Normals are primitivized (offsets rescaled to match), sorted by angle
    exactly, and every half-space must contribute an edge. Raises ZeroVector,
    OriginNotInterior, RedundantHalfspace or Unbounded.
    """
    cleaned: list[tuple[IntVec, Rat]] = []
    for n, a in halfspaces:
        nx, ny = Fraction(n[0]), Fraction(n[1])
        prim = primitive((nx, ny))
        # scale s with (nx, ny) = s * prim; s > 0 keeps the inequality
        s = nx / prim[0] if prim[0] != 0 else ny / prim[1]
        offset = Fraction(a) / s
        if offset >= 0:
            raise OriginNotInterior(
                f"half-space {prim} with offset {format_rational(offset)} "
                "excludes the origin from the interior")
        cleaned.append((prim, offset))
    if len(cleaned) < 3:
        raise Unbounded("fewer than 3 half-spaces cannot bound a polygon")
    seen = {}
    for prim, offset in cleaned:
        if prim in seen:
            raise RedundantHalfspace(f"duplicate normal direction {prim}")
        seen[prim] = offset
    normals = sorted(seen, key=functools.cmp_to_key(_angular_cmp))
    m = len(normals)
    for i in range(m):
        if cross(normals[i], normals[(i + 1) % m]) <= 0:
            raise Unbounded(
                f"normals {normals[i]} and {normals[(i + 1) % m]} leave an "
                "angular gap of at least a half turn")
    verts: list[Point] = []
    for i in range(m):
        n1, n2 = normals[i], normals[(i + 1) % m]
        a1, a2 = seen[n1], seen[n2]
        det = cross(n1, n2)
        x = (-a1 * n2[1] + a2 * n1[1]) / det
        y = (-a2 * n1[0] + a1 * n2[0]) / det
        verts.append((x, y))
    for i, v in enumerate(verts):
        for j in range(m):
            if j in (i, (i + 1) % m):
                continue
            if dot(v, normals[j]) + seen[normals[j]] >= 0:
                raise RedundantHalfspace(
                    f"half-space with normal {normals[j]} contributes no edge")
    poly = polygon_from_vertices(verts)
    assert set(poly.halfspaces()) == set(seen.items())
    return poly


def polygon_from_json(obj: dict) -> tuple[str, RationalPolygon]:
    """Parse the on-disk polygon format (vertex or half-space form)."""
    if not isinstance(obj, dict):
        raise ValueError("polygon JSON must be an object")
    name = obj.get("name", "polygon")
    if not isinstance(name, str):
        raise ValueError("polygon name must be a string")
    if "vertices" in obj and "halfspaces" in obj:
        raise ValueError("give either vertices or halfspaces, not both")
    if "vertices" in obj:
        raw = obj["vertices"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("vertices must be a non-empty list")
        points = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"vertex {entry!r} is not a coordinate pair")
            points.append((parse_rational(entry[0]), parse_rational(entry[1])))
        return name, polygon_from_vertices(points)
    if "halfspaces" in obj:
        raw = obj["halfspaces"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("halfspaces must be a non-empty list")
        hs = []
        for entry in raw:
            if not isinstance(entry, dict) or set(entry) != {"normal", "offset"}:
                raise ValueError(
                    f"half-space {entry!r} must have exactly the keys "
                    "'normal' and 'offset'")
            nraw = entry["normal"]
            if not isinstance(nraw, (list, tuple)) or len(nraw) != 2:
                raise ValueError(f"normal {nraw!r} is not a coordinate pair")
            n = (parse_rational(nraw[0]), parse_rational(nraw[1]))
            if n[0].denominator != 1 or n[1].denominator != 1:
                raise ValueError(f"normal {nraw!r} must have integer entries")
            hs.append(((int(n[0]), int(n[1])), parse_rational(entry["offset"])))
        return name, polygon_from_halfspaces(hs)
    raise ValueError("polygon JSON needs a 'vertices' or 'halfspaces' key")


def clip_halfplane(points: Sequence[Point], normal: Sequence,
                   ) -> list[Point]:
    """Clip a ccw vertex cycle against { x : <x, normal> <= 0 }.

    Returns the new cycle (possibly with duplicate-free boundary points
    inserted where edges cross the line through the origin).
    """
    out: list[Point] = []
    n = len(points)
    vals = [dot(q, normal) for q in points]
    for i in range(n):
        q1, q2 = points[i], points[(i + 1) % n]
        s1, s2 = vals[i], vals[(i + 1) % n]
        if s1 <= 0:
            out.append(q1)
        if (s1 < 0 < s2) or (s2 < 0 < s1):
            t = s1 / (s1 - s2)
            out.append((q1[0] + t * (q2[0] - q1[0]),
                        q1[1] + t * (q2[1] - q1[1])))
    dedup: list[Point] = []
    for q in out:
        if not dedup or q != dedup[-1]:
            dedup.append(q)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup
