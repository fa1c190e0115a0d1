"""Rational convex polygons with the origin inside.

A polygon is stored as a counterclockwise vertex cycle together with its
edges; every edge carries the primitive integer outward normal n and the
rational offset a for which the polygon is { x : <x, n> + a <= 0 }. Offsets
are negative exactly because the origin is interior. Construction from
vertices and from half-spaces are mutual inverses on valid data.

Each vertex is stored twice: as the Fraction pair (x, y) it was given or
computed as, and as the reduced int triple (X, Y, D) with (x, y) = (X, Y)/D,
D > 0 and gcd(X, Y, D) = 1, so that D is the lcm of the vertex's own two
denominators. Every predicate is the sign of an integer expression in the
triples: orientation, turns, winding, the side of a line, redundancy. An
edge direction is the vertex difference times D_i * D_{i+1} > 0, which
keeps its turn signs, its winding and its primitive normal. A Fraction is
built only as a result: an edge offset, a vertex computed as a triple, and
the area, a balanced-tree sum of the shoelace terms whose operands stay of
like size, where a running sum would carry the lcm of every denominator.

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
Triple = tuple[int, int, int]  # (X, Y, D): the point (X, Y)/D, reduced


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


def _triple(v: Point) -> Triple:
    """The reduced triple of a point with Fraction coordinates."""
    x, y = v
    dx, dy = x.denominator, y.denominator
    d = dx // gcd(dx, dy) * dy
    return (x.numerator * (d // dx), y.numerator * (d // dy), d)


def _reduced(x: int, y: int, d: int) -> Triple:
    """The reduced triple of the point (x, y)/d, for any int d != 0."""
    g = gcd(x, y, d)
    if d < 0:
        g = -g
    return (x // g, y // g, d // g)


def _point(t: Triple) -> Point:
    return (Fraction(t[0], t[2]), Fraction(t[1], t[2]))


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The reduced sum of two reduced fractions (num, den), den > 0, whose
    gcds take operands no larger than the denominators (Knuth, TAOCP
    vol. 2, 4.5.1)."""
    (na, da), (nb, db) = a, b
    g = gcd(da, db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return (t // g2, s * (db // g2))


def _twice_area(triples: Sequence[Triple]) -> tuple[int, int]:
    """Twice the signed area of a vertex cycle as a reduced (num, den): the
    shoelace terms det(v_i, v_{i+1}) added pairwise, level by level."""
    terms = []
    for (x1, y1, d1), (x2, y2, d2) in zip(triples, triples[1:] + triples[:1]):
        num, den = x1 * y2 - x2 * y1, d1 * d2
        g = gcd(num, den)
        terms.append((num // g, den // g))
    while len(terms) > 1:
        paired = [_add(terms[k], terms[k + 1])
                  for k in range(0, len(terms) - 1, 2)]
        terms = paired + terms[len(paired) * 2:]
    return terms[0]


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
    triples: tuple[Triple, ...]  # vertices[i] == (X, Y)/D for triples[i]

    @property
    def m(self) -> int:
        return len(self.edges)

    def normals(self) -> tuple[IntVec, ...]:
        return tuple(e.normal for e in self.edges)

    def halfspaces(self) -> tuple[tuple[IntVec, Rat], ...]:
        return tuple((e.normal, e.offset) for e in self.edges)

    def area(self) -> Rat:
        num, den = _twice_area(self.triples)
        return Fraction(num, 2 * den)

    def to_json(self, name: str = "polygon") -> dict:
        return {
            "name": name,
            "vertices": [
                [format_rational(x), format_rational(y)]
                for (x, y) in self.vertices
            ],
        }


def _build(points: list[Point], triples: list[Triple],
           allow_boundary_origin: bool) -> RationalPolygon:
    """Validate a vertex cycle, given both as points and as their reduced
    triples, into a RationalPolygon; the points become its vertices as they
    are."""
    n = len(points)
    if n < 3:
        raise NotConvex("need at least 3 vertices")
    area2 = _twice_area(triples)[0]
    if area2 == 0:
        raise NotConvex("vertex cycle has zero area")
    if area2 < 0:
        points = [points[0]] + points[1:][::-1]
        triples = [triples[0]] + triples[1:][::-1]
    # the direction of edge i times D_i * D_{i+1} > 0
    dirs = [(x2 * d1 - x1 * d2, y2 * d1 - y1 * d2)
            for (x1, y1, d1), (x2, y2, d2)
            in zip(triples, triples[1:] + triples[:1])]
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
    k = min(range(n), key=points.__getitem__)
    points, triples = points[k:] + points[:k], triples[k:] + triples[:k]
    dirs = dirs[k:] + dirs[:k]
    edges = []
    for i in range(n):
        dx, dy = dirs[i]
        g = gcd(dx, dy)
        normal = (dy // g, -(dx // g))
        # the offset is -<(X, Y), normal> / D, and D > 0
        s = dot(triples[i], normal)
        if s < 0 or (s == 0 and not allow_boundary_origin):
            raise OriginNotInterior(
                "the origin must lie strictly inside the polygon")
        edges.append(Edge(points[i], points[(i + 1) % n], normal,
                          Fraction(-s, triples[i][2])))
    return RationalPolygon(tuple(points), tuple(edges), tuple(triples))


def polygon_from_vertices(points: Iterable[Sequence]) -> RationalPolygon:
    """Validate a vertex cycle (any orientation) into a RationalPolygon.

    Raises NotConvex, CollinearTriple or OriginNotInterior.
    """
    pts = [pt(p[0], p[1]) for p in points]
    return _build(pts, [_triple(v) for v in pts], allow_boundary_origin=False)


def _region_polygon(triples: Sequence[Triple]) -> RationalPolygon:
    # Internal constructor for fundamental regions, whose mirror edges pass
    # through the origin (offset 0). Everything else stays strict.
    return _build([_point(t) for t in triples], list(triples),
                  allow_boundary_origin=True)


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
    cleaned: list[tuple[IntVec, Fraction]] = []
    for n, a in halfspaces:
        x, y, den = _triple((Fraction(n[0]), Fraction(n[1])))
        g = gcd(x, y)
        if g == 0:
            raise ZeroVector("cannot primitivize (0, 0)")
        prim = (x // g, y // g)
        # n = (g / den) * prim, so the offset a becomes a * den / g
        a = Fraction(a)
        offset = Fraction(a.numerator * den, a.denominator * g)
        if offset.numerator >= 0:
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
    # each line <x, n> + p/q = 0 as the int row (n_x, n_y, p, q), q > 0
    rows = [(*n, seen[n].numerator, seen[n].denominator) for n in normals]
    triples: list[Triple] = []
    for i in range(m):
        (u1, w1, p1, q1), (u2, w2, p2, q2) = rows[i], rows[(i + 1) % m]
        # Cramer's rule times q1 * q2 > 0; the determinant is positive
        triples.append(_reduced(p2 * q1 * w1 - p1 * q2 * w2,
                                p1 * q2 * u2 - p2 * q1 * u1,
                                q1 * q2 * (u1 * w2 - w1 * u2)))
    for i, (x, y, d) in enumerate(triples):
        for j, (u, w, p, q) in enumerate(rows):
            if j in (i, (i + 1) % m):
                continue
            # <(x, y)/d, n_j> + p/q >= 0, times d * q > 0
            if (x * u + y * w) * q + p * d >= 0:
                raise RedundantHalfspace(
                    f"half-space with normal {normals[j]} contributes no edge")
    poly = _build([_point(t) for t in triples], triples,
                  allow_boundary_origin=False)
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
        return name, _build(points, [_triple(v) for v in points],
                            allow_boundary_origin=False)
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


def clip_halfplane(triples: Sequence[Triple], normal: Sequence[int],
                   ) -> list[Triple]:
    """Clip a ccw cycle of reduced vertex triples against
    { x : <x, normal> <= 0 }.

    A vertex's side is the sign of S = <(X, Y), normal>, as D > 0. An edge
    whose ends lie strictly on both sides crosses the line at the reduced
    triple (S1 (X2, Y2) - S2 (X1, Y1), S1 D2 - S2 D1), which is inserted;
    the new cycle has no repeated consecutive point.
    """
    out: list[Triple] = []
    n = len(triples)
    vals = [dot(t, normal) for t in triples]
    for i in range(n):
        t1, t2 = triples[i], triples[(i + 1) % n]
        s1, s2 = vals[i], vals[(i + 1) % n]
        if s1 <= 0:
            out.append(t1)
        if (s1 < 0 < s2) or (s2 < 0 < s1):
            (x1, y1, d1), (x2, y2, d2) = t1, t2
            out.append(_reduced(s1 * x2 - s2 * x1, s1 * y2 - s2 * y1,
                                s1 * d2 - s2 * d1))
    dedup: list[Triple] = []
    for q in out:
        if not dedup or q != dedup[-1]:
            dedup.append(q)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup
