"""Polygon construction, clipping and area on Fraction vertices, kept as
oracles.

The library validates, clips and measures polygons on reduced integer
vertex triples (toricsym.geometry). This module is the route it replaced:
every cross product, edge direction, offset and crossing point is computed
on the Fraction coordinates themselves, and the shoelace area is one running
Fraction sum. The tests compare the two routes polygon for polygon, error
class for error class and message for message.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from toricsym.errors import (
    CollinearTriple, NotConvex, OriginNotInterior, RedundantHalfspace,
    Unbounded,
)
from toricsym.geometry import (
    Edge, Point, RationalPolygon, _angular_cmp, cross, dot, format_point,
    format_rational, primitive, pt,
)


def triples(points: Sequence[Point]) -> tuple[tuple[int, int, int], ...]:
    """Each vertex (x, y) as (X, Y, D) with (x, y) = (X, Y)/D and D the lcm
    of the vertex's own two denominators."""
    out = []
    for x, y in points:
        dx, dy = x.denominator, y.denominator
        d = dx // gcd(dx, dy) * dy
        out.append((x.numerator * (d // dx), y.numerator * (d // dy), d))
    return tuple(out)


def area(points: Sequence[Point]) -> Fraction:
    """The signed shoelace area, summed left to right in Fractions."""
    s = Fraction(0)
    for i in range(len(points)):
        s += cross(points[i], points[(i + 1) % len(points)])
    return s / 2


def build(points: Iterable[Sequence],
          allow_boundary_origin: bool = False) -> RationalPolygon:
    """Validate a vertex cycle (any orientation) into a RationalPolygon."""
    points = [pt(p[0], p[1]) for p in points]
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
    upper = [d[1] > 0 or (d[1] == 0 and d[0] > 0) for d in dirs]
    winds = sum(upper[i] and not upper[i - 1] for i in range(n))
    if winds != 1:
        raise NotConvex(f"edge directions wind {winds} times around")
    k = min(range(n), key=lambda i: points[i])
    points = points[k:] + points[:k]
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
    return RationalPolygon(tuple(points), tuple(edges), triples(points))


def clip_halfplane(points: Sequence[Point], normal: Sequence) -> list[Point]:
    """Clip a ccw vertex cycle against { x : <x, normal> <= 0 }, inserting
    the points where edges cross the line through the origin."""
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


def polygon_from_halfspaces(
        halfspaces: Iterable[tuple[Sequence, object]]) -> RationalPolygon:
    """Intersect half-spaces { <x, n> + a <= 0 } into a polygon, with every
    vertex and every redundancy test in Fractions."""
    cleaned = []
    for n, a in halfspaces:
        nx, ny = Fraction(n[0]), Fraction(n[1])
        prim = primitive((nx, ny))
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
    verts = []
    for i in range(m):
        n1, n2 = normals[i], normals[(i + 1) % m]
        a1, a2 = seen[n1], seen[n2]
        det = cross(n1, n2)
        verts.append(((-a1 * n2[1] + a2 * n1[1]) / det,
                      (-a2 * n1[0] + a1 * n2[0]) / det))
    for i, v in enumerate(verts):
        for j in range(m):
            if j in (i, (i + 1) % m):
                continue
            if dot(v, normals[j]) + seen[normals[j]] >= 0:
                raise RedundantHalfspace(
                    f"half-space with normal {normals[j]} contributes no edge")
    return build(verts)
