"""The integer-triple geometry against the Fraction oracle.

toricsym.geometry validates vertex cycles, intersects half-spaces, clips and
measures on reduced int triples; tests/fraction_geometry.py keeps the route
on Fraction coordinates. On every input both must give an equal
RationalPolygon (triples included), or raise the same error class with the
same message: on the corpus and the generated polygons, their perturbed
copies, reversed and rotated vertex lists, random rational point lists that
reach every rejection of the vertex route (zero area, collinear triples,
reflex turns, winding 2, the origin outside or on the boundary) and random
half-space lists. Every chamber of every fold clips to the oracle's points.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, settings, strategies as st

import fraction_geometry as oracle
from test_closed_forms import FOLDS, gen, generated_polygons

from toricsym import geometry
from toricsym.catalog import corpus
from toricsym.errors import ToricSymError
from toricsym.geometry import (
    clip_halfplane, polygon_from_halfspaces, polygon_from_json,
    polygon_from_vertices, pt,
)
from toricsym.symmetry import chambers

F = Fraction


def outcome(build, *args):
    """The polygon that build returns, or the class and message it raises."""
    try:
        return build(*args)
    except ToricSymError as exc:
        return type(exc).__name__, str(exc)


def build(points, allow_boundary_origin):
    pts = [pt(x, y) for x, y in points]
    return geometry._build(pts, [geometry._triple(v) for v in pts],
                           allow_boundary_origin)


def assert_same_build(points):
    """Both routes agree on the cycle, strict and with the origin allowed
    on the boundary (the fundamental-region constructor); returns the
    strict outcome."""
    for allow in (False, True):
        got = outcome(build, points, allow)
        assert got == outcome(oracle.build, points, allow), points
    strict = outcome(polygon_from_vertices, points)
    assert strict == outcome(build, points, False)
    return strict


def rotations_and_reversals(vertices):
    vs = list(vertices)
    m = len(vs)
    for k in sorted({0, 1, m // 2, m - 1}):
        yield vs[k:] + vs[:k]
        yield (vs[k:] + vs[:k])[::-1]


def library_polygons():
    return list(corpus().values()) + [p for _, p in generated_polygons()]


def perturbed_polygons():
    out = []
    for family, shape in sorted(gen.MIRROR_SEEDS):
        inst = gen.generate(family, shape, gen.smallest_k(family, shape), 0)
        out.append(gen.perturbed(inst))
    return out


def test_polygons_build_as_the_oracle_builds_them():
    """Corpus, generated and perturbed polygons, each from four rotations
    of its vertex list in both orientations, and through the JSON parser."""
    cycles = [p.vertices for p in library_polygons()] + perturbed_polygons()
    for vertices in cycles:
        expected = oracle.build(vertices)
        assert expected.triples == oracle.triples(expected.vertices)
        for cycle in rotations_and_reversals(vertices):
            assert assert_same_build(cycle) == expected
        doc = expected.to_json()
        assert polygon_from_json(doc) == ("polygon", expected)


def test_area_is_the_oracle_shoelace_sum():
    """The area equals the running Fraction sum, and the tree sum returns
    a reduced pair: its levels reduce as they add, which keeps operands
    to the lcm of the denominators they cover."""
    for p in library_polygons():
        assert p.area() == oracle.area(p.vertices) > 0
        assert type(p.area()) is Fraction
        num, den = geometry._twice_area(p.triples)
        assert gcd(num, den) == 1 and den > 0


def test_halfspace_intersection_matches_the_oracle():
    for p in library_polygons():
        hs = p.halfspaces()
        assert polygon_from_halfspaces(hs) == p
        assert oracle.polygon_from_halfspaces(hs) == p
        # scaled normals, and rational normals with rescaled offsets
        scaled = [((3 * n[0], 3 * n[1]), 3 * a) for n, a in hs]
        halved = [((F(n[0], 2), F(n[1], 2)), a / 2) for n, a in hs]
        for variant in (scaled, halved, hs[::-1]):
            assert polygon_from_halfspaces(variant) == p


def test_every_chamber_clips_to_the_oracle_points():
    """For every fold of the corpus, the hand-picked shapes and the
    generated polygons, each chamber of the group: the clipped triples are
    the oracle's clipped points, and the chosen chamber's region is the
    oracle's polygon on them, with the oracle's area."""
    for p, group in FOLDS:
        for etas in chambers(group):
            triples, points = p.triples, p.vertices
            for eta in etas:
                triples = clip_halfplane(triples, eta)
                points = oracle.clip_halfplane(points, eta)
            assert triples == list(oracle.triples(points)), etas
            region = geometry._region_polygon(triples)
            assert region == oracle.build(points, allow_boundary_origin=True)
            assert region.area() == oracle.area(points)


# ---------------------------------------------------------------------------
# random rational point lists and half-space lists

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
points = st.tuples(small, small)


def circle_point(t):
    return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


@st.composite
def vertex_lists(draw):
    """A point list that is one of: random points; a convex cycle on a
    rational circle around the origin, in either orientation, with a
    midpoint inserted (a collinear triple), a vertex pulled in (a reflex
    turn), the cycle run twice (winding 2), a shift that puts the origin
    outside, on a vertex or on an edge, a projection onto a line (zero
    area), or none of these."""
    if draw(st.booleans()):
        return draw(st.lists(points, max_size=7))
    # the parameters -3, 0 and 1 leave every angular gap below a half turn
    ts = draw(st.sets(st.fractions(min_value=-6, max_value=6,
                                   max_denominator=4), max_size=5))
    ts |= {F(-3), F(0), F(1)}
    scale = draw(st.fractions(min_value=F(1, 2), max_value=3,
                              max_denominator=3))
    vs = [(scale * x, scale * y) for x, y in map(circle_point, sorted(ts))]
    m = len(vs)
    change = draw(st.sampled_from(
        ["none", "midpoint", "reflex", "winding", "shift", "flat"]))
    if change == "midpoint":
        i = draw(st.integers(0, m - 1))
        a, b = vs[i], vs[(i + 1) % m]
        vs.insert(i + 1, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    elif change == "reflex":
        i = draw(st.integers(0, m - 1))
        a, b = vs[i - 1], vs[(i + 1) % m]
        vs[i] = ((a[0] + b[0]) / 4, (a[1] + b[1]) / 4)
    elif change == "winding":
        vs = vs * 2
    elif change == "flat":
        vs = [(x, x) for x, _ in vs]
    elif change == "shift":
        i = draw(st.integers(0, m - 1))
        a, b = vs[i], vs[(i + 1) % m]
        c = draw(st.sampled_from([a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2),
                                  (2 * a[0], 2 * a[1])]))
        vs = [(x - c[0], y - c[1]) for x, y in vs]
    if draw(st.booleans()):
        vs.reverse()
    k = draw(st.integers(0, len(vs) - 1))
    return vs[k:] + vs[:k]


OUTCOMES = ("at least 3", "zero area", "collinear", "reflex", "wind",
            "origin")


def label(got):
    if not isinstance(got, tuple):
        return "polygon"
    return next(k for k in OUTCOMES if k in got[1])


@settings(max_examples=400, deadline=None)
@given(vertex_lists())
def test_random_vertex_lists_match_the_oracle(vs):
    event(label(assert_same_build(vs)))


def test_the_random_vertex_lists_reach_every_rejection():
    """One input per outcome the property's strategy aims at, so each
    message is compared even on a run that draws none of them."""
    square = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    cases = [
        square[:2],
        [(0, 0), (1, 1), (2, 2)],
        square[:2] + [(1, 0)] + square[2:],
        square[:2] + [(0, 0)] + square[2:],
        square * 2,
        [(x + 2, y) for x, y in square],
    ]
    assert [label(assert_same_build(vs)) for vs in cases] == list(OUTCOMES)
    # the origin on an edge and at a vertex: rejected unless allowed
    for vs in ([(x + 1, y) for x, y in square],
               [(x + 1, y + 1) for x, y in square]):
        assert label(assert_same_build(vs)) == "origin"
        assert label(build(vs, True)) == "polygon"


normals = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def halfspace_lists(draw):
    """Random half-spaces, or nonzero normals around (1, 0), (0, 1) and
    (-1, -1), which bound every such list, with negative offsets: one for
    all of them, so that many lists make a polygon, or one each."""
    if draw(st.booleans()):
        offset = st.fractions(min_value=-5, max_value=1, max_denominator=4)
        return draw(st.lists(st.tuples(normals, offset), max_size=8))
    ns = draw(st.lists(normals.filter(any), max_size=6, unique=True))
    ns = list(dict.fromkeys(ns + [(1, 0), (0, 1), (-1, -1)]))
    offset = st.fractions(min_value=-4, max_value=F(-1, 4), max_denominator=4)
    if draw(st.booleans()):
        offsets = [draw(offset)] * len(ns)
    else:
        offsets = draw(st.lists(offset, min_size=len(ns), max_size=len(ns)))
    return list(zip(ns, offsets))


@settings(max_examples=400, deadline=None)
@given(halfspace_lists())
def test_random_halfspace_lists_match_the_oracle(hs):
    got = outcome(polygon_from_halfspaces, hs)
    assert got == outcome(oracle.polygon_from_halfspaces, hs)
    event(got[0] if isinstance(got, tuple) else "polygon")


@pytest.mark.parametrize("halfspaces", [
    [((0, 0), -1), ((0, 1), -1), ((1, 0), -1)],
    [((1, 0), 1), ((-1, 1), -1), ((-1, -1), -1)],
    [((1, 0), 0), ((-1, 1), -1), ((-1, -1), -1)],
    [((1, 0), -1), ((0, 1), -1)],
    [((1, 0), -1), ((2, 0), -1), ((-1, 1), -1), ((-1, -1), -1)],
    [((1, 0), -1), ((0, 1), -1), ((1, 1), -1)],
    [((1, 0), -1), ((0, 1), -1), ((-1, 0), -1), ((0, -1), -1),
     ((1, 1), -3)],
    [((F(1, 2), F(3, 4)), F(-1, 3)), ((-1, 0), -2), ((0, -1), -1)],
])
def test_each_halfspace_rejection_matches_the_oracle(halfspaces):
    assert (outcome(polygon_from_halfspaces, halfspaces)
            == outcome(oracle.polygon_from_halfspaces, halfspaces))
