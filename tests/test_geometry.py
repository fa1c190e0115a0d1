"""Polygon construction, half-space intersection and exact predicates.

The 12-gon expectation was derived with the brute-force vertex-enumeration
oracle below (intersect all line pairs, keep feasible points) before the
sorting-based constructor existed; the oracle stays here as the independent
route.
"""

import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricsym.errors import (
    CollinearTriple, NotConvex, OriginNotInterior, RedundantHalfspace,
    Unbounded, ZeroVector,
)
from ratmatrix import RatMatrix, apply_linear
from toricsym.geometry import (
    clip_halfplane, cross, dot, format_rational,
    nonadjacent_pairs, parse_rational, polygon_from_halfspaces,
    polygon_from_json, polygon_from_vertices, primitive, pt,
)

F = Fraction

SQUARE = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
PENTAGRAM = [(10, 0), (-8, 6), (3, -10), (3, 10), (-8, -6)]

# The twelve wall normals of the G2 weight polytope (two coweight orbits)
# and the family-constant offsets cutting the full 12-gon.
G2_NORMALS_W2 = [(0, 1), (1, -1), (-1, 2), (1, -2), (-1, 1), (0, -1)]
G2_NORMALS_W1 = [(1, 0), (-1, 3), (2, -3), (-2, 3), (1, -3), (-1, 0)]
G2_HALFSPACES = (
    [(n, F(-3)) for n in G2_NORMALS_W2] + [(n, F(-5)) for n in G2_NORMALS_W1])


def brute_force_vertices(halfspaces):
    """Independent oracle: intersect every pair of support lines and keep
    the points satisfying all constraints."""
    verts = set()
    for (n1, a1), (n2, a2) in combinations(halfspaces, 2):
        det = cross(n1, n2)
        if det == 0:
            continue
        x = (-a1 * n2[1] + a2 * n1[1]) / det
        y = (-a2 * n1[0] + a1 * n2[0]) / det
        if all(dot((x, y), n) + a <= 0 for n, a in halfspaces):
            verts.add((x, y))
    return verts


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((F(1, 2), F(3, 4))) == (2, 3)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_square_from_vertices():
    p = polygon_from_vertices(SQUARE)
    assert p.vertices == (pt(-1, -1), pt(1, -1), pt(1, 1), pt(-1, 1))
    assert p.normals() == ((0, -1), (1, 0), (0, 1), (-1, 0))
    assert tuple(e.offset for e in p.edges) == (F(-1),) * 4
    assert p.area() == 4


def test_orientation_and_rotation_normalized():
    clockwise = polygon_from_vertices(SQUARE[::-1])
    rotated = polygon_from_vertices(SQUARE[2:] + SQUARE[:2])
    canonical = polygon_from_vertices(SQUARE)
    assert clockwise == canonical == rotated


def test_triangle_normals():
    p = polygon_from_vertices([(2, -1), (-1, 2), (-1, -1)])
    assert p.vertices[0] == pt(-1, -1)
    assert p.normals() == ((0, -1), (1, 1), (-1, 0))
    assert tuple(e.offset for e in p.edges) == (F(-1), F(-1), F(-1))
    assert p.area() == F(9, 2)


def test_vertex_validation_errors():
    with pytest.raises(CollinearTriple):
        polygon_from_vertices([(-1, -1), (0, -1), (1, -1), (0, 1)])
    with pytest.raises(NotConvex):
        polygon_from_vertices([(-2, -2), (2, -2), (0, 0), (2, 2), (-2, 2)])
    with pytest.raises(OriginNotInterior):
        polygon_from_vertices([(1, 1), (3, 1), (3, 3), (1, 3)])
    with pytest.raises(OriginNotInterior):
        # origin on the boundary is rejected by the public constructor
        polygon_from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    with pytest.raises(NotConvex):
        polygon_from_vertices([(0, 1), (1, 0)])
    # every local turn is a left turn, but the boundary winds twice
    with pytest.raises(NotConvex):
        polygon_from_vertices(PENTAGRAM)
    with pytest.raises(NotConvex):
        polygon_from_vertices(SQUARE * 2)


def test_halfspace_roundtrip_square():
    p = polygon_from_vertices(SQUARE)
    assert polygon_from_halfspaces(p.halfspaces()) == p
    # non-primitive input normalizes to the same polygon
    scaled = [((2, 0), -2), ((0, 3), -3), ((-4, 0), -4), ((0, -5), -5)]
    assert polygon_from_halfspaces(scaled) == p


def test_halfspace_errors():
    square_hs = polygon_from_vertices(SQUARE).halfspaces()
    with pytest.raises(RedundantHalfspace):
        polygon_from_halfspaces(list(square_hs) + [((2, 0), F(-4))])
    with pytest.raises(RedundantHalfspace):
        polygon_from_halfspaces(list(square_hs) + [((1, 1), F(-5))])
    with pytest.raises(Unbounded):
        polygon_from_halfspaces([((1, 0), -1), ((0, 1), -1), ((1, 1), -1)])
    with pytest.raises(Unbounded):
        polygon_from_halfspaces([((1, 0), -1), ((-1, 0), -1), ((0, 1), -1)])
    with pytest.raises(Unbounded):
        polygon_from_halfspaces([((1, 0), -1), ((0, 1), -1)])
    with pytest.raises(ZeroVector):
        polygon_from_halfspaces([((0, 0), -1), ((0, 1), -1), ((1, 0), -1)])
    with pytest.raises(OriginNotInterior):
        polygon_from_halfspaces([((1, 0), 1), ((-1, 1), -1), ((-1, -1), -1)])


def test_g2_walls_cut_a_12gon():
    oracle = brute_force_vertices(G2_HALFSPACES)
    assert len(oracle) == 12
    p = polygon_from_halfspaces(G2_HALFSPACES)
    assert p.m == 12
    assert set(p.vertices) == oracle
    assert set(p.normals()) == set(G2_NORMALS_W1) | set(G2_NORMALS_W2)
    # dominant corner of the two fundamental walls, from the oracle run
    assert pt(5, 3) in oracle


def test_g2_walls_uniform_offsets_degenerate():
    # with both families at -1 the short-normal family loses all edges
    uniform = [(n, F(-1)) for n in G2_NORMALS_W2 + G2_NORMALS_W1]
    oracle = brute_force_vertices(uniform)
    assert len(oracle) == 6
    with pytest.raises(RedundantHalfspace):
        polygon_from_halfspaces(uniform)


def shares_vertex(p, i, j):
    """Whether distinct edges i and j of p have a common endpoint."""
    a, b = p.edges[i], p.edges[j]
    return i != j and bool({a.tail, a.head} & {b.tail, b.head})


def test_adjacency():
    p = polygon_from_vertices(SQUARE)
    assert shares_vertex(p, 0, 1) and shares_vertex(p, 3, 0)
    assert not shares_vertex(p, 0, 2) and not shares_vertex(p, 1, 3)
    assert not shares_vertex(p, 2, 2)
    assert nonadjacent_pairs(p.m) == [(0, 2), (1, 3)]
    tri = polygon_from_vertices([(2, -1), (-1, 2), (-1, -1)])
    assert all(shares_vertex(tri, i, j)
               for i in range(3) for j in range(3) if i != j)
    assert nonadjacent_pairs(tri.m) == []
    g2 = polygon_from_halfspaces(G2_HALFSPACES)
    assert nonadjacent_pairs(g2.m) == [
        (i, j) for i in range(g2.m) for j in range(i + 1, g2.m)
        if not shares_vertex(g2, i, j)]


def test_nonadjacent_pairs_is_the_pairwise_definition():
    # edge k of an m-gon joins vertices k and k + 1; two edges are disjoint
    # when their vertex sets are
    for m in range(3, 61):
        def ends(k):
            return {k, (k + 1) % m}
        brute = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if not ends(i) & ends(j)]
        assert nonadjacent_pairs(m) == brute, m
        assert len(brute) == m * (m - 3) // 2


def reduced_int_triple(t):
    return (all(type(c) is int for c in t) and len(t) == 3 and t[2] > 0
            and gcd(*t) == 1)


def test_exact_products_stay_exact_where_they_divide():
    # cross and dot return the entries' own type: ints on integer normals.
    # Vertices stay Fractions and the area is one, so no float can appear;
    # the points clipped from a polygon are reduced int triples (D > 0,
    # gcd 1). The normal-jump coefficients of every fold divide ints
    # exactly and are ints.
    from toricsym.catalog import corpus
    from toricsym.symmetry import (
        coefficient_pair, detect_reflections, fundamental_region,
        maximal_dihedral,
    )
    assert type(cross((1, 2), (3, 4))) is int and cross((1, 2), (3, 4)) == -2
    assert type(dot((1, 2), (3, 4))) is int and dot((1, 2), (3, 4)) == 11
    assert type(cross(pt(1, 2), (3, 4))) is Fraction
    for p in [polygon_from_halfspaces(G2_HALFSPACES), *corpus().values()]:
        q = polygon_from_halfspaces(p.halfspaces())
        assert all(type(x) is Fraction for v in q.vertices for x in v)
        assert type(q.area()) is Fraction
        cut = clip_halfplane(q.triples, q.edges[0].normal)
        assert cut and all(reduced_int_triple(t) for t in cut)
        refs = detect_reflections(p)
        groups = list(refs)
        if len(refs) >= 2:
            groups.append(maximal_dihedral(refs)[0])
        for g in groups:
            fr = fundamental_region(p, g)
            assert all(type(x) is Fraction for v in fr.region.vertices
                       for x in v)
            assert all(reduced_int_triple(t) for t in fr.region.triples)
            for j in fr.slots:
                for u in fr.group.elements:
                    values = coefficient_pair(fr, u, j)
                    assert all(type(x) is int for x in values), (fr.kind, j)


def test_parse_rational_strict():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(5) == F(5)
    # str.isdigit digits outside ASCII, which \d and Fraction() accept
    for bad in (1.5, True, "1.5", "3/0", "1/-2", "a", None, [1],
                "\u0661", "\uff11\uff12", "\u0663/\u0664"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    assert format_rational(F(-3, 4)) == "-3/4"
    assert format_rational(F(8, 4)) == "2"


def _chunked_digits(n: int) -> str:
    """n >= 0 in decimal, 50 digits at a time, each chunk below the limit
    of str(int)."""
    chunks = []
    while True:
        n, r = divmod(n, 10**50)
        chunks.append(f"{r:050d}")
        if not n:
            return "".join(reversed(chunks)).lstrip("0") or "0"


def test_format_rational_prints_every_digit_beyond_the_str_limit():
    """str(int) refuses more than sys.get_int_max_str_digits() digits (4300
    by default); format_rational prints them all, and leaves the limit,
    which guards the parsing of input, where it was."""
    from toricsym.cohomology import row_str

    limit = sys.get_int_max_str_digits()
    n = 7 ** 6000  # 5071 digits
    assert len(_chunked_digits(n)) == 5071 > limit
    with pytest.raises(ValueError):
        str(n)
    assert format_rational(n) == _chunked_digits(n)
    assert format_rational(F(-n, 3)) == f"-{_chunked_digits(n)}/3"
    assert format_rational(F(2, n)) == f"2/{_chunked_digits(n)}"
    assert row_str({4: F(2, n), 5: F(1)}) == f"2/{_chunked_digits(n)}*x4 + x5"
    assert sys.get_int_max_str_digits() == limit


def test_polygon_json_roundtrip():
    name, p = polygon_from_json({
        "name": "sq",
        "vertices": [["-1", "-1"], [1, -1], ["1", "1"], ["-1", 1]],
    })
    assert name == "sq" and p == polygon_from_vertices(SQUARE)
    assert p.to_json("sq") == {
        "name": "sq",
        "vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]],
    }
    name2, p2 = polygon_from_json({
        "name": "sq",
        "halfspaces": [
            {"normal": [1, 0], "offset": "-1"},
            {"normal": [0, 1], "offset": -1},
            {"normal": [-1, 0], "offset": "-1"},
            {"normal": [0, -1], "offset": "-1"},
        ],
    })
    assert p2 == p


def test_polygon_json_rejects_bad_input():
    with pytest.raises(ValueError):
        polygon_from_json({"vertices": [[0.5, 1], [1, -1], [-1, 0]]})
    with pytest.raises(ValueError):
        polygon_from_json({"halfspaces": [{"normal": [F(1, 2), 0], "offset": -1}]})
    with pytest.raises(ValueError):
        polygon_from_json({"halfspaces": [
            {"normal": ["1/2", 0], "offset": "-1"},
            {"normal": [0, 1], "offset": "-1"},
            {"normal": [-1, -1], "offset": "-1"},
        ]})
    with pytest.raises(ValueError):
        polygon_from_json({"name": "x"})
    with pytest.raises(ValueError):
        polygon_from_json({"vertices": [[1, 1]], "halfspaces": []})
    with pytest.raises(ValueError):
        polygon_from_json([1, 2])


def test_apply_linear():
    p = polygon_from_vertices(SQUARE)
    rot = RatMatrix.from_rows([[0, -1], [1, 0]])
    assert apply_linear(rot, p) == p
    stretch = RatMatrix.from_rows([[2, 0], [0, 1]])
    assert apply_linear(stretch, p) == polygon_from_vertices(
        [(-2, -1), (2, -1), (2, 1), (-2, 1)])


def test_clip_halfplane():
    p = polygon_from_vertices(SQUARE)
    lower = clip_halfplane(p.triples, (0, 1))
    assert lower == [(-1, -1, 1), (1, -1, 1), (1, 0, 1), (-1, 0, 1)]
    wedge = clip_halfplane(lower, (-1, -1))
    # the points (1, -1), (1, 0) and (0, 0)
    assert wedge == [(1, -1, 1), (1, 0, 1), (0, 0, 1)]


# rational points on the unit circle: (1-t^2, 2t)/(1+t^2); distinct slopes
# give distinct points, never three collinear, so convexity is automatic and
# only the origin-interior condition can fail (rejected via assume).
circle_ts = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=8),
    min_size=3, max_size=9, unique=True)


@settings(deadline=None, max_examples=60)
@given(circle_ts, st.fractions(min_value=F(1, 3), max_value=3, max_denominator=4),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_halfspace_roundtrip_property(ts, scale, shear):
    # anchors at parameter -3, 0, 1 leave every angular gap below a half
    # turn, so the origin is interior for any superset of them
    ts = sorted(set(ts) | {F(-3), F(0), F(1)})
    raw = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    mat = RatMatrix.from_rows([[scale, shear * scale], [0, scale]])
    p = polygon_from_vertices([mat.mat_vec(v) for v in raw])
    q = polygon_from_halfspaces(p.halfspaces())
    assert q == p
    assert q.area() == p.area() > 0
    oracle = brute_force_vertices(p.halfspaces())
    assert oracle == set(p.vertices)
