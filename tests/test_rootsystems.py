"""Rank-2 Weyl data, invariant polygons, and the frozen G2 coefficient table.

The 24 expected coefficients and the ten expected normal-jump vectors below
were transcribed by hand from the worked G2 example and are frozen here; the
pipeline must reproduce them exactly. The jump vectors are additionally
recomputed through a second route (direct matrix orbits) so the table and
the geometry cannot drift apart unnoticed.
"""

from fractions import Fraction

import pytest

from ratmatrix import RatMatrix, dual_matrix, rat
from toricsym.errors import DegenerateOffsets
from toricsym.geometry import pt
from toricsym.rootsystems import (
    CARTAN, default_offsets, dominant_point, g2_golden_table, golden_table,
    normal_families, normal_orbit, root_system, weight_polytope,
)

F = Fraction


def test_tags_and_rotation_orders():
    for tag, order in (("A2", 3), ("B2", 4), ("C2", 4), ("G2", 6)):
        rs = root_system(tag)
        assert rs.rotation_order == order
        assert rs.weyl_group().ell == order
    with pytest.raises(ValueError):
        root_system("D2")


def test_g2_generator_matrices():
    rs = root_system("G2")
    n1, n2 = rs.normal_action
    assert n1 == (-1, 0, 3, 1)
    assert n2 == (1, 1, 0, -1)
    assert rat(rs.point_action[0]) == rat(n1).transpose()
    assert rat(rs.point_action[1]) == rat(n2).transpose()
    # mirror normals are the negated coroots up to the canonical sign
    assert rs.reflection(1).mirror_normal == (2, -3)
    assert rs.reflection(2).mirror_normal == (1, -2)


def test_generator_matrices_are_the_cartan_columns():
    """On every type, generator i sends the coordinate covector e_j to
    e_j, less the i-th Cartan row when i == j, and acts on points by the
    transpose."""
    for tag in CARTAN:
        rs = root_system(tag)
        for i in (0, 1):
            cols = []
            for j in (0, 1):
                img = [F(int(k == j)) for k in (0, 1)]
                if i == j:
                    img = [img[k] - rs.cartan[i][k] for k in (0, 1)]
                cols.append(img)
            want = RatMatrix.from_rows([[cols[0][r], cols[1][r]] for r in (0, 1)])
            assert rat(rs.normal_action[i]) == want, (tag, i)
            assert rat(rs.point_action[i]) == want.transpose(), (tag, i)


def test_normal_families():
    rs = root_system("G2")
    fam0, fam1 = normal_families(rs)
    assert set(fam0) == {(0, 1), (1, -1), (-1, 2), (1, -2), (-1, 1), (0, -1)}
    assert set(fam1) == {(1, 0), (-1, 3), (2, -3), (-2, 3), (1, -3), (-1, 0)}
    a_fam0, a_fam1 = normal_families(root_system("A2"))
    assert set(a_fam0) == {(0, 1), (1, -1), (-1, 0)}
    assert set(a_fam1) == {(1, 0), (-1, 1), (0, -1)}


def test_dominant_points_and_default_offsets():
    expected = {
        "A2": ((1, 1), (-1, -1)),
        "B2": ((F(3, 2), 2), (-2, F(-3, 2))),
        "C2": ((2, F(3, 2)), (F(-3, 2), -2)),
        "G2": ((5, 3), (-3, -5)),
    }
    for tag, (point, offs) in expected.items():
        rs = root_system(tag)
        assert dominant_point(rs) == tuple(map(F, point))
        assert default_offsets(rs) == tuple(map(F, offs))


def test_weight_polytopes_have_full_edge_count():
    for tag in ("A2", "B2", "C2", "G2"):
        rs = root_system(tag)
        poly = weight_polytope(rs)
        assert poly.m == 2 * rs.rotation_order
        # the level-1 dominant point is a vertex
        assert pt(*dominant_point(rs)) in poly.vertices


def test_g2_polytope_normals_match_families():
    rs = root_system("G2")
    poly = weight_polytope(rs)
    fam0, fam1 = normal_families(rs)
    assert set(poly.normals()) == set(fam0) | set(fam1)
    offs = dict(poly.halfspaces())
    assert all(offs[n] == -3 for n in fam0)
    assert all(offs[n] == -5 for n in fam1)


def test_uniform_offsets_degenerate_on_unequal_types():
    assert weight_polytope(root_system("A2"), -1).m == 6
    for tag in ("B2", "C2", "G2"):
        with pytest.raises(DegenerateOffsets):
            weight_polytope(root_system(tag), -1)
    with pytest.raises(DegenerateOffsets):
        weight_polytope(root_system("A2"), F(1, 2))


def test_scaling_offsets_scales_polytope():
    rs = root_system("G2")
    base = weight_polytope(rs)
    doubled = weight_polytope(rs, (-6, -10))
    assert doubled.normals() == base.normals()
    assert doubled.area() == 4 * base.area()


# --- the frozen golden data ------------------------------------------------

FIRST_WORDS = ("id", "s2", "s1s2", "s2s1s2", "s1s2s1s2", "s2s1s2s1s2")
SECOND_WORDS = ("id", "s1", "s2s1", "s1s2s1", "s2s1s2s1", "s1s2s1s2s1")

C_FIRST = (0, 0, 1, 1, 2, 2)
D_FIRST = (0, 1, 1, 3, 3, 4)
C_SECOND = (0, 1, 1, 3, 3, 4)
D_SECOND = (0, 0, 3, 3, 6, 6)

# expected normal jumps of the two slot edges under the nontrivial
# summation-set elements, in the order of the word lists above
JUMPS_FIRST = ((1, -2), (-1, 1), (1, -3), (-1, 0), (0, -2))
JUMPS_SECOND = ((-2, 3), (1, -3), (-3, 3), (0, -3), (-2, 0))


def test_g2_golden_table():
    table = g2_golden_table()
    fr = table.region
    assert fr.kind == "2-1" and fr.n == 2
    assert tuple(r[0] for r in table.rows_first) == FIRST_WORDS
    assert tuple(r[0] for r in table.rows_second) == SECOND_WORDS
    assert tuple(r[1] for r in table.rows_first) == C_FIRST
    assert tuple(r[2] for r in table.rows_first) == D_FIRST
    assert tuple(r[1] for r in table.rows_second) == C_SECOND
    assert tuple(r[2] for r in table.rows_second) == D_SECOND
    for _, c, d in table.rows_first + table.rows_second:
        assert c >= 0 and d >= 0 and c.denominator == 1 and d.denominator == 1


def test_g2_slot_edges_carry_the_unit_normals():
    table = g2_golden_table()
    fr = table.region
    e_first = fr.region.edges[fr.slot_edges[1]]
    e_second = fr.region.edges[fr.slot_edges[2]]
    assert e_first.normal == (0, 1)
    assert e_second.normal == (1, 0)
    assert fr.etas == ((-2, 3), (1, -2))


def _word_matrix(rs, name):
    mat = RatMatrix.identity(2)
    for ch in name.replace("s", " ").split():
        mat = mat @ rat(rs.normal_action[int(ch) - 1])
    return mat


def test_g2_jump_identities_two_routes():
    """The ten jump vectors: frozen expectation == c*eta1 + d*eta2 from the
    table == direct matrix-orbit difference."""
    rs = root_system("G2")
    table = g2_golden_table()
    eta1, eta2 = (F(-2), F(3)), (F(1), F(-2))
    for rows, base, jumps in (
        (table.rows_first, (0, 1), JUMPS_FIRST),
        (table.rows_second, (1, 0), JUMPS_SECOND),
    ):
        base = (F(base[0]), F(base[1]))
        for (name, c, d), expected in zip(rows[1:], jumps):
            combo = (c * eta1[0] + d * eta2[0], c * eta1[1] + d * eta2[1])
            assert combo == tuple(map(F, expected)), name
            moved = _word_matrix(rs, name).mat_vec(base)
            direct = (moved[0] - base[0], moved[1] - base[1])
            assert direct == tuple(map(F, expected)), name


def test_golden_table_other_types_run():
    # the same pipeline classifies every default polytope as the two-edge
    # wedge with n = 2, so both slots carry the unit normals
    for tag in ("A2", "B2", "C2"):
        table = golden_table(root_system(tag))
        fr = table.region
        assert fr.kind == "2-1" and fr.n == 2
        assert table.rows_first[0][1] == 0 and table.rows_first[0][2] == 0
        ell = root_system(tag).rotation_order
        assert len(table.rows_first) == len(table.rows_second) == ell


def test_polytope_is_group_invariant():
    rs = root_system("G2")
    poly = weight_polytope(rs)
    hs = set(poly.halfspaces())
    for g in rs.weyl_group().elements:
        dual = dual_matrix(rat(g.matrix))
        moved = set()
        for n, off in hs:
            img = dual.mat_vec(n)
            moved.add(((int(img[0]), int(img[1])), off))
        assert moved == hs


def test_orbit_seed_membership():
    rs = root_system("B2")
    orb = normal_orbit(rs, (1, 0))
    assert set(orb) == {(1, 0), (-1, 1), (1, -1), (-1, 0)}
    assert orb[0] == (1, 0)
