"""The integer symmetry layer against its Fraction oracles.

detect_reflections, dihedral_group, maximal_dihedral, vertex_permutation and
the composed edge permutations of fundamental_region work on Mat2 integer
4-tuples and on each vertex's reduced triple (X, Y, D). Each is compared
here with the Fraction route it replaced, on the RatMatrix of
tests/ratmatrix.py: the candidate map target @ inverse2(basis) scanned by
mat_vec, each group element multiplied out from the identity, every mirror
pair's group built in full, and one Fraction image per vertex.
"""

from fractions import Fraction

import pytest

from ratmatrix import RatMatrix, apply_linear, inverse2, mat2, rat
from test_closed_forms import gen
from test_symmetry import SQUARE

from toricsym.catalog import corpus
from toricsym.errors import EllTooSmall, NotASymmetry, NotFiniteOrder
from toricsym.geometry import polygon_from_vertices
from toricsym.symmetry import (
    DihedralGroup, GroupElement, Reflection, detect_reflections,
    dihedral_group, maximal_dihedral, vertex_permutation,
)

F = Fraction
ID = RatMatrix.identity(2)
# GL2(Z) changes of coordinates, two of them orientation-reversing
CHANGES = [RatMatrix.from_rows(r) for r in (
    [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 0], [3, -1]])]
# a mirror of the plane that is not a lattice map, and a 4-gon it preserves
NON_LATTICE = RatMatrix.from_rows([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]])
NON_LATTICE_4GON = polygon_from_vertices(
    [(2, 1), (-3, -1), (-3, F(-3, 2)), (F(-13, 5), F(-9, 5))])


def detect_reflections_oracle(p):
    """For each k, the linear map sending (v_0, v_1) to (v_k, v_{k-1}),
    kept when it is integral and sends every v_i to v_{k-i}."""
    vs, m = p.vertices, p.m
    binv = inverse2(RatMatrix.from_rows(
        [[vs[0][0], vs[1][0]], [vs[0][1], vs[1][1]]]))
    found = []
    for k in range(m):
        t0, t1 = vs[k % m], vs[(k - 1) % m]
        cand = RatMatrix.from_rows([[t0[0], t1[0]], [t0[1], t1[1]]]) @ binv
        if all(x.denominator == 1 for x in cand.entries) and all(
                cand.mat_vec(vs[i]) == vs[(k - i) % m] for i in range(m)):
            found.append(Reflection.from_matrix(cand.entries))
    return tuple(found)


def dihedral_group_oracle(r1, r2):
    """ell by powering the rotation s1*s2, and each reduced word's matrix
    multiplied out from the identity."""
    rot = rat(r1.matrix) @ rat(r2.matrix)
    power, ell = rot, 1
    while power != ID:
        power, ell = power @ rot, ell + 1
        assert ell <= 6
    words = [()]
    for k in range(1, ell):
        for last in (1, 2):
            words.append(tuple(last if (k - 1 - j) % 2 == 0 else 3 - last
                               for j in range(k)))
    words.append(tuple(1 if j % 2 == 0 else 2 for j in range(ell)))
    gens = {1: rat(r1.matrix), 2: rat(r2.matrix)}
    elements = []
    for w in words:
        mat = ID
        for a in w:
            mat = mat @ gens[a]
        elements.append(GroupElement(w, mat2(mat)))
    return DihedralGroup(r1, r2, ell, tuple(elements))


def maximal_dihedral_oracle(refs):
    """Every mirror pair's group built in full; the first of the largest
    order, and the pairs of that order."""
    best, pairs = None, []
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            g = dihedral_group_oracle(refs[i], refs[j])
            if best is None or g.ell > best.ell:
                best, pairs = g, []
            if g.ell == best.ell:
                pairs.append((i, j))
    return best, tuple(pairs)


def vertex_permutation_oracle(p, matrix: RatMatrix):
    index = {v: i for i, v in enumerate(p.vertices)}
    return tuple(index[matrix.mat_vec(v)] for v in p.vertices)


def generated(seeds=(0, 3, 7)):
    """(family, instance) for all 15 family/shape pairs and the seeds."""
    return [(family, gen.generate(family, shape,
                                  gen.smallest_k(family, shape), seed))
            for family, shape in sorted(gen.MIRROR_SEEDS) for seed in seeds]


def test_detect_reflections_matches_the_fraction_oracle():
    polygons = list(corpus().values())
    for _, inst in generated():
        p = polygon_from_vertices(inst.vertices)
        polygons += [p] + [apply_linear(a, p) for a in CHANGES]
    found = 0
    for p in polygons:
        refs = detect_reflections(p)
        assert refs == detect_reflections_oracle(p), p.vertices
        assert all(type(x) is int for r in refs for x in r.matrix)
        found += len(refs)
    assert found > len(polygons)


def test_no_reflection_where_the_oracle_finds_none():
    """Perturbed copies keep no mirror, and the 4-gon's mirror is not a
    lattice map."""
    for _, inst in generated():
        bent = polygon_from_vertices(gen.perturbed(inst))
        assert detect_reflections(bent) == detect_reflections_oracle(bent) == ()
    assert vertex_permutation_oracle(NON_LATTICE_4GON, NON_LATTICE) == (
        0, 3, 2, 1)
    assert detect_reflections(NON_LATTICE_4GON) == ()
    assert detect_reflections_oracle(NON_LATTICE_4GON) == ()


def test_detect_reflections_at_scale():
    """m = 2001, where the per-vertex denominators run to hundreds of bits."""
    p = polygon_from_vertices(gen.generate("mirror", "1-2", 1000, 3).vertices)
    assert p.m == 2001
    refs = detect_reflections(p)
    assert len(refs) == 1
    assert refs == detect_reflections_oracle(p)


def test_maximal_dihedral_matches_building_every_pair():
    cases = [detect_reflections(p) for p in corpus().values()]
    for family, inst in generated(seeds=(0, 3)):
        if family in ("d4", "d6"):
            refs = detect_reflections(polygon_from_vertices(inst.vertices))
            assert len(refs) == gen.ELL[family], inst.name
            cases.append(refs)
    assert max(len(refs) for refs in cases) == 6
    for refs in cases:
        assert maximal_dihedral(refs) == maximal_dihedral_oracle(refs)
        for i in range(len(refs)):
            for j in range(len(refs)):
                if i != j:
                    assert dihedral_group(refs[i], refs[j]) == \
                        dihedral_group_oracle(refs[i], refs[j])


def test_dihedral_group_errors_keep_their_messages():
    flip = Reflection.from_matrix((1, 0, 0, -1))
    shear = Reflection.from_matrix((1, 1, 0, -1))
    with pytest.raises(EllTooSmall, match="^the two generators coincide$"):
        dihedral_group(flip, flip)
    with pytest.raises(NotFiniteOrder, match="^product of the two "
                       "reflections has infinite order$"):
        dihedral_group(flip, shear)
    with pytest.raises(NotFiniteOrder):
        maximal_dihedral([flip, shear])


def test_vertex_permutation_matches_the_fraction_oracle():
    """Every element of every generated group, on the polygon and on its
    GL2(Z) images (where the element is conjugated along)."""
    for family, inst in generated(seeds=(0,)):
        p = polygon_from_vertices(inst.vertices)
        refs = detect_reflections(p)
        group = refs[0] if family == "mirror" else maximal_dihedral(refs)[0]
        for e in group.elements:
            assert vertex_permutation(p, e.matrix) == \
                vertex_permutation_oracle(p, rat(e.matrix))
            for a in CHANGES:
                g = a @ rat(e.matrix) @ inverse2(a)
                q = apply_linear(a, p)
                assert vertex_permutation(q, mat2(g)) == \
                    vertex_permutation_oracle(q, g)


@pytest.mark.parametrize("matrix", [
    (2, 0, 0, 2),    # not in GL2(Z)
    (1, 1, 1, 1),    # singular
    (-1, 0, 0, 2),   # determinant -2
    (0, 1, 1, 1),    # a lattice map that moves p
])
def test_vertex_permutation_names_the_first_vertex_off_the_polygon(matrix):
    with pytest.raises(NotASymmetry,
                       match=r"^image of vertex \(-1, -1\) is not a vertex$"):
        vertex_permutation(SQUARE, matrix)


def test_vertex_permutation_reduces_the_images_of_other_maps():
    """(x, y) -> (x, -2y) fixes (-1, 0) and sends (1, -1/2), the triple
    (2, -1, 2), to the unreduced triple (2, 2, 2) of the vertex (1, 1); the
    first vertex whose image is off the triangle is (1, 1)."""
    triangle = polygon_from_vertices([(-1, 0), (1, F(-1, 2)), (1, 1)])
    v0, v1, v2 = triangle.vertices
    assert [rat((1, 0, 0, -2)).mat_vec(v) for v in (v0, v1)] == [v0, v2]
    with pytest.raises(NotASymmetry,
                       match=r"^image of vertex \(1, 1\) is not a vertex$"):
        vertex_permutation(triangle, (1, 0, 0, -2))


@pytest.mark.parametrize("rows, message", [
    ([[F(1, 2), 0], [0, -2]], "the matrix is not a lattice map: a "
                               "reflection must have integer entries"),
    ([[1, 0], [0, 1]], "a reflection must have determinant -1"),
    ([[2, 0], [0, 1]], "a reflection must have determinant -1"),
    ([[1, 1], [1, 0]], "a reflection must be an involution"),
])
def test_reflection_refuses_a_matrix_by_name(rows, message):
    with pytest.raises(NotASymmetry, match=f"^{message}$"):
        Reflection.from_matrix([x for row in rows for x in row])
