"""Quotient-ring structure: Betti numbers, degree-2 classes, products,
pairing.

Dual route for the ring structure: the package reads degree-4 products off
the closed-form intersection table of the normal fan (Fulton, Introduction to
Toric Varieties, ch. 5) and does no elimination in degree 4; the oracle below
rebuilds the degree-4 relation span from the definition of the ring (the
products of edges without a common vertex, and the linear relations of every
variable) and pushes it through sympy's rank / nullspace instead. It runs on
the corpus, on the fold regions of every corpus polygon and on polygons whose
adjacent normals are far from unimodular. A Groebner-basis route (a third algorithm)
pins down the square's ring once more.
"""

from fractions import Fraction
from itertools import permutations

import pytest
import sympy

from ratmatrix import RatMatrix, kernel_basis, mat2, rat
from test_geometry import shares_vertex

from toricsym.catalog import corpus, hexagon, house_pentagon, square
from toricsym.cohomology import (
    cohomology_ring, invariant_deg2, orbit_sums, reynolds_image, ring_action,
)
from toricsym.errors import NotASymmetry
from toricsym.exactlin import rank, spans_equal
from toricsym.geometry import cross, nonadjacent_pairs, polygon_from_vertices
from toricsym.symmetry import (
    detect_reflections, dihedral_group, edge_permutation, fundamental_region,
    maximal_dihedral,
)
from toricsym.theorem import build_dihedral_map, check_well_defined

F = Fraction

CORPUS = corpus()


def fold_regions():
    """One region per detected mirror of every corpus polygon, plus the
    wedge of its maximal dihedral group."""
    out = {}
    for name, p in sorted(CORPUS.items()):
        refs = detect_reflections(p)
        for k, r in enumerate(refs):
            out[f"{name}/reflection:{k}"] = fundamental_region(p, r).region
        if len(refs) >= 2:
            out[f"{name}/dihedral"] = fundamental_region(
                p, maximal_dihedral(refs)[0]).region
    return out


REGIONS = fold_regions()

# adjacent normals with |det| from 2 to 27, so that neither the adjacent
# products nor the self-intersections have trivial denominators
SKEWED = {
    "skew_pentagon": polygon_from_vertices(
        [(-2, -1), (1, -2), (3, 1), (0, 2), (-2, 1)]),
    "skew_quadrilateral": polygon_from_vertices(
        [(-3, -1), (2, -3), (3, 2), (-1, 3)]),
}


def test_square_presentation():
    p = square()
    ring = cohomology_ring(p)
    assert p.normals() == ((0, -1), (1, 0), (0, 1), (-1, 0))
    # the Stanley-Reisner quadratics are the disjoint edge pairs, and only a
    # triangle has a cubic
    assert nonadjacent_pairs(p.m) == [(0, 2), (1, 3)]
    assert p.m != 3
    # the rows [0, 1, 0, -1] and [-1, 0, 1, 0], nonzero entries only
    assert ring.linear_rows == ({1: 1, 3: -1}, {0: -1, 2: 1})


def test_triangle_presentation_uses_the_cubic():
    p = CORPUS["triangle"]
    ring = cohomology_ring(p)
    # every pair of a triangle's edges meets, so no quadratic is a generator
    # and x0*x1*x2 is the one Stanley-Reisner generator
    assert nonadjacent_pairs(p.m) == []
    assert p.m == 3
    assert all(ring.product_table[i][j] != 0
               for i in range(3) for j in range(3) if i != j)


def test_square_ring_structure():
    ring = cohomology_ring(square())
    assert ring.betti == (1, 2, 1)
    assert ring.deg2_basis == (2, 3)
    # opposite edges are identified by the linear relations
    assert ring.deg2_class({0: F(1)}) == (1, 0)
    assert ring.deg2_class({1: F(1)}) == (0, 1)
    # disjoint edges multiply to zero, adjacent ones to the point class
    assert ring.deg4({0: F(1)}, {2: F(1)}) == 0
    assert ring.deg4({2: F(1)}, {2: F(1)}) == 0
    assert ring.deg4({0: F(1)}, {1: F(1)}) == F(1)
    assert ring.pairing == ((0, 1), (1, 0))


def test_product_table_matches_adjacency():
    for name in ("square", "hexagon", "triangle", "circle7", "g2"):
        p = CORPUS[name]
        ring = cohomology_ring(p)
        for i in range(p.m):
            for j in range(p.m):
                got = ring.product_table[i][j]
                if i != j and not shares_vertex(p, i, j):
                    assert got == 0, (name, i, j)
                elif i != j:
                    det = cross(p.edges[i].normal, p.edges[j].normal)
                    assert got == F(1, abs(det)), (name, i, j)


def test_linear_relations_annihilate_the_table():
    for name in ("house", "circle5", "d12"):
        p = CORPUS[name]
        ring = cohomology_ring(p)
        rows = ring.linear_rows
        for i in range(p.m):
            for r in (0, 1):
                total = sum(c * ring.product_table[i][j]
                            for j, c in rows[r].items())
                assert total == 0, (name, i, r)


def test_edge_rows_and_deg2_rank():
    ring = cohomology_ring(square())
    f = {0: F(2), 3: F(-1)}
    # a sparse row ranks as its dense row; the empty form is the zero row
    assert ring.deg2_rank([{}, f]) == ring.deg2_rank(
        [(0, 0, 0, 0), (2, 0, 0, -1)]) == 1
    # x0 = x2 and x1 = x3 in H^2, which has dimension 2
    assert ring.deg2_rank([]) == ring.deg2_rank([{}]) == 0
    assert ring.deg2_rank([{0: 1, 2: -1}, {1: 1, 3: -1}]) == 0
    assert ring.deg2_rank([(1, 0, -1, 0), (0, 1, 0, -1)]) == 0
    assert ring.deg2_rank([(1, 0, 0, 0), (0, 0, 1, 0)]) == 1
    assert ring.deg2_rank([{i: F(1)} for i in range(4)]) == 2


def test_degree_routing():
    # degree 2 is read by deg2_class, degree 4 by deg4, and degree 6 is zero
    ring = cohomology_ring(square())
    assert ring.deg2_class({}) == (0, 0)
    assert ring.deg4({}, {0: F(1)}) == 0
    # the quarter-square wedge is a triangle: its cubic x0*x1*x2 maps to
    # degree 6, where the target ring is zero
    p = square()
    refs = detect_reflections(p)
    fr = fundamental_region(p, dihedral_group(refs[0], refs[2]))
    rmap = build_dihedral_map(fr)
    assert rmap.source.m == 3
    assert "sr x0*x1*x2 -> 0" in check_well_defined(rmap).witnesses


# --- independent oracle ------------------------------------------------------


def oracle_structure(p):
    """Degree-4 dimension, point functional, and full product table computed
    with sympy only (rank + nullspace on the raw relation span)."""
    m = p.m
    monos = [(i, j) for i in range(m) for j in range(i, m)]
    idx = {mn: a for a, mn in enumerate(monos)}
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            if not shares_vertex(p, i, j):
                row = [sympy.Integer(0)] * len(monos)
                row[idx[(i, j)]] = sympy.Integer(1)
                rows.append(row)
    normals = [e.normal for e in p.edges]
    for k in range(m):
        for comp in (0, 1):
            row = [sympy.Integer(0)] * len(monos)
            for i in range(m):
                mn = (min(i, k), max(i, k))
                row[idx[mn]] += sympy.Integer(normals[i][comp])
            rows.append(row)
    rel = sympy.Matrix(rows)
    null = rel.nullspace()
    if len(null) != 1:
        return len(null), None
    f = null[0]
    det01 = abs(cross(normals[0], normals[1]))
    scale = sympy.Integer(det01) * f[idx[(0, 1)]]
    table = [[f[idx[(min(i, j), max(i, j))]] / scale for j in range(m)]
             for i in range(m)]
    return 1, table


def to_fraction(x):
    r = sympy.Rational(x)
    return F(int(r.p), int(r.q))


ORACLE_CASES = {**CORPUS, **REGIONS, **SKEWED}


def test_oracle_cases_cover_every_fold_shape_and_skewed_fans():
    shapes = set()
    for name, p in CORPUS.items():
        refs = detect_reflections(p)
        shapes |= {fundamental_region(p, r).kind for r in refs}
        if len(refs) >= 2:
            shapes.add(fundamental_region(p, maximal_dihedral(refs)[0]).kind)
    assert shapes == {"1-1", "1-2", "1-3", "2-1", "2-2", "2-3"}
    assert any(q.m == 3 for n, q in REGIONS.items() if n.endswith("dihedral"))
    for p in SKEWED.values():
        dets = [abs(cross(p.edges[i].normal, p.edges[(i + 1) % p.m].normal))
                for i in range(p.m)]
        assert sum(d > 1 for d in dets) >= 3


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_equivalence(name):
    p = ORACLE_CASES[name]
    dim4, table = oracle_structure(p)
    assert dim4 == 1
    ring = cohomology_ring(p)
    assert ring.betti == (1, p.m - 2, 1)
    for i in range(p.m):
        for j in range(p.m):
            assert to_fraction(table[i][j]) == ring.product_table[i][j]
    # pairing determinant nonzero both ways
    sub = sympy.Matrix([[table[a][b] for b in ring.deg2_basis]
                        for a in ring.deg2_basis])
    assert sub.det() != 0
    assert rank(ring.pairing) == p.m - 2


def sympy_det(rows):
    return sympy.Matrix([list(r) for r in rows]).det()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_pairing_continuant_is_the_dense_determinant(name):
    ring = cohomology_ring(ORACLE_CASES[name])
    assert ring.pairing_det == sympy_det(ring.pairing) != 0


def test_groebner_route_square():
    xs = sympy.symbols("x0 x1 x2 x3")
    x0, x1, x2, x3 = xs
    gens = [x0 * x2, x1 * x3, x1 - x3, -x0 + x2]
    gb = sympy.groebner(gens, *xs, order="grevlex")
    # everything in degree 4 except the point class dies
    assert gb.reduce(x2 ** 2)[1] == 0
    assert gb.reduce(x0 * x2)[1] == 0
    nf01 = gb.reduce(x0 * x1)[1]
    nf23 = gb.reduce(x2 * x3)[1]
    assert nf01 == nf23 and nf01 != 0
    # degree 6 dies
    assert gb.reduce(x0 * x1 * x2)[1] == 0


# --- ring actions -----------------------------------------------------------


def test_ring_action_square_mirror():
    p = square()
    ring = cohomology_ring(p)
    refl = next(r for r in detect_reflections(p) if r.mirror_normal == (0, 1))
    act = ring_action(ring, edge_permutation(p, refl.matrix))
    # bottom <-> top is invisible in the quotient (they are identified)
    for i in range(p.m):
        assert (ring.deg2_class({act.perm[i]: F(1)})
                == ring.deg2_class({i: F(1)}))
    assert act.deg4_scalar == 1


def test_ring_action_rejects_non_symmetries():
    ring = cohomology_ring(square())
    with pytest.raises(NotASymmetry):
        ring_action(ring, (1, 0, 2, 3))  # swaps adjacency structure
    with pytest.raises(NotASymmetry):
        ring_action(ring, (0, 1, 2))
    # a cyclic shift respects the pentagon's adjacency but not its linear
    # ideal, so it must fail on the second check
    ring2 = cohomology_ring(house_pentagon())
    with pytest.raises(NotASymmetry):
        ring_action(ring2, (1, 2, 3, 4, 0))


def test_ring_action_adjacency_test_is_the_pairwise_predicate():
    # ring_action checks only the m pairs (i, i+1); on the hexagon's 720
    # permutations it must reject exactly those that send some disjoint pair
    # to adjacent edges
    p = hexagon()
    ring = cohomology_ring(p)
    rejected = 0
    for perm in permutations(range(p.m)):
        pairwise = any(not shares_vertex(p, i, j)
                       and shares_vertex(p, perm[i], perm[j])
                       for i in range(p.m) for j in range(i + 1, p.m))
        try:
            ring_action(ring, perm)
            raised = False
        except NotASymmetry as exc:
            raised = "adjacent pair" in str(exc)
        assert raised == pairwise, perm
        rejected += raised
    # all but the 12 dihedral relabelings of the hexagon's cycle
    assert rejected == 720 - 12


def test_ring_action_sees_normals_only():
    # the ring cannot distinguish a rectangle from a square: both have the
    # same normal fan, so the quarter-turn relabeling preserves both ideals
    # even though it is not a rectangle symmetry
    rect = polygon_from_vertices([(-2, -1), (2, -1), (2, 1), (-2, 1)])
    act = ring_action(cohomology_ring(rect), (1, 2, 3, 0))
    assert act.deg4_scalar == 1


def test_ring_action_is_a_representation():
    p = hexagon()
    ring = cohomology_ring(p)
    refl = detect_reflections(p)
    g = dihedral_group(refl[0], refl[1])
    acts = {e.word: ring_action(ring, edge_permutation(p, e.matrix))
            for e in g.elements}
    by_matrix = {e.matrix: e for e in g.elements}
    for a in g.elements:
        for b in g.elements:
            ab = by_matrix[mat2(rat(a.matrix) @ rat(b.matrix))]
            for i in range(p.m):
                # act by b, reduce to the degree-2 basis, then act by a
                moved = ring.deg2_class({acts[b.word].perm[i]: F(1)})
                lifted = {k: c for k, c in zip(ring.deg2_basis, moved) if c}
                left = ring.deg2_class(permuted(lifted, acts[a.word].perm))
                assert left == ring.deg2_class({acts[ab.word].perm[i]: F(1)})
            composed = tuple(acts[a.word].perm[acts[b.word].perm[i]]
                             for i in range(p.m))
            assert composed == acts[ab.word].perm
            assert acts[ab.word].deg4_scalar == (
                acts[a.word].deg4_scalar * acts[b.word].deg4_scalar)


def permuted(row, perm):
    """The row of a linear form after x_i is renamed x_{perm[i]}."""
    return {perm[i]: c for i, c in row.items()}


def kernel_invariants(ring, actions):
    """A basis of the degree-2 invariants in deg2_basis coordinates, one
    vector per row, by elimination: the kernel of the stacked (rho - 1)
    blocks, where rho sends the basis class x_b to the class of
    x_{perm[b]}."""
    basis = ring.deg2_basis
    rows = []
    for a in actions:
        cols = [ring.deg2_class({a.perm[b]: F(1)}) for b in basis]
        rows += [[col[r] - (1 if c == r else 0)
                  for c, col in enumerate(cols)] for r in range(len(basis))]
    return kernel_basis(RatMatrix.from_rows(rows))


def deg2_rows(ring, forms):
    """The deg2_basis coordinates of linear forms, one row per form; the
    empty form is the zero row. This is the coordinate route that ranks were
    taken on before edge coordinates."""
    return [ring.deg2_class(f) for f in forms]


def test_invariants_square_full_group():
    """The kernel route and the orbit-sum route give the same invariants, of
    dimension region.m - 2, for every corpus polygon under each mirror and
    under its maximal dihedral group (all six fold shapes)."""
    shapes = set()
    for name, p in sorted(CORPUS.items()):
        ring = cohomology_ring(p)
        refs = detect_reflections(p)
        groups = list(refs)
        if len(refs) >= 2:
            groups.append(maximal_dihedral(refs)[0])
        for g in groups:
            acts = [ring_action(ring, edge_permutation(p, e.matrix))
                    for e in g.elements]
            gens = [a for a, e in zip(acts, g.elements) if e.length == 1]
            oracle = kernel_invariants(ring, gens)
            inv = invariant_deg2(ring, gens)
            region = fundamental_region(p, g)
            shapes.add(region.kind)
            assert spans_equal(oracle, deg2_rows(ring, inv)), name
            assert spans_equal(deg2_rows(ring, inv), deg2_rows(
                ring, reynolds_image(ring, acts))), name
            assert (len(oracle) == ring.deg2_rank(inv)
                    == region.region.m - 2), name
    assert shapes == {"1-1", "1-2", "1-3", "2-1", "2-2", "2-3"}


def test_invariant_dims_match_region_edge_counts():
    """deg-2 invariants of the action = (edges of the wedge polygon) - 2."""
    cases = []
    p = hexagon()
    refl = detect_reflections(p)
    full = dihedral_group(refl[0], refl[1])
    cases.append((p, full))
    sq = square()
    sq_refl = detect_reflections(sq)
    cases.append((sq, dihedral_group(sq_refl[0], sq_refl[1])))
    for p, g in cases:
        ring = cohomology_ring(p)
        gens = [ring_action(ring, edge_permutation(p, r.matrix))
                for r in (g.s1, g.s2)]
        kern = invariant_deg2(ring, gens)
        fr = fundamental_region(p, g)
        assert len(kern) == fr.region.m - 2


def test_orbit_sums_partition():
    p = hexagon()
    refl = detect_reflections(p)
    g = dihedral_group(refl[0], refl[1])
    perms = [edge_permutation(p, e.matrix) for e in g.elements]
    sums = orbit_sums(p.m, perms)
    combined = {}
    for s in sums:
        for k, v in s.items():
            combined[k] = combined.get(k, 0) + v
    assert combined == {i: 1 for i in range(p.m)}
