"""The closed forms of plane geometry against their elimination oracles.

Every small system of the fold pipeline is 2 x 2 or 2 x 1, and the package
solves each one in closed form: Cramer's rule for the degree-2 classes of x_0
and x_1, exact integer division by det(eta_1, eta_2) for a wedge's normal
jump and by |eta|^2 for a mirror's, a column of g + 1 for a reflection's
fixed line, the sign of a Cartan integer for a fundamental chamber, and
(-1)^(m-3) d_0^2 / (d_0 ... d_{m-1}) for the determinant of the degree-2
pairing. Here each one is compared with the elimination, recurrence or
search it replaced (rref and kernel_basis of tests/ratmatrix.py, the
three-term continuant, the trial clip of every sign choice) or with sympy's
exact solver and determinant, on the corpus, on the fold regions of every
fold shape and on generated polygons of all six shapes (bench/generators.py,
read as a plain module). Every normal-jump coefficient of every mirror and
ordered mirror pair of those polygons and of the four weight polytopes is
an int. On the generated folds, the degree-2 invariants from orbit sums are
compared with the kernel of the stacked (rho - 1) blocks. On every fold,
each degree-2 rank taken in edge coordinates (CohomologyRing.deg2_rank) is
compared with the rank of the same forms in deg2_basis coordinates, and each
degree-4 value of the bilinear form (CohomologyRing.deg4), which walks three
table neighbours, with the dense double sum over the whole table. The table
built on integer determinants is compared with the same closed form
evaluated on Fractions, and every row the library builds holds nonzero
Fractions only.
The multiplicativity verdict, which evaluates the tridiagonal pairs and
reads the rest off check_well_defined, is compared with the all-pairs loop
on every fold and on tampered maps.
"""

import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import sympy

from ratmatrix import RatMatrix, kernel_basis, rref
from test_cohomology import deg2_rows, kernel_invariants, permuted, sympy_det
from test_symmetry import _all_fold_shapes

from toricsym.catalog import corpus
from toricsym.cohomology import cohomology_ring, invariant_deg2, orbit_sums
from toricsym.errors import InconsistentGeometry
from toricsym.exactlin import rank, spans_equal
from toricsym.geometry import cross, polygon_from_vertices, primitive
from toricsym.rootsystems import ROTATION_ORDER, root_system, weight_polytope
from toricsym.symmetry import (
    Reflection, _region, chambers, coefficient_pair, detect_reflections,
    dihedral_coefficients, dihedral_group, edge_permutation,
    fundamental_region, maximal_dihedral,
)
from toricsym.theorem import (
    build_dihedral_map, check_image_invariant, check_isomorphism,
    check_well_defined, group_ring_actions,
)

_GEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "generators.py"
_spec = importlib.util.spec_from_file_location("bench_generators", _GEN_PATH)
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def corpus_folds():
    """(polygon, group) for every mirror of every corpus polygon and for
    its maximal dihedral group."""
    out = []
    for _, p in sorted(corpus().items()):
        refs = detect_reflections(p)
        out += [(p, r) for r in refs]
        if len(refs) >= 2:
            out.append((p, maximal_dihedral(refs)[0]))
    return out


def generated_polygons(seeds=(0,)):
    """(family, polygon) for every family/shape pair of the generator at
    each seed, with its fewest generic orbits."""
    out = []
    for family, shape in sorted(gen.MIRROR_SEEDS):
        for seed in seeds:
            inst = gen.generate(family, shape, gen.smallest_k(family, shape),
                                seed)
            out.append((family, polygon_from_vertices(inst.vertices)))
    return out


def generated_folds(seeds=(0,)):
    """(polygon, group) for every family/shape pair of the generator, the
    group being the single mirror or the maximal dihedral group."""
    out = []
    for family, p in generated_polygons(seeds):
        refs = detect_reflections(p)
        out.append((p, refs[0] if family == "mirror"
                    else maximal_dihedral(refs)[0]))
    return out


SHAPES = {"1-1", "1-2", "1-3", "2-1", "2-2", "2-3"}
GENERATED = generated_folds()
FOLDS = corpus_folds() + _all_fold_shapes() + GENERATED
REGIONS = [fundamental_region(p, g) for p, g in FOLDS]


def test_the_generated_cases_cover_every_fold_shape():
    assert {fundamental_region(p, g).kind for p, g in GENERATED} == SHAPES
    assert {fr.kind for fr in REGIONS} == SHAPES


def eliminated_deg2_nf(ring, i):
    """The class of x_i as the echelon form of the linear relations gives
    it: a unit vector on a free variable, the negated echelon row on a
    pivot."""
    red, pivots = rref(RatMatrix.from_rows(
        [[r.get(j, 0) for j in range(ring.m)] for r in ring.linear_rows]))
    assert pivots == (0, 1)
    if i in pivots:
        return tuple(-red[pivots.index(i), b] for b in ring.deg2_basis)
    return tuple(int(b == i) for b in ring.deg2_basis)


def test_deg2_classes_match_the_echelon_form():
    polygons = list(corpus().values()) + [p for p, _ in FOLDS]
    polygons += [fr.region for fr in REGIONS]
    for p in polygons:
        ring = cohomology_ring(p)
        assert ring.deg2_basis == tuple(range(2, p.m))
        for i in range(p.m):
            assert (ring.deg2_class({i: Fraction(1)})
                    == eliminated_deg2_nf(ring, i)), (p, i)


def test_coefficient_pairs_match_sympy():
    for fr in REGIONS:
        etas = sympy.Matrix([[eta[r] for eta in fr.etas] for r in (0, 1)])
        for u in fr.group.elements:
            for j in fr.slots:
                parent = fr.parent_of[fr.slot_edges[j]]
                lam = fr.polygon.edges[parent].normal
                img = fr.polygon.edges[fr.edge_perms[u.word][parent]].normal
                diff = sympy.Matrix([img[0] - lam[0], img[1] - lam[1]])
                sol, params = etas.gauss_jordan_solve(diff)
                assert params.shape[0] == 0
                got = coefficient_pair(fr, u, j)
                assert [sympy.Rational(x.numerator, x.denominator)
                        for x in got] == list(sol), (fr.kind, u.word, j)


def test_reflection_normal_matches_the_kernel():
    count = 0
    for a, b, c, d in product(range(-4, 5), repeat=4):
        g = RatMatrix.from_rows([[a, b], [c, d]])
        if a * d - b * c != -1 or g @ g != RatMatrix.identity(2):
            continue
        count += 1
        (fixed,) = kernel_basis(RatMatrix.from_rows([[a - 1, b],
                                                     [c, d - 1]]))
        eta = primitive((fixed[1], -fixed[0]))
        if eta < (0, 0):
            eta = (-eta[0], -eta[1])
        assert (Reflection.from_matrix((a, b, c, d)).mirror_normal
                == eta), (a, b, c, d)
    assert count > 20


def mirrors_and_ordered_pairs(p):
    """Every mirror of p and the group of every ordered pair of distinct
    mirrors."""
    refs = detect_reflections(p)
    return list(refs) + [dihedral_group(a, b) for i, a in enumerate(refs)
                         for j, b in enumerate(refs) if i != j]


def test_every_fold_coefficient_is_an_int():
    """Each term of the telescoped normal jump is an integer multiple of a
    mirror normal, so exact division leaves no remainder: every c and d is
    an int for every mirror and ordered mirror pair of the corpus, of the
    four weight polytopes and of the 15 family/shape pairs at seeds 0-3, and
    each jump is c eta_1 (+ d eta_2) again."""
    polygons = list(corpus().values())
    polygons += [weight_polytope(root_system(t))
                 for t in sorted(ROTATION_ORDER)]
    polygons += [p for _, p in generated_polygons((0, 1, 2, 3))]
    folds = {1: 0, 2: 0}
    for p in polygons:
        for g in mirrors_and_ordered_pairs(p):
            fr = fundamental_region(p, g)
            co = dihedral_coefficients(fr)
            assert all(type(x) is int
                       for x in [*co.c.values(), *co.d.values()]), fr.kind
            normals = [e.normal for e in p.edges]
            for key, c in co.c.items():
                word, j = key
                xs = (c, co.d[key]) if key in co.d else (c,)
                parent = fr.parent_of[fr.slot_edges[j]]
                lam = normals[parent]
                jump = [sum(x * eta[r] for x, eta in zip(xs, fr.etas))
                        for r in (0, 1)]
                assert ((lam[0] + jump[0], lam[1] + jump[1])
                        == normals[fr.edge_perms[word][parent]]), key
            folds[len(fr.etas)] += 1
    assert folds == {1: 251, 2: 798}, folds


def continuant(ring):
    """The determinant of the tridiagonal degree-2 pairing by the three-term
    recurrence K_b = T[b][b] K_(b-1) - T[b-1][b]^2 K_(b-2) over the basis
    x_2 .. x_(m-1), from K = 1 and 0."""
    t = ring.product_table
    det, prev = Fraction(1), Fraction(0)
    for b in ring.deg2_basis:
        det, prev = t[b][b] * det - t[b - 1][b] ** 2 * prev, det
    return det


def test_pairing_closed_form_is_the_continuant():
    """pairing_det, the closed form (-1)^(m-3) d_0^2 / prod d_i, equals the
    continuant and sympy's dense determinant of the pairing, and is nonzero,
    on every corpus ring, on both rings of every fold in FOLDS and REGIONS,
    and on both rings of the generated folds at seeds 0-3."""
    polygons = list(corpus().values()) + [p for p, _ in FOLDS]
    polygons += [fr.region for fr in REGIONS]
    for p, g in generated_folds((0, 1, 2, 3)):
        polygons += [p, fundamental_region(p, g).region]
    for p in polygons:
        ring = cohomology_ring(p)
        assert ring.pairing_det == continuant(ring) != 0, p.vertices
        assert ring.pairing_det == sympy_det(ring.pairing), p.vertices


def trial_chambers(p, group):
    """The sign choices of the mirror normals whose clipped region passes
    the region builder's checks (its area, one mirror edge per generator,
    one arc of slots): the search that the chamber rule replaced."""
    perms = {e.matrix: edge_permutation(p, e.matrix) for e in group.elements}
    signs = [(n, (-n[0], -n[1])) for n in (
        [group.mirror_normal] if isinstance(group, Reflection)
        else [group.s1.mirror_normal, group.s2.mirror_normal])]
    passed = []
    for etas in product(*signs):
        try:
            _region(p, group, etas, perms, p.area(), ())
        except InconsistentGeometry:
            continue
        passed.append(etas)
    return passed


def test_chamber_rule_is_the_trial_search():
    """On the corpus and on generated polygons of all 15 family/shape pairs
    (seeds 0 and 1), for every mirror and every ordered pair of mirrors,
    the regions of exactly the sign choices that chambers keeps pass the
    region builder's checks: both of a mirror, two of four for ell >= 3,
    all four for ell = 2."""
    polygons = list(corpus().values())
    polygons += [p for _, p in generated_polygons((0, 1))]
    kept = {1: 0, 2: 0, 3: 0, 4: 0, 6: 0}
    for p in polygons:
        for g in mirrors_and_ordered_pairs(p):
            got = chambers(g)
            assert got == trial_chambers(p, g), (p.vertices, g)
            ell = getattr(g, "ell", 1)
            assert len(got) == (4 if ell == 2 else 2), (p.vertices, g)
            kept[ell] += 1
    assert all(kept.values()), kept


def test_orbit_sum_invariants_match_the_kernel_on_generated_folds():
    """dim (H^2)^W = #orbits - dim M^W, and each orbit sum is fixed by each
    generator as a row, not only as a class."""
    for p, g in GENERATED:
        fr = fundamental_region(p, g)
        ring = cohomology_ring(p)
        gens, _ = group_ring_actions(ring, fr)
        oracle = kernel_invariants(ring, gens)
        inv = invariant_deg2(ring, gens)
        single = len(fr.etas) == 1
        assert spans_equal(oracle, deg2_rows(ring, inv)), fr.kind
        assert (len(oracle) == ring.deg2_rank(inv)
                == fr.region.m - 2 == len(inv) - (1 if single else 0)), fr.kind
        for s in orbit_sums(ring.m, [a.perm for a in gens]):
            assert all(permuted(s, a.perm) == s for a in gens), fr.kind


def test_edge_coordinate_ranks_match_the_deg2_basis_route():
    """deg2_rank(F) is the rank of the deg2_basis coordinates of F for the
    forms that verify_theorem ranks: the map images, the images of the
    source basis, the orbit sums and their unions; the two linear relations
    of either ring give 0."""
    for p, g in FOLDS:
        fr = fundamental_region(p, g)
        rmap = build_dihedral_map(fr)
        ring = rmap.target
        gens, _ = group_ring_actions(ring, fr)
        images = list(rmap.images)
        basis_images = [images[b] for b in rmap.source.deg2_basis]
        orbits = list(orbit_sums(ring.m, [a.perm for a in gens]))
        for forms in (images, basis_images, orbits, images + orbits,
                      basis_images + orbits):
            assert (ring.deg2_rank(forms)
                    == rank(deg2_rows(ring, forms))), fr.kind
        for r in (ring, rmap.source):
            assert r.deg2_rank(r.linear_rows) == 0


def test_deg4_is_the_dense_bilinear_form():
    """deg4(v, w), which walks three table neighbours per term, is the dense
    double sum of v_i w_j T[i][j] over the whole table: for every pair of
    map images on every fold, and for every pair of variables x_i, x_j of
    every corpus ring and of both rings of every fold."""
    def agree(ring, forms):
        t, m = ring.product_table, ring.m
        for v in forms:
            dv = [v.get(i, 0) for i in range(m)]
            for w in forms:
                dw = [w.get(j, 0) for j in range(m)]
                want = sum(dv[i] * dw[j] * t[i][j]
                           for i in range(m) for j in range(m))
                assert ring.deg4(v, w) == want, (ring.m, v, w)

    def variables(ring):
        return [{i: Fraction(1)} for i in range(ring.m)]

    for p in corpus().values():
        ring = cohomology_ring(p)
        agree(ring, variables(ring))
    for p, g in FOLDS:
        rmap = build_dihedral_map(fundamental_region(p, g))
        agree(rmap.target, list(rmap.images))
        for ring in (rmap.target, rmap.source):
            agree(ring, variables(ring))


def test_integer_determinant_table_is_the_fraction_table():
    """The table and the classes of x_0, x_1, built from int determinants,
    equal the closed forms evaluated with geometry.cross on Fractions, and
    every entry is a Fraction."""
    polygons = list(corpus().values()) + [p for p, _ in FOLDS]
    polygons += [fr.region for fr in REGIONS]
    for p in polygons:
        ring = cohomology_ring(p)
        m = p.m
        n = [tuple(map(Fraction, v)) for v in p.normals()]
        det = [cross(n[i], n[(i + 1) % m]) for i in range(m)]
        table = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            j = (i + 1) % m
            table[i][j] = table[j][i] = 1 / abs(det[i])
            table[i][i] = -cross(n[i - 1], n[j]) / (det[i - 1] * det[i])
        assert ring.product_table == tuple(map(tuple, table)), p
        x0, x1 = (ring.deg2_class({i: Fraction(1)}) for i in (0, 1))
        assert x0 == tuple(-cross(n[b], n[1]) / det[0] for b in ring.deg2_basis)
        assert x1 == tuple(-cross(n[0], n[b]) / det[0] for b in ring.deg2_basis)
        values = [x for row in ring.product_table for x in row]
        values += x0 + x1
        assert all(type(x) is Fraction for x in values), p


def test_every_library_row_holds_nonzero_fractions():
    """Map images, orbit sums of the generators and of the whole group, and
    the relation rows of both rings hold only nonzero Fraction values, on
    every corpus fold and on a generated polygon of each fold shape."""
    for p, g in corpus_folds() + GENERATED:
        fr = fundamental_region(p, g)
        rmap = build_dihedral_map(fr)
        gens, full = group_ring_actions(rmap.target, fr)
        rows = [*rmap.images, *invariant_deg2(rmap.target, gens),
                *invariant_deg2(rmap.target, full),
                *rmap.target.linear_rows, *rmap.source.linear_rows]
        for row in rows:
            assert all(type(x) is Fraction and x for x in row.values()), (
                fr.kind, row)


def all_pairs_multiplicative(rmap, pairs=None):
    """The multiplicativity test over every pair a <= b of source basis
    classes (or over the given pairs only): deg4 of their images against
    the degree-4 scalar times the source table entry. check_isomorphism
    evaluates only the squares and the pairs (a, a+1), and reads every other
    pair off check_well_defined."""
    src, tgt, images = rmap.source, rmap.target, rmap.images
    t, basis = src.product_table, src.deg2_basis
    scalar = tgt.deg4(images[0], images[1]) / t[0][1]
    if pairs is None:
        pairs = [(a, b) for a in basis for b in basis if a <= b]
    return all(tgt.deg4(images[a], images[b]) == scalar * t[a][b]
               for a, b in pairs)


def sr_only_tamper(rmap):
    """A map wrong only at a nonadjacent basis pair, or None. With T the
    source table and phi the map, phi(x_4) gains lam * w for the image w of
    c = x_1 + x_4 + c_3 x_3 + c_5 x_5, where c_3 and c_5 make T c vanish at
    x_3 and x_5. Then phi(x_4) keeps its products with phi(x_3) and
    phi(x_5), lam keeps its square, and its product with phi(x_2) gains
    lam * (T c)_2, which is nonzero on the folds where this applies."""
    src, tgt, images = rmap.source, rmap.target, rmap.images
    t, m = src.product_table, src.m
    if m < 5 or t[3][3] == 0 or (m > 5 and t[5][5] == 0):
        return None
    c = {1: Fraction(1), 4: Fraction(1), 3: -t[3][4] / t[3][3]}
    if m > 5:
        c[5] = -t[5][4] / t[5][5]
    w = {}
    for k, ck in c.items():
        for e, v in images[k].items():
            w[e] = w.get(e, 0) + ck * v
    w = {e: v for e, v in w.items() if v}
    if not tgt.deg4(images[4], w) or not tgt.deg4(w, w):
        return None
    lam = -2 * tgt.deg4(images[4], w) / tgt.deg4(w, w)
    row = dict(images[4])
    for e, v in w.items():
        row[e] = row.get(e, 0) + lam * v
    tampered = list(images)
    tampered[4] = {e: v for e, v in row.items() if v}
    return replace(rmap, images=tuple(tampered))


def tampered_maps(fr, rmap):
    """Maps that are wrong in different places: zero normal-jump
    coefficients, one basis image doubled, one basis image given an extra
    far edge, the first and last basis images swapped, and, where it
    applies, sr_only_tamper."""
    zero = dihedral_coefficients(fr)
    zero = replace(zero, c={k: 0 for k in zero.c}, d={k: 0 for k in zero.d})
    out = [build_dihedral_map(fr, zero)]
    basis, images, m = rmap.source.deg2_basis, rmap.images, rmap.target.m
    first, last = basis[0], basis[-1]
    doubled = list(images)
    doubled[first] = {k: 2 * v for k, v in images[first].items()}
    far = list(images)
    k = (max(images[last], default=0) + m // 2) % m
    far[last] = {**images[last], k: images[last].get(k, 0) + 1}
    far[last] = {i: v for i, v in far[last].items() if v}
    swapped = list(images)
    swapped[first], swapped[last] = images[last], images[first]
    out += [replace(rmap, images=tuple(x)) for x in (doubled, far, swapped)]
    return out + [x for x in [sr_only_tamper(rmap)] if x is not None]


def test_tridiagonal_multiplicativity_is_the_all_pairs_test():
    """On every fold, and on its tampered maps, check_isomorphism's
    verdict equals the all-pairs loop. The tampering breaks it on most
    folds, and on some only at a nonadjacent basis pair, where the verdict
    comes from check_well_defined."""
    verdicts, sr_only = [], 0
    for p, g in FOLDS:
        fr = fundamental_region(p, g)
        rmap = build_dihedral_map(fr)
        gens, full = group_ring_actions(rmap.target, fr)
        inv_rows = invariant_deg2(rmap.target, gens)
        for k, r in enumerate([rmap, *tampered_maps(fr, rmap)]):
            well = check_well_defined(r)
            inv = check_image_invariant(r, gens, inv_rows)
            checks = check_isomorphism(r, gens, full, inv_rows, well, inv)
            want = all_pairs_multiplicative(r)
            assert checks.multiplicative == want, (fr.kind, k)
            assert (f"multiplicativity on basis pairs "
                    f"{'holds' if want else 'fails'}") in checks.witnesses
            if k == 0:
                assert want and well.sr_nonzero == (), fr.kind
            verdicts.append(want)
            basis = r.source.deg2_basis
            sr_only += not want and all_pairs_multiplicative(
                r, [(a, a) for a in basis] + list(zip(basis, basis[1:])))
    assert verdicts.count(False) >= len(FOLDS)
    assert sr_only > 0


def test_multiplicativity_reads_the_nonadjacent_basis_pairs_from_well():
    """A nonadjacent basis pair recorded as nonzero by check_well_defined
    fails multiplicativity; a recorded pair that meets x_0 or x_1 is not a
    basis pair and does not."""
    for p, g in FOLDS:
        fr = fundamental_region(p, g)
        if fr.region.m < 5:
            continue
        rmap = build_dihedral_map(fr)
        gens, full = group_ring_actions(rmap.target, fr)
        inv_rows = invariant_deg2(rmap.target, gens)
        well = check_well_defined(rmap)
        inv = check_image_invariant(rmap, gens, inv_rows)
        m = fr.region.m

        def mult(pairs):
            return check_isomorphism(rmap, gens, full, inv_rows,
                                     replace(well, sr_nonzero=pairs),
                                     inv).multiplicative
        assert mult(()) and mult(((0, 2), (1, m - 1)))
        assert not mult(((2, 4),)) and not mult(((0, 2), (2, m - 1)))
