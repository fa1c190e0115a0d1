"""Reflection detection, dihedral groups, fundamental regions and labels."""

import dataclasses
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from toricsym.errors import (
    EllTooSmall, InconsistentGeometry, NotASymmetry, NotFiniteOrder,
    OrientationAmbiguous,
)
from ratmatrix import (
    RatMatrix, apply_linear, dual_matrix, inverse2, mat2, rat,
)
from toricsym import symmetry
from toricsym.catalog import corpus, ninegon
from toricsym.cli import main
from toricsym.geometry import format_rational, polygon_from_vertices, pt
from toricsym.rootsystems import (
    CARTAN, dominant_point, root_system, weight_polytope,
)
from toricsym.symmetry import (
    DihedralGroup, Reflection, coefficient_pair, detect_reflections,
    dihedral_coefficients, dihedral_group, edge_permutation,
    fundamental_region, maximal_dihedral, orbit_decomposition,
)
from toricsym.theorem import verify_theorem

F = Fraction


def M(rows):
    return RatMatrix.from_rows(rows)


SQUARE = polygon_from_vertices([(-1, -1), (1, -1), (1, 1), (-1, 1)])
HEXAGON = polygon_from_vertices(
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
HOUSE = polygon_from_vertices([(-1, -1), (1, -1), (1, 1), (0, 2), (-1, 1)])

X_MIRROR = Reflection.from_matrix((1, 0, 0, -1))   # fixes the x-axis
Y_MIRROR = Reflection.from_matrix((-1, 0, 0, 1))
DIAG_MIRROR = Reflection.from_matrix((0, 1, 1, 0))  # fixes y = x


def test_detect_reflections_square():
    refl = detect_reflections(SQUARE)
    assert len(refl) == 4
    assert {r.mirror_normal for r in refl} == {(1, 0), (0, 1), (1, -1), (1, 1)}
    for r in refl:
        assert rat(r.matrix) @ rat(r.matrix) == RatMatrix.identity(2)


def test_detect_reflections_hexagon_and_asymmetric():
    assert len(detect_reflections(HEXAGON)) == 6
    assert len(detect_reflections(HOUSE)) == 1
    scalene = polygon_from_vertices([(3, -1), (-1, 2), (-1, -1)])
    assert detect_reflections(scalene) == ()


def test_edge_permutation():
    # x -> -x fixes the bottom and top edges, swaps left and right
    assert edge_permutation(SQUARE, Y_MIRROR.matrix) == (0, 3, 2, 1)
    with pytest.raises(NotASymmetry):
        edge_permutation(SQUARE, (2, 0, 0, 2))
    rect = polygon_from_vertices([(-2, -1), (2, -1), (2, 1), (-2, 1)])
    with pytest.raises(NotASymmetry):
        edge_permutation(rect, DIAG_MIRROR.matrix)


def test_dihedral_group_basics():
    g = dihedral_group(Y_MIRROR, DIAG_MIRROR)
    assert g.ell == 4 and g.order == 8
    assert [e.name for e in g.coset_reps(1)] == ["id", "s2", "s1s2", "s2s1s2"]
    assert [e.name for e in g.coset_reps(2)] == ["id", "s1", "s2s1", "s1s2s1"]
    assert len({e.matrix for e in g.elements}) == 8
    # composition stays inside the group and matches word concatenation
    by_word = {e.word: e for e in g.elements}
    by_matrix = {e.matrix: e for e in g.elements}
    prod = by_matrix[mat2(rat(by_word[(1,)].matrix) @ rat(by_word[(2,)].matrix))]
    assert prod == by_word[(1, 2)]
    with pytest.raises(EllTooSmall):
        dihedral_group(X_MIRROR, X_MIRROR)


def test_dihedral_group_infinite_order_guard():
    # rotation of trace 4, of trace 2 (a shear, not I) and of trace -2
    # (not -I)
    slanted = Reflection.from_matrix((2, 3, -1, -2))
    shear = Reflection.from_matrix((1, 0, 1, -1))
    flipped_shear = Reflection.from_matrix((-1, -1, 0, 1))
    for other in (slanted, shear, flipped_shear):
        with pytest.raises(NotFiniteOrder):
            dihedral_group(X_MIRROR, other)


def test_dihedral_order_from_the_trace():
    """The closed-form order agrees with the order of the rotation s1*s2,
    found by powering it, on every mirror pair of the corpus."""
    pairs = 0
    for name, p in corpus().items():
        refs = detect_reflections(p)
        for i in range(len(refs)):
            for j in range(i + 1, len(refs)):
                g = dihedral_group(refs[i], refs[j])
                rot = rat(refs[i].matrix) @ rat(refs[j].matrix)
                power, order = rot, 1
                while power != RatMatrix.identity(2):
                    power, order = power @ rot, order + 1
                assert g.ell == order, (name, i, j)
                pairs += 1
    assert pairs > 0


def test_single_region_case_1_1_square():
    fr = fundamental_region(SQUARE, X_MIRROR)
    assert fr.kind == "1-1" and fr.n == 1
    # canonical pick is the lower half
    assert fr.region.vertices == (pt(-1, -1), pt(1, -1), pt(1, 0), pt(-1, 0))
    assert fr.etas == ((0, 1),)
    assert len(fr.cross_edges) == 2 and len(fr.slot_edges) == 1
    slot_edge = fr.region.edges[fr.slot_edges[1]]
    assert slot_edge.normal == (0, -1)  # E_1 is the bottom edge
    coeffs = dihedral_coefficients(fr)
    assert coeffs.c == {((), 1): 0, ((1,), 1): 2}
    assert coeffs.d == {}
    assert all(type(x) is int for x in coeffs.c.values())


def test_single_region_case_1_3_square_diagonal():
    refl = next(r for r in detect_reflections(SQUARE)
                if r.mirror_normal == (1, -1))
    fr = fundamental_region(SQUARE, refl)
    assert fr.kind == "1-3" and fr.n == 2
    assert fr.cross_edges == ()
    assert [f for f, _ in fr.exits] == ["vertex", "vertex"]
    assert dihedral_coefficients(fr).c == {
        ((), 1): 0, ((1,), 1): 1, ((), 2): 0, ((1,), 2): 1}


def test_single_region_case_1_2_house():
    (refl,) = detect_reflections(HOUSE)
    assert refl.mirror_normal == (1, 0)
    fr = fundamental_region(HOUSE, refl)
    assert fr.kind == "1-2" and fr.n == 2
    # E_1 touches the apex vertex (0, 2), E_2 sits next to the crossed edge
    assert fr.exits[0] == ("vertex", HOUSE.vertices.index(pt(0, 2)))
    e1 = fr.region.edges[fr.slot_edges[1]]
    assert e1.normal == (-1, 1)
    e2 = fr.region.edges[fr.slot_edges[2]]
    assert e2.normal == (-1, 0)
    crossed = fr.region.edges[fr.cross_edges[0]]
    assert crossed.normal == (0, -1)
    assert dihedral_coefficients(fr).c == {
        ((), 1): 0, ((1,), 1): 2, ((), 2): 0, ((1,), 2): 2}


def test_chamber_hint_single():
    fr = fundamental_region(SQUARE, X_MIRROR, chamber_hint=(0, 5))
    assert fr.etas == ((0, -1),)  # upper half requested
    assert fr.region.vertices[0] == pt(-1, 0)
    with pytest.raises(OrientationAmbiguous):
        fundamental_region(SQUARE, X_MIRROR, chamber_hint=(3, 0))


@pytest.mark.parametrize("tag", sorted(CARTAN))
def test_chamber_hint_in_a_wedge_that_is_no_chamber(tag, monkeypatch):
    """s1 moves the dominant point across the first mirror, into a wedge
    of the two mirror normals of angle pi - pi/ell: the hint pairs strictly
    with both normals but selects no chamber, and no region is built."""
    rs = root_system(tag)
    p, group = weight_polytope(rs), rs.weyl_group()
    a, b, c, d = group.s1.matrix
    x, y = dominant_point(rs)
    moved = (a * x + b * y, c * x + d * y)
    assert fundamental_region(p, group, chamber_hint=(x, y)).kind == "2-1"

    def no_region(*args):
        raise AssertionError("a region was built")

    monkeypatch.setattr(symmetry, "_region", no_region)
    with pytest.raises(OrientationAmbiguous, match="selects no chamber"):
        fundamental_region(p, group, chamber_hint=moved)


def test_a_failed_region_check_is_named(monkeypatch, capsys):
    """The region builder's checks are invariants of a chamber; handed a
    wedge that is no chamber, it raises InconsistentGeometry by name, and
    the CLI exits 2."""
    g, _ = maximal_dihedral(detect_reflections(HEXAGON))
    n1, n2 = g.s1.mirror_normal, g.s2.mirror_normal
    wedges = [(n1, n2), (n1, (-n2[0], -n2[1]))]
    (wedge,) = [w for w in wedges if w not in symmetry.chambers(g)]
    monkeypatch.setattr(symmetry, "chambers", lambda group: [wedge])
    with pytest.raises(InconsistentGeometry,
                       match="region area is not area"):
        fundamental_region(HEXAGON, g)
    assert main(["verify", "--builtin", "hexagon"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: InconsistentGeometry: region area is not area(P)/|W|")


def test_each_chamber_is_clipped_once(monkeypatch):
    """One clip per mirror normal of each chamber: 2 for a mirror, 4 for a
    wedge with ell >= 3 and 8 for ell = 2, also when the region builder
    swaps the generators (the hexagon pair handed over vertex mirror first,
    and the generated 2-2 folds in both generator orders)."""
    from test_closed_forms import GENERATED

    calls = []
    clip = symmetry.clip_halfplane
    monkeypatch.setattr(symmetry, "clip_halfplane",
                        lambda pts, eta: calls.append(eta) or clip(pts, eta))
    folds = _all_fold_shapes() + [(SQUARE, dihedral_group(X_MIRROR, Y_MIRROR))]
    for p, group in GENERATED:
        if fundamental_region(p, group).kind == "2-2":
            folds += [(p, group), (p, group.swapped())]
    swapped_ells = []
    for p, group in folds:
        calls.clear()
        fr = fundamental_region(p, group)
        ell = getattr(group, "ell", 1)
        assert len(calls) == {1: 2, 2: 8}.get(ell, 4), (fr.kind, ell)
        if fr.group != group:
            swapped_ells.append(ell)
    assert sorted(swapped_ells) == [2, 3, 3, 4, 6, 6]


def _mirror_kinds(p):
    """Split reflections by whether their dual fixes an edge normal."""
    edge_type, vertex_type = [], []
    for r in detect_reflections(p):
        dual = dual_matrix(rat(r.matrix))
        fixes = any(dual.mat_vec(n) == tuple(map(F, n)) for n in p.normals())
        (edge_type if fixes else vertex_type).append(r)
    return edge_type, vertex_type


def test_hexagon_dihedral_cases():
    edge_m, vertex_m = _mirror_kinds(HEXAGON)
    assert len(edge_m) == 3 and len(vertex_m) == 3

    # full symmetry group: an adjacent edge/vertex mirror pair, ell = 6
    g_full = dihedral_group(edge_m[0], vertex_m[0])
    assert g_full.ell == 6
    fr = fundamental_region(HEXAGON, g_full)
    assert fr.kind == "2-2" and fr.n == 2
    assert fr.exits[0][0] == "edge" and fr.exits[1][0] == "vertex"
    assert fr.slots == (1,)
    assert fr.region.m == 3

    # the same pair handed over in the other order gets normalized
    fr_swapped = fundamental_region(HEXAGON, dihedral_group(vertex_m[0], edge_m[0]))
    assert fr_swapped.kind == "2-2"
    assert fr_swapped.exits[0][0] == "edge"

    # index-2 subgroups: two edge mirrors at 60 degrees, two vertex mirrors
    pairs_e = [(a, b) for a in edge_m for b in edge_m
               if a != b and dihedral_group(a, b).ell == 3]
    g21 = dihedral_group(*pairs_e[0])
    fr21 = fundamental_region(HEXAGON, g21)
    assert fr21.kind == "2-1" and fr21.n == 2
    assert fr21.slots == (1, 2)

    pairs_v = [(a, b) for a in vertex_m for b in vertex_m
               if a != b and dihedral_group(a, b).ell == 3]
    g23 = dihedral_group(*pairs_v[0])
    fr23 = fundamental_region(HEXAGON, g23)
    assert fr23.kind == "2-3" and fr23.n == 3
    assert fr23.slots == (2,)


def test_square_ell2_warning():
    g = dihedral_group(X_MIRROR, Y_MIRROR)
    assert g.ell == 2
    fr = fundamental_region(SQUARE, g)
    assert fr.kind == "2-1" and fr.n == 2
    assert any("ell=2" in w for w in fr.warnings)


def _all_fold_shapes():
    """One region per fold shape, plus two whose generators get swapped."""
    edge_m, vertex_m = _mirror_kinds(HEXAGON)
    diag = next(r for r in detect_reflections(SQUARE)
                if r.mirror_normal == (1, -1))
    nine = ninegon()
    nine_refs = detect_reflections(nine)
    return [
        (SQUARE, X_MIRROR),
        (HOUSE, detect_reflections(HOUSE)[0]),
        (SQUARE, diag),
        (HEXAGON, dihedral_group(*edge_m[:2])),
        (HEXAGON, dihedral_group(edge_m[0], vertex_m[0])),
        (HEXAGON, dihedral_group(vertex_m[0], edge_m[0])),
        (HEXAGON, dihedral_group(*vertex_m[:2])),
        (nine, dihedral_group(nine_refs[0], nine_refs[1])),
    ]


def _check_partition(p, group):
    """The fold's kind, and whether fundamental_region swapped the
    generators; asserts that the edge permutations, composed along each
    word from the generators', agree with a fresh edge_permutation for
    every element, and that the slot orbits partition the edges."""
    fr = fundamental_region(p, group)
    # the stored table is keyed by the final group's words
    assert sorted(fr.edge_perms) == sorted(e.word for e in fr.group.elements)
    for e in fr.group.elements:
        assert fr.edge_perms[e.word] == edge_permutation(p, e.matrix)
    decomp = orbit_decomposition(fr)
    covered = [k for entries in decomp.values() for _, k in entries]
    covered += [fr.parent_of[i] for i in fr.cross_edges]
    assert sorted(covered) == list(range(p.m))
    return fr.kind, fr.group != group


def test_orbit_decomposition_partitions():
    results = [_check_partition(p, g) for p, g in _all_fold_shapes()]
    assert {kind for kind, _ in results} == {
        "1-1", "1-2", "1-3", "2-1", "2-2", "2-3"}
    assert sum(swapped for _, swapped in results) == 2


def test_orbit_decomposition_partitions_generated_folds():
    """All 15 family/shape pairs, each dihedral group also handed over with
    its generators exchanged, so that every 2-2 fold is reached once
    through the generator swap of the region builder."""
    from test_closed_forms import GENERATED

    results = []
    for p, group in GENERATED:
        results.append(_check_partition(p, group))
        if isinstance(group, DihedralGroup):
            results.append(_check_partition(p, group.swapped()))
    assert len(results) == 27
    swapped_kinds = [kind for kind, swapped in results if swapped]
    assert swapped_kinds.count("2-2") == 4


# the four unit shears, the swap and a sign change generate GL2(Z)
ELEMENTARY = [M([[1, 1], [0, 1]]), M([[1, -1], [0, 1]]), M([[1, 0], [1, 1]]),
              M([[1, 0], [-1, 1]]), M([[0, 1], [1, 0]]), M([[-1, 0], [0, 1]])]
# fixed changes, two of them orientation-reversing
CHANGES = [M([[1, 1], [0, 1]]), M([[2, 1], [1, 1]]),
           M([[0, 1], [1, 0]]), M([[1, 0], [3, -1]])]


@st.composite
def gl2z(draw):
    """A matrix of GL2(Z), as a product of up to five elementary ones."""
    a = RatMatrix.identity(2)
    for e in draw(st.lists(st.sampled_from(ELEMENTARY), max_size=5)):
        a = a @ e
    return a


def _moved(a, group):
    """The group with each generator conjugated by a, in generator order."""
    a_inv = inverse2(a)
    gens = [Reflection.from_matrix((a @ rat(e.matrix) @ a_inv).entries)
            for e in group.elements if e.length == 1]
    return gens[0] if len(gens) == 1 else dihedral_group(*gens)


def _centroid(fr):
    vs = fr.region.vertices
    return tuple(sum(v[k] for v in vs) / len(vs) for k in (0, 1))


@pytest.fixture(scope="module")
def folds():
    """(polygon, group) for every corpus mirror and maximal group, every
    fold shape, and the generated polygons of all 15 family/shape pairs."""
    from test_closed_forms import FOLDS
    return FOLDS


def _verify_json(path, vertices):
    path.write_text(json.dumps({"name": "relabelled", "vertices": [
        [format_rational(x), format_rational(y)] for x, y in vertices]}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--input", str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=gl2z(), fold=st.integers(0, 10**6), shift=st.integers(0, 10**6),
       reverse=st.booleans())
@example(a=CHANGES[0], fold=0, shift=0, reverse=False)
@example(a=CHANGES[1], fold=1, shift=1, reverse=True)
@example(a=CHANGES[2], fold=2, shift=2, reverse=False)
@example(a=CHANGES[3], fold=3, shift=3, reverse=True)
def test_lattice_change_of_coordinates_keeps_the_labels(
        folds, tmp_path_factory, a, fold, shift, reverse):
    """Mapping a polygon and its generators by A in GL2(Z) and moving the
    chamber by A changes no label: the kind, n, the slots, the crossed
    halves and the c and d tables, and E_j is the image of E_j. Only a
    mirror whose rays end alike numbers its slots ccw, so there a map of
    determinant -1 reverses the numbering. A is drawn as a product of
    elementary matrices, and the four fixed changes are always run.

    On one fold of the corpus and generated polygons, drawn per example,
    verify_theorem keeps the case, n, the coefficients (renumbered as the
    slots are) and both verdicts (the direct rank check and the duality
    shortcut) under A; and the image's vertex list, rotated and perhaps
    reversed, parses to the same polygon and gives byte-identical verify
    JSON."""
    a11, a12, a21, a22 = a.entries

    def reverses(kind):
        return a11 * a22 - a12 * a21 == -1 and kind in ("1-1", "1-3")

    for p, group in _all_fold_shapes():
        fr = fundamental_region(p, group)
        table = dihedral_coefficients(fr)
        fr_a = fundamental_region(apply_linear(a, p), _moved(a, group),
                                  chamber_hint=a.mat_vec(_centroid(fr)))
        table_a = dihedral_coefficients(fr_a)
        assert (fr_a.kind, fr_a.n, fr_a.slots, len(fr_a.cross_edges)) == (
            fr.kind, fr.n, fr.slots, len(fr.cross_edges)), (fr.kind, a)
        assert (table_a.c, table_a.d) == (table.c, table.d), (fr.kind, a)
        dual = dual_matrix(a)
        images = {j: dual.mat_vec(fr.region.edges[i].normal)
                  for j, i in fr.slot_edges.items()}
        if reverses(fr.kind):
            images = {j: images[fr.n + 1 - j] for j in images}
        assert {j: fr_a.region.edges[i].normal
                for j, i in fr_a.slot_edges.items()} == images, (fr.kind, a)

    p, group = folds[fold % len(folds)]
    hint = _centroid(fundamental_region(p, group))
    q = apply_linear(a, p)
    rep = verify_theorem(p, group, hint)
    rep_a = verify_theorem(q, _moved(a, group), a.mat_vec(hint))
    coeff_c = rep.coeff_c
    if reverses(rep.case):  # a mirror's keys are its slot numbers
        coeff_c = {str(rep.n + 1 - int(j)): x for j, x in coeff_c.items()}
    assert (rep_a.case, rep_a.n, rep_a.coeff_c, rep_a.coeff_d) == (
        rep.case, rep.n, coeff_c, rep.coeff_d), (p.vertices, a)
    assert [(r.well_defined.ok, r.image_invariant.ok, r.isomorphism,
             r.pd_shortcut_agrees) for r in (rep, rep_a)] == [(True,) * 4] * 2

    k = shift % q.m
    relabelled = list(q.vertices[k:] + q.vertices[:k])
    if reverse:
        relabelled.reverse()
    assert polygon_from_vertices(relabelled) == q
    path = tmp_path_factory.getbasetemp() / "relabelled.json"
    canonical = _verify_json(path, q.vertices)
    assert canonical[0] == 0 and canonical[2] == ""
    assert _verify_json(path, relabelled) == canonical


def test_single_mirror_is_the_order_two_group():
    assert [e.word for e in X_MIRROR.elements] == [(), (1,)]
    assert [e.name for e in X_MIRROR.elements] == ["id", "s1"]
    assert X_MIRROR.elements[0].matrix == (1, 0, 0, 1)
    assert X_MIRROR.elements[1].matrix == X_MIRROR.matrix


def test_maximal_dihedral():
    refs = detect_reflections(HEXAGON)
    best, pairs = maximal_dihedral(refs)
    assert best.ell == 6
    assert best == dihedral_group(refs[pairs[0][0]], refs[pairs[0][1]])
    assert all(dihedral_group(refs[i], refs[j]).ell == 6 for i, j in pairs)
    assert len(pairs) == 6  # adjacent edge/vertex mirror pairs at 30 degrees
    assert maximal_dihedral(refs[:1]) == (None, ())


def test_dihedral_coefficients_vanishing():
    edge_m, vertex_m = _mirror_kinds(HEXAGON)
    for g in (dihedral_group(edge_m[0], vertex_m[0]),
              dihedral_group(edge_m[0], edge_m[1]),
              dihedral_group(vertex_m[0], vertex_m[1])):
        fr = fundamental_region(HEXAGON, g)
        table = dihedral_coefficients(fr)
        group = fr.group
        by_word = {e.word: e for e in group.elements}
        for j in fr.slots:
            assert table.c[((), j)] == 0 and table.d[((), j)] == 0
            c_s2, _ = coefficient_pair(fr, by_word[(2,)], j)
            _, d_s1 = coefficient_pair(fr, by_word[(1,)], j)
            assert c_s2 == 0 and d_s1 == 0


def test_edge_permutation_is_a_homomorphism():
    edge_m, vertex_m = _mirror_kinds(HEXAGON)
    g = dihedral_group(edge_m[0], vertex_m[0])
    perms = {e.word: edge_permutation(HEXAGON, e.matrix) for e in g.elements}
    by_matrix = {e.matrix: e for e in g.elements}
    for a in g.elements:
        for b in g.elements:
            ab = by_matrix[mat2(rat(a.matrix) @ rat(b.matrix))]
            composed = tuple(perms[a.word][perms[b.word][i]]
                             for i in range(HEXAGON.m))
            assert composed == perms[ab.word]


def test_normals_transform_by_dual_matrix():
    g = dihedral_group(*_mirror_kinds(HEXAGON)[1][:2])
    for e in g.elements:
        perm = edge_permutation(HEXAGON, e.matrix)
        dual = dual_matrix(rat(e.matrix))
        for i in range(HEXAGON.m):
            lam = HEXAGON.edges[i].normal
            img = HEXAGON.edges[perm[i]].normal
            assert dual.mat_vec(lam) == tuple(map(F, img))


def test_single_mirror_coefficients_are_the_order_two_table():
    """Every corpus mirror: the sigma row solves the normal jump along eta,
    the identity row is 0 and there is no second table."""
    shapes = set()
    for name, p in corpus().items():
        for r in detect_reflections(p):
            fr = fundamental_region(p, r)
            shapes.add(fr.kind)
            (eta,) = fr.etas
            sigma = fr.edge_perms[(1,)]
            table = dihedral_coefficients(fr)
            assert table.d == {}, name
            assert sorted(table.c) == sorted(
                (w, j) for j in fr.slots for w in ((), (1,))), name
            for j in fr.slots:
                parent = fr.parent_of[fr.slot_edges[j]]
                lam = p.edges[parent].normal
                lam_img = p.edges[sigma[parent]].normal
                c = table.c[((1,), j)]
                assert (c * eta[0], c * eta[1]) == (
                    lam_img[0] - lam[0], lam_img[1] - lam[1]), (name, j)
                assert table.c[((), j)] == 0, (name, j)
    assert shapes == {"1-1", "1-2", "1-3"}


def test_normal_jump_off_the_mirror_normal_is_rejected():
    """A mirror of the plane that is not a lattice map does not act on the
    toric surface: detect_reflections skips it, and Reflection refuses its
    matrix by name."""
    r = M([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]])
    q = (F(-3), F(-1))
    p = polygon_from_vertices([(2, 1), q, (-3, F(-3, 2)), r.mat_vec(q)])
    assert detect_reflections(p) == ()
    with pytest.raises(NotASymmetry, match="is not a lattice map"):
        Reflection.from_matrix(r.entries)


def test_mirror_jump_off_the_normal_is_rejected_by_name():
    """A lattice mirror always jumps along eta, so the guard of the mirror
    branch is reached only through a doctored edge permutation: here sigma
    sends the bottom edge of the square, normal (0, -1), to the right one,
    normal (1, 0), in place of the top one."""
    fr = fundamental_region(SQUARE, X_MIRROR)
    assert (fr.etas, fr.slot_edges, fr.parent_of[0]) == (((0, 1),), {1: 0}, 0)
    bad = dataclasses.replace(fr, edge_perms={(): (0, 1, 2, 3),
                                              (1,): (1, 0, 2, 3)})
    sigma = X_MIRROR.elements[1]
    with pytest.raises(InconsistentGeometry, match="^" + re.escape(
            "normal difference (1, 1) is not a multiple of eta=(0, 1)") + "$"):
        coefficient_pair(bad, sigma, 1)
    assert coefficient_pair(fr, sigma, 1) == (2,)


def test_wedge_jump_off_the_mirror_lattice_is_rejected_by_name():
    """A wedge's coefficients are integers, and exact division can leave a
    remainder only when |det(eta1, eta2)| >= 2: on the hexagon's 2-2 fold by
    mirrors 0 and 3, eta1 = (1, 1) and eta2 = (-1, 1) span an index-2
    sublattice. A doctored s1 that sends slot 1's parent, edge 1 of normal
    (1, -1), to edge 0 of normal (0, -1) jumps by (-1, 0), which is not in
    Z eta1 + Z eta2."""
    refs = detect_reflections(HEXAGON)
    fr = fundamental_region(HEXAGON, dihedral_group(refs[0], refs[3]))
    assert (fr.kind, fr.etas, fr.slot_edges[1], fr.parent_of[1]) == (
        "2-2", ((1, 1), (-1, 1)), 1, 1)
    s1 = fr.group.elements[1]
    assert s1.word == (1,) and fr.edge_perms[(1,)] == (2, 1, 0, 5, 4, 3)
    assert coefficient_pair(fr, s1, 1) == (0, 0)
    bad = dataclasses.replace(fr, edge_perms={**fr.edge_perms,
                                              (1,): (2, 0, 1, 5, 4, 3)})
    with pytest.raises(InconsistentGeometry, match="^" + re.escape(
            "normal difference (-1, 0) is not an integer combination of "
            "eta1=(1, 1) and eta2=(-1, 1)") + "$"):
        coefficient_pair(bad, s1, 1)
