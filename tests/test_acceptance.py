"""Acceptance gate: one test per promised behaviour, exact equality only.

Run with -v to get one pass/fail line per criterion. Everything here is a
finite exact computation; there are no tolerances anywhere.
"""

from fractions import Fraction

import pytest

from toricsym.catalog import builtin, corpus, house_pentagon, ninegon
from ratmatrix import rat
from test_theorem import invariance_combination, triangle_identity_term

from toricsym.cohomology import cohomology_ring, invariant_deg2
from toricsym.errors import NotASymmetry
from toricsym.rootsystems import (
    dominant_point, golden_table, root_system, weight_polytope,
)
from toricsym.symmetry import (
    detect_reflections, dihedral_coefficients, dihedral_group,
    fundamental_region,
)
from toricsym.theorem import (
    build_dihedral_map, check_image_invariant, check_well_defined,
    group_ring_actions, variable_names, verify_theorem,
)

F = Fraction

# Reflection indices follow detect_reflections order on the named polygon;
# dims equality between the two deg-2 ranks is asserted for every instance.
SINGLE = [("square", 1, "1-1", 1), ("square", 0, "1-3", 2),
          ("house", 0, "1-2", 2)]
DIHEDRAL = [("g2", 0, 1, "2-1", 2), ("g2", 0, 2, "2-1", 3),
            ("d12", 0, 1, "2-3", 3), ("d12", 0, 2, "2-3", 4),
            ("ninegon", 0, 1, "2-2", 3), ("hexagon", 1, 2, "2-2", 2),
            ("square", 1, 2, "2-2", 2), ("square", 0, 2, "2-3", 3),
            ("square", 1, 3, "2-1", 2), ("hexagon", 0, 2, "2-3", 3),
            ("hexagon", 1, 3, "2-1", 2)]

_REPORTS = {}


def polygon(name):
    if name == "house":
        return house_pentagon()
    if name == "ninegon":
        return ninegon()
    return builtin(name)


def report_single(name, k):
    key = ("single", name, k)
    if key not in _REPORTS:
        p = polygon(name)
        _REPORTS[key] = verify_theorem(p, detect_reflections(p)[k])
    return _REPORTS[key]


def report_dihedral(name, i, j):
    key = ("dihedral", name, i, j)
    if key not in _REPORTS:
        p = polygon(name)
        refs = detect_reflections(p)
        _REPORTS[key] = verify_theorem(p, dihedral_group(refs[i], refs[j]))
    return _REPORTS[key]


def report_weight_polytope():
    if "weight" not in _REPORTS:
        rs = root_system("G2")
        p = weight_polytope(rs)
        _REPORTS["weight"] = verify_theorem(
            p, rs.weyl_group(), chamber_hint=dominant_point(rs))
    return _REPORTS["weight"]


def all_reports():
    for name, k, _, _ in SINGLE:
        yield ("single", name, k), report_single(name, k)
    for name, i, j, _, _ in DIHEDRAL:
        yield ("dihedral", name, i, j), report_dihedral(name, i, j)
    yield ("weight",), report_weight_polytope()


def test_criterion_1_g2_coefficient_table():
    """Full pipeline on the default G2 weight polytope reproduces the 24
    frozen expansion coefficients with exact integer equality."""
    table = golden_table(root_system("G2"))
    first = [(w, int(c), int(d)) for w, c, d in table.rows_first]
    second = [(w, int(c), int(d)) for w, c, d in table.rows_second]
    assert first == [("id", 0, 0), ("s2", 0, 1), ("s1s2", 1, 1),
                     ("s2s1s2", 1, 3), ("s1s2s1s2", 2, 3),
                     ("s2s1s2s1s2", 2, 4)]
    assert second == [("id", 0, 0), ("s1", 1, 0), ("s2s1", 1, 3),
                      ("s1s2s1", 3, 3), ("s2s1s2s1", 3, 6),
                      ("s1s2s1s2s1", 4, 6)]
    assert all(c.denominator == 1 and d.denominator == 1
               for _, c, d in table.rows_first + table.rows_second)


# The ten normal jumps of the G2 table, frozen in the coweight coordinate
# system (a normal (a, b) pairs with points as a*w1 + b*w2). Each row is
# (word, slot base normal, jump vector, c, d); the jump must equal both the
# direct matrix computation and c*eta1 + d*eta2 with eta1 = (-2, 3) and
# eta2 = (1, -2), the negated simple coroots.
G2_JUMPS = [
    ((2,), (0, 1), (1, -2), 0, 1),
    ((1, 2), (0, 1), (-1, 1), 1, 1),
    ((2, 1, 2), (0, 1), (1, -3), 1, 3),
    ((1, 2, 1, 2), (0, 1), (-1, 0), 2, 3),
    ((2, 1, 2, 1, 2), (0, 1), (0, -2), 2, 4),
    ((1,), (1, 0), (-2, 3), 1, 0),
    ((2, 1), (1, 0), (1, -3), 1, 3),
    ((1, 2, 1), (1, 0), (-3, 3), 3, 3),
    ((2, 1, 2, 1), (1, 0), (0, -3), 3, 6),
    ((1, 2, 1, 2, 1), (1, 0), (-2, 0), 4, 6),
]


def test_criterion_2_g2_normal_jump_identities():
    """The ten nonzero normal jumps, each certified two ways: by acting with
    the word's matrix on the base normal, and by expanding against the two
    mirror normals with the frozen integer coefficients."""
    rs = root_system("G2")
    eta1 = tuple(-x for x in rs.cartan[0])
    eta2 = tuple(-x for x in rs.cartan[1])
    assert eta1 == (-2, 3) and eta2 == (1, -2)
    for word, base, jump, c, d in G2_JUMPS:
        mat = rat(rs.normal_action[word[0] - 1])
        for g in word[1:]:
            mat = mat @ rat(rs.normal_action[g - 1])
        moved = mat.mat_vec(base)
        assert tuple(moved[t] - base[t] for t in (0, 1)) == jump, word
        assert tuple(c * eta1[t] + d * eta2[t] for t in (0, 1)) == jump, word
    # the remaining two rows of each family are the identity rows, whose
    # jumps vanish identically, completing the 12-row table
    words = [w for w, _, _, _, _ in G2_JUMPS]
    assert len(words) == len(set(words)) == 10


def test_criterion_3_isomorphism_suite():
    """verify_theorem certifies the quotient map on every listed instance,
    covering all six wedge/half shapes, and matches the two deg-2 ranks."""
    seen = set()
    for name, k, kind, n in SINGLE:
        rep = report_single(name, k)
        assert rep.isomorphism, (name, k)
        assert (rep.case, rep.n) == (kind, n), (name, k)
        assert rep.graded_dims[0] == rep.graded_dims[1], (name, k)
        seen.add(rep.case)
    for name, i, j, kind, n in DIHEDRAL:
        rep = report_dihedral(name, i, j)
        assert rep.isomorphism, (name, i, j)
        assert (rep.case, rep.n) == (kind, n), (name, i, j)
        assert rep.graded_dims[0] == rep.graded_dims[1], (name, i, j)
        seen.add(rep.case)
    rep = report_weight_polytope()
    assert rep.isomorphism and (rep.case, rep.n) == ("2-1", 2)
    assert rep.graded_dims == (2, 2, 1, 1)
    assert seen == {"1-1", "1-2", "1-3", "2-1", "2-2", "2-3"}


def _det(rows):
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    a = [[F(x) for x in row] for row in rows]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def test_criterion_4_betti_numbers_and_pairing():
    """Every corpus polygon (3 <= m <= 12, irregular rational ones included)
    gives graded dimensions (1, m-2, 1) and a nonsingular pairing."""
    polys = corpus()
    sizes = {p.m for p in polys.values()}
    assert sizes == set(range(3, 13))
    for name, p in polys.items():
        ring = cohomology_ring(p)
        assert ring.betti == (1, p.m - 2, 1), name
        assert _det(ring.pairing) != 0, name


def test_criterion_5_oracle_equivalence():
    """Product-table route against the raw relation-span nullspace computed
    with sympy: same deg-4 dimension, same pairing matrix, for every corpus
    polygon."""
    import sympy
    from test_cohomology import oracle_structure, to_fraction
    for name, p in corpus().items():
        dim4, table = oracle_structure(p)
        assert dim4 == 1, name
        ring = cohomology_ring(p)
        sub = [[to_fraction(table[a][b]) for b in ring.deg2_basis]
               for a in ring.deg2_basis]
        mine = [list(row) for row in ring.pairing]
        assert sub == mine, name
        assert sympy.Matrix([[table[a][b] for b in ring.deg2_basis]
                             for a in ring.deg2_basis]).det() != 0, name


def test_criterion_6_negative_controls():
    """Each of the 24 single +1 coefficient bumps on the G2 instance breaks
    well-definedness or image invariance; a reflection that does not map the
    polygon to itself is rejected outright."""
    p = builtin("g2")
    refs = detect_reflections(p)
    fr = fundamental_region(p, dihedral_group(refs[0], refs[1]))
    base = dihedral_coefficients(fr)
    assert all(type(x) is int for x in [*base.c.values(), *base.d.values()])
    names = variable_names(fr)
    flips = 0
    for which in ("c", "d"):
        for key in sorted(getattr(base, which)):
            c, d = dict(base.c), dict(base.d)
            (c if which == "c" else d)[key] += 1
            bad = base.__class__(sets=base.sets, c=c, d=d)
            rmap = build_dihedral_map(fr, bad)
            well = check_well_defined(rmap, names)
            gens, _ = group_ring_actions(rmap.target, fr)
            inv = invariant_deg2(rmap.target, gens)
            fixed = check_image_invariant(rmap, gens, inv, names)
            assert not (well.ok and fixed.ok), (which, key)
            flips += 1
    assert flips == 24
    from toricsym.symmetry import Reflection
    alien = Reflection.from_matrix((1, 0, 1, -1))
    with pytest.raises(NotASymmetry):
        verify_theorem(builtin("square"), alien)


def test_criterion_7_cancellation_replays():
    """Three identities behind the proofs, replayed mechanically."""
    # (a) single mirror: the dual-vector combination of mirror and slot
    # images is a linear relation of the target, degree-2 class zero
    p = builtin("square")
    fr = fundamental_region(p, detect_reflections(p)[1])
    assert fr.kind == "1-1"
    rmap = build_dihedral_map(fr)
    comb = invariance_combination(fr, rmap)
    assert comb == {1: F(1), 3: F(-1)}
    assert not any(cohomology_ring(p).deg2_class(comb))

    # (b) vertex-vertex wedge: image of the cubic monomial dies, and the
    # sharper statement that one orbit representative of the triple product
    # is the zero polynomial under the quadratic monomial relations alone
    p = builtin("d12")
    refs = detect_reflections(p)
    fr = fundamental_region(p, dihedral_group(refs[0], refs[1]))
    assert fr.kind == "2-3" and len(fr.slots) == 1
    rmap = build_dihedral_map(fr)
    slot_idx = fr.slot_edges[2]
    m1, m2 = fr.mirror_edges
    # the cubic is the source triangle's relation, and its image, of degree
    # 6, is zero in the target
    cubic = tuple(sorted((slot_idx, m1, m2)))
    assert rmap.source.m == 3 and cubic == (0, 1, 2)
    assert "sr x0*x1*x2 -> 0" in check_well_defined(rmap).witnesses
    assert triangle_identity_term(fr, rmap) == {}

    # (c) coefficient vanishing on every dihedral instance: identity row in
    # both expansions, opposite-generator row in each
    for name, i, j, _, _ in DIHEDRAL:
        q = polygon(name)
        refs = detect_reflections(q)
        fr = fundamental_region(q, dihedral_group(refs[i], refs[j]))
        co = dihedral_coefficients(fr)
        assert all(v == 0 for (w, _), v in co.c.items() if w in ((), (2,)))
        assert all(v == 0 for (w, _), v in co.d.items() if w in ((), (1,)))


def test_criterion_8_duality_shortcut_agreement():
    """On every instance of the suite the quick verdict through the pairing
    argument agrees with the direct graded-rank verdict."""
    for key, rep in all_reports():
        assert rep.pd_shortcut_agrees, key
        assert rep.isomorphism == rep.details.direct, key
