"""Ring maps into the symmetric polygon's cohomology and the isomorphism
certification: well-definedness, invariance of the image, graded dimension
counts, the duality shortcut, and the replayed cancellation identities.

The identities behind the paper's proofs (the invariance combination and
the triangle product) are replayed here on the map's edge rows, as oracles
independent of the checks that verify_theorem runs."""

from fractions import Fraction

import pytest

from toricsym.catalog import builtin, house_pentagon, ninegon
from toricsym.cohomology import cohomology_ring
from toricsym.errors import CaseMismatch, InconsistentGeometry, NotASymmetry
from toricsym.geometry import cross, nonadjacent_pairs
from toricsym.symmetry import (
    detect_reflections, dihedral_coefficients, dihedral_group,
    fundamental_region,
)
from toricsym.theorem import build_dihedral_map, variable_names, verify_theorem

F = Fraction


def mirror(name, k):
    return detect_reflections(builtin(name))[k]


def pair_group(name, i, j):
    refs = detect_reflections(builtin(name))
    return dihedral_group(refs[i], refs[j])


def lin(d):
    return {i: F(c) for i, c in d.items() if c}


# -- the proof identities, replayed on edge rows ------------------------------


def invariance_combination(fr, rmap, generator=1):
    """The linear combination underlying the invariance argument.

    Pick the dual vector of the chosen mirror normal with respect to a basis
    completed by a direction the group cannot move (a crossed-edge normal,
    the sum of a slot normal with its reflection, or the other wedge
    normal), and weight each slot image by its pairing with that dual
    vector; adding the mirror image yields the push-through of a source
    linear relation, so its class in the target must vanish.
    """
    p = fr.polygon
    if len(fr.etas) == 1:
        if generator != 1:
            raise CaseMismatch("a single mirror has only generator 1")
        eta = fr.etas[0]
        if fr.cross_edges:
            second = p.edges[fr.parent_of[fr.cross_edges[0]]].normal
        else:
            perm = fr.edge_perms[(1,)]
            second = None
            for j in fr.slots:
                parent = fr.parent_of[fr.slot_edges[j]]
                lam = p.edges[parent].normal
                mirrored = p.edges[perm[parent]].normal
                s = (lam[0] + mirrored[0], lam[1] + mirrored[1])
                if s != (0, 0):
                    second = s
                    break
            if second is None:
                raise InconsistentGeometry(
                    "every slot normal cancels its reflection")
        mirror_idx = fr.mirror_edges[0]
    else:
        if generator not in (1, 2):
            raise CaseMismatch("generator must be 1 or 2")
        eta = fr.etas[generator - 1]
        second = fr.etas[2 - generator]
        mirror_idx = fr.mirror_edges[generator - 1]
    det = F(cross(eta, second))  # cross of integer vectors is an int
    dual = (second[1] / det, -second[0] / det)
    # crossed-edge normals pair to zero with the dual vector, so their
    # images contribute nothing and are omitted
    for idx in fr.cross_edges:
        lam = p.edges[fr.parent_of[idx]].normal
        if dual[0] * lam[0] + dual[1] * lam[1] != 0:
            raise InconsistentGeometry(
                "dual vector does not annihilate a crossed normal")
    out = dict(rmap.images[mirror_idx])
    for j in fr.slots:
        lam = p.edges[fr.parent_of[fr.slot_edges[j]]].normal
        weight = dual[0] * lam[0] + dual[1] * lam[1]
        for k, v in rmap.images[fr.slot_edges[j]].items():
            out[k] = out.get(k, 0) + weight * v
    return {k: v for k, v in out.items() if v}


def sr_only_reduce(m, f):
    """Drop every monomial of f ({sorted variable tuple: coefficient}) in
    the ring of an m-gon containing a nonadjacent pair (or, for a triangle,
    the whole product x0*x1*x2), touching no linear relation."""
    quads = set(nonadjacent_pairs(m))
    out = {}
    for mono, coef in f.items():
        support = sorted(set(mono))
        dead = any((support[a], support[b]) in quads
                   for a in range(len(support))
                   for b in range(a + 1, len(support)))
        if not dead and m == 3:
            dead = {0, 1, 2} <= set(support)
        if not dead:
            out[mono] = coef
    return out


def triangle_identity_term(fr, rmap):
    """For a wedge whose region is a triangle (one slot edge between the two
    mirrors), the product of the slot's parent variable with both mirror
    images, reduced modulo nonadjacency alone. The vanishing coefficients at
    short words make this the zero polynomial before any linear relation is
    used."""
    if fr.kind != "2-3" or len(fr.slots) != 1:
        raise CaseMismatch(
            "triangle product replay needs a vertex-vertex wedge with "
            "exactly one slot edge")
    parent = fr.parent_of[fr.slot_edges[fr.slots[0]]]
    first, second = (rmap.images[idx] for idx in fr.mirror_edges)
    prod = {}
    for a, va in first.items():
        for b, vb in second.items():
            mono = tuple(sorted((parent, a, b)))
            prod[mono] = prod.get(mono, 0) + va * vb
    prod = {mono: c for mono, c in prod.items() if c}
    return sr_only_reduce(rmap.target.m, prod)


# -- map construction, single mirror ----------------------------------------


def test_square_axis_map_images():
    """Vertical mirror on the square: slot doubles up, crossed halves pass
    through untouched, mirror variable picks up the weight-2 reflected slot."""
    p = builtin("square")
    fr = fundamental_region(p, mirror("square", 1))
    assert fr.kind == "1-1" and fr.n == 1
    co = dihedral_coefficients(fr)
    assert co.c == {((), 1): 0, ((1,), 1): 2}
    assert all(type(x) is int for x in co.c.values())
    assert co.d == {}
    rmap = build_dihedral_map(fr, co)
    names = variable_names(fr)
    by_name = {names[i]: rmap.images[i] for i in range(fr.region.m)}
    assert by_name["x_C1"] == lin({0: 1})
    assert by_name["x_C2"] == lin({2: 1})
    assert by_name["x_E1"] == lin({1: 1, 3: 1})
    assert by_name["x_sigma"] == lin({1: 2})


def test_square_diagonal_map_images():
    # mirror through two opposite vertices: no crossed edges, unit weights
    p = builtin("square")
    fr = fundamental_region(p, mirror("square", 0))
    assert fr.kind == "1-3" and fr.n == 2
    assert fr.cross_edges == ()
    co = dihedral_coefficients(fr)
    assert co.c == {((), 1): 0, ((1,), 1): 1, ((), 2): 0, ((1,), 2): 1}
    rmap = build_dihedral_map(fr, co)
    names = variable_names(fr)
    by_name = {names[i]: rmap.images[i] for i in range(fr.region.m)}
    assert by_name["x_E1"] == lin({0: 1, 3: 1})
    assert by_name["x_E2"] == lin({1: 1, 2: 1})
    assert by_name["x_sigma"] == lin({2: 1, 3: 1})


def test_house_map_images():
    p = house_pentagon()
    fr = fundamental_region(p, detect_reflections(p)[0])
    assert fr.kind == "1-2" and fr.n == 2
    co = dihedral_coefficients(fr)
    assert co.c == {((), 1): 0, ((1,), 1): 2, ((), 2): 0, ((1,), 2): 2}
    rmap = build_dihedral_map(fr, co)
    names = variable_names(fr)
    by_name = {names[i]: rmap.images[i] for i in range(fr.region.m)}
    assert by_name["x_C1"] == lin({0: 1})
    assert by_name["x_sigma"] == lin({1: 2, 2: 2})
    assert by_name["x_E1"] == lin({2: 1, 3: 1})
    assert by_name["x_E2"] == lin({1: 1, 4: 1})


# -- map construction, dihedral ----------------------------------------------


def test_g2_dihedral_map_images():
    """Order-12 wedge on the 12-gon: orbit sums for the slots, coefficient
    weighted sums for the two mirror variables."""
    p = builtin("g2")
    fr = fundamental_region(p, pair_group("g2", 0, 1))
    assert fr.kind == "2-1" and fr.n == 2
    rmap = build_dihedral_map(fr)
    names = variable_names(fr)
    by_name = {names[i]: rmap.images[i] for i in range(fr.region.m)}
    assert by_name["x_E1"] == lin({0: 1, 2: 1, 4: 1, 6: 1, 8: 1, 10: 1})
    assert by_name["x_E2"] == lin({1: 1, 3: 1, 5: 1, 7: 1, 9: 1, 11: 1})
    assert by_name["x_s1"] == lin(
        {3: 1, 4: 1, 5: 3, 6: 2, 7: 4, 8: 2, 9: 3, 10: 1, 11: 1})
    assert by_name["x_s2"] == lin(
        {2: 1, 3: 3, 4: 3, 5: 6, 6: 4, 7: 6, 8: 3, 9: 3, 10: 1})


def test_g2_coefficient_table():
    # the two boundary families, listed along the coset representatives
    p = builtin("g2")
    fr = fundamental_region(p, pair_group("g2", 0, 1))
    co = dihedral_coefficients(fr)
    assert all(type(x) is int for x in [*co.c.values(), *co.d.values()])
    first = [(), (2,), (1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 1, 2, 1, 2)]
    second = [(), (1,), (2, 1), (1, 2, 1), (2, 1, 2, 1), (1, 2, 1, 2, 1)]
    assert [co.c[(w, 1)] for w in first] == [0, 0, 1, 1, 2, 2]
    assert [co.d[(w, 1)] for w in first] == [0, 1, 1, 3, 3, 4]
    assert [co.c[(w, 2)] for w in second] == [0, 1, 1, 3, 3, 4]
    assert [co.d[(w, 2)] for w in second] == [0, 0, 3, 3, 6, 6]


def test_coefficient_vanishing_rows():
    """The identity row always vanishes, and so does the row of the opposite
    generator, in both mirror expansions. Checked on every dihedral case."""
    for name, i, j in [("g2", 0, 1), ("g2", 0, 2), ("d12", 0, 1),
                       ("d12", 0, 2), ("hexagon", 0, 2), ("square", 1, 2)]:
        fr = fundamental_region(builtin(name), pair_group(name, i, j))
        co = dihedral_coefficients(fr)
        for (word, slot), val in co.c.items():
            if word in ((), (2,)):
                assert val == 0, (name, i, j, word, slot)
        for (word, slot), val in co.d.items():
            if word in ((), (1,)):
                assert val == 0, (name, i, j, word, slot)


# -- replayed cancellation identities ----------------------------------------

SINGLE_INSTANCES = [("square", 0), ("square", 1), ("square", 2), ("square", 3),
                    ("house", 0)]
DIHEDRAL_INSTANCES = [("square", 1, 2), ("square", 1, 3), ("square", 0, 2),
                      ("hexagon", 1, 2), ("hexagon", 0, 1), ("hexagon", 1, 3),
                      ("hexagon", 0, 2), ("g2", 0, 1), ("g2", 0, 2),
                      ("d12", 0, 1), ("d12", 0, 2), ("ninegon", 0, 1)]


def _polygon(name):
    if name == "house":
        return house_pentagon()
    if name == "ninegon":
        return ninegon()
    return builtin(name)


def test_single_mirror_combination_vanishes():
    """The dual-vector weighted sum of mirror and slot images is a linear
    relation of the target, so its degree-2 class is zero."""
    for name, k in SINGLE_INSTANCES:
        p = _polygon(name)
        fr = fundamental_region(p, detect_reflections(p)[k])
        rmap = build_dihedral_map(fr)
        comb = invariance_combination(fr, rmap)
        assert not any(cohomology_ring(p).deg2_class(comb)), (name, k)


def test_square_axis_combination_is_x1_minus_x3():
    p = builtin("square")
    fr = fundamental_region(p, mirror("square", 1))
    comb = invariance_combination(fr, build_dihedral_map(fr))
    assert comb == lin({1: 1, 3: -1})


def test_dihedral_combination_vanishes_for_both_generators():
    for name, i, j in DIHEDRAL_INSTANCES:
        p = _polygon(name)
        refs = detect_reflections(p)
        fr = fundamental_region(p, dihedral_group(refs[i], refs[j]))
        rmap = build_dihedral_map(fr)
        ring = cohomology_ring(p)
        for gen in (1, 2):
            comb = invariance_combination(fr, rmap, generator=gen)
            assert not any(ring.deg2_class(comb)), (name, i, j, gen)


def test_triangle_identity_is_zero_polynomial():
    """Vertex-vertex wedge with one slot: the product of the slot variable's
    pass-through term with both mirror images dies under the quadratic
    monomial relations alone, before any linear reduction."""
    for name, i, j in [("d12", 0, 1), ("hexagon", 0, 2), ("square", 0, 2)]:
        p = builtin(name)
        refs = detect_reflections(p)
        fr = fundamental_region(p, dihedral_group(refs[i], refs[j]))
        assert fr.kind == "2-3" and len(fr.slots) == 1
        rmap = build_dihedral_map(fr)
        assert triangle_identity_term(fr, rmap) == {}


def test_triangle_identity_requires_single_slot_wedge():
    p = builtin("square")
    fr = fundamental_region(p, detect_reflections(p)[1])
    with pytest.raises(CaseMismatch):
        triangle_identity_term(fr, None)


def test_sr_only_reduce_drops_nonadjacent_monomials():
    p = builtin("square")
    m = cohomology_ring(p).m
    f = {(0, 2): F(5), (0, 1): F(3)}  # 0,2 opposite, 0,1 adjacent
    assert sr_only_reduce(m, f) == {(0, 1): F(3)}


# -- full verification reports ------------------------------------------------


def test_verify_single_mirror_cases():
    # diagonal fold of the square leaves a triangle, hence the smaller ranks
    expected = {("square", 1): ("1-1", 1, (2, 2, 1, 1)),
                ("square", 0): ("1-3", 2, (1, 1, 1, 1)),
                ("house", 0): ("1-2", 2, (2, 2, 1, 1))}
    for (name, k), (kind, n, dims) in expected.items():
        p = _polygon(name)
        rep = verify_theorem(p, detect_reflections(p)[k])
        assert rep.case == kind and rep.n == n
        assert rep.well_defined.ok and rep.image_invariant.ok
        assert rep.isomorphism and rep.pd_shortcut_agrees
        assert rep.graded_dims == dims


def test_verify_dihedral_cases():
    expected = {("g2", 0, 1): ("2-1", 2), ("g2", 0, 2): ("2-1", 3),
                ("d12", 0, 1): ("2-3", 3), ("d12", 0, 2): ("2-3", 4),
                ("hexagon", 1, 2): ("2-2", 2), ("ninegon", 0, 1): ("2-2", 3)}
    for (name, i, j), (kind, n) in expected.items():
        p = _polygon(name)
        refs = detect_reflections(p)
        rep = verify_theorem(p, dihedral_group(refs[i], refs[j]))
        assert (rep.case, rep.n) == (kind, n), (name, i, j)
        assert rep.isomorphism and rep.pd_shortcut_agrees
        # quotient deg-2 rank equals the invariant rank in every case
        assert rep.graded_dims[0] == rep.graded_dims[1]


def test_verify_all_listed_instances_agree_with_shortcut():
    for name, k in SINGLE_INSTANCES:
        p = _polygon(name)
        rep = verify_theorem(p, detect_reflections(p)[k])
        assert rep.isomorphism and rep.pd_shortcut_agrees, (name, k)
    for name, i, j in DIHEDRAL_INSTANCES:
        p = _polygon(name)
        refs = detect_reflections(p)
        rep = verify_theorem(p, dihedral_group(refs[i], refs[j]))
        assert rep.isomorphism and rep.pd_shortcut_agrees, (name, i, j)


def test_perpendicular_mirrors_warn_but_verify():
    p = builtin("square")
    rep = verify_theorem(p, pair_group("square", 1, 3))
    assert rep.case == "2-1" and rep.n == 2
    assert rep.isomorphism
    assert any("ell=2" in w for w in rep.warnings)


def test_triangle_region_routes_through_cubic_presentation():
    # wedge of a quarter square is a triangle; source ring needs the cubic
    p = builtin("square")
    g = pair_group("square", 0, 2)
    fr = fundamental_region(p, g)
    assert fr.region.m == 3
    assert cohomology_ring(fr.region).m == 3
    rep = verify_theorem(p, g)
    # the only Stanley-Reisner witness is the cubic, a product of three
    sr = [w for w in rep.well_defined.witnesses if w.startswith("sr ")]
    assert len(sr) == 1 and sr[0].count("*") == 2 and sr[0].endswith("-> 0")
    assert rep.case == "2-3" and rep.n == 3
    assert rep.isomorphism
    assert rep.graded_dims == (1, 1, 1, 1)


def test_ninegon_reorder_warning_propagates():
    p = ninegon()
    refs = detect_reflections(p)
    rep = verify_theorem(p, dihedral_group(refs[0], refs[1]))
    assert rep.isomorphism
    assert any("reordered" in w for w in rep.warnings)


@pytest.mark.parametrize("make, group", [
    (lambda: builtin("g2"), "dihedral"), (house_pentagon, "mirror"),
    (ninegon, "dihedral")], ids=["g2", "house", "ninegon"])
def test_verify_ranks_each_matrix_once(make, group, monkeypatch):
    import toricsym.cohomology
    import toricsym.exactlin
    ranked = []
    real = toricsym.exactlin.rank

    def counting(a):
        # rows are lists, tuples or dicts, so each call is recorded as a
        # frozen key: per row, its nonzero (column, value) pairs
        rows = list(a)
        ranked.append(tuple(
            tuple((j, x) for j, x in sorted(
                r.items() if isinstance(r, dict) else enumerate(r)) if x)
            for r in rows))
        return real(rows)

    for module in (toricsym.exactlin, toricsym.cohomology):
        monkeypatch.setattr(module, "rank", counting)
    p = make()
    refs = detect_reflections(p)
    g = refs[0] if group == "mirror" else dihedral_group(refs[0], refs[1])
    report = verify_theorem(p, g)
    assert report.isomorphism and report.pd_shortcut_agrees
    assert 0 < len(ranked) == len(set(ranked)) <= 5


def test_verify_rejects_non_symmetry():
    from toricsym.symmetry import Reflection
    p = builtin("square")
    # a genuine reflection, but not one preserving the square
    r = Reflection.from_matrix((1, 0, 1, -1))
    with pytest.raises(NotASymmetry):
        verify_theorem(p, r)


# -- negative controls ---------------------------------------------------------


NEGATIVE_CONTROLS = [("g2", 0, 1), ("square", 1), ("house", 0), ("square", 0)]


def _perturbed_reports():
    """Bump one expansion coefficient at a time, on the order-12 wedge and on
    single mirrors of shapes 1-1, 1-2 and 1-3, and rerun the checks with
    everything else untouched."""
    for name, *idx in NEGATIVE_CONTROLS:
        p = _polygon(name)
        refs = detect_reflections(p)
        group = (refs[idx[0]] if len(idx) == 1
                 else dihedral_group(refs[idx[0]], refs[idx[1]]))
        fr = fundamental_region(p, group)
        base = dihedral_coefficients(fr)
        for which in ("c", "d"):
            table = getattr(base, which)
            for key in sorted(table):
                c = dict(base.c)
                d = dict(base.d)
                (c if which == "c" else d)[key] += 1
                yield which, key, base.__class__(
                    sets=base.sets, c=c, d=d), fr, p


def test_every_coefficient_perturbation_breaks_a_check():
    from toricsym.theorem import (
        check_image_invariant, check_well_defined, group_ring_actions,
    )
    from toricsym.cohomology import invariant_deg2
    count = 0
    kinds = set()
    for which, key, bad, fr, p in _perturbed_reports():
        rmap = build_dihedral_map(fr, bad)
        names = variable_names(fr)
        well = check_well_defined(rmap, names)
        gens, _ = group_ring_actions(rmap.target, fr)
        inv = invariant_deg2(rmap.target, gens)
        fixed = check_image_invariant(rmap, gens, inv, names)
        assert not (well.ok and fixed.ok), (fr.kind, which, key)
        kinds.add(fr.kind)
        count += 1
    # 24 on the wedge; (id, sigma) per slot on the mirrors with n = 1, 2, 2
    assert count == 24 + 2 + 4 + 4
    assert kinds == {"2-1", "1-1", "1-2", "1-3"}


def test_zero_coefficients_give_empty_mirror_images():
    # keeps the orbit sums but erases both mirror variables; the checks
    # record the failure instead of raising
    from toricsym.theorem import (
        check_image_invariant, check_isomorphism, check_well_defined,
        group_ring_actions,
    )
    from toricsym.cohomology import invariant_deg2
    p = builtin("g2")
    fr = fundamental_region(p, pair_group("g2", 0, 1))
    base = dihedral_coefficients(fr)
    zero = base.__class__(sets=base.sets, c={k: 0 for k in base.c},
                          d={k: 0 for k in base.d})
    rmap = build_dihedral_map(fr, zero)
    names = variable_names(fr)
    empty = [names[i] for i in range(fr.region.m) if rmap.images[i] == {}]
    assert sorted(empty) == ["x_s1", "x_s2"]
    well = check_well_defined(rmap, names)
    gens, full = group_ring_actions(rmap.target, fr)
    inv_matrix = invariant_deg2(rmap.target, gens)
    inv = check_image_invariant(rmap, gens, inv_matrix, names)
    assert not well.ok
    # the zero class is fixed, and the slot orbit sums alone span the
    # invariants
    assert inv.ok and "image of x_s1 fixed by generator 1" in inv.witnesses
    checks = check_isomorphism(rmap, gens, full, inv_matrix, well, inv)
    # the degree-2 basis of the source is the two mirror variables
    assert checks.witnesses[0] == "degree-2 rank 0 of 2, invariant rank 2"
    assert not (checks.injective_deg2 or checks.spans_invariants
                or checks.multiplicative)
    assert not checks.direct and not checks.shortcut


def test_singular_source_pairing_fails_only_the_shortcut():
    # the shortcut reads the recorded determinant, so a source ring with a
    # zero determinant must flip it while the direct route still holds
    from dataclasses import replace
    from toricsym.cohomology import invariant_deg2
    from toricsym.theorem import (
        check_image_invariant, check_isomorphism, check_well_defined,
        group_ring_actions,
    )
    fr = fundamental_region(builtin("g2"), pair_group("g2", 0, 1))
    rmap = build_dihedral_map(fr)
    rmap = replace(rmap, source=replace(rmap.source, pairing_det=F(0)))
    well = check_well_defined(rmap)
    gens, full = group_ring_actions(rmap.target, fr)
    inv_matrix = invariant_deg2(rmap.target, gens)
    inv = check_image_invariant(rmap, gens, inv_matrix)
    checks = check_isomorphism(rmap, gens, full, inv_matrix, well, inv)
    assert "source pairing singular" in checks.witnesses
    assert checks.direct and not checks.shortcut and not checks.source_pd


# -- report serialization --------------------------------------------------------


def test_report_json_schema():
    p = builtin("g2")
    rep = verify_theorem(p, pair_group("g2", 0, 1))
    obj = rep.to_json_dict()
    assert sorted(obj) == [
        "case", "coefficients", "graded_dims", "image_invariant",
        "isomorphism", "n", "pd_shortcut_agrees", "warnings", "well_defined"]
    assert obj["case"] == "2-1" and obj["n"] == 2
    assert obj["isomorphism"] is True and obj["pd_shortcut_agrees"] is True
    assert obj["graded_dims"] == [2, 2, 1, 1]
    assert obj["well_defined"]["ok"] is True
    assert obj["image_invariant"]["ok"] is True
    assert obj["coefficients"]["c"]["s1s2:1"] == "1"
    assert obj["coefficients"]["d"]["s1s2s1s2s1:2"] == "6"
    assert all(isinstance(v, str) for v in obj["coefficients"]["c"].values())
    assert list(obj["coefficients"]["c"]) == sorted(obj["coefficients"]["c"])


def test_report_json_single_mirror_keys_are_slots():
    p = builtin("square")
    rep = verify_theorem(p, mirror("square", 1))
    obj = rep.to_json_dict()
    assert obj["coefficients"] == {"c": {"1": "2"}, "d": {}}
