"""Properties of the seeded symmetric polygons of bench/generators.py.

Each drawn polygon must verify, with both isomorphism verdicts agreeing.
When it has exactly the mirrors its construction placed (one for a mirror
family, l for D_l), the report must also match the numbers the construction
implies: the fold shape, n, the group order and the graded dimensions, none
of which the generator reads from the library.

A perturbed copy (one vertex pulled slightly inwards, gen.perturbed) keeps
none of the original mirrors, so verify_theorem and the CLI must reject it
with NotASymmetry.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from test_closed_forms import gen

from toricsym.cli import main
from toricsym.errors import NotASymmetry
from toricsym.geometry import polygon_from_vertices
from toricsym.symmetry import detect_reflections, maximal_dihedral
from toricsym.theorem import verify_theorem


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(gen.MIRROR_SEEDS)), st.integers(0, 2),
       st.integers(0, 99))
def test_generated_polygons_verify_as_constructed(pair, extra_k, seed):
    family, shape = pair
    k = gen.smallest_k(family, shape) + extra_k
    try:
        inst = gen.generate(family, shape, k, seed)
    except RuntimeError:  # points coincide or are not in convex position
        reject()
    p = polygon_from_vertices(inst.vertices)
    refs = detect_reflections(p)
    group = refs[0] if family == "mirror" else maximal_dihedral(refs)[0]
    report = verify_theorem(p, group)
    assert report.isomorphism and report.pd_shortcut_agrees
    if len(refs) != gen.ELL[family]:
        event("accidental extra symmetry")
        return
    assert report.case == shape
    assert report.n == inst.n
    assert len(group.elements) == inst.order
    assert report.graded_dims == tuple(gen.graded_dims(shape, inst.n))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(gen.MIRROR_SEEDS)), st.integers(0, 2),
       st.integers(0, 99))
def test_perturbed_polygons_are_rejected(pair, extra_k, seed):
    family, shape = pair
    k = gen.smallest_k(family, shape) + extra_k
    try:
        inst = gen.generate(family, shape, k, seed)
        bent = polygon_from_vertices(gen.perturbed(inst))
    except RuntimeError:  # no valid draw, or no vertex can be pulled in
        reject()
    refs = detect_reflections(polygon_from_vertices(inst.vertices))
    if detect_reflections(bent):
        event("perturbed polygon keeps a mirror")
    groups = list(refs)
    if family != "mirror":
        groups.append(maximal_dihedral(refs)[0])
    for group in groups:
        with pytest.raises(NotASymmetry):
            verify_theorem(bent, group)


@pytest.mark.parametrize("family", sorted(gen.ELL))
def test_cli_rejects_a_perturbed_polygon(family, tmp_path, capsys):
    shape = min(s for f, s in gen.MIRROR_SEEDS if f == family)
    inst = gen.generate(family, shape, gen.smallest_k(family, shape), 0)
    path = tmp_path / "bent.json"
    path.write_text(json.dumps(
        replace(inst, vertices=gen.perturbed(inst)).to_json()))
    for fmt in ("text", "json"):
        code = main(["verify", "--input", str(path), "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: NotASymmetry: ")
