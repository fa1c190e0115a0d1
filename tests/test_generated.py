"""Properties of the seeded symmetric polygons of bench/generators.py.

Each drawn polygon must verify, with both isomorphism verdicts agreeing.
When it has exactly the mirrors its construction placed (one for a mirror
family, l for D_l), the report must also match the numbers the construction
implies: the fold shape, n, the group order and the graded dimensions, none
of which the generator reads from the library.
"""

from hypothesis import event, given, reject, settings, strategies as st

from test_closed_forms import gen

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
