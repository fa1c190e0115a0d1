"""The traced run: each task's CLI call under a span, then its public calls
replayed one at a time, each under its own span.

For a `verify` task the replay runs `detect_reflections` and the
maximal-dihedral search as their own spans, then `cli.select_group` (which
repeats that search inside), then the steps of `verify_theorem` one by one,
and finally a direct `verify_theorem` on the same input. The replay's
direct and shortcut verdicts must equal the direct call's; a difference
fails the task.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import toricsym.theorem
from toricsym.cli import select_group
from toricsym.cohomology import cohomology_ring, invariant_deg2, reynolds_image
from toricsym.errors import NotASymmetry
from toricsym.exactlin import spans_equal
from toricsym.geometry import polygon_from_json
from toricsym.rootsystems import golden_table, root_system, weight_polytope
from toricsym.symmetry import (
    Reflection, detect_reflections, dihedral_coefficients, dihedral_group,
    fundamental_region, single_coefficients,
)
from toricsym.theorem import (
    InvarianceResult, build_dihedral_map, build_reflection_map,
    check_image_invariant, check_isomorphism, check_well_defined,
    group_ring_actions, variable_names, verify_theorem,
)

from spans import REPLAY, Tracer

SIZE_KEYS = ("sizes.m", "sizes.region_m", "sizes.group_order",
             "sizes.invariant_rows")


def _table_bits(ring) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in ring.product_table for x in row)


@contextmanager
def traced_rings(tr: Tracer, fr):
    """Time the two cohomology_ring calls that build_*_map makes, as
    cohomology.ring_polygon and cohomology.ring_region spans. The library's
    own name is wrapped only while the block runs."""
    def ring(poly):
        name = ("cohomology.ring_polygon" if poly is fr.polygon
                else "cohomology.ring_region")
        return tr.call(name, cohomology_ring, poly)

    toricsym.theorem.cohomology_ring = ring
    try:
        yield
    finally:
        toricsym.theorem.cohomology_ring = cohomology_ring


def replay_verify(tr: Tracer, p, group):
    """verify_theorem(p, group), one public call per span.

    Returns the IsomorphismChecks and the task's size counters.
    """
    with tr.span(REPLAY):
        fr = tr.call("symmetry.fundamental_region", fundamental_region, p, group)
        single = isinstance(fr.group, Reflection)
        coeffs = tr.call("symmetry.coefficients",
                         single_coefficients if single else dihedral_coefficients,
                         fr)
        with traced_rings(tr, fr):
            rmap = tr.call("theorem.build_map",
                           build_reflection_map if single else build_dihedral_map,
                           fr, coeffs)
        names = variable_names(fr)
        well = tr.call("theorem.check_well_defined", check_well_defined,
                       rmap, names)
        gen_actions, all_actions = tr.call(
            "theorem.group_ring_actions", group_ring_actions, rmap.target, fr)
        inv_matrix = tr.call("cohomology.invariant_deg2", invariant_deg2,
                             rmap.target, gen_actions)
        inv = tr.call("theorem.check_image_invariant", check_image_invariant,
                      rmap, gen_actions, inv_matrix, names)
        with tr.span("cohomology.reynolds_crosscheck"):
            averaged = tr.call("cohomology.reynolds_image", reynolds_image,
                               rmap.target, all_actions)
            agree = tr.call("exactlin.spans_equal", spans_equal,
                            inv_matrix, averaged)
        if not agree:
            inv = InvarianceResult(False, inv.fixed_ok, False, inv.witnesses)
        checks = tr.call("theorem.check_isomorphism", check_isomorphism, rmap,
                         gen_actions, all_actions, inv_matrix, well, inv)
    sizes = {
        "sizes.m": p.m,
        "sizes.region_m": fr.region.m,
        "sizes.group_order": 2 if single else fr.group.order,
        "sizes.invariant_rows": len(gen_actions) * len(rmap.target.deg2_basis),
        "table_bits": max(_table_bits(rmap.target), _table_bits(rmap.source)),
    }
    return checks, sizes


def _load(tr: Tracer, path: str):
    with open(path) as fh:
        obj = json.load(fh)
    return tr.call("geometry.polygon_from_json", polygon_from_json, obj)[1]


def _maximal_search(tr: Tracer, p):
    refs = tr.call("symmetry.detect_reflections", detect_reflections, p)
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            tr.call("symmetry.dihedral_group", dihedral_group, refs[i], refs[j])


def replay_task(tr: Tracer, task) -> tuple[list[str], dict]:
    """Replay one task's public calls. Returns (problems, size counters)."""
    if task.kind == "rootdemo":
        rs = root_system(task.expect["type"])
        tr.call("rootsystems.weight_polytope", weight_polytope, rs)
        if task.expect["type"] == "G2":
            tr.call("rootsystems.golden_table", golden_table, rs)
        return [], {}
    try:
        p = _load(tr, task.path)
    except ValueError:
        return ([] if task.kind == "reject" else ["input did not parse"]), {}
    if task.kind == "analyze":
        return [], {}
    if task.kind == "symmetries":
        _maximal_search(tr, p)
        return [], {}
    argv = task.argv
    spec = argv[argv.index("--group") + 1] if "--group" in argv else "auto"
    if task.kind == "reject":
        try:
            tr.call("cli.select_group", select_group, p, spec)
        except (ValueError, NotASymmetry):
            return [], {}
        return ["select_group accepted a polygon the CLI must reject"], {}
    _maximal_search(tr, p)
    group = tr.call("cli.select_group", select_group, p, spec)
    checks, sizes = replay_verify(tr, p, group)
    report = tr.call("theorem.verify_theorem", verify_theorem, p, group)
    problems = []
    if (checks.direct, checks.shortcut) != (report.isomorphism,
                                            report.details.shortcut):
        problems.append(f"replay verdicts {(checks.direct, checks.shortcut)} "
                        f"differ from verify_theorem's "
                        f"{(report.isomorphism, report.details.shortcut)}")
    want = task.expect
    got = (sizes["sizes.m"], sizes["sizes.group_order"])
    if got != (want["m"], want["order"]):
        problems.append(f"m, group order {got}, expected "
                        f"{(want['m'], want['order'])}")
    return problems, sizes
