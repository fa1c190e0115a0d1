"""Command line front end.

Subcommands: analyze (polygon data), betti (graded dimensions and pairing),
symmetries (mirrors and maximal dihedral groups), verify (the full
isomorphism certification), rootdemo (rank-2 weight polytopes and the G2
coefficient table diffed against the frozen reference rows).

Exit codes: 0 success, 1 a verification ran and failed, 2 malformed input
or a construction error. All computation is exact and deterministic; the
environment variable TORIC_MIRROR_SEED is intentionally never read, since
there is no randomness to seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .catalog import BUILTINS, builtin
from .cohomology import cohomology_ring
from .errors import NotASymmetry, ToricSymError
from .geometry import (
    RAT_RE, RationalPolygon, format_point, format_rational, nonadjacent_pairs,
    parse_rational, polygon_from_json,
)
from .rootsystems import (
    CARTAN, G2_EXPECTED_FIRST, G2_EXPECTED_SECOND, default_offsets,
    golden_table, root_system, weight_polytope,
)
from .symmetry import (
    Reflection, detect_reflections, dihedral_group, maximal_dihedral,
)
from .theorem import verify_theorem

_EPILOG = ("Inputs must be exact rationals (integers or 'p/q' strings); "
           "floats are rejected. Output is deterministic; TORIC_MIRROR_SEED "
           "is not consulted (nothing here is random).")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it depends on no
    input, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="toricsym", epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_polygon_flags(p):
        p.add_argument("--input", help="path to a polygon JSON file")
        p.add_argument("--builtin", choices=sorted(BUILTINS),
                       help="name of a bundled polygon")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    add_polygon_flags(sub.add_parser("analyze", help="print polygon data"))
    add_polygon_flags(sub.add_parser("betti", help="graded dimensions and pairing"))
    add_polygon_flags(sub.add_parser(
        "symmetries", help="mirrors and maximal dihedral groups"))
    verify = sub.add_parser("verify", help="certify the quotient isomorphism")
    add_polygon_flags(verify)
    verify.add_argument(
        "--group", default="auto",
        help="auto | reflection:<k> | dihedral:<i>,<j> (indices into the "
             "detected mirror list)")
    demo = sub.add_parser("rootdemo", help="rank-2 weight polytope demo")
    demo.add_argument("--type", required=True, choices=sorted(CARTAN),
                      dest="rstype")
    demo.add_argument("--offset", help="uniform negative offset as p/q")
    demo.add_argument("--format", choices=["text", "json"], default="text")
    demo.add_argument("--output")
    return parser


def load_polygon(args) -> tuple[str, RationalPolygon]:
    if (args.input is None) == (args.builtin is None):
        raise ValueError("give exactly one of --input and --builtin")
    if args.builtin is not None:
        return args.builtin, builtin(args.builtin)
    with open(args.input) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("input JSON is nested too deeply") from None
    return polygon_from_json(obj)


def select_group(p: RationalPolygon, spec: str):
    """Resolve a --group value against the polygon's detected mirrors."""
    refs = detect_reflections(p)
    if spec == "auto":
        if not refs:
            raise NotASymmetry("polygon has no reflection symmetry")
        if len(refs) == 1:
            return refs[0]
        return maximal_dihedral(refs)[0]
    if spec.startswith("reflection:"):
        k = _index("reflection", spec.split(":", 1)[1])
        if not 0 <= k < len(refs):
            raise ValueError(
                f"reflection index {k} out of range, {len(refs)} detected")
        return refs[k]
    if spec.startswith("dihedral:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError("dihedral selector needs two indices i,j")
        i, j = (_index("dihedral", part) for part in parts)
        for k in (i, j):
            if not 0 <= k < len(refs):
                raise ValueError(
                    f"reflection index {k} out of range, {len(refs)} detected")
        return dihedral_group(refs[i], refs[j])
    raise ValueError(f"unknown group selector {spec!r}")


def _index(kind: str, text: str) -> int:
    """ASCII digits and an optional minus: int() also takes blanks, "_", "+"
    and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{kind} index {text!r} is not an integer")
    return int(text)


def _matrix_lists(rows) -> list:
    return [[format_rational(x) for x in row] for row in rows]


# -- subcommand payloads -----------------------------------------------------


def run_analyze(name: str, p: RationalPolygon) -> tuple[int, dict, list[str]]:
    nonadj = nonadjacent_pairs(p.m)
    area = format_rational(p.area())
    payload = {
        "name": name,
        "m": p.m,
        "area": area,
        "vertices": [[format_rational(x), format_rational(y)]
                     for x, y in p.vertices],
        "edges": [{"normal": list(e.normal), "offset": format_rational(e.offset)}
                  for e in p.edges],
        "nonadjacent_pairs": nonadj,
    }
    lines = [f"polygon: {name} (m = {p.m})",
             f"area: {area}",
             "vertices: " + ", ".join(format_point(v) for v in p.vertices),
             "edges:"]
    for i, e in enumerate(p.edges):
        lines.append(f"  {i}: normal ({e.normal[0]}, {e.normal[1]}), "
                     f"offset {format_rational(e.offset)}")
    lines.append("nonadjacent pairs: " +
                 (", ".join(f"({i}, {j})" for i, j in nonadj) or "none"))
    return 0, payload, lines


def run_betti(name: str, p: RationalPolygon) -> tuple[int, dict, list[str]]:
    ring = cohomology_ring(p)
    payload = {
        "name": name,
        "m": p.m,
        "betti": list(ring.betti),
        "deg2_basis": list(ring.deg2_basis),
        "pairing": _matrix_lists(ring.pairing),
    }
    lines = [f"polygon: {name} (m = {p.m})",
             f"b = ({ring.betti[0]}, {ring.betti[1]}, {ring.betti[2]})",
             "deg2 basis: " + ", ".join(f"x{i}" for i in ring.deg2_basis),
             "pairing:"]
    for row in _matrix_lists(ring.pairing):
        lines.append("  [" + ", ".join(row) + "]")
    return 0, payload, lines


def run_symmetries(name: str, p: RationalPolygon) -> tuple[int, dict, list[str]]:
    refs = detect_reflections(p)
    best, pairs = maximal_dihedral(refs)
    best_ell = best.ell if best else 0
    maximal = [[i, j] for i, j in pairs]
    payload = {
        "name": name,
        "reflections": [{"index": k, "mirror_normal": list(r.mirror_normal),
                         "matrix": _matrix_lists((r.matrix[:2],
                                                  r.matrix[2:]))}
                        for k, r in enumerate(refs)],
        "maximal_dihedral": ({"ell": best_ell, "order": 2 * best_ell,
                              "generating_pairs": maximal}
                             if best_ell else None),
    }
    lines = [f"polygon: {name} (m = {p.m})",
             f"reflections: {len(refs)}"]
    for k, r in enumerate(refs):
        lines.append(f"  {k}: mirror normal ({r.mirror_normal[0]}, "
                     f"{r.mirror_normal[1]})")
    if best_ell:
        lines.append(
            f"maximal dihedral order {2 * best_ell} (ell = {best_ell}), "
            "generated by mirror pairs: " +
            ", ".join(f"({i}, {j})" for i, j in maximal))
    else:
        lines.append("no dihedral subgroup (fewer than two mirrors)")
    return 0, payload, lines


def run_verify(name: str, p: RationalPolygon, spec: str,
               ) -> tuple[int, dict, list[str]]:
    group = select_group(p, spec)
    report = verify_theorem(p, group)
    payload = report.to_json_dict()
    if isinstance(group, Reflection):
        desc = f"single mirror, normal ({group.mirror_normal[0]}, " \
               f"{group.mirror_normal[1]})"
    else:
        desc = f"dihedral group of order {group.order} (ell = {group.ell})"
    lines = [f"polygon: {name} (m = {p.m})",
             f"group: {desc}",
             f"case {report.case} (n = {report.n})",
             f"well defined: {'ok' if report.well_defined.ok else 'FAILED'}"]
    lines += [f"  {w}" for w in report.well_defined.witnesses]
    lines.append(
        f"image invariant: {'ok' if report.image_invariant.ok else 'FAILED'}")
    lines += [f"  {w}" for w in report.image_invariant.witnesses]
    lines.append("graded dims: (" +
                 ", ".join(str(d) for d in report.graded_dims) + ")")
    lines.append(f"isomorphism: {'true' if report.isomorphism else 'false'}")
    lines.append("duality shortcut agrees: "
                 f"{'true' if report.pd_shortcut_agrees else 'false'}")
    coeffs = payload["coefficients"]
    lines.append("coefficients c: " + (", ".join(
        f"{k}={v}" for k, v in coeffs["c"].items()) or "none"))
    lines.append("coefficients d: " + (", ".join(
        f"{k}={v}" for k, v in coeffs["d"].items()) or "none"))
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return (0 if report.isomorphism else 1), payload, lines


def run_rootdemo(rstype: str, offset: str | None,
                 ) -> tuple[int, dict, list[str]]:
    rs = root_system(rstype)
    offsets = parse_rational(offset) if offset is not None else None
    poly = weight_polytope(rs, offsets)
    pair = (offsets, offsets) if offsets is not None else default_offsets(rs)
    payload: dict = {
        "type": rstype,
        "offsets": [format_rational(pair[0]), format_rational(pair[1])],
        "polygon": poly.to_json(f"{rstype.lower()}-weight-polytope"),
    }
    lines = [f"type {rstype}: weight polytope with {poly.m} edges",
             "offsets: " + ", ".join(payload["offsets"]),
             "normals: " + ", ".join(format_point(e.normal) for e in poly.edges)]
    code = 0
    if rstype == "G2":
        table = golden_table(rs, offsets)
        computed = {
            "first": [[w, format_rational(c), format_rational(d)]
                      for w, c, d in table.rows_first],
            "second": [[w, format_rational(c), format_rational(d)]
                       for w, c, d in table.rows_second],
        }
        expected = {
            "first": [[w, str(c), str(d)] for w, c, d in G2_EXPECTED_FIRST],
            "second": [[w, str(c), str(d)] for w, c, d in G2_EXPECTED_SECOND],
        }
        diff = []
        for fam in ("first", "second"):
            for got, want in zip(computed[fam], expected[fam], strict=True):
                if got != want:
                    diff.append({"family": fam, "computed": got,
                                 "expected": want})
        matches = not diff
        payload["golden"] = {"computed": computed, "expected": expected,
                             "diff": diff, "matches": matches}
        lines.append("coefficient table (word, c, d):")
        for fam in ("first", "second"):
            lines.append(f"  {fam} slot:")
            for w, c, d in computed[fam]:
                lines.append(f"    {w}: c={c} d={d}")
        lines.append("matches reference rows: "
                     f"{'yes' if matches else 'NO'}")
        if not matches:
            code = 1
    return code, payload, lines


def _glue_offset(argv: list[str]) -> list[str]:
    """argparse takes a value such as -1/2 for an option (only -1 and -0.5
    look like negative numbers to it), so a rational that follows --offset,
    or an abbreviation of it, is joined to it: --offset -1/2 becomes
    --offset=-1/2."""
    out: list[str] = []
    for tok in argv:
        if (out and len(out[-1]) > 2 and "--offset".startswith(out[-1])
                and RAT_RE.match(tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_offset(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "rootdemo":
            code, payload, lines = run_rootdemo(args.rstype, args.offset)
        else:
            name, p = load_polygon(args)
            if args.command == "analyze":
                code, payload, lines = run_analyze(name, p)
            elif args.command == "betti":
                code, payload, lines = run_betti(name, p)
            elif args.command == "symmetries":
                code, payload, lines = run_symmetries(name, p)
            else:
                code, payload, lines = run_verify(name, p, args.group)
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ToricSymError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
