"""Command line behaviour: output shapes, exit codes, determinism."""

import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from toricsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_square_exact_line(capsys):
    code, out, _ = run(capsys, "betti", "--builtin", "square")
    assert code == 0
    assert "b = (1, 2, 1)" in out.splitlines()


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "--builtin", "hexagon",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["betti"] == [1, 4, 1]
    assert obj["m"] == 6


def test_analyze_text_and_json(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "square")
    assert code == 0
    assert "polygon: square (m = 4)" in out
    code, out, _ = run(capsys, "analyze", "--builtin", "square",
                       "--format", "json")
    obj = json.loads(out)
    assert obj["m"] == 4
    assert obj["area"] == "4"
    assert len(obj["vertices"]) == 4
    assert [0, 2] in obj["nonadjacent_pairs"]


def test_analyze_prints_an_area_beyond_the_digit_limit(tmp_path, capsys):
    """The area of the mirror polygon with m = 2001 has a denominator of
    16 575 bits, more digits than str(int) prints; analyze prints it exactly.
    The text report is read: the JSON one lists the two million nonadjacent
    pairs one number per line."""
    from decimal import Decimal
    from test_closed_forms import gen
    from toricsym.geometry import polygon_from_vertices

    inst = gen.generate("mirror", "1-2", 1000, 3)
    path = tmp_path / "mirror-1-2-m2001.json"
    path.write_text(json.dumps(inst.to_json()))
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert (code, err) == (0, "")
    area = polygon_from_vertices(inst.vertices).area()
    assert area.denominator.bit_length() == 16575
    (line,) = [s for s in out.splitlines() if s.startswith("area: ")]
    num, den = line.removeprefix("area: ").split("/")
    assert (int(Decimal(num)), int(Decimal(den))) == (
        area.numerator, area.denominator)


def test_symmetries_json(capsys):
    code, out, _ = run(capsys, "symmetries", "--builtin", "g2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["reflections"]) == 6
    assert obj["maximal_dihedral"]["order"] == 12
    assert [0, 1] in obj["maximal_dihedral"]["generating_pairs"]


def test_symmetries_no_mirror(capsys):
    # scalene triangle has no reflection symmetry at all
    import tempfile, os
    payload = {"name": "scalene",
               "vertices": [[-1, -1], [3, 0], [0, 2]]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(payload, fh)
        path = fh.name
    try:
        code, out, _ = run(capsys, "symmetries", "--input", path,
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["reflections"] == []
        assert obj["maximal_dihedral"] is None
    finally:
        os.unlink(path)


def test_mirror_that_is_not_a_lattice_map_is_not_listed(tmp_path, capsys):
    # the plane mirror [[3/5, 4/5], [4/5, -3/5]] maps this 4-gon to itself
    # but does not act on the lattice, so the polygon has no symmetry
    path = tmp_path / "nonlattice.json"
    path.write_text(json.dumps({"name": "nonlattice", "vertices": [
        [2, 1], [-3, -1], ["-3", "-3/2"], ["-13/5", "-9/5"]]}))
    code, out, _ = run(capsys, "symmetries", "--input", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["reflections"] == []
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert err.startswith("error: NotASymmetry: ")


def test_verify_auto_picks_maximal_group(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "g2")
    assert code == 0
    assert "dihedral group of order 12" in out
    assert "isomorphism: true" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "d12",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj) == [
        "case", "coefficients", "graded_dims", "image_invariant",
        "isomorphism", "n", "pd_shortcut_agrees", "warnings", "well_defined"]
    assert obj["isomorphism"] is True
    assert obj["case"] == "2-3"


def test_verify_explicit_selectors(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "square",
                       "--group", "reflection:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["case"] == "1-1"
    code, out, _ = run(capsys, "verify", "--builtin", "square",
                       "--group", "dihedral:1,3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "2-1"
    assert any("ell=2" in w for w in obj["warnings"])


def test_verify_selector_errors(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "square",
                       "--group", "reflection:9")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "verify", "--builtin", "square",
                       "--group", "banana")
    assert code == 2
    code, _, err = run(capsys, "verify", "--builtin", "square",
                       "--group", "dihedral:0")
    assert code == 2


def test_non_integer_group_index_names_the_selector(capsys):
    # int() alone would read "1_0" as 10 and accept the other four
    for spec, bad in (("reflection:x", "reflection index 'x'"),
                      ("reflection:", "reflection index ''"),
                      ("dihedral:0,x", "dihedral index 'x'"),
                      ("reflection:1_0", "reflection index '1_0'"),
                      ("reflection: 1", "reflection index ' 1'"),
                      ("dihedral:0, 1", "dihedral index ' 1'"),
                      ("reflection:+1", "reflection index '+1'"),
                      ("reflection:\u0661", "reflection index '\u0661'")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "verify", "--builtin", "square",
                                 "--group", spec, "--format", fmt)
            assert (code, out) == (2, "")
            assert err == f"error: ValueError: {bad} is not an integer\n"


def test_negative_group_index_is_out_of_range(capsys):
    code, out, err = run(capsys, "verify", "--builtin", "square",
                         "--group", "reflection:-1")
    assert (code, out) == (2, "")
    assert err == ("error: ValueError: reflection index -1 out of range, "
                   "4 detected\n")


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--builtin", "g2", "--format", "json")
    _, second, _ = run(capsys, "verify", "--builtin", "g2", "--format", "json")
    assert first == second
    # keys appear sorted at every level of the document
    obj = json.loads(first)
    assert list(obj) == sorted(obj)
    assert list(obj["coefficients"]["c"]) == sorted(obj["coefficients"]["c"])


def test_input_source_validation(capsys):
    code, _, err = run(capsys, "betti")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "betti", "--builtin", "square",
                       "--input", "x.json")
    assert code == 2
    code, _, err = run(capsys, "betti", "--input", "/no/such/file.json")
    assert code == 2


def test_float_vertices_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"name": "bad", "vertices": [[0.5, 0], [1, 0], [0, 1]]}))
    code, _, err = run(capsys, "betti", "--input", str(bad))
    assert code == 2
    assert "0.5" in err


def test_non_ascii_digits_are_malformed_rationals(tmp_path, capsys):
    code, out, err = run(capsys, "rootdemo", "--type", "A2",
                         "--offset=-\u0661")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: malformed rational string '-\u0661'\n"
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps(
        {"name": "wide", "vertices": [[-1, -1], ["\uff11\uff12", -1], [1, 1],
                                      [-1, 1]]}))
    code, out, err = run(capsys, "betti", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err == ("error: ValueError: malformed rational string "
                   "'\uff11\uff12'\n")


def test_malformed_json_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "betti", "--input", str(bad))
    assert code == 2


def test_deeply_nested_json_rejected(tmp_path, capsys):
    # exit 1 is reserved for a verification that ran and failed
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "verify", "--input", str(deep))
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_output_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--builtin", "hexagon",
                       "--format", "json", "--output", str(dest))
    assert code == 0
    assert out == ""
    obj = json.loads(dest.read_text())
    assert obj["isomorphism"] is True


def test_output_write_failure_names_the_error_type(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "analyze", "--builtin", "square",
                         "--output", str(dest))
    assert code == 2
    assert out == ""
    assert err.startswith("error: FileNotFoundError: ")
    assert not dest.parent.exists()


def test_rootdemo_g2_matches_reference(capsys):
    code, out, _ = run(capsys, "rootdemo", "--type", "G2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["polygon"]["name"] == "g2-weight-polytope"
    assert obj["golden"]["matches"] is True
    assert obj["golden"]["diff"] == []
    assert obj["golden"]["computed"] == obj["golden"]["expected"]


def test_rootdemo_other_types(capsys):
    for tag, edges in [("A2", 6), ("B2", 8), ("C2", 8)]:
        code, out, _ = run(capsys, "rootdemo", "--type", tag,
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["polygon"]["vertices"]) == edges
        assert "golden" not in obj


def test_rootdemo_uniform_offset(capsys):
    # A2 roots all have one length, so a uniform offset is fine
    code, out, _ = run(capsys, "rootdemo", "--type", "A2", "--offset", "-2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["offsets"] == ["-2", "-2"]
    # G2 mixes lengths; the uniform choice starves the long-root half-spaces
    code, _, err = run(capsys, "rootdemo", "--type", "G2", "--offset", "-1")
    assert code == 2


def test_rootdemo_spaced_negative_fraction_offset(capsys):
    # argparse reads "-1/2" as an option unless it is glued to --offset
    for tag in ("A2", "G2"):
        for fmt in ("text", "json"):
            spaced = run(capsys, "rootdemo", "--type", tag, "--offset",
                         "-1/2", "--format", fmt)
            glued = run(capsys, "rootdemo", "--type", tag, "--offset=-1/2",
                        "--format", fmt)
            assert spaced == glued
    assert run(capsys, "rootdemo", "--type", "A2", "--offs", "-1/2") == run(
        capsys, "rootdemo", "--type", "A2", "--offset=-1/2")
    code, out, _ = run(capsys, "rootdemo", "--type", "A2", "--offset", "-1/2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["offsets"] == ["-1/2", "-1/2"]


def test_error_messages_print_rationals_not_reprs(tmp_path, capsys):
    pentagram = {"name": "pentagram", "vertices": [
        [10, 0], [-8, 6], [3, -10], [3, 10], [-8, -6]]}
    cases = [
        ("verify", {"name": "flat", "vertices": [[-1, -1], [0, -1], [1, -1],
                                                 [0, 1]]}, "CollinearTriple"),
        ("betti", {"name": "dent", "vertices": [[-2, -2], [2, -2], [0, -1],
                                                [0, 2]]}, "NotConvex"),
        ("analyze", pentagram, "NotConvex"),
        ("betti", pentagram, "NotConvex"),
        ("verify", {"name": "square twice", "vertices": [
            [-1, -1], [1, -1], [1, 1], [-1, 1]] * 2}, "NotConvex"),
    ]
    for cmd, payload, kind in cases:
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, cmd, "--input", str(path))
        assert code == 2
        assert err.startswith(f"error: {kind}: ")
        assert "Fraction(" not in err
    code, _, err = run(capsys, "rootdemo", "--type", "G2", "--offset", "-1/2")
    assert code == 2
    assert err.startswith("error: DegenerateOffsets: offsets (-1/2, -1/2) ")
    from toricsym.catalog import house_pentagon
    from toricsym.errors import NotASymmetry
    from toricsym.symmetry import vertex_permutation
    flip = (1, 0, 0, -1)
    with pytest.raises(NotASymmetry) as info:
        vertex_permutation(house_pentagon(), flip)
    assert "Fraction(" not in str(info.value)
    assert str(info.value).startswith("image of vertex (")


def test_rootdemo_reference_mismatch_exits_1(capsys, monkeypatch):
    import toricsym.cli as climod
    wrong = (("id", 9, 9),) + climod.G2_EXPECTED_FIRST[1:]
    monkeypatch.setattr(climod, "G2_EXPECTED_FIRST", wrong)
    code, out, _ = run(capsys, "rootdemo", "--type", "G2", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["golden"]["matches"] is False
    assert obj["golden"]["diff"][0]["family"] == "first"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toricsym.cli", "betti", "--builtin", "square"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "b = (1, 2, 1)" in proc.stdout


# -- fuzzing the polygon input -------------------------------------------------

_rational_text = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**30, 10**30),
              st.one_of(st.integers(-3, 3), st.integers(1, 10**30))),
    st.sampled_from(["0/0", "1/0", "1/", "/2", " 3 ", "+1", "1_0", "1e3",
                     "0x10", "\u00bd", "\u0661", "\uff11\uff12",
                     "\u0663/\u0664", "-\u0662", ""]),
    st.text(max_size=5))
_coordinate = st.one_of(
    st.integers(-6, 6), st.integers(-10**40, 10**40), _rational_text,
    st.floats(allow_nan=False), st.booleans(), st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_SYMMETRIC = [
    [(1, 1), (-1, 1), (-1, -1), (1, -1)],
    [(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)],
    [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)],
    [(3, 0), (0, 1), (-3, 0), (0, -1)],
    [(0, 2), (-1, -1), (1, -1)],
]


def _write(x: Fraction, as_text: bool):
    if x.denominator == 1 and not as_text:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


@st.composite
def _near_symmetric_vertices(draw):
    """A symmetric convex polygon, scaled by a rational that may carry a huge
    denominator, then perhaps given a repeated vertex, a collinear midpoint,
    two swapped vertices or the reverse order."""
    pts = [tuple(map(Fraction, v)) for v in draw(st.sampled_from(_SYMMETRIC))]
    scale = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 9), max_value=9,
                     max_denominator=9),
        st.builds(lambda k: Fraction(1, 10**k), st.integers(20, 60))))
    pts = [(x * scale, y * scale) for x, y in pts]
    edit = draw(st.sampled_from(("none", "none", "repeat", "midpoint", "swap",
                                 "reverse", "rotate")))
    i = draw(st.integers(0, len(pts) - 1))
    j = (i + 1) % len(pts)
    if edit == "repeat":
        pts.insert(i, pts[i])
    elif edit == "midpoint":
        pts.insert(j, ((pts[i][0] + pts[j][0]) / 2, (pts[i][1] + pts[j][1]) / 2))
    elif edit == "swap":
        pts[i], pts[j] = pts[j], pts[i]
    elif edit == "reverse":
        pts.reverse()
    elif edit == "rotate":
        pts = pts[i:] + pts[:i]
    as_text = draw(st.booleans())
    return [[_write(x, as_text), _write(y, as_text)] for x, y in pts]


_halfspace = st.one_of(
    st.fixed_dictionaries({
        "normal": st.one_of(st.lists(st.integers(-3, 3), min_size=2,
                                     max_size=2), _coordinate),
        "offset": st.one_of(st.integers(-4, 0), _coordinate)}),
    st.dictionaries(st.sampled_from(["normal", "offset", "extra"]),
                    _coordinate, max_size=3))
_garbage_vertices = st.lists(
    st.one_of(st.lists(_coordinate, max_size=3), _coordinate), max_size=6)
_polygon_json = st.one_of(
    st.fixed_dictionaries({"name": st.text(max_size=4),
                           "vertices": _near_symmetric_vertices()}),
    st.fixed_dictionaries({"vertices": _near_symmetric_vertices()}),
    st.fixed_dictionaries({"vertices": st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2), max_size=8)}),
    st.fixed_dictionaries({"halfspaces": st.lists(_halfspace, max_size=6)}),
    st.fixed_dictionaries({"vertices": _garbage_vertices}),
    st.fixed_dictionaries({"vertices": _near_symmetric_vertices(),
                           "halfspaces": st.lists(_halfspace, max_size=2)}),
    st.fixed_dictionaries({"name": _coordinate,
                           "vertices": _near_symmetric_vertices()}),
    st.dictionaries(st.text(max_size=3), _coordinate, max_size=2),
    _coordinate)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_polygon_json, st.sampled_from(["text", "json"]))
def test_fuzzed_polygon_json_maps_to_an_exit_code(tmp_path_factory, obj, fmt):
    """Whatever the polygon JSON, analyze, betti, symmetries and verify
    return 0, 1 or 2 and never raise; 1 comes only from verify, after it has
    printed its report, and 2 only with an error line."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(obj))
    for command in ("analyze", "betti", "symmetries", "verify"):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--input", str(path), "--format", fmt])
        assert code in (0, 1, 2), (command, obj)
        event(f"{command} exit {code}")
        if code == 1:
            assert command == "verify", obj
            report = out.getvalue()
            assert ("isomorphism: false" in report if fmt == "text"
                    else json.loads(report)["isomorphism"] is False), obj
        elif code == 2:
            assert out.getvalue() == "", (command, obj)
            assert err.getvalue().startswith("error: "), (command, obj)
        else:
            assert out.getvalue() and not err.getvalue(), (command, obj)
