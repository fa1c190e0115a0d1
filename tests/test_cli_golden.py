"""Frozen CLI output, compared byte for byte.

Each case is one command line; the expected exit code, stdout and stderr
live in tests/data/cli_golden.json. Keys without a suffix are `--format
json` runs; keys ending in " text" are `--format text` runs. The `verify`
text's `group:` line is the only place the CLI describes the selected
group; `betti` prints the intersection pairing and `rootdemo` the weight
polytopes built from the Weyl group matrices. Refactors of the symmetry
and linear-algebra bookkeeping must leave every one of them identical. After an intended change of
output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from toricsym.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")
BUILTIN_NAMES = ("square", "hexagon", "g2", "d12")
MIRROR_COUNTS = {"square": 4, "hexagon": 6, "g2": 6, "d12": 6}
SELECTORS = ("auto", "dihedral:0,1")


def selectors(name: str) -> tuple[str, ...]:
    """Both group selectors and every single mirror of a builtin."""
    return SELECTORS + tuple(
        f"reflection:{k}" for k in range(MIRROR_COUNTS[name]))


def cases() -> dict[str, list[str]]:
    out = {}
    for name in BUILTIN_NAMES:
        out[f"symmetries {name}"] = ["symmetries", "--builtin", name]
    for name in BUILTIN_NAMES:
        for spec in selectors(name):
            out[f"verify {name} {spec}"] = [
                "verify", "--builtin", name, "--group", spec]
    for name in ("house", "ninegon"):
        out[f"verify --input {name}"] = [
            "verify", "--input", os.path.join(DATA, f"{name}.json")]
    for command in ("analyze", "betti"):
        for name in BUILTIN_NAMES:
            out[f"{command} {name}"] = [command, "--builtin", name]
        for name in ("house", "ninegon"):
            out[f"{command} --input {name}"] = [
                command, "--input", os.path.join(DATA, f"{name}.json")]
    for rstype in ("A2", "B2", "C2", "G2"):
        out[f"rootdemo {rstype}"] = ["rootdemo", "--type", rstype]
    full = {k: argv + ["--format", "json"] for k, argv in out.items()}
    for key, argv in out.items():
        if argv[0] != "symmetries":
            full[f"{key} text"] = argv + ["--format", "text"]
    return full


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(cases()))
def test_cli_output_matches_golden(key):
    assert run_case(cases()[key]) == load_golden()[key]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_auto_picks_first_listed_maximal_pair(name):
    golden = load_golden()
    sym = json.loads(golden[f"symmetries {name}"]["stdout"])
    i, j = sym["maximal_dihedral"]["generating_pairs"][0]
    argv = ["verify", "--builtin", name, "--group", f"dihedral:{i},{j}",
            "--format", "json"]
    assert run_case(argv) == golden[f"verify {name} auto"]


if __name__ == "__main__":
    golden = {key: run_case(argv) for key, argv in cases().items()}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
