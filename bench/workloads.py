"""The three workloads: their task lists and the check of every CLI outcome.

A task is one `toricsym` command line run through `toricsym.cli.main` with
`--format json`. Its expected outcome comes from how its input was built
(see generators.py); check() compares the exit code, the parsed JSON and
the error line against it and returns the problems found, never raising.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import generators as gen

ELL2_WARNING = ("dihedral group with ell=2 (perpendicular mirrors): outside "
                "the usual ell>=3 setting, handled anyway")
REORDER_WARNING = ("generators reordered so that the mirror crossing an edge "
                   "interior is s1")

# (family, shape, k) per generated verify task
MIRROR_SPECS = [("mirror", shape, k) for shape in ("1-1", "1-2", "1-3")
                for k in range(4, 8)]
DIHEDRAL_SPECS = [
    ("d2", "2-1", 2), ("d2", "2-2", 2), ("d2", "2-3", 2),
    ("d4", "2-1", 1), ("d4", "2-2", 1), ("d4", "2-3", 1),
    ("d3", "2-1", 1), ("d3", "2-2", 2), ("d3", "2-3", 1),
    ("d6", "2-1", 1), ("d6", "2-2", 1),
]
INSPECT_SPECS = [
    ("mirror", "1-1", 12), ("d3", "2-1", 5), ("d4", "2-2", 4),
    ("d6", "2-2", 3), ("d2", "2-3", 12), ("mirror", "1-3", 29),
    ("d4", "2-1", 9), ("d6", "2-1", 7), ("mirror", "1-1", 50),
]
ROOT_TYPES = {"A2": 6, "B2": 8, "C2": 8, "G2": 12}   # weight polytope edges

# catalog polygons: (constructor, case, m, group order, reorder warning),
# the shapes their catalog docstrings describe
CATALOG = {
    "house": ("house_pentagon", "1-2", 5, 2, False),
    "g2": ("g2_polytope", "2-1", 12, 12, False),
    "d12": ("d12_polytope", "2-3", 12, 12, False),
    "ninegon": ("ninegon", "2-2", 9, 6, True),
}
WORKLOAD_CATALOG = {"mirror": ("house",), "dihedral": ("g2", "d12", "ninegon"),
                    "inspect": ()}


@dataclass
class Task:
    id: str
    argv: list[str]
    kind: str                       # verify | analyze | symmetries | reject | rootdemo
    expect: dict = field(default_factory=dict)
    path: str | None = None         # the polygon JSON file, when there is one


def verify_expect(case: str, n: int, m: int, order: int,
                  reorder: str) -> dict:
    """reorder: "required", "allowed" or "forbidden" for REORDER_WARNING."""
    return {"case": case, "n": n, "m": m, "order": order,
            "dims": gen.graded_dims(case, n),
            "coefficients": n if order == 2 else m,
            "warnings": [ELL2_WARNING] if order == 4 else [],
            "reorder": reorder}


def _write(workdir: str, obj: dict) -> str:
    path = os.path.join(workdir, obj["name"] + ".json")
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _verify_task(tid: str, path: str, expect: dict) -> Task:
    return Task(tid, ["verify", "--input", path, "--format", "json"],
                "verify", expect, path)


def build_tasks(workload: str, seed: int, workdir: str, make) -> list[Task]:
    """Generate the workload's inputs into workdir and return its task list.

    make(fn) calls a catalog constructor; the traced run wraps it in a span.
    """
    from toricsym import catalog

    tasks: list[Task] = []
    if workload in ("mirror", "dihedral"):
        specs = MIRROR_SPECS if workload == "mirror" else DIHEDRAL_SPECS
        for fam, shape, k in specs:
            inst = gen.generate(fam, shape, k, seed)
            reorder = "allowed" if shape == "2-2" else "forbidden"
            expect = verify_expect(shape, inst.n, inst.m, inst.order, reorder)
            tasks.append(_verify_task(inst.name, _write(workdir, inst.to_json()),
                                      expect))
        for name in WORKLOAD_CATALOG[workload]:
            ctor, case, m, order, reorder = CATALOG[name]
            poly = make(getattr(catalog, ctor))
            n = gen.expected_n(case, m, order // 2)
            expect = verify_expect(case, n, m, order,
                                   "required" if reorder else "forbidden")
            tasks.append(_verify_task(name, _write(workdir, poly.to_json(name)),
                                      expect))
        return tasks
    if workload != "inspect":
        raise ValueError(f"unknown workload {workload!r}")
    last = None
    for fam, shape, k in INSPECT_SPECS:
        inst = gen.generate(fam, shape, k, seed)
        path = _write(workdir, inst.to_json())
        mirrors = 1 if fam == "mirror" else gen.ELL[fam]
        shape_expect = {"m": inst.m, "mirrors": mirrors,
                        "order": None if fam == "mirror" else inst.order}
        tasks.append(Task(f"{inst.name}:analyze",
                          ["analyze", "--input", path, "--format", "json"],
                          "analyze", shape_expect, path))
        tasks.append(Task(f"{inst.name}:symmetries",
                          ["symmetries", "--input", path, "--format", "json"],
                          "symmetries", shape_expect, path))
        bent = replace(inst, name=inst.name + "-pulled",
                       vertices=gen.perturbed(inst))
        bent_path = _write(workdir, bent.to_json())
        tasks.append(Task(f"{inst.name}:pulled",
                          ["verify", "--input", bent_path, "--format", "json"],
                          "reject", {"error": "error: NotASymmetry: "}, bent_path))
        tasks.append(Task(f"{inst.name}:reflection99",
                          ["verify", "--input", path, "--group", "reflection:99",
                           "--format", "json"],
                          "reject",
                          {"error": "error: ValueError: reflection index 99 "
                                    "out of range"}, path))
        last = inst
    floats = last.to_json()
    floats["name"] = last.name + "-float"
    x, y = last.vertices[-1]
    floats["vertices"][-1] = [float(x), gen.fmt(y)]
    float_path = _write(workdir, floats)
    tasks.append(Task(f"{last.name}:float",
                      ["verify", "--input", float_path, "--format", "json"],
                      "reject", {"error": "error: ValueError: floating point "
                                          "value"}, float_path))
    for tag, edges in ROOT_TYPES.items():
        tasks.append(Task(f"rootdemo:{tag}",
                          ["rootdemo", "--type", tag, "--format", "json"],
                          "rootdemo", {"type": tag, "m": edges}))
    return tasks


def check(task: Task, code, out: str, err: str) -> list[str]:
    """Problems with one outcome; an empty list means the task passed."""
    exp = task.expect
    if code is None:
        return ["raised " + err.strip().splitlines()[-1] if err.strip()
                else "raised"]
    if task.kind == "reject":
        problems = [] if code == 2 else [f"exit {code}, expected 2"]
        if not err.startswith(exp["error"]):
            problems.append(f"stderr {err.strip()!r}")
        if out:
            problems.append("printed a report")
        return problems
    if code != 0:
        return [f"exit {code}, expected 0: {err.strip()}"]
    try:
        doc = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    try:
        return _check_report(task.kind, exp, doc)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"report has an unexpected shape: {exc!r}"]


def _check_report(kind: str, exp: dict, doc: dict) -> list[str]:
    if kind == "verify":
        return _check_verify(exp, doc)
    if kind == "analyze":
        got = (doc.get("m"), len(doc.get("vertices", ())),
               len(doc.get("edges", ())))
        return [] if got == (exp["m"],) * 3 else [f"m/vertices/edges {got}"]
    if kind == "symmetries":
        maximal = doc.get("maximal_dihedral")
        got = (len(doc.get("reflections", ())),
               maximal["order"] if maximal else None)
        want = (exp["mirrors"], exp["order"])
        return [] if got == want else [f"mirrors/order {got}, expected {want}"]
    if kind == "rootdemo":
        problems = []
        if doc.get("type") != exp["type"]:
            problems.append(f"type {doc.get('type')}")
        if len(doc.get("polygon", {}).get("vertices", ())) != exp["m"]:
            problems.append("weight polytope has the wrong edge count")
        if exp["type"] == "G2":
            golden = doc.get("golden") or {}
            if golden.get("matches") is not True or golden.get("diff"):
                problems.append("G2 table differs from the frozen rows")
        return problems
    raise ValueError(f"unknown task kind {kind!r}")


def _check_verify(exp: dict, doc: dict) -> list[str]:
    problems = []
    for key in ("isomorphism", "pd_shortcut_agrees"):
        if doc.get(key) is not True:
            problems.append(f"{key} is {doc.get(key)!r}")
    for key in ("well_defined", "image_invariant"):
        if (doc.get(key) or {}).get("ok") is not True:
            problems.append(f"{key} failed")
    if (doc.get("case"), doc.get("n")) != (exp["case"], exp["n"]):
        problems.append(f"case {doc.get('case')} n {doc.get('n')}, expected "
                        f"{exp['case']} n {exp['n']}")
    if doc.get("graded_dims") != exp["dims"]:
        problems.append(f"graded_dims {doc.get('graded_dims')}")
    coeffs = doc.get("coefficients") or {}
    if len(coeffs.get("c", ())) != exp["coefficients"]:
        problems.append(f"{len(coeffs.get('c', ()))} coefficients, expected "
                        f"{exp['coefficients']}")
    warnings = doc.get("warnings", [])
    if [w for w in warnings if w != REORDER_WARNING] != exp["warnings"]:
        problems.append(f"warnings {warnings}")
    has_reorder = REORDER_WARNING in warnings
    if (exp["reorder"] == "required" and not has_reorder) or (
            exp["reorder"] == "forbidden" and has_reorder):
        problems.append("reorder warning "
                        + ("unexpected" if has_reorder else "missing"))
    return problems
