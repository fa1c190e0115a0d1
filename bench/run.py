"""Layered benchmark for toricsym: end-to-end task timings per workload, and a
traced run that gives per-layer self times.

    python3 bench/run.py --workload mirror --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, untraced

Run it from the repository root; it imports toricsym from ./src. Load is a
closed loop: one client in this single-threaded process sends each task
through `toricsym.cli.main` with `--format json` and waits for the verdict.
A run does a fixed number of passes over the workload's task list, sized
from --seconds at the seed's speed, so a run's sample count depends only on
the workload and --seconds. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("mirror", "dihedral", "inspect")
# seconds one untraced pass takes at the seed, on the 2-core x86 host the
# baseline in README.md was measured on (Python 3.11), when the host is quiet
PASS_SECONDS = {"mirror": 5.5, "dihedral": 5.0, "inspect": 1.0}
# traced passes: a traced verify task costs about four untraced ones
TRACE_PASSES = {"mirror": 1, "dihedral": 1, "inspect": 6}
SETUP_REPEATS = 7
END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_p50_s": "s",
                    "task_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import toricsym from this checkout's src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "toricsym", "__init__.py")):
        sys.exit(f"bench: no toricsym sources under {SRC}")
    sys.path.insert(0, SRC)
    import toricsym
    if os.path.dirname(os.path.dirname(os.path.abspath(toricsym.__file__))) != SRC:
        sys.exit(f"bench: toricsym was imported from {toricsym.__file__}, "
                 f"not from {SRC}")
    from toricsym import cli
    return cli


def call_cli(cli, argv):
    """(exit code or None on a traceback, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def setup_time(workdir: str) -> float:
    """Wall time of a fresh interpreter that imports toricsym and parses
    every input of the workload."""
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                    SRC, workdir], check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten pooled samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    idx = n - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / n, beyond


def report_failure(task, problems):
    print(f"FAILED {task.id}: " + "; ".join(problems), file=sys.stderr)


def untraced_passes(cli, tasks, passes, check, before_pass):
    """Latencies of every task in every pass; before_pass(k) runs first."""
    latencies, failed = [], 0
    for k in range(passes):
        before_pass(k)
        for task in tasks:
            t0 = perf_counter()
            code, out, err = call_cli(cli, task.argv)
            latencies.append(perf_counter() - t0)
            problems = check(task, code, out, err)
            if problems:
                failed += 1
                report_failure(task, problems)
    return latencies, failed


def traced_passes(cli, tasks, passes, check, tracer):
    """Each task: its CLI call under a cli.main.<subcommand> span, then the
    replay of its public calls. Returns (attempted, failed, counters)."""
    from replay import SIZE_KEYS, replay_task

    counters = dict.fromkeys(SIZE_KEYS + ("cli.rejects",), 0)
    bits = 0
    attempted = failed = 0
    for _ in range(passes):
        for task in tasks:
            tracer.task = task.id
            with tracer.span("task"):
                with tracer.span("cli.main." + task.argv[0]):
                    code, out, err = call_cli(cli, task.argv)
                problems = check(task, code, out, err)
                try:
                    more, sizes = replay_task(tracer, task)
                except Exception:
                    more, sizes = [traceback.format_exc()], {}
            problems += more
            attempted += 1
            if problems:
                failed += 1
                report_failure(task, problems)
            counters["cli.rejects"] += code == 2
            for key in SIZE_KEYS:
                counters[key] += sizes.get(key, 0)
            bits = max(bits, sizes.get("table_bits", 0))
    per_pass = {k: v / passes for k, v in counters.items()}
    per_pass["sizes.table_max_bits"] = bits
    return attempted, failed, per_pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_library()
    import workloads
    from spans import Tracer

    workdir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer()
    tracer.task = "setup"
    try:
        make = (lambda fn: tracer.call("catalog.polygon", fn)) if trace \
            else (lambda fn: fn())
        tasks = workloads.build_tasks(workload, seed, workdir, make)
        if trace:
            return traced_run(cli, workload, seed, tasks, tracer)
        # warm-up: the first call pays argparse and lazy-import costs
        call_cli(cli, tasks[0].argv)
        passes = max(1, round(seconds / PASS_SECONDS[workload]))
        # set-up probes are spread over the passes, so that they sample the
        # host over the same stretch of time as the tasks
        setups = []
        probe_before = [i * passes // SETUP_REPEATS for i in range(SETUP_REPEATS)]

        def probes(k):
            for _ in range(probe_before.count(k)):
                setups.append(setup_time(workdir))

        latencies, failed = untraced_passes(cli, tasks, passes,
                                            workloads.check, probes)
        setup_s = statistics.median(setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Each pooled sample is its task's best time over the passes: slow
    # phases of a shared host only ever add time, and they last long enough
    # to cover whole passes.
    best = [min(latencies[i::len(tasks)]) for i in range(len(tasks))]
    pooled = best * passes
    value, pct, beyond = tail(pooled)
    metrics = {
        "tasks_per_s": len(tasks) / sum(best),
        "task_p50_s": statistics.median(pooled),
        "task_tail_s": value,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {"task_tail_s": f"p{pct:.2f}, {beyond} of {len(pooled)} "
                            "samples beyond"}
    return _result(metrics, END_TO_END_UNITS, len(latencies), failed, notes)


def traced_run(cli, workload, seed, tasks, tracer) -> dict:
    import workloads
    from spans import coverage, layer_totals, span_cost

    passes = TRACE_PASSES[workload]
    attempted, failed, counters = traced_passes(cli, tasks, passes,
                                                workloads.check, tracer)
    tracer.dump(os.path.join(WORK, f"trace-{workload}-s{seed}.json"))
    metrics, units = layer_metrics(layer_totals(tracer.spans), passes)
    metrics.update(counters)
    units.update({k: "count" for k in counters})
    units["sizes.table_max_bits"] = "bits"
    # The traced total exceeds the untraced one by the spans' own
    # bookkeeping. Measuring that directly resolves what comparing two
    # passes cannot: per-call noise here is about 10^5 times a span's cost.
    cost = span_cost()
    traced = sum(s.end - s.start for s in tracer.spans if s.name == "task")
    metrics["trace.coverage"] = coverage(tracer.spans)
    metrics["trace.span_cost_s"] = cost
    metrics["trace.overhead"] = cost * len(tracer.spans) / traced
    units["trace.coverage"] = units["trace.overhead"] = "ratio"
    units["trace.span_cost_s"] = "s"
    return _result(metrics, units, attempted, failed, {})


LAYER_SPANS = (
    "geometry.polygon_from_json", "symmetry.detect_reflections",
    "symmetry.dihedral_group", "cli.select_group",
    "symmetry.fundamental_region", "symmetry.coefficients",
    "cohomology.ring_polygon", "cohomology.ring_region", "theorem.build_map",
    "theorem.check_well_defined", "theorem.group_ring_actions",
    "cohomology.invariant_deg2", "theorem.check_image_invariant",
    "cohomology.reynolds_crosscheck", "cohomology.reynolds_image",
    "exactlin.spans_equal", "theorem.check_isomorphism",
    "theorem.verify_theorem", "cli.main.analyze", "cli.main.symmetries",
    "cli.main.verify", "cli.main.rootdemo", "rootsystems.weight_polytope",
    "rootsystems.golden_table", "catalog.polygon",
)


def layer_metrics(totals, passes):
    """<span>_s (self seconds per pass) and <span>_calls for every layer
    span. build_map's is named theorem.build_map_self_s: its span less the
    two ring builds inside it."""
    metrics, units = {}, {}
    for name in LAYER_SPANS:
        self_s, calls = totals.get(name, (0.0, 0))
        key = name + ("_self_s" if name == "theorem.build_map" else "_s")
        metrics[key] = self_s / passes
        metrics[name + "_calls"] = calls / passes
        units[key], units[name + "_calls"] = "s", "count"
    return metrics, units


def _result(metrics, units, attempted, failed, notes):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "notes": notes}


def print_result(workload, res):
    for name, m in res["metrics"].items():
        note = res["notes"].get(name)
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(f"{workload} failed_frac {res['failed'] / res['attempted']:.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} tasks)")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process so that peak_rss_mb is its
    own; prints each workload's lines and one combined JSON line."""
    import_library()  # fail before any output when the sources are missing
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result",
                  file=sys.stderr)
            final["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        final["correct"] = final["correct"] and res["correct"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        final["metrics"].update({f"{name}.{k}": m
                                 for k, m in res["metrics"].items()})
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload; default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}, sort_keys=True))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
