"""Benchmark-local tests (standard library only):

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generators as gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, coverage, layer_totals, self_times  # noqa: E402
from toricsym.cli import select_group  # noqa: E402
from toricsym.geometry import polygon_from_vertices  # noqa: E402
from toricsym.symmetry import (  # noqa: E402
    Reflection, detect_reflections, fundamental_region,
)


def _inputs(workload, seed, name):
    workdir = os.path.join(run.WORK, f"test-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        tasks = workloads.build_tasks(workload, seed, workdir, lambda f: f())
        files = {}
        for fname in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, fname), "rb") as fh:
                files[fname] = fh.read()
        return [t.argv[0] for t in tasks], files
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            first = _inputs(workload, 7, "a")
            self.assertEqual(first, _inputs(workload, 7, "b"), workload)
            self.assertNotEqual(first[1], _inputs(workload, 8, "c")[1], workload)

    def test_families_have_the_claimed_shape(self):
        for family, shape in gen.MIRROR_SEEDS:
            for seed in (0, 1):
                k = gen.smallest_k(family, shape)
                inst = gen.generate(family, shape, k, seed)
                p = polygon_from_vertices(inst.vertices)
                group = select_group(p, "auto")
                order = 2 if isinstance(group, Reflection) else group.order
                fr = fundamental_region(p, group)
                self.assertEqual((fr.kind, fr.n, p.m, order),
                                 (shape, inst.n, inst.m, inst.order), inst.name)
                bent = polygon_from_vertices(gen.perturbed(inst))
                self.assertEqual(detect_reflections(bent), (), inst.name)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_trace(self):
        spans = [
            Span("task", 0.0, 10.0, None, "t"),
            Span("theorem.replay", 1.0, 9.0, 0, "t"),
            Span("theorem.build_map", 1.0, 4.5, 1, "t"),
            Span("cohomology.ring_polygon", 1.0, 3.0, 2, "t"),
            Span("cohomology.ring_region", 3.0, 4.0, 2, "t"),
            Span("cohomology.reynolds_crosscheck", 4.5, 6.0, 1, "t"),
            Span("exactlin.spans_equal", 5.0, 5.5, 5, "t"),
            Span("theorem.verify_theorem", 9.0, 10.0, 0, "t"),
            Span("cohomology.ring_polygon", 20.0, 21.0, None, "u"),
        ]
        self.assertEqual(self_times(spans),
                         [1.0, 3.0, 0.5, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0])
        totals = layer_totals(spans)
        self.assertEqual(totals["cohomology.ring_polygon"], (3.0, 2))
        self.assertEqual(totals["theorem.build_map"], (0.5, 1))
        # replayed layers: 0.5 + 2 + 1 + 1 + 0.5 = 5 over 1 s of direct calls
        self.assertEqual(coverage(spans), 5.0)

    def test_tail_leaves_ten_samples_beyond(self):
        value, pct, beyond = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, pct, beyond), (29.0, 75.0, 10))


if __name__ == "__main__":
    unittest.main()
