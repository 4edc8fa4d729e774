"""Self-tests for the benchmark's own arithmetic; no workload is run.

    python3 -m pytest -q clibench/test_clibench.py
"""

import json
import re
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "count": 0, "rss_bytes": 0}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_nested_and_siblings(self):
        spans = [span("main", 0.0, 10.0),
                 span("a", 1.0, 4.0, 0),     # sibling of b
                 span("a.inner", 2.0, 3.5, 1),
                 span("b", 5.0, 9.0, 0),
                 span("b.inner", 5.5, 6.0, 3)]
        self.assertEqual(tracer.self_times(spans), [3.0, 1.5, 1.5, 3.5, 0.5])

    def test_outermost_time_counts_recursion_once(self):
        spans = [span("main", 0.0, 10.0),
                 span("f", 1.0, 6.0, 0),
                 span("g", 2.0, 3.0, 1),
                 span("f", 3.0, 4.0, 2),
                 span("f", 7.0, 8.0, 0)]
        self.assertEqual(tracer.outermost_time(spans, ("f",)), 6.0)
        self.assertEqual(tracer.outermost_time(spans, ("f", "g")), 6.0)
        self.assertEqual(tracer.outermost_time(spans, ("missing",)), 0.0)

    def test_summary_of_empty_trace_is_all_zero_but_wall(self):
        summary = run.summarize([{"import_s": 0.5, "unmeasured": ["x.y"], "spans": []}],
                                ("explore.explore",), 2.0, 0.5)
        metrics = {name: value(summary) for name, _, value in run.LAYER_METRICS}
        self.assertEqual(metrics["cli.import_s"], 0.5)
        self.assertEqual(metrics["trace.overhead_s"], 0.5)
        self.assertEqual(metrics["trace.unmeasured"], 1)
        self.assertEqual(metrics["explore.explore.vertices_per_s"], 0.0)


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(per_layer, [(n, u) for n, u, _ in run.LAYER_METRICS])
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"]] + [n for n, _ in per_layer]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_heavy_names_are_probed(self):
        for workload in run.WORKLOADS.values():
            self.assertLessEqual(set(workload.heavy), set(tracer.PROBES))


CORE_SOURCE = """
def work(n):
    return list(range(n))

class Box:
    def __init__(self, n):
        self.n = n

    def grow(self):
        return work(self.n)

    @classmethod
    def make(cls, n):
        return cls(n)
"""


class TracerInstall(unittest.TestCase):
    def setUp(self):
        core = types.ModuleType("fakepkg.core")
        user = types.ModuleType("fakepkg.user")
        exec(CORE_SOURCE, vars(core))
        user.work = core.work  # as after "from .core import work"
        self.modules = {"fakepkg": types.ModuleType("fakepkg"),
                        "fakepkg.core": core, "fakepkg.user": user}
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_missing_names_are_unmeasured(self):
        probes = {"core.work": tracer.Probe(count=lambda args, res: len(res)),
                  "core.gone": tracer.Probe(),
                  "core.Box.shrink": tracer.Probe(),
                  "core.Box.make": tracer.Probe(count=lambda args, res: res.size),
                  "nomodule.work": tracer.Probe()}
        t = tracer.Tracer("fakepkg", probes)
        self.assertEqual(t.install(), ["core.gone", "core.Box.shrink", "nomodule.work"])
        sys.modules["fakepkg.user"].work(3)
        sys.modules["fakepkg.core"].Box.make(1)
        self.assertEqual([(s["name"], s["count"]) for s in t.spans],
                         [("core.work", 3), ("core.Box.make", 0)])
        self.assertEqual(t.uncounted, {"core.Box.make"})

    def test_rebinds_every_module_and_wraps_methods(self):
        probes = {"core.work": tracer.Probe(), "core.Box.grow": tracer.Probe(),
                  "core.Box.make": tracer.Probe()}
        t = tracer.Tracer("fakepkg", probes)
        self.assertEqual(t.install(), [])
        core = sys.modules["fakepkg.core"]
        self.assertIs(sys.modules["fakepkg.user"].work, core.work)
        self.assertEqual(core.Box.make(2).grow(), [0, 1])
        self.assertEqual([(s["name"], s["parent"]) for s in t.spans],
                         [("core.Box.make", None), ("core.Box.grow", None),
                          ("core.work", 1)])


class SpaceGenerator(unittest.TestCase):
    def test_deterministic_per_seed(self):
        self.assertEqual(run.generate_space(7), run.generate_space(7))
        self.assertNotEqual(run.generate_space(7), run.generate_space(8))

    def test_clusters_are_separated(self):
        space = run.generate_space(3)
        d = space["distances"]
        owner = [c for c, size in enumerate(run.CLUSTER_SIZES) for _ in range(size)]
        self.assertEqual(len(space["points"]), len(owner))
        diameter = max(d[i][j] for i in range(len(d)) for j in range(len(d))
                       if owner[i] == owner[j])
        gap = min(d[i][j] for i in range(len(d)) for j in range(len(d))
                  if owner[i] != owner[j])
        self.assertGreater(gap, run.PARTITION_FACTOR * diameter)


if __name__ == "__main__":
    unittest.main()
