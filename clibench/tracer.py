"""Span tracer that wraps named endslab functions from outside the program.

Imported by the harness for the span arithmetic, and run as a script for a
traced command:

    python3 clibench/tracer.py SPANS.json -- growth --group '{"family":"z"}' --rmax 9

The script times ``import endslab.cli``, wraps every name in ``PROBES``,
runs ``endslab.cli.main`` in-process with the remaining arguments, writes the
spans to SPANS.json and exits with the command's exit code.

A name is looked up when the tracer is installed. One that is missing (a
refactor renamed or removed it), or whose result no longer has the counted
attribute, is reported as unmeasured rather than failing the run. A
function is replaced in every loaded module of the package that bound the
same object, so ``cli`` and ``classify`` calls to ``explore`` or
``build_gl_partition`` are seen as well.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


@dataclass(frozen=True)
class Probe:
    """What to record per call: an optional work count, and RSS growth."""

    count: Optional[Callable] = None    # (args, result) -> int
    rss: bool = False


# Names are "<module>.<function>" or "<module>.<Class>.<method>" inside the
# package. Only these are wrapped: every other function's time counts as
# self time of the nearest wrapped caller.
PROBES = {
    "cli.main": Probe(),
    "groups.make_group": Probe(),
    "explore.explore": Probe(count=lambda args, res: len(res), rss=True),
    "explore.sphere_size_series": Probe(count=lambda args, res: res.nodes, rss=True),
    "explore.BallTable.bfs_from": Probe(count=lambda args, res: len(res)),
    "explore.BallTable.id_of": Probe(),
    "explore.build_axis": Probe(),
    "ends.end_depth_profile": Probe(),
    "ends.end_count_estimate": Probe(),
    "glpartition.FiniteMetricSpace.from_json": Probe(),
    "glpartition.FiniteMetricSpace.validate": Probe(
        count=lambda args, res: len(args[0].labels) ** 3),
    "glpartition.build_gl_partition": Probe(count=lambda args, res: res.iterations),
    "glpartition.verify_gl_partition": Probe(),
    "glpartition.sphere_as_metric_space": Probe(),
    "glpartition.similar_partitions": Probe(),
    "classify.linear_end_depth_check": Probe(),
    "classify.sphere_cover_demo": Probe(),
    "manifest.render_json_report": Probe(count=lambda args, res: len(res.encode())),
    "manifest.render_csv_table": Probe(count=lambda args, res: len(res.encode())),
}


class Tracer:
    """Records one span per call of each wrapped function, kept in memory.

    A span is a dict with the name, start and end (seconds on the
    perf_counter clock), the index of the enclosing span (or None), the
    probe's count and the RSS growth in bytes.
    """

    def __init__(self, package: str, probes: dict):
        self.package = package
        self.probes = probes
        self.spans: list = []
        self.uncounted: set = set()   # names whose count no longer applies
        self._stack: list = []

    def install(self) -> list:
        """Wrap every probed name that exists; return the names that do not."""
        unmeasured = []
        for name in self.probes:
            found = self._resolve(name)
            if found is None:
                unmeasured.append(name)
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, raw))
            else:
                self._rebind(raw, self._wrap(name, raw))
        return unmeasured

    def _resolve(self, name: str):
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if not isinstance(owner, type):
                return None
        attr = path[-1]
        if isinstance(owner, type):
            raw = next((vars(k)[attr] for k in owner.__mro__ if attr in vars(k)), None)
        else:
            raw = getattr(owner, attr, None)
        if not callable(raw) and not isinstance(raw, (classmethod, staticmethod)):
            return None
        return owner, attr, raw

    def _rebind(self, original, wrapper) -> None:
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, func):
        probe = self.probes[name]
        spans = self.spans
        stack = self._stack
        uncounted = self.uncounted
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "count": 0, "rss_bytes": 0}
            stack.append(len(spans))
            spans.append(span)
            rss_before = _rss_bytes() if probe.rss else 0
            span["start"] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if probe.rss:
                span["rss_bytes"] = _rss_bytes() - rss_before
            if probe.count is not None:
                try:
                    span["count"] = probe.count(args, result)
                except (AttributeError, TypeError):
                    uncounted.add(name)
            return result

        return traced


def self_times(spans: list) -> list:
    """Per span, its duration minus the time its direct child spans cover.

    Spans of one thread nest properly, so the direct children of a span are
    disjoint and lie inside it; grandchildren are already inside a child.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def outermost_time(spans: list, names) -> float:
    """Time covered by spans with one of ``names``, counting nested ones once."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            total += span["end"] - span["start"]
    return total


def _main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- ENDSLAB-ARGS...", file=sys.stderr)
        return 2
    started = time.perf_counter()
    import endslab.cli
    import_s = time.perf_counter() - started
    tracer = Tracer("endslab", PROBES)
    unmeasured = tracer.install()
    try:
        code = endslab.cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s,
                       "unmeasured": unmeasured + sorted(tracer.uncounted),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
