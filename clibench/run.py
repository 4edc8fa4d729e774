"""Benchmark of the endslab command line, measured from outside the program.

Run from the repository root:

    python3 clibench/run.py --workload lamp_end_depth --seed 1 --seconds 25 --trace 0

A workload is a fixed list of ``endslab`` commands. Each is run as a cold
process, one at a time, and every report it writes is checked. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it gives the details of the run,
the seed among them.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: spawn to exit summed over the workload's commands, the median
  of as many repetitions as fit in ``--seconds``;
- ``peak_rss_mb``: the largest peak RSS among the workload's processes;
- ``setup_s``: the median of several cold starts that import ``endslab.cli``
  and build the workload's groups from their specs.

Both times are calibrated against a fixed loop timed next to each process
(see ``REFERENCE_S``); the raw seconds are in the detail line.

``--trace 1`` runs the same untraced repetitions, then each command once more
under ``tracer.py`` and reports per-layer metrics named
``<module>.<function>.<quantity>`` from the spans.

Only ``metric_partition`` depends on the seed: the harness generates its
metric space and the program receives only that file. The other workloads
have fixed inputs, so their reports are pinned by SHA-256; report bytes must
stay unchanged across refactors.

The program is imported from ``src`` next to this directory; compiled
bytecode and scratch files go under ``.bench_build``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_PER_REP = 4
SETUP_MIN = 9
COMMAND_TIMEOUT_S = 150
SETUP_CODE = ("import sys, endslab, endslab.cli\n"
              "for spec in sys.argv[1:]:\n"
              "    endslab.make_group(endslab.parse_group_spec(spec))\n")

# On a shared 2-vCPU virtual machine the speed of the host drifts by 20-40%
# over tens of seconds, which repetition inside one run does not average
# out: per-run medians of raw wall time spread by 12-32% (IQR/median over
# 10 runs). Each process's wall time is therefore divided by the mean time
# of a fixed loop run in the harness just before and just after it, and
# multiplied by REFERENCE_S, which brings that spread to 5-13%. Times are
# reported in seconds of a host on which the loop takes REFERENCE_S. The
# loop does not touch the program, so a change to the program cannot move it.
REFERENCE_S = 0.1
REFERENCE_ITERATIONS = 1_000_000


# metric_partition: clusters of integer points in the L1 plane, each a
# random walk with steps of length at most 3 inside a box of its own scale,
# so expansion needs several rounds to absorb a cluster. Cluster boxes sit
# in cells SPACING apart, far beyond 3 * (largest cluster diameter), so the
# a = 3 partition has exactly one block per cluster. Sizes and scales are
# fixed, so every seed gives the same point count and the same work shape.
CLUSTER_SIZES = (80, 52, 40, 30, 20, 12, 6)
HALF_WIDTHS = (24, 16, 12, 9, 6, 4, 3)
SPACING = 1000
JITTER = 100
GRID = 3
WALK_STEPS = tuple((dx, dy) for dx in range(-3, 4) for dy in range(-3, 4)
                   if 0 < abs(dx) + abs(dy) <= 3)
PARTITION_FACTOR = 3


def generate_space(seed: int) -> dict:
    """A metric space in the ``glpartition --input`` format, fixed by the seed."""
    rng = random.Random(seed)
    cells = rng.sample(range(GRID * GRID), len(CLUSTER_SIZES))
    points = []
    for cell, size, half in zip(cells, CLUSTER_SIZES, HALF_WIDTHS):
        cx = (cell % GRID) * SPACING + rng.randint(-JITTER, JITTER)
        cy = (cell // GRID) * SPACING + rng.randint(-JITTER, JITTER)
        x = y = 0
        walk = [(0, 0)]
        seen = {(0, 0)}
        while len(walk) < size:
            dx, dy = rng.choice(WALK_STEPS)
            x = max(-half, min(half, x + dx))
            y = max(-half, min(half, y + dy))
            if (x, y) not in seen:
                seen.add((x, y))
                walk.append((x, y))
        points.extend((cx + px, cy + py) for px, py in walk)
    labels = [f"p{i}" for i in range(len(points))]
    distances = [[abs(x1 - x2) + abs(y1 - y2) for x2, y2 in points]
                 for x1, y1 in points]
    return {"points": labels, "distances": distances}


# ---- output checks: each returns a problem description, or None ----------

def _report(data: bytes) -> dict:
    return json.loads(data)["report"]


def _csv_rows(data: bytes) -> list:
    lines = data.decode("ascii").splitlines()
    if len(lines) < 2 or lines[1] != "r,sphere_size,ball_size":
        raise ValueError("growth CSV has no r,sphere_size,ball_size header")
    return lines[2:]


def check_linearity(data: bytes, earlier: dict) -> Optional[str]:
    if _report(data)["linearity"]["passed"] is not True:
        return "linearity.passed is not true"
    return None


def check_plane_series(data: bytes, earlier: dict) -> Optional[str]:
    rows = _csv_rows(data)
    ball = 0
    for r, line in enumerate(rows):
        got = tuple(int(x) for x in line.split(","))
        sphere = 4 * r if r else 1
        ball += sphere
        if got != (r, sphere, ball):
            return f"Z^2 row {line!r} is not ({r}, {sphere}, {ball})"
    return None


def check_plane_product(data: bytes, earlier: dict) -> Optional[str]:
    rows = _csv_rows(data)
    lattice = _csv_rows(earlier["z_pow.csv"])
    if rows != lattice[:len(rows)]:
        return "Z x Z rows differ from the Z^2 rows"
    return None


def check_demo(data: bytes, earlier: dict) -> Optional[str]:
    if _report(data)["passed"] is not True:
        return "demo-cover passed is not true"
    return None


def check_partition(data: bytes, earlier: dict) -> Optional[str]:
    report = _report(data)
    if report["verification"]["passed"] is not True:
        return "verification.passed is not true"
    blocks = len(report["partition"]["blocks"])
    if blocks != len(CLUSTER_SIZES):
        return f"{blocks} blocks for {len(CLUSTER_SIZES)} generated clusters"
    return None


@dataclass(frozen=True)
class Command:
    args: tuple            # endslab arguments; the harness appends --out
    out: str
    check: Callable
    sha256: Optional[str]  # pinned report digest, for fixed inputs


@dataclass(frozen=True)
class Workload:
    specs: tuple           # group specs built during set-up
    commands: tuple
    heavy: tuple           # traced names expected to cover the traced wall
    seeded: bool = False


LAMP = '{"family":"lamplighter","m":2}'
Z2 = '{"family":"z_pow","k":2}'
ZXZ = '{"family":"product","left":{"family":"z"},"right":{"family":"z"}}'
DIHEDRAL = '{"family":"dihedral_inf"}'

WORKLOADS = {
    "lamp_end_depth": Workload(
        specs=(LAMP,),
        commands=(Command(("end-depth", "--group", LAMP, "--rmax", "5"),
                          "lamp.json", check_linearity,
                          "c994f5f283d4674f609fb077ac6651441e3242bf6cf476c07c68d30a635ef74b"),),
        heavy=("explore.explore", "ends.end_depth_profile", "ends.end_count_estimate")),
    "plane_growth": Workload(
        specs=(Z2, ZXZ),
        commands=(Command(("growth", "--group", Z2, "--rmax", "1000"),
                          "z_pow.csv", check_plane_series,
                          "daf75c514d0d13864a553a6deeaaafbc2be3d81da3b40469f4c5b71dd74d881e"),
                  Command(("growth", "--group", ZXZ, "--rmax", "500"),
                          "product.csv", check_plane_product,
                          "0d1f9bda4ddf936d0ed0d9c985ebdbdd503e622f3a8ba1812ab19e51e40df159")),
        heavy=("explore.sphere_size_series",)),
    "thin_cover": Workload(
        specs=(DIHEDRAL,),
        commands=(Command(("demo-cover", "--group", DIHEDRAL, "--a", "4", "--n", "2"),
                          "demo.json", check_demo,
                          "da288f5a1bd38310e2698d10b3bad5286289c60f07a8db5a2d16b0d8b1c526d5"),),
        heavy=("explore.BallTable.bfs_from",)),
    "metric_partition": Workload(
        specs=(),
        commands=(Command(("glpartition", "--input", "space.json",
                           "--a", str(PARTITION_FACTOR)),
                          "partition.json", check_partition, None),),
        heavy=("glpartition.FiniteMetricSpace.validate", "glpartition.build_gl_partition"),
        seeded=True),
}


# ---- per-layer metrics from the traced run --------------------------------

@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0
    count: int = 0
    rss_mb: float = 0.0


def _per_s(work: int, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _l(name, field, unit):
    return (f"{name}.{field}", unit, lambda t: getattr(t.layers[name], field))


EXPLORE = "explore.explore"
SERIES = "explore.sphere_size_series"

# (metric name, unit, value from a TraceSummary)
LAYER_METRICS = (
    _l(EXPLORE, "self_s", "s"),
    _l(EXPLORE, "calls", "count"),
    (f"{EXPLORE}.vertices", "count", lambda t: t.layers[EXPLORE].count),
    (f"{EXPLORE}.vertices_per_s", "1/s",
     lambda t: _per_s(t.layers[EXPLORE].count, t.layers[EXPLORE].self_s)),
    (f"{EXPLORE}.rss_growth_mb", "MB", lambda t: t.layers[EXPLORE].rss_mb),
    (f"{EXPLORE}.bytes_per_vertex", "B",
     lambda t: _per_s(t.layers[EXPLORE].rss_mb * 2**20, t.layers[EXPLORE].count)),
    _l("ends.end_depth_profile", "self_s", "s"),
    _l("ends.end_count_estimate", "busy_s", "s"),
    _l("ends.end_count_estimate", "calls", "count"),
    _l(SERIES, "self_s", "s"),
    _l(SERIES, "calls", "count"),
    (f"{SERIES}.nodes", "count", lambda t: t.layers[SERIES].count),
    (f"{SERIES}.nodes_per_s", "1/s",
     lambda t: _per_s(t.layers[SERIES].count, t.layers[SERIES].self_s)),
    (f"{SERIES}.rss_growth_mb", "MB", lambda t: t.layers[SERIES].rss_mb),
    _l("explore.BallTable.bfs_from", "self_s", "s"),
    _l("explore.BallTable.bfs_from", "calls", "count"),
    ("explore.BallTable.bfs_from.visited", "count",
     lambda t: t.layers["explore.BallTable.bfs_from"].count),
    _l("explore.BallTable.id_of", "self_s", "s"),
    _l("explore.BallTable.id_of", "calls", "count"),
    _l("explore.build_axis", "self_s", "s"),
    _l("glpartition.sphere_as_metric_space", "self_s", "s"),
    _l("glpartition.sphere_as_metric_space", "calls", "count"),
    _l("glpartition.similar_partitions", "self_s", "s"),
    _l("classify.sphere_cover_demo", "self_s", "s"),
    _l("glpartition.FiniteMetricSpace.from_json", "self_s", "s"),
    _l("glpartition.FiniteMetricSpace.validate", "self_s", "s"),
    ("glpartition.FiniteMetricSpace.validate.triples", "count",
     lambda t: t.layers["glpartition.FiniteMetricSpace.validate"].count),
    _l("glpartition.build_gl_partition", "self_s", "s"),
    ("glpartition.build_gl_partition.rounds", "count",
     lambda t: t.layers["glpartition.build_gl_partition"].count),
    _l("glpartition.verify_gl_partition", "self_s", "s"),
    _l("groups.make_group", "self_s", "s"),
    ("cli.import_s", "s", lambda t: t.import_s),
    _l("cli.main", "self_s", "s"),
    _l("manifest.render_json_report", "self_s", "s"),
    _l("manifest.render_csv_table", "self_s", "s"),
    ("manifest.report_bytes", "count",
     lambda t: t.layers["manifest.render_json_report"].count
     + t.layers["manifest.render_csv_table"].count),
    _l("classify.linear_end_depth_check", "self_s", "s"),
    ("trace.overhead_s", "s", lambda t: t.overhead_s),
    ("trace.unmeasured", "count", lambda t: len(t.unmeasured)),
    ("trace.heavy_share", "share", lambda t: _per_s(t.heavy_s, t.wall_s)),
)


@dataclass
class TraceSummary:
    layers: dict
    import_s: float
    wall_s: float          # raw traced wall time, spawn to exit
    overhead_s: float      # calibrated traced wall minus untraced wall_s
    heavy_s: float
    unmeasured: list


def summarize(traces: list, heavy: tuple, wall_s: float,
              overhead_s: float) -> TraceSummary:
    """Fold the span files of one traced pass into per-layer totals."""
    layers = {name: Layer() for name in tracer.PROBES}
    unmeasured = set()
    import_s = heavy_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        import_s += trace["import_s"]
        unmeasured.update(trace["unmeasured"])
        heavy_s += tracer.outermost_time(spans, heavy)
        for span, self_s in zip(spans, tracer.self_times(spans)):
            layer = layers[span["name"]]
            layer.calls += 1
            layer.self_s += self_s
            layer.count += span["count"]
            layer.rss_mb += span["rss_bytes"] / 2**20
        for name, layer in layers.items():
            layer.busy_s += tracer.outermost_time(spans, (name,))
    return TraceSummary(layers, import_s, wall_s, overhead_s, heavy_s,
                        sorted(unmeasured))


# ---- running commands -----------------------------------------------------

class Runner:
    """Spawns program processes one at a time and checks what they write."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("ENDSLAB_", "PYTHON"))}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
        self.peak_rss_kb = 0
        self.reference = [_time_reference()]
        self.attempted = 0
        self.problems: list = []
        self.digests: dict = {}

    def spawn(self, argv: list) -> tuple:
        """Run one process to exit.

        Returns the wall seconds, raw and calibrated by the reference loop
        timed on either side, the exit code and the standard error.
        """
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.reference.append(_time_reference())
        calibrated = wall * 2 * REFERENCE_S / (self.reference[-2] + self.reference[-1])
        return wall, calibrated, proc.returncode, err_path.read_text(errors="replace")

    def setup_sample(self, specs: tuple) -> tuple:
        """(raw, calibrated) wall time of one cold set-up start."""
        wall, calibrated, code, err = self.spawn(
            [sys.executable, "-c", SETUP_CODE, *specs])
        if code != 0:
            raise SystemExit(f"clibench: set-up failed with exit {code}: {err.strip()}")
        return wall, calibrated

    def run_commands(self, commands: tuple, prefix: Callable) -> tuple:
        """One repetition of the workload; (raw, calibrated) summed wall time.

        ``prefix(i)`` is the argv that runs the program for command i.
        """
        raw = calibrated = 0.0
        earlier: dict = {}
        for i, command in enumerate(commands):
            out = self.workdir / command.out
            out.unlink(missing_ok=True)
            wall, wall_cal, code, err = self.spawn(
                [*prefix(i), *command.args, "--out", command.out])
            raw += wall
            calibrated += wall_cal
            self.attempted += 1
            problem = self._check(command, code, err, out, earlier)
            if problem:
                self.problems.append(f"{command.out}: {problem}")
        return raw, calibrated

    def _check(self, command, code, err, out, earlier) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}"
        try:
            data = out.read_bytes()
        except OSError as exc:
            return f"no report: {exc}"
        earlier[command.out] = data
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(command.out, digest)
        if digest != first:
            return "report bytes differ between repetitions"
        if command.sha256 is not None and digest != command.sha256:
            return f"report sha256 {digest} is not the pinned {command.sha256}"
        try:
            return command.check(data, earlier)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"


def _time_reference() -> float:
    """Seconds the fixed reference loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def _load_trace(path: Path) -> dict:
    """The spans a traced command wrote; none if it failed before writing."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        return {"import_s": 0.0, "unmeasured": [], "spans": []}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    workload = WORKLOADS[name]
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        runner = Runner(workdir)
        if workload.seeded:
            (workdir / "space.json").write_text(
                json.dumps(generate_space(seed)), encoding="utf-8")
        runner.setup_sample(workload.specs)  # fills the bytecode cache

        def program(i):
            return [sys.executable, "-m", "endslab.cli"]

        # Set-up starts are spread over the run between repetitions rather
        # than taken in one burst, so they see the same host as the commands.
        walls, setup = [], []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            setup += [runner.setup_sample(workload.specs) for _ in range(SETUP_PER_REP)]
            walls.append(runner.run_commands(workload.commands, program))
        while len(setup) < SETUP_MIN:
            setup.append(runner.setup_sample(workload.specs))
        wall_s = statistics.median(cal for _, cal in walls)
        detail = {"workload": name, "seed": seed,
                  "input": "generated from the seed" if workload.seeded else "fixed",
                  "repetitions": len(walls),
                  "raw_wall_s": [raw for raw, _ in walls],
                  "raw_setup_s": [raw for raw, _ in setup],
                  "reference_s": runner.reference}

        if not trace:
            metrics = {"wall_s": (wall_s, "s"),
                       "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
                       "setup_s": (statistics.median(cal for _, cal in setup), "s")}
        else:
            def traced(i):
                return [sys.executable, str(TRACER), str(workdir / f"spans{i}.json"), "--"]

            traced_raw, traced_cal = runner.run_commands(workload.commands, traced)
            traces = [_load_trace(workdir / f"spans{i}.json")
                      for i in range(len(workload.commands))]
            summary = summarize(traces, workload.heavy, traced_raw, traced_cal - wall_s)
            detail["unmeasured"] = summary.unmeasured
            metrics = {metric: (value(summary), unit)
                       for metric, unit, value in LAYER_METRICS}
        detail["problems"] = runner.problems
        return runner, detail, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end a running program process too when the harness is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "endslab" / "cli.py").is_file():
        print(f"clibench: no endslab sources under {SRC}", file=sys.stderr)
        return 2

    runner, detail, metrics = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    failed = len(runner.problems)
    for problem in runner.problems:
        print(f"clibench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
