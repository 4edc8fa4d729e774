"""Command line entry point.

Every command runs one pipeline, ``_run``: parse the group (inline JSON or a
file) and resolve the node budget, for every command but ``glpartition``;
call the command's handler, which returns its parameters, nodes explored,
payload and exit code; render one report that embeds its manifest (CSV for
``growth --format csv``, JSON otherwise) and write it to ``--out`` or
stdout. ``--group`` and ``--budget`` exist only on the commands that explore
a group. Exit codes follow a fixed contract: 0 success, 1 a check failed, 2
invalid input, 3 the computation does not fit the node budget or the
memory. An option that the command would not read is invalid input, not
ignored: ``glpartition --budget``, an empty ``ends --schedule``, and
``classify --rmax`` in criterion mode or ``--a``/``--n`` in spheres mode
all exit 2. Timings go to stderr only, so report files stay byte-identical
across runs.

The four commands that build a ball table (``end-depth``, ``ends``, ``obss``
and ``demo-cover``) fix glibc's mmap threshold before their handler runs
(``fix_mmap_threshold``); ``growth``, ``classify`` and ``glpartition`` build
none and run on glibc's own dynamic threshold, without loading ``ctypes``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import classify, ends, glpartition, manifest
from .errors import (Infeasible, InvalidParameter, NoAxis, NotGeodesic,
                     TruncationTooSmall, TrivialPartition)
from .explore import DEFAULT_NODE_BUDGET, explore, sphere_size_series
from .groups import generator_words, make_group, parse_group_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

BUDGET_ENV = "ENDSLAB_BUDGET"

# mallopt's M_MMAP_THRESHOLD parameter, and glibc's default value for it
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024


def fix_mmap_threshold() -> bool:
    """Keep every allocation above 128 KiB in a mapping of its own (glibc).

    glibc raises its mmap threshold whenever a mapped block is freed, which
    a search does with each dict resize and each dropped sphere list. From
    then on the large buffers it grows (codes, adjacency, spheres) live in
    the main heap, where a realloc that cannot grow in place copies and
    leaves the old block resident. Whether it can depends on the heap
    layout that start-up left, so the peak RSS of one and the same command
    moved by up to 10 MB with the length of its environment. A fixed
    threshold keeps those buffers mapped: realloc is mremap and free unmaps.
    Returns whether the threshold was set.

    Only the commands that build a ball table call it (``main``), since a
    table grows its buffers all run long. Without it, ``demo-cover
    dihedral_inf --a 4 --n 2`` peaked at 21.8 MB against 21.3 MB, and
    ``end-depth lamplighter(2) --rmax 10 --truncation 21`` at 72.5 MB
    against 71.0 MB. A lean count holds one set, which CPython rehashes
    into a fresh table of 0.5-1 MiB whenever its dummy slots fill it;
    above a fixed threshold each such table is a new mapping, zero-filled
    page by page. ``growth z_pow(2) --rmax 1000`` took 24,873 minor faults,
    0.064 s of system time and 0.53 s with it, and 4,760, 0.012 s and 0.47 s
    without, at a peak of 20.3 MB against 19.3 MB. (Medians of five runs on
    a 2-vCPU VM, Python 3.11.7.)
    """
    if os.name != "posix":
        return False
    import ctypes  # here, so that importing the CLI does not load ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # a libc without mallopt
        return False
    return mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.table:
        fix_mmap_threshold()
    started = time.monotonic()
    try:
        code = _run(args)
    except (InvalidParameter, TruncationTooSmall, NoAxis, json.JSONDecodeError) as exc:
        print(f"endslab: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Infeasible as exc:
        print(f"endslab: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError:
        print(f"endslab: infeasible: out of memory in {args.command}; "
              "a smaller radius or --budget bounds the search", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (TrivialPartition, NotGeodesic) as exc:
        print(f"endslab: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"endslab: done in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


def _run(args) -> int:
    """Load the group, run the command's handler, write its one report."""
    group = oracle = budget = None
    if hasattr(args, "group"):
        text = args.group.strip()
        if not text.startswith("{"):
            text = _read(text, "--group")
        spec = parse_group_spec(text)
        group, oracle = spec.to_dict(), make_group(spec)
        budget = _budget(args)
    params, nodes, payload, code = args.handler(args, oracle, budget)
    if oracle is not None:
        params["generators"] = generator_words(oracle)
    if getattr(args, "format", None) == "csv":
        text = manifest.render_csv_table(args.command, group, params, budget, nodes,
                                         payload["header"], payload["rows"])
    else:
        text = manifest.render_json_report(args.command, group, params, budget, nodes,
                                           payload)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InvalidParameter(f"cannot write --out {args.out}: {_reason(exc)}") from exc
        print(f"endslab: wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endslab",
        description="Cayley graph exploration, end depth and ends analysis, "
                    "separation-certified partitions, virtual-cyclicity detectors.")
    sub = parser.add_subparsers(dest="command", required=True)
    explorers = []

    def command(name, handler, help, explores=True, table=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, table=table)
        if explores:
            p.add_argument("--group", required=True,
                           help="group spec as inline JSON or a path to a JSON file")
            explorers.append(p)
        return p

    p = command("growth", cmd_growth, "sphere and ball sizes up to a radius")
    p.add_argument("--rmax", type=int, required=True, help="largest radius")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("end-depth", cmd_end_depth, "depth profile of bounded complement components",
                table=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--truncation", default="auto",
                   help="'auto' for one truncation, 4*rmax+2, for the whole profile, "
                        "or a fixed integer T; entry r of an infinite group is certified "
                        "when T >= 2r+1 and one component of B(T) minus B(r) touches "
                        "S(T), or the group is assumed one ended")
    p.add_argument("--assume-one-ended", action="store_true",
                   help="skip the internal ends estimate and certify every entry with T >= 2r+1 "
                        "on the caller's word")

    p = command("ends", cmd_ends, "estimate the number of ends", table=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--schedule", default=None,
                   help="comma-separated increasing truncations (default derived from rmax)")

    p = command("glpartition", cmd_glpartition,
                "separation-certified partition of a metric space", explores=False)
    p.add_argument("--input", required=True, help="metric space JSON file")
    p.add_argument("--a", type=int, required=True, help="separation factor (integer >= 3)")

    p = command("obss", cmd_obss, "check a two-sided separation witness family", table=True)
    p.add_argument("--witness", required=True, help="witness JSON file")
    p.add_argument("--truncation", type=int, default=None,
                   help="exploration radius (overrides the witness file)")

    p = command("classify", cmd_classify, "virtual-cyclicity detectors")
    p.add_argument("--mode", choices=("spheres", "criterion"), required=True)
    p.add_argument("--rmax", type=int, default=None, help="spheres mode: radius window")
    p.add_argument("--a", type=int, default=None, help="criterion mode: separation factor")
    p.add_argument("--n", type=int, default=None, help="criterion mode: sphere size bound")

    p = command("demo-cover", cmd_demo_cover, "sphere-covering demonstration on a thin group",
                table=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    # last, so that every usage line ends with them
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output path (default stdout)")
    for p in explorers:
        p.add_argument("--budget", type=int, default=None,
                       help=f"node budget (default {DEFAULT_NODE_BUDGET}, env {BUDGET_ENV})")
    return parser


def _read(path: str, option: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"cannot read {option} {path}: {_reason(exc)}") from exc


def _reason(exc) -> str:
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


def _budget(args) -> int:
    if args.budget is not None:
        value = args.budget
    elif os.environ.get(BUDGET_ENV):
        try:
            value = int(os.environ[BUDGET_ENV])
        except ValueError:
            raise InvalidParameter(f"{BUDGET_ENV} must be an integer") from None
    else:
        value = DEFAULT_NODE_BUDGET
    if value < 1:
        raise InvalidParameter("budget must be positive")
    return value


def _row_series(oracle, rmax: int, budget: int):
    """The sphere sizes of radii 0..rmax, one report row per radius.

    In an infinite group the ball of radius rmax has more than rmax + 1
    vertices, so the search's budget bounds the rows too. A finite group's
    search stops at its diameter, so its rows are held to the budget here:
    Infeasible when rmax + 1 exceeds it."""
    series = sphere_size_series(oracle, rmax, budget)
    if oracle.order is not None and rmax + 1 > budget:
        raise Infeasible(
            f"--rmax {rmax} asks for {rmax + 1} rows, above the node budget {budget}; "
            f"the whole group lies within radius {series.reached}")
    return series


# Each handler returns (parameters, nodes explored, payload, exit code);
# _run adds the generators to the parameters and renders the report.

def cmd_growth(args, oracle, budget):
    if args.rmax < 0:
        raise InvalidParameter("--rmax must be >= 0")
    series = _row_series(oracle, args.rmax, budget)
    rows = [[r, series.sphere_size(r), series.ball_size(r)] for r in range(args.rmax + 1)]
    if args.format == "csv":
        payload = {"header": ["r", "sphere_size", "ball_size"], "rows": rows}
    else:
        payload = {"rows": rows, "complete_group": series.complete_group}
    return {"rmax": args.rmax, "format": args.format}, series.size, payload, EXIT_OK


def cmd_end_depth(args, oracle, budget):
    truncation = None
    if args.truncation != "auto":
        try:
            truncation = int(args.truncation)
        except ValueError:
            raise InvalidParameter("--truncation must be 'auto' or an integer") from None
    profile = ends.end_depth_profile(oracle, args.rmax, budget=budget,
                                     one_ended=args.assume_one_ended, truncation=truncation)
    check = classify.linear_end_depth_check(profile)
    warnings = sorted({"NotOneEnded" for e in profile.entries if e.not_one_ended_warning})
    payload = {"profile": profile.to_dict(), "linearity": check.to_dict(),
               "warnings": warnings}
    params = {"rmax": args.rmax, "truncation": args.truncation,
              "assume_one_ended": args.assume_one_ended}
    code = EXIT_OK if check.passed else EXIT_CHECK_FAILED
    return params, profile.nodes_explored, payload, code


def cmd_ends(args, oracle, budget):
    schedule = None
    if args.schedule is not None:
        try:
            schedule = tuple(int(x) for x in args.schedule.split(","))
        except ValueError:
            raise InvalidParameter("--schedule must be comma-separated integers") from None
    estimate = ends.end_count_estimate(oracle, args.rmax, schedule=schedule, budget=budget)
    params = {"rmax": args.rmax, "schedule": list(estimate.schedule)}
    return params, estimate.nodes_explored, estimate.to_dict(), EXIT_OK


def cmd_glpartition(args, oracle, budget):
    space = glpartition.FiniteMetricSpace.from_json(_read(args.input, "--input"))
    partition = glpartition.build_gl_partition(space, args.a)
    verification = glpartition.verify_gl_partition(space, partition, args.a)
    payload = {"partition": partition.to_dict(),
               "separation": partition.separation,
               "verification": verification.to_dict()}
    params = {"input": Path(args.input).name, "a": args.a, "points": space.n}
    code = EXIT_OK if partition.trivial or verification.passed else EXIT_CHECK_FAILED
    return params, 0, payload, code


def cmd_obss(args, oracle, budget):
    witness = ends.ObssWitness.from_json(_read(args.witness, "--witness"))
    if args.truncation is not None and args.truncation < 0:
        raise InvalidParameter(f"--truncation must be a nonnegative integer, got {args.truncation}")
    truncation = args.truncation if args.truncation is not None else witness.truncation
    if truncation is None:
        raise InvalidParameter(
            "no truncation: pass --truncation or put one in the witness file")
    table = explore(oracle, truncation, budget)
    report = ends.check_obss_witness(table, witness)
    payload = {"witness": witness.to_dict(), "check": report.to_dict()}
    params = {"witness": Path(args.witness).name, "truncation": truncation}
    return params, table.size, payload, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_classify(args, oracle, budget):
    if args.mode == "criterion":
        if args.a is None or args.n is None:
            raise InvalidParameter("criterion mode requires --a and --n")
        if args.rmax is not None:
            raise InvalidParameter("criterion mode takes no --rmax")
        verdict = classify.sphere_bound_criterion(oracle, args.a, args.n, budget)
        params = {"mode": "criterion", "a": args.a, "n": args.n}
        nodes = verdict.details.get("nodes_explored", 0)
        payload = {"verdict": verdict.to_dict()}
    else:
        rmax = 30 if args.rmax is None else args.rmax
        if rmax < 20:
            raise InvalidParameter("spheres mode needs --rmax >= 20")
        for option, value in (("--a", args.a), ("--n", args.n)):
            if value is not None:
                raise InvalidParameter(f"spheres mode takes no {option}")
        series = _row_series(oracle, rmax, budget)
        sizes = [series.sphere_size(r) for r in range(1, rmax + 1)]
        verdict = classify.bounded_sphere_detector(sizes)
        params = {"mode": "spheres", "rmax": rmax}
        nodes = series.size
        payload = {"verdict": verdict.to_dict(), "sphere_sizes": sizes}
    code = EXIT_INFEASIBLE if verdict.kind == classify.INFEASIBLE else EXIT_OK
    return params, nodes, payload, code


def cmd_demo_cover(args, oracle, budget):
    report = classify.sphere_cover_demo(oracle, args.a, args.n, budget=budget)
    params = {"a": args.a, "n": args.n}
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    return params, report.nodes_explored, report.to_dict(), code


if __name__ == "__main__":
    sys.exit(main())
