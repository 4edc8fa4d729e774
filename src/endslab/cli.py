"""Command line entry point.

One command is one reproducible pipeline: parse the group, run the module
operation, write a report that embeds its manifest. Exit codes follow a
fixed contract: 0 success, 1 a check failed, 2 invalid input, 3 the
computation does not fit the node budget or the memory. Timings go to
stderr only, so report files stay byte-identical across runs.
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
    fix_mmap_threshold()
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.handler(args)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endslab",
        description="Cayley graph exploration, end depth and ends analysis, "
                    "separation-certified partitions, virtual-cyclicity detectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="sphere and ball sizes up to a radius")
    _group_arg(p)
    p.add_argument("--rmax", type=int, required=True, help="largest radius")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _common_args(p)
    p.set_defaults(handler=cmd_growth)

    p = sub.add_parser("end-depth", help="depth profile of bounded complement components")
    _group_arg(p)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--truncation", default="auto",
                   help="'auto' for 4r+2 per radius, or a fixed integer")
    p.add_argument("--assume-one-ended", action="store_true",
                   help="skip the internal ends estimate and certify on the caller's word")
    _common_args(p)
    p.set_defaults(handler=cmd_end_depth)

    p = sub.add_parser("ends", help="estimate the number of ends")
    _group_arg(p)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--schedule", default=None,
                   help="comma-separated increasing truncations (default derived from rmax)")
    _common_args(p)
    p.set_defaults(handler=cmd_ends)

    p = sub.add_parser("glpartition", help="separation-certified partition of a metric space")
    p.add_argument("--input", required=True, help="metric space JSON file")
    p.add_argument("--a", type=int, required=True, help="separation factor (integer >= 3)")
    _common_args(p)
    p.set_defaults(handler=cmd_glpartition)

    p = sub.add_parser("obss", help="check a two-sided separation witness family")
    _group_arg(p)
    p.add_argument("--witness", required=True, help="witness JSON file")
    p.add_argument("--truncation", type=int, default=None,
                   help="exploration radius (overrides the witness file)")
    _common_args(p)
    p.set_defaults(handler=cmd_obss)

    p = sub.add_parser("classify", help="virtual-cyclicity detectors")
    _group_arg(p)
    p.add_argument("--mode", choices=("spheres", "criterion"), required=True)
    p.add_argument("--rmax", type=int, default=30, help="spheres mode: radius window")
    p.add_argument("--a", type=int, default=None, help="criterion mode: separation factor")
    p.add_argument("--n", type=int, default=None, help="criterion mode: sphere size bound")
    _common_args(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("demo-cover", help="sphere-covering demonstration on a thin group")
    _group_arg(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _common_args(p)
    p.set_defaults(handler=cmd_demo_cover)
    return parser


def _group_arg(p):
    p.add_argument("--group", required=True,
                   help="group spec as inline JSON or a path to a JSON file")


def _common_args(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--budget", type=int, default=None,
                   help=f"node budget (default {DEFAULT_NODE_BUDGET}, env {BUDGET_ENV})")


def _read(path: str, option: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"cannot read {option} {path}: {_reason(exc)}") from exc


def _reason(exc) -> str:
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


def _load_group(args):
    text = args.group.strip()
    if not text.startswith("{"):
        text = _read(text, "--group")
    spec = parse_group_spec(text)
    return spec, make_group(spec)


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


def _emit(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InvalidParameter(f"cannot write --out {args.out}: {_reason(exc)}") from exc
        print(f"endslab: wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_growth(args) -> int:
    spec, oracle = _load_group(args)
    budget = _budget(args)
    if args.rmax < 0:
        raise InvalidParameter("--rmax must be >= 0")
    series = sphere_size_series(oracle, args.rmax, budget)
    rows = [[r, series.sphere(r), series.ball(r)] for r in range(args.rmax + 1)]
    params = {"rmax": args.rmax, "format": args.format,
              "generators": generator_words(oracle)}
    if args.format == "csv":
        text = manifest.render_csv_table(
            "growth", spec.to_dict(), params, budget, series.nodes,
            ["r", "sphere_size", "ball_size"], rows)
    else:
        payload = {"rows": rows, "complete_group": series.complete_group}
        text = manifest.render_json_report(
            "growth", spec.to_dict(), params, budget, series.nodes, payload)
    _emit(args, text)
    return EXIT_OK


def cmd_end_depth(args) -> int:
    spec, oracle = _load_group(args)
    budget = _budget(args)
    truncation = None
    if args.truncation != "auto":
        try:
            truncation = int(args.truncation)
        except ValueError:
            raise InvalidParameter("--truncation must be 'auto' or an integer") from None
    one_ended = True if args.assume_one_ended else None
    profile = ends.end_depth_profile(oracle, args.rmax, budget=budget,
                                     one_ended=one_ended, truncation=truncation)
    check = classify.linear_end_depth_check(profile)
    warnings = sorted({"NotOneEnded" for e in profile.entries if e.not_one_ended_warning})
    payload = {"profile": profile.to_dict(), "linearity": check.to_dict(),
               "warnings": warnings}
    params = {"rmax": args.rmax, "truncation": args.truncation,
              "assume_one_ended": bool(args.assume_one_ended),
              "generators": generator_words(oracle)}
    text = manifest.render_json_report("end-depth", spec.to_dict(), params,
                                       budget, profile.nodes_explored, payload)
    _emit(args, text)
    return EXIT_OK if check.passed else EXIT_CHECK_FAILED


def cmd_ends(args) -> int:
    spec, oracle = _load_group(args)
    budget = _budget(args)
    schedule = None
    if args.schedule:
        try:
            schedule = tuple(int(x) for x in args.schedule.split(","))
        except ValueError:
            raise InvalidParameter("--schedule must be comma-separated integers") from None
    estimate = ends.end_count_estimate(oracle, args.rmax, schedule=schedule, budget=budget)
    params = {"rmax": args.rmax,
              "schedule": list(estimate.schedule),
              "generators": generator_words(oracle)}
    text = manifest.render_json_report("ends", spec.to_dict(), params, budget,
                                       estimate.nodes_explored, estimate.to_dict())
    _emit(args, text)
    return EXIT_OK


def cmd_glpartition(args) -> int:
    space = glpartition.FiniteMetricSpace.from_json(_read(args.input, "--input"))
    partition = glpartition.build_gl_partition(space, args.a)
    verification = glpartition.verify_gl_partition(space, partition, args.a)
    payload = {"partition": partition.to_dict(),
               "separation": partition.separation,
               "verification": verification.to_dict()}
    params = {"input": Path(args.input).name, "a": args.a, "points": space.n}
    text = manifest.render_json_report("glpartition", None, params, None, 0, payload)
    _emit(args, text)
    if not partition.trivial and not verification.passed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_obss(args) -> int:
    spec, oracle = _load_group(args)
    budget = _budget(args)
    witness = ends.ObssWitness.from_json(_read(args.witness, "--witness"))
    truncation = args.truncation if args.truncation is not None else witness.truncation
    if truncation is None:
        raise InvalidParameter(
            "no truncation: pass --truncation or put one in the witness file")
    table = explore(oracle, truncation, budget)
    report = ends.check_obss_witness(table, witness)
    payload = {"witness": witness.to_dict(), "check": report.to_dict()}
    params = {"witness": Path(args.witness).name, "truncation": truncation,
              "generators": generator_words(oracle)}
    text = manifest.render_json_report("obss", spec.to_dict(), params, budget,
                                       table.size, payload)
    _emit(args, text)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    spec, oracle = _load_group(args)
    budget = _budget(args)
    if args.mode == "criterion":
        if args.a is None or args.n is None:
            raise InvalidParameter("criterion mode requires --a and --n")
        verdict = classify.sphere_bound_criterion(oracle, args.a, args.n, budget)
        params = {"mode": "criterion", "a": args.a, "n": args.n,
                  "generators": generator_words(oracle)}
        nodes = verdict.details.get("nodes_explored", 0)
        payload = {"verdict": verdict.to_dict()}
    else:
        if args.rmax < 20:
            raise InvalidParameter("spheres mode needs --rmax >= 20")
        series = sphere_size_series(oracle, args.rmax, budget)
        sizes = [series.sphere(r) for r in range(1, args.rmax + 1)]
        verdict = classify.bounded_sphere_detector(sizes)
        params = {"mode": "spheres", "rmax": args.rmax,
                  "generators": generator_words(oracle)}
        nodes = series.nodes
        payload = {"verdict": verdict.to_dict(), "sphere_sizes": sizes}
    text = manifest.render_json_report("classify", spec.to_dict(), params,
                                       budget, nodes, payload)
    _emit(args, text)
    return EXIT_INFEASIBLE if verdict.kind == classify.INFEASIBLE else EXIT_OK


def cmd_demo_cover(args) -> int:
    spec, oracle = _load_group(args)
    budget = _budget(args)
    report = classify.sphere_cover_demo(oracle, args.a, args.n, budget=budget)
    params = {"a": args.a, "n": args.n, "generators": generator_words(oracle)}
    text = manifest.render_json_report("demo-cover", spec.to_dict(), params,
                                       budget, report.nodes_explored, report.to_dict())
    _emit(args, text)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
