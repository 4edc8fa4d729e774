"""The exit-code contract under random input, run in-process through ``main``.

Every run must end in exit 0-3 without a traceback, and a run that exits 0
must write a valid JSON or CSV report whose manifest echoes every option
given. Specs nest products, carry wrong types, huge ints and unknown keys,
and ask for z_pow and free with up to 10^5 generators; budgets stay at or
below 20,000, so each run is small.

A run may fail for want of memory (exit 3), and some inputs ask for reports
that grow with k^2: the 2k generators of z_pow(k) are listed in the report,
each with k coordinates. Each run is therefore held to a fixed headroom of
address space (``RLIMIT_AS``), where such a report ends in MemoryError and
exit 3 instead of taking the machine's memory.
"""

import contextlib
import csv
import io
import json
import resource
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from endslab.cli import main

pytestmark = pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                                reason="the headroom is read from /proc/self/statm")

HEADROOM = 256 * 2 ** 20  # bytes of address space a run may add


def _address_space() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[0]) * resource.getpagesize()


@contextlib.contextmanager
def _held_to_headroom():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = _address_space() + HEADROOM
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# --- group specs -------------------------------------------------------------

def _mostly(valid, invalid):
    """Mostly ``valid``: ``invalid`` on one draw in ten."""
    return st.sampled_from(range(10)).flatmap(lambda i: invalid if i == 9 else valid)


ODD_VALUES = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                       st.integers(-(2 ** 80), 2 ** 80), st.lists(st.integers(0, 3), max_size=2))
K = st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1_000, 100_000))
M = st.integers(2, 6)
LEAF_FAMILIES = ("trivial", "cyclic_finite", "z", "z_pow", "free", "dihedral_inf",
                 "z_cross_cyclic", "lamplighter")


@st.composite
def leaf_spec(draw):
    family = draw(st.sampled_from(LEAF_FAMILIES))
    spec = {"family": family}
    if family in ("z_pow", "free"):
        spec["k"] = draw(_mostly(K, ODD_VALUES))
    elif family in ("cyclic_finite", "z_cross_cyclic", "lamplighter"):
        spec["m"] = draw(_mostly(M, ODD_VALUES))
    if draw(st.sampled_from(range(20))) == 19:
        spec[draw(st.sampled_from(["k", "m", "left", "extra"]))] = draw(ODD_VALUES)
    return spec


def _product(children):
    return st.fixed_dictionaries({"family": st.just("product"), "left": children,
                                  "right": children})


SPECS = _mostly(
    st.recursive(leaf_spec(), _product, max_leaves=3),
    st.one_of(ODD_VALUES,
              st.fixed_dictionaries({"family": st.one_of(st.text(max_size=4), ODD_VALUES)}),
              st.fixed_dictionaries({"family": st.just("product"), "left": leaf_spec()}),
              st.recursive(leaf_spec(), _product, min_leaves=5, max_leaves=9)))


# --- commands ----------------------------------------------------------------

def _int(valid, invalid=st.integers(-2, 0)):
    return _mostly(valid, invalid).map(str)


def _maybe(flag, values):
    """Either no option or ``flag`` with one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def witness(draw):
    """A witness file's text: mostly well formed, keys of small integers."""
    keys = _mostly(st.lists(st.integers(-6, 6).map(str), min_size=1, max_size=4),
                   st.lists(st.integers(-6, 6).map(str), max_size=4))
    item = st.fixed_dictionaries({"K": keys, "r": _mostly(st.integers(1, 6), st.integers(-1, 0)),
                                  "A": keys, "B": keys})
    doc = {"n": draw(_mostly(st.integers(1, 3), st.just(0))),
           "items": draw(st.lists(item, min_size=1, max_size=3))}
    if draw(st.booleans()):  # else --truncation gives it, or neither does
        doc["truncation"] = draw(_mostly(st.integers(0, 12), ODD_VALUES))
    return json.dumps(draw(_mostly(st.just(doc), ODD_VALUES)))


@st.composite
def metric_space(draw):
    """A metric space file's text: points on a line, or something broken."""
    positions = draw(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    doc = {"points": [f"p{i}" for i in range(len(positions))],
           "distances": [[abs(p - q) for q in positions] for p in positions]}
    if draw(st.sampled_from(range(10))) == 9:
        doc["distances"][0][-1] = draw(ODD_VALUES)
    return json.dumps(draw(_mostly(st.just(doc), ODD_VALUES)))


@st.composite
def command(draw):
    """(argv without --out, files to write first) of one run."""
    name = draw(st.sampled_from(["growth", "end-depth", "ends", "glpartition", "obss",
                                 "classify", "demo-cover"]))
    files, argv = {}, [name]
    if name == "glpartition":
        files["space.json"] = draw(metric_space())
        return argv + ["--input", "space.json", "--a", draw(_int(st.integers(3, 8)))], files
    spec = json.dumps(draw(SPECS))
    if draw(st.booleans()):
        files["group.json"] = spec
        spec = "group.json"
    argv += ["--group", spec]
    if name == "growth":
        argv += ["--rmax", draw(_int(st.one_of(st.integers(0, 30), st.integers(31, 10 ** 6)),
                                     st.integers(-2, -1)))]
        argv += draw(_maybe("--format", _mostly(st.sampled_from(["csv", "json"]),
                                                st.just("xml"))))
    elif name == "end-depth":
        argv += ["--rmax", draw(_int(st.integers(1, 5)))]
        argv += draw(_maybe("--truncation", _mostly(
            st.one_of(st.just("auto"), st.integers(0, 14).map(str)), st.just("x"))))
        argv += draw(st.sampled_from([[], ["--assume-one-ended"]]))
    elif name == "ends":
        argv += ["--rmax", draw(_int(st.integers(1, 4)))]
        schedule = _mostly(st.lists(st.integers(1, 9), min_size=2, max_size=4, unique=True)
                           .map(sorted), st.lists(st.integers(-1, 9), max_size=3))
        argv += draw(_maybe("--schedule", schedule.map(lambda s: ",".join(map(str, s)))))
    elif name == "obss":
        files["witness.json"] = draw(witness())
        argv += ["--witness", "witness.json"]
        truncation = ["--truncation", draw(_int(st.integers(0, 14), st.just(-1)))]
        argv += draw(_mostly(st.just(truncation), st.just([])))
    elif name == "classify":
        if draw(st.booleans()):
            argv += ["--mode", "spheres"]
            argv += draw(_maybe("--rmax", _int(st.integers(20, 40), st.integers(0, 19))))
            argv += draw(st.sampled_from([[]] * 9 + [["--a", "3"]]))
        else:
            argv += ["--mode", "criterion", "--a", draw(_int(st.integers(3, 300))),
                     "--n", draw(_int(st.integers(2, 4)))]
            argv += draw(st.sampled_from([[]] * 9 + [["--rmax", "20"]]))
    else:
        argv += ["--a", draw(_int(st.integers(3, 6))), "--n", draw(_int(st.integers(2, 3)))]
    argv += ["--budget", draw(_int(st.one_of(st.integers(1, 100), st.integers(101, 20_000))))]
    return argv, files


# --- the contract ------------------------------------------------------------

def _options(argv):
    """{option: value} of the options given after the command."""
    options, i = {}, 1
    while i < len(argv):
        if argv[i] == "--assume-one-ended":
            options[argv[i]] = True
            i += 1
        else:
            options[argv[i]] = argv[i + 1]
            i += 2
    return options


def _read_report(text, csv_format):
    """(manifest, rows or None) of a report, checking that it parses."""
    if not csv_format:
        doc = json.loads(text)
        assert set(doc) == {"manifest", "report"}
        return doc["manifest"], None
    first, _, body = text.partition("\n")
    assert first.startswith("# manifest: ")
    header, *rows = list(csv.reader(io.StringIO(body)))
    assert rows and all(len(row) == len(header) for row in rows)
    return json.loads(first[len("# manifest: "):]), [list(map(int, row)) for row in rows]


def _check_echo(manifest, options, workdir):
    params = manifest["parameters"]
    for option, value in options.items():
        if option == "--group":  # inline JSON, or the path of a file
            given = value if value.startswith("{") else (workdir / value).read_text()
            assert manifest["group"] == json.loads(given)
        elif option == "--budget":
            assert manifest["budget"]["limit"] == int(value)
        elif option in ("--input", "--witness"):
            assert params[option[2:]] == value
        elif option == "--schedule":
            assert params["schedule"] == [int(x) for x in value.split(",")]
        elif option in ("--format", "--mode"):
            assert params[option[2:]] == value
        elif option == "--truncation" and manifest["command"] == "end-depth":
            assert params["truncation"] == value  # "auto" or the integer as given
        elif option == "--assume-one-ended":
            assert params["assume_one_ended"] is True
        else:
            assert params[option[2:]] == int(value), option


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(run=command())
def test_every_input_keeps_the_exit_code_contract(tmp_path, monkeypatch, run):
    argv, files = run
    workdir = tmp_path / "run"
    workdir.mkdir(exist_ok=True)
    for path in workdir.iterdir():
        path.unlink()
    for name, text in files.items():
        (workdir / name).write_text(text)
    monkeypatch.chdir(workdir)
    out = workdir / "report.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), _held_to_headroom():
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        options = _options(argv)
        csv_format = argv[0] == "growth" and options.get("--format", "csv") == "csv"
        manifest, rows = _read_report(out.read_text(encoding="ascii"), csv_format)
        assert manifest["command"] == argv[0]
        _check_echo(manifest, options, workdir)
        if rows is not None:
            assert [row[0] for row in rows] == list(range(len(rows)))
