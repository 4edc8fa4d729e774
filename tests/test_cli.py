"""Command line contract: exit codes, report structure, determinism."""

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from endslab import cli
from endslab.cli import fix_mmap_threshold, main
from endslab.explore import BallTable, build_axis
from endslab.glpartition import FiniteMetricSpace

from oracles import clustered_plane_space, line_witness


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def load(path):
    return json.loads(path.read_text())


def test_growth_csv(tmp_path):
    code, out = run(tmp_path, "z.csv", ["growth", "--group", '{"family":"z"}', "--rmax", "10"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "r,sphere_size,ball_size"
    assert lines[2] == "0,1,1"
    assert lines[-1] == "10,2,21"


def test_growth_rmax_zero(tmp_path):
    code, out = run(tmp_path, "z0.csv", ["growth", "--group", '{"family":"z"}', "--rmax", "0"])
    assert code == 0
    assert out.read_text().splitlines()[2] == "0,1,1"


def test_growth_json_tree(tmp_path):
    code, out = run(tmp_path, "f2.json", ["growth", "--group", '{"family":"free","k":2}',
                                          "--rmax", "6", "--format", "json"])
    assert code == 0
    doc = load(out)
    assert doc["report"]["rows"][6][1] == 972
    assert doc["manifest"]["command"] == "growth"
    assert doc["manifest"]["output_digest"].startswith("sha256:")


def test_group_spec_from_file(tmp_path):
    spec_file = tmp_path / "group.json"
    spec_file.write_text('{"family":"z_pow","k":2}')
    code, out = run(tmp_path, "g.csv", ["growth", "--group", str(spec_file), "--rmax", "3"])
    assert code == 0
    assert out.read_text().splitlines()[-1] == "3,12,25"


def test_end_depth_plane(tmp_path):
    code, out = run(tmp_path, "ed.json",
                    ["end-depth", "--group", '{"family":"z_pow","k":2}', "--rmax", "10"])
    assert code == 0
    doc = load(out)["report"]
    assert [e["value"] for e in doc["profile"]["entries"]] == list(range(1, 11))
    assert doc["linearity"]["passed"]
    assert doc["warnings"] == []


def test_end_depth_two_ended_warns(tmp_path):
    code, out = run(tmp_path, "edz.json",
                    ["end-depth", "--group", '{"family":"z"}', "--rmax", "5"])
    assert code == 0  # the check has nothing certified to fail on
    doc = load(out)["report"]
    assert doc["warnings"] == ["NotOneEnded"]
    assert not any(e["certified"] for e in doc["profile"]["entries"])


def test_end_depth_fixed_truncation(tmp_path):
    code, out = run(tmp_path, "edt.json",
                    ["end-depth", "--group", '{"family":"z_pow","k":2}', "--rmax", "3",
                     "--truncation", "20"])
    assert code == 0
    doc = load(out)["report"]
    assert all(e["truncation"] == 20 for e in doc["profile"]["entries"])


def test_end_depth_estimate_truncation_checked_before_search(tmp_path, capsys):
    # B(6) of free(3) holds 23,437 vertices, far past the budget; the
    # truncation is refused before any search
    code, out = run(tmp_path, "never.json",
                    ["end-depth", "--group", '{"family":"free","k":3}', "--rmax", "5",
                     "--truncation", "6", "--budget", "100"])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "endslab: invalid input: the ends estimate needs truncation >= r_max + 2, "
        "got truncation 6 for r_max=5\n")


def test_ends_classifications(tmp_path):
    code, out = run(tmp_path, "ends.json",
                    ["ends", "--group", '{"family":"z_pow","k":2}', "--rmax", "8"])
    assert code == 0
    assert load(out)["report"]["classification"] == "one"
    code, out = run(tmp_path, "ends2.json",
                    ["ends", "--group", '{"family":"z"}', "--rmax", "6",
                     "--schedule", "15,17"])
    assert code == 0
    doc = load(out)["report"]
    assert doc["classification"] == "two"
    assert doc["schedule"] == [15, 17]


def test_glpartition_worked_example(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "points": ["0", "1", "20000"],
        "distances": [[0, 1, 20000], [1, 0, 19999], [20000, 19999, 0]]}))
    code, out = run(tmp_path, "gl.json", ["glpartition", "--input", str(space), "--a", "3"])
    assert code == 0
    doc = load(out)["report"]
    assert doc["partition"] == {"a": 3, "blocks": [["0", "1"], ["20000"]],
                                "D": 1, "k": 1, "trivial": False}
    assert doc["verification"]["passed"]
    assert doc["separation"] == 19999


def test_obss_pass_and_fail(tmp_path, z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 7))
    witness.truncation = 30
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps(witness.to_dict()))
    code, out = run(tmp_path, "obss.json",
                    ["obss", "--group", '{"family":"z"}', "--witness", str(wfile)])
    assert code == 0
    assert load(out)["report"]["check"]["passed"]

    bad = witness.to_dict()
    bad["items"][0]["A"] = bad["items"][0]["B"]
    wfile.write_text(json.dumps(bad))
    code, out = run(tmp_path, "obss2.json",
                    ["obss", "--group", '{"family":"z"}', "--witness", str(wfile)])
    assert code == 1


def test_obss_pair_beyond_truncation_exit_2(tmp_path, capsys):
    # -8 and 8 are 16 apart: no distance in a radius-12 table certifies that
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps({"n": 2, "truncation": 12, "items": [
        {"K": ["0", "1"], "r": 2, "A": ["-1"], "B": ["2"]},
        {"K": ["0", "1"], "r": 3, "A": ["-8", "8"], "B": ["2"]}]}))
    out = tmp_path / "never.json"
    assert main(["obss", "--group", '{"family":"z"}', "--witness", str(wfile),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "items[1].A: -8 and 8 lie more than the truncation radius 12 apart" in err, err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("K", [], "items[1].K must name at least one vertex"),
    ("A", [], "items[1].A must name at least one vertex"),
    ("B", [], "items[1].B must name at least one vertex"),
    ("r", "x", "items[1].r must be an integer >= 1, got 'x'"),
    ("r", 2.5, "items[1].r must be an integer >= 1, got 2.5"),
    ("K", "0", "items[1].K must be a list of vertex keys, got '0'"),
    ("A", [[-3]], "items[1].A must be a list of vertex keys, got [[-3]]"),
])
def test_obss_malformed_item_exit_2(tmp_path, capsys, field, value, message):
    items = [{"K": ["0"], "r": 2, "A": ["-2"], "B": ["2"]},
             {"K": ["0"], "r": 3, "A": ["-3"], "B": ["3"]}]
    items[1][field] = value
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps({"n": 2, "truncation": 12, "items": items}))
    out = tmp_path / "never.json"
    assert main(["obss", "--group", '{"family":"z"}', "--witness", str(wfile),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc,options,message", [
    # the search to radius two million would visit 4M vertices; the error comes first
    ({"n": 3, "items": [{"K": ["0"], "r": 0, "A": ["1"], "B": ["-1"]}], "truncation": 2000000},
     [], "items[0].r must be an integer >= 1, got 0"),
    ({"n": 3, "items": [{"K": ["0"], "r": 1, "A": ["1"], "B": ["-1"]}], "truncation": True},
     [], "witness truncation must be a nonnegative integer, got True"),
    ({"n": 0, "items": [{"K": ["0"], "r": 1, "A": ["1"], "B": ["-1"]}], "truncation": 4},
     [], "witness bound n must be a positive integer, got 0"),
    ({"n": 3, "items": [{"K": ["0"], "r": 1, "A": ["1"], "B": ["-1"]}]},
     ["--truncation", "-1"], "--truncation must be a nonnegative integer, got -1"),
], ids=["r_zero", "truncation_bool", "n_zero", "option_negative"])
def test_obss_rejects_witness_before_search(tmp_path, capsys, monkeypatch, doc, options,
                                            message):
    def no_search(*args):
        raise AssertionError("explored before the witness was validated")

    monkeypatch.setattr(cli, "explore", no_search)
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps(doc))
    out = tmp_path / "never.json"
    assert main(["obss", "--group", '{"family":"z"}', "--witness", str(wfile), *options,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"endslab: invalid input: {message}\n" in err, err
    assert not out.exists()


def test_obss_requires_truncation(tmp_path, z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 4))
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(witness.to_dict()))
    assert main(["obss", "--group", '{"family":"z"}', "--witness", str(wfile)]) == 2
    code, _ = run(tmp_path, "obss3.json",
                  ["obss", "--group", '{"family":"z"}', "--witness", str(wfile),
                   "--truncation", "30"])
    assert code == 0


def test_ends_empty_schedule_exit_2(capsys):
    assert main(["ends", "--group", '{"family":"z"}', "--rmax", "3", "--schedule", ""]) == 2
    assert "--schedule must be comma-separated integers" in capsys.readouterr().err


def test_classify_spheres(tmp_path):
    code, out = run(tmp_path, "cs.json",
                    ["classify", "--group", '{"family":"dihedral_inf"}', "--mode", "spheres"])
    assert code == 0
    doc = load(out)
    assert doc["manifest"]["parameters"]["rmax"] == 30  # the default window
    assert doc["report"]["verdict"]["kind"] == "virtually_cyclic_evidence"
    assert doc["report"]["sphere_sizes"] == [2] * 30


def test_classify_criterion_exit_codes(tmp_path):
    code, out = run(tmp_path, "cc.json",
                    ["classify", "--group", '{"family":"z"}', "--mode", "criterion",
                     "--a", "3", "--n", "2"])
    assert code == 0
    assert load(out)["report"]["verdict"]["kind"] == "demonstration_only"

    code, out = run(tmp_path, "ci.json",
                    ["classify", "--group", '{"family":"z"}', "--mode", "criterion",
                     "--a", "100", "--n", "2"])
    assert code == 3
    verdict = load(out)["report"]["verdict"]
    assert verdict["kind"] == "infeasible"
    assert verdict["details"]["required_radius"] == 1_632_240_801


@pytest.mark.parametrize("command", [["classify", "--mode", "criterion"], ["demo-cover"]],
                         ids=["classify", "demo-cover"])
def test_criterion_radius_past_digit_limit_exit_2(tmp_path, capsys, command):
    # rho = 7^(n+2) would go into the report; at n = 6000 it has 5,073 digits,
    # at n = 4,000,000 the power alone takes seconds: both are refused at once
    for n in ("6000", "4000000"):
        started = time.perf_counter()
        code, out = run(tmp_path, "never.json",
                        [*command, "--group", '{"family":"z"}', "--a", "3", "--n", n])
        assert time.perf_counter() - started < 1.0, n
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert (f"the criterion radius (2a+1)^(n+2) has more than "
                f"{sys.get_int_max_str_digits()} digits") in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize("group", [
    '{"family":"z_cross_cyclic","m":2}', '{"family":"z_cross_cyclic","m":3}',
    '{"family":"product","left":{"family":"z"},"right":{"family":"cyclic_finite","m":3}}',
], ids=["z_cross_cyclic(2)", "z_cross_cyclic(3)", "product(z, cyclic_finite(3))"])
def test_end_depth_two_ended_not_certified_at_rmax_1(tmp_path, group):
    # the ends estimate at r_max 1 reads one end, but two components of
    # B(6) minus B(1) touch S(6): the value stands, uncertified
    code, out = run(tmp_path, "depth.json", ["end-depth", "--group", group, "--rmax", "1"])
    assert code == 0
    report = load(out)["report"]
    assert report["profile"]["classification"] == "one"
    assert [e["certified"] for e in report["profile"]["entries"]] == [False]
    assert report["linearity"]["checked"] == 0


@pytest.mark.parametrize("command,lead,what", [
    ("end-depth", "3", "the truncation 4 r_max + 2"),
    ("ends", "5", "the truncation 2 r_max + 3"),
], ids=["end-depth", "ends"])
@pytest.mark.parametrize("budget", [[], ["--budget", "100"]], ids=["default", "budget"])
def test_derived_truncation_past_digit_limit_exit_2(tmp_path, capsys, command, lead, what,
                                                    budget):
    # r_max has as many digits as may be written, the truncation one more
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no integer string conversion limit")
    started = time.perf_counter()
    code, out = run(tmp_path, "never.json", [command, "--group", '{"family":"z"}',
                                             "--rmax", lead + "0" * (limit - 1), *budget])
    assert time.perf_counter() - started < 1.0
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert f"{what} has more than {limit} digits" in err, err
    assert "Traceback" not in err


def test_classify_criterion_needs_parameters():
    assert main(["classify", "--group", '{"family":"z"}', "--mode", "criterion"]) == 2


def test_classify_rejects_other_mode_options(capsys):
    # each option belongs to one mode; the other mode would silently ignore it
    cases = [(["--mode", "criterion", "--a", "3", "--n", "2", "--rmax", "50"],
              "criterion mode takes no --rmax"),
             (["--mode", "spheres", "--a", "3"], "spheres mode takes no --a"),
             (["--mode", "spheres", "--rmax", "25", "--n", "2"], "spheres mode takes no --n")]
    for options, message in cases:
        assert main(["classify", "--group", '{"family":"z"}', *options]) == 2, options
        assert message in capsys.readouterr().err


def test_demo_cover_line(tmp_path):
    code, out = run(tmp_path, "demo.json",
                    ["demo-cover", "--group", '{"family":"z"}', "--a", "3", "--n", "2"])
    assert code == 0
    doc = load(out)["report"]
    assert doc["passed"] and doc["D"] == 1


def test_demo_cover_finite_group_exit(tmp_path, capsys):
    code, out = run(tmp_path, "demo.json", ["demo-cover", "--group",
                                            '{"family":"cyclic_finite","m":5}', "--a", "3",
                                            "--n", "2"])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == ("endslab: invalid input: the covering demo needs an "
                                       "infinite group; cyclic_finite(5) is finite, of order 5\n")
    # an infinite group whose sphere is too large still declines
    product = '{"family":"product","left":{"family":"z"},"right":{"family":"cyclic_finite","m":3}}'
    code, out = run(tmp_path, "declined.json",
                    ["demo-cover", "--group", product, "--a", "3", "--n", "2"])
    assert code == 1 and load(out)["report"]["declined"]


def test_invalid_group_exit(capsys):
    assert main(["growth", "--group", '{"family":"nope"}', "--rmax", "3"]) == 2
    assert "invalid" in capsys.readouterr().err


def test_budget_exit(tmp_path):
    code = main(["growth", "--group", '{"family":"free","k":2}', "--rmax", "12",
                 "--budget", "1000", "--out", str(tmp_path / "never.csv")])
    assert code == 3


def test_finite_group_explored_whole(tmp_path, capsys):
    # a truncation inside a finite group cuts its complement into rays that
    # look like two ends; end-depth and ends explore the whole group instead
    code, out = run(tmp_path, "c100.json",
                    ["ends", "--group", '{"family":"cyclic_finite","m":100}', "--rmax", "6"])
    assert code == 0
    doc = load(out)["report"]
    assert doc["classification"] == "zero" and doc["complete_group"]
    capsys.readouterr()
    # the budget error names the whole group, not a radius nobody asked for
    for command in ("end-depth", "ends"):
        code, _ = run(tmp_path, "c1000.json",
                      [command, "--group", '{"family":"cyclic_finite","m":1000}',
                       "--rmax", "3", "--budget", "500"])
        assert code == 3
        err = capsys.readouterr().err
        assert ("node budget 500 exceeded by B(250); B(249) has 499 vertices: reached "
                "radius 249, but the whole group of order 1000 was needed") in err
        assert "requested" not in err


# a finite group's search stops at its diameter, so only the budget bounds
# the rows of growth and classify --mode spheres, one per radius 0..rmax
FINITE_ROWS = [
    (["growth", "--group", '{"family":"trivial"}'], 100, 0,
     "5a609d8a7432f7280575ed0448a6e6a19e7609b1e8dba9980f6d759a3cf2ccc1"),
    (["classify", "--group", '{"family":"cyclic_finite","m":5}', "--mode", "spheres"], 40, 2,
     "d4e8fcfc9fa5e81a7a2980d0574ab28ea79024c30e2454852800c4f7e045220a"),
]


@pytest.mark.parametrize("command,budget,diameter,digest", FINITE_ROWS,
                         ids=["growth", "classify"])
def test_finite_group_rows_bounded_by_budget(tmp_path, capsys, command, budget, diameter,
                                             digest):
    code, out = run(tmp_path, "rows", command + ["--rmax", str(budget - 1),
                                                 "--budget", str(budget)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    for rmax, limit in ((budget, budget), (10**8, cli.DEFAULT_NODE_BUDGET)):
        code, out = run(tmp_path, "never", command + ["--rmax", str(rmax),
                                                      "--budget", str(limit)])
        assert code == 3 and not out.exists()
        assert (f"endslab: infeasible: --rmax {rmax} asks for {rmax + 1} rows, above the "
                f"node budget {limit}; the whole group lies within radius {diameter}\n"
                ) in capsys.readouterr().err


@pytest.mark.parametrize("budget,message", [
    (2_000, "node budget 2000 exceeded by B(11); B(10) has 1457 vertices: "
            "reached radius 10 of requested 22"),
    (100_000, "node budget 100000 exceeded by B(19); B(18) has 85806 vertices: "
              "reached radius 18 of requested 22"),
], ids=["below_B(11)", "below_B(22)"])
def test_end_depth_budget_exit_names_whole_ball(tmp_path, capsys, budget, message):
    # lamplighter(2) at rmax 5 settles on B(11), 2,474 vertices, yet the
    # budget still covers B(22), 611,158: a budget short of either fails
    # with the message a search of B(22) gives
    code, _ = run(tmp_path, "never.json", ["end-depth", "--group", '{"family":"lamplighter","m":2}',
                                           "--rmax", "5", "--budget", str(budget)])
    assert code == 3
    assert f"endslab: infeasible: {message}\n" in capsys.readouterr().err


def test_demo_budget_exit_names_radius(tmp_path, capsys):
    code, _ = run(tmp_path, "demo.json", ["demo-cover", "--group", '{"family":"z"}',
                                          "--a", "3", "--n", "2", "--budget", "6000"])
    assert code == 3
    err = capsys.readouterr().err
    assert "infeasible" in err and "reached radius 2999 of requested 7243" in err


def test_cli_import_skips_dataclasses():
    # generating dataclass methods and loading hashlib at import cost every
    # cold start; -S keeps site-packages .pth files out of the check
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, endslab.cli; "
         "print([m for m in ('dataclasses', 'hashlib') if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_budget_reaches_manifest(tmp_path, z_oracle, z_table_30):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(line_witness(z_oracle, build_axis(z_oracle, z_table_30, 14),
                                               range(2, 4)).to_dict()))
    z = ["--group", '{"family":"z"}']
    for args in (["growth", *z, "--rmax", "3"],
                 ["growth", *z, "--rmax", "3", "--format", "json"],
                 ["end-depth", *z, "--rmax", "2"],
                 ["ends", *z, "--rmax", "2"],
                 ["obss", *z, "--witness", str(witness), "--truncation", "30"],
                 ["classify", *z, "--mode", "spheres"],
                 ["classify", *z, "--mode", "criterion", "--a", "3", "--n", "2"],
                 ["demo-cover", *z, "--a", "3", "--n", "2"]):
        code, out = run(tmp_path, "report", args + ["--budget", "123456"])
        assert code == 0, args
        text = out.read_text()
        if text.startswith("# manifest: "):
            manifest = json.loads(text.splitlines()[0][len("# manifest: "):])
        else:
            manifest = json.loads(text)["manifest"]
        assert manifest["budget"]["limit"] == 123456, args


def test_glpartition_takes_no_budget(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": ["a", "b"], "distances": [[0, 1], [1, 0]]}))
    with pytest.raises(SystemExit) as exc:
        main(["glpartition", "--input", str(space), "--a", "3", "--budget", "5"])
    assert exc.value.code == 2


def test_budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ENDSLAB_BUDGET", "1000")
    code = main(["growth", "--group", '{"family":"free","k":2}', "--rmax", "12",
                 "--out", str(tmp_path / "never.csv")])
    assert code == 3
    monkeypatch.setenv("ENDSLAB_BUDGET", "not-a-number")
    assert main(["growth", "--group", '{"family":"z"}', "--rmax", "3",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_repeat_runs_byte_identical(tmp_path):
    args = ["end-depth", "--group", '{"family":"z_pow","k":2}', "--rmax", "6"]
    _, first = run(tmp_path, "a.json", args)
    _, second = run(tmp_path, "b.json", args)
    assert first.read_bytes() == second.read_bytes()


# SHA-256 of end-depth reports: a refactor that changes one byte fails here
END_DEPTH_GOLDEN = [
    ('{"family":"z_pow","k":2}', ["--rmax", "10"],
     "221acda1100ff115138db53c74e971d5a9b5e84ce8a3624fad5f5f5f9f41a043"),
    ('{"family":"z"}', ["--rmax", "5"],
     "d250e7d5aee3ce040b7f496fc38c77cedc09d878626d4df9f15435202eb6a3c7"),
    ('{"family":"lamplighter","m":2}', ["--rmax", "3"],
     "3ba3abc70b67a826cba5a882bfc39531446338fe487fbd98a77d07a0966ea79b"),
    ('{"family":"cyclic_finite","m":12}', ["--rmax", "3"],
     "19969caf5595eba5baf78b15e0c44c1b95680fef49c7c6c6901cc1576f4c44ad"),
    ('{"family":"z_pow","k":2}', ["--rmax", "3", "--truncation", "20", "--assume-one-ended"],
     "9495952b4e4027e03a09cd302c771c4c7f378789c93585a82eeb227f6ab3bc6e"),
    # the benchmark's fixed-input report (clibench/run.py, lamp_end_depth)
    ('{"family":"lamplighter","m":2}', ["--rmax", "5"],
     "c994f5f283d4674f609fb077ac6651441e3242bf6cf476c07c68d30a635ef74b"),
]


@pytest.mark.parametrize("group,options,digest", END_DEPTH_GOLDEN,
                         ids=[" ".join([g, *o]) for g, o, _ in END_DEPTH_GOLDEN])
def test_end_depth_golden_bytes(tmp_path, group, options, digest):
    code, out = run(tmp_path, "golden.json", ["end-depth", "--group", group, *options])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the classify verdicts and of a JSON growth report: criterion
# mode below the theorem's factor (demonstration_only) and at it, where the
# radius 201^4 exceeds the budget (infeasible, exit 3); spheres mode
REPORT_GOLDEN = [
    (["classify", "--group", '{"family":"z"}', "--mode", "criterion", "--a", "3", "--n", "2"], 0,
     "5f16934ddd04330d48c092a977577c5210c9b74865d22141982b02f685dcd168"),
    (["classify", "--group", '{"family":"z"}', "--mode", "criterion", "--a", "100", "--n", "2"],
     3, "06e82ed5b7bbf6f41009fe43989def83bc655b862f043bed61f32cc39170bbcf"),
    (["classify", "--group", '{"family":"dihedral_inf"}', "--mode", "spheres"], 0,
     "530cd63932ed807c30b986c64678ee2a7f9cdac9c8ba7c764887a63b15ea1b90"),
    (["growth", "--group", '{"family":"z_pow","k":2}', "--rmax", "6", "--format", "json"], 0,
     "41b0ddf43c8d98fff437d22aee87a09a7d82be3040b1fa97c3545f3101a446d8"),
]


@pytest.mark.parametrize("args,exit_code,digest", REPORT_GOLDEN,
                         ids=["criterion_a3", "criterion_a100", "spheres", "growth_json"])
def test_report_golden_bytes(tmp_path, args, exit_code, digest):
    code, out = run(tmp_path, "golden.json", args)
    assert code == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the benchmark's fixed-input growth reports (clibench/run.py,
# plane_growth)
GROWTH_GOLDEN = [
    ('{"family":"z_pow","k":2}', "1000",
     "daf75c514d0d13864a553a6deeaaafbc2be3d81da3b40469f4c5b71dd74d881e"),
    ('{"family":"product","left":{"family":"z"},"right":{"family":"z"}}', "500",
     "0d1f9bda4ddf936d0ed0d9c985ebdbdd503e622f3a8ba1812ab19e51e40df159"),
]


@pytest.mark.parametrize("group,rmax,digest", GROWTH_GOLDEN,
                         ids=[f"{g} {r}" for g, r, _ in GROWTH_GOLDEN])
def test_growth_golden_bytes(tmp_path, group, rmax, digest):
    code, out = run(tmp_path, "golden.csv", ["growth", "--group", group, "--rmax", rmax])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of ends reports: bipartite (z, free, lamplighter(2)) and not
# (z_cross_cyclic(3)) families, and finite groups whose last truncation is
# beyond (cyclic_finite(12)) or exactly at (cyclic_finite(7)) the diameter;
# then schedules of three or four truncations, which one sweep serves, the
# last with one truncation at the diameter 6 and one beyond it (null)
ENDS_GOLDEN = [
    ('{"family":"z"}', ["--rmax", "5"],
     "f02cb177e581fa3afa73713c6802f4aeb308d6fe432e329747ce380a1ed667bb"),
    ('{"family":"free","k":2}', ["--rmax", "3"],
     "aa956df5799d63af412bb1b670b6ee1ef68fe0c3d67e195af6665e03bd48dc81"),
    ('{"family":"lamplighter","m":2}', ["--rmax", "3"],
     "59148c05e4d55a6ecb94a1e9fa226f867f38e27235a6a937dcba0bf121ab780c"),
    ('{"family":"z_cross_cyclic","m":3}', ["--rmax", "4"],
     "53829270bf73b746369e21f10ddf0b31355c5d2ebf7e3473347e79df063e2f0f"),
    ('{"family":"cyclic_finite","m":12}', ["--rmax", "2"],
     "1bcf9f4ba3d4a98821d9847efa5c7cb4ab3b874fa71cfcb94d7255d0e10eb4dc"),
    ('{"family":"cyclic_finite","m":7}', ["--rmax", "1", "--schedule", "2,3"],
     "d547a0a16cb4083f458a4eed0798d784258b6d84189283d363f75a91d66f3883"),
    ('{"family":"z_cross_cyclic","m":3}', ["--rmax", "4", "--schedule", "5,6,7,9"],
     "4ccf4c7d7012046c22e6ea9ff5155b8fcfb97cae30a9fe559d22613a169c6ff9"),
    ('{"family":"lamplighter","m":2}', ["--rmax", "3", "--schedule", "4,5,6,8"],
     "08b76a689e775659df4fdc119203e3ff62dd9fd30cafd6321d8344c02782691f"),
    ('{"family":"lamplighter","m":2}', ["--rmax", "4", "--schedule", "5,6,7"],
     "dcd9e71908668538a322a7e569bc5111a6d7af4f363c3ebbbe3b647dd043251e"),
    ('{"family":"cyclic_finite","m":12}', ["--rmax", "2", "--schedule", "3,4,6,8"],
     "9f292a1cad99e3bb50d1446cd0d4da29c50e1469313aab0e6ae1ce2fcbc87076"),
]


@pytest.mark.parametrize("group,options,digest", ENDS_GOLDEN,
                         ids=[" ".join([g, *o]) for g, o, _ in ENDS_GOLDEN])
def test_ends_golden_bytes(tmp_path, group, options, digest):
    code, out = run(tmp_path, "golden.json", ["ends", "--group", group, *options])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command,options", [("end-depth", ["--rmax", "2"]),
                                             ("ends", ["--rmax", "2"])])
def test_outer_sphere_wired_only_where_read(tmp_path, monkeypatch, command, options):
    # the rows of the outermost sphere are built once, and only for a family
    # with edges inside a sphere; every other row is an implicit slice
    wired = []
    wire = BallTable._wire_outer

    def counting(table):
        wired.append(table.oracle.label())
        assert not hasattr(table, "_adj_indptr")
        return wire(table)

    monkeypatch.setattr(BallTable, "_wire_outer", counting)
    for group in ('{"family":"z"}', '{"family":"free","k":2}',
                  '{"family":"lamplighter","m":2}', '{"family":"dihedral_inf"}',
                  '{"family":"z_cross_cyclic","m":4}', '{"family":"z_cross_cyclic","m":3}'):
        code, _ = run(tmp_path, "out.json", [command, "--group", group, *options])
        assert code == 0
    # end-depth on the two-ended z_cross_cyclic(3) sweeps B(5), whose counts
    # of 2 settle nothing, and grows that table to B(10): the sweep wires
    # S(5), the growth writes those rows again as ordinary rows, and the
    # sweep of B(10) wires S(10)
    expected = ["z_cross_cyclic(3)"] * (2 if command == "end-depth" else 1)
    assert wired == expected
    # a witness check reads rows within radius R - 1 only, even on a family
    # with edges inside S(R): the second item's reach |k| + r is R = 8
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"n": 2, "truncation": 8, "items": [
        {"K": ["2,0", "2,1", "2,2"], "r": 2, "A": ["1,0"], "B": ["3,0"]},
        {"K": ["3,0", "3,1", "3,2"], "r": 4, "A": ["1,0", "2,0"], "B": ["4,0", "5,0"]}]}))
    code, _ = run(tmp_path, "obss.json", ["obss", "--group", '{"family":"z_cross_cyclic","m":3}',
                                          "--witness", str(witness)])
    assert code == 0
    assert wired == expected


# SHA-256 of glpartition reports on spaces built here: multi-block, line, collapsing
GLPARTITION_GOLDEN = [
    ("clusters", lambda: clustered_plane_space(random.Random(5), (60, 50, 40, 30, 20),
                                               (14, 12, 10, 8, 6)),
     "8c79433bdeb46f8bdde447215ac9ac0d42634c8bfaf972ce8270d2bf5f9bc9c4"),
    ("line", lambda: FiniteMetricSpace.from_line([0, 1.5, 3.25, 40, 41.25, 4000, 4002.5, 90000]),
     "d18ab83dd994b880501c2ad868ebd926b389131671d99241fbc97f2c731d0dc4"),
    ("collapse", lambda: FiniteMetricSpace.from_line(list(range(12))),
     "5d959cc486f34bcee9a78fd9b08e0fd7abf5f86d01b7512468d478f9c33c035a"),
]


@pytest.mark.parametrize("build,digest", [g[1:] for g in GLPARTITION_GOLDEN],
                         ids=[g[0] for g in GLPARTITION_GOLDEN])
def test_glpartition_golden_bytes(tmp_path, build, digest):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(build().to_dict()))
    code, out = run(tmp_path, "golden.json", ["glpartition", "--input", str(space), "--a", "3"])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of demo-cover reports: two passing demos and one declined (exit 1)
DEMO_COVER_GOLDEN = [
    ('{"family":"z"}', "3", 0,
     "9909b582853234cc0312cca3d58a4608f12e5db0795ef0c29177839f9e6808cf"),
    ('{"family":"dihedral_inf"}', "4", 0,
     "da288f5a1bd38310e2698d10b3bad5286289c60f07a8db5a2d16b0d8b1c526d5"),
    ('{"family":"z_cross_cyclic","m":3}', "3", 1,
     "8064e46ddad44d52e88d6fa3066beaf1ba6cd2c019209338911433f2bb4c8da9"),
]


@pytest.mark.parametrize("group,a,exit_code,digest", DEMO_COVER_GOLDEN,
                         ids=[f"{g} a={a}" for g, a, _, _ in DEMO_COVER_GOLDEN])
def test_demo_cover_golden_bytes(tmp_path, group, a, exit_code, digest):
    code, out = run(tmp_path, "golden.json",
                    ["demo-cover", "--group", group, "--a", a, "--n", "2"])
    assert code == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_obss_golden_bytes(tmp_path, z_oracle, z_table_30):
    # the passing and failing reports of test_obss_pass_and_fail
    witness = line_witness(z_oracle, build_axis(z_oracle, z_table_30, 14), range(2, 7))
    witness.truncation = 30
    bad = witness.to_dict()
    bad["items"][0]["A"] = bad["items"][0]["B"]
    wfile = tmp_path / "witness.json"
    for doc, exit_code, digest in (
            (witness.to_dict(), 0,
             "0a7861605a88eb46650c2de3e89e8c71c5d20bd4966ad6af4adf9487987f3424"),
            (bad, 1, "11d38fb5ff6af7b535b91e51c222573dbf611dedaeff80b113b0c390e42b45d9")):
        wfile.write_text(json.dumps(doc))
        code, out = run(tmp_path, f"obss{exit_code}.json",
                        ["obss", "--group", '{"family":"z"}', "--witness", str(wfile)])
        assert code == exit_code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_glpartition_triangle_failure_exit_2(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": ["a", "b", "c"],
                                 "distances": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
    out = tmp_path / "never.json"
    assert main(["glpartition", "--input", str(space), "--a", "3", "--out", str(out)]) == 2
    assert "triangle inequality fails at (a, c, b)" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exit_3(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_growth", exhausted)
    assert main(["growth", "--group", '{"family":"z"}', "--rmax", "3"]) == 3
    assert "endslab: infeasible: out of memory in growth" in capsys.readouterr().err


def _space_file(tmp_path, distances):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": ["a", "b"], "distances": distances}))
    return path


def test_directory_paths_exit_2(tmp_path, capsys, z_oracle, z_table_30):
    folder = tmp_path / "folder"
    folder.mkdir()
    space = _space_file(tmp_path, [[0, 1], [1, 0]])
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(line_witness(z_oracle, build_axis(z_oracle, z_table_30, 14),
                                               range(2, 4)).to_dict()))
    cases = [
        (["growth", "--group", str(folder), "--rmax", "3"], "--group"),
        (["glpartition", "--input", str(folder), "--a", "3"], "--input"),
        (["obss", "--group", '{"family":"z"}', "--witness", str(folder),
          "--truncation", "30"], "--witness"),
        (["growth", "--group", '{"family":"z"}', "--rmax", "3", "--out", str(folder)], "--out"),
        (["glpartition", "--input", str(space), "--a", "3", "--out", str(folder)], "--out"),
        (["obss", "--group", '{"family":"z"}', "--witness", str(witness),
          "--truncation", "30", "--out", str(folder)], "--out"),
    ]
    for args, option in cases:
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert f"{option} {folder}" in err, err


def test_unreadable_group_file_exit_2(tmp_path, capsys):
    binary = tmp_path / "group.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["growth", "--group", str(binary), "--rmax", "3"]) == 2
    assert main(["growth", "--group", str(tmp_path / "missing.json"), "--rmax", "3"]) == 2
    assert str(tmp_path / "missing.json") in capsys.readouterr().err


def test_foreign_spec_key_exit_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["growth", "--group", '{"family":"z","k":5,"bogus":1}', "--rmax", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "'k'" in err
    assert not out.exists()


@pytest.mark.parametrize("command,option,text,message", [
    ("growth", "--group", '{"family":"z_pow","k":5,"k":2}', "group spec repeats the key 'k'"),
    ("glpartition", "--input", '{"points":["a","b"],"points":["c","d"],"distances":[[0,1],[1,0]]}',
     "metric space repeats the key 'points'"),
    ("obss", "--witness",
     '{"n":2,"truncation":12,"items":[{"K":["0"],"r":2,"r":3,"A":["-2"],"B":["2"]}]}',
     "witness repeats the key 'r'"),
], ids=["group", "metric_space", "witness"])
def test_repeated_json_key_exit_2(tmp_path, capsys, command, option, text, message):
    # plain JSON decoding would keep the last copy of the key and exit 0
    _assert_json_input_exit_2(tmp_path, capsys, command, option, text, message)


def _assert_json_input_exit_2(tmp_path, capsys, command, option, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    args = {"growth": ["--rmax", "2"], "glpartition": ["--a", "3"],
            "obss": ["--group", '{"family":"z"}']}[command]
    out = tmp_path / "never.json"
    for source in ([text, str(path)] if command == "growth" else [str(path)]):
        assert main([command, option, source, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err, err
        assert "Traceback" not in err
        assert not out.exists()


_LONG = "1" + "0" * 5000  # past the int conversion limit, 4,300 digits by default


@pytest.mark.parametrize("command,option,text,what", [
    ("growth", "--group", '{"family":"cyclic_finite","m":%s}' % _LONG, "group spec"),
    ("glpartition", "--input", '{"points":["a","b"],"distances":[[0,%s],[%s,0]]}' % (_LONG, _LONG),
     "metric space"),
    ("obss", "--witness",
     '{"n":2,"truncation":%s,"items":[{"K":["0"],"r":2,"A":["-2"],"B":["2"]}]}' % _LONG,
     "witness"),
], ids=["group", "metric_space", "witness"])
def test_over_long_json_integer_exit_2(tmp_path, capsys, command, option, text, what):
    # json.loads raises a plain ValueError for such an integer
    message = f"{what} holds an integer of more than {sys.get_int_max_str_digits()} digits"
    _assert_json_input_exit_2(tmp_path, capsys, command, option, text, message)


@pytest.mark.parametrize("doc,message", [
    ({"points": ["a", "b"], "distances": [[0, 1], [1, 0]], "x": 1},
     "metric space has unexpected keys: 'x'"),
    ({"points": "ab", "distances": [[0, 1], [1, 0]]},
     "'points' must be a list of strings, got 'ab'"),
    ({"points": ["a", 2], "distances": [[0, 1], [1, 0]]},
     "'points' must be a list of strings, got ['a', 2]"),
    ([1], "metric space must be an object, got list"),
], ids=["extra_key", "points_str", "points_int", "list"])
def test_malformed_metric_space_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never.json"
    assert main(["glpartition", "--input", str(path), "--a", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert not out.exists()


_ITEM = {"K": ["0"], "r": 2, "A": ["-2"], "B": ["2"]}


@pytest.mark.parametrize("doc,message", [
    ({"n": 2, "truncation": 12, "items": [_ITEM], "x": 1}, "witness has unexpected keys: 'x'"),
    ({"n": 2, "truncation": 12, "items": [_ITEM, dict(_ITEM, C=["1"])]},
     "items[1] has unexpected keys: 'C'"),
    ({"n": 2, "truncation": 12, "items": [_ITEM, 3]}, "items[1] must be an object, got int"),
    ([1], "witness must be an object, got list"),
], ids=["extra_key", "item_extra_key", "item_int", "list"])
def test_malformed_witness_exit_2(tmp_path, capsys, doc, message):
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps(doc))
    out = tmp_path / "never.json"
    assert main(["obss", "--group", '{"family":"z"}', "--witness", str(wfile),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert not out.exists()


def test_non_finite_distances_exit_2(tmp_path, capsys):
    for bad in ("Infinity", "NaN", "true", '"1"'):
        path = tmp_path / "space.json"
        path.write_text('{"points": ["a", "b"], "distances": [[0, %s], [%s, 0]]}' % (bad, bad))
        out = tmp_path / "never.json"
        assert main(["glpartition", "--input", str(path), "--a", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "between a and b" in err, (bad, err)
        assert not out.exists()


def test_distances_past_float_range_exit_2(tmp_path, capsys):
    huge = 10 ** 400  # 401 digits: no float holds it
    out = tmp_path / "never.json"
    assert main(["glpartition", "--input", str(_space_file(tmp_path, [[0, huge], [huge, 0]])),
                 "--a", "3", "--out", str(out)]) == 2
    assert "distance between a and b is not a finite number" in capsys.readouterr().err
    # in range, but d(a, c) + d(b, c) is not: the triangle scan passes over it
    big = 15 * 10 ** 307
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"points": ["a", "b", "c", "d"], "distances": [
        [0, 10, big, 1], [10, 0, big, 1], [big, big, 0, big], [1, 1, big, 0]]}))
    assert main(["glpartition", "--input", str(path), "--a", "3", "--out", str(out)]) == 2
    assert "triangle inequality fails at (a, b, d)" in capsys.readouterr().err
    assert not out.exists()


def test_integer_distances_beyond_2_53_compared_exactly(tmp_path, capsys):
    # 2**53 + 1 rounds to 2**53 as a float; the triangle (a, b, a) holds exactly
    out = tmp_path / "pair.json"
    assert main(["glpartition", "--input", str(_space_file(tmp_path, [[0, 2 ** 53 + 1],
                                                                      [2 ** 53 + 1, 0]])),
                 "--a", "3", "--out", str(out)]) == 0
    assert load(out)["report"]["verification"]["passed"]
    # d(a, c) + d(c, b) = 2**53 + 3 rounds up to d(a, b) = 2**53 + 4 as a float
    big = 2 ** 53
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"points": ["a", "b", "c"], "distances": [
        [0, big + 4, big + 2], [big + 4, 0, 1], [big + 2, 1, 0]]}))
    out = tmp_path / "never.json"
    assert main(["glpartition", "--input", str(path), "--a", "3", "--out", str(out)]) == 2
    assert "triangle inequality fails at (a, b, c)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is a glibc call")
def test_mmap_threshold_fixed_on_glibc():
    assert fix_mmap_threshold()


def test_main_fixes_mmap_threshold(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "fix_mmap_threshold", lambda: calls.append(True))
    code, _ = run(tmp_path, "z.csv", ["growth", "--group", '{"family":"z"}', "--rmax", "3"])
    assert code == 0 and calls == [True]
