"""Acceptance suite: every criterion at its stated tolerance.

The conftest summary hook prints one ACCEPTANCE <n>: PASS/FAIL line per
criterion at the end of the run. Tolerances are exact integer equalities
unless a criterion states otherwise. The one-sphere criterion at its full
hypothesis (factor 100, radius 201^4) is certified infeasible, not skipped:
criterion 7 pins the honest refusal, and criterion 6 covers the mechanics at
the smallest legal factor.
"""

import json
import random

import pytest

from endslab.classify import (bounded_sphere_detector, sphere_cover_demo,
                              NO_EVIDENCE, VC_EVIDENCE)
from endslab.cli import main
from endslab.ends import check_obss_witness, end_count_estimate, end_depth
from endslab.explore import build_axis, explore, sphere_size_series
from endslab.glpartition import FiniteMetricSpace, build_gl_partition, verify_gl_partition
from endslab.groups import make_group

from oracles import clustered_line_space, lamplighter2_sphere_counts, line_witness


@pytest.fixture(scope="module")
def lamp_table_26(lamp_oracle):
    return explore(lamp_oracle, 26)


def test_criterion_1_linear_end_depth(lamp_oracle, lamp_table_26):
    for k, r_top in ((2, 15), (3, 6)):
        oracle = make_group({"family": "z_pow", "k": k})
        for r in range(1, r_top + 1):
            res = end_depth(oracle, r, truncation=4 * r + 2)
            assert res.certified, (k, r)
            assert res.value == r and res.bounded_count == 0, (k, r, res.value)

    estimate = end_count_estimate(lamp_oracle, 6, schedule=(25, 26), table=lamp_table_26)
    assert estimate.classification == "one"
    for r in range(1, 7):
        res = end_depth(lamp_oracle, r, truncation=4 * r + 2,
                        table=lamp_table_26, one_ended=True)
        assert res.certified, r
        assert r <= res.value <= 4 * r, (r, res.value)


def test_criterion_2_sphere_size_oracles():
    z = sphere_size_series(make_group({"family": "z"}), 1000)
    assert all(z.sphere(r) == 2 for r in range(1, 1001))
    assert z.ball(1000) == 2001

    plane = explore(make_group({"family": "z_pow", "k": 2}), 15)
    assert all(plane.sphere_size(r) == 4 * r for r in range(1, 16))

    tree = explore(make_group({"family": "free", "k": 2}), 6)
    assert all(tree.sphere_size(r) == 4 * 3 ** (r - 1) for r in range(1, 7))

    dihedral = explore(make_group({"family": "dihedral_inf"}), 100)
    assert all(dihedral.sphere_size(r) == 2 for r in range(1, 101))


def test_criterion_3_ends_classification():
    cases = [
        ({"family": "z"}, 8, "two"),
        ({"family": "dihedral_inf"}, 8, "two"),
        ({"family": "z_cross_cyclic", "m": 3}, 8, "two"),
        ({"family": "z_pow", "k": 2}, 8, "one"),
        ({"family": "free", "k": 2}, 4, "infinite"),
        ({"family": "cyclic_finite", "m": 12}, 6, "zero"),
    ]
    for spec, r_max, expected in cases:
        estimate = end_count_estimate(make_group(spec), r_max)
        assert estimate.classification == expected, (spec, estimate.classification)
        if spec["family"] == "free":
            assert estimate.final_counts() == [4, 12, 36, 108]


def test_criterion_4_bounded_sphere_detector():
    def bfs_sizes(spec):
        series = sphere_size_series(make_group(spec), 30)
        return [series.sphere(r) for r in range(1, 31)]

    for spec in ({"family": "z"}, {"family": "dihedral_inf"},
                 {"family": "z_cross_cyclic", "m": 5}):
        assert bounded_sphere_detector(bfs_sizes(spec)).kind == VC_EVIDENCE, spec

    assert bounded_sphere_detector(bfs_sizes({"family": "z_pow", "k": 2})).kind == NO_EVIDENCE
    # tree and lamp balls at radius 30 are far beyond desk scale; the size
    # sequences come from enumeration oracles cross-checked against search
    # at small radii elsewhere in the suite
    tree_sizes = [4 * 3 ** (r - 1) for r in range(1, 31)]
    assert bounded_sphere_detector(tree_sizes).kind == NO_EVIDENCE
    lamp_sizes = lamplighter2_sphere_counts(30)[1:]
    assert bounded_sphere_detector(lamp_sizes).kind == NO_EVIDENCE


def test_criterion_5_partition_property_suite():
    rng = random.Random(16807)
    built = nontrivial = 0
    while built < 500:
        space = clustered_line_space(rng, n_max=12)
        a = rng.choice((3, 4, 5))
        part = build_gl_partition(space, a)
        built += 1
        assert part.iterations <= space.n + 1                      # (ii)
        for m, d_m in enumerate(part.diameter_history):
            assert d_m <= (2 * a + 1) ** m                         # (iii)
        if not part.trivial:
            nontrivial += 1
            assert verify_gl_partition(space, part, a).passed      # (i)
    assert nontrivial >= 100

    for _ in range(50):                                            # (iv)
        n = rng.randint(2, 3)
        positions = [0]
        while len(positions) < n:
            positions.append(positions[-1] + rng.randint(16808, 10 ** 6))
        part = build_gl_partition(FiniteMetricSpace.from_line(positions), 3)
        assert not part.trivial

    space = FiniteMetricSpace.from_line([0, 1, 20000])             # (v)
    part = build_gl_partition(space, 3)
    assert part.blocks == (("0", "1"), ("20000",)) and part.iterations == 1


def test_criterion_6_sphere_cover_demo():
    for family in ("z", "dihedral_inf"):
        report = sphere_cover_demo(make_group({"family": family}), 3, 2)
        assert report.rho == 2401
        assert report.passed and not report.declined, family
        assert report.D == 1
        assert all(step.ok for step in report.steps), family


def test_criterion_7_infeasibility_honesty(tmp_path):
    out = tmp_path / "infeasible.json"
    code = main(["classify", "--group", '{"family":"z"}', "--mode", "criterion",
                 "--a", "100", "--n", "2", "--out", str(out)])
    assert code == 3
    verdict = json.loads(out.read_text())["report"]["verdict"]
    assert verdict["kind"] == "infeasible"
    assert verdict["details"]["required_radius"] == 1_632_240_801 == 201 ** 4


def test_criterion_8_witness_checker(z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 7))
    assert check_obss_witness(z_table_30, witness).passed

    from endslab.ends import WitnessItem

    equal_sides = line_witness(z_oracle, axis, range(2, 7))
    first = equal_sides.items[0]
    equal_sides.items[0] = WitnessItem(first.K, first.r, first.B, first.B)
    report = check_obss_witness(z_table_30, equal_sides)
    assert not report.items[0].distinct_components
    assert report.items[0].diam_K_ok
    assert report.r_strictly_increasing and report.diam_A_strictly_increasing

    key = lambda i: z_oracle.key_str(axis.vertex(i))
    constant_reach = line_witness(
        z_oracle, axis, range(2, 7), r_of=lambda i: 2,
        a_of=lambda i: (key(i - 1),), b_of=lambda i: (key(i + 2),))
    report = check_obss_witness(z_table_30, constant_reach)
    assert all(item.passed for item in report.items)
    assert not report.r_strictly_increasing

    fat_core = line_witness(z_oracle, axis, range(2, 7), n=1)
    report = check_obss_witness(z_table_30, fat_core)
    assert all(not item.diam_K_ok for item in report.items)
    assert all(item.distinct_components for item in report.items)
    assert report.r_strictly_increasing and report.diam_A_strictly_increasing


def _worked_space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": ["0", "1", "20000"],
        "distances": [[0, 1, 20000], [1, 0, 19999], [20000, 19999, 0]]}))
    return path


def test_criterion_9_determinism(tmp_path):
    space_file = _worked_space_file(tmp_path)
    pipelines = [
        # criterion 1
        ["end-depth", "--group", '{"family":"z_pow","k":2}', "--rmax", "15"],
        ["end-depth", "--group", '{"family":"z_pow","k":3}', "--rmax", "6"],
        ["end-depth", "--group", '{"family":"lamplighter","m":2}', "--rmax", "6"],
        # criterion 2
        ["growth", "--group", '{"family":"z"}', "--rmax", "1000"],
        ["growth", "--group", '{"family":"z_pow","k":2}', "--rmax", "15"],
        ["growth", "--group", '{"family":"free","k":2}', "--rmax", "6"],
        ["growth", "--group", '{"family":"dihedral_inf"}', "--rmax", "100"],
        # criterion 3
        ["ends", "--group", '{"family":"z"}', "--rmax", "8"],
        ["ends", "--group", '{"family":"dihedral_inf"}', "--rmax", "8"],
        ["ends", "--group", '{"family":"z_cross_cyclic","m":3}', "--rmax", "8"],
        ["ends", "--group", '{"family":"z_pow","k":2}', "--rmax", "8"],
        ["ends", "--group", '{"family":"free","k":2}', "--rmax", "4"],
        ["ends", "--group", '{"family":"cyclic_finite","m":12}', "--rmax", "6"],
        # criterion 4 (search-feasible families; oracle-fed ones are pure)
        ["classify", "--group", '{"family":"z"}', "--mode", "spheres"],
        ["classify", "--group", '{"family":"dihedral_inf"}', "--mode", "spheres"],
        ["classify", "--group", '{"family":"z_cross_cyclic","m":5}', "--mode", "spheres"],
        ["classify", "--group", '{"family":"z_pow","k":2}', "--mode", "spheres"],
        # criterion 5 (worked example through the CLI)
        ["glpartition", "--input", str(space_file), "--a", "3"],
        # criterion 6
        ["demo-cover", "--group", '{"family":"z"}', "--a", "3", "--n", "2"],
        ["demo-cover", "--group", '{"family":"dihedral_inf"}', "--a", "3", "--n", "2"],
    ]
    for idx, args in enumerate(pipelines):
        first = tmp_path / f"run{idx}_a.out"
        second = tmp_path / f"run{idx}_b.out"
        assert main(args + ["--out", str(first)]) == main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes(), args

    # the seeded partition suite reproduces its outcomes exactly
    def suite_digest():
        rng = random.Random(16807)
        out = []
        for _ in range(100):
            space = clustered_line_space(rng, n_max=12)
            part = build_gl_partition(space, rng.choice((3, 4, 5)))
            out.append(part.to_dict())
        return json.dumps(out, sort_keys=True)

    assert suite_digest() == suite_digest()
