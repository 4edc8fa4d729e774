"""Exploration engine: sphere sizes against independent oracles, table
structure invariants, axes, budgets."""

import ast
import random
from pathlib import Path

import pytest

import endslab
from endslab.errors import BudgetExceeded, InvalidParameter, NoAxis, TruncationTooSmall
from endslab.ends import end_depth_profile
from endslab.explore import build_axis, explore, sphere_size_series
from endslab.groups import make_group

from oracles import (free_sphere_count, l1_sphere_count, lamplighter2_sphere_counts,
                     reference_ball, reference_bfs, reference_set_diameter)

NESTED = {"family": "product",
          "left": {"family": "product", "left": {"family": "z"},
                   "right": {"family": "lamplighter", "m": 2}},
          "right": {"family": "free", "k": 2}}

REFERENCE_CASES = [
    ({"family": "trivial"}, 3),
    ({"family": "trivial"}, 0),
    ({"family": "cyclic_finite", "m": 12}, 8),
    ({"family": "cyclic_finite", "m": 12}, 6),
    ({"family": "cyclic_finite", "m": 2}, 3),
    ({"family": "cyclic_finite", "m": 7}, 3),  # complete, with an edge inside S(3)
    ({"family": "z"}, 12),
    ({"family": "z_pow", "k": 2}, 7),
    ({"family": "z_pow", "k": 3}, 4),
    ({"family": "free", "k": 2}, 5),
    ({"family": "free", "k": 3}, 4),
    ({"family": "dihedral_inf"}, 11),
    ({"family": "z_cross_cyclic", "m": 3}, 7),
    ({"family": "z_cross_cyclic", "m": 2}, 5),
    ({"family": "lamplighter", "m": 2}, 9),
    ({"family": "lamplighter", "m": 3}, 6),
    ({"family": "product", "left": {"family": "z"},
      "right": {"family": "cyclic_finite", "m": 3}}, 6),
    ({"family": "product", "left": {"family": "lamplighter", "m": 3},
      "right": {"family": "dihedral_inf"}}, 4),
    (NESTED, 4),
]


def test_z_line_spheres(z_table_30):
    assert all(z_table_30.sphere_size(r) == 2 for r in range(1, 31))
    assert z_table_30.ball_size(30) == 61


def test_z_pow2_spheres_vs_enumeration(z2_table_22):
    for r in range(9):
        assert z2_table_22.sphere_size(r) == l1_sphere_count(2, r)
    for r in range(1, 23):
        assert z2_table_22.sphere_size(r) == 4 * r


def test_z_pow3_spheres_vs_enumeration():
    table = explore(make_group({"family": "z_pow", "k": 3}), 6)
    for r in range(7):
        assert table.sphere_size(r) == l1_sphere_count(3, r)


def test_free2_spheres_vs_enumeration(f2_table_8):
    for r in range(6):
        assert f2_table_8.sphere_size(r) == free_sphere_count(2, r)
    for r in range(1, 9):
        assert f2_table_8.sphere_size(r) == 4 * 3 ** (r - 1)


def test_dihedral_is_a_line(dihedral_oracle):
    table = explore(dihedral_oracle, 100)
    assert all(table.sphere_size(r) == 2 for r in range(1, 101))


def test_lamplighter_spheres_vs_counting(lamp_oracle):
    table = explore(lamp_oracle, 12)
    expected = lamplighter2_sphere_counts(12)
    assert [table.sphere_size(r) for r in range(13)] == expected


def test_finite_group_completes():
    table = explore(make_group({"family": "cyclic_finite", "m": 5}), 10)
    assert table.complete_group
    assert table.ball_size(10) == 5
    assert [table.sphere_size(r) for r in range(11)] == [1, 2, 2] + [0] * 8


def test_product_matches_builtin_cross():
    prod = explore(make_group({"family": "product", "left": {"family": "z"},
                               "right": {"family": "cyclic_finite", "m": 3}}), 8)
    cross = explore(make_group({"family": "z_cross_cyclic", "m": 3}), 8)
    assert [prod.sphere_size(r) for r in range(9)] == [cross.sphere_size(r) for r in range(9)]


@pytest.mark.parametrize("spec,radius", [
    ({"family": "z"}, 40),
    ({"family": "z_pow", "k": 2}, 12),
    ({"family": "free", "k": 2}, 6),
    ({"family": "dihedral_inf"}, 40),
    ({"family": "z_cross_cyclic", "m": 5}, 10),
    ({"family": "lamplighter", "m": 2}, 10),
    ({"family": "lamplighter", "m": 3}, 8),
    ({"family": "cyclic_finite", "m": 12}, 9),
    ({"family": "trivial"}, 4),
], ids=str)
def test_lean_series_matches_full_tables(spec, radius):
    oracle = make_group(spec)
    table = explore(oracle, radius)
    series = sphere_size_series(oracle, radius)
    assert [series.sphere(r) for r in range(radius + 1)] == \
        [table.sphere_size(r) for r in range(radius + 1)]
    assert [series.ball(r) for r in range(-3, radius + 3)] == \
        [table.ball_size(r) for r in range(-3, radius + 3)]
    assert series.nodes == table.size


def test_layer_property(z2_table_22, f2_table_8):
    for table in (z2_table_22, f2_table_8):
        rng = random.Random(3)
        ids = rng.sample(range(table.size), 200)
        for u in ids:
            du = table.dist_of(u)
            for v in table.neighbors(u):
                assert abs(table.dist_of(v) - du) <= 1
            if du >= 1:
                assert any(table.dist_of(v) == du - 1 for v in table.neighbors(u))


def test_adjacency_symmetric_and_generator_edges(z2_table_22):
    table = z2_table_22
    oracle = table.oracle
    for u in range(0, table.size, 7):
        expected = {table.id_of(oracle.multiply(table.element(u), s))
                    for s in oracle.generators}
        expected.discard(None)  # neighbors past the truncation
        assert set(table.neighbors(u)) == expected
        for v in table.neighbors(u):
            assert u in set(table.neighbors(v))


def test_id_of_rejects_out_of_window_elements(z2_table_22):
    # packed lookups must not alias far-away elements onto table ids
    assert z2_table_22.id_of((1000000, -999999)) is None
    assert z2_table_22.id_of((0, 1)) == 3  # discovery order: e, +e1, -e1, +e2


def test_cross_cyclic_sizes_settle():
    series = sphere_size_series(make_group({"family": "z_cross_cyclic", "m": 3}), 50)
    assert all(series.sphere(r) == 6 for r in range(2, 51))


def test_monotone_ball_growth(lamp_oracle):
    table = explore(lamp_oracle, 10)
    sizes = [table.ball_size(r) for r in range(11)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_left_invariance_spot_check(z2_oracle, z2_table_22):
    # distance from g to h inside the table equals d(e, g^-1 h) from a fresh search
    table = z2_table_22
    rng = random.Random(11)
    half = range(table.ball_size(11))
    fresh = explore(z2_oracle, 22)
    for _ in range(100):
        gu, gv = rng.choice(half), rng.choice(half)
        g, h = table.element(gu), table.element(gv)
        shifted = z2_oracle.multiply(z2_oracle.invert(g), h)
        expected = fresh.dist_of(fresh.id_of(shifted))
        assert reference_bfs(table, [gu])[gv] == expected


@pytest.mark.parametrize("spec,radius", [
    ({"family": "z_pow", "k": 2}, 12),
    ({"family": "z_cross_cyclic", "m": 3}, 12),
    ({"family": "lamplighter", "m": 2}, 9),
    ({"family": "cyclic_finite", "m": 12}, 12),
])
def test_set_diameter_matches_reference_search(spec, radius):
    # within a third of the radius every geodesic between two points stays inside
    table = explore(make_group(spec), radius)
    inner = range(table.size if table.complete_group else table.ball_size(radius // 3))
    rng = random.Random(radius)
    for size in (1, 2, 3, 6):
        ids = rng.sample(inner, size)
        assert table.set_diameter(ids) == reference_set_diameter(table, ids), ids


def test_set_diameter_beyond_truncation_raises(z_oracle):
    table = explore(z_oracle, 12)
    ids = [table.id_of(-8), table.id_of(3), table.id_of(8)]
    with pytest.raises(TruncationTooSmall,
                       match="-8 and 8 lie more than the truncation radius 12"):
        table.set_diameter(ids)
    with pytest.raises(TruncationTooSmall, match="-8 and 8 lie more than"):
        table.distance_rows(ids)
    assert table.set_diameter(ids[1:]) == 5
    assert table.distance_rows(ids[1:]) == [[5], []]


READER_CASES = [
    ({"family": "z_pow", "k": 2}, 12),
    ({"family": "free", "k": 2}, 7),
    ({"family": "lamplighter", "m": 2}, 9),
    ({"family": "z_cross_cyclic", "m": 3}, 12),
    ({"family": "product", "left": {"family": "z"}, "right": {"family": "free", "k": 2}}, 6),
]


@pytest.mark.parametrize("spec,radius", READER_CASES, ids=str)
def test_translates_match_reference_spheres(spec, radius):
    # c * S(e, r) is the sphere of radius r around c: |c| + r <= R keeps
    # every geodesic from c inside the table
    table = explore(make_group(spec), radius)
    centers = random.Random(radius).sample(range(1, table.ball_size(radius // 3)), 3)
    spheres = {}
    for c in centers:
        reach = reference_bfs(table, [c])
        for r in range(radius - table.dist_of(c) + 1):
            spheres[c, r] = sorted(v for v, d in reach.items() if d == r)
            assert sorted(table.translates([table.element(c)], table.layer_ids(r))) \
                == spheres[c, r], (c, r)
    # several centers: every translate, center by center
    r = radius - max(map(table.dist_of, centers))
    n = table.sphere_size(r)
    got = table.translates(map(table.element, centers), table.layer_ids(r))
    assert [sorted(got[i * n:i * n + n]) for i in range(len(got) // n)] == \
        [spheres[c, r] for c in centers]


@pytest.mark.parametrize("spec,radius", READER_CASES, ids=str)
def test_distance_rows_match_reference_search(spec, radius):
    # within a third of the radius every geodesic between two points stays inside
    table = explore(make_group(spec), radius)
    inner = range(table.ball_size(radius // 3))
    ids = random.Random(radius).sample(inner, min(8, len(inner)))
    expected = []
    for i, s in enumerate(ids):
        reach = reference_bfs(table, [s])
        expected.append([reach[t] for t in ids[i + 1:]])
    assert table.distance_rows(ids) == expected


def test_budget_exceeded_reports_radius():
    with pytest.raises(BudgetExceeded) as err:
        explore(make_group({"family": "free", "k": 2}), 10, budget=500)
    assert err.value.radius_reached < 10
    assert err.value.budget == 500
    with pytest.raises(BudgetExceeded):
        sphere_size_series(make_group({"family": "free", "k": 2}), 10, budget=500)


def test_explore_rejects_bad_radius(z_oracle):
    with pytest.raises(InvalidParameter):
        explore(z_oracle, -1)


@pytest.mark.parametrize("search", [explore, sphere_size_series])
@pytest.mark.parametrize("radius,budget,message", [
    (5, 0, "budget must be positive"),
    (5, -3, "budget must be positive"),
    (True, None, "radius must be a nonnegative integer, got True"),
])
def test_search_arguments_checked_alike(z_oracle, search, radius, budget, message):
    # a bad budget is a usage error on both searches, never BudgetExceeded
    with pytest.raises(InvalidParameter, match=message):
        search(z_oracle, radius, budget)


def test_only_explore_reads_table_internals():
    # every other module reads a ball table through its public methods
    src = Path(endslab.__file__).parent
    tree = ast.parse((src / "explore.py").read_text())
    table_class = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "BallTable")
    private = {node.attr for node in ast.walk(table_class)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")}
    private |= {node.name for node in table_class.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    private -= {name for name in private if name.startswith("__")}
    reads = []
    for path in sorted(src.glob("*.py")):
        if path.name == "explore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and (
                    node.attr in private
                    or isinstance(node.value, ast.Name) and node.value.id == "table"):
                reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reads == []


def test_modules_use_every_import():
    # an import whose name a module never reads is left over from a change
    src = Path(endslab.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_axis_families(z_table_30, z2_table_22, dihedral_oracle, lamp_oracle):
    axis = build_axis(z_table_30.oracle, z_table_30, 10)
    assert [axis.vertex(i) for i in (-2, -1, 0, 1, 2)] == [-2, -1, 0, 1, 2]

    axis2 = build_axis(z2_table_22.oracle, z2_table_22, 10)
    assert axis2.vertex(10) == (10, 0)
    assert axis2.vertex(-10) == (-10, 0)

    dt = explore(dihedral_oracle, 12)
    daxis = build_axis(dihedral_oracle, dt, 6)
    assert daxis.vertex(1) == (0, 1)      # s
    assert daxis.vertex(2) == (1, 0)      # st
    assert daxis.vertex(3) == (1, 1)      # sts
    assert daxis.vertex(-1) == (-1, 1)    # t
    for i in range(-6, 7):
        assert dt.dist_of(dt.id_of(daxis.vertex(i))) == abs(i)

    lt = explore(lamp_oracle, 8)
    laxis = build_axis(lamp_oracle, lt, 8)
    for i in range(-8, 9):
        assert laxis.vertex(i) == (i, 0, 0)  # cursor moves, no lamps

    ft = explore(make_group({"family": "free", "k": 2}), 6)
    faxis = build_axis(ft.oracle, ft, 6)
    assert faxis.vertex(3) == (1, 1, 1)
    assert faxis.vertex(-2) == (-1, -1)


def test_no_axis_for_finite_and_products():
    finite = make_group({"family": "cyclic_finite", "m": 5})
    with pytest.raises(NoAxis):
        build_axis(finite, explore(finite, 4), 2)
    prod = make_group({"family": "product", "left": {"family": "z"}, "right": {"family": "z"}})
    with pytest.raises(NoAxis):
        build_axis(prod, explore(prod, 4), 2)


def test_axis_extent_bound(z_table_30):
    with pytest.raises(InvalidParameter):
        build_axis(z_table_30.oracle, z_table_30, 31)
    for bad in (True, 2.0, "2", None):
        with pytest.raises(InvalidParameter, match="axis extent must be an integer"):
            build_axis(z_table_30.oracle, z_table_30, bad)


def test_csv_dump(tmp_path, z_table_30):
    path = tmp_path / "table.csv"
    z_table_30.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "key,distance,neighbors"
    assert lines[1] == "0,0,2"
    assert len(lines) == z_table_30.size + 1


def test_key_round_trip(z_table_30):
    assert z_table_30.key_of(0) == "0"
    assert z_table_30.id_of_key("5") == z_table_30.id_of(5)
    assert z_table_30.id_of_key("31") is None


@pytest.mark.parametrize("spec,radius", REFERENCE_CASES, ids=str)
def test_packed_explore_matches_tuple_reference(spec, radius):
    oracle = make_group(spec)
    table = explore(oracle, radius)
    elements, dist, rows, complete = reference_ball(oracle, radius)
    assert table.size == len(elements)
    assert [table.dist_of(v) for v in range(table.size)] == dist
    assert table.reached == dist[-1]
    for r in range(radius + 2):
        ids = [v for v, d in enumerate(dist) if d == r]
        assert table.layer_ids(r) == (range(ids[0], ids[-1] + 1) if ids else range(0))
    assert [list(table.neighbors(v)) for v in range(table.size)] == rows
    assert table.complete_group == complete
    for v, g in enumerate(elements):
        assert table.element(v) == g
        assert table.key_of(v) == oracle.key_str(g)
        assert table.id_of(g) == v


@pytest.mark.parametrize("spec,radius", REFERENCE_CASES, ids=str)
def test_bipartite_matches_tuple_reference(spec, radius):
    # bipartite families have no edge inside a sphere; the others show one
    # within the tested radius
    oracle = make_group(spec)
    _, dist, rows, _ = reference_ball(oracle, radius)
    same_layer = [(u, v) for u, row in enumerate(rows) for v in row if dist[u] == dist[v]]
    assert oracle.bipartite == (not same_layer)


@pytest.mark.parametrize("spec,radius", REFERENCE_CASES, ids=str)
def test_windowed_series_matches_tuple_reference(spec, radius):
    oracle = make_group(spec)
    _, dist, _, complete = reference_ball(oracle, radius)
    series = sphere_size_series(oracle, radius)
    assert series.sizes == [dist.count(r) for r in range(dist[-1] + 1)]
    assert series.nodes == len(dist)
    assert series.complete_group == complete


def test_id_of_outside_the_window_is_none():
    lamp = explore(make_group({"family": "lamplighter", "m": 2}), 6)
    assert lamp.id_of((0, 0, 0)) == 0
    assert lamp.id_of((8, 0, 0)) is None           # cursor beyond the window
    assert lamp.id_of((0, 100, 1)) is None         # lamp beyond the window
    assert lamp.id_of((0, -3, 0b1111111)) is None  # inside the window, outside the ball
    prod = explore(make_group(NESTED), 3)
    assert prod.id_of(((0, (0, 0, 0)), ())) == 0
    assert prod.id_of(((1000, (0, 0, 0)), ())) is None
    assert prod.id_of(((0, (0, 0, 0)), (1, 2, 1, 2, 1))) is None
    assert prod.id_of(((0, (0, 0, 0)), (1, 2, 1, 2))) is None


def test_codes_beyond_63_bits():
    spec = {"family": "product", "left": {"family": "lamplighter", "m": 2},
            "right": {"family": "cyclic_finite", "m": 2 ** 70}}
    oracle = make_group(spec)
    table = explore(oracle, 5)
    codec = oracle.codec(6)
    assert max(codec.encode(table.element(v)) for v in range(table.size)) > 2 ** 63
    elements, dist, rows, _ = reference_ball(oracle, 5)
    assert [table.dist_of(v) for v in range(table.size)] == dist
    assert [list(table.neighbors(v)) for v in range(table.size)] == rows
    assert all(table.id_of(g) == v for v, g in enumerate(elements))
    assert sphere_size_series(oracle, 5).sizes == [dist.count(r) for r in range(6)]


def test_codes_stay_short_far_beyond_reach():
    # a radius far out of the budget's reach must not widen every code
    from endslab.explore import _codec

    oracle = make_group({"family": "product", "left": {"family": "free", "k": 2},
                         "right": {"family": "lamplighter", "m": 3}})
    assert _codec(oracle, 10 ** 6, 5000).span < 2 ** 200
    with pytest.raises(BudgetExceeded) as err:
        sphere_size_series(oracle, 10 ** 6, budget=5000)
    assert err.value.radius_reached <= oracle.radius_bound(5000)


@pytest.mark.parametrize("spec", [{"family": "lamplighter", "m": 2},
                                  {"family": "z_cross_cyclic", "m": 3}], ids=str)
def test_sweep_never_decodes(spec):
    # the code list is derived from the index on the first decode; a sweep
    # that wires the outer sphere (z x C3 is not bipartite) reads the index
    oracle = make_group(spec)
    table = explore(oracle, 10)
    profile = end_depth_profile(oracle, 2, table=table)
    assert profile.nodes_explored == table.size
    assert (table._wired == table.size) == (not oracle.bipartite)
    assert table._codes is None


@pytest.mark.parametrize("spec,radius", [({"family": "lamplighter", "m": 2}, 9),
                                         ({"family": "z_cross_cyclic", "m": 3}, 7)], ids=str)
def test_element_id_round_trip(spec, radius):
    oracle = make_group(spec)
    table = explore(oracle, radius)
    elements, _, rows, _ = reference_ball(oracle, radius)
    assert oracle.bipartite == (spec["family"] == "lamplighter")
    assert table._wired < table.size
    for wired in (False, True):
        assert [table.element(v) for v in range(table.size)] == elements, wired
        assert all(table.id_of(table.element(v)) == v for v in range(table.size)), wired
        table.neighbors(table.size - 1)
        assert table._wired == table.size
    assert [table.neighbors(v) for v in range(table.size)] == rows
