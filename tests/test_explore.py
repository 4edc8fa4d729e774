"""Exploration engine: sphere sizes against independent oracles, table
structure invariants, axes, budgets."""

import ast
import random
import tracemalloc
from functools import partial
from importlib import import_module
from operator import add
from pathlib import Path

import pytest

import endslab
from endslab.errors import BudgetExceeded, InvalidParameter, NoAxis, TruncationTooSmall
from endslab.ends import end_depth_profile
from endslab.explore import _back_steps, _commute, build_axis, explore, sphere_size_series
from endslab.groups import Codec, GroupOracle, GroupSpec, Record, make_group

from oracles import (free_sphere_count, l1_sphere_count, lamplighter2_sphere_counts,
                     reference_ball, reference_bfs, reference_set_diameter)
from test_groups import ALL_SPECS, random_element

NESTED = {"family": "product",
          "left": {"family": "product", "left": {"family": "z"},
                   "right": {"family": "lamplighter", "m": 2}},
          "right": {"family": "free", "k": 2}}

C3_FREE1 = {"family": "product", "left": {"family": "cyclic_finite", "m": 3},
            "right": {"family": "free", "k": 1}}

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
    ({"family": "free", "k": 1}, 9),
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
    # the lean count, a vertex taking only the steps from its own on
    series = sphere_size_series(z2_table_22.oracle, 40)
    assert series.sizes == [l1_sphere_count(2, r) for r in range(41)]


def test_z_pow3_spheres_vs_enumeration():
    table = explore(make_group({"family": "z_pow", "k": 3}), 6)
    for r in range(7):
        assert table.sphere_size(r) == l1_sphere_count(3, r)
    series = sphere_size_series(table.oracle, 12)
    assert series.sizes == [l1_sphere_count(3, r) for r in range(13)]


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
    assert series.size == table.size == len(table) == len(series)


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


def _strict_steps(oracle, monkeypatch):
    """Make every codec the oracle hands out raise on a step that leaves
    the ball its codes are made for, where the real codes may alias."""
    codec, balls = oracle.codec, {}

    def strict_codec(radius):
        c = codec(radius)
        if radius not in balls:
            balls[radius] = set(map(c.encode, reference_ball(oracle, radius)[0]))
        inside = balls[radius]

        def held(step):
            def step_inside(v):
                w = step(v)
                if w not in inside:
                    raise AssertionError(f"a step leaves B({radius}), the ball of its codes")
                return w
            return step_inside

        return Codec(c.span, c.identity, tuple(map(held, c.steps)), c.encode, c.decode)

    monkeypatch.setattr(oracle, "codec", strict_codec)


@pytest.mark.parametrize("spec", [{"family": "z"}, {"family": "dihedral_inf"},
                                  {"family": "z_pow", "k": 2}, {"family": "free", "k": 2},
                                  {"family": "lamplighter", "m": 2},
                                  {"family": "z_cross_cyclic", "m": 3}], ids=str)
def test_count_past_the_radius_bound_fails_as_explore(spec, monkeypatch):
    # at R = radius_bound(budget) + 1 both searches fail, worded alike. The
    # lean count's last round steps one past S(R), so its codes must reach
    # B(R + 1), one radius past what a table needs; on Z and D_inf an
    # even budget holds B(R - 1) and the first vertex of S(R), so the
    # count probes S(R) before it fails
    oracle = make_group(spec)
    _strict_steps(oracle, monkeypatch)
    module = import_module("endslab.explore")
    for thin in (ALL_BATCHED, ALL_THIN, module._THIN):
        monkeypatch.setattr(module, "_THIN", thin)
        for budget in range(1, 41):
            radius = oracle.radius_bound(budget) + 1
            errors = []
            for search in (explore, sphere_size_series):
                with pytest.raises(BudgetExceeded) as err:
                    search(oracle, radius, budget)
                errors.append(str(err.value))
            assert errors[0] == errors[1], (thin, budget)


@pytest.mark.parametrize("spec", [{"family": "z_pow", "k": 1000}, {"family": "free", "k": 1000}],
                         ids=str)
def test_count_checks_b1_before_set_up_that_grows_with_k_squared(spec):
    # 2001 vertices in B(1) exceed the budget before the back steps, the
    # commuting check or the move tables (about 370 MB here) are built
    oracle = make_group(spec)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            sphere_size_series(oracle, 1, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("node budget 100 exceeded by B(1); B(0) has 1 vertices: "
                              "reached radius 0 of requested 1")
    assert peak < 2_000_000


@pytest.mark.parametrize("spec,radius", [({"family": "lamplighter", "m": 2}, 20),
                                         ({"family": "free", "k": 2}, 9)], ids=str)
def test_lean_count_never_holds_its_outermost_sphere(spec, radius):
    # the count holds the codes of two spheres while it counts S(R), the
    # largest; holding S(R) too took 79-86 B per ball vertex here
    oracle = make_group(spec)
    sphere_size_series(oracle, 3)
    tracemalloc.start()
    try:
        size = sphere_size_series(oracle, radius).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * size, peak / size


def test_budget_exceeded_reports_radius():
    with pytest.raises(BudgetExceeded) as err:
        explore(make_group({"family": "free", "k": 2}), 10, budget=500)
    assert err.value.radius_reached < 10
    assert err.value.budget == 500
    with pytest.raises(BudgetExceeded):
        sphere_size_series(make_group({"family": "free", "k": 2}), 10, budget=500)


BATCH_SPECS = [{"family": "lamplighter", "m": 2}, {"family": "free", "k": 2},
               {"family": "z_cross_cyclic", "m": 3}, {"family": "cyclic_finite", "m": 1000},
               {"family": "z"}, {"family": "dihedral_inf"}, {"family": "z_pow", "k": 2},
               {"family": "product", "left": {"family": "z"}, "right": {"family": "z"}}]

# _THIN values that send every sphere through one path of the lean count:
# the step-by-step maps, or the vertex-by-vertex loop
ALL_BATCHED, ALL_THIN = 0, 1 << 30


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=str)
def test_budget_errors_ignore_batch_size(spec, monkeypatch):
    # a budget error names the last ball that fits, B(r) and |B(r)|, so
    # neither the lean count's path nor either search's visiting order
    # shows in it
    oracle = make_group(spec)
    _, dist, _, _ = reference_ball(oracle, 9)
    balls = [sum(d <= r for d in dist) for r in range(10)]
    for thin in (ALL_BATCHED, ALL_THIN):
        monkeypatch.setattr(import_module("endslab.explore"), "_THIN", thin)
        for search in (explore, sphere_size_series):
            assert search(oracle, 9).sizes == [dist.count(r) for r in range(10)]
            for r in range(1, 9):
                for budget in (balls[r], balls[r] + 1):
                    with pytest.raises(BudgetExceeded) as err:
                        search(oracle, 9, budget)
                    assert str(err.value) == (
                        f"node budget {budget} exceeded by B({r + 1}); B({r}) has "
                        f"{balls[r]} vertices: reached radius {r} of requested 9")
                    assert (err.value.nodes, err.value.radius_reached) == (balls[r], r)


# finite groups whose spheres outgrow the vertex-by-vertex loop, one with
# odd cycles, before the group runs out
WIDE_FINITE = [
    {"family": "product", "left": {"family": "cyclic_finite", "m": 12},
     "right": {"family": "cyclic_finite", "m": 16}},
    {"family": "product", "left": {"family": "cyclic_finite", "m": 9},
     "right": {"family": "z_cross_cyclic", "m": 5}},
]


@pytest.mark.parametrize("spec", ALL_SPECS + WIDE_FINITE,
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_lean_count_matches_tables_and_reference(spec, monkeypatch):
    oracle = make_group(spec)
    radius = 5 if spec["family"] == "product" and "lamplighter" in str(spec) else 9
    elements, dist, _, complete = reference_ball(oracle, radius)
    series = sphere_size_series(oracle, radius)
    assert series.sizes == explore(oracle, radius).sizes == \
        [dist.count(r) for r in range(dist[-1] + 1)]
    assert series.complete_group == complete
    # every radius is the last round of some count, down either path of it,
    # on finite groups before, at and after they run out; the count ends
    # holding the codes of S(r - 2) and S(r - 1) if it counted S(r), never
    # S(r) itself, and of the last two spheres if the group ran out before
    # r. The last round steps one past S(r), so the codes reach r + 1
    module = import_module("endslab.explore")
    codec = oracle.codec(radius + 1)
    for thin in (ALL_BATCHED, ALL_THIN, module._THIN):
        monkeypatch.setattr(module, "_THIN", thin)
        for r in range(radius + 1):
            reached = min(r, dist[-1])
            assert sphere_size_series(oracle, r).sizes == \
                [dist.count(d) for d in range(reached + 1)], (thin, r)
            seen = {codec.identity}
            module._count(codec, r, 10 ** 6, seen, [0, 1])
            top = max(0, min(r - 1, reached))
            assert seen == {codec.encode(g) for g, d in zip(elements, dist)
                            if top - 2 < d <= top}, (thin, r)


def _table_state(table):
    return list(table._index.items()), list(table._adj), list(table._layer_start)


@pytest.mark.parametrize("spec", ALL_SPECS + WIDE_FINITE,
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_grown_table_is_explored_and_lean_sizes_match_at_every_thin(spec, monkeypatch):
    # a table grown sphere by sphere has the ids, rows and layer bounds of
    # one explored at once, and the lean count gives its sizes down
    # either path of the count
    oracle = make_group(spec)
    radius = 5 if spec["family"] == "product" and "lamplighter" in str(spec) else 9
    module = import_module("endslab.explore")
    grown = explore(oracle, 1)
    for r in (2, radius - 1, radius):
        grown.grow(r)
    table = explore(oracle, radius)
    assert _table_state(grown) == _table_state(table)
    for thin in (ALL_BATCHED, ALL_THIN, module._THIN):
        monkeypatch.setattr(module, "_THIN", thin)
        assert sphere_size_series(oracle, radius).sizes == table.sizes, thin


@pytest.mark.parametrize("spec", ALL_SPECS + WIDE_FINITE,
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_back_steps_undo_every_step(spec):
    # the inverse of each step, read off the identity, undoes it on any
    # code of B(8), and is the step of the inverse generator
    oracle = make_group(spec)
    codec = oracle.codec(9)
    back = _back_steps(codec)
    gens = oracle.generators
    assert [gens[b] for b in back] == [oracle.invert(g) for g in gens]
    rng = random.Random(11)
    for _ in range(300):
        code = codec.encode(random_element(oracle, rng, max_letters=8))
        for step, b in zip(codec.steps, back):
            assert codec.steps[b](step(code)) == code


class _ZPlusTwo(GroupOracle):
    """Z with the steps +1, -1 and +2 but not -2: no inversion-closed set."""

    order = None

    def codec(self, radius):
        return Codec(2 ** 64, 2 ** 32, (partial(add, 1), partial(add, -1), partial(add, 2)),
                     None, None)


def test_steps_without_an_inverse_raise():
    with pytest.raises(InvalidParameter, match="step 2 has no inverse"):
        sphere_size_series(_ZPlusTwo(), 5)


def _cyclic_times(m, right):
    return {"family": "product", "left": {"family": "cyclic_finite", "m": m}, "right": right}


# commuting generating sets with elements whose sorted geodesic words end
# in different steps: a^2 = a^-1 a^-1 in C4, and the like
SORTED_CASES = [
    (_cyclic_times(4, {"family": "z"}), 13),
    (_cyclic_times(2, {"family": "z_pow", "k": 2}), 11),
    ({"family": "z_cross_cyclic", "m": 4}, 13),
    (_cyclic_times(6, _cyclic_times(4, {"family": "z"})), 10),
] + [(spec, 12) for spec in WIDE_FINITE]


@pytest.mark.parametrize("spec,radius", SORTED_CASES, ids=str)
def test_commuting_counts_match_reference(spec, radius, monkeypatch):
    # a vertex takes only the steps from its own on: every sphere is still
    # counted whole, down either path of the count, and every radius is
    # the last round of some count, which takes every step but the back one
    oracle = make_group(spec)
    _, dist, _, complete = reference_ball(oracle, radius)
    module = import_module("endslab.explore")
    for thin in (ALL_BATCHED, ALL_THIN, module._THIN):
        monkeypatch.setattr(module, "_THIN", thin)
        for r in range(radius + 1):
            series = sphere_size_series(oracle, r)
            assert series.sizes == [dist.count(d) for d in range(min(r, dist[-1]) + 1)], (thin, r)
        assert series.complete_group == complete


def _abelian(spec):
    if spec["family"] == "product":
        return _abelian(spec["left"]) and _abelian(spec["right"])
    return spec["family"] not in ("dihedral_inf", "lamplighter") and \
        not (spec["family"] == "free" and spec["k"] >= 2)


@pytest.mark.parametrize("spec", ALL_SPECS + WIDE_FINITE,
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_commute_reads_the_group_law(spec):
    # the flag read off the codes of B(2) is the group law's verdict on
    # every pair of generators
    oracle = make_group(spec)
    gens, multiply = oracle.generators, oracle.multiply
    law = all(multiply(g, h) == multiply(h, g) for g in gens for h in gens)
    assert _commute(oracle.codec(2)) == law == _abelian(spec)


def _counted_steps(oracle, monkeypatch):
    """Wrap the steps of every codec the oracle hands out with one call
    counter; returns the list the calls are appended to."""
    calls, codec = [], oracle.codec

    def counted(step):
        return lambda v: calls.append(1) or step(v)

    def counting_codec(radius):
        c = codec(radius)
        return Codec(c.span, c.identity, tuple(map(counted, c.steps)), c.encode, c.decode)

    monkeypatch.setattr(oracle, "codec", counting_codec)
    return calls


def _set_up_calls(oracle, calls):
    """The step calls of the lean count's set-up to a radius of 2 or more:
    ``_back_steps`` before its first round, ``_commute`` before its second."""
    codec = oracle.codec(2)
    calls.clear()
    _back_steps(codec)
    _commute(codec)
    setup = len(calls)
    calls.clear()
    return setup


def _last_round_probes(oracle, radius):
    """The back-step calls the lean count's last round makes, read off the
    group law: a vertex v of S(R) is found from S(R - 1) by the steps j with
    v * s_j^-1 in S(R - 1). From its lowest finder j0 it passes j0 probes;
    from each other finder the probe of j0 ends it, after j0 + 1."""
    elements, dist, _, _ = reference_ball(oracle, radius)
    before = {g for g, d in zip(elements, dist) if d == radius - 1}
    inverses = [oracle.invert(s) for s in oracle.generators]
    probes = 0
    for g, d in zip(elements, dist):
        if d == radius:
            finders = [j for j, s in enumerate(inverses) if oracle.multiply(g, s) in before]
            probes += finders[0] + (len(finders) - 1) * (finders[0] + 1)
    return probes


def _sorted_word_steps(oracle, radius):
    """The step calls of the lean count's rounds before its last on a
    commuting generating set, read off the group law: the identity takes
    every step, and a vertex u of B(R - 2) the steps j >= m(u) but the
    inverse of m(u), where m(u), the least largest step of a geodesic word
    of u, is the least max(m(p), j) over u = p * s_j with p one nearer."""
    elements, dist, _, _ = reference_ball(oracle, radius - 2)
    gens = oracle.generators
    k, inverse = len(gens), [gens.index(oracle.invert(s)) for s in gens]
    depth, least = dict(zip(elements, dist)), {elements[0]: -1}
    calls = k
    for g in elements[1:]:
        finders = [(oracle.multiply(g, gens[inverse[j]]), j) for j in range(k)]
        m = least[g] = min(max(least[p], j) for p, j in finders
                           if depth.get(p) == depth[g] - 1)
        calls += sum(j >= m and j != inverse[m] for j in range(k))
    return calls


def test_commuting_steps_probe_about_once_per_vertex(monkeypatch):
    # inside the last sphere each vertex of Z^2 takes about one step, not
    # the three of every step but the one back to its parent; the last
    # round steps each vertex of S(R - 1) by all three, and probes S(R)
    oracle = make_group({"family": "z_pow", "k": 2})
    calls = _counted_steps(oracle, monkeypatch)
    setup = _set_up_calls(oracle, calls)
    series = sphere_size_series(oracle, 60)
    assert series.size == 7321
    inner = _sorted_word_steps(oracle, 60)
    last = 3 * series.sphere(59) + _last_round_probes(oracle, 60)
    assert (inner, last) == (7080, 1186)
    assert len(calls) == setup + inner + last
    assert inner <= 1.1 * series.ball(59)


@pytest.mark.parametrize("spec,radius", [({"family": "lamplighter", "m": 2}, 10),
                                         ({"family": "dihedral_inf"}, 30)], ids=str)
def test_steps_that_do_not_commute_probe_as_before(spec, radius, monkeypatch):
    # every vertex inside the last sphere takes every step but its back
    # step, the identity every step; the last round adds its back-step
    # probes of S(R), and set-up its fixed calls
    oracle = make_group(spec)
    calls = _counted_steps(oracle, monkeypatch)
    k = len(oracle.generators)
    setup = _set_up_calls(oracle, calls)
    inner = sphere_size_series(oracle, radius).ball(radius - 1)
    assert len(calls) == setup + k + (k - 1) * (inner - 1) + _last_round_probes(oracle, radius)


@pytest.mark.parametrize("spec,radius", [({"family": "lamplighter", "m": 2}, 9),
                                         ({"family": "dihedral_inf"}, 40),
                                         ({"family": "z_cross_cyclic", "m": 3}, 9)], ids=str)
def test_table_steps_each_vertex_once_per_generator(spec, radius, monkeypatch):
    # explore steps each vertex of B(R - 1) once per generator, and wiring
    # the outermost sphere steps each vertex of S(R) once per generator:
    # on wide spheres, thin ones, and a family with edges inside a sphere
    oracle = make_group(spec)
    calls = _counted_steps(oracle, monkeypatch)
    k = len(oracle.generators)
    table = explore(oracle, radius)
    assert len(calls) == k * table.ball(radius - 1)
    table.neighbors(table.size - 1)
    assert len(calls) == k * table.ball(radius - 1) + k * table.sphere(radius)


class _Translations(GroupOracle):
    """The subgroup of Z^2 generated by an inversion-closed set of
    translations, the steps in the given order: (x, y) is coded
    2^64 + x * 2^32 + y."""

    order = None

    def __init__(self, moves):
        self.generators = moves

    def identity(self):
        return (0, 0)

    def multiply(self, g, h):
        return (g[0] + h[0], g[1] + h[1])

    def codec(self, radius):
        return Codec(2 ** 128, 2 ** 64,
                     tuple(partial(add, x * 2 ** 32 + y) for x, y in self.generators), None, None)


# translation sets whose thin spheres find some vertex by a higher step
# before a lower one, in the vertex-by-vertex loop
REFILED_CASES = [([(-1, 0), (-3, 0), (1, 0), (3, 0)], 30),
                 ([(0, -2), (1, -2), (0, 2), (-1, 2), (-3, 2), (3, -2)], 12)]


@pytest.mark.parametrize("moves,radius", REFILED_CASES, ids=str)
def test_thin_loop_files_as_the_batched_maps(moves, radius, monkeypatch):
    # each vertex is filed under the least step that finds it down either
    # path of the count, so a vertex takes the same steps down both
    oracle = _Translations(moves)
    _, dist, _, _ = reference_ball(oracle, radius)
    module = import_module("endslab.explore")
    calls = _counted_steps(oracle, monkeypatch)
    counted = []
    for thin in (ALL_BATCHED, ALL_THIN):
        monkeypatch.setattr(module, "_THIN", thin)
        calls.clear()
        assert sphere_size_series(oracle, radius).sizes == \
            [dist.count(r) for r in range(radius + 1)]
        counted.append(len(calls))
    assert counted[0] == counted[1]


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


def test_record_fields_are_read():
    # a slot that neither the package nor a test ever reads records nothing;
    # Record.to_dict reads every name in a record's report_keys
    modules = sorted(Path(endslab.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in modules + sorted(Path(__file__).parent.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read.update(key for cls in _record_classes() for key in cls.report_keys)
    classes = [(path, cls) for path in modules for cls in ast.walk(trees[path])
               if isinstance(cls, ast.ClassDef)]
    unread = [f"{path.name}: {cls.name}.{name}" for path, cls in classes for stmt in cls.body
              if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", "") == "__slots__"
              for name in ast.literal_eval(stmt.value) if name not in read]
    assert unread == []


def _record_classes():
    classes, todo = [], [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    return classes


def test_record_constructor_takes_every_field_in_order():
    classes = _record_classes()
    assert len(classes) >= 15
    for cls in classes:
        n = len(cls.__slots__)
        record = cls(*range(n))
        assert [getattr(record, name) for name in cls.__slots__] == list(range(n)), cls
        for values in (range(n - 1), range(n + 1)):
            with pytest.raises(ValueError):
                cls(*values)


def test_records_define_no_init():
    # a record's fields are named once, in __slots__; Record.__init__ sets them
    modules = sorted(Path(endslab.__file__).parent.glob("*.py"))
    inits = [f"{path.name}: {cls.name}" for path in modules
             for cls in ast.walk(ast.parse(path.read_text()))
             if isinstance(cls, ast.ClassDef)
             and any(getattr(base, "id", "") == "Record" for base in cls.bases)
             for stmt in cls.body
             if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"]
    assert inits == []


def test_report_keys_name_fields():
    # a misspelt report key fails here, not in a user's run
    for cls in _record_classes():
        for key in cls.report_keys:
            assert key in cls.__slots__ or isinstance(getattr(cls, key, None), property), \
                f"{cls.__name__}.{key}"


def test_records_share_one_serializer():
    # Record.to_dict writes every report; a witness only drops an unset truncation
    own = [cls.__name__ for cls in _record_classes() if "to_dict" in vars(cls)]
    assert own == ["ObssWitness"]


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
        assert laxis.vertex(i) == (i, 0)  # cursor moves, no lamps

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


def test_key_round_trip(z_table_30):
    assert z_table_30.key_of(0) == "0"
    assert z_table_30.ids_of_keys(["5", "31", "-2"]) == {"5": z_table_30.id_of(5),
                                                         "-2": z_table_30.id_of(-2)}
    assert z_table_30.ids_of_keys([]) == {}


def test_key_scan_stops_at_last_key(monkeypatch):
    # ids are in distance order, so a scan for keys near the identity reads
    # only the ball they lie in; a missing key costs the whole table
    oracle = make_group({"family": "z"})
    table = explore(oracle, 30)
    keys = []
    monkeypatch.setattr(oracle, "key_str", lambda g: keys.append(g) or str(g))
    assert table.ids_of_keys(["2", "-1"]) == {"2": 3, "-1": 2}
    assert keys == [0, 1, -1, 2]
    keys.clear()
    assert table.ids_of_keys(["2", "99"]) == {"2": 3}
    assert len(keys) == table.size


@pytest.mark.parametrize("spec,radius", REFERENCE_CASES, ids=str)
def test_packed_explore_matches_tuple_reference(spec, radius):
    oracle = make_group(spec)
    _assert_reference_ball(oracle, explore(oracle, radius), radius)


def _assert_reference_ball(oracle, table, radius):
    """The table holds the ball of ``radius`` as the tuple search finds it:
    element order, layer bounds, rows, keys and the complete flag."""
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


@pytest.mark.parametrize("spec,radii", [
    ({"family": "z_pow", "k": 2}, (3, 7)),
    ({"family": "lamplighter", "m": 2}, (0, 2, 5, 9)),
    # not bipartite: the rows of S(R) have slots inside S(R)
    ({"family": "z_cross_cyclic", "m": 3}, (3, 4, 7)),
    ({"family": "lamplighter", "m": 3}, (2, 6)),
    (C3_FREE1, (2, 5)),
    ({"family": "cyclic_finite", "m": 7}, (1, 3)),  # complete, with an edge inside S(3)
    ({"family": "cyclic_finite", "m": 12}, (3, 9)),  # grown past the diameter 6
    ({"family": "cyclic_finite", "m": 12}, (6, 8, 12)),  # complete before any growth
    ({"family": "trivial"}, (0, 2)),
    (NESTED, (1, 4)),
], ids=str)
def test_grown_table_matches_tuple_reference(spec, radii):
    # a table grown radius by radius is the table explored at once; each
    # check decodes every element first, so the code list must be rebuilt by
    # the next growth, and a key scan must read the grown table's codes
    oracle = make_group(spec)
    table = explore(oracle, radii[0])
    _assert_reference_ball(oracle, table, radii[0])
    for radius in radii[1:]:
        table.grow(radius)
        _assert_reference_ball(oracle, table, radius)
        last = table.key_of(table.size - 1)
        assert table.ids_of_keys([last]) == {last: table.size - 1}


@pytest.mark.parametrize("spec", [{"family": "z_cross_cyclic", "m": 3},
                                  {"family": "lamplighter", "m": 3}], ids=str)
def test_grow_rewrites_the_wired_outer_sphere(spec):
    # a sweep of B(5) wires the rows of S(5) with -1 for the steps that leave
    # the ball; growing must write them again with their new neighbors
    oracle = make_group(spec)
    table = explore(oracle, 5)
    end_depth_profile(oracle, 2, table=table, truncation=5, one_ended=True)
    assert len(table.neighbors(table.size - 1)) < len(oracle.generators)
    table.grow(7)
    _assert_reference_ball(oracle, table, 7)


def test_grow_within_reach_searches_nothing(monkeypatch):
    oracle = make_group({"family": "z_cross_cyclic", "m": 3})
    table = explore(oracle, 6)
    table.neighbors(table.size - 1)

    def no_search(*args):
        raise AssertionError("searched again")

    monkeypatch.setattr(import_module("endslab.explore"), "_search", no_search)
    for radius in (6, 2, 0):
        table.grow(radius)
        _assert_reference_ball(oracle, table, 6)
    with pytest.raises(InvalidParameter, match="radius must be a nonnegative integer"):
        table.grow(-1)


def test_failed_grow_raises_as_explore_and_keeps_the_table():
    # |B(r)| of free(2) is 53, 161, 485 and 1457 for r = 3..6
    oracle = make_group({"family": "free", "k": 2})
    table = explore(oracle, 3, budget=500)
    table.neighbors(table.size - 1)
    for radius in (6, 10):
        with pytest.raises(BudgetExceeded) as want:
            explore(oracle, radius, budget=500)
        with pytest.raises(BudgetExceeded) as got:
            table.grow(radius)
        assert str(got.value) == str(want.value)
        assert got.value.radius_requested == radius
        _assert_reference_ball(oracle, table, 3)
    table.grow(5)
    _assert_reference_ball(oracle, table, 5)


@pytest.mark.parametrize("spec,radius,thin", [
    ({"family": "z"}, 5, True),  # recoded by the growth
    ({"family": "cyclic_finite", "m": 1000}, 5, True),
    ({"family": "lamplighter", "m": 2}, 4, False),
], ids=str)
def test_grow_failing_inside_a_sphere_keeps_the_table(spec, radius, thin):
    # the budget runs out after the first new vertex of S(radius + 2), once
    # codes of that sphere are in the index: the failed growth must take
    # them out again, and a growth that fits must give explore's table
    oracle = make_group(spec)
    sizes = explore(oracle, radius + 2).sizes
    assert (sizes[radius + 1] < import_module("endslab.explore")._THIN) == thin
    budget = sum(sizes[:radius + 2]) + 1
    table = explore(oracle, radius, budget)
    before = _table_state(table) + (table.size,)
    with pytest.raises(BudgetExceeded) as err:
        table.grow(radius + 5)
    assert (err.value.nodes, err.value.radius_reached) == (budget - 1, radius + 1)
    assert _table_state(table) + (table.size,) == before
    table.grow(radius + 1)
    assert _table_state(table) == _table_state(explore(oracle, radius + 1, budget))


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
    assert series.size == len(dist)
    assert series.complete_group == complete


def test_id_of_outside_the_window_is_none():
    lamp = explore(make_group({"family": "lamplighter", "m": 2}), 6)
    assert lamp.id_of((0, 0)) == 0
    assert lamp.id_of((8, 0)) is None           # cursor beyond the window
    assert lamp.id_of((0, 2 ** 200)) is None    # lamp at 100, beyond the window
    assert lamp.id_of((0, 0b1111111)) is None   # lamps -3..3: inside the window, outside the ball
    prod = explore(make_group(NESTED), 3)
    assert prod.id_of(((0, (0, 0)), ())) == 0
    assert prod.id_of(((1000, (0, 0)), ())) is None
    assert prod.id_of(((0, (0, 0)), (1, 2, 1, 2, 1))) is None
    assert prod.id_of(((0, (0, 0)), (1, 2, 1, 2))) is None


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


@pytest.mark.parametrize("spec,radius", [
    ({"family": "free", "k": 1}, 40),
    (C3_FREE1, 40),
    ({"family": "product", "left": {"family": "z"}, "right": {"family": "free", "k": 1}}, 40),
    ({"family": "z_pow", "k": 3}, 20),
], ids=str)
def test_table_codes_fit_the_radius_grown_to(spec, radius):
    # codes are sized for the ball a table holds, not for all the budget
    # could reach, and free(1) words are coded by their exponent: one-digit
    # ints (below 2^30) at these radii, before and after growth
    oracle = make_group(spec)
    table = explore(oracle, radius // 2)
    assert max(table._index) < 2 ** 30
    table.grow(radius)
    assert max(table._index) < 2 ** 30
    _assert_reference_ball(oracle, table, radius)


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
