"""Complement components, end depth, ends estimates, witness checking."""

import random
from array import array
from itertools import chain
from types import SimpleNamespace

import pytest

from endslab import ends
from endslab.ends import (ObssWitness, WitnessItem, _complement_sweep,
                          check_obss_witness, end_count_estimate, end_depth,
                          end_depth_profile)
from endslab.errors import BudgetExceeded, InvalidParameter, TruncationTooSmall
from endslab.explore import BallTable, build_axis, explore
from endslab.groups import Codec, GroupSpec, make_group

from oracles import (complement_components, line_witness, reference_bfs,
                     reference_obss_components)
from test_groups import ALL_SPECS


def test_line_complement_two_rays(z_table_30):
    decomp = complement_components(z_table_30, 5)
    assert len(decomp.components) == 2
    assert decomp.touching_count == 2
    assert not decomp.bounded_components


def test_plane_annulus_connected(z2_table_22):
    decomp = complement_components(z2_table_22, 5)
    assert len(decomp.components) == 1
    assert decomp.components[0].boundary_touching


def test_tree_complement_one_component_per_outer_vertex(f2_table_8):
    # vertices beyond the closed ball of radius r split into one subtree
    # per vertex at distance r+1
    assert len(complement_components(f2_table_8, 3).components) == 4 * 3 ** 3
    assert len(complement_components(f2_table_8, 2).components) == 4 * 3 ** 2


def test_components_partition_and_touch_next_layer(z2_table_22, f2_table_8):
    for table, r in ((z2_table_22, 4), (f2_table_8, 2)):
        decomp = complement_components(table, r)
        seen = set()
        expected = set(range(table.ball_size(r), table.ball_size(table.reached)))
        for comp in decomp.components:
            assert not seen.intersection(comp.ids)
            seen.update(comp.ids)
            assert min(map(table.dist_of, comp.ids)) == r + 1
        assert seen == expected


def test_component_soundness_paths_must_cross_ball(f2_table_8):
    # vertices in distinct components cannot reach each other avoiding B(r)
    r = 2
    decomp = complement_components(f2_table_8, r)
    rng = random.Random(5)
    comps = rng.sample(decomp.components, 10)
    allowed = set()
    for comp in decomp.components:
        allowed.update(comp.ids)
    for a, b in zip(comps, comps[1:]):
        u, v = a.ids[0], b.ids[0]
        reached = reference_bfs(f2_table_8, [u], allowed=allowed)
        assert v not in reached


@pytest.mark.parametrize("spec,radius", [
    ({"family": "z"}, 30),
    ({"family": "z_pow", "k": 2}, 16),
    ({"family": "free", "k": 2}, 8),
    ({"family": "dihedral_inf"}, 20),
    ({"family": "cyclic_finite", "m": 12}, 9),  # complete: reached is the diameter 6
    ({"family": "lamplighter", "m": 2}, 12),
    # not bipartite: the sweep reads rows of S(reached), wired on first use
    ({"family": "z_cross_cyclic", "m": 3}, 12),
    ({"family": "lamplighter", "m": 3}, 7),
    ({"family": "cyclic_finite", "m": 7}, 3),  # complete, with the edge {3, 4} in S(3)
    ({"family": "product", "left": {"family": "z"},
      "right": {"family": "z_cross_cyclic", "m": 3}}, 8),
], ids=str)
def test_sweep_matches_full_decomposition(spec, radius):
    # the incremental outside-in pass and the direct per-radius union-find
    # must agree on counts, touching flags and the deepest bounded vertex,
    # at every snapshot from 0, at each of the last two truncations alone
    # and at the last three in one nested pass
    table = explore(make_group(spec), radius)
    reached = table.reached
    for truncs in ((reached - 1,), (reached,), (reached - 2, reached - 1, reached)):
        snapshots = list(range(truncs[0]))
        sweeps = _complement_sweep(table, snapshots, truncs)
        assert sorted(sweeps) == list(truncs)
        for trunc in truncs:
            for r in snapshots:
                decomp = complement_components(table, r, trunc)
                comp_count, touch_count, bounded_max = sweeps[trunc][r]
                assert comp_count == len(decomp.components), (truncs, trunc, r)
                assert touch_count == decomp.touching_count, (truncs, trunc, r)
                bounded = decomp.bounded_ids()
                assert bounded_max == (max(bounded) if bounded else None), (truncs, trunc, r)


@pytest.mark.parametrize("spec", [{"family": "z"}, {"family": "z_cross_cyclic", "m": 3}],
                         ids=str)
def test_sweep_finds_bounded_root_at_top_of_inner_sphere(spec):
    # id 4, the last of S(2), is a dead end: its component in B(3) \ B(1)
    # misses S(3). No built-in family puts one there, so the table is built
    # by hand: layers {0}, {1, 2}, {3, 4}, {5}, rows of k = 2 ids, all
    # wired; the oracle only selects the bipartite or the general path
    rows = [[1, 2], [0, 3], [0, 4], [1, 5], [2, 2], [3, 3]]
    table = BallTable(make_group(spec), 3, Codec(6, 0, (None, None), None, None),
                      {i: i for i in range(6)}, [0, 1, 3, 5, 6], 6,
                      array("i", chain.from_iterable(rows)))
    for truncs in ((2,), (3,), (2, 3)):
        sweeps = _complement_sweep(table, range(truncs[0]), truncs)
        for trunc in truncs:
            for r in range(truncs[0]):
                decomp = complement_components(table, r, trunc)
                bounded = decomp.bounded_ids()
                assert sweeps[trunc][r] == (
                    len(decomp.components), decomp.touching_count,
                    max(bounded) if bounded else None), (truncs, trunc, r)
    assert _complement_sweep(table, [1], [3])[3][1] == (2, 1, 4)
    assert _complement_sweep(table, [1], [2, 3])[3][1] == (2, 1, 4)


def test_complement_rejects_bad_radius(z_table_30):
    with pytest.raises(InvalidParameter):
        complement_components(z_table_30, 30)
    with pytest.raises(TruncationTooSmall):
        complement_components(z_table_30, 2, truncation=31)


def test_end_depth_plane(z2_oracle):
    res = end_depth(z2_oracle, 3)
    assert (res.value, res.certified) == (3, True)
    assert res.truncation == 14
    assert res.bounded_count == 0
    assert res.ends_classification == "one"


def test_end_depth_rank3():
    res = end_depth(make_group({"family": "z_pow", "k": 3}), 2)
    assert (res.value, res.certified) == (2, True)


def test_end_depth_lamplighter_small(lamp_oracle):
    res = end_depth(lamp_oracle, 4)
    assert res.certified
    assert res.value <= 16


def test_end_depth_finite_group():
    # no unbounded component exists: the whole complement is bounded and the
    # depth is the group diameter; never certified, classified zero
    finite = make_group({"family": "cyclic_finite", "m": 12})
    res = end_depth(finite, 2)
    assert (res.value, res.bounded_count) == (6, 1)
    assert res.ends_classification == "zero" and not res.certified
    with pytest.raises(InvalidParameter, match="whole group lies within radius 6"):
        end_depth(finite, 10)  # no complement past the diameter
    profile = end_depth_profile(finite, 3)
    assert profile.values() == [6, 6, 6]


def test_finite_group_explored_whole(z_oracle, z_table_30):
    # the ball of radius 10 in C_40 is cut into two rays; the whole group
    # has one bounded complement component, as deep as the diameter 20
    c40 = make_group({"family": "cyclic_finite", "m": 40})
    res = end_depth(c40, 2)
    assert (res.value, res.bounded_count, res.ends_classification) == (20, 1, "zero")
    assert res.truncation == 20 and not res.certified
    assert end_depth_profile(c40, 2, table=explore(c40, 10)).values() == [20, 20]
    # a caller's table is kept when it is whole, or reaches the radius of an
    # infinite group
    whole = explore(c40, 25)
    assert ends._ball_table(c40, 30, None, whole) is whole
    assert ends._ball_table(z_oracle, 30, None, z_table_30) is z_table_30
    assert ends._ball_table(z_oracle, 31, None, z_table_30).reached == 31


def test_end_depth_warns_on_two_ended(z_oracle):
    res = end_depth(z_oracle, 3)
    assert res.not_one_ended_warning
    assert not res.certified
    assert res.value == 3  # the line has no bounded complement components


def test_end_depth_caller_assertion(z2_oracle):
    res = end_depth(z2_oracle, 3, one_ended=True)
    assert res.certified and res.ends_classification is None


def test_truncation_stability(z2_oracle):
    for r in (2, 3, 5):
        at_default = end_depth(z2_oracle, r, truncation=4 * r + 2)
        at_double = end_depth(z2_oracle, r, truncation=8 * r)
        assert at_default.value == at_double.value


def _ball_within(oracle, radius, budget):
    """The ball of ``radius``, or the largest ball that fits in ``budget``."""
    try:
        return explore(oracle, radius, budget)
    except BudgetExceeded as exc:
        return explore(oracle, exc.radius_reached)


@pytest.fixture(scope="module")
def lamp_table_22(lamp_oracle):
    return explore(lamp_oracle, 22)


def _exact_from_double_radius(oracle, table):
    """(value, bounded count) per r at truncation 2r + 1 and at the table's
    full radius, for every r with 2r + 1 below it."""
    r_max = (table.reached - 2) // 2
    deepest = end_depth_profile(oracle, r_max, one_ended=True, table=table,
                                truncation=table.reached).entries
    at_double = [end_depth(oracle, r, truncation=2 * r + 1, one_ended=True, table=table)
                 for r in range(1, r_max + 1)]
    return ([(e.value, e.bounded_count) for e in at_double],
            [(e.value, e.bounded_count) for e in deepest])


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if make_group(s).order is None],
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_truncation_double_radius_exact(spec):
    # in an infinite group every bounded component of G \ B(r) lies in
    # B(2r) (the ends module docstring), so truncating at 2r + 1 already
    # separates the bounded components from the unbounded ones
    oracle = make_group(spec)
    at_double, deepest = _exact_from_double_radius(oracle, _ball_within(oracle, 24, 60_000))
    assert at_double and at_double == deepest


def test_lamplighter_depth_at_double_radius(lamp_oracle, lamp_table_22):
    at_double, deepest = _exact_from_double_radius(lamp_oracle, lamp_table_22)
    assert at_double == deepest
    assert [v for v, _ in at_double] == [1, 2, 3, 4, 5, 7, 7, 9, 10, 11]
    assert [c for _, c in at_double] == [0, 0, 0, 0, 0, 1, 0, 2, 2, 3]


def test_profile_values_and_floor(z2_oracle):
    profile = end_depth_profile(z2_oracle, 10)
    assert profile.values() == list(range(1, 11))
    assert all(e.certified for e in profile.entries)
    assert all(e.value >= e.r for e in profile.entries)


@pytest.mark.parametrize("spec,r_max,trunc", [
    ({"family": "z"}, 4, 18),
    ({"family": "z_pow", "k": 2}, 3, 14),
    ({"family": "z_cross_cyclic", "m": 3}, 4, 18),
    ({"family": "free", "k": 2}, 2, 10),
    ({"family": "lamplighter", "m": 2}, 2, 10),
    ({"family": "lamplighter", "m": 2}, 2, 6),  # e(2) is 2 at 5 and 1 at 6
], ids=str)
def test_profile_classification_matches_estimate(spec, r_max, trunc):
    # the profile reads the ends counts at its truncation from its depth
    # sweep; the stand-alone estimate sweeps both truncations itself
    oracle = make_group(spec)
    table = explore(oracle, trunc)
    profile = end_depth_profile(oracle, r_max, table=table, truncation=trunc)
    estimate = end_count_estimate(oracle, r_max, schedule=(trunc - 1, trunc), table=table)
    assert profile.classification == estimate.classification


def test_one_sweep_per_command(z2_oracle, monkeypatch):
    calls = []

    def counted(table, snapshots, truncations):
        calls.append(tuple(truncations))
        return _complement_sweep(table, snapshots, truncations)

    monkeypatch.setattr(ends, "_complement_sweep", counted)
    end_depth_profile(z2_oracle, 3)
    assert calls == [(13, 14)]
    calls.clear()
    end_depth_profile(z2_oracle, 3, one_ended=True)
    assert calls == [(14,)]
    calls.clear()
    end_count_estimate(z2_oracle, 3, schedule=(5, 7, 9))
    assert calls == [(5, 7, 9)]
    calls.clear()
    # no count beyond the diameter 6 of a finite group
    end_count_estimate(make_group({"family": "cyclic_finite", "m": 12}), 2,
                       schedule=(3, 4, 6, 8))
    assert calls == [(3, 4, 6)]


def test_profile_rejects_zero_rmax(z2_oracle):
    with pytest.raises(InvalidParameter):
        end_depth_profile(z2_oracle, 0)


def test_bool_r_max_rejected(z2_oracle):
    # True is an int to isinstance, but not a radius
    with pytest.raises(InvalidParameter, match="r_max must be a positive integer, got True"):
        end_depth_profile(z2_oracle, True)
    with pytest.raises(InvalidParameter, match="r_max must be a positive integer, got True"):
        end_count_estimate(z2_oracle, True)


def test_profile_truncation_leaves_room_for_estimate(z2_oracle):
    # the ends estimate compares truncations T - 1 and T, both beyond r_max
    with pytest.raises(InvalidParameter):
        end_depth_profile(z2_oracle, 4, truncation=5)
    profile = end_depth_profile(z2_oracle, 4, truncation=5, one_ended=True)
    assert profile.values() == [1, 2, 3, 4]


def test_profile_shared_table(lamp_oracle):
    table = explore(lamp_oracle, 10)
    profile = end_depth_profile(lamp_oracle, 2, table=table)
    assert profile.values()[0] == 1
    assert all(e.value <= 4 * e.r for e in profile.entries)


@pytest.mark.parametrize("spec,r_max,expected", [
    ({"family": "z"}, 8, "two"),
    ({"family": "dihedral_inf"}, 8, "two"),
    ({"family": "z_cross_cyclic", "m": 3}, 8, "two"),
    ({"family": "z_pow", "k": 2}, 8, "one"),
    ({"family": "free", "k": 2}, 4, "infinite"),
    ({"family": "cyclic_finite", "m": 12}, 6, "zero"),
    ({"family": "cyclic_finite", "m": 100}, 6, "zero"),  # diameter 50, beyond the schedule
    ({"family": "trivial"}, 1, "zero"),
], ids=str)
def test_ends_classification(spec, r_max, expected):
    estimate = end_count_estimate(make_group(spec), r_max)
    assert estimate.classification == expected


def test_ends_counts_in_tree(f2_oracle):
    estimate = end_count_estimate(f2_oracle, 4)
    assert estimate.final_counts() == [4, 12, 36, 108]
    assert estimate.classification == "infinite"


def test_ends_never_a_finite_count_above_two():
    for spec, r_max in ((({"family": "free", "k": 2}), 3),
                        (({"family": "z_cross_cyclic", "m": 5}), 6),
                        (({"family": "z_pow", "k": 3}), 3)):
        estimate = end_count_estimate(make_group(spec), r_max)
        assert estimate.classification in ("zero", "one", "two", "infinite", "inconclusive")


def test_ends_schedule_validation(z_oracle):
    with pytest.raises(InvalidParameter):
        end_count_estimate(z_oracle, 4, schedule=(10, 10))
    with pytest.raises(InvalidParameter):
        end_count_estimate(z_oracle, 4, schedule=(3, 12))
    with pytest.raises(InvalidParameter):
        end_count_estimate(z_oracle, 4, schedule=(12,))


def test_line_witness_passes(z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 7))
    report = check_obss_witness(z_table_30, witness)
    assert report.passed, report.to_dict()
    assert [it.diam_K for it in report.items] == [1] * 5
    assert [it.diam_A for it in report.items] == [0, 1, 2, 3, 4]


def test_witness_mutation_equal_sides(z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 7))
    first = witness.items[0]
    witness.items[0] = WitnessItem(first.K, first.r, first.B, first.B)
    report = check_obss_witness(z_table_30, witness)
    assert not report.passed
    assert not report.items[0].distinct_components
    assert not report.items[0].sets_disjoint
    assert report.items[0].diam_K_ok
    assert report.r_strictly_increasing
    assert report.diam_A_strictly_increasing  # both sides still grow


def test_witness_mutation_constant_reach(z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    key = lambda i: z_oracle.key_str(axis.vertex(i))
    witness = line_witness(
        z_oracle, axis, range(2, 7), r_of=lambda i: 2,
        a_of=lambda i: (key(i - 1),), b_of=lambda i: (key(i + 2),))
    report = check_obss_witness(z_table_30, witness)
    assert not report.passed
    assert all(it.passed for it in report.items)  # per-item conditions intact
    assert not report.r_strictly_increasing
    assert not report.diam_A_strictly_increasing


def test_witness_mutation_fat_core(z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 7), n=1)
    report = check_obss_witness(z_table_30, witness)
    assert not report.passed
    assert all(not it.diam_K_ok for it in report.items)
    assert all(it.distinct_components for it in report.items)
    assert report.r_strictly_increasing
    assert report.diam_A_strictly_increasing


def test_witness_truncation_guard(z_oracle):
    table = explore(z_oracle, 8)
    witness = ObssWitness(2, [WitnessItem(("5", "6"), 4, ("4",), ("7",))])
    with pytest.raises(TruncationTooSmall):
        check_obss_witness(table, witness)


def test_witness_json_round_trip(z_oracle, z_table_30):
    axis = build_axis(z_oracle, z_table_30, 14)
    witness = line_witness(z_oracle, axis, range(2, 5))
    witness.truncation = 30
    again = ObssWitness.from_dict(witness.to_dict())
    fields = lambda w: (w.n, [(it.K, it.r, it.A, it.B) for it in w.items], w.truncation)
    assert fields(again) == fields(witness)
    report = check_obss_witness(z_table_30, again)
    assert report.passed
    assert "evidence" in report.note


def _random_item(rng, table):
    """K near the identity, a reach r with |k| + r inside the truncation,
    and sides A, B within radius R // 2, so every diameter is exact."""
    pick = lambda radius, count: tuple(
        table.key_of(v) for v in rng.sample(range(table.ball_size(radius)),
                                            min(count, table.ball_size(radius))))
    K = pick(table.reached // 3, rng.randint(1, 3))
    far = max(table.dist_of(table.id_of_key(key)) for key in K)
    r = rng.randint(1, table.reached - far)
    side = min(table.reached // 2, far + r)
    return WitnessItem(K, r, pick(side, rng.randint(1, 4)), pick(side, rng.randint(1, 4)))


def _line(oracle, table, extent):
    """The designated axis, or the powers of the first generator for a
    family without one."""
    if oracle.axis_word is not None:
        return build_axis(oracle, table, extent)
    g = oracle.generators[0]
    vertices = [oracle.identity()]
    for _ in range(extent):
        vertices.append(oracle.multiply(vertices[-1], g))
    return SimpleNamespace(vertex=vertices.__getitem__)


@pytest.mark.parametrize("spec,radius", [
    ({"family": "z_pow", "k": 2}, 12),
    ({"family": "free", "k": 2}, 7),
    ({"family": "dihedral_inf"}, 20),
    ({"family": "lamplighter", "m": 2}, 10),
    ({"family": "lamplighter", "m": 3}, 7),
    ({"family": "z_cross_cyclic", "m": 3}, 12),  # not bipartite
    ({"family": "cyclic_finite", "m": 12}, 9),  # complete: reached is 6
    ({"family": "product", "left": {"family": "z"}, "right": {"family": "free", "k": 2}}, 6),
], ids=str)
def test_obss_components_match_reference(spec, radius):
    # neighborhoods as left translates and components by union-find, against
    # a multi-source search and a search per component; random items seldom
    # separate, the items along a line through the identity often do
    oracle = make_group(spec)
    table = explore(oracle, radius)
    rng = random.Random(radius)
    items = [_random_item(rng, table) for _ in range(60)]
    last = (table.reached - 1) // 2  # |K| + r = 2i + 1 within the table
    items += line_witness(oracle, _line(oracle, table, 2 * last), range(2, last + 1)).items
    separated = 0
    for item in items:
        report = check_obss_witness(table, ObssWitness(2, [item])).items[0]
        got = (report.A_single_component, report.B_single_component,
               report.distinct_components)
        assert got == reference_obss_components(table, item), item
        separated += got[2]
    assert separated
