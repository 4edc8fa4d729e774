"""Linear-depth check, detectors, growth against ends, criterion, covering demo."""

import math
import random
import sys

import pytest

from endslab import classify
from endslab.classify import (bounded_sphere_detector, linear_end_depth_check,
                              sphere_bound_criterion, sphere_cover_demo, uncovered_ids,
                              DEMONSTRATION_ONLY, INFEASIBLE, NO_EVIDENCE, VC_EVIDENCE)
from endslab.ends import EndDepthProfile, EndDepthResult, end_count_estimate, end_depth_profile
from endslab.errors import BudgetExceeded, InvalidParameter
from endslab.explore import build_axis, explore, sphere_size_series
from endslab.glpartition import GlPartition, build_gl_partition, sphere_as_metric_space
from endslab.groups import GroupSpec, make_group

from oracles import lamplighter2_sphere_counts
from test_groups import ALL_SPECS


@pytest.fixture(scope="module", autouse=True)
def plane_series_once():
    """Compute the Z^2 series to radius 2401 once for the whole module.

    The criterion and the demo both ask for it (seconds each); every other
    call goes through unchanged.
    """
    real = classify.sphere_size_series
    plane = make_group({"family": "z_pow", "k": 2}).label()
    memo = {}

    def series(oracle, radius, budget=None):
        if (oracle.label(), radius) != (plane, 2401):
            return real(oracle, radius, budget)
        if budget not in memo:
            memo[budget] = real(oracle, radius, budget)
        return memo[budget]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "sphere_size_series", series)
        yield


def _profile_with(values):
    entries = [EndDepthResult(r, v, True, 4 * r + 2, 0, "one", False)
               for r, v in enumerate(values, start=1)]
    return EndDepthProfile("synthetic", [], entries, "one", 4 * len(values) + 2, 0)


def test_linear_check_passes_plane(z2_oracle):
    report = linear_end_depth_check(end_depth_profile(z2_oracle, 10))
    assert report.passed and report.max_ratio == 1.0


def test_linear_check_flags_violation():
    report = linear_end_depth_check(_profile_with([1, 9, 3]))
    assert not report.passed
    assert report.violations == [{"r": 2, "value": 9}]


def test_linear_check_flags_one_past_the_double_radius():
    # a certified value of 2r + 1 breaks the 2r lemma; 2r itself does not
    report = linear_end_depth_check(_profile_with([3, 4, 6]))
    assert report.violations == [{"r": 1, "value": 3}]
    assert report.max_ratio == 3.0


def test_linear_check_empty_when_uncertified(z_oracle):
    profile = end_depth_profile(z_oracle, 4)
    report = linear_end_depth_check(profile)
    assert report.passed and report.checked == 0 and report.max_ratio is None


def test_detector_constant_line():
    verdict = bounded_sphere_detector([2] * 30)
    assert verdict.kind == VC_EVIDENCE
    assert verdict.details["recurring_size"] == 2


def test_detector_growing_tree():
    sizes = [4 * 3 ** (r - 1) for r in range(1, 31)]
    assert bounded_sphere_detector(sizes).kind == NO_EVIDENCE


def test_detector_lamplighter_counts():
    sizes = lamplighter2_sphere_counts(30)[1:]
    assert bounded_sphere_detector(sizes).kind == NO_EVIDENCE


def test_detector_eventually_constant():
    cross = make_group({"family": "z_cross_cyclic", "m": 5})
    series = sphere_size_series(cross, 30)
    verdict = bounded_sphere_detector(series.sizes[1:])
    assert verdict.kind == VC_EVIDENCE
    assert verdict.details["recurring_size"] == 10


def test_detector_needs_window():
    with pytest.raises(InvalidParameter):
        bounded_sphere_detector([2] * 19)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if make_group(s).order is None],
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_growth_matches_ends(spec):
    # two ends exactly with bounded spheres, one or infinitely many only with
    # growing spheres, infinitely many only with exponential growth
    oracle = make_group(spec)
    ends = end_count_estimate(oracle, 3).classification
    try:
        sizes, over_budget = sphere_size_series(oracle, 20, 200_000).sizes, False
    except BudgetExceeded as exc:
        sizes, over_budget = sphere_size_series(oracle, exc.radius_reached).sizes, True
    bounded = not over_budget and bounded_sphere_detector(sizes[1:]).kind == VC_EVIDENCE
    growing = over_budget or all(a < b for a, b in zip(sizes, sizes[1:]))
    exponential = all(b >= 1.5 * a for a, b in zip(sizes[-4:], sizes[-3:]))
    assert ends in ("one", "two", "infinite")
    assert (ends == "two") == bounded, (ends, sizes)
    assert ends == "two" or growing, (ends, sizes)
    assert ends != "infinite" or exponential, (ends, sizes)


def test_criterion_on_line_demonstration():
    verdict = sphere_bound_criterion(make_group({"family": "z"}), 3, 2)
    assert verdict.kind == DEMONSTRATION_ONLY
    assert verdict.details["required_radius"] == 7 ** 4 == 2401
    assert verdict.details["sphere_size"] == 2
    assert "a >= 100" in verdict.details["violated_hypothesis"]


def test_criterion_infeasible_at_stated_hypothesis():
    verdict = sphere_bound_criterion(make_group({"family": "z"}), 100, 2)
    assert verdict.kind == INFEASIBLE
    assert verdict.details["required_radius"] == 201 ** 4 == 1_632_240_801


def test_criterion_plane_no_evidence_slow():
    verdict = sphere_bound_criterion(make_group({"family": "z_pow", "k": 2}), 3, 2,
                                     budget=12_000_000)
    assert verdict.kind == NO_EVIDENCE
    assert verdict.details["sphere_size"] == 4 * 2401 == 9604


def test_criterion_monotone_in_size_bound():
    # raising the allowed size at the same radius can only keep a hit a hit;
    # re-asserted from the stored sphere size, since the radius moves with n
    verdict = sphere_bound_criterion(make_group({"family": "z"}), 3, 2)
    assert verdict.kind == DEMONSTRATION_ONLY
    size = verdict.details["sphere_size"]
    for bigger_n in (3, 5, 100):
        assert size <= bigger_n


def test_criterion_default_budget_declines_plane():
    verdict = sphere_bound_criterion(make_group({"family": "z_pow", "k": 2}), 3, 2)
    assert verdict.kind == INFEASIBLE


def test_criterion_finite_group():
    verdict = sphere_bound_criterion(make_group({"family": "cyclic_finite", "m": 6}), 100, 2)
    assert verdict.kind == VC_EVIDENCE  # the sphere is empty: the group is finite
    assert verdict.details["sphere_size"] == 0
    assert verdict.details["complete_group"]


def test_criterion_validates_parameters():
    z = make_group({"family": "z"})
    with pytest.raises(InvalidParameter):
        sphere_bound_criterion(z, 2, 2)
    with pytest.raises(InvalidParameter):
        sphere_bound_criterion(z, 3, 1)


def test_criterion_validates_budget():
    z = make_group({"family": "z"})
    for budget in (0, -5, True, 2.5):
        with pytest.raises(InvalidParameter, match="budget must be positive"):
            sphere_bound_criterion(z, 3, 2, budget)


def _writable(x: int) -> bool:
    try:
        str(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return False
    return True


def test_criterion_radius_bounded_by_digit_limit():
    # rho = (2a+1)^(n+2) is refused exactly when str() refuses to write it
    limit = sys.get_int_max_str_digits()
    for a in (3, 4, 100, 10 ** 50):
        n = max(2, int(limit / math.log10(2 * a + 1)) - 4)
        while _writable((2 * a + 1) ** (n + 3)):
            n += 1
        assert _writable(classify._criterion_radius(a, n))
        with pytest.raises(InvalidParameter, match=f"more than {limit} digits"):
            classify._criterion_radius(a, n + 1)
    with pytest.raises(InvalidParameter):
        classify._criterion_radius(3, 4_000_000)  # refused before the power


def test_demo_on_line(z_oracle, monkeypatch):
    radii = []

    def counted_explore(oracle, radius, budget=None):
        radii.append(radius)
        return explore(oracle, radius, budget)

    monkeypatch.setattr(classify, "explore", counted_explore)
    report = sphere_cover_demo(z_oracle, 3, 2)
    assert radii == [3 * 2401 + 40]  # D = 1: the first ball is the last one
    assert report.passed and not report.declined
    assert report.rho == 2401 and report.D == 1
    steps = {s.step: s.ok for s in report.steps}
    assert steps == {
        "sphere_size_hypothesis": True,
        "partitions_proper": True,
        "partitions_pairwise_similar": True,
        "common_diameter_bound": True,
        "ball_covered_by_axis_spheres": True,
    }
    assert report.note  # demonstration disclaimer for a < 100


@pytest.mark.parametrize("spec,missed", [
    ({"family": "z_cross_cyclic", "m": 2}, False),  # (n, 1) lies on the sphere around (n, 0)
    ({"family": "z_pow", "k": 2}, True),  # (0, 2) lies on none
], ids=str)
def test_covering_step(spec, missed):
    oracle = make_group(spec)
    table = explore(oracle, 41)
    missing = uncovered_ids(table, build_axis(oracle, table, 40), 1)
    assert bool(missing) == missed
    if missed:
        assert table.id_of((0, 2)) in missing
        assert table.id_of((5, 0)) not in missing


def _axis_partitions(spec, radius, r, indices):
    """(table, center, sphere, partition) for the radius-r spheres around
    the given axis vertices, on one table of the given radius."""
    oracle = make_group(spec)
    table = explore(oracle, radius)
    axis = build_axis(oracle, table, max(map(abs, indices)))
    for i in indices:
        space = sphere_as_metric_space(table, axis.vertex(i), r)
        yield table, axis.vertex(i), space, build_gl_partition(space, 3)


def _reference_pull_back(table, center, r, partition):
    """Each block mapped point by point through x -> c^-1 x to positions
    in the layer S(e, r), one key at a time."""
    oracle = table.oracle
    layer = [table.key_of(v) for v in table.layer_ids(r)]
    inverse = oracle.invert(center)
    ids = table.ids_of_keys(key for block in partition.blocks for key in block)
    pull = lambda key: layer.index(oracle.key_str(
        oracle.multiply(inverse, table.element(ids[key]))))
    return frozenset(frozenset(map(pull, block)) for block in partition.blocks)


@pytest.mark.parametrize("spec,radius,r", [
    ({"family": "z_pow", "k": 2}, 12, 3),
    ({"family": "free", "k": 2}, 8, 2),
    ({"family": "lamplighter", "m": 2}, 10, 2),
    ({"family": "z_cross_cyclic", "m": 3}, 20, 4),
], ids=str)
def test_pull_back_matches_reference(spec, radius, r):
    # random centers, whose translates seldom come in id order, and random
    # partitions into up to three blocks
    oracle = make_group(spec)
    table = explore(oracle, radius)
    rng = random.Random(radius)
    for vid in rng.sample(range(table.ball_size(radius - 3 * r)), 12):
        center = table.element(vid)
        space = sphere_as_metric_space(table, center, r)
        labels = list(space.labels)
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, len(labels)), 2))
        blocks = tuple(tuple(labels[i:j]) for i, j in zip([0, *cuts], [*cuts, None]))
        part = GlPartition(blocks, 3, 1, 0, None, (1,))
        assert (classify._pulled_back(table, center, r, space, part)
                == _reference_pull_back(table, center, r, part))


def _swapped(part):
    """The partition with the first points of its first two blocks swapped."""
    (x, *b0), (y, *b1), *rest = part.blocks
    return GlPartition(((y, *b0), (x, *b1), *rest), part.a, part.D, part.iterations,
                       part.separation, part.diameter_history)


@pytest.mark.parametrize("m,r,block", [(3, 5, 3), (17, 40, 17)])
def test_partitions_along_the_axis_pull_back_equal(m, r, block):
    # the check has no bound on block size (17 points here); two points
    # swapped between blocks pull back to another partition
    pulled = set()
    for table, center, space, part in _axis_partitions(
            {"family": "z_cross_cyclic", "m": m}, 3 * r + 5, r, range(-5, 6)):
        assert [len(b) for b in part.blocks] == [block, block]
        got = classify._pulled_back(table, center, r, space, part)
        assert got == _reference_pull_back(table, center, r, part)
        planted = classify._pulled_back(table, center, r, space, _swapped(part))
        assert planted == _reference_pull_back(table, center, r, _swapped(part)) != got
        pulled.add(got)
    assert len(pulled) == 1


@pytest.mark.parametrize("plant", [False, True])
def test_demo_similarity_step_reads_the_pull_back(monkeypatch, plant):
    # the demo on z_cross_cyclic(3), whose 6-point spheres hold blocks of 3,
    # at a radius of 5: one sphere's partition with two points swapped
    # fails the similarity step and no other
    monkeypatch.setattr(classify, "_criterion_radius", lambda a, n: 5)
    built = []

    def planting_build(space, a):
        part = build_gl_partition(space, a)
        built.append(part)
        return _swapped(part) if plant and len(built) == 7 else part

    monkeypatch.setattr(classify, "build_gl_partition", planting_build)
    report = sphere_cover_demo(make_group({"family": "z_cross_cyclic", "m": 3}), 3, 6)
    steps = {s.step: s for s in report.steps}
    assert len(built) == steps["partitions_proper"].detail["spheres"] + 1
    assert steps["partitions_pairwise_similar"].ok == (not plant)
    assert steps["partitions_proper"].ok and steps["common_diameter_bound"].ok


@pytest.mark.parametrize("spec,order", [
    ({"family": "cyclic_finite", "m": 5}, 5),
    ({"family": "trivial"}, 1),
    ({"family": "product", "left": {"family": "cyclic_finite", "m": 2},
      "right": {"family": "cyclic_finite", "m": 3}}, 6),
], ids=str)
def test_demo_rejects_finite_group_before_searching(spec, order, monkeypatch):
    # a finite group has an empty sphere at radius rho and no axis
    def no_search(*args, **kwargs):
        raise AssertionError("a finite group must be rejected before any search")

    monkeypatch.setattr(classify, "sphere_size_series", no_search)
    monkeypatch.setattr(classify, "explore", no_search)
    oracle = make_group(spec)
    with pytest.raises(InvalidParameter) as exc:
        sphere_cover_demo(oracle, 3, 2)
    assert str(exc.value) == (f"the covering demo needs an infinite group; "
                              f"{oracle.label()} is finite, of order {order}")


def test_demo_declines_plane():
    report = sphere_cover_demo(make_group({"family": "z_pow", "k": 2}), 3, 2,
                               budget=12_000_000)
    assert report.declined and not report.passed
    assert report.steps[0].detail["sphere_size"] == 9604
