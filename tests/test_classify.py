"""Growth comparison, detectors, criterion evaluation, covering demo."""

import random

import pytest

from endslab import classify
from endslab.classify import (DominationBounds, GrowthSamples, bounded_sphere_detector,
                              growth_dominates, linear_end_depth_check,
                              sphere_bound_criterion, sphere_cover_demo, uncovered_ids,
                              DEMONSTRATION_ONLY, INFEASIBLE, NO_EVIDENCE, VC_EVIDENCE)
from endslab.ends import EndDepthProfile, EndDepthResult, end_depth_profile
from endslab.errors import InvalidParameter
from endslab.explore import build_axis, explore, sphere_size_series
from endslab.groups import make_group

from oracles import lamplighter2_sphere_counts


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


def test_domination_linear_under_quadratic():
    f = GrowthSamples.of(1, list(range(1, 101)))
    g = GrowthSamples.of(1, [x * x for x in range(1, 101)])
    witness = growth_dominates(f, g)
    assert (witness.a1, witness.a2, witness.a3) == (1, 1, 0)
    assert (witness.x_min, witness.x_max) == (1, 100)


def test_domination_of_depth_profile(z2_oracle):
    profile = end_depth_profile(z2_oracle, 10)
    f = GrowthSamples.of(1, profile.values())
    g = GrowthSamples.of(1, list(range(1, 11)))
    witness = growth_dominates(f, g)
    assert witness is not None and witness.a1 <= 4


def test_domination_exponential_over_linear_has_no_witness():
    f = GrowthSamples.of(1, [2 ** x for x in range(1, 21)])
    g = GrowthSamples.of(1, list(range(1, 21)))
    assert growth_dominates(f, g) is None


def test_domination_reflexive():
    rng = random.Random(1)
    values = [rng.randint(1, 50) for _ in range(30)]
    f = GrowthSamples.of(1, values)
    witness = growth_dominates(f, f)
    assert (witness.a1, witness.a2, witness.a3) == (1, 1, 0)


def test_domination_composes_on_samples():
    xs = range(1, 41)
    f = GrowthSamples.of(1, [x + 3 for x in xs])
    g = GrowthSamples.of(1, [2 * x for x in xs])
    h = GrowthSamples.of(1, [x * x for x in xs])
    w_fg = growth_dominates(f, g)
    w_gh = growth_dominates(g, h)
    assert w_fg and w_gh
    a1 = w_fg.a1 * w_gh.a1
    a2 = w_fg.a2 * w_gh.a2
    a3 = w_fg.a1 * w_gh.a3 + w_fg.a3
    for x in range(1, 41):
        if a2 * x <= h.end:
            assert f.at(x) <= a1 * h.at(a2 * x) + a3


def test_domination_respects_bounds():
    f = GrowthSamples.of(1, [10 * x for x in range(1, 21)])
    g = GrowthSamples.of(1, list(range(1, 21)))
    assert growth_dominates(f, g, DominationBounds(a1_max=8, a2_max=1, a3_max=0)) is None
    witness = growth_dominates(f, g, DominationBounds(a1_max=10, a2_max=1, a3_max=0))
    assert witness.a1 == 10


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


def test_demo_declines_plane():
    report = sphere_cover_demo(make_group({"family": "z_pow", "k": 2}), 3, 2,
                               budget=12_000_000)
    assert report.declined and not report.passed
    assert report.steps[0].detail["sphere_size"] == 9604
