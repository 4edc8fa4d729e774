"""End-depth linearity check and virtual-cyclicity detectors.

Everything here produces evidence verdicts, never proofs: bounded sphere
sizes over a finite window, a sphere-size criterion evaluated at one exact
radius, and a step-by-step covering demonstration for thin groups. Verdict
kinds distinguish honest outcomes, including "infeasible" when the required
radius cannot be explored at desk scale, and "demonstration_only" when the
separation factor is below the threshold the criterion actually requires.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter, TrivialPartition
from .explore import (BallTable, GeodesicAxis, _search_budget, build_axis, explore,
                      sphere_size_series)
from .ends import EndDepthProfile, _writable
from .glpartition import (FiniteMetricSpace, GlPartition, build_gl_partition,
                          sphere_as_metric_space)
from .groups import Element, GroupOracle, Record, _is_int

VC_EVIDENCE = "virtually_cyclic_evidence"
INFEASIBLE = "infeasible"
NO_EVIDENCE = "no_evidence"
DEMONSTRATION_ONLY = "demonstration_only"

#: The sphere-size criterion is only a theorem for separation factors at
#: least this large; smaller factors downgrade the verdict kind.
CRITERION_MIN_FACTOR = 100

LINEAR_DEPTH_FACTOR = 2


class LinearityReport(Record):
    """Check of depth values against the bound value <= 2r (``ends`` lemma)."""

    __slots__ = ("checked", "max_ratio", "violations", "note")
    report_keys = ("checked", "max_ratio", "passed", "violations", "note")

    @property
    def passed(self) -> bool:
        return not self.violations


def linear_end_depth_check(profile: EndDepthProfile) -> LinearityReport:
    """Verify value <= 2r on every certified profile entry.

    A certified value is exact and the 2r lemma (``ends``) bounds it, so a
    failure signals an implementation bug, not a mathematical discovery.
    """
    entries = profile.certified_entries()
    if not entries:
        return LinearityReport(0, None, [], "no certified entries to check")
    violations = [
        {"r": e.r, "value": e.value}
        for e in entries if e.value > LINEAR_DEPTH_FACTOR * e.r
    ]
    max_ratio = max(e.value / e.r for e in entries)
    return LinearityReport(len(entries), max_ratio, violations, "")


class Verdict(Record):
    """A detector outcome: the kind plus its numeric evidence."""

    __slots__ = report_keys = ("kind", "details")


def bounded_sphere_detector(sizes: Sequence[int]) -> Verdict:
    """Fire when one sphere size keeps recurring in the tail of the window.

    ``sizes[i]`` is the sphere size at radius i+1. The finite stand-in for a
    bounded subsequence: some value must occur at least half of the last
    ceil(r_max / 2) radii. Evidence only, stated as such in the details.
    """
    r_max = len(sizes)
    if r_max < 20:
        raise InvalidParameter(f"detector needs sizes up to radius >= 20, got {r_max}")
    window = math.ceil(r_max / 2)
    tail = sizes[-window:]
    occurrences: dict = {}
    for v in tail:
        occurrences[v] = occurrences.get(v, 0) + 1
    value, count = min(occurrences.items(), key=lambda kv: (-kv[1], kv[0]))
    details = {
        "r_max": r_max,
        "window": window,
        "recurring_size": value,
        "occurrences": count,
        "note": "finite evidence over a bounded window, not a proof",
    }
    if 2 * count >= window:
        return Verdict(VC_EVIDENCE, details)
    return Verdict(NO_EVIDENCE, details)


def _criterion_radius(a: int, n: int) -> int:
    """The criterion radius rho = (2a+1)^(n+2), exact; InvalidParameter
    unless a >= 3 and n >= 2 are integers and rho has few enough digits to
    be written out (``sys.get_int_max_str_digits``), which is checked from
    the exponent before the power is computed."""
    if not _is_int(a) or a < 3:
        raise InvalidParameter(f"need integer a >= 3, got {a!r}")
    if not _is_int(n) or n < 2:
        raise InvalidParameter(f"need integer n >= 2, got {n!r}")
    what = "the criterion radius (2a+1)^(n+2)"
    limit = sys.get_int_max_str_digits()  # 0: no limit
    # rho has about (n + 2) log10(2a + 1) digits; more than one digit past
    # the limit, beyond the float error, needs no power computed
    if limit and n + 2 > (limit + 1) / math.log10(2 * a + 1):
        raise InvalidParameter(f"{what} has more than {limit} digits, too many to write out")
    return _writable((2 * a + 1) ** (n + 2), what)


def sphere_bound_criterion(oracle: GroupOracle, a: int, n: int,
                           budget: Optional[int] = None) -> Verdict:
    """Evaluate the one-sphere criterion: |S((2a+1)^(n+2))| <= n.

    The radius is computed with exact integer arithmetic. When the ball at
    that radius cannot fit in the node budget the verdict is infeasible and
    reports the required radius. A hit with a below 100 is downgraded to
    demonstration_only, since the criterion is only established from 100 up.
    """
    rho = _criterion_radius(a, n)
    budget = _search_budget(rho, budget)
    base = {"a": a, "n": n, "required_radius": rho}
    if oracle.order is None and rho + 1 > budget:
        # an infinite group has more than rho vertices within radius rho
        return Verdict(INFEASIBLE, dict(base, reason="ball size exceeds node budget",
                                        budget=budget))
    try:
        series = sphere_size_series(oracle, rho, budget)
    except BudgetExceeded as exc:
        return Verdict(INFEASIBLE, dict(base, reason="ball size exceeds node budget",
                                        budget=budget,
                                        radius_reached=exc.radius_reached))
    size = series.sphere_size(rho)
    details = dict(base, sphere_size=size, complete_group=series.complete_group,
                   nodes_explored=series.size)
    if size > n:
        return Verdict(NO_EVIDENCE, details)
    if a >= CRITERION_MIN_FACTOR:
        return Verdict(VC_EVIDENCE, details)
    details["violated_hypothesis"] = (
        f"a >= {CRITERION_MIN_FACTOR} (got a = {a}): mechanics check only")
    return Verdict(DEMONSTRATION_ONLY, details)


class DemoStep(Record):
    __slots__ = report_keys = ("step", "ok", "detail")


class DemoReport(Record):
    """Step-by-step outcome of the sphere-covering demonstration; D is None
    when the demo declined."""

    __slots__ = ("group", "a", "n", "rho", "steps", "D", "nodes_explored", "note")
    report_keys = ("group", "a", "n", "rho", "steps", "passed", "declined", "D", "note")

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.steps)

    @property
    def declined(self) -> bool:
        """The first step, the sphere-size hypothesis, failed."""
        return not self.steps[0].ok


def sphere_cover_demo(oracle: GroupOracle, a: int, n: int,
                      budget: Optional[int] = None) -> DemoReport:
    """Walk the covering argument explicitly on a thin group.

    Steps: the sphere at radius rho = (2a+1)^(n+2) has at most n elements;
    the spheres centered along the axis admit proper separation-certified
    partitions, pairwise similar, with common block diameter bound D; and the
    ball of radius 39D is covered by the spheres of radius D centered at the
    axis vertices between -40D and 40D (``uncovered_ids``). Each step's
    outcome is recorded; a failed size hypothesis declines the demo rather
    than erroring. A search beyond the node budget raises BudgetExceeded, an
    Infeasible that names the radius it reached.

    The table is explored once, to 3 rho + 40: every step needs the ball of
    radius 40D + 3 rho, and D >= 1. A partition with D > 1 grows that table
    to the larger radius (``BallTable.grow``). The axis is built out to
    40D + rho on the grown table, and ``build_axis`` checks each of its
    vertices there. A finite group has no axis and an empty sphere of
    radius rho, so it is rejected before any search.

    Similarity needs no search: the sphere around c is c * S(e, rho) and
    x -> c^-1 x is an isometry, so the partitions are pairwise similar
    when all of them pull back to one partition of S(e, rho)
    (``_pulled_back``). One isometry then carries every block at once,
    whatever the block sizes.
    """
    rho = _criterion_radius(a, n)
    if oracle.order is not None:
        raise InvalidParameter(
            f"the covering demo needs an infinite group; {oracle.label()} "
            f"is finite, of order {oracle.order}")
    steps: list = []
    note = ""
    if a < CRITERION_MIN_FACTOR:
        note = (f"separation factor a = {a} is below {CRITERION_MIN_FACTOR}: "
                "mechanics demonstration only")

    series = sphere_size_series(oracle, rho, budget)
    size = series.sphere_size(rho)
    hypothesis_ok = size <= n
    steps.append(DemoStep("sphere_size_hypothesis", hypothesis_ok,
                          {"radius": rho, "sphere_size": size, "max_allowed": n}))
    if not hypothesis_ok:
        return DemoReport(oracle.label(), a, n, rho, steps, None, series.size, note)

    table = explore(oracle, 3 * rho + 40, budget)

    base_space = sphere_as_metric_space(table, oracle.identity(), rho)
    base_partition = build_gl_partition(base_space, a)
    if base_partition.trivial:
        raise TrivialPartition(
            f"partition of the radius-{rho} sphere collapsed to one block")
    D = int(base_partition.D)

    table.grow(40 * D + 3 * rho)
    axis = build_axis(oracle, table, 40 * D + rho)

    partitions = []
    pulled = set()  # each partition pulled back to S(e, rho)
    for i in range(-40 * D, 40 * D + 1):
        center = axis.vertex(i)
        space_i = sphere_as_metric_space(table, center, rho)
        part_i = build_gl_partition(space_i, a)
        if part_i.trivial:
            raise TrivialPartition(
                f"partition of the sphere centered at axis index {i} is trivial")
        partitions.append(part_i)
        pulled.add(_pulled_back(table, center, rho, space_i, part_i))
    # a trivial partition raised above, so every partition is proper
    steps.append(DemoStep("partitions_proper", True,
                          {"spheres": len(partitions),
                           "block_counts": sorted({p.block_count for p in partitions})}))
    steps.append(DemoStep(
        "partitions_pairwise_similar", len(pulled) == 1,
        {"compared_against_first": len(partitions) - 1,
         "note": "isometry composes, so matching the first chains to all pairs"}))
    same_D = {int(p.D) for p in partitions} == {D}
    steps.append(DemoStep("common_diameter_bound", same_D, {"D": D}))

    missing = uncovered_ids(table, axis, D)
    covering_ok = not missing
    steps.append(DemoStep(
        "ball_covered_by_axis_spheres", covering_ok,
        {"ball_radius": 39 * D, "ball_size": table.ball_size(39 * D),
         "sphere_radius": D, "centers": [-40 * D, 40 * D],
         "missing": [table.key_of(v) for v in missing[:5]]}))

    return DemoReport(oracle.label(), a, n, rho, steps, D, table.size, note)


def _pulled_back(table: BallTable, center: Element, rho: int,
                 space: FiniteMetricSpace, partition: GlPartition) -> frozenset:
    """The blocks of a partition of the sphere c * S(e, rho) pulled back to
    S(e, rho) by the isometry x -> c^-1 x: each point c * g becomes the
    position of g in ``table.layer_ids(rho)``. The space lists its points
    in table id order (``sphere_as_metric_space``), so sorting the
    positions by the ids of their translates numbers them as the space
    does. The partitions of c * S(e, rho) and c' * S(e, rho) pull back
    equal exactly when left multiplication by c' c^-1 carries one onto the
    other."""
    ids = table.translates([center], table.layer_ids(rho))
    position = sorted(range(len(ids)), key=ids.__getitem__)
    label_ids = space.label_ids
    return frozenset(frozenset(position[label_ids[lbl]] for lbl in block)
                     for block in partition.blocks)


def uncovered_ids(table: BallTable, axis: GeodesicAxis, D: int) -> list:
    """Ids of the ball of radius 39D, in id order, that lie on no sphere of
    radius D centered at an axis vertex between -40D and 40D: the spheres
    are left translates of the layer S(e, D)."""
    covered = set(table.translates(map(axis.vertex, range(-40 * D, 40 * D + 1)),
                                   table.layer_ids(D)))
    return [v for v in range(table.ball_size(39 * D)) if v not in covered]
