"""Growth comparison and virtual-cyclicity detectors.

Everything here produces evidence verdicts, never proofs: bounded sphere
sizes over a finite window, a sphere-size criterion evaluated at one exact
radius, and a step-by-step covering demonstration for thin groups. Verdict
kinds distinguish honest outcomes, including "infeasible" when the required
radius cannot be explored at desk scale, and "demonstration_only" when the
separation factor is below the threshold the criterion actually requires.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter, NotGeodesic, TrivialPartition
from .explore import (DEFAULT_NODE_BUDGET, BallTable, GeodesicAxis, build_axis,
                      explore, sphere_size_series)
from .ends import EndDepthProfile
from .glpartition import build_gl_partition, similar_partitions, sphere_as_metric_space
from .groups import GroupOracle

VC_EVIDENCE = "virtually_cyclic_evidence"
INFEASIBLE = "infeasible"
NO_EVIDENCE = "no_evidence"
DEMONSTRATION_ONLY = "demonstration_only"

#: The sphere-size criterion is only a theorem for separation factors at
#: least this large; smaller factors downgrade the verdict kind.
CRITERION_MIN_FACTOR = 100

LINEAR_DEPTH_FACTOR = 4


class GrowthSamples:
    """A function sampled on a contiguous integer range starting at ``start``."""

    __slots__ = ("start", "values")

    def __init__(self, start: int, values: tuple):
        if not values:
            raise InvalidParameter("growth samples must be nonempty")
        if start < 1:
            raise InvalidParameter("growth samples start at a positive integer")
        self.start = start
        self.values = values

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def at(self, x: int) -> float:
        return self.values[x - self.start]

    @classmethod
    def of(cls, start: int, values: Sequence[float]) -> "GrowthSamples":
        return cls(start, tuple(values))


class DominationWitness:
    """Constants (a1, a2, a3) with f(x) <= a1 * g(a2 x) + a3 on the whole range."""

    __slots__ = ("a1", "a2", "a3", "x_min", "x_max")

    def __init__(self, a1: int, a2: int, a3: int, x_min: int, x_max: int):
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self.x_min = x_min
        self.x_max = x_max

    def to_dict(self) -> dict:
        return {"a1": self.a1, "a2": self.a2, "a3": self.a3,
                "verified_range": [self.x_min, self.x_max]}


class DominationBounds:
    __slots__ = ("a1_max", "a2_max", "a3_max")

    def __init__(self, a1_max: int = 8, a2_max: int = 8, a3_max: Optional[int] = None):
        self.a1_max = a1_max
        self.a2_max = a2_max
        self.a3_max = a3_max  # default: twice the largest g sample


def growth_dominates(f: GrowthSamples, g: GrowthSamples,
                     bounds: Optional[DominationBounds] = None) -> Optional[DominationWitness]:
    """Search for the lexicographically smallest domination witness.

    The inequality must hold at every sampled x of f, so scale factors a2
    that push any a2*x outside g's domain are skipped. None means no witness
    within the bounds, which is absence of evidence, not a disproof.
    """
    if bounds is None:
        bounds = DominationBounds()
    a3_cap = bounds.a3_max
    if a3_cap is None:
        a3_cap = 2 * math.ceil(max(g.values))
    xs = range(f.start, f.end + 1)
    for a1 in range(1, bounds.a1_max + 1):
        for a2 in range(1, bounds.a2_max + 1):
            if a2 * f.start < g.start or a2 * f.end > g.end:
                continue
            need = max(f.at(x) - a1 * g.at(a2 * x) for x in xs)
            a3 = max(0, math.ceil(need))
            if a3 <= a3_cap:
                return DominationWitness(a1, a2, a3, f.start, f.end)
    return None


class LinearityReport:
    """Check of depth values against the linear bound value <= 4r."""

    __slots__ = ("checked", "max_ratio", "passed", "violations", "note")

    def __init__(self, checked: int, max_ratio: Optional[float], passed: bool,
                 violations: list, note: str = ""):
        self.checked = checked
        self.max_ratio = max_ratio
        self.passed = passed
        self.violations = violations
        self.note = note

    def to_dict(self) -> dict:
        return {"checked": self.checked, "max_ratio": self.max_ratio,
                "passed": self.passed, "violations": self.violations,
                "note": self.note}


def linear_end_depth_check(profile: EndDepthProfile) -> LinearityReport:
    """Verify value <= 4r on every certified profile entry.

    A failure here contradicts a theorem about one ended groups, so it
    signals an implementation bug rather than a mathematical discovery.
    """
    entries = profile.certified_entries()
    if not entries:
        return LinearityReport(0, None, True, [],
                               "no certified entries to check")
    violations = [
        {"r": e.r, "value": e.value}
        for e in entries if e.value > LINEAR_DEPTH_FACTOR * e.r
    ]
    max_ratio = max(e.value / e.r for e in entries)
    return LinearityReport(len(entries), max_ratio, not violations, violations)


class Verdict:
    """A detector outcome: the kind plus its numeric evidence."""

    __slots__ = ("kind", "details")

    def __init__(self, kind: str, details: Optional[dict] = None):
        self.kind = kind
        self.details = {} if details is None else details

    def to_dict(self) -> dict:
        return {"kind": self.kind, "details": self.details}


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


def sphere_bound_criterion(oracle: GroupOracle, a: int, n: int,
                           budget: Optional[int] = None) -> Verdict:
    """Evaluate the one-sphere criterion: |S((2a+1)^(n+2))| <= n.

    The radius is computed with exact integer arithmetic. When the ball at
    that radius cannot fit in the node budget the verdict is infeasible and
    reports the required radius. A hit with a below 100 is downgraded to
    demonstration_only, since the criterion is only established from 100 up.
    """
    if not isinstance(a, int) or isinstance(a, bool) or a < 3:
        raise InvalidParameter(f"need integer a >= 3, got {a!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidParameter(f"need integer n >= 2, got {n!r}")
    effective_budget = budget if budget is not None else DEFAULT_NODE_BUDGET
    rho = (2 * a + 1) ** (n + 2)
    base = {"a": a, "n": n, "required_radius": rho}
    if oracle.order is None and rho + 1 > effective_budget:
        # an infinite group has more than rho vertices within radius rho
        return Verdict(INFEASIBLE, dict(base, reason="ball size exceeds node budget",
                                        budget=effective_budget))
    try:
        series = sphere_size_series(oracle, rho, effective_budget)
    except BudgetExceeded as exc:
        return Verdict(INFEASIBLE, dict(base, reason="ball size exceeds node budget",
                                        budget=effective_budget,
                                        radius_reached=exc.radius_reached))
    size = series.sphere(rho)
    details = dict(base, sphere_size=size, complete_group=series.complete_group,
                   nodes_explored=series.nodes)
    if size > n:
        return Verdict(NO_EVIDENCE, details)
    if a >= CRITERION_MIN_FACTOR:
        return Verdict(VC_EVIDENCE, details)
    details["violated_hypothesis"] = (
        f"a >= {CRITERION_MIN_FACTOR} (got a = {a}): mechanics check only")
    return Verdict(DEMONSTRATION_ONLY, details)


class DemoStep:
    __slots__ = ("step", "ok", "detail")

    def __init__(self, step: str, ok: bool, detail: Optional[dict] = None):
        self.step = step
        self.ok = ok
        self.detail = {} if detail is None else detail

    def to_dict(self) -> dict:
        return {"step": self.step, "ok": self.ok, "detail": self.detail}


class DemoReport:
    """Step-by-step outcome of the sphere-covering demonstration."""

    __slots__ = ("group", "a", "n", "rho", "steps", "passed", "declined", "D",
                 "nodes_explored", "note")

    def __init__(self, group: str, a: int, n: int, rho: int, steps: list, passed: bool,
                 declined: bool, D: Optional[int] = None, nodes_explored: int = 0,
                 note: str = ""):
        self.group = group
        self.a = a
        self.n = n
        self.rho = rho
        self.steps = steps
        self.passed = passed
        self.declined = declined
        self.D = D
        self.nodes_explored = nodes_explored
        self.note = note

    def to_dict(self) -> dict:
        return {
            "group": self.group, "a": self.a, "n": self.n, "rho": self.rho,
            "steps": [s.to_dict() for s in self.steps],
            "passed": self.passed, "declined": self.declined,
            "D": self.D, "note": self.note,
        }


def sphere_cover_demo(oracle: GroupOracle, axis: Optional[GeodesicAxis],
                      a: int, n: int, budget: Optional[int] = None,
                      table: Optional[BallTable] = None) -> DemoReport:
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
    radius 40D + 3 rho, and D >= 1. Only a partition with D > 1 explores
    again, to that larger radius.
    """
    if not isinstance(a, int) or isinstance(a, bool) or a < 3:
        raise InvalidParameter(f"need integer a >= 3, got {a!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidParameter(f"need integer n >= 2, got {n!r}")
    rho = (2 * a + 1) ** (n + 2)
    steps: list = []
    note = ""
    if a < CRITERION_MIN_FACTOR:
        note = (f"separation factor a = {a} is below {CRITERION_MIN_FACTOR}: "
                "mechanics demonstration only")

    series = sphere_size_series(oracle, rho, budget)
    size = series.sphere(rho)
    hypothesis_ok = size <= n
    steps.append(DemoStep("sphere_size_hypothesis", hypothesis_ok,
                          {"radius": rho, "sphere_size": size, "max_allowed": n}))
    if not hypothesis_ok:
        return DemoReport(oracle.label(), a, n, rho, steps, False, True,
                          nodes_explored=series.nodes, note=note)

    if table is None or table.reached < 3 * rho + 40:
        table = explore(oracle, 3 * rho + 40, budget)

    base_space = sphere_as_metric_space(oracle, table, oracle.identity(), rho)
    base_partition = build_gl_partition(base_space, a)
    if base_partition.trivial:
        raise TrivialPartition(
            f"partition of the radius-{rho} sphere collapsed to one block")
    D = int(base_partition.D)

    horizon = 40 * D + 3 * rho
    if table.reached < horizon:
        table = explore(oracle, horizon, budget)
    extent = 40 * D + rho
    if axis is None:
        axis = build_axis(oracle, table, extent)
    elif axis.extent < extent:
        raise InvalidParameter(
            f"axis extent {axis.extent} too short: the demo needs {extent}")
    # a caller-supplied axis was verified against its own table; check it here
    for i in range(-40 * D, 40 * D + 1):
        vid = table.id_of(axis.vertex(i))
        if vid is None or table.dist_of(vid) != abs(i):
            raise NotGeodesic(f"axis vertex {i} off its sphere in the demo table")

    similar = True
    partitions = {}
    for i in range(-40 * D, 40 * D + 1):
        space_i = sphere_as_metric_space(oracle, table, axis.vertex(i), rho)
        part_i = build_gl_partition(space_i, a)
        if part_i.trivial:
            raise TrivialPartition(
                f"partition of the sphere centered at axis index {i} is trivial")
        partitions[i] = (part_i, space_i)
        if i != -40 * D:
            first_part, first_space = partitions[-40 * D]
            if not similar_partitions(first_part, first_space, part_i, space_i):
                similar = False
    # a trivial partition raised above, so every partition is proper
    steps.append(DemoStep("partitions_proper", True,
                          {"spheres": len(partitions),
                           "block_counts": sorted({p.block_count for p, _ in partitions.values()})}))
    steps.append(DemoStep(
        "partitions_pairwise_similar", similar,
        {"compared_against_first": len(partitions) - 1,
         "note": "isometry composes, so matching the first chains to all pairs"}))
    same_D = {int(p.D) for p, _ in partitions.values()} == {D}
    steps.append(DemoStep("common_diameter_bound", same_D, {"D": D}))

    missing = uncovered_ids(table, axis, D)
    covering_ok = not missing
    steps.append(DemoStep(
        "ball_covered_by_axis_spheres", covering_ok,
        {"ball_radius": 39 * D, "ball_size": table.ball_size(39 * D),
         "sphere_radius": D, "centers": [-40 * D, 40 * D],
         "missing": [table.key_of(v) for v in missing[:5]]}))

    passed = hypothesis_ok and similar and same_D and covering_ok
    return DemoReport(oracle.label(), a, n, rho, steps, passed, False,
                      D=D, nodes_explored=table.size, note=note)


def uncovered_ids(table: BallTable, axis: GeodesicAxis, D: int) -> list:
    """Ids of the ball of radius 39D, in id order, that lie on no sphere of
    radius D centered at an axis vertex between -40D and 40D: the spheres
    are left translates of the layer S(e, D)."""
    covered = set(table.translates(map(axis.vertex, range(-40 * D, 40 * D + 1)),
                                   table.layer_ids(D)))
    return [v for v in range(table.ball_size(39 * D)) if v not in covered]
