"""Connectivity of ball complements: bounded-component depth and end counts.

Working inside a truncated ball B(R), the components of B(R) \\ B(r) split
into those that reach the boundary sphere S(R) and those that do not. A
component that misses S(R) has no edges leaving B(R) at all, so it is a
genuine bounded component of the full complement; boundary-touching
components are the finite stand-in for unbounded ones. The depth value
computed here is the maximum distance over the bounded part, with the
convention that it equals r when no bounded component exists.

Certification: for a one ended group the bounded components left after
deleting B(r) lie within B(4r). Exploring to R >= 4r + 2 therefore captures
every bounded component strictly inside the truncation, which makes the
computed value exact rather than heuristic. The certified flag on results
records that both the radius condition and the one-endedness evidence held.

The vertex ids of a ball table are sorted by distance, which this module
exploits throughout: a union-find that always keeps the largest id as root
makes "component touches S(R)" a root range check and "deepest vertex" the
root itself.
"""

from __future__ import annotations

import json
from array import array
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter, TruncationTooSmall
from .explore import BallTable, explore
from .groups import GroupOracle, _is_int, generator_words

#: Extra layers beyond the 4r bound: one so that a bounded component confined
#: in B(4r) cannot meet the boundary sphere, one more as slack for the annulus.
CERTIFIED_MARGIN = 2

CLASS_ZERO = "zero"
CLASS_ONE = "one"
CLASS_TWO = "two"
CLASS_INFINITE = "infinite"
CLASS_INCONCLUSIVE = "inconclusive"


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _complement_sweep(table: BallTable, snapshots: Sequence[int],
                      truncations: Sequence[int]) -> dict:
    """One outside-in union-find pass over every truncation T: per T and per
    snapshot radius r, (component count, touching count, deepest bounded
    vertex id or None) for B(T) \\ B(r).

    Vertices are activated top-down and each edge is read from its lower
    end. A union keeps the larger root, so every root is the largest id of
    its component whatever order the edges come in, and a triple depends
    only on the partition. The pass sweeps B(T0), the smallest truncation,
    down to the highest snapshot and splits there. Each truncation finishes
    its snapshots on a copy of the union-find, the last one in place; the
    next truncation T extends the original by the ids of B(T) \\ B(T0),
    links the rows of S(T0) to them and carries on. At the split every root
    lies below S(T), so the touching count restarts from S(T) alone.

    On a bipartite family S(T) has no edge inside itself, so its vertices
    start as singleton touching components and their rows are read only if
    a larger truncation follows. Otherwise the rows of S(T) are read too,
    and ``BallTable.rows_down`` wires them on first use when S(T) is the
    table's outermost sphere. The deepest bounded root is found by one
    pointer per truncation that only moves down: a merged id never becomes
    a root again, and the deepest bounded root can only merge into a
    touching one. The pointer moves only at a snapshot with a bounded
    component, since every root below S(T) is bounded. The test suite checks the pass against
    ``complement_components`` in ``tests/oracles.py``, a separate per-radius
    decomposition.
    """
    truncs = sorted(set(truncations))
    if not truncs:
        return {}
    if truncs[-1] > table.reached:
        raise TruncationTooSmall(
            f"truncation {truncs[-1]} beyond explored radius {table.reached}")
    snaps = sorted(set(snapshots), reverse=True)
    if not snaps or snaps[0] >= truncs[0] or snaps[-1] < 0:
        raise InvalidParameter(f"snapshots {snapshots} outside 0..{truncs[0] - 1}")

    split_lo = table.ball_size(snaps[0])
    parent = array("i")
    components = touch_lo = 0
    results = {}
    for trunc in truncs:
        old_touch_lo, old_hi = touch_lo, len(parent)
        hi, touch_lo = table.ball_size(trunc), table.ball_size(trunc - 1)
        parent.extend(range(old_hi, hi))
        lo = old_hi or split_lo
        # each new id starts as its own component, a touching one in S(T)
        merged, touched = _link(table, parent, lo, touch_lo if table.oracle.bipartite else hi,
                                hi, touch_lo)
        if old_hi:  # the rows of the previous S(T) reach the new ids
            more = _link(table, parent, old_touch_lo, old_hi, hi, touch_lo)
            merged, touched = merged + more[0], touched + more[1]
        components += hi - lo - merged
        results[trunc] = _finish(table, parent if trunc == truncs[-1] else parent[:],
                                 snaps, split_lo, hi, touch_lo,
                                 components, hi - touch_lo - touched)
    return results


def _link(table: BallTable, parent: array, lo: int, top: int, hi: int,
          touch_lo: int) -> tuple:
    """Union each id u in lo..top - 1 with its neighbors v, u < v < hi;
    returns (merges, merges of two roots from ``touch_lo`` on).

    Rows come top-down from ``BallTable.rows_down``; the test u < v < hi
    also drops the -1 of a step that leaves the ball. u's root is carried
    across its row: after a merge it is still the larger root, so only v
    needs a find.
    """
    merged = touched = 0
    for u, row in table.rows_down(lo, top):
        ru = u if parent[u] == u else _find(parent, u)
        for v in row:
            if u < v < hi:
                rv = parent[v]
                if parent[rv] != rv:
                    rv = _find(parent, rv)
                if ru == rv:
                    continue
                if ru < rv:
                    ru, rv = rv, ru
                parent[rv] = ru
                merged += 1
                if rv >= touch_lo:  # both merged roots touched the boundary
                    touched += 1
    return merged, touched


def _finish(table: BallTable, parent: array, snaps: list, active_lo: int, hi: int,
            touch_lo: int, components: int, touching: int) -> dict:
    """The snapshots of one truncation, from a union-find swept down to
    ``active_lo``, the ball of the highest snapshot."""
    results = {}
    deepest = touch_lo - 1  # no id above it and below touch_lo is a root
    for r in snaps:
        new_lo = table.ball_size(r)
        merged, touched = _link(table, parent, new_lo, active_lo, hi, touch_lo)
        components += active_lo - new_lo - merged
        touching -= touched
        active_lo = new_lo
        bounded = None
        if components > touching:  # that many roots lie in active_lo..touch_lo - 1
            while parent[deepest] != deepest:
                deepest -= 1
            bounded = deepest
        results[r] = (components, touching, bounded)
    return results


class EndDepthResult:
    """Depth of the bounded complement components at one radius."""

    __slots__ = ("r", "value", "certified", "truncation", "bounded_count",
                 "ends_classification", "not_one_ended_warning")

    def __init__(self, r: int, value: int, certified: bool, truncation: int,
                 bounded_count: int, ends_classification: Optional[str],
                 not_one_ended_warning: bool):
        self.r = r
        self.value = value
        self.certified = certified
        self.truncation = truncation
        self.bounded_count = bounded_count
        self.ends_classification = ends_classification
        self.not_one_ended_warning = not_one_ended_warning

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "value": self.value,
            "certified": self.certified,
            "truncation": self.truncation,
            "bounded_components": self.bounded_count,
            "ends_classification": self.ends_classification,
            "not_one_ended_warning": self.not_one_ended_warning,
        }


def default_truncation(r: int) -> int:
    return 4 * r + CERTIFIED_MARGIN


def end_depth(oracle: GroupOracle, r: int, truncation: Optional[int] = None,
              one_ended: Optional[bool] = None, budget: Optional[int] = None,
              table: Optional[BallTable] = None) -> EndDepthResult:
    """Depth of the bounded components of the complement of B(r).

    The last entry of ``end_depth_profile`` with r_max = r, which sets out
    the truncation, certification and warning rules. On a finite group whose
    diameter is at most r the complement is empty: the value is r, with no
    bounded component.
    """
    table, truncation = _depth_table(oracle, r, truncation, budget, table)
    if table.complete_group and table.reached <= r:
        return EndDepthResult(r, r, False, table.reached, 0, CLASS_ZERO, True)
    profile = end_depth_profile(oracle, r, budget=budget, one_ended=one_ended,
                                table=table, truncation=truncation)
    return profile.entries[-1]


def _depth_table(oracle: GroupOracle, r_max: int, truncation: Optional[int],
                 budget: Optional[int], table: Optional[BallTable]) -> tuple:
    """The checked truncation (default 4 r_max + 2) and a ``_ball_table`` for it."""
    if not isinstance(r_max, int) or r_max < 1:
        raise InvalidParameter(f"r_max must be a positive integer, got {r_max!r}")
    if truncation is None:
        truncation = default_truncation(r_max)
    if truncation <= r_max:
        raise InvalidParameter(f"truncation {truncation} must exceed r_max={r_max}")
    return _ball_table(oracle, truncation, budget, table), truncation


def _ball_table(oracle: GroupOracle, radius: int, budget: Optional[int],
                table: Optional[BallTable]) -> BallTable:
    """The caller's table if it is whole, or reaches ``radius`` in an infinite
    group; else a new one: the whole of a finite group, which a truncation
    would cut into false rays, or the ball of ``radius``."""
    if table is not None and (table.complete_group
                              or (oracle.order is None and table.reached >= radius)):
        return table
    if oracle.order is None:
        return explore(oracle, radius, budget)
    try:
        return explore(oracle, oracle.order, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(exc.budget, exc.nodes, exc.radius_reached,
                             exc.radius_requested, oracle.order) from None


class EndDepthProfile:
    """Depth values for every radius 1..r_max, with certification flags."""

    __slots__ = ("group", "generators", "entries", "classification",
                 "truncation_max", "nodes_explored")

    def __init__(self, group: str, generators: list, entries: list,
                 classification: str, truncation_max: int, nodes_explored: int):
        self.group = group
        self.generators = generators
        self.entries = entries            # of EndDepthResult
        self.classification = classification
        self.truncation_max = truncation_max
        self.nodes_explored = nodes_explored

    def values(self) -> list:
        return [e.value for e in self.entries]

    def certified_entries(self) -> list:
        return [e for e in self.entries if e.certified]

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "generators": self.generators,
            "classification": self.classification,
            "truncation_max": self.truncation_max,
            "entries": [e.to_dict() for e in self.entries],
        }


def end_depth_profile(oracle: GroupOracle, r_max: int, budget: Optional[int] = None,
                      one_ended: Optional[bool] = None,
                      table: Optional[BallTable] = None,
                      truncation: Optional[int] = None) -> EndDepthProfile:
    """Profile r -> depth for r = 1..r_max over a single exploration.

    With the default truncation 4*r_max + 2, every bounded component of any
    complement in range lies strictly inside the explored ball, so per-radius
    values agree with individually truncated runs. A caller-supplied smaller
    truncation leaves the affected radii uncertified.

    One-endedness is taken from ``one_ended`` when the caller asserts it,
    otherwise from the ends estimate over the schedule (truncation - 1,
    truncation), as ``end_count_estimate`` would give it. Groups whose
    estimate is not "one" get their values anyway, flagged with a warning,
    since the notion is only meaningful one ended. A finite group has no
    unbounded component: it is explored whole, whatever the truncation, so
    its whole complement is bounded, the depth and the truncation are its
    diameter, and it classifies as zero, never certified.
    """
    table, truncation = _depth_table(oracle, r_max, truncation, budget, table)
    finite = table.complete_group
    if finite:
        truncation = table.reached
        if truncation <= r_max:
            raise InvalidParameter(
                f"the whole group lies within radius {table.reached}; "
                f"no complement to analyze at r_max={r_max}")
    elif one_ended is None and truncation - 1 <= r_max:
        raise InvalidParameter(
            f"the ends estimate needs truncation >= r_max + 2, "
            f"got truncation {truncation} for r_max={r_max}")

    radii = range(1, r_max + 1)
    # snapshots 0..r_max - 1 also give the ends estimate its counts e(r)
    estimate = not finite and one_ended is None
    sweeps = _complement_sweep(table, range(r_max + 1),
                               (truncation - 1, truncation) if estimate else (truncation,))
    sweep = sweeps[truncation]
    if finite:
        classification, one_ended_evidence = CLASS_ZERO, False
    elif estimate:
        prev, last = ([sweeps[t][r - 1][1] for r in radii] for t in (truncation - 1, truncation))
        classification = _classify_counts(prev, last)[1]
        one_ended_evidence = classification == CLASS_ONE
    else:
        classification, one_ended_evidence = None, bool(one_ended)

    entries = []
    for r in radii:
        components, touching, bounded_max = sweep[r]
        if finite:
            value, bounded_count = table.reached, components
        else:
            value = r if bounded_max is None else table.dist_of(bounded_max)
            bounded_count = components - touching
        if value < r:
            raise AssertionError(f"depth {value} below r={r}: exploration is inconsistent")
        certified = one_ended_evidence and truncation >= default_truncation(r)
        entries.append(EndDepthResult(
            r, value, certified, truncation, bounded_count, classification,
            not one_ended_evidence))

    return EndDepthProfile(oracle.label(), generator_words(oracle), entries,
                           classification, truncation, table.size)


class EndsEstimate:
    """Boundary-touching component counts and the end count they support.

    The classification snaps to the only possible values 0, 1, 2 or infinity;
    counts that have not stabilized across the last two truncations leave it
    inconclusive. This is finite evidence, not a proof.
    """

    __slots__ = ("group", "r_max", "schedule", "counts", "stable", "classification",
                 "stabilized", "complete_group", "nodes_explored")

    def __init__(self, group: str, r_max: int, schedule: tuple, counts: dict,
                 stable: list, classification: str, stabilized: Optional[int],
                 complete_group: bool, nodes_explored: int):
        self.group = group
        self.r_max = r_max
        self.schedule = schedule
        self.counts = counts              # truncation -> [e(1), ..., e(r_max)]
        self.stable = stable
        self.classification = classification
        self.stabilized = stabilized
        self.complete_group = complete_group
        self.nodes_explored = nodes_explored

    def final_counts(self) -> list:
        return self.counts[self.schedule[-1]]

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "r_max": self.r_max,
            "schedule": list(self.schedule),
            "counts": {str(t): c for t, c in self.counts.items()},
            "stable": self.stable,
            "classification": self.classification,
            "stabilized": self.stabilized,
            "complete_group": self.complete_group,
        }


def default_schedule(r_max: int) -> tuple:
    return (2 * r_max + 1, 2 * r_max + 3)


def end_count_estimate(oracle: GroupOracle, r_max: int,
                       schedule: Optional[Sequence[int]] = None,
                       budget: Optional[int] = None,
                       table: Optional[BallTable] = None) -> EndsEstimate:
    """Estimate the number of ends from component counts at growing truncations.

    e(r) is the number of boundary-touching components among the vertices at
    distance at least r (the open ball of radius r deleted), required to
    agree across the last two truncations of the schedule. A finite group,
    explored whole, classifies as zero; eventually constant counts of 1 or
    2 classify as one or two; counts that keep growing past 2 classify as
    infinite. Everything else is inconclusive.
    """
    if not isinstance(r_max, int) or r_max < 1:
        raise InvalidParameter(f"r_max must be a positive integer, got {r_max!r}")
    if schedule is None:
        schedule = default_schedule(r_max)
    schedule = tuple(schedule)
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParameter(f"schedule must be strictly increasing with >= 2 entries: {schedule}")
    if schedule[0] <= r_max:
        raise InvalidParameter(f"schedule must start beyond r_max={r_max}: {schedule}")

    table = _ball_table(oracle, schedule[-1], budget, table)

    # the complement is empty beyond a whole finite group: no count there
    sweeps = _complement_sweep(table, range(r_max), [
        t for t in schedule if t <= table.reached or not table.complete_group])
    counts = {t: [sweeps[t][r][1] for r in range(r_max)] if t in sweeps else None
              for t in schedule}

    if table.complete_group:
        return EndsEstimate(oracle.label(), r_max, schedule, counts, [],
                            CLASS_ZERO, 0, True, table.size)
    stable, classification, stabilized = _classify_counts(
        counts[schedule[-2]], counts[schedule[-1]])
    return EndsEstimate(oracle.label(), r_max, schedule, counts, stable,
                        classification, stabilized, False, table.size)


def _classify_counts(prev: list, last: list) -> tuple:
    """(stable flags, classification, stabilized count) from e(1..r_max) at
    the last two truncations of a schedule.

    The upper half of the radii decides: stable there at constant 1 or 2
    gives one or two ends; stable everywhere, nondecreasing and ending at
    3 or more gives infinitely many.
    """
    r_max = len(last)
    stable = [a == b for a, b in zip(prev, last)]
    classification = CLASS_INCONCLUSIVE
    stabilized = None

    tail_from = max(1, (r_max + 1) // 2)
    tail = range(tail_from - 1, r_max)
    tail_stable = all(stable[i] for i in tail)
    if tail_stable:
        tail_values = {last[i] for i in tail}
        if tail_values == {1}:
            classification, stabilized = CLASS_ONE, 1
        elif tail_values == {2}:
            classification, stabilized = CLASS_TWO, 2
    if classification == CLASS_INCONCLUSIVE:
        nondecreasing = all(x <= y for x, y in zip(last, last[1:]))
        if all(stable) and nondecreasing and last[-1] >= 3:
            classification = CLASS_INFINITE
    return stable, classification, stabilized


class WitnessItem:
    """One separating configuration: a small set K, a reach radius, and two
    vertex sets that should fall in different components around K."""

    __slots__ = ("K", "r", "A", "B")

    def __init__(self, K: tuple, r: int, A: tuple, B: tuple):
        self.K = K
        self.r = r
        self.A = A
        self.B = B


class ObssWitness:
    """Finite family of separating configurations with growing reach.

    Vertex sets are given by canonical key strings inside one ball table.
    """

    __slots__ = ("n", "items", "truncation")

    def __init__(self, n: int, items: list, truncation: Optional[int] = None):
        self.n = n
        self.items = items
        self.truncation = truncation

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "items": [
                {"K": list(it.K), "r": it.r, "A": list(it.A), "B": list(it.B)}
                for it in self.items
            ],
        }
        if self.truncation is not None:
            d["truncation"] = self.truncation
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ObssWitness":
        """Read the JSON form; ``check_obss_witness`` validates the values."""
        try:
            if not isinstance(d["items"], list):
                raise TypeError("'items' must be a list")
            items = [
                WitnessItem(_keys(it, "K", i), it["r"], _keys(it, "A", i), _keys(it, "B", i))
                for i, it in enumerate(d["items"])
            ]
            return cls(d["n"], items, d.get("truncation"))
        except (KeyError, TypeError) as exc:
            raise InvalidParameter(f"malformed witness: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ObssWitness":
        return cls.from_dict(json.loads(text))


def _keys(item: dict, field: str, idx: int) -> tuple:
    keys = item[field]
    if not isinstance(keys, list) or not all(isinstance(key, str) for key in keys):
        raise InvalidParameter(f"items[{idx}].{field} must be a list of vertex keys, "
                               f"got {keys!r}")
    return tuple(keys)


class WitnessItemReport:
    __slots__ = ("index", "r", "diam_K", "diam_K_ok", "sets_nonempty", "sets_disjoint",
                 "A_single_component", "B_single_component", "distinct_components",
                 "diam_A", "diam_B")

    def __init__(self, index: int, r: int, diam_K: int, diam_K_ok: bool,
                 sets_nonempty: bool, sets_disjoint: bool, A_single_component: bool,
                 B_single_component: bool, distinct_components: bool,
                 diam_A: int, diam_B: int):
        self.index = index
        self.r = r
        self.diam_K = diam_K
        self.diam_K_ok = diam_K_ok
        self.sets_nonempty = sets_nonempty
        self.sets_disjoint = sets_disjoint
        self.A_single_component = A_single_component
        self.B_single_component = B_single_component
        self.distinct_components = distinct_components
        self.diam_A = diam_A
        self.diam_B = diam_B

    @property
    def passed(self) -> bool:
        return (self.diam_K_ok and self.sets_nonempty and self.sets_disjoint
                and self.A_single_component and self.B_single_component
                and self.distinct_components)

    def to_dict(self) -> dict:
        return {
            "index": self.index, "r": self.r,
            "diam_K": self.diam_K, "diam_K_ok": self.diam_K_ok,
            "sets_nonempty": self.sets_nonempty, "sets_disjoint": self.sets_disjoint,
            "A_single_component": self.A_single_component,
            "B_single_component": self.B_single_component,
            "distinct_components": self.distinct_components,
            "diam_A": self.diam_A, "diam_B": self.diam_B,
            "passed": self.passed,
        }


class WitnessReport:
    __slots__ = ("items", "r_strictly_increasing", "diam_A_strictly_increasing",
                 "diam_B_strictly_increasing", "note")

    def __init__(self, items: list, r_strictly_increasing: bool,
                 diam_A_strictly_increasing: bool, diam_B_strictly_increasing: bool,
                 note: str):
        self.items = items
        self.r_strictly_increasing = r_strictly_increasing
        self.diam_A_strictly_increasing = diam_A_strictly_increasing
        self.diam_B_strictly_increasing = diam_B_strictly_increasing
        self.note = note

    @property
    def passed(self) -> bool:
        return (all(it.passed for it in self.items)
                and self.r_strictly_increasing
                and self.diam_A_strictly_increasing
                and self.diam_B_strictly_increasing)

    def to_dict(self) -> dict:
        return {
            "items": [it.to_dict() for it in self.items],
            "r_strictly_increasing": self.r_strictly_increasing,
            "diam_A_strictly_increasing": self.diam_A_strictly_increasing,
            "diam_B_strictly_increasing": self.diam_B_strictly_increasing,
            "passed": self.passed,
            "note": self.note,
        }


_WITNESS_NOTE = (
    "Monotone growth over a finite witness list is evidence for more than one "
    "end, not a proof. The criterion is specific to Cayley graphs: a continuous "
    "half-line satisfies every finite condition here yet has a single end."
)


def check_obss_witness(table: BallTable, witness: ObssWitness) -> WitnessReport:
    """Check every separating condition of a witness against a ball table.

    Set diameters are word-metric distances |x^-1 y| read from the table:
    exact when x^-1 y lies in it. The neighborhood {v : d(v, K) < r} is the
    union of the left translates k B(e, r - 1) (``BallTable.translates``),
    and the components of the neighborhood minus K come from the sweep's
    union-find over ``BallTable.neighbors``. Both are exact: the guard
    |k| + r <= reached keeps every translate and every geodesic from K
    inside the table, so distances in the truncated graph equal word
    distances there.

    A pair further apart than the truncation raises TruncationTooSmall,
    naming the item and the set, as does a K whose reach leaves the
    truncation. An r that is not a positive integer, or an empty K, A or B,
    raises InvalidParameter naming the item's field.
    """
    if not witness.items:
        raise InvalidParameter("witness has no items")
    if not _is_int(witness.n) or witness.n < 1:
        raise InvalidParameter(f"witness bound n must be a positive integer, got {witness.n!r}")

    item_reports = []
    diams_A, diams_B = [], []
    for idx, it in enumerate(witness.items):
        if not _is_int(it.r) or it.r < 1:
            raise InvalidParameter(f"items[{idx}].r must be an integer >= 1, got {it.r!r}")
        for name in ("K", "A", "B"):
            if not getattr(it, name):
                raise InvalidParameter(f"items[{idx}].{name} must name at least one vertex")
        K = _resolve(table, it.K, f"items[{idx}].K")
        A = _resolve(table, it.A, f"items[{idx}].A")
        B = _resolve(table, it.B, f"items[{idx}].B")
        max_dist = max(map(table.dist_of, K))
        if max_dist + it.r > table.reached:
            raise TruncationTooSmall(
                f"items[{idx}]: need radius {max_dist + it.r}, table has {table.reached}")

        diam_K = _diameter(table, K, f"items[{idx}].K")
        # d(v, K) < r: the translates k B(e, r - 1); the guard above keeps
        # every translate inside the table
        hood = table.translates(map(table.element, K), range(table.ball_size(it.r - 1)))
        region = set(hood).difference(K)
        comp_of = _component_map(table, region)

        nonempty = bool(A) and bool(B)
        disjoint = not (set(A) & set(B))
        a_comps = {comp_of.get(v) for v in A}
        b_comps = {comp_of.get(v) for v in B}
        a_single = len(a_comps) == 1 and None not in a_comps
        b_single = len(b_comps) == 1 and None not in b_comps
        distinct = a_single and b_single and a_comps != b_comps

        diam_A = _diameter(table, A, f"items[{idx}].A")
        diam_B = _diameter(table, B, f"items[{idx}].B")
        diams_A.append(diam_A)
        diams_B.append(diam_B)
        item_reports.append(WitnessItemReport(
            idx, it.r, diam_K, diam_K < witness.n, nonempty, disjoint,
            a_single, b_single, distinct, diam_A, diam_B))

    rs = [it.r for it in witness.items]
    r_inc = all(a < b for a, b in zip(rs, rs[1:]))
    a_inc = all(a < b for a, b in zip(diams_A, diams_A[1:]))
    b_inc = all(a < b for a, b in zip(diams_B, diams_B[1:]))
    return WitnessReport(item_reports, r_inc, a_inc, b_inc, _WITNESS_NOTE)


def _resolve(table: BallTable, keys: Sequence[str], where: str) -> list:
    ids = []
    for key in keys:
        vid = table.id_of_key(key)
        if vid is None:
            raise InvalidParameter(f"{where}: vertex {key!r} not in the explored ball")
        ids.append(vid)
    return ids


def _diameter(table: BallTable, ids: list, where: str) -> int:
    try:
        return table.set_diameter(ids)
    except TruncationTooSmall as exc:
        raise TruncationTooSmall(f"{where}: {exc}") from None


def _component_map(table: BallTable, region: set) -> dict:
    """Map each vertex of the region to the root of its component."""
    parent = {v: v for v in region}
    for u in region:
        for v in table.neighbors(u):
            if v in parent:
                parent[_find(parent, u)] = _find(parent, v)
    return {v: _find(parent, v) for v in region}
