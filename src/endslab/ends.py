"""Connectivity of ball complements: bounded-component depth and end counts.

Working inside a truncated ball B(R), the components of B(R) \\ B(r) split
into those that reach the boundary sphere S(R) and those that do not. A
component that misses S(R) has no edges leaving B(R) at all, so it is a
genuine bounded component of the full complement; boundary-touching
components are the finite stand-in for unbounded ones. The depth value
computed here is the maximum distance over the bounded part, with the
convention that it equals r when no bounded component exists.

Certification rests on a lemma that holds in every infinite group, for
every finite generating set: in the Cayley graph G, each vertex of a
bounded component of G \\ B(r) lies in B(2r). Proof: let x be such a
vertex, |x| = n, in the bounded component C. Left multiplication by x^-1
is a graph automorphism; it maps C to a bounded component of
G \\ B(x^-1, r) that contains e. An infinite finitely generated group has
a bi-infinite geodesic gamma with gamma(0) = e. Each of its two rays leaves
that finite component, and the first vertex outside it is adjacent to it,
so lies in B(x^-1, r); call these gamma(i) and gamma(-j). Then
i + j = d(gamma(i), gamma(-j)) <= 2r, while i, j >= d(e, x^-1) - r = n - r,
so n <= 2r.

A component of B(T) \\ B(r) that misses S(T) is a whole bounded component
of G \\ B(r), whatever T. By the lemma every bounded component misses S(T)
once T >= 2r + 1, so from there on the value and the bounded count are
exact, one ended or not. The touching count never grows with T: a vertex
of S(T + 1) has a neighbor in S(T), so every component that touches
S(T + 1) contains one that touches S(T). In an infinite group it is at
least 1, since S(T) is not empty. So where every count is 1 at 2r + 1, the
sweep is the same at every larger T.

The default truncation is still 4r + 2, the bound this module was first
built on, and end-depth reports record it with the node usage of B(4r + 2):
moving it to 2r + 1 changes those reports, so it waits for a change that
re-pins them. What ``--truncation auto`` explores is less already: a table
of B(2 r_max + 1), and when every touching count there is 1, only a lean
count of B(4 r_max + 2) (``sphere_size_series``), whose size the report
still records as the node usage; else that table, grown to B(4 r_max + 2)
(``BallTable.grow``).

An entry at radius r is certified when the group is infinite, T >= 2r + 1,
and touching(r, T) = 1 or the caller asserts one-endedness. The first two
make its value and bounded count exact. A touching count of 1 proves that
G \\ B(r) has exactly one unbounded component, since each unbounded
component touches every S(T), and an infinite group has at least one. The
ends estimate takes no part: it reads open balls, and G \\ {e} is
connected in some two-ended groups (z_cross_cyclic(2) at r = 1), where
touching(1, T) is 2. So an entry may be certified and carry
``not_one_ended_warning`` too. The warning is the profile's: its estimate
did not say the group is one ended. The certificate is the entry's: its
own complement has one unbounded component, and its value is exact. In
product(dihedral_inf, cyclic_finite(4)), a two-ended group, the estimate
at r_max 3 is inconclusive, yet touching(1, 14) = 1, so r = 1 is certified
with the warning.

The vertex ids of a ball table are sorted by distance, which this module
exploits throughout: a union-find that always keeps the largest id as root
makes "component touches S(R)" a root range check and "deepest vertex" the
root itself.
"""

from __future__ import annotations

import sys
from array import array
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvalidParameter, TruncationTooSmall
from .explore import BallTable, explore, sphere_size_series
from .groups import GroupOracle, Record, _check_keys, _is_int, _loads, generator_words

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


class EndDepthResult(Record):
    """Depth of the bounded complement components at one radius."""

    __slots__ = ("r", "value", "certified", "truncation", "bounded_count",
                 "ends_classification", "not_one_ended_warning")
    report_keys = ("r", "value", "certified", "truncation", "bounded_components",
                   "ends_classification", "not_one_ended_warning")

    @property
    def bounded_components(self) -> int:
        """The report's name for ``bounded_count``."""
        return self.bounded_count


def default_truncation(r: int) -> int:
    return 4 * r + CERTIFIED_MARGIN


def _writable(n: int, what: str) -> int:
    """``n``, or InvalidParameter when a report or an error message could
    not write it: it has more digits than ``sys.get_int_max_str_digits``."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and n >= 10 ** limit:
        raise InvalidParameter(f"{what} has more than {limit} digits, too many to write out")
    return n


def end_depth(oracle: GroupOracle, r: int, truncation: Optional[int] = None,
              one_ended: bool = False, budget: Optional[int] = None,
              table: Optional[BallTable] = None) -> EndDepthResult:
    """Depth of the bounded components of the complement of B(r): the last
    entry of ``end_depth_profile`` with r_max = r, which sets out the
    truncation, certification and warning rules."""
    return end_depth_profile(oracle, r, budget=budget, one_ended=one_ended,
                             table=table, truncation=truncation).entries[-1]


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


class EndDepthProfile(Record):
    """Depth values for every radius 1..r_max, with certification flags;
    ``entries`` holds one ``EndDepthResult`` per radius."""

    __slots__ = ("group", "generators", "entries", "classification",
                 "truncation_max", "nodes_explored")
    report_keys = ("group", "generators", "entries", "classification", "truncation_max")

    def values(self) -> list:
        return [e.value for e in self.entries]

    def certified_entries(self) -> list:
        return [e for e in self.entries if e.certified]


def end_depth_profile(oracle: GroupOracle, r_max: int, budget: Optional[int] = None,
                      one_ended: bool = False,
                      table: Optional[BallTable] = None,
                      truncation: Optional[int] = None) -> EndDepthProfile:
    """Profile r -> depth for r = 1..r_max over a single exploration.

    With the default truncation 4*r_max + 2, every bounded component of any
    complement in range lies strictly inside the explored ball, so per-radius
    values agree with individually truncated runs. An explicit truncation T
    leaves the radii with 2r + 1 > T uncertified; one at or below r_max
    raises InvalidParameter.

    Without a caller's table, an infinite group is explored to 2 r_max + 1
    first when that lies below every truncation the profile reads (T - 1
    and T for the ends estimate, T alone otherwise). If every touching
    count there is 1, that sweep is the sweep at T (module docstring) and
    ``nodes_explored`` still counts B(T), from ``sphere_size_series``;
    otherwise that table grows to T and is swept. A caller's table is never
    grown. A budget error names T as the radius requested either way.

    ``one_ended=True`` asserts one-endedness and certifies every entry with
    T >= 2r + 1. Otherwise an entry is certified only where its touching
    count at the truncation is 1 (module docstring), and the ends estimate
    over the schedule (truncation - 1, truncation), as
    ``end_count_estimate`` would give it, sets the classification. Groups
    whose estimate is not "one" get their values anyway, each flagged with
    a warning, since the notion is only meaningful one ended; a certified
    entry keeps that warning. A finite group has no unbounded
    component: it is explored whole, whatever the truncation, so its whole
    complement is bounded, the depth and the truncation are its diameter,
    and it classifies as zero, never certified. An r_max at or past that
    diameter leaves no complement and raises InvalidParameter.
    """
    if not _is_int(r_max) or r_max < 1:
        raise InvalidParameter(f"r_max must be a positive integer, got {r_max!r}")
    if truncation is None:
        truncation = _writable(default_truncation(r_max), "the truncation 4 r_max + 2")
    if truncation <= r_max:
        raise InvalidParameter(f"truncation {truncation} must exceed r_max={r_max}")
    finite = oracle.order is not None
    estimate = not finite and not one_ended
    if estimate and truncation - 1 <= r_max:
        raise InvalidParameter(
            f"the ends estimate needs truncation >= r_max + 2, "
            f"got truncation {truncation} for r_max={r_max}")
    truncs = (truncation - 1, truncation) if estimate else (truncation,)
    nodes = None
    if table is None and not finite and 2 * r_max + 1 < truncs[0]:
        double = 2 * r_max + 1
        try:
            table = explore(oracle, double, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(exc.budget, exc.nodes, exc.radius_reached, truncation) from None
        sweep = _complement_sweep(table, range(r_max + 1), (double,))[double]
        if all(touching == 1 for _, touching, _ in sweep.values()):
            sweeps = dict.fromkeys(truncs, sweep)
            nodes = sphere_size_series(oracle, truncation, budget).size
        else:
            table.grow(truncation)
    if nodes is None:
        table = _ball_table(oracle, truncation, budget, table)
        nodes = table.size
        if finite:
            truncation = table.reached
            truncs = (truncation,)
            if truncation <= r_max:
                raise InvalidParameter(
                    f"the whole group lies within radius {table.reached}; "
                    f"no complement to analyze at r_max={r_max}")
        # snapshots 0..r_max - 1 also give the ends estimate its counts e(r)
        sweeps = _complement_sweep(table, range(r_max + 1), truncs)

    radii = range(1, r_max + 1)
    sweep = sweeps[truncation]
    if finite:
        classification, one_ended_evidence = CLASS_ZERO, False
    elif estimate:
        prev, last = ([sweeps[t][r - 1][1] for r in radii] for t in (truncation - 1, truncation))
        classification = _classify_counts(prev, last)[1]
        one_ended_evidence = classification == CLASS_ONE
    else:
        classification, one_ended_evidence = None, True

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
        certified = not finite and truncation > 2 * r and (one_ended or touching == 1)
        entries.append(EndDepthResult(
            r, value, certified, truncation, bounded_count, classification,
            not one_ended_evidence))

    return EndDepthProfile(oracle.label(), generator_words(oracle), entries,
                           classification, truncation, nodes)


_STABILIZED = {CLASS_ZERO: 0, CLASS_ONE: 1, CLASS_TWO: 2}


class EndsEstimate(Record):
    """Boundary-touching component counts and the end count they support.

    ``counts`` maps each truncation to [e(1), ..., e(r_max)]. The
    classification snaps to the only possible values 0, 1, 2 or infinity;
    counts that have not stabilized across the last two truncations leave it
    inconclusive. This is finite evidence, not a proof.
    """

    __slots__ = ("group", "r_max", "schedule", "counts", "stable", "classification",
                 "nodes_explored")
    report_keys = ("group", "r_max", "schedule", "counts", "stable", "classification",
                   "stabilized", "complete_group")

    @property
    def complete_group(self) -> bool:
        """Whether the table held the whole group: a finite group, zero ends."""
        return self.classification == CLASS_ZERO

    @property
    def stabilized(self) -> Optional[int]:
        """The end count 0, 1 or 2 the counts settled on; None otherwise."""
        return _STABILIZED.get(self.classification)

    def final_counts(self) -> list:
        return self.counts[self.schedule[-1]]


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
    if not _is_int(r_max) or r_max < 1:
        raise InvalidParameter(f"r_max must be a positive integer, got {r_max!r}")
    if schedule is None:
        schedule = default_schedule(r_max)
        _writable(schedule[-1], "the truncation 2 r_max + 3")
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
        stable, classification = [], CLASS_ZERO
    else:
        stable, classification = _classify_counts(counts[schedule[-2]], counts[schedule[-1]])
    return EndsEstimate(oracle.label(), r_max, schedule, counts, stable,
                        classification, table.size)


def _classify_counts(prev: list, last: list) -> tuple:
    """(stable flags, classification) from e(1..r_max) at the last two
    truncations of a schedule.

    The upper half of the radii decides: stable there at constant 1 or 2
    gives one or two ends; stable everywhere, nondecreasing and ending at
    3 or more gives infinitely many.
    """
    r_max = len(last)
    stable = [a == b for a, b in zip(prev, last)]
    classification = CLASS_INCONCLUSIVE

    tail_from = max(1, (r_max + 1) // 2)
    tail = range(tail_from - 1, r_max)
    tail_stable = all(stable[i] for i in tail)
    if tail_stable:
        tail_values = {last[i] for i in tail}
        if tail_values == {1}:
            classification = CLASS_ONE
        elif tail_values == {2}:
            classification = CLASS_TWO
    if classification == CLASS_INCONCLUSIVE:
        nondecreasing = all(x <= y for x, y in zip(last, last[1:]))
        if all(stable) and nondecreasing and last[-1] >= 3:
            classification = CLASS_INFINITE
    return stable, classification


class WitnessItem(Record):
    """One separating configuration: a small set K, a reach radius, and two
    vertex sets that should fall in different components around K."""

    __slots__ = report_keys = ("K", "r", "A", "B")


class ObssWitness(Record):
    """Finite family of separating configurations with growing reach.

    Vertex sets are given by canonical key strings inside one ball table;
    ``truncation``, the radius to explore, is None when the witness names
    none.
    """

    __slots__ = report_keys = ("n", "items", "truncation")

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.truncation is None:
            del d["truncation"]
        return d

    def validate(self) -> None:
        """InvalidParameter, naming the field, unless there are items, n is
        a positive integer, the truncation is None or a nonnegative integer,
        and every item has an integer r >= 1 and a nonempty K, A and B."""
        if not self.items:
            raise InvalidParameter("witness has no items")
        if not _is_int(self.n) or self.n < 1:
            raise InvalidParameter(f"witness bound n must be a positive integer, got {self.n!r}")
        if self.truncation is not None and (not _is_int(self.truncation) or self.truncation < 0):
            raise InvalidParameter(f"witness truncation must be a nonnegative integer, "
                                   f"got {self.truncation!r}")
        for idx, it in enumerate(self.items):
            if not _is_int(it.r) or it.r < 1:
                raise InvalidParameter(f"items[{idx}].r must be an integer >= 1, got {it.r!r}")
            for name in ("K", "A", "B"):
                if not getattr(it, name):
                    raise InvalidParameter(f"items[{idx}].{name} must name at least one vertex")

    @classmethod
    def from_dict(cls, d: dict) -> "ObssWitness":
        """Read and ``validate`` the JSON form."""
        _check_keys(d, ("n", "items", "truncation"), "witness")
        try:
            if not isinstance(d["items"], list):
                raise TypeError("'items' must be a list")
            items = []
            for i, it in enumerate(d["items"]):
                _check_keys(it, ("K", "r", "A", "B"), f"items[{i}]")
                items.append(WitnessItem(_keys(it, "K", i), it["r"],
                                         _keys(it, "A", i), _keys(it, "B", i)))
            witness = cls(d["n"], items, d.get("truncation"))
        except (KeyError, TypeError) as exc:
            raise InvalidParameter(f"malformed witness: {exc}") from exc
        witness.validate()
        return witness

    @classmethod
    def from_json(cls, text: str) -> "ObssWitness":
        return cls.from_dict(_loads(text, "witness"))


def _keys(item: dict, field: str, idx: int) -> tuple:
    keys = item[field]
    if not isinstance(keys, list) or not all(isinstance(key, str) for key in keys):
        raise InvalidParameter(f"items[{idx}].{field} must be a list of vertex keys, "
                               f"got {keys!r}")
    return tuple(keys)


class WitnessItemReport(Record):
    __slots__ = ("index", "r", "diam_K", "diam_K_ok", "sets_nonempty", "sets_disjoint",
                 "A_single_component", "B_single_component", "distinct_components",
                 "diam_A", "diam_B")
    report_keys = (*__slots__, "passed")

    @property
    def passed(self) -> bool:
        return (self.diam_K_ok and self.sets_nonempty and self.sets_disjoint
                and self.A_single_component and self.B_single_component
                and self.distinct_components)


class WitnessReport(Record):
    __slots__ = ("items", "r_strictly_increasing", "diam_A_strictly_increasing",
                 "diam_B_strictly_increasing", "note")
    report_keys = (*__slots__, "passed")

    @property
    def passed(self) -> bool:
        return (all(it.passed for it in self.items)
                and self.r_strictly_increasing
                and self.diam_A_strictly_increasing
                and self.diam_B_strictly_increasing)


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
    distances there. A table of the whole group needs no guard.

    A pair further apart than the truncation raises TruncationTooSmall,
    naming the item and the set, as does a K whose reach leaves the
    truncation. A witness that fails ``ObssWitness.validate``, or names a
    vertex outside the table, raises InvalidParameter naming the field.
    Every key is resolved in one scan of the table (``ids_of_keys``).
    """
    witness.validate()
    found = table.ids_of_keys(key for it in witness.items for key in (*it.K, *it.A, *it.B))

    item_reports = []
    diams_A, diams_B = [], []
    for idx, it in enumerate(witness.items):
        K = _resolve(found, it.K, f"items[{idx}].K")
        A = _resolve(found, it.A, f"items[{idx}].A")
        B = _resolve(found, it.B, f"items[{idx}].B")
        max_dist = max(map(table.dist_of, K))
        if not table.complete_group and max_dist + it.r > table.reached:
            raise TruncationTooSmall(
                f"items[{idx}]: need radius {max_dist + it.r}, table has {table.reached}")

        diam_K = _diameter(table, K, f"items[{idx}].K")
        # d(v, K) < r: the translates k B(e, r - 1); the guard above, or a
        # whole group, keeps every translate inside the table
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


def _resolve(found: dict, keys: Sequence[str], where: str) -> list:
    for key in keys:
        if key not in found:
            raise InvalidParameter(f"{where}: vertex {key!r} not in the explored ball")
    return [found[key] for key in keys]


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
