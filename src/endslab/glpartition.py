"""Separation-certified partitions of finite metric spaces.

A partition of a finite metric space is separation certified for an integer
factor a when every block is further than a times the largest block diameter
(floored at 1) from the rest of the space. The builder grows one candidate
set around every point by repeated neighborhood expansion, scaling the reach
by the factor at each round, until the sets stabilize; stabilized sets that
meet coincide, so deduplication yields a partition. Each row of the matrix
is sorted once, so a point's ball of any radius is a prefix of its sorted
row, and a round joins prefixes instead of scanning whole rows. Whenever
the space's diameter exceeds (2a+1)^(n+2) the result is guaranteed to be
proper (more than one block); otherwise it may collapse to a single block,
which is reported as a flagged outcome rather than an error.

The verifier re-checks the partition conditions straight from the distance
matrix, sharing no state with the builder.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from math import isfinite
from operator import add, getitem, itemgetter
from typing import Optional, Sequence

from .errors import InvalidParameter, TruncationTooSmall
from .explore import BallTable
from .groups import Element, Record, _check_keys, _is_int, _loads

TRIANGLE_TOL = 1e-9


class FiniteMetricSpace:
    """Labeled points with an explicit, validated distance matrix."""

    def __init__(self, labels: Sequence[str], dist: Sequence[Sequence[float]],
                 validate: bool = True):
        self.labels = tuple(str(x) for x in labels)
        self.dist = tuple(tuple(row) for row in dist)
        # label -> point id; validation rejects repeated labels
        self.label_ids = dict(zip(self.labels, range(len(self.labels))))
        if validate:
            self.validate()

    @property
    def n(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        """Check the metric axioms, raising on the first violation.

        Each per-entry rule is first decided by a pass over the whole matrix
        that runs in C: the set of entry types, ``isfinite`` over every
        entry, the transpose against the matrix, the diagonal and the count
        of entries <= 0. Only a failed pass scans entry by entry, in the
        order that names the first violation. The type set also picks the
        triangle check: packed rows when no entry is a float.
        """
        n = self.n
        if n == 0:
            raise InvalidParameter("metric space needs at least one point")
        if len(self.label_ids) != n:
            raise InvalidParameter("point labels must be distinct")
        d = self.dist
        if len(d) != n or any(len(row) != n for row in d):
            raise InvalidParameter(f"distance matrix must be {n}x{n}")
        types = set(map(type, chain.from_iterable(d)))
        try:
            finite = types <= {int, float} and all(map(isfinite, chain.from_iterable(d)))
        except OverflowError:  # isfinite overflows on an int past float range
            finite = False
        if not finite:  # the scan also accepts int and float subclasses
            try:
                for i, row in enumerate(d):
                    for j, x in enumerate(row):
                        if isinstance(x, bool) or not isinstance(x, (int, float)) or not isfinite(x):
                            raise ValueError
            except (ValueError, OverflowError):
                raise InvalidParameter(
                    f"distance between {self.labels[i]} and {self.labels[j]} "
                    f"is not a finite number: {x!r}") from None
        # with a zero diagonal, no entry < 0 and exactly n zeros leave every
        # off-diagonal entry > 0
        if (any(map(getitem, d, range(n))) or tuple(zip(*d)) != d
                or min(map(min, d)) < 0 or sum(row.count(0) for row in d) != n):
            for i in range(n):
                if d[i][i] != 0:
                    raise InvalidParameter(f"nonzero diagonal at {self.labels[i]}")
                for j in range(i + 1, n):
                    if d[i][j] != d[j][i]:
                        raise InvalidParameter(
                            f"asymmetric distances between {self.labels[i]} and {self.labels[j]}")
                    if d[i][j] <= 0:
                        raise InvalidParameter(
                            f"non-positive distance between {self.labels[i]} and {self.labels[j]}")
        # With d symmetric, a failing (j, i, k) makes (i, j, k) fail too, so
        # the first failing triple in (i, j, k) order has i < j and only
        # pairs j > i need checking; a failing pair is scanned for its first k.
        exact = not any(issubclass(t, float) for t in types)
        pair = (_first_failing_pair_packed if exact else _first_failing_pair)(d)
        if pair is not None:
            i, j = pair
            di, dj, dij = d[i], d[j], d[i][j]
            k = next(k for k in range(n) if _exceeds(dij, di[k] + dj[k]))
            raise InvalidParameter(
                f"triangle inequality fails at "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")

    def index_of(self, label: str) -> int:
        try:
            return self.label_ids[label]
        except KeyError:
            raise InvalidParameter(f"unknown point label {label!r}") from None

    def diameter(self, ids: Optional[Sequence[int]] = None) -> float:
        """The first largest entry over the rows of ``ids`` in order, each
        read at ``ids`` in order (0 for no ids); a single point gives its
        diagonal entry as stored."""
        d = self.dist
        ids = range(self.n) if ids is None else list(ids)
        if len(ids) < 2:
            return d[ids[0]][ids[0]] if ids else 0
        return max(map(max, map(itemgetter(*ids), map(d.__getitem__, ids))))

    def set_distance(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> float:
        d = self.dist
        ids_b = list(ids_b)
        return min(min(map(d[i].__getitem__, ids_b)) for i in ids_a)

    def to_dict(self) -> dict:
        return {"points": list(self.labels), "distances": [list(r) for r in self.dist]}

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteMetricSpace":
        """Read the JSON form: ``points``, a list of label strings, and ``distances``."""
        _check_keys(d, ("points", "distances"), "metric space")
        try:
            points = d["points"]
            if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
                raise InvalidParameter(f"'points' must be a list of strings, got {points!r}")
            return cls(points, d["distances"])
        except (KeyError, TypeError) as exc:
            raise InvalidParameter(f"malformed metric space: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FiniteMetricSpace":
        return cls.from_dict(_loads(text, "metric space"))

    @classmethod
    def from_line(cls, positions: Sequence[float], labels: Optional[Sequence[str]] = None):
        """Points on a line with the absolute-difference metric (tests, demos)."""
        if labels is None:
            labels = [str(p) for p in positions]
        dist = [[abs(p - q) for q in positions] for p in positions]
        return cls(labels, dist)


def _exceeds(dij, s) -> bool:
    """dij > s + TRIANGLE_TOL, or exactly dij > s when both are ints: an int
    that a float cannot hold must not be rounded. An int s past float range
    lies above any dij."""
    if isinstance(dij, int) and isinstance(s, int):
        return dij > s
    try:
        return dij > s + TRIANGLE_TOL
    except OverflowError:
        return False


def _first_failing_pair(d):
    """The first pair i < j with d[i][j] exceeding some d[i][k] + d[j][k]
    in the sense of ``_exceeds``, or None: one row pair at a time. That
    holds exactly when d[i][j] exceeds the smallest such sum, since float
    rounding of x + TRIANGLE_TOL is monotone in x and an int exceeds an int
    by at least 1, far more than the tolerance."""
    n = len(d)
    for i in range(n):
        di = d[i]
        for j in range(i + 1, n):
            if _exceeds(di[j], min(map(add, di, d[j]))):
                return i, j
    return None


def _first_failing_pair_packed(d):
    """``_first_failing_pair`` for a tuple of tuples of non-negative ints.

    Each row is packed into one int, one field per entry, with fields wide
    enough that 2 * max(d) stays below the field's top (guard) bit. For a
    pair (i, j), field k of (P[i] + GUARD) + P[j] - d[i][j] * ONES is
    GUARD + d[i][k] + d[j][k] - d[i][j], which lies in [0, 2 * GUARD), so no
    field carries or borrows into the next, and its guard bit is set
    exactly when d[i][k] + d[j][k] >= d[i][j].
    """
    n = len(d)
    digits = (2 * max(map(max, d))).bit_length() // 4 + 1  # hex digits per field
    field = f"%0{digits}x" * n
    packed = [int(field % row, 16) for row in d]
    guard = int(("8" + "0" * (digits - 1)) * n, 16)
    ones = int(("0" * (digits - 1) + "1") * n, 16)
    for i in range(n):
        gi = packed[i] + guard
        di = d[i]
        for j in range(i + 1, n):
            if (gi + packed[j] - di[j] * ones) & guard != guard:
                return i, j
    return None


class GlPartition(Record):
    """Blocks with their separation certificate.

    D is the largest block diameter floored at 1; ``iterations`` counts the
    expansion rounds until stability; ``separation`` is the smallest observed
    distance from a block to the rest (None for a single block);
    ``diameter_history`` is max(diam, 1) after each expansion round, starting
    at the seed value 1 and bounded by (2a+1)^m at round m (not part of the
    JSON form). Repeated candidate sets always coincide with a whole block,
    so each block's multiplicity equals its size; only distinct blocks are
    stored.
    """

    __slots__ = ("blocks", "a", "D", "iterations", "separation", "diameter_history")
    report_keys = ("a", "blocks", "D", "k", "trivial")

    @property
    def k(self) -> int:
        """The report's name for ``iterations``."""
        return self.iterations

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def trivial(self) -> bool:
        """One block: the space did not split."""
        return len(self.blocks) == 1


def _check_factor(a) -> None:
    if not _is_int(a) or a < 3:
        raise InvalidParameter(f"separation factor must be an integer >= 3, got {a!r}")


def build_gl_partition(space: FiniteMetricSpace, a: int) -> GlPartition:
    """Grow a separation-certified partition by scaled neighborhood expansion.

    Round m replaces each candidate set with everything within a * d of it,
    where d is the previous round's largest diameter floored at 1 (starting
    at 1). The loop stops once all sets are stable; the internal diameter
    sequence is bounded by (2a+1)^m and the round count by n + 1, both of
    which are asserted.

    Each row is sorted once, point ids by distance and ties by id, so the
    ball B_i(rho) = {j : d_ij <= rho} is the prefix of ``orders[i]`` that
    ``bisect_right`` cuts at rho. Some d_ij <= rho exactly when
    min_i d_ij <= rho, so a set grows to the union of its members' balls.
    A round costs n bisects plus the sizes of the balls it joins, where
    scanning the members' rows would cost |s| * n comparisons per set.
    """
    _check_factor(a)
    n = space.n
    d = space.dist
    orders = [sorted(range(n), key=row.__getitem__) for row in d]
    sets = [frozenset([i]) for i in range(n)]
    d_prev = 1
    history = [1]
    iterations = 0
    for m in range(1, n + 3):
        reach = a * d_prev
        cuts = [bisect_right(order, reach, key=row.__getitem__)
                for order, row in zip(orders, d)]
        # points that share a candidate set share its expansion: after the
        # first round there is one distinct set per block, not one per point
        grown = {}
        for s in sets:
            if s not in grown:
                grown[s] = frozenset(chain.from_iterable(orders[i][:cuts[i]] for i in s))
        if all(g == s for s, g in grown.items()):
            iterations = m - 1
            break
        sets = [grown[s] for s in sets]
        d_m = max(max((space.diameter(s) for s in dict.fromkeys(sets)), default=0), 1)
        if d_m > (2 * a + 1) ** m + TRIANGLE_TOL:
            raise AssertionError(
                f"diameter sequence {d_m} exceeded ({2 * a + 1})^{m}: builder bug")
        history.append(d_m)
        d_prev = d_m
    else:
        raise AssertionError(f"expansion failed to stabilize in {n + 1} rounds: builder bug")

    # the stable sets are the last round's, so d_prev is their diameter
    blocks_idx = list(dict.fromkeys(sets))  # dedupe, ordered by first owner
    separation = None
    if len(blocks_idx) > 1:
        separation = min(
            space.set_distance(b, [j for j in range(n) if j not in b])
            for b in blocks_idx)
    blocks = tuple(
        tuple(space.labels[i] for i in sorted(b)) for b in blocks_idx)
    return GlPartition(blocks, a, d_prev, iterations, separation, tuple(history))


class GlVerification(Record):
    """Outcome of the independent partition re-check; ``proper`` means at
    least two blocks."""

    __slots__ = ("blocks_disjoint", "covers_space", "proper", "separation_ok", "D",
                 "failures")
    report_keys = (*__slots__, "passed")

    @property
    def passed(self) -> bool:
        return self.blocks_disjoint and self.covers_space and self.proper and self.separation_ok


def verify_gl_partition(space: FiniteMetricSpace, partition: GlPartition,
                        a: int) -> GlVerification:
    """Re-check the partition conditions from raw distances only.

    Checks: blocks are nonempty and pairwise disjoint, they cover the space,
    there are at least two of them, and every block is separated from the
    rest by more than a times the largest block diameter (floored at 1).
    Violations are collected per block; nothing from the builder is reused.
    """
    _check_factor(a)
    failures = []
    idx_blocks = []
    seen = set()
    disjoint = True
    for bi, block in enumerate(partition.blocks):
        if not block:
            disjoint = False
            failures.append({"condition": "disjoint", "block": bi, "detail": "empty block"})
            continue
        ids = [space.index_of(lbl) for lbl in block]
        overlap = seen.intersection(ids)
        if overlap:
            disjoint = False
            failures.append({
                "condition": "disjoint", "block": bi,
                "detail": f"overlaps earlier block on {sorted(space.labels[i] for i in overlap)}"})
        seen.update(ids)
        idx_blocks.append(ids)

    covers = len(seen) == space.n
    if not covers:
        missing = sorted(set(space.labels) - {space.labels[i] for i in seen})
        failures.append({"condition": "covers", "block": None,
                         "detail": f"points not covered: {missing}"})

    proper = len(partition.blocks) >= 2
    if not proper:
        failures.append({"condition": "proper", "block": None,
                         "detail": "a single block is not a partition into separated groups"})

    diam_max = max(max((space.diameter(ids) for ids in idx_blocks), default=0), 1)
    separation_ok = True
    for bi, ids in enumerate(idx_blocks):
        block = set(ids)
        rest = [j for j in range(space.n) if j not in block]
        if not rest:
            continue
        sep = space.set_distance(ids, rest)
        if not sep > a * diam_max:
            separation_ok = False
            failures.append({
                "condition": "separation", "block": bi,
                "detail": f"distance {sep} to the rest is not > {a} * {diam_max}"})

    return GlVerification(disjoint, covers, proper, separation_ok, diam_max, failures)


def sphere_as_metric_space(table: BallTable, center: Element, r: int) -> FiniteMetricSpace:
    """The sphere of radius r around a center, with exact pairwise distances.

    The points are center * S(e, r), left translates of a table layer,
    ordered by table id and labeled by their canonical keys. A distance is
    |x^-1 y|, read from the table, so it is exact whenever x^-1 y lies in
    it. The guard d(identity, center) + 3r <= truncation keeps every point
    and every x^-1 y (length at most 2r) inside.
    """
    cid = table.id_of(center)
    if cid is None:
        raise TruncationTooSmall("center element not in the explored ball")
    if not _is_int(r) or r < 1:
        raise InvalidParameter(f"sphere radius must be a positive integer, got {r!r}")
    need = table.dist_of(cid) + 3 * r
    if not table.complete_group and need > table.reached:
        raise TruncationTooSmall(
            f"need radius {need} for exact sphere distances, "
            f"table has {table.reached}")

    points = sorted(table.translates([center], table.layer_ids(r)))
    if not points:
        raise InvalidParameter(f"sphere of radius {r} around the center is empty")
    dist = [[0] * len(points) for _ in points]
    for i, row in enumerate(table.distance_rows(points)):
        dist[i][i + 1:] = row
        for j, d in enumerate(row, i + 1):
            dist[j][i] = d
    labels = [table.key_of(v) for v in points]
    return FiniteMetricSpace(labels, dist)
