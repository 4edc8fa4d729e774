"""Breadth-first materialization of balls, spheres and geodesic axes.

The explorer produces exact word-metric distances for every element within a
truncation radius, plus the adjacency of the induced subgraph. Distances are
always computed by search, never by family-specific formulas; closed forms
are reserved for cross-checks in the test suite. Pairwise distances follow by
left invariance, d(x, y) = |x^-1 y|: one group product and one lookup.

Vertices are numbered in discovery order, which is also distance order, so a
layer is a contiguous id range and the whole table is deterministic: two runs
over the same oracle and radius produce identical tables. The layer bounds
are the one record of distance and size, ``SphereSizeSeries``: the distance
of an id is the layer whose range holds it. ``sphere_size_series`` returns
that record bare, and a ``BallTable`` adds the vertices and their rows.
Either holds the whole group exactly when its size is the group order.

The search runs on the packed int codes of ``GroupOracle.codec`` and steps
them with one int function per generator; elements are decoded only when a
caller asks for one. A table records each code once, as a key of its
code-to-id dict: keys are inserted in discovery order, so the key order is
the id order, and the list from id to code is derived from the dict on the
first decode. The search expands each sphere vertex by vertex, in id order
and generator order, numbers each new code as it is found and hands the new
codes on as the next sphere to expand. ``BallTable.grow`` resumes it at the
tail of that dict, recoding the table first when its codes do not reach the
new radius; ``explore`` grows the ball of radius 0.

The lean count behind ``sphere_size_series`` numbers nothing: one set
holds the codes of the three live spheres, r - 1, r and r + 1 while
r + 1 is built. It files each new vertex under the lowest step that
finds it and never takes the inverse step, which leads back to a vertex
of the sphere before. If the steps commute, a vertex also skips every
step below its own, since a geodesic word sorted by step stays one: on
Z^k that leaves about one probe per vertex instead of 2k - 1. A wide
sphere is stepped step by step, one map per step; a thin one in one
pass, vertex by vertex, refiling a vertex under a lower step that finds
it again. The outermost sphere S(R), the largest, is never held: each
of its vertices is counted once, at the lowest step that finds it from
S(R - 1), which back steps into the set tell, so the set ends holding
two spheres. The count visits no sphere in table order, so only the
sizes it reports, and the budget errors that name a whole ball, are
shared with a table.

Adjacency is one flat array of rows, k = len(steps) slots per vertex in
generator order, so the row of u is the implicit slice ``adj[k*u:k*u + k]``
and needs no offsets. The search writes the row of every vertex it expands:
every vertex inside the outermost sphere S(R), or every vertex of a finite
group exhausted before R. The rows of S(R) are appended once, on first use,
by ``BallTable._wire_outer``, with -1 in the slot of a step that leaves the
ball. The complement sweep in ``ends`` never reads them on a bipartite
family (``GroupOracle.bipartite``), where S(R) has no edge inside itself,
and the ``obss`` witness check reads rows within radius R - 1 only.

Other modules read how table vertices relate in three ways: adjacency
through ``rows_down`` (``neighbors`` for one vertex), left translates
c * g of table elements through ``translates``, and pairwise distances
through ``distance_rows``. A word length is no relation: ``dist_of``
reads it off the layer bounds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from functools import partial
from itertools import chain, combinations, compress, filterfalse, islice, pairwise, repeat, tee
from operator import add, countOf, not_
from typing import Callable, Iterable, Optional, Sequence

from .errors import (BudgetExceeded, InvalidParameter, NoAxis, NotGeodesic,
                     TruncationTooSmall)
from .groups import Codec, Element, GroupOracle, Record, _is_int

DEFAULT_NODE_BUDGET = 5_000_000


class SphereSizeSeries:
    """The layer record of a search: ``_layer_start[r]`` is the first id of
    S(r) and ``_layer_start[-1]`` the size, and every size and distance is
    read off these bounds. A finite group exhausted before the requested
    radius stops the list, and ``sphere_size`` reports zero beyond it (the
    requested radius may be astronomically large). ``complete_group``
    holds when the size is the group order."""

    __slots__ = ("oracle", "_layer_start")

    def __init__(self, oracle: GroupOracle, starts: list):
        self.oracle = oracle
        self._layer_start = starts

    @property
    def size(self) -> int:
        return self._layer_start[-1]

    def __len__(self) -> int:  # clibench's tracer counts explore's vertices with len()
        return self.size

    @property
    def reached(self) -> int:
        """The outermost radius with a vertex: the last layer."""
        return len(self._layer_start) - 2

    @property
    def sizes(self) -> list:
        """|S(r)| for r = 0..reached."""
        return [b - a for a, b in pairwise(self._layer_start)]

    @property
    def complete_group(self) -> bool:
        return self._layer_start[-1] == self.oracle.order

    def dist_of(self, vid: int) -> int:
        """Word length of a vertex: the layer whose id range holds it."""
        return bisect_right(self._layer_start, vid) - 1

    def sphere_size(self, r: int) -> int:
        if r < 0 or r > self.reached:
            return 0
        return self._layer_start[r + 1] - self._layer_start[r]

    def ball_size(self, r: int) -> int:
        """|B(r)|: 0 for r < 0, and the size beyond the last layer."""
        r = min(r, self.reached)
        if r < 0:
            return 0
        return self._layer_start[r + 1]

    def layer_ids(self, r: int) -> range:
        if r < 0 or r > self.reached:
            return range(0)
        return range(self._layer_start[r], self._layer_start[r + 1])

    # ``nodes`` (the vertices counted against the budget) is read by clibench's tracer
    sphere, ball, nodes = sphere_size, ball_size, size


class BallTable(SphereSizeSeries):
    """All elements within a truncation radius: a layer record
    (``SphereSizeSeries``) with the vertices and their adjacency.

    Vertices are stored as the int codes of ``codec`` and decoded only on
    request. ``_index`` is the one record of the codes: it maps each code to
    its id, and its insertion order is the id order. ``_codes``, the list
    from id to code, is derived from it as ``list(_index)`` by the first
    decode (``element``, and through it ``key_of``, ``translates`` and
    ``distance_rows``); a caller that only sweeps the table never builds it.
    Adjacency covers exactly the edges of the induced subgraph on the ball.
    ``_adj`` holds ``_k`` slots per id, so the rows it holds are those of
    the first ``_wired`` = len(_adj) // _k ids; the rows of the outermost
    sphere of an unexhausted ball are appended on first use (module
    docstring).

    A table changes in three lazy steps: the code list is built on the
    first decode, the outer rows are wired on first use, and ``grow``
    extends the ball (recoding it if need be), keeping every id, layer and
    inner row. Building the code list reads ``_index`` only, so two threads
    racing to build it each get the same list. Wiring and growth are not
    thread-safe: they append to ``_adj`` slot by slot, so two threads at
    once can interleave rows, and an append while another thread iterates
    ``rows_down`` raises BufferError. A table shared between threads should
    be grown, then wired by ``neighbors`` on its last id.
    """

    def __init__(self, oracle: GroupOracle, budget: int):
        """The ball of radius 0, which ``grow`` extends within ``budget``."""
        super().__init__(oracle, [0, 1])
        self._budget = budget
        self._codec = _codec(oracle, 0, budget)
        self._k = len(self._codec.steps)
        self._adj = array("i")
        self._index = {self._codec.identity: 0}
        self._codes = None

    @property
    def _wired(self) -> int:  # every id of the trivial group, which has no generators
        return len(self._adj) // self._k if self._k else self.size

    def element(self, vid: int) -> Element:
        codes = self._codes
        if codes is None:
            codes = self._codes = list(self._index)
        return self._codec.decode(codes[vid])

    def neighbors(self, vid: int) -> list:
        """Neighbor ids of a vertex within the ball, in generator order."""
        if vid >= self._wired:
            self._wire_outer()
        return [v for v in self._adj[self._k * vid:self._k * vid + self._k] if v >= 0]

    def rows_down(self, lo: int, top: int):
        """(u, row) for every id u from top - 1 down to lo, off one view of
        the adjacency: the ``_k`` slots of u in reverse generator order, -1
        for a step that leaves the ball. Wires the outermost sphere first
        if the range reaches it; the caller must not wire while iterating."""
        if top > self._wired:
            self._wire_outer()
        k = self._k
        view = memoryview(self._adj)[k * lo:k * top]
        return zip(range(top - 1, lo - 1, -1), zip(*[reversed(view)] * k))

    def _wire_outer(self) -> None:
        """Append the rows of the ids from ``_wired`` on, stepping each
        vertex as the search does, -1 for a step that leaves the ball. Runs
        on first use by ``neighbors`` or ``rows_down``, once per radius: the
        complement sweep on a family that is not bipartite. The ball of
        radius 0 has codes for itself alone (``_codec``), and every step
        leaves it: no generator is the identity."""
        if not self.reached:
            self._adj.extend(repeat(-1, self._k))
            return
        steps, get, append = self._codec.steps, self._index.get, self._adj.append
        for u in islice(self._index, self._wired, None):
            for step in steps:
                append(get(step(u), -1))

    def grow(self, radius: int) -> None:
        """Extend the table to the ball of ``radius`` that ``explore`` gives:
        recode every vertex if the codes do not reach that far (ids stay),
        then resume the search at the outermost sphere, whose wired rows it
        writes again. BudgetExceeded leaves the ball as it was, in its old
        codes."""
        _search_budget(radius, self._budget)
        if radius <= self.reached:
            return
        old = self._codec
        codec = _codec(self.oracle, radius, self._budget)
        if codec.span != old.span:  # codes widen with their radius
            self._recode(codec)
        starts, index, adj = self._layer_start, self._index, self._adj
        depth, size, outer = len(starts), self.size, starts[-2]
        del adj[self._k * outer:]
        self._codes = None
        try:
            _search(self._codec, radius, self._budget, index, starts, adj)
        except BudgetExceeded:
            del starts[depth:], adj[self._k * outer:]
            while len(index) > size:
                index.popitem()
            if self._codec is not old:
                self._recode(old)
            raise

    def _recode(self, codec: Codec) -> None:
        """Re-key ``_index`` by the codes of ``codec``, keeping every id."""
        codes = map(codec.encode, map(self._codec.decode, self._index))
        self._index, self._codec = dict(zip(codes, range(self.size))), codec

    def id_of(self, g: Element) -> Optional[int]:
        code = self._codec.encode(g)
        return None if code is None else self._index.get(code)

    def key_of(self, vid: int) -> str:
        return self.oracle.key_str(self.element(vid))

    def ids_of_keys(self, keys: Iterable[str]) -> dict:
        """The id of each canonical key string found in the table, in one
        scan in id order that stops at the last key it needs; a key that is
        missing costs a pass over the whole table."""
        wanted, found = set(keys), {}
        key_str, decode = self.oracle.key_str, self._codec.decode
        for vid, code in enumerate(self._index):
            if not wanted:
                break
            key = key_str(decode(code))
            if key in wanted:
                wanted.remove(key)
                found[key] = vid
        return found

    def translates(self, centers: Iterable[Element], ids: Iterable[int]) -> list:
        """Ids of c * g for every center c and every vertex g of ``ids``,
        center by center (None for a point outside the table). Each vertex
        is decoded once, however many centers there are."""
        multiply, id_of = self.oracle.multiply, self.id_of
        elements = [self.element(v) for v in ids]
        return [id_of(multiply(c, g)) for c in centers for g in elements]

    def distance_rows(self, ids: Sequence[int]) -> list:
        """Pairwise word-metric distances of a vertex set, upper triangle:
        row i holds d(ids[i], ids[j]) = |x^-1 y| for every j > i.

        Exact, read by left invariance: raises TruncationTooSmall naming a
        pair that lies further apart than the truncation radius.
        """
        multiply, invert, id_of = self.oracle.multiply, self.oracle.invert, self.id_of
        points = [self.element(v) for v in ids]
        rows = []
        for i, x in enumerate(points):
            x_inv = invert(x)
            row = [id_of(multiply(x_inv, y)) for y in points[i + 1:]]
            if None in row:
                far = ids[i + 1 + row.index(None)]
                raise TruncationTooSmall(
                    f"{self.key_of(ids[i])} and {self.key_of(far)} lie more than "
                    f"the truncation radius {self.reached} apart")
            rows.append(list(map(self.dist_of, row)))
        return rows

    def set_diameter(self, ids: Sequence[int]) -> int:
        """Max pairwise word-metric distance of a vertex set (``distance_rows``)."""
        return max((max(row, default=0) for row in self.distance_rows(ids)), default=0)


# A sphere of fewer vertices is stepped vertex by vertex by the lean count
# (``_count``): cheaper than setting up a map per step.
_THIN = 16


def _stepped(step: Callable[[int], int], codes: Iterable[int]) -> Iterable[int]:
    """``map(step, codes)``; a translation step v -> v + d maps ``add`` over
    ``repeat(d)``, which gives the same codes without a call through the
    partial."""
    if isinstance(step, partial) and step.func is add:
        return map(add, codes, repeat(step.args[0]))
    return map(step, codes)


def _back_steps(codec: Codec) -> list:
    """The index of the inverse of each step: steps[back[i]] undoes steps[i].
    Read off the identity and the generators, so the steps must hold on
    B(1); raises InvalidParameter if a step has no inverse among them."""
    e, steps = codec.identity, codec.steps
    back = []
    for i, step in enumerate(steps):
        g = step(e)
        j = next((j for j, undo in enumerate(steps) if undo(g) == e), None)
        if j is None:
            raise InvalidParameter(f"step {i} has no inverse among the {len(steps)} steps: "
                                   "the generating set is not closed under inverses")
        back.append(j)
    return back


def _commute(codec: Codec) -> bool:
    """Whether every two steps commute, read off the identity: a(b(e)) ==
    b(a(e)) for each pair. Codes are injective on B(2), so the generators,
    and with them the group, commute exactly when this holds."""
    e = codec.identity
    return all(a(b(e)) == b(a(e)) for a, b in combinations(codec.steps, 2))


def _codec(oracle: GroupOracle, radius: int, budget: int) -> Codec:
    """Codes for a search of the ball of ``radius``, which steps off its
    outermost sphere: they reach B(radius + 1), capped at
    ``oracle.radius_bound(budget) + 2``, since a search builds sphere r + 1
    only while the ball of radius r fits in the budget, and the lean count
    steps one past the last sphere it builds (``_count``). A search of
    radius 0 steps nowhere, so its codes reach B(0).

    Before any code is built, B(1) is checked against the budget: the
    generators are distinct and none is the identity, so it has
    1 + ``oracle.degree()`` elements. Codes of z_pow(k) take k digits and
    its steps k weights of up to k digits, and the lean count's set-up
    grows with k^2 (``_back_steps``, ``_commute``, ``takes``).
    """
    if not radius:
        return oracle.codec(0)
    if 1 + oracle.degree() > budget:  # B(1)
        raise BudgetExceeded(budget, 1, 0, radius)
    bound = oracle.radius_bound(budget)
    return oracle.codec(radius + 1 if bound is None else min(radius + 1, bound + 2))


def _search_budget(radius: int, budget: Optional[int]) -> int:
    """The node budget of a search to ``radius``, both arguments checked."""
    if not _is_int(radius) or radius < 0:
        raise InvalidParameter(f"radius must be a nonnegative integer, got {radius!r}")
    if budget is None:
        return DEFAULT_NODE_BUDGET
    if not _is_int(budget) or budget < 1:
        raise InvalidParameter("budget must be positive")
    return budget


def _search(codec: Codec, radius: int, budget: int, index: dict, starts: list,
            adj: array) -> None:
    """The breadth-first loop of a ball table: appends to ``starts``, the
    layer bounds so far, the bound of each sphere up to ``radius``, and
    stops at the first empty one.

    The search resumes at the last sphere, whose codes it reads off the
    tail of ``index``, the table's code-to-id dict. It expands each sphere
    vertex by vertex, in id order and generator order, numbers each new
    code as it is found, so ``index`` receives every code in discovery
    order, and hands the new codes on as the next sphere to expand. ``adj``
    gets the neighbor ids of every vertex expanded, len(steps) per vertex
    in generator order.

    Raises BudgetExceeded once more than ``budget`` vertices are found; the
    error names the last complete ball, B(r) with r = len(starts) - 2.
    """
    steps, get, append = codec.steps, index.get, adj.append
    nodes = starts[-1]
    sphere = list(islice(reversed(index), nodes - starts[-2]))
    sphere.reverse()
    for r in range(len(starts) - 2, radius):
        # S(radius) is never expanded, so the last round lists none of it:
        # a deque of length 0 drops what it is handed
        first, new = nodes, [] if r + 1 < radius else deque(maxlen=0)
        for u in sphere:
            for step in steps:
                v = step(u)
                vid = get(v)
                if vid is None:
                    if nodes >= budget:
                        raise BudgetExceeded(budget, first, r, radius)
                    vid = index[v] = nodes
                    nodes += 1
                    new.append(v)
                append(vid)
        if nodes == first:
            break
        starts.append(nodes)
        sphere = new


def _unseen(old: Callable[[int], bool], found: Iterable[int], probes: list) -> int:
    """How many codes of ``found`` fail ``old``, and so do their images
    under every step of ``probes``. Runs on C iterators only: each test
    filters the codes the next one reads, the first failure ends a code."""
    if probes:
        *probes, last = probes
        found = filterfalse(old, found)
        for step in probes:
            found, probe = tee(found)
            found = compress(found, map(not_, map(old, _stepped(step, probe))))
        found = _stepped(last, found)
    return countOf(map(old, found), False)


def _count(codec: Codec, radius: int, budget: int, seen: set, starts: list) -> None:
    """The lean count: sphere sizes from the identity, with
    ``seen`` holding only the codes of spheres r - 1, r and r + 1 while
    r + 1 is built (the generating set is inversion-closed, so no neighbor
    of sphere r lies further in).

    Each vertex is filed under the lowest step that finds it, and takes
    step j if ``takes[i][j]`` for its step i (the identity, under k,
    takes every step). u = p * s_i with p in the sphere before, so
    u * s_i^-1 = p can never be new, and u skips that step
    (``_back_steps``). If the steps commute (``_commute``), u also skips
    every step j < i, and still no vertex is lost. Let m(v) be the least,
    over the geodesic words of v, of their largest step. A geodesic word
    sorted by step index is still one, so v in S(r + 1) is u * s_j with
    j = m(v), u in S(r) and m(u) <= j; and j is not the inverse of m(u),
    or v would be shorter. So u takes j if it is filed under m(u). No
    pair (u, j) that is taken finds v with j < m(v): a geodesic word of u
    with largest step m(u) <= j, then s_j, is one of v with largest step
    j. So by induction every vertex is filed under m, as long as it is
    filed under the least step over all its finders. A sphere run step by
    step gets that by filing a vertex when it is first found; a thin
    sphere, run vertex by vertex, refiles a vertex of the new sphere under
    a lower step that finds it again.

    While spheres are thin, a sphere is a dict from code to step index,
    stepped vertex by vertex over the moves ``takes`` gives each filing;
    from the first sphere of ``_THIN`` vertices on, it is one list per
    step, stepped by one map per step over the lists that take it. One
    step never maps two vertices to one code, so the codes it finds unseen
    need no set of their own.

    The outermost sphere S(R), R = ``radius``, is counted and never held:
    ``seen`` holds S(R - 2) and S(R - 1) and nothing joins it. Each v in
    S(R) counts once, at its lowest finding step: the least j with
    v * s_j^-1 in S(R - 1). The pair (u, j), u in S(R - 1), counts
    v = u * s_j when v is not in ``seen``, so v is in S(R), and for every
    j' < j the back step of j', steps[back[j']], takes v outside ``seen``:
    v * s_j'^-1 is a neighbor of v, in S(R - 1), S(R) or S(R + 1), so it
    is in ``seen`` exactly when j' finds v. Those codes lie in B(R + 1),
    which the codes must reach (``_codec``). For each v one pair counts
    it, the one from u = v * s_j^-1 with j its lowest finder, so in this
    round every vertex of S(R - 1) takes every step but its own back
    step, commuting or not: the vertex u filed under back[j] is
    p * s_j^-1 with p in S(R - 2), and u * s_j = p is not new, so a
    lowest finder is never skipped (the rule j >= i could skip it). The
    tests run on C iterators (``_unseen``), at most j + 1 per pair.
    ``seen`` ends holding S(R - 2) and S(R - 1), or the last two spheres
    of a finite group exhausted before R.

    B(1) fits in the budget (``_codec`` checks it) before any set-up that
    grows with k^2. ``moves`` is built only if S(1) is thin: the
    vertex-by-vertex loop alone reads it, and a sphere once wide stays
    wide.
    """
    steps, old = codec.steps, seen.__contains__
    k, e = len(steps), codec.identity
    back = _back_steps(codec) if radius else ()
    sphere, older = {e: k}, ()  # older: the code collections of sphere r - 1
    moves = {k: list(enumerate(steps))}  # the identity takes every step
    for r in range(radius):
        if r == 1:  # the steps hold on B(2) (``_codec``)
            abelian = _commute(codec)
            takes = [[j != b and (j >= i or not abelian) for j in range(k)]
                     for i, b in enumerate(back)]
            if isinstance(sphere, dict):
                moves = [[(j, steps[j]) for j in range(k) if take[j]] for take in takes]
        first = nodes = starts[-1]
        if r == radius - 1:  # the last round: count S(radius), hold none of it
            if isinstance(sphere, dict):
                sphere = [[u for u, i in sphere.items() if i == f] for f in range(k + 1)]
            older = done = new = ()  # drop the lists of S(r - 1), keep its codes
            for j, step in enumerate(steps):
                codes = chain(*sphere[:back[j]], *sphere[back[j] + 1:])
                nodes += _unseen(old, _stepped(step, codes), [steps[b] for b in back[:j]])
                if nodes > budget:
                    raise BudgetExceeded(budget, first, r, radius)
        elif isinstance(sphere, dict):
            new = {}
            for u, i in sphere.items():
                for j, step in moves[i]:
                    v = step(u)
                    if v not in seen:
                        seen.add(v)
                        new[v] = j
                    elif new.get(v, j) > j:
                        new[v] = j
            nodes += len(new)
            if nodes > budget:
                raise BudgetExceeded(budget, first, r, radius)
            if len(new) >= _THIN:
                lists = [[] for _ in steps]
                for v, j in new.items():
                    lists[j].append(v)
                new = lists
            done = (sphere,)
        else:
            new = []
            for j, step in enumerate(steps):
                found = []
                for codes, take in zip(sphere, takes):
                    if take[j]:
                        found += filterfalse(old, _stepped(step, codes))
                seen.update(found)
                nodes += len(found)
                if nodes > budget:
                    raise BudgetExceeded(budget, first, r, radius)
                new.append(found)
            done = sphere
        if nodes == first:
            break
        starts.append(nodes)
        seen.difference_update(*older)
        older, sphere = done, new


def explore(oracle: GroupOracle, radius: int, budget: Optional[int] = None) -> BallTable:
    """Materialize the ball of the given radius around the identity.

    Raises BudgetExceeded if the ball would hold more than ``budget`` vertices
    (default 5e6); the error names the last complete ball. The
    search records the layer bounds, which give every distance; a table
    whose size is the group order is flagged ``complete_group``.
    """
    table = BallTable(oracle, _search_budget(radius, budget))
    table.grow(radius)
    return table


def sphere_size_series(oracle: GroupOracle, radius: int,
                       budget: Optional[int] = None) -> SphereSizeSeries:
    """Sphere sizes up to ``radius`` without building a table.

    Keeps only the codes of three consecutive spheres, in one set, never
    steps a vertex back to the vertex that found it, and counts the
    outermost sphere without holding it, each vertex at its lowest
    finding step (``_count``); so it scales to balls far beyond what a
    full table can hold. The codes reach B(radius + 1), since that count
    steps one past S(radius). ``size`` still counts every vertex of the
    ball against the budget, and a budget error is worded as
    ``explore``'s.
    """
    budget = _search_budget(radius, budget)
    codec, starts = _codec(oracle, radius, budget), [0, 1]
    _count(codec, radius, budget, {codec.identity}, starts)
    return SphereSizeSeries(oracle, starts)


class GeodesicAxis(Record):
    """Vertices of a verified bi-infinite geodesic through the identity.

    ``vertex(i)`` is the length-|i| prefix of the axis word repeated forever
    (its inverse word for negative i), and every vertex is checked to sit at
    word-metric distance exactly |i| from the identity.
    """

    __slots__ = ("extent", "_vertices")

    def vertex(self, i: int) -> Element:
        return self._vertices[i + self.extent]


def build_axis(oracle: GroupOracle, table: BallTable, extent: int) -> GeodesicAxis:
    """Build and verify the designated geodesic axis out to ``extent``.

    Raises NoAxis when the family has no designated axis (finite groups,
    products) and NotGeodesic if any prefix lands off its expected sphere,
    which would invalidate every consumer of the axis.
    """
    word = oracle.axis_word
    if word is None:
        raise NoAxis(f"{oracle.label()} has no designated geodesic axis")
    if not _is_int(extent):
        raise InvalidParameter(f"axis extent must be an integer, got {extent!r}")
    if extent < 0 or extent > table.reached:
        raise InvalidParameter(f"axis extent {extent} outside explored radius {table.reached}")

    inv_word = tuple(oracle.invert(s) for s in reversed(word))
    n = len(word)
    vertices = [None] * (2 * extent + 1)
    vertices[extent] = oracle.identity()
    g = oracle.identity()
    for i in range(1, extent + 1):
        g = oracle.multiply(g, word[(i - 1) % n])
        vertices[extent + i] = g
    g = oracle.identity()
    for i in range(1, extent + 1):
        g = oracle.multiply(g, inv_word[(i - 1) % n])
        vertices[extent - i] = g

    for idx, v in enumerate(vertices):
        expected = abs(idx - extent)
        vid = table.id_of(v)
        if vid is None or table.dist_of(vid) != expected:
            raise NotGeodesic(
                f"axis vertex at index {idx - extent} is not at distance {expected}"
            )
    return GeodesicAxis(extent, tuple(vertices))
