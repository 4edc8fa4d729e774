"""Breadth-first materialization of balls, spheres and geodesic axes.

The explorer produces exact word-metric distances for every element within a
truncation radius, plus the adjacency of the induced subgraph. Distances are
always computed by search, never by family-specific formulas; closed forms
are reserved for cross-checks in the test suite. Pairwise distances follow by
left invariance, d(x, y) = |x^-1 y|: one group product and one lookup.

Vertices are numbered in discovery order, which is also distance order, so a
layer is a contiguous id range and the whole table is deterministic: two runs
over the same oracle and radius produce identical tables. The layer bounds
are the only record of distance: the distance of an id is the layer whose
range holds it. A table or series holds the whole group exactly when its
size is the group order.

The search runs on the packed int codes of ``GroupOracle.codec`` and steps
them with one int function per generator; elements are decoded only when a
caller asks for one. A table records each code once, as a key of its
code-to-id dict: keys are inserted in discovery order, so the key order is
the id order, and the list from id to code is derived from the dict on the
first decode. The search reads each frontier off the tail of that dict.

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
from itertools import accumulate, islice, repeat
from typing import Iterable, Optional, Sequence

from .errors import (BudgetExceeded, InvalidParameter, NoAxis, NotGeodesic,
                     TruncationTooSmall)
from .groups import Codec, Element, GroupOracle, _is_int

DEFAULT_NODE_BUDGET = 5_000_000


class BallTable:
    """All elements within a truncation radius, with distances and adjacency.

    Vertices are stored as the int codes of ``codec`` and decoded only on
    request. ``_index`` is the one record of the codes: it maps each code to
    its id, and its insertion order is the id order. ``_codes``, the list
    from id to code, is derived from it as ``list(_index)`` by the first
    decode (``element``, and through it ``key_of``, ``translates`` and
    ``distance_rows``); a caller that only sweeps the table never builds it.
    Layers are contiguous id ranges, ``_layer_start[r]`` the first id of
    S(r), so ``_layer_start[-1]`` is the size, and ``dist_of`` reads a
    distance off these bounds. ``complete_group`` holds when the size is the
    group order. Adjacency covers exactly the edges of the induced subgraph
    on the ball. ``_adj`` holds ``_k`` slots per id for the first ``_wired``
    ids; the rows of the outermost sphere of an unexhausted ball are
    appended on first use (module docstring).

    A table changes after ``explore`` in two lazy steps, each run at most
    once: the code list is built on the first decode, and the outer rows
    are wired on first use. Neither alters a recorded fact. Building the
    code list reads ``_index`` only, so two threads racing to build it
    each get the same list. Wiring is not thread-safe: it appends to
    ``_adj`` in batches, so two threads wiring at once can interleave rows,
    and an append while another thread iterates ``rows_down`` raises
    BufferError. A table shared between threads should be wired first, by
    ``neighbors`` on its last id.

    Nothing searches a finished table: distances between its elements are
    read by left invariance (``distance_rows``), and spheres around any
    element are left translates of its layers (``translates``).
    """

    def __init__(self, oracle, reached, codec, index, layer_start, wired, adj):
        self.oracle = oracle
        self.reached = reached
        self._k = len(codec.steps)
        self._wired = wired
        self._adj = adj
        self._codec = codec
        self._index = index
        self._codes = None
        self._layer_start = layer_start
        self._key_index = None

    def __len__(self):
        return self._layer_start[-1]

    @property
    def size(self) -> int:
        return self._layer_start[-1]

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
        r = min(r, self.reached)
        if r < 0:
            return 0
        return self._layer_start[r + 1]

    def layer_ids(self, r: int) -> range:
        if r < 0 or r > self.reached:
            return range(0)
        return range(self._layer_start[r], self._layer_start[r + 1])

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
        """Append the rows of the ids from ``_wired`` on, -1 for a step that
        leaves the ball. Runs once, on first use by ``neighbors`` or
        ``rows_down``: the complement sweep on a family that is not
        bipartite, and ``dump_csv``."""
        steps, get = self._codec.steps, self._index.get
        outer = islice(self._index, self._wired, None)
        while batch := list(islice(outer, _BATCH)):
            self._adj.extend(map(get, _neighbor_codes(steps, batch), repeat(-1)))
        self._wired = self.size

    def id_of(self, g: Element) -> Optional[int]:
        code = self._codec.encode(g)
        return None if code is None else self._index.get(code)

    def key_of(self, vid: int) -> str:
        return self.oracle.key_str(self.element(vid))

    def id_of_key(self, key: str) -> Optional[int]:
        """Resolve a canonical key string; builds a full key index on first use."""
        if self._key_index is None:
            self._key_index = {self.key_of(i): i for i in range(self.size)}
        return self._key_index.get(key)

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

    def dump_csv(self, path) -> None:
        """Debug dump: one row per vertex (key, distance, neighbor count)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("key,distance,neighbors\n")
            for vid in range(self.size):
                fh.write(f"{self.key_of(vid)},{self.dist_of(vid)},{len(self.neighbors(vid))}\n")


# Frontier vertices expanded per batch: the batch's neighbor codes are held
# in one list, so this bounds the memory a batch takes besides the ball.
_BATCH = 1024


def _neighbor_codes(steps: tuple, batch: list) -> list:
    """Code of u * s for every u in the batch and every step s, s innermost."""
    if len(batch) < 16:  # thin spheres: cheaper than setting up a map per step
        return [step(u) for u in batch for step in steps]
    k = len(steps)
    codes = [0] * (k * len(batch))
    for i, step in enumerate(steps):
        codes[i::k] = map(step, batch)
    return codes


def _codec(oracle: GroupOracle, radius: int, budget: int) -> Codec:
    """Codes for a search that steps to elements at distance <= ``radius``.

    A search expands sphere r only while the ball of radius r fits in the
    budget, so it never steps beyond ``oracle.radius_bound(budget) + 1``;
    a smaller code radius keeps codes short when the requested radius is far
    out of reach.
    """
    bound = oracle.radius_bound(budget)
    return oracle.codec(radius if bound is None else min(radius, bound + 1))


def _search_budget(radius: int, budget: Optional[int]) -> int:
    """The node budget of a search to ``radius``, both arguments checked."""
    if not _is_int(radius) or radius < 0:
        raise InvalidParameter(f"radius must be a nonnegative integer, got {radius!r}")
    if budget is None:
        return DEFAULT_NODE_BUDGET
    if not _is_int(budget) or budget < 1:
        raise InvalidParameter("budget must be positive")
    return budget


def _search(codec: Codec, radius: int, budget: int, index: dict,
            adj: Optional[array] = None) -> list:
    """The breadth-first loop over int codes; returns the sphere sizes.

    Builds spheres 1..radius and stops at the first empty one; ``index``
    receives every code found, in discovery order (by frontier vertex, then
    generator), so the newest sphere is always its tail. Each frontier is
    read off that tail, or is the new codes of the previous round's last
    batch when that batch found them all (a thin sphere); the outermost
    sphere is never copied out. A ball table passes an empty ``adj``: then
    ``index`` keeps every vertex and maps its code to its id, and ``adj``
    gets the neighbor ids of every vertex expanded, len(steps) per vertex
    in generator order. Without it ``index`` maps codes to None and keeps
    only spheres r - 1, r and r + 1 while r + 1 is built: the generating
    set is inversion-closed, so no neighbor of sphere r lies further in.

    Raises BudgetExceeded once more than ``budget`` vertices are found; the
    error reports the last complete radius.
    """
    steps = codec.steps
    index[codec.identity] = 0
    nodes = 1
    sizes = [1]
    older, new = (), [codec.identity]
    for r in range(radius):
        first = nodes
        if len(new) == sizes[r]:  # the last batch found all of sphere r
            frontier = new
        else:
            frontier = list(islice(reversed(index), sizes[r]))
            frontier.reverse()
        for lo in range(0, len(frontier), _BATCH):
            neighbors = _neighbor_codes(steps, frontier[lo:lo + _BATCH])
            new = []
            for v in neighbors:
                if v not in index:
                    index[v] = None
                    new.append(v)
            if nodes + len(new) > budget:
                raise BudgetExceeded(budget, nodes + len(new), r, radius)
            if adj is not None:
                index.update(zip(new, range(nodes, nodes + len(new))))
                adj.extend(map(index.__getitem__, neighbors))
            nodes += len(new)
        if nodes == first:
            break
        sizes.append(nodes - first)
        if adj is None:
            for v in older:
                del index[v]
            older = frontier
    return sizes


def explore(oracle: GroupOracle, radius: int, budget: Optional[int] = None) -> BallTable:
    """Materialize the ball of the given radius around the identity.

    Raises BudgetExceeded if the ball would hold more than ``budget`` vertices
    (default 5e6); the error reports the last fully explored radius. The
    search records the layer bounds, which give every distance; a table
    whose size is the group order is flagged ``complete_group``.
    """
    budget = _search_budget(radius, budget)
    codec = _codec(oracle, radius + 1, budget)  # the outermost sphere's neighbors too
    index: dict = {}
    adj = array("i")
    sizes = _search(codec, radius, budget, index, adj)
    layer_start = list(accumulate(sizes, initial=0))
    # the search expanded every sphere but S(radius), each vertex with all of
    # its len(steps) neighbors in the ball
    reached = len(sizes) - 1
    wired = layer_start[-2] if reached == radius else layer_start[-1]
    return BallTable(oracle, reached, codec, index, layer_start, wired, adj)


class SphereSizeSeries:
    """Layer counts from a lean exploration that keeps no geometry.

    ``sizes[r]`` is |S(r)| for every populated layer; a finite group exhausted
    before the requested radius simply stops the list, and ``sphere`` reports
    zero beyond it (the requested radius may be astronomically large).
    ``complete_group`` holds when the sizes add up to the group order, as
    for ``BallTable``.
    """

    __slots__ = ("radius", "sizes", "complete_group", "nodes", "_balls")

    def __init__(self, radius: int, sizes: list[int], complete_group: bool, nodes: int):
        self.radius = radius
        self.sizes = sizes
        self.complete_group = complete_group
        self.nodes = nodes
        self._balls = list(accumulate(sizes))

    def sphere(self, r: int) -> int:
        return self.sizes[r] if 0 <= r < len(self.sizes) else 0

    def ball(self, r: int) -> int:
        """|B(r)|, as ``BallTable.ball_size``: 0 for r < 0, and the whole
        series beyond its last layer."""
        if r < 0:
            return 0
        return self._balls[min(r, len(self._balls) - 1)]


def sphere_size_series(oracle: GroupOracle, radius: int,
                       budget: Optional[int] = None) -> SphereSizeSeries:
    """Sphere sizes up to ``radius`` without building a table.

    Keeps only the codes of three consecutive spheres, so it scales to balls
    far beyond what a full table can hold; ``nodes`` still counts every
    vertex of the ball against the budget.
    """
    budget = _search_budget(radius, budget)
    sizes = _search(_codec(oracle, radius, budget), radius, budget, {})
    nodes = sum(sizes)
    return SphereSizeSeries(radius, sizes, nodes == oracle.order, nodes)


class GeodesicAxis:
    """Vertices of a verified bi-infinite geodesic through the identity.

    ``vertex(i)`` is the length-|i| prefix of the axis word repeated forever
    (its inverse word for negative i), and every vertex is checked to sit at
    word-metric distance exactly |i| from the identity.
    """

    __slots__ = ("base_word", "extent", "_vertices")

    def __init__(self, base_word: tuple, extent: int, _vertices: tuple):
        self.base_word = base_word
        self.extent = extent
        self._vertices = _vertices

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
    return GeodesicAxis(tuple(word), extent, tuple(vertices))
