"""Independent expected-value oracles for the test suite.

Nothing here touches the package's search machinery: sphere counts come from
direct enumeration or combinatorial counting, complement components from a
union-find of its own run one radius at a time, table distances from a
breadth-first search per point over the stored adjacency, ``obss``
neighborhoods and their components from breadth-first searches over it, and
metric-space answers from loops that read one matrix entry at a time, so
agreement with the explorer, the left-invariant distances, the ends sweep,
the witness check and the row-at-a-time metric kernels is a real
cross-check rather than a tautology.
"""

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Optional

from endslab.ends import ObssWitness, WitnessItem
from endslab.errors import InvalidParameter, TruncationTooSmall


def l1_sphere_count(k: int, r: int) -> int:
    """Lattice points of Z^k at l1 norm exactly r, by brute enumeration."""
    if r == 0:
        return 1
    return sum(1 for v in product(range(-r, r + 1), repeat=k)
               if sum(abs(x) for x in v) == r)


def free_sphere_count(k: int, r: int) -> int:
    """Freely reduced words of length exactly r, by brute enumeration."""
    if r == 0:
        return 1
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    count = 0
    for word in product(letters, repeat=r):
        if all(word[i] != -word[i + 1] for i in range(r - 1)):
            count += 1
    return count


def lamplighter2_sphere_counts(n_max: int) -> list:
    """Sphere sizes of (Z/2) wr Z with cursor shift t and toggle a.

    An element is a finite lamp set S with a final cursor k; its word length
    is |S| plus the travel of a walk from 0 to k visiting all of S. With
    hull [-l, rt] spanning S together with 0 and k, the optimal travel is
    2(l + rt) - |k|. Counting over (l, rt, k, lamp subsets) is exact; hull
    ends not witnessed by 0 or k must carry a lamp.
    """
    counts = [0] * (n_max + 1)
    counts[0] = 1
    for l in range(n_max + 1):
        for rt in range(n_max + 1):
            if 2 * (l + rt) - max(l, rt) > n_max:
                continue
            for k in range(-l, rt + 1):
                travel = 2 * (l + rt) - abs(k)
                if travel > n_max:
                    continue
                positions = l + rt + 1
                forced = 0
                if l > 0 and k != -l:
                    forced += 1
                if rt > 0 and k != rt:
                    forced += 1
                for lamps in range(forced, positions + 1):
                    n = travel + lamps
                    if n > n_max:
                        break
                    if n == 0:
                        continue
                    counts[n] += comb(positions - forced, lamps - forced)
    return counts


def lamplighter_triple(element, m: int) -> tuple:
    """(cursor, base, mask) of a lamplighter(m) element (cursor, lamps), the
    form its key writes as ``cursor;base;mask`` with mask in hex.

    Written base m, the lamps integer holds the lamp at position p >= 0 in
    digit 2p and the lamp at p < 0 in digit -2p - 1. Digit i of mask is the
    lamp at base + i, and base is the lowest lit position (0 when no lamp is
    lit). Positions are read off a digit string, one lamp at a time.
    """
    cursor, lamps = element
    digits = []
    while lamps:
        digits.append(lamps % m)
        lamps //= m
    lit = {}
    for i, value in enumerate(digits):
        if value:
            lit[i // 2 if i % 2 == 0 else -(i + 1) // 2] = value
    if not lit:
        return cursor, 0, 0
    base = min(lit)
    mask = 0
    for position in range(max(lit), base - 1, -1):
        mask = mask * m + lit.get(position, 0)
    return cursor, base, mask


def reference_ball(oracle, radius):
    """The ball table by breadth-first search over tuple elements.

    Uses only ``identity``, ``multiply`` and ``generators``. Ids follow the
    explorer's convention: discovery order, by frontier vertex and then by
    generator. Returns (elements, distances, adjacency rows, complete), where
    a row lists the in-ball neighbor ids per generator and ``complete`` says
    no neighbor of the ball lies outside it.
    """
    elements = [oracle.identity()]
    ids = {elements[0]: 0}
    dist = [0]
    frontier = [elements[0]]
    for r in range(1, radius + 1):
        sphere = []
        for g in frontier:
            for s in oracle.generators:
                h = oracle.multiply(g, s)
                if h not in ids:
                    ids[h] = len(elements)
                    elements.append(h)
                    dist.append(r)
                    sphere.append(h)
        if not sphere:
            break
        frontier = sphere
    rows = []
    complete = True
    for g in elements:
        row = []
        for s in oracle.generators:
            h = oracle.multiply(g, s)
            if h in ids:
                row.append(ids[h])
            else:
                complete = False
        rows.append(row)
    return elements, dist, rows, complete


def reference_bfs(table, sources, max_depth=None, allowed=None):
    """{id: distance} from a set of vertices over the truncated graph.

    A plain breadth-first search over ``BallTable.neighbors``; distances are
    those of the induced subgraph, which equal word-metric distances when
    every geodesic involved stays inside the ball. ``allowed``, when given,
    is the vertex set the search may enter (sources included).
    """
    seen = {s: 0 for s in sources if allowed is None or s in allowed}
    frontier = list(seen)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt = []
        for u in frontier:
            for v in table.neighbors(u):
                if v not in seen and (allowed is None or v in allowed):
                    seen[v] = depth
                    nxt.append(v)
        frontier = nxt
    return seen


def reference_sphere_space(table, center, r):
    """(labels, distance rows) of the radius-r sphere around ``center``.

    The points are the vertices a search from the center reaches at depth
    exactly r, ordered by id; each row comes from a search to depth 2r from
    its point.
    """
    reach = reference_bfs(table, [table.id_of(center)], r)
    points = sorted(v for v, d in reach.items() if d == r)
    rows = []
    for v in points:
        dmap = reference_bfs(table, [v], 2 * r)
        rows.append(tuple(dmap[w] for w in points))
    return tuple(table.key_of(v) for v in points), tuple(rows)


def reference_set_diameter(table, ids):
    """Max pairwise truncated-graph distance: a full search from every point."""
    best = 0
    for s in ids:
        dmap = reference_bfs(table, [s])
        best = max([best] + [dmap[t] for t in ids])
    return best


@dataclass(frozen=True)
class Component:
    ids: tuple
    boundary_touching: bool


@dataclass
class ComponentDecomposition:
    """Connected components of B(truncation) \\ B(r) inside one ball table."""

    r: int
    truncation: int
    components: tuple

    @property
    def touching_count(self) -> int:
        return sum(1 for c in self.components if c.boundary_touching)

    @property
    def bounded_components(self) -> list:
        return [c for c in self.components if not c.boundary_touching]

    def bounded_ids(self) -> list:
        return [i for c in self.bounded_components for i in c.ids]


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def complement_components(table, r: int,
                          truncation: Optional[int] = None) -> ComponentDecomposition:
    """Decompose B(truncation) \\ B(r) into connected components, one radius
    at a time: the reference for the package's outside-in sweep.

    Membership is read from the distances of a search from the identity and
    edges from ``neighbors``, with no use of the id order. Components are
    ordered by smallest member id and flagged as boundary touching when they
    contain a vertex at distance exactly ``truncation``.
    """
    if truncation is None:
        truncation = table.reached
    if truncation > table.reached:
        raise TruncationTooSmall(
            f"truncation {truncation} beyond explored radius {table.reached}")
    if r < 0 or r >= truncation:
        raise InvalidParameter(f"need 0 <= r < truncation, got r={r}, truncation={truncation}")

    dist = reference_bfs(table, [0])
    members = [u for u in range(table.size) if r < dist[u] <= truncation]
    inside = set(members)
    parent = {u: u for u in members}
    for u in members:
        for v in table.neighbors(u):
            if v in inside:
                parent[_find(parent, u)] = _find(parent, v)

    groups: dict = {}
    for u in members:
        groups.setdefault(_find(parent, u), []).append(u)
    comps = sorted(
        (Component(tuple(ids), any(dist[i] == truncation for i in ids))
         for ids in groups.values()),
        key=lambda c: c.ids[0])
    return ComponentDecomposition(r, truncation, tuple(comps))


def reference_obss_components(table, item):
    """(A in one component, B in one component, A and B in different ones)
    for one witness item, the way ``check_obss_witness`` reports them.

    The neighborhood {v : d(v, K) < r} comes from one search from all of K
    to depth r - 1, and the components of the neighborhood minus K from one
    search inside it per component.
    """
    found = table.ids_of_keys((*item.K, *item.A, *item.B))
    ids = lambda keys: [found[key] for key in keys]
    K, A, B = ids(item.K), ids(item.A), ids(item.B)
    region = set(reference_bfs(table, K, item.r - 1)).difference(K)
    comp_of = {}
    for start in sorted(region):
        if start not in comp_of:
            for v in reference_bfs(table, [start], allowed=region):
                comp_of[v] = start
    a_comps = {comp_of.get(v) for v in A}
    b_comps = {comp_of.get(v) for v in B}
    a_single = len(a_comps) == 1 and None not in a_comps
    b_single = len(b_comps) == 1 and None not in b_comps
    return a_single, b_single, a_single and b_single and a_comps != b_comps


def line_witness(oracle, axis, indices, n=2, r_of=None, a_of=None, b_of=None) -> ObssWitness:
    """Separating witness family along a line-like axis.

    Defaults: for each index i, K = {axis(i), axis(i+1)} with reach r = i;
    the two sides of K inside the reach-(i-1) neighborhood serve as A and B.
    """
    key = lambda i: oracle.key_str(axis.vertex(i))
    items = []
    for i in indices:
        r = r_of(i) if r_of else i
        K = (key(i), key(i + 1))
        if a_of:
            A = a_of(i)
        else:
            A = tuple(key(j) for j in range(i - r + 1, i))
        if b_of:
            B = b_of(i)
        else:
            B = tuple(key(j) for j in range(i + 2, i + r + 1))
        items.append(WitnessItem(K, r, A, B))
    return ObssWitness(n, items, None)


def clustered_line_space(rng, n_max=12, huge_gap=30000):
    """Random distinct points on a line, grouped into a few clusters.

    Gaps between clusters mix moderate and huge scales so that both trivial
    and strongly separated outcomes occur across a seeded run.
    """
    from endslab.glpartition import FiniteMetricSpace

    n = rng.randint(1, n_max)
    clusters = rng.randint(1, min(4, n))
    sizes = [1] * clusters
    for _ in range(n - clusters):
        sizes[rng.randrange(clusters)] += 1
    positions = []
    base = 0
    for ci, size in enumerate(sizes):
        if ci:
            base = positions[-1] + rng.choice(
                [rng.randint(2, 30), rng.randint(200, 2000), rng.randint(20000, huge_gap * 3)])
        spot = base
        for _ in range(size):
            positions.append(spot)
            spot += rng.randint(1, 4)
    return FiniteMetricSpace.from_line(positions, labels=[f"p{i}" for i in range(n)])


def clustered_plane_space(rng, sizes, half_widths, spacing=1000):
    """Clusters of integer points in the L1 plane, one per entry of ``sizes``.

    Each cluster is a random walk with steps of L1 length at most 3 inside a
    box of the given half width, so expansion takes several rounds to absorb
    it; cluster centers sit on a line ``spacing`` apart.
    """
    from endslab.glpartition import FiniteMetricSpace

    steps = [(dx, dy) for dx in range(-3, 4) for dy in range(-3, 4)
             if 0 < abs(dx) + abs(dy) <= 3]
    points = []
    for ci, (size, half) in enumerate(zip(sizes, half_widths)):
        if size > (2 * half + 1) ** 2:
            raise ValueError(f"{size} points do not fit in a box of half width {half}")
        x = y = 0
        walk = [(0, 0)]
        seen = {(0, 0)}
        while len(walk) < size:
            dx, dy = rng.choice(steps)
            x = max(-half, min(half, x + dx))
            y = max(-half, min(half, y + dy))
            if (x, y) not in seen:
                seen.add((x, y))
                walk.append((x, y))
        points.extend((ci * spacing + px, py) for px, py in walk)
    dist = [[abs(x1 - x2) + abs(y1 - y2) for x2, y2 in points] for x1, y1 in points]
    return FiniteMetricSpace([f"p{i}" for i in range(len(points))], dist)


def near_equality_space(rng, n_max=12, slack=3e-10):
    """Points on a line whose distances each carry a symmetric surplus below
    ``slack``, so collinear triples break the triangle inequality by less than
    the validation tolerance (1e-9) as long as slack stays under it.
    """
    from endslab.glpartition import FiniteMetricSpace

    n = rng.randint(1, n_max)
    positions = [0.0]
    while len(positions) < n:
        positions.append(positions[-1] + rng.choice([0.5, 1.25, 3.0, 700.5]))
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = abs(positions[i] - positions[j]) + rng.uniform(0, slack)
    return FiniteMetricSpace([f"q{i}" for i in range(n)], dist)


def reference_triangle_violation(dist, tol):
    """The first (i, j, k) in lexicographic order with
    d[i][j] > d[i][k] + d[j][k] + tol, or None: every ordered triple, one
    entry at a time."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][j] > dist[i][k] + dist[j][k] + tol:
                    return i, j, k
    return None


def _finite_number(x):
    """An int or float (not a bool) that is neither NaN nor infinite, and an
    int that a float can hold."""
    if type(x) is float:
        return x == x and abs(x) != float("inf")
    if type(x) is int:
        try:
            float(x)
        except OverflowError:
            return False
        return True
    return False


def reference_metric_violation(labels, dist):
    """The message validation gives for ``dist``, or None for a metric.

    Each rule runs over the whole matrix, entry by entry in row-major order:
    every entry a finite number; then at (i, i) a zero diagonal and at
    (i, j) with j > i symmetry, then positivity; then the first failing
    triangle, with tolerance 1e-9 when some entry is a float.
    """
    n = len(dist)
    for i in range(n):
        for j in range(n):
            if not _finite_number(dist[i][j]):
                return (f"distance between {labels[i]} and {labels[j]} "
                        f"is not a finite number: {dist[i][j]!r}")
    for i in range(n):
        for j in range(n):
            if j == i and dist[i][j] != 0:
                return f"nonzero diagonal at {labels[i]}"
            if j > i and dist[i][j] != dist[j][i]:
                return f"asymmetric distances between {labels[i]} and {labels[j]}"
            if j > i and dist[i][j] <= 0:
                return f"non-positive distance between {labels[i]} and {labels[j]}"
    tol = 1e-9 if any(type(x) is float for row in dist for x in row) else 0
    triple = reference_triangle_violation(dist, tol)
    if triple is None:
        return None
    return "triangle inequality fails at ({})".format(", ".join(labels[x] for x in triple))


def reference_diameter(dist, ids):
    """Largest entry over all ordered pairs of ``ids`` (0 for no ids)."""
    ids = list(ids)
    return max((dist[i][j] for i in ids for j in ids), default=0)


def reference_set_distance(dist, ids_a, ids_b):
    """Smallest entry from a point of ``ids_a`` to a point of ``ids_b``."""
    return min(dist[i][j] for i in ids_a for j in ids_b)


def reference_gl_partition(space, a):
    """The expansion-based partition, one set and one matrix entry at a time.

    Every point's candidate set is expanded on its own, reading each
    distance separately, until no set changes. Returns the builder's fields
    (blocks as label tuples, D, k, trivial, separation, diameter history).
    """
    n = space.n
    d = space.dist
    sets = [frozenset([i]) for i in range(n)]
    history = [1]
    for _ in range(n + 2):
        reach = a * history[-1]
        expanded = [frozenset(j for j in range(n) if min(d[i][j] for i in s) <= reach)
                    for s in sets]
        if expanded == sets:
            break
        sets = expanded
        history.append(max(max(reference_diameter(d, s) for s in sets), 1))
    else:
        raise AssertionError("reference expansion did not stabilize")
    blocks = list(dict.fromkeys(sets))
    trivial = len(blocks) == 1
    D = max(max(reference_diameter(d, b) for b in blocks), 1)
    separation = None
    if not trivial:
        separation = min(reference_set_distance(d, b, [j for j in range(n) if j not in b])
                         for b in blocks)
    labels = tuple(tuple(space.labels[i] for i in sorted(b)) for b in blocks)
    return labels, D, len(history) - 1, trivial, separation, tuple(history)
