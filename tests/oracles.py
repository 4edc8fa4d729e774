"""Independent expected-value oracles for the test suite.

Nothing here touches the package's search machinery: sphere counts come from
direct enumeration or combinatorial counting, and complement components from
a union-find of its own run one radius at a time, so agreement with the
explorer and with the ends sweep is a real cross-check rather than a
tautology.
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

    Membership is read from the distances and edges from ``neighbors``, with
    no use of the id order. Components are ordered by smallest member id and
    flagged as boundary touching when they contain a vertex at distance
    exactly ``truncation``.
    """
    if truncation is None:
        truncation = table.reached
    if truncation > table.reached:
        raise TruncationTooSmall(
            f"truncation {truncation} beyond explored radius {table.reached}")
    if r < 0 or r >= truncation:
        raise InvalidParameter(f"need 0 <= r < truncation, got r={r}, truncation={truncation}")

    members = [u for u in range(table.size) if r < table.dist[u] <= truncation]
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
        (Component(tuple(ids), any(table.dist[i] == truncation for i in ids))
         for ids in groups.values()),
        key=lambda c: c.ids[0])
    return ComponentDecomposition(r, truncation, tuple(comps))


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
    return ObssWitness(n, items)


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
