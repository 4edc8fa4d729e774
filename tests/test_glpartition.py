"""Separation-certified partitions: worked examples, property suite, spheres."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endslab.errors import InvalidParameter, TruncationTooSmall
from endslab.explore import explore
from endslab.glpartition import (TRIANGLE_TOL, FiniteMetricSpace, GlPartition,
                                 build_gl_partition, sphere_as_metric_space,
                                 verify_gl_partition)
from endslab.groups import make_group

from oracles import (clustered_line_space, clustered_plane_space, near_equality_space,
                     reference_diameter, reference_gl_partition, reference_metric_violation,
                     reference_set_distance, reference_sphere_space,
                     reference_triangle_violation)


def test_worked_example_two_blocks():
    space = FiniteMetricSpace.from_line([0, 1, 20000])
    part = build_gl_partition(space, 3)
    assert part.blocks == (("0", "1"), ("20000",))
    assert part.iterations == 1
    assert part.D == 1
    assert not part.trivial
    assert part.separation == 19999
    assert verify_gl_partition(space, part, 3).passed


def test_worked_example_collapses():
    part = build_gl_partition(FiniteMetricSpace.from_line([0, 1, 2]), 3)
    assert part.trivial
    assert part.iterations == 1
    assert part.blocks == (("0", "1", "2"),)


def test_single_point():
    part = build_gl_partition(FiniteMetricSpace(["p"], [[0]]), 3)
    assert part.trivial
    assert part.iterations == 0
    assert part.blocks == (("p",),)


def test_factor_validation():
    space = FiniteMetricSpace.from_line([0, 100])
    for bad in (2, 0, -3, 3.0, True):
        with pytest.raises(InvalidParameter):
            build_gl_partition(space, bad)


def test_metric_validation():
    with pytest.raises(InvalidParameter):
        FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])          # asymmetric
    with pytest.raises(InvalidParameter):
        FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])          # zero off-diagonal
    with pytest.raises(InvalidParameter) as exc:
        FiniteMetricSpace(["a", "b", "c"],
                          [[0, 1, 5], [1, 0, 1], [5, 1, 0]])     # triangle fails
    assert str(exc.value) == "triangle inequality fails at (a, c, b)"


def _random_space(rng):
    kind = rng.randrange(3)
    if kind == 0:
        clusters = rng.randint(1, 4)
        return clustered_plane_space(rng, [rng.randint(1, 12) for _ in range(clusters)],
                                     [rng.randint(2, 6) for _ in range(clusters)],
                                     spacing=rng.choice((30, 300, 3000)))
    if kind == 1:
        return clustered_line_space(rng)
    return near_equality_space(rng)


def _fields(part):
    return repr((part.blocks, part.D, part.iterations, part.trivial, part.separation,
                 part.diameter_history))


def test_row_kernels_match_reference_loops():
    rng = random.Random(71113)
    near_misses = 0
    for _ in range(240):
        space = _random_space(rng)
        d = space.dist
        near_misses += any(d[i][j] > d[i][k] + d[j][k]
                           for i in range(space.n) for j in range(space.n)
                           for k in range(space.n))
        a = rng.choice((3, 4, 5))
        assert _fields(build_gl_partition(space, a)) == repr(reference_gl_partition(space, a))
        ids_a = rng.sample(range(space.n), rng.randint(1, space.n))
        ids_b = rng.sample(range(space.n), rng.randint(1, space.n))
        assert repr(space.diameter(ids_a)) == repr(reference_diameter(d, ids_a))
        assert repr(space.diameter()) == repr(reference_diameter(d, range(space.n)))
        assert repr(space.set_distance(ids_a, ids_b)) == repr(
            reference_set_distance(d, ids_a, ids_b))
    assert near_misses > 20  # distances within the tolerance of equality occur


def test_triangle_message_matches_reference_triple():
    rng = random.Random(3571)
    failures = 0
    for _ in range(240):
        space = _random_space(rng)
        n = space.n
        if n < 3:
            continue
        dist = [list(row) for row in space.dist]
        for _ in range(rng.randint(1, 2)):  # plant at a random or an adjacent pair
            i = rng.randrange(n - 1)
            j = i + 1 if rng.random() < 0.5 else rng.randrange(i + 1, n)
            extra = rng.choice([rng.randint(1, 40), rng.uniform(0, 3 * TRIANGLE_TOL),
                                rng.uniform(0.5, 2.5)])
            dist[i][j] = dist[j][i] = dist[i][j] + extra
        expected = reference_triangle_violation(dist, TRIANGLE_TOL)
        if expected is None:
            FiniteMetricSpace(space.labels, dist)
            continue
        failures += 1
        with pytest.raises(InvalidParameter) as exc:
            FiniteMetricSpace(space.labels, dist)
        triple = ", ".join(space.labels[x] for x in expected)
        assert str(exc.value) == f"triangle inequality fails at ({triple})"
    assert failures > 100


def _reach_chain(a, start, unit, count):
    """Positions from ``start`` whose k-th gap is a times the span before it:
    at the round that has grown a set from the chain's first point to its
    k-th, the next point lies exactly at the reach a * diameter."""
    positions = [start, start + unit]
    while len(positions) < count:
        positions.append(positions[-1] + a * (positions[-1] - start))
    return positions


def _sized_space(rng, a):
    """A space of 40 to 125 points: integer or half-integer L1 clusters, or
    reach chains with integer, float or mixed entries."""
    kind = rng.randrange(3)
    if kind < 2:
        sizes = [rng.randint(10, 20) for _ in range(rng.randint(3, 6))]
        while sum(sizes) < 40:
            sizes.append(rng.randint(10, 20))
        space = clustered_plane_space(rng, sizes, [max(3, s // 3) for s in sizes],
                                      spacing=rng.choice((40, 400, 4000)))
        if kind == 0:
            return space
        return FiniteMetricSpace(space.labels, [[x * 0.5 for x in row] for row in space.dist])
    positions = []
    unit = rng.choice((1, 0.5, 0.25))
    size = rng.choice((40, 100))
    while len(positions) < size:
        start = positions[-1] + rng.choice((1, 3, 4000, 10 ** 6)) if positions else 0
        positions += _reach_chain(a, start, unit, rng.randint(2, 5))
        for _ in range(rng.randint(0, 20)):
            positions.append(positions[-1] + rng.choice((1, 2, a)))
    return FiniteMetricSpace.from_line(positions, labels=[f"p{i}" for i in range(len(positions))])


def test_builder_matches_reference_at_size():
    # a set joins a point exactly at its reach a * d_prev, as the reference's
    # "<= reach" does: a cut before equal entries would drop it
    rng = random.Random(2718)
    at_reach = floats = 0
    for _ in range(12):
        a = rng.choice((3, 4, 7))
        space = _sized_space(rng, a)
        assert 40 <= space.n <= 130
        expected = reference_gl_partition(space, a)
        assert _fields(build_gl_partition(space, a)) == repr(expected)
        reaches = {a * h for h in expected[-1]}
        at_reach += any(x in reaches for row in space.dist for x in row)
        floats += any(isinstance(x, float) for row in space.dist for x in row)
    assert at_reach >= 6 and floats >= 4


@pytest.mark.parametrize("entry", [0, 0.0, 3, 2.5])
def test_single_point_diameter_is_the_diagonal_entry(entry):
    space = FiniteMetricSpace(["p", "q"], [[entry, 1], [1, 0]], validate=False)
    assert repr(space.diameter([0])) == repr(reference_diameter(space.dist, [0])) == repr(entry)
    single = FiniteMetricSpace(["p"], [[entry]], validate=False)
    assert repr(single.diameter()) == repr(entry)


BAD_ENTRIES = (True, float("nan"), float("inf"), float("-inf"), 2 ** 1100, "1", None)


def _plant_defect(rng, dist, clean):
    """One defect at a random place: a bad entry, an asymmetric pair, a zero
    or negative pair, a nonzero diagonal entry or a stretched pair that may
    break a triangle."""
    n = len(dist)
    i, j = rng.randrange(n), rng.randrange(n)
    kind = rng.choice(("entry", "asymmetric", "zero", "diagonal", "triangle"))
    if kind == "entry":
        dist[i][j] = rng.choice(BAD_ENTRIES)
    elif kind == "diagonal" or i == j:
        dist[i][i] = rng.choice((1, 0.5, -2, 1e-300))
    elif kind == "asymmetric":
        dist[i][j] = clean[i][j] + rng.choice((1, 0.25, 1e-12))
    elif kind == "zero":
        dist[i][j] = dist[j][i] = rng.choice((0, 0.0, -0.0, -3))
    else:
        dist[i][j] = dist[j][i] = clean[i][j] + rng.choice((rng.randint(1, 40), 1.5))


def test_validation_message_matches_reference_order():
    # each whole-matrix pass falls back to the scan that names the first defect
    rng = random.Random(60013)
    kinds = Counter()
    for trial in range(600):
        space = _random_space(rng)
        dist = [list(row) for row in space.dist]
        for _ in range(rng.randint(1, 3)):
            _plant_defect(rng, dist, space.dist)
        expected = reference_metric_violation(space.labels, dist)
        assert _validation_message(space.labels, dist) == expected, (trial, dist)
        kinds[expected.split(" ")[0] if expected else None] += 1
    assert min(kinds[k] for k in ("distance", "asymmetric", "non-positive", "nonzero",
                                  "triangle")) >= 25, kinds


def _shortest_path_metric(rng, n, scale):
    """A random integer metric: shortest paths over random positive edge
    weights (many triangles hold with equality), times ``scale``."""
    d = [[0 if i == j else rng.randint(1, 30) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [[x * scale for x in row] for row in d]


def _expected_message(labels, dist, tol):
    triple = reference_triangle_violation(dist, tol)
    if triple is None:
        return None
    return "triangle inequality fails at ({})".format(", ".join(labels[x] for x in triple))


def _validation_message(labels, dist):
    try:
        FiniteMetricSpace(labels, dist)
    except InvalidParameter as exc:
        return str(exc)
    return None


def test_integer_triangle_check_matches_reference_triple():
    rng = random.Random(40961)
    outcomes = []
    for trial in range(300):
        n = rng.choice((1, 2, 3, rng.randint(3, 14)))
        # entries stay below 2**1007, inside float range, so every one is finite
        scale = rng.choice((1, 7, 2 ** 53, 2 ** 1000))
        dist = _shortest_path_metric(rng, n, scale)
        if n >= 3:
            adjacent = rng.randrange(n - 1)
            pairs = [(0, 1), (n - 2, n - 1), (adjacent, adjacent + 1),
                     tuple(sorted(rng.sample(range(n), 2)))]
            for i, j in rng.sample(pairs, rng.randint(0, 2)):
                # by one unit a float would round away at the larger scales
                change = rng.choice((1, -1, scale, rng.randint(1, 40) * scale))
                dist[i][j] = dist[j][i] = max(dist[i][j] + change, 1)
        labels = [f"p{x}" for x in range(n)]
        # ints compare exactly: the reference needs no tolerance
        expected = _expected_message(labels, dist, 0)
        assert _validation_message(labels, dist) == expected, (trial, dist)
        outcomes.append(expected is None)
    assert outcomes.count(False) > 30 and outcomes.count(True) > 100


def test_one_float_entry_takes_the_row_scan_to_the_same_triple(monkeypatch):
    from endslab import glpartition

    def unused(d):
        raise AssertionError("the packed check must not see a float")

    rng = random.Random(65537)
    failures = 0
    for _ in range(120):
        n = rng.randint(3, 10)
        dist = _shortest_path_metric(rng, n, 1)
        i, j = sorted(rng.sample(range(n), 2))
        dist[i][j] = dist[j][i] = max(dist[i][j] + rng.choice((0, 1, 5, -1)), 1)
        labels = [f"p{x}" for x in range(n)]
        expected = _validation_message(labels, dist)
        assert expected == _expected_message(labels, dist, 0)
        a, b = rng.randrange(n), rng.randrange(n)
        mixed = [list(row) for row in dist]
        mixed[a][b] = float(mixed[a][b])
        with monkeypatch.context() as m:
            m.setattr(glpartition, "_first_failing_pair_packed", unused)
            assert _validation_message(labels, mixed) == expected
        failures += expected is not None
    assert failures > 30


def test_valid_integer_space_skips_the_row_scan(monkeypatch):
    from endslab import glpartition

    calls = []
    exceeds = glpartition._exceeds
    monkeypatch.setattr(glpartition, "_exceeds",
                        lambda dij, s: calls.append(1) or exceeds(dij, s))
    rng = random.Random(193)
    clustered_plane_space(rng, [20, 12, 6], [6, 4, 3])  # validated when built
    FiniteMetricSpace([str(i) for i in range(12)], _shortest_path_metric(rng, 12, 2 ** 70))
    assert calls == []
    # the counter sees the row scan that a float matrix takes
    FiniteMetricSpace.from_line([0.0, 1.5, 4.0])
    assert calls


def test_diameter_and_set_distance_read_the_matrix_as_given():
    rng = random.Random(8191)
    for _ in range(100):
        n = rng.randint(1, 9)
        dist = [[rng.randint(0, 50) for _ in range(n)] for _ in range(n)]
        space = FiniteMetricSpace([str(i) for i in range(n)], dist, validate=False)
        ids = rng.sample(range(n), rng.randint(1, n))
        rest = rng.sample(range(n), rng.randint(1, n))
        assert space.diameter(ids) == reference_diameter(dist, ids)
        assert space.diameter() == reference_diameter(dist, range(n))
        assert space.set_distance(ids, rest) == reference_set_distance(dist, ids, rest)


def test_verifier_rejects_hand_made_singletons():
    space = FiniteMetricSpace.from_line([0, 1, 20000])
    bad = GlPartition((("0",), ("1",), ("20000",)), 3, 1, 0, None, (1,))
    report = verify_gl_partition(space, bad, 3)
    assert not report.passed
    assert not report.separation_ok
    assert report.blocks_disjoint and report.covers_space
    assert any(f["condition"] == "separation" for f in report.failures)


def test_verifier_rejects_overlap_and_gap():
    space = FiniteMetricSpace.from_line([0, 1, 20000])
    overlapping = GlPartition((("0", "1"), ("1", "20000")), 3, 1, 0, None, (1,))
    report = verify_gl_partition(space, overlapping, 3)
    assert not report.blocks_disjoint and not report.passed
    gappy = GlPartition((("0", "1"),), 3, 1, 0, None, (1,))
    report = verify_gl_partition(space, gappy, 3)
    assert not report.covers_space and not report.passed


def test_verifier_flags_trivial_output():
    space = FiniteMetricSpace.from_line([0, 1, 2])
    part = build_gl_partition(space, 3)
    report = verify_gl_partition(space, part, 3)
    assert not report.passed and not report.proper


def test_property_suite_seeded():
    rng = random.Random(52024)
    nontrivial = 0
    for _ in range(300):
        space = clustered_line_space(rng)
        a = rng.choice((3, 4, 5))
        part = build_gl_partition(space, a)
        assert part.iterations <= space.n + 1
        if part.trivial:
            continue
        nontrivial += 1
        report = verify_gl_partition(space, part, a)
        assert report.passed, (space.to_dict(), part.to_dict(), report.to_dict())
        assert part.separation > a * part.D
    assert nontrivial > 50  # the generator must exercise the separated regime


def test_guaranteed_nontrivial_above_threshold():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 3)
        positions = [0]
        while len(positions) < n:
            positions.append(positions[-1] + rng.randint(16808, 10 ** 6))
        part = build_gl_partition(FiniteMetricSpace.from_line(positions), 3)
        assert not part.trivial  # diameter beyond (2a+1)^(n+2) forces separation


@settings(max_examples=150, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 7),
                min_size=1, max_size=10, unique=True),
       st.sampled_from((3, 4, 5)))
def test_property_verify_builds(positions, a):
    space = FiniteMetricSpace.from_line(sorted(positions))
    part = build_gl_partition(space, a)
    assert part.iterations <= space.n + 1
    if not part.trivial:
        assert verify_gl_partition(space, part, a).passed


@settings(max_examples=80, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                min_size=2, max_size=8, unique=True),
       st.permutations(range(8)))
def test_relabeling_equivariance(positions, perm):
    positions = sorted(positions)
    n = len(positions)
    order = [p for p in perm if p < n]
    space = FiniteMetricSpace.from_line(positions, labels=[f"q{i}" for i in range(n)])
    shuffled = FiniteMetricSpace(
        [space.labels[i] for i in order],
        [[space.dist[i][j] for j in order] for i in order])
    blocks_a = {frozenset(b) for b in build_gl_partition(space, 3).blocks}
    blocks_b = {frozenset(b) for b in build_gl_partition(shuffled, 3).blocks}
    assert blocks_a == blocks_b


def test_sphere_space_on_line(z_table_30):
    space = sphere_as_metric_space(z_table_30, 0, 5)
    assert space.n == 2
    assert space.dist[0][1] == 10


def test_sphere_space_plane(z2_table_22):
    space = sphere_as_metric_space(z2_table_22, (0, 0), 2)
    assert space.n == 8
    assert space.diameter() == 4


def test_sphere_space_tree(f2_oracle):
    table = explore(f2_oracle, 7)
    space = sphere_as_metric_space(table, (), 2)
    assert space.n == 12
    assert space.diameter() == 4  # through the tree


def test_sphere_space_window_guard(z2_table_22):
    with pytest.raises(TruncationTooSmall):
        sphere_as_metric_space(z2_table_22, (0, 0), 8)


@pytest.mark.parametrize("bad", [True, 2.0, 0, -1, "2"])
def test_sphere_space_radius_must_be_a_positive_int(z_table_30, bad):
    with pytest.raises(InvalidParameter, match="sphere radius must be a positive integer"):
        sphere_as_metric_space(z_table_30, 0, bad)


# (spec, table radius): every family, with a finite one whose table is complete
SPHERE_FAMILIES = [
    ({"family": "z"}, 12),
    ({"family": "z_pow", "k": 2}, 10),
    ({"family": "free", "k": 2}, 7),
    ({"family": "dihedral_inf"}, 12),
    ({"family": "z_cross_cyclic", "m": 3}, 10),
    ({"family": "lamplighter", "m": 2}, 9),
    ({"family": "product", "left": {"family": "z"}, "right": {"family": "free", "k": 2}}, 7),
    ({"family": "cyclic_finite", "m": 12}, 12),
]


@pytest.mark.parametrize("spec,radius", SPHERE_FAMILIES,
                         ids=[make_group(s).label() for s, _ in SPHERE_FAMILIES])
def test_sphere_space_matches_reference_search(spec, radius):
    # left translation and table lookups against one search per point
    oracle = make_group(spec)
    table = explore(oracle, radius)
    rng = random.Random(radius)
    for r in (1, 2, 3):
        reach = table.reached if table.complete_group else radius - 3 * r
        if reach < 1:
            continue
        ball = table.ball_size(reach)
        for vid in rng.sample(range(1, ball), min(3, ball - 1)) + [ball - 1]:
            center = table.element(vid)
            space = sphere_as_metric_space(table, center, r)
            labels, rows = reference_sphere_space(table, center, r)
            assert space.labels == labels, (vid, r)
            assert repr(space.dist) == repr(rows), (vid, r)


def test_partition_json_round_trip():
    space = FiniteMetricSpace.from_line([0, 1, 20000])
    part = build_gl_partition(space, 3)
    assert set(part.to_dict()) == {"a", "blocks", "D", "k", "trivial"}
    space_again = FiniteMetricSpace.from_dict(space.to_dict())
    assert space_again.labels == space.labels


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), True, "1", None])
def test_non_finite_or_non_numeric_distances_rejected(bad):
    with pytest.raises(InvalidParameter, match="between q and p"):
        FiniteMetricSpace(["p", "q"], [[0, 1], [bad, 0]])
    with pytest.raises(InvalidParameter, match="between p and p"):
        FiniteMetricSpace(["p", "q"], [[bad, 1], [1, 0]])


def test_reports_refuse_non_finite_numbers():
    from endslab import manifest

    with pytest.raises(ValueError):
        manifest.render_json_report("x", None, {}, None, 0, {"separation": float("inf")})
    with pytest.raises(ValueError):
        manifest.render_csv_table("x", None, {"a": float("nan")}, None, 0, ["h"], [[1]])
