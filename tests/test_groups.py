"""Group oracle algebra: axioms, canonical forms, generating sets."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endslab.errors import InvalidParameter
from endslab.explore import explore, sphere_size_series
from endslab.groups import GroupSpec, make_group, parse_group_spec

from oracles import lamplighter_triple

ALL_SPECS = [
    {"family": "trivial"},
    {"family": "cyclic_finite", "m": 5},
    {"family": "cyclic_finite", "m": 2},
    {"family": "z"},
    {"family": "z_pow", "k": 1},
    {"family": "z_pow", "k": 3},
    {"family": "free", "k": 1},
    {"family": "free", "k": 2},
    {"family": "dihedral_inf"},
    {"family": "z_cross_cyclic", "m": 3},
    {"family": "z_cross_cyclic", "m": 2},
    {"family": "lamplighter", "m": 2},
    {"family": "lamplighter", "m": 3},
    {"family": "product", "left": {"family": "z"}, "right": {"family": "cyclic_finite", "m": 3}},
    {"family": "product",
     "left": {"family": "lamplighter", "m": 2},
     "right": {"family": "free", "k": 2}},
]


def random_element(oracle, rng, max_letters=8):
    """Product of up to ``max_letters`` random generators."""
    g = oracle.identity()
    if not oracle.generators:
        return g
    for _ in range(rng.randrange(max_letters + 1)):
        g = oracle.multiply(g, rng.choice(oracle.generators))
    return g


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: GroupSpec.from_dict(s).label())
def test_group_axioms_random_triples(spec):
    oracle = make_group(spec)
    rng = random.Random(20240801)
    e = oracle.identity()
    for _ in range(10_000):
        g = random_element(oracle, rng)
        h = random_element(oracle, rng)
        w = random_element(oracle, rng)
        assert oracle.multiply(oracle.multiply(g, h), w) == oracle.multiply(g, oracle.multiply(h, w))
    for _ in range(500):
        g = random_element(oracle, rng)
        assert oracle.multiply(g, e) == g
        assert oracle.multiply(e, g) == g
        assert oracle.multiply(g, oracle.invert(g)) == e
        assert oracle.multiply(oracle.invert(g), g) == e


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: GroupSpec.from_dict(s).label())
def test_canonical_keys_injective(spec):
    oracle = make_group(spec)
    rng = random.Random(7)
    seen = {}
    for _ in range(2000):
        g = random_element(oracle, rng, max_letters=10)
        key = oracle.key_str(g)
        assert isinstance(key, str) and key.isascii()
        if key in seen:
            assert seen[key] == g, "same key for distinct canonical elements"
        seen[key] = g
        # multiplying by identity must not change the canonical form
        assert oracle.multiply(g, oracle.identity()) == g


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: GroupSpec.from_dict(s).label())
def test_generators_inversion_closed(spec):
    oracle = make_group(spec)
    gens = set(oracle.generators)
    e = oracle.identity()
    assert e not in gens
    for g in gens:
        assert oracle.invert(g) in gens


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: GroupSpec.from_dict(s).label())
def test_codec_contract(spec):
    # steps follow multiply on B(radius - 1); encode is injective and decode inverts it
    oracle = make_group(spec)
    radius = 9
    codec = oracle.codec(radius)
    rng = random.Random(5)
    assert codec.encode(oracle.identity()) == codec.identity
    assert len(codec.steps) == len(oracle.generators)
    seen = {}
    for _ in range(1000):
        g = random_element(oracle, rng, max_letters=radius - 1)
        code = codec.encode(g)
        assert 0 <= code < codec.span
        assert codec.decode(code) == g
        assert seen.setdefault(code, g) == g
        for step, s in zip(codec.steps, oracle.generators):
            assert step(code) == codec.encode(oracle.multiply(g, s))


# balls of quadratic growth or more: Z^k for k >= 2 and products of two
# infinite factors take a square-root bound
PLANE_SPECS = [
    {"family": "z_pow", "k": 2},
    {"family": "product", "left": {"family": "z"}, "right": {"family": "z"}},
    {"family": "product", "left": {"family": "dihedral_inf"},
     "right": {"family": "z_cross_cyclic", "m": 2}},
    {"family": "product", "left": {"family": "z"}, "right": {"family": "free", "k": 2}},
]


@pytest.mark.parametrize("spec", ALL_SPECS + PLANE_SPECS,
                         ids=lambda s: GroupSpec.from_dict(s).label())
def test_radius_bound_holds(spec):
    # a ball within the budget never has a radius above the bound
    oracle = make_group(spec)
    # the balls of free and lamplighter factors outgrow a quick test past 7
    radius = 7 if "free" in str(spec) or "lamplighter" in str(spec) else 12
    series = sphere_size_series(oracle, radius)
    for budget in (1, 2, 3, 5, 10, 30, 48, 49, 100, 1000, 10_000):
        bound = oracle.radius_bound(budget)
        assert (bound is None) == (oracle.order is not None)
        for r in range(radius + 1):
            if bound is not None and series.ball(r) <= budget:
                assert r <= bound, (budget, r, bound)


def test_codec_window_edges():
    assert make_group({"family": "z"}).codec(3).encode(4) is None
    assert make_group({"family": "free", "k": 2}).codec(3).encode((1, 1, 1, 1)) is None
    free1 = make_group({"family": "free", "k": 1}).codec(3)
    assert free1.encode((1, 1, 1, 1)) is None and free1.encode((-1, -1, -1, -1)) is None
    assert free1.decode(free1.encode((-1, -1, -1))) == (-1, -1, -1)
    assert make_group({"family": "dihedral_inf"}).codec(3).encode((-4, 1)) is None
    assert make_group({"family": "z_cross_cyclic", "m": 3}).codec(3).encode((4, 0)) is None
    lamp = make_group({"family": "lamplighter", "m": 3}).codec(3)
    assert lamp.encode((4, 0)) is None               # cursor beyond the window
    assert lamp.encode((0, 3 ** 7)) is None          # lamp at -4, digit 7, beyond the window
    assert lamp.encode((0, 3 ** 6 + 2 * 3 ** 8)) is None   # lamps at 3 and 4
    assert lamp.encode((0, 3 ** 7 - 1)) is not None  # every lamp of -3..3 at 2
    g = (0, 2 * 3 ** 5 + 3 ** 4)                     # 2 at position -3, 1 at position 2
    assert lamp.decode(lamp.encode(g)) == g
    prod = make_group({"family": "product", "left": {"family": "z"},
                       "right": {"family": "lamplighter", "m": 2}}).codec(3)
    assert prod.encode((4, (0, 0))) is None
    assert prod.encode((0, (0, 2 ** 10))) is None    # lamp at 5


def test_lamplighter_codes_track_lamps_not_radius():
    # a search far short of a huge requested radius keeps small codes
    codec = make_group({"family": "lamplighter", "m": 2}).codec(10**6)
    assert codec.encode((3, 0b1001)) < 2**64  # lamps at -2 (digit 3) and 0


def test_default_generator_counts():
    assert len(make_group({"family": "z_pow", "k": 2}).generators) == 4
    d = make_group({"family": "dihedral_inf"})
    assert len(d.generators) == 2
    for g in d.generators:
        assert d.invert(g) == g  # both involutions
    lamp = make_group({"family": "lamplighter", "m": 2})
    assert len(lamp.generators) == 3  # toggle is self-inverse mod 2
    assert len(make_group({"family": "lamplighter", "m": 3}).generators) == 4
    assert len(make_group({"family": "free", "k": 2}).generators) == 4


def test_lamplighter_wreath_rule():
    lamp = make_group({"family": "lamplighter", "m": 2})
    t = (1, 0)
    a = (0, 1)
    g = lamp.multiply(lamp.identity(), t)
    g = lamp.multiply(g, a)
    # one move right, then toggle: lamp lit at position 1 (digit 2), cursor at 1
    assert g == (1, 0b100)
    inv = lamp.invert(g)
    assert lamp.multiply(g, inv) == lamp.identity()
    assert lamp.multiply(inv, g) == lamp.identity()
    # lamp of the inverse sits at position 0 (digit 0) with cursor -1
    assert inv == (-1, 1)


def test_lamplighter_mod3_values():
    lamp = make_group({"family": "lamplighter", "m": 3})
    a = (0, 1)
    twice = lamp.multiply(a, a)
    assert twice == (0, 2)
    assert lamp.multiply(twice, a) == lamp.identity()


@pytest.mark.parametrize("m", [2, 3])
def test_lamplighter_keys_match_triples(m):
    # every key of B(7) writes the (cursor, base, mask) form of its lamps
    table = explore(make_group({"family": "lamplighter", "m": m}), 7)
    for vid in range(table.size):
        c, base, mask = lamplighter_triple(table.element(vid), m)
        assert table.key_of(vid) == f"{c};{base};{mask:x}"


@pytest.mark.parametrize("m", [2, 3])
def test_lamplighter_group_axioms(m):
    lamp = make_group({"family": "lamplighter", "m": m})
    e = lamp.identity()
    elements = st.tuples(st.integers(-12, 12), st.integers(0, m ** 30))  # (cursor, lamps)

    @settings(max_examples=150, deadline=None)
    @given(elements, elements, elements)
    def check(g, h, k):
        assert lamp.multiply(lamp.multiply(g, h), k) == lamp.multiply(g, lamp.multiply(h, k))
        assert lamp.multiply(g, e) == g == lamp.multiply(e, g)
        g_inv = lamp.invert(g)
        assert lamp.multiply(g, g_inv) == e == lamp.multiply(g_inv, g)

    check()


def test_free_reduction():
    free = make_group({"family": "free", "k": 2})
    x1x2 = (1, 2)
    x2inv_x1 = (-2, 1)
    assert free.multiply(x1x2, x2inv_x1) == (1, 1)
    w = (1, 2, -1)
    assert free.multiply(w, free.invert(w)) == ()


def test_dihedral_normal_form():
    d = make_group({"family": "dihedral_inf"})
    s, t = d.generators
    st = d.multiply(s, t)
    assert st == (1, 0)
    g = d.identity()
    for _ in range(3):
        g = d.multiply(d.multiply(g, s), t)
    g = d.multiply(g, s)  # (st)^3 s
    assert g == (3, 1)
    assert d.invert(g) == g  # odd-length alternating words are involutions
    assert d.multiply(g, g) == d.identity()


def test_z_pow_arithmetic():
    z2 = make_group({"family": "z_pow", "k": 2})
    assert z2.multiply((1, 2), (3, -1)) == (4, 1)
    assert z2.invert((3, -1)) == (-3, 1)


def test_spec_json_round_trip():
    for spec in ALL_SPECS:
        parsed = GroupSpec.from_dict(spec)
        again = parse_group_spec(parsed.to_dict())
        assert again == parsed
    inline = parse_group_spec('{"family":"z_pow","k":2}')
    assert inline.family == "z_pow" and inline.k == 2


@pytest.mark.parametrize("bad", [
    {"family": "nope"},
    {"family": "z_pow"},
    {"family": "z_pow", "k": 0},
    {"family": "free", "k": -1},
    {"family": "cyclic_finite", "m": 1},
    {"family": "lamplighter", "m": 1},
    {"family": "product", "left": {"family": "z"}},
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(InvalidParameter):
        parse_group_spec(bad)


@pytest.mark.parametrize("bad,key", [
    ({"family": "z", "k": 5, "bogus": 1}, "'bogus'"),
    ({"family": "z", "k": 5}, "'k'"),
    ({"family": "z_pow", "k": 2, "m": 3}, "'m'"),
    ({"family": "lamplighter", "m": 2, "k": 1}, "'k'"),
    ({"family": "product", "left": {"family": "z"}, "right": {"family": "z"}, "m": 2}, "'m'"),
    ({"family": "product", "left": {"family": "z", "extra": 0}, "right": {"family": "z"}},
     "'extra'"),
])
def test_foreign_spec_keys_rejected(bad, key):
    with pytest.raises(InvalidParameter, match=key):
        parse_group_spec(bad)
    with pytest.raises(InvalidParameter):
        GroupSpec("z", k=5)


def test_valid_spec_bytes_unchanged():
    for spec in ALL_SPECS:
        assert json.dumps(parse_group_spec(spec).to_dict()) == json.dumps(spec)


NESTED_SPEC = {"family": "product",
               "left": {"family": "product", "left": {"family": "z_pow", "k": 2},
                        "right": {"family": "lamplighter", "m": 3}},
               "right": {"family": "product", "left": {"family": "dihedral_inf"},
                         "right": {"family": "trivial"}}}

SPEC_LABELS = [
    "trivial", "cyclic_finite(5)", "cyclic_finite(2)", "z", "z_pow(1)", "z_pow(3)",
    "free(1)", "free(2)", "dihedral_inf", "z_cross_cyclic(3)", "z_cross_cyclic(2)",
    "lamplighter(2)", "lamplighter(3)", "product(z, cyclic_finite(3))",
    "product(lamplighter(2), free(2))",
    "product(product(z_pow(2), lamplighter(3)), product(dihedral_inf, trivial))",
]


@pytest.mark.parametrize("spec,label", zip(ALL_SPECS + [NESTED_SPEC], SPEC_LABELS),
                         ids=SPEC_LABELS)
def test_spec_label_and_dict_pinned(spec, label):
    # label and to_dict come from the family's parameter list in FAMILIES
    parsed = parse_group_spec(spec)
    assert parsed.label() == label
    assert make_group(spec).label() == label
    assert json.dumps(parsed.to_dict()) == json.dumps(spec)


def test_product_depth_limit():
    deep = {"family": "z"}
    for _ in range(3):
        deep = {"family": "product", "left": deep, "right": {"family": "z"}}
    parse_group_spec(deep)  # depth 3 is fine
    with pytest.raises(InvalidParameter):
        parse_group_spec({"family": "product", "left": deep, "right": {"family": "z"}})


def test_product_keys_distinguish_nesting():
    left = make_group({"family": "product",
                       "left": {"family": "product",
                                "left": {"family": "z"}, "right": {"family": "z"}},
                       "right": {"family": "z"}})
    right = make_group({"family": "product",
                        "left": {"family": "z"},
                        "right": {"family": "product",
                                  "left": {"family": "z"}, "right": {"family": "z"}}})
    assert left.key_str(((1, 2), 3)) != right.key_str((1, (2, 3)))
