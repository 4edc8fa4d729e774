"""Exact element algebra for the built-in finitely generated group families.

Every family exposes the same oracle interface: identity, multiply, invert, an
injective canonical key and packed int codes for search. Elements are plain
hashable Python values whose shape is family specific; all arithmetic lands
back in canonical form, so two equal group elements always compare and hash
equal. Word length is never stored on elements: distances come exclusively
from breadth-first exploration.

Canonical element forms:

* ``trivial``          -- the integer 0
* ``cyclic_finite(m)`` -- residue in ``range(m)``
* ``z``                -- plain integer
* ``z_pow(k)``         -- tuple of ``k`` integers
* ``free(k)``          -- freely reduced tuple of nonzero letters, letter
                          ``+i``/``-i`` meaning the i-th generator / inverse
* ``dihedral_inf``     -- pair ``(p, f)`` for the normal form ``(st)^p s^f``
* ``z_cross_cyclic(m)``-- pair ``(n, c)`` with ``c`` a residue mod m: the
                          product of ``z`` and ``cyclic_finite(m)``, keyed
                          ``n,c``
* ``lamplighter(m)``   -- triple ``(cursor, base, mask)``: the lamp map sends
                          ``base + i`` to digit i of ``mask`` written base m,
                          with the lowest digit nonzero (``(c, 0, 0)`` when no
                          lamp is lit)
* ``product``          -- pair of factor elements

Packed integer codes. Breadth-first search runs on Python ints, not on the
element values above. ``oracle.codec(radius)`` returns a ``Codec`` valid on
the ball B(radius) of elements of word length at most ``radius``:

* a window W containing B(radius), and ``encode``, injective on W, mapping
  every element of W to an int in ``range(span)``; ``encode`` returns None
  for any element outside W, and ``identity`` is the identity's code;
* ``decode``, the inverse of ``encode`` on W;
* ``steps``, one ``int -> int`` function per generator, in ``generators``
  order: ``steps[i](encode(g)) == encode(multiply(g, generators[i]))`` for
  every g in B(radius - 1). On other codes a step may return anything.

The generating sets are inversion-closed, so the Cayley graph is undirected:
every neighbor of sphere r lies in sphere r - 1, r or r + 1, and a search
building sphere r + 1 may forget every sphere older than r - 1.

``oracle.bipartite`` is True when every relator of the presentation has even
length (z, z_pow, free, dihedral_inf, trivial; lamplighter, z_cross_cyclic
and cyclic_finite for even m; a product of two such). Word-length parity is
then a homomorphism onto Z/2, so no edge joins two vertices of one sphere and
every neighbor of sphere r lies in sphere r - 1 or r + 1. It is a property
of the presentation, checked against a plain BFS in the test suite.

Codes by family (w = 2 * radius + 1, o = radius):

* ``trivial`` 0; ``cyclic_finite`` the residue; ``z`` ``g + o``
* ``z_pow(k)``       -- digits ``a_i + o`` in base w, first coordinate highest
* ``free(k)``        -- digits in base 2k + 1, letter +i as 2i - 1 and -i as
                        2i, first letter highest; a step appends a digit or
                        drops the last one
* ``dihedral_inf``   -- ``2 * (p + o) + f``
* ``z_cross_cyclic`` -- ``(n + o) * m + c``, the product code of its factors
* ``lamplighter(m)`` -- ``lamps * w + cursor + o``: written base m, digit 2i
                        of ``lamps`` is the lamp at position i >= 0 and digit
                        -2i - 1 the lamp at i < 0, so codes stay as short as
                        the lamps lit, however large the radius
* ``product``        -- ``left * right_span + right``, both factors coded
                        for the same radius

A translation step ``v -> v + d`` is ``functools.partial(operator.add, d)``,
so a product can lift it to another translation instead of a divmod.
"""

from __future__ import annotations

import json
from functools import partial
from operator import add
from typing import Any, Callable, Optional

from .errors import InvalidParameter

Element = Any

# Nested products beyond this depth blow up element size without adding
# interesting test geometry.
MAX_PRODUCT_DEPTH = 3

# Every family, with the parameters it takes besides "family".
FAMILIES = {
    "trivial": (),
    "cyclic_finite": ("m",),
    "z": (),
    "z_pow": ("k",),
    "free": ("k",),
    "dihedral_inf": (),
    "z_cross_cyclic": ("m",),
    "lamplighter": ("m",),
    "product": ("left", "right"),
}


class GroupSpec:
    """Declarative description of one group family instance; two specs are
    equal, and hash alike, when all their fields are."""

    __slots__ = ("family", "m", "k", "left", "right")

    def __init__(self, family: str, m: Optional[int] = None, k: Optional[int] = None,
                 left: Optional[GroupSpec] = None, right: Optional[GroupSpec] = None):
        self.family = family
        self.m = m
        self.k = k
        self.left = left
        self.right = right
        if not isinstance(family, str) or family not in FAMILIES:
            raise InvalidParameter(f"unknown family {family!r}")
        for name in ("m", "k", "left", "right"):
            if getattr(self, name) is not None and name not in FAMILIES[family]:
                raise InvalidParameter(f"{family} takes no parameter {name!r}")
        if family in ("cyclic_finite", "z_cross_cyclic", "lamplighter"):
            if not _is_int(m) or m < 2:
                raise InvalidParameter(f"{family} requires integer m >= 2, got {m!r}")
        elif family in ("z_pow", "free"):
            if not _is_int(k) or k < 1:
                raise InvalidParameter(f"{family} requires integer k >= 1, got {k!r}")
        elif family == "product":
            if not isinstance(left, GroupSpec) or not isinstance(right, GroupSpec):
                raise InvalidParameter("product requires left and right sub-specs")
            if self.depth() > MAX_PRODUCT_DEPTH:
                raise InvalidParameter(f"product nesting depth > {MAX_PRODUCT_DEPTH}")

    def _fields(self) -> tuple:
        return (self.family, self.m, self.k, self.left, self.right)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def depth(self) -> int:
        if self.family != "product":
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def label(self) -> str:
        values = [getattr(self, name) for name in FAMILIES[self.family]]
        labels = [v.label() if isinstance(v, GroupSpec) else str(v) for v in values]
        return f"{self.family}({', '.join(labels)})" if labels else self.family

    def to_dict(self) -> dict:
        d: dict = {"family": self.family}
        for name in FAMILIES[self.family]:
            value = getattr(self, name)
            d[name] = value.to_dict() if isinstance(value, GroupSpec) else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GroupSpec":
        if not isinstance(d, dict) or "family" not in d:
            raise InvalidParameter(f"group spec must be an object with a 'family' key, got {d!r}")
        family = d["family"]
        if isinstance(family, str) and family in FAMILIES:
            extra = [repr(key) for key in d if key != "family" and key not in FAMILIES[family]]
            if extra:
                raise InvalidParameter(f"{family} spec has unexpected keys: {', '.join(extra)}")
        if family == "product":
            return cls(
                family,
                left=cls.from_dict(d.get("left")),
                right=cls.from_dict(d.get("right")),
            )
        return cls(family, m=d.get("m"), k=d.get("k"))


def parse_group_spec(text_or_dict) -> GroupSpec:
    """Parse a spec from a JSON string or an already-decoded dict."""
    if isinstance(text_or_dict, GroupSpec):
        return text_or_dict
    if isinstance(text_or_dict, str):
        try:
            decoded = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"invalid group spec JSON: {exc}") from exc
        return GroupSpec.from_dict(decoded)
    return GroupSpec.from_dict(text_or_dict)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Codec:
    """Packed int codes for a window around the identity (module docstring)."""

    __slots__ = ("span", "identity", "steps", "encode", "decode")

    def __init__(self, span: int, identity: int, steps: tuple,
                 encode: Callable[[Element], Optional[int]],
                 decode: Callable[[int], Element]):
        self.span = span
        self.identity = identity
        self.steps = steps
        self.encode = encode
        self.decode = decode


def _shift(d: int) -> Callable[[int], int]:
    """The translation step v -> v + d."""
    return partial(add, d)


def _lift(step: Callable[[int], int], span: int, high: bool) -> Callable[[int], int]:
    """A factor's step acting on product codes ``high_code * span + low_code``."""
    if isinstance(step, partial) and step.func is add:
        return _shift(step.args[0] * span if high else step.args[0])
    if high:
        def lifted(v):
            q, r = divmod(v, span)
            return step(q) * span + r
    else:
        def lifted(v):
            r = v % span
            return v - r + step(r)
    return lifted


class _Memo(dict):
    """A dict that fills a missing key from a function of the key."""

    def __init__(self, fn: Callable):
        super().__init__()
        self._fn = fn

    def __missing__(self, key):
        value = self[key] = self._fn(key)
        return value


class GroupOracle:
    """Uniform interface over one group family.

    Oracles are immutable after construction and all operations are pure, so a
    single oracle can be shared freely between threads and cached tables.
    """

    spec: GroupSpec
    generators: tuple          # inversion closed, identity excluded
    axis_word: Optional[tuple] # generator sequence spelling a geodesic axis
    bipartite: bool            # every relator has even length (module docstring)

    #: None for infinite groups, the group order otherwise.
    order: Optional[int] = None

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def invert(self, g: Element) -> Element:
        raise NotImplementedError

    def key_str(self, g: Element) -> str:
        """Injective, deterministic ASCII form of a canonical element."""
        raise NotImplementedError

    def codec(self, radius: int) -> Codec:
        """Int codes and generator steps valid on the ball of this radius."""
        raise NotImplementedError

    def radius_bound(self, budget: int) -> Optional[int]:
        """A radius r such that no ball of radius above r has at most
        ``budget`` elements; None for a finite group.

        Every sphere of an infinite group has two elements on a bi-infinite
        geodesic through the identity, so the ball of radius r has at least
        2r + 1. Families of exponential growth override this with a bound
        logarithmic in the budget.
        """
        return None if self.order is not None else (budget - 1) // 2

    def label(self) -> str:
        return self.spec.label()

    def __repr__(self):
        return f"<GroupOracle {self.label()}>"


class _TrivialOracle(GroupOracle):
    order = 1

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.generators = ()
        self.axis_word = None
        self.bipartite = True

    def identity(self):
        return 0

    def multiply(self, g, h):
        return 0

    def invert(self, g):
        return 0

    def key_str(self, g):
        return "e"

    def codec(self, radius):
        return Codec(1, 0, (), lambda g: 0, lambda v: 0)


class _CyclicOracle(GroupOracle):
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m = spec.m
        self.order = spec.m
        self.generators = tuple(dict.fromkeys((1 % self.m, (-1) % self.m)))
        self.axis_word = None
        self.bipartite = self.m % 2 == 0

    def identity(self):
        return 0

    def multiply(self, g, h):
        return (g + h) % self.m

    def invert(self, g):
        return (-g) % self.m

    def key_str(self, g):
        return str(g)

    def codec(self, radius):
        m = self.m
        steps = tuple((lambda v, s=s: (v + s) % m) for s in self.generators)
        return Codec(m, 0, steps, lambda g: g, lambda v: v)


class _ZOracle(GroupOracle):
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.generators = (1, -1)
        self.axis_word = (1,)
        self.bipartite = True

    def identity(self):
        return 0

    def multiply(self, g, h):
        return g + h

    def invert(self, g):
        return -g

    def key_str(self, g):
        return str(g)

    def codec(self, radius):
        o = radius
        return Codec(2 * o + 1, o, (_shift(1), _shift(-1)),
                     lambda g: g + o if -o <= g <= o else None, lambda v: v - o)


class _ZPowOracle(GroupOracle):
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.k = spec.k
        gens = []
        for i in range(self.k):
            e = [0] * self.k
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        self.generators = tuple(gens)
        self.axis_word = (self.generators[0],)
        self.bipartite = True

    def identity(self):
        return (0,) * self.k

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def invert(self, g):
        return tuple(-a for a in g)

    def key_str(self, g):
        return ",".join(str(a) for a in g)

    def codec(self, radius):
        o, w, k = radius, 2 * radius + 1, self.k

        def encode(g):
            v = 0
            for a in g:
                if not -o <= a <= o:
                    return None
                v = v * w + a + o
            return v

        def decode(v):
            coords = []
            for _ in range(k):
                v, d = divmod(v, w)
                coords.append(d - o)
            return tuple(reversed(coords))

        steps = []
        for i in range(k):  # same order as self.generators
            weight = w ** (k - 1 - i)
            steps += (_shift(weight), _shift(-weight))
        return Codec(w ** k, encode(self.identity()), tuple(steps), encode, decode)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class _FreeOracle(GroupOracle):
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.k = spec.k
        gens = []
        for i in range(1, self.k + 1):
            gens.append((i,))
            gens.append((-i,))
        self.generators = tuple(gens)
        self.axis_word = ((1,),)
        self.bipartite = True

    def identity(self):
        return ()

    def multiply(self, g, h):
        w = list(g)
        for letter in h:
            if w and w[-1] == -letter:
                w.pop()
            else:
                w.append(letter)
        return tuple(w)

    def invert(self, g):
        return tuple(-a for a in reversed(g))

    def key_str(self, g):
        if not g:
            return "e"
        if self.k <= 26:
            return "".join(
                _LETTERS[a - 1] if a > 0 else _LETTERS[-a - 1].upper() for a in g
            )
        return ".".join(str(a) for a in g)

    def codec(self, radius):
        base = 2 * self.k + 1

        def digit(a):
            return 2 * a - 1 if a > 0 else -2 * a

        def encode(g):
            if len(g) > radius:
                return None
            v = 0
            for a in g:
                v = v * base + digit(a)
            return v

        def decode(v):
            word = []
            while v:
                v, d = divmod(v, base)
                word.append((d + 1) // 2 if d % 2 else -(d // 2))
            return tuple(reversed(word))

        def step(d, back):
            # drop the last letter when it is the inverse, else append
            return lambda v: v // base if v % base == back else v * base + d

        steps = tuple(step(digit(a), digit(-a)) for (a,) in self.generators)
        return Codec(base ** radius, 0, steps, encode, decode)

    def radius_bound(self, budget):
        if self.k == 1:
            return super().radius_bound(budget)
        r, size = 0, 2 * self.k - 1  # the ball of radius r has at least (2k - 1)^r elements
        while size <= budget:
            r += 1
            size *= 2 * self.k - 1
        return r


class _DihedralOracle(GroupOracle):
    """Infinite dihedral group on two involutions s, t.

    Element (p, f) stands for (st)^p s^f; with r = st the usual relations
    give (p1,f1)(p2,f2) = (p1 + (-1)^f1 p2, f1 xor f2).
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.generators = ((0, 1), (-1, 1))  # s, t
        self.axis_word = ((0, 1), (-1, 1))   # alternating word st
        self.bipartite = True

    def identity(self):
        return (0, 0)

    def multiply(self, g, h):
        p1, f1 = g
        p2, f2 = h
        return (p1 - p2 if f1 else p1 + p2, f1 ^ f2)

    def invert(self, g):
        p, f = g
        return (p, 1) if f else (-p, 0)

    def key_str(self, g):
        p, f = g
        return f"{p}s" if f else str(p)

    def codec(self, radius):
        o = radius

        def encode(g):
            p, f = g
            return 2 * (p + o) + f if -o <= p <= o else None

        def decode(v):
            q, f = divmod(v, 2)
            return (q - o, f)

        def s(v):
            return v ^ 1

        def t(v):  # (p, 1) t = (p + 1, 0) and (p, 0) t = (p - 1, 1)
            return v + 1 if v & 1 else v - 1

        return Codec(2 * (2 * o + 1), 2 * o, (s, t), encode, decode)


class _LamplighterOracle(GroupOracle):
    """Wreath product (Z/m) wr Z with cursor shift t and lamp increment a.

    The lamp map is stored as (cursor, base, mask): digit i of mask, written
    base m, is the lamp value at position base + i, and the lowest digit is
    nonzero. Multiplication follows the wreath rule: the right factor's lamps
    are shifted by the left factor's cursor before adding pointwise mod m.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m = spec.m
        a_inv = (0, 0, self.m - 1)
        self.generators = tuple(dict.fromkeys(((1, 0, 0), (-1, 0, 0), (0, 0, 1), a_inv)))
        self.axis_word = ((1, 0, 0),)
        self.bipartite = self.m % 2 == 0

    def identity(self):
        return (0, 0, 0)

    def _normalize(self, base: int, mask: int):
        if mask == 0:
            return 0, 0
        m = self.m
        if m == 2:
            shift = (mask & -mask).bit_length() - 1
            if shift:
                return base + shift, mask >> shift
            return base, mask
        while mask % m == 0:
            mask //= m
            base += 1
        return base, mask

    def _add_masks(self, m1: int, m2: int) -> int:
        m = self.m
        if m == 2:
            return m1 ^ m2
        out = 0
        mult = 1
        while m1 or m2:
            out += ((m1 % m + m2 % m) % m) * mult
            mult *= m
            m1 //= m
            m2 //= m
        return out

    def multiply(self, g, h):
        c1, b1, k1 = g
        c2, b2, k2 = h
        cursor = c1 + c2
        if k2 == 0:
            return (cursor, b1, k1)
        nb2 = b2 + c1
        if k1 == 0:
            return (cursor, nb2, k2)
        base = b1 if b1 < nb2 else nb2
        m = self.m
        if m == 2:
            merged = (k1 << (b1 - base)) ^ (k2 << (nb2 - base))
        else:
            merged = self._add_masks(k1 * m ** (b1 - base), k2 * m ** (nb2 - base))
        base, merged = self._normalize(base, merged)
        return (cursor, base, merged)

    def invert(self, g):
        c, b, mask = g
        if mask == 0:
            return (-c, 0, 0)
        m = self.m
        if m != 2:
            out = 0
            mult = 1
            rest = mask
            while rest:
                out += ((-rest % m) % m) * mult
                mult *= m
                rest //= m
            mask = out
        return (-c, b - c, mask)

    def key_str(self, g):
        c, b, mask = g
        return f"{c};{b};{mask:x}"

    def codec(self, radius):
        o, m = radius, self.m
        w = 2 * o + 1  # cursor codes c + o for |c| <= o

        def digit(p):  # the lamp at position p is base-m digit 2p, or -2p - 1 if p < 0
            return 2 * p if p >= 0 else -2 * p - 1

        def encode(g):
            c, p, mask = g
            if not -o <= c <= o:
                return None
            lamps = 0
            while mask:
                mask, value = divmod(mask, m)
                if value:
                    if not -o <= p <= o:
                        return None
                    lamps += value * m ** digit(p)
                p += 1
            return lamps * w + c + o

        def decode(v):
            lamps, c = divmod(v, w)
            lit = {}
            i = 0
            while lamps:
                lamps, value = divmod(lamps, m)
                if value:
                    lit[i // 2 if i % 2 == 0 else -(i + 1) // 2] = value
                i += 1
            if not lit:
                return (c - o, 0, 0)
            base = min(lit)
            return (c - o, base, sum(value * m ** (p - base) for p, value in lit.items()))

        # code weight of the lamp under the cursor, per cursor code; filled
        # on demand, since a search rarely strays far from the identity
        unit = _Memo(lambda i: w * m ** digit(i - o))

        def up(v):  # a: the lamp under the cursor goes up by one mod m
            u = unit[v % w]
            return v - (m - 1) * u if v // u % m == m - 1 else v + u

        def down(v):  # a^-1
            u = unit[v % w]
            return v + (m - 1) * u if v // u % m == 0 else v - u

        steps = (_shift(1), _shift(-1), up) + ((down,) if m > 2 else ())
        return Codec(m ** w * w, o, steps, encode, decode)

    def radius_bound(self, budget):
        # the words (t a^e)^j, e in {0, 1}, give 2^j elements within radius 2j
        return 2 * (budget.bit_length() - 1) + 1


class _ProductOracle(GroupOracle):
    def __init__(self, spec: GroupSpec, left: GroupOracle, right: GroupOracle):
        self.spec = spec
        self.left = left
        self.right = right
        el, er = left.identity(), right.identity()
        gens = [(g, er) for g in left.generators]
        gens += [(el, h) for h in right.generators]
        self.generators = tuple(gens)
        self.axis_word = None
        self.bipartite = left.bipartite and right.bipartite
        if left.order is not None and right.order is not None:
            self.order = left.order * right.order

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def multiply(self, g, h):
        return (self.left.multiply(g[0], h[0]), self.right.multiply(g[1], h[1]))

    def invert(self, g):
        return (self.left.invert(g[0]), self.right.invert(g[1]))

    def key_str(self, g):
        return f"({self.left.key_str(g[0])})x({self.right.key_str(g[1])})"

    def codec(self, radius):
        left, right = self.left.codec(radius), self.right.codec(radius)
        low = right.span

        def encode(g):
            a, b = left.encode(g[0]), right.encode(g[1])
            return None if a is None or b is None else a * low + b

        def decode(v):
            a, b = divmod(v, low)
            return (left.decode(a), right.decode(b))

        steps = tuple(_lift(s, low, True) for s in left.steps)
        steps += tuple(_lift(s, low, False) for s in right.steps)
        return Codec(left.span * low, left.identity * low + right.identity,
                     steps, encode, decode)

    def radius_bound(self, budget):
        # a ball of the product contains the same ball of either factor
        bounds = [b for b in (self.left.radius_bound(budget), self.right.radius_bound(budget))
                  if b is not None]
        return min(bounds, default=None)


class _ZCrossCyclicOracle(_ProductOracle):
    """Z x Z/m: the product of ``z`` and ``cyclic_finite(m)``, keyed ``n,c``,
    with the Z factor as its axis."""

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, _ZOracle(GroupSpec("z")),
                         _CyclicOracle(GroupSpec("cyclic_finite", m=spec.m)))
        self.axis_word = ((1, 0),)

    def key_str(self, g):
        return f"{g[0]},{g[1]}"


_ORACLES = {
    "trivial": _TrivialOracle,
    "cyclic_finite": _CyclicOracle,
    "z": _ZOracle,
    "z_pow": _ZPowOracle,
    "free": _FreeOracle,
    "dihedral_inf": _DihedralOracle,
    "z_cross_cyclic": _ZCrossCyclicOracle,
    "lamplighter": _LamplighterOracle,
}


def make_group(spec) -> GroupOracle:
    """Build the oracle for a spec, with the standard generating sets.

    All numeric output of the toolkit (sphere sizes, depth values, ends
    counts) is relative to these fixed generating sets; reports record them.
    """
    spec = parse_group_spec(spec)
    if spec.family == "product":
        return _ProductOracle(spec, make_group(spec.left), make_group(spec.right))
    return _ORACLES[spec.family](spec)


def generator_words(oracle: GroupOracle) -> list[str]:
    """Key strings of the generators, in their fixed order (for reports)."""
    return [oracle.key_str(g) for g in oracle.generators]
