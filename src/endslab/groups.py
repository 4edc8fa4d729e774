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
* ``lamplighter(m)``   -- pair ``(cursor, lamps)``: written base m, digit 2p
                          of ``lamps`` is the lamp at position p >= 0 and
                          digit -2p - 1 the lamp at p < 0; keyed
                          ``cursor;base;mask`` with base the lowest lit
                          position and digit i of ``mask`` the lamp at
                          ``base + i``
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
                        drops the last one. ``free(1)``, whose words are
                        powers of one letter, codes the power as ``z`` does
* ``dihedral_inf``   -- ``2 * (p + o) + f``
* ``z_cross_cyclic`` -- ``(n + o) * m + c``, the product code of its factors
* ``lamplighter(m)`` -- ``lamps * w + cursor + o``, with the element's own
                        ``lamps`` (the window holds lamps < m ** w, those at
                        positions -o..o), so codes stay as short as the
                        lamps lit, however large the radius
* ``product``        -- ``left * right_span + right``, both factors coded
                        for the same radius

A translation step ``v -> v + d`` is ``functools.partial(operator.add, d)``,
so a product can lift it to another translation instead of a divmod.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property, partial
from math import isqrt
from operator import add
from typing import Any, Callable, Optional

from .errors import InvalidParameter

Element = Any

# Nested products beyond this depth blow up element size without adding
# interesting test geometry.
MAX_PRODUCT_DEPTH = 3

# z_pow(k) and free(k) have 2k generators, which must fit in an index.
MAX_K = sys.maxsize // 2

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
        if "m" in FAMILIES[family] and (not _is_int(m) or m < 2):
            raise InvalidParameter(f"{family} requires integer m >= 2, got {m!r}")
        if "k" in FAMILIES[family] and (not _is_int(k) or not 1 <= k <= MAX_K):
            raise InvalidParameter(f"{family} requires integer 1 <= k <= {MAX_K}, got {k!r}")
        if family == "product":
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
            _check_keys(d, ("family", *FAMILIES[family]), f"{family} spec")
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
            decoded = _loads(text_or_dict, "group spec")
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"invalid group spec JSON: {exc}") from exc
        return GroupSpec.from_dict(decoded)
    return GroupSpec.from_dict(text_or_dict)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _loads(text: str, what: str):
    """Decode JSON, rejecting an object that repeats a key: plain
    ``json.loads`` keeps the last copy and drops the others unseen. An
    integer too long to convert is InvalidParameter too."""
    def unique_keys(pairs: list) -> dict:
        d = {}
        for key, value in pairs:
            if key in d:
                raise InvalidParameter(f"{what} repeats the key {key!r}")
            d[key] = value
        return d
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, InvalidParameter):
        raise
    except ValueError:  # json's int() past the digit limit, its only other ValueError
        raise InvalidParameter(f"{what} holds an integer of more than "
                               f"{sys.get_int_max_str_digits()} digits") from None


def _check_keys(d, allowed: tuple, what: str) -> None:
    """InvalidParameter unless ``d`` is a JSON object with no key outside ``allowed``."""
    if not isinstance(d, dict):
        raise InvalidParameter(f"{what} must be an object, got {type(d).__name__}")
    extra = [repr(key) for key in d if key not in allowed]
    if extra:
        raise InvalidParameter(f"{what} has unexpected keys: {', '.join(extra)}")


class Record:
    """A plain record: the constructor takes one value per name in
    ``__slots__``, positionally and in order, and raises ValueError on one
    too few or too many. A fact the fields determine is a property, not a
    field, so a record cannot contradict itself.

    A report record names the keys of its JSON form in ``report_keys``, each
    a slot or a property; a field it leaves out stays out of the report.
    ``to_dict`` writes every report: a nested record as its ``to_dict``, a
    tuple or list as a list and a dict with str keys."""

    __slots__ = ()
    report_keys = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def to_dict(self) -> dict:
        return {key: _plain(getattr(self, key)) for key in self.report_keys}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


class Codec(Record):
    """Packed int codes for a window around the identity (module docstring):
    ``encode`` maps an element to its code or None, ``decode`` a code back."""

    __slots__ = ("span", "identity", "steps", "encode", "decode")


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
    The 2k generators of ``z_pow(k)`` and ``free(k)``, and those of a
    product, are built on first use; ``degree`` counts them without.
    """

    spec: GroupSpec
    generators: tuple          # inversion closed, identity excluded
    axis_word: Optional[tuple] # generator sequence spelling a geodesic axis
    bipartite: bool            # every relator has even length (module docstring)

    #: None for infinite groups, the group order otherwise.
    order: Optional[int] = None

    def degree(self) -> int:
        """The number of generators, the degree of the Cayley graph."""
        return len(self.generators)

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
        logarithmic in the budget; Z^k (k >= 2) and products of two
        infinite groups with one near its square root.
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

    @staticmethod
    def codec(o):
        return Codec(2 * o + 1, o, (_shift(1), _shift(-1)),
                     lambda g: g + o if -o <= g <= o else None, lambda v: v - o)


class _ZPowOracle(GroupOracle):
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.k = spec.k
        self.axis_word = ((1,) + (0,) * (self.k - 1),)
        self.bipartite = True

    @cached_property
    def generators(self):
        gens = []
        for i in range(self.k):
            e = [0] * self.k
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return tuple(gens)

    def degree(self):
        return 2 * self.k

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

    def radius_bound(self, budget):
        # Z^k contains Z^2, where |B(r)| = 2r^2 + 2r + 1 >= r(r + 2) = (r + 1)^2 - 1
        return super().radius_bound(budget) if self.k == 1 else isqrt(budget + 1) - 1


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class _FreeOracle(GroupOracle):
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.k = spec.k
        self.axis_word = ((1,),)
        self.bipartite = True

    @cached_property
    def generators(self):
        return tuple((a,) for i in range(1, self.k + 1) for a in (i, -i))

    def degree(self):
        return 2 * self.k

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
        if self.k == 1:  # the word a^n or A^-n, of exponent n = sum(g)
            z = _ZOracle.codec(radius)
            return Codec(z.span, z.identity, z.steps, lambda g: z.encode(sum(g)),
                         lambda v: (1,) * z.decode(v) or (-1,) * -z.decode(v))
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

        steps = tuple(step(digit(a), digit(-a)) for i in range(1, self.k + 1) for a in (i, -i))
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


def _digit(p: int) -> int:
    """The base-m digit of a lamplighter ``lamps`` integer that holds the
    lamp at position p: 2p, or -2p - 1 if p < 0."""
    return 2 * p if p >= 0 else -2 * p - 1


class _LamplighterOracle(GroupOracle):
    """Wreath product (Z/m) wr Z with cursor shift t and lamp increment a.

    An element is (cursor, lamps): digit ``_digit(p)`` of lamps, written base
    m, is the lamp value at position p. Multiplication follows the wreath
    rule: the right factor's lamps are shifted by the left factor's cursor
    before adding pointwise mod m.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m = spec.m
        self.generators = tuple(dict.fromkeys(((1, 0), (-1, 0), (0, 1), (0, self.m - 1))))
        self.axis_word = ((1, 0),)
        self.bipartite = self.m % 2 == 0

    def identity(self):
        return (0, 0)

    def _lit(self, lamps: int) -> list:
        """(position, value) of every lit lamp, by increasing digit."""
        m = self.m
        lit = []
        i = 0
        while lamps:
            lamps, value = divmod(lamps, m)
            if value:
                lit.append((-(i + 1) // 2 if i & 1 else i // 2, value))
            i += 1
        return lit

    def multiply(self, g, h):
        c1, lamps = g
        c2, right = h
        m = self.m
        for p, value in self._lit(right):
            unit = m ** _digit(p + c1)
            old = lamps // unit % m
            lamps += ((old + value) % m - old) * unit
        return (c1 + c2, lamps)

    def invert(self, g):
        c, lamps = g
        m = self.m
        return (-c, sum((m - value) * m ** _digit(p - c) for p, value in self._lit(lamps)))

    def key_str(self, g):
        # "cursor;base;mask": digit i of mask, base m, is the lamp at base + i,
        # and base is the lowest lit position (0 when none is lit)
        c, lamps = g
        m = self.m
        base = low = below = above = 0  # lamps below 0 from base up, lamps from low up
        for p, value in self._lit(lamps):  # positions 0, -1, 1, -2, ... in turn
            if p < 0:
                below = below * m ** (base - p) + value
                base = p
            else:
                if not above:
                    low = p
                above += value * m ** (p - low)
        if base < 0:
            return f"{c};{base};{below + above * m ** (low - base):x}"
        return f"{c};{low};{above:x}"

    def codec(self, radius):
        o, m = radius, self.m
        w = 2 * o + 1  # cursor codes c + o for |c| <= o
        top = m ** w   # lamps at positions -o..o are digits 0..2o

        def encode(g):
            c, lamps = g
            return lamps * w + c + o if -o <= c <= o and lamps < top else None

        def decode(v):
            lamps, c = divmod(v, w)
            return (c - o, lamps)

        # code weight of the lamp under the cursor, per cursor code; filled
        # on demand, since a search rarely strays far from the identity
        unit = _Memo(lambda i: w * m ** _digit(i - o))

        def up(v):  # a: the lamp under the cursor goes up by one mod m
            u = unit[v % w]
            return v - (m - 1) * u if v // u % m == m - 1 else v + u

        def down(v):  # a^-1
            u = unit[v % w]
            return v + (m - 1) * u if v // u % m == 0 else v - u

        steps = (_shift(1), _shift(-1), up) + ((down,) if m > 2 else ())
        return Codec(top * w, o, steps, encode, decode)

    def radius_bound(self, budget):
        # the words (t a^e)^j, e in {0, 1}, give 2^j elements within radius 2j
        return 2 * (budget.bit_length() - 1) + 1


class _ProductOracle(GroupOracle):
    def __init__(self, spec: GroupSpec, left: GroupOracle, right: GroupOracle):
        self.spec = spec
        self.left = left
        self.right = right
        self.axis_word = None
        self.bipartite = left.bipartite and right.bipartite
        if left.order is not None and right.order is not None:
            self.order = left.order * right.order

    @cached_property
    def generators(self):
        left, right = self.left, self.right
        el, er = left.identity(), right.identity()
        return tuple([(g, er) for g in left.generators] + [(el, h) for h in right.generators])

    def degree(self):
        return self.left.degree() + self.right.degree()

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
        # a ball of the product contains the same ball of either factor; with both
        # infinite, B_left(r // 2) x B_right(r - r // 2), of >= r(r + 2) elements
        bounds = [b for b in (self.left.radius_bound(budget), self.right.radius_bound(budget))
                  if b is not None]
        if len(bounds) == 2:
            bounds.append(isqrt(budget + 1) - 1)
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
