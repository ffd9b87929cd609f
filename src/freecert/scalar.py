"""Exact scalars: rationals, places of Q and valuations.

The coordinate domain is `fractions.Fraction`, which already keeps the
canonical form we rely on (gcd-reduced, positive denominator).  A `Place`
selects which absolute value is in force; the p-adic absolute value
p^(-v) is itself a rational, so all downstream comparisons stay exact.

This module also hosts the square-root toolbox used everywhere above it:
rational two-sided bounds of width <= 2^-40, and exact sign tests for
expressions of the form sqrt(a) + sqrt(b) - sqrt(c).  Last come the
literal readers and writers both backends share: rationals, `name^k` words.

`Record` is the package's one kind of record.  A record's fields are the
public names of its `__slots__`, base classes first; `Record.__init__`
binds positional values, then named ones, then the class's `_defaults`,
and a record that validates its input checks it in its own `__init__`
before it binds through `Record.__init__`.  Equality and the hash read
`_key()`, the tuple of the fields unless a class narrows it.
`DisjointVerdict`, the (kind, witness) answer of both disjointness
tests, the projective and the tree one, sits next to `Record` so that
`tree` imports this module alone.  So does the one list of the sets
ping-pong must show disjoint (`PAIR_LABELS`, `VERY_PAIRS`, `pair_count`,
`tuple_pairs`), which `pingpong`, `dynamics` and `certfmt` all read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import attrgetter

Rat = Fraction

#: Width for outward rational bounding of square roots.
SQRT_BOUND_BITS = 40


#: Bases of the deterministic Miller-Rabin test: the primes up to 41.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: The least strong pseudoprime to all of MR_BASES; below it the test is proven.
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MR_LIMIT; larger n raise."""
    if n >= MR_LIMIT:
        raise ValueError(f"prime too large: {n} (primality is decided only below {MR_LIMIT})")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Record:
    """An immutable record.  Its fields are the public names of its
    `__slots__` through the MRO, base classes first: `__dict__` and the
    `_`-prefixed slots of derived data are not fields.  `__init__` binds
    positional values in field order, then named ones, then `_defaults`
    (field -> value); a missing, unknown or repeated field is a TypeError,
    and assignment afterwards raises.  Equality asks for the exact class
    and equal `_key()`, the tuple of the fields (even of one) unless a
    class narrows it; the hash is that of `_key()`, and the repr lists it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        slots = (name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ()))
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)  # past the refusing __setattr__
        get = attrgetter(*cls._fields)  # a tuple only for two names or more
        cls._fields_of = get if len(cls._fields) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *values, **named) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._bind(values, named)
        for set_field, value in zip(setters, values):
            set_field(self, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """The value of every field, in field order: the positional values,
        then for each later field its named value or its default."""
        fields = cls._fields
        if len(values) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(values)} values")
        for name in named:
            if name not in fields or fields.index(name) < len(values):
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
        bound = {**cls._defaults, **named}
        rest = fields[len(values) :]
        missing = [name for name in rest if name not in bound]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the field {missing[0]!r}")
        return values + tuple([bound[name] for name in rest])

    def _key(self) -> tuple:
        return self._fields_of(self)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class DisjointVerdict(Record):
    """The answer of a disjointness test: kind is "disjoint", "overlap"
    (witness a common point or vertex) or "unknown"."""

    __slots__ = ("kind", "witness")
    _defaults = {"witness": None}


#: The four sets of a ping-pong player, in the order a player lists them.
PAIR_LABELS = ("A+", "R+", "A-", "R-")
#: The disjointness a very-proximal certificate shows among its eps-sets,
#: as indices into PAIR_LABELS: A+ from R+, A+ from A-, and A- from R-.
VERY_PAIRS = ((0, 1), (0, 2), (2, 3))


def pair_count(k: int) -> int:
    """How many pairs `tuple_pairs` yields for k players."""
    return k * (8 * k - 5)


def tuple_pairs(players: list):
    """(left, right, left label, right label), labels like `p.A+`, of each
    pair of sets a ping-pong tuple must show disjoint, for players given as
    (name, [A+, R+, A-, R-]): per player A+ from A- and R+, and A- from R-;
    then each player's A+ and A- from every set of each other player.  It
    is lazy, so a walk that stops early builds no more pairs."""
    own = ((p, s, i, p, s, j) for p, s in players for i, j in ((0, 2), (0, 1), (2, 3)))
    cross = ((p, s, i, q, t, j) for n, (p, s) in enumerate(players) for m, (q, t) in enumerate(players) if m != n for i in (0, 2) for j in range(4))
    for p, s, i, q, t, j in chain(own, cross):
        yield s[i], t[j], f"{p}.{PAIR_LABELS[i]}", f"{q}.{PAIR_LABELS[j]}"


class Place(Record):
    """Which absolute value of Q is in force.

    kind is "archimedean" or "p-adic"; prime is set only in the p-adic
    case and must be prime.
    """

    __slots__ = ("kind", "prime")

    def __init__(self, kind: str, prime: int | None = None) -> None:
        if kind == "archimedean":
            if prime is not None:
                raise ValueError("archimedean place carries no prime")
        elif kind == "p-adic":
            if prime is None or not _is_prime(prime):
                raise ValueError(f"p-adic place needs a prime, got {prime!r}")
        else:
            raise ValueError(f"unknown place kind {kind!r}")
        Record.__init__(self, kind, prime)

    @property
    def is_padic(self) -> bool:
        return self.kind == "p-adic"

    def __str__(self) -> str:
        return "arch" if not self.is_padic else f"p:{self.prime}"


ARCH = Place("archimedean")


def padic(p: int) -> Place:
    return Place("p-adic", p)


def parse_place(text: str) -> Place:
    """The place written `arch` or `p:PRIME`; ValueError on anything else."""
    if text == "arch":
        return ARCH
    if text.startswith("p:"):
        return padic(int(text[2:]))
    raise ValueError(f"place must be arch or p:PRIME, got {text!r}")


def clear_denominators(values) -> tuple[list[int], int]:
    """(scale * values as integers, scale) for a sequence of ints,
    Fractions and (numerator, denominator) pairs of ints in lowest terms
    with a positive denominator, scale the lcm of their denominators; any
    other entry is a TypeError, and a pair not in lowest terms a
    ValueError.  The one place where denominators are cleared."""
    if all(type(c) is int for c in values):
        return list(values), 1
    pairs = []
    for c in values:
        if type(c) is tuple and len(c) == 2 and type(c[0]) is int and type(c[1]) is int:
            if c[1] <= 0 or gcd(*c) != 1:
                raise ValueError(f"pair {c!r} is not a rational in lowest terms")
            pairs.append(c)
        elif isinstance(c, (int, Fraction)):
            pairs.append(c.as_integer_ratio())
        else:
            raise TypeError(f"coordinate {c!r} is not an int, a Fraction or a pair")
    scale = lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs], scale


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Square-root bounding and exact comparison.
#
# Quantities like distances are kept squared; when a statement genuinely
# involves sqrt's we either bound them outward to width 2^-40 or, for the
# frequent shape sqrt(a) + sqrt(b) vs sqrt(c), decide the sign exactly by
# squaring twice, on the integer (numerator, denominator) pairs the metric
# returns: no Fraction is built for a comparison.
# ---------------------------------------------------------------------------


def sqrt_lower_pair(n: int, d: int) -> tuple[int, int]:
    """The lower bound of `sqrt_lower` on sqrt(n/d), d > 0, as a
    (numerator, denominator) pair: the bound is read off n/d in lowest
    terms, so any pair of one rational gives the same value."""
    if n < 0:
        raise ValueError("sqrt of negative rational")
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    n, d = n // g, d // g
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return rn, rd
    # sqrt(n/d) = sqrt(n*d)/d; scale by 4^SQRT_BOUND_BITS so the floor isqrt is tight.
    return isqrt((n * d) << (2 * SQRT_BOUND_BITS)), d << SQRT_BOUND_BITS


def sqrt_upper_pair(n: int, d: int) -> tuple[int, int]:
    """The upper bound of `sqrt_upper` on sqrt(n/d), d > 0, as a
    (numerator, denominator) pair, read off n/d in lowest terms."""
    if n < 0:
        raise ValueError("sqrt of negative rational")
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    n, d = n // g, d // g
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return rn, rd
    return isqrt((n * d) << (2 * SQRT_BOUND_BITS)) + 1, d << SQRT_BOUND_BITS


def sqrt_lower(q: Rat) -> Rat:
    """Largest convenient rational l with l <= sqrt(q), within
    2^-SQRT_BOUND_BITS of it.

    Exact when q is a square of a rational.
    """
    return Fraction(*sqrt_lower_pair(*q.as_integer_ratio()))


def sqrt_upper(q: Rat) -> Rat:
    """Rational u with sqrt(q) <= u <= sqrt(q) + 2^-SQRT_BOUND_BITS; exact
    on squares."""
    return Fraction(*sqrt_upper_pair(*q.as_integer_ratio()))


def cmp_sqrt_sum(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Exact sign of (sqrt(a) + sqrt(b)) - sqrt(c) for nonnegative
    rationals given as (numerator, denominator) pairs, denominators
    positive.

    Over the common denominator ad bd cd, with A, B, C the numerators
    there, sqrt(A) + sqrt(B) <= sqrt(C) iff A + B + 2 sqrt(AB) <= C: so
    the sign is 1 when T = C - A - B < 0, else that of 4AB - T^2.  Only
    integers are multiplied.
    """
    an, ad = a
    bn, bd = b
    cn, cd = c
    if an < 0 or bn < 0 or cn < 0:
        raise ValueError("negative input to cmp_sqrt_sum")
    big_a, big_b, big_c = an * bd * cd, bn * ad * cd, cn * ad * bd
    t = big_c - big_a - big_b
    if t < 0:
        return 1
    s = 4 * big_a * big_b - t * t
    return (s > 0) - (s < 0)


def parse_rat(text: str) -> Rat:
    """Parse an exact rational literal "p/q" or "p" (no floats accepted)."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            d = int(den)
            if d == 0:
                raise ValueError
            return Fraction(int(num), d)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational literal {text!r}") from None


def word_tokens(text: str) -> list[tuple[str, int]]:
    """The (name, k) pairs of a whitespace word `name^k name ...`, with
    k = 1 where `^k` is omitted.  Nothing is expanded, so the letter count
    sum |k| of a long word is known before it is built."""
    tokens = []
    for token in text.split():
        name, _, power = token.partition("^")
        try:
            tokens.append((name, int(power) if power else 1))
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None
    return tokens


def letter_count(text: str) -> int:
    """The letters sum |k| of a word `name^k name ...`, counted unexpanded."""
    return sum(abs(k) for _, k in word_tokens(text))


def word_string(letters, names) -> str:
    parts = []
    for idx, exp in letters:
        parts.append(names[idx] if exp > 0 else f"{names[idx]}^-1")
    return " ".join(parts)


def format_rat(x: Rat) -> str:
    """`p/q`, or `p` for an integer: the text of `Fraction`; ValueError
    when a part has more digits than Python converts to text."""
    return str(x)
