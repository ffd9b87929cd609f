"""Exact scalars: rationals, places of Q and valuations.

The coordinate domain is `fractions.Fraction`, which already keeps the
canonical form we rely on (gcd-reduced, positive denominator).  A `Place`
selects which absolute value is in force; the p-adic absolute value
p^(-v) is itself a rational, so all downstream comparisons stay exact.

This module also hosts the square-root toolbox used everywhere above it:
rational two-sided bounds of width <= 2^-40, and exact sign tests for
expressions of the form sqrt(a) + sqrt(b) - sqrt(c).  Last come the
literal parsers that both backends share: rationals and `name^k` words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

Rat = Fraction

#: Default width for outward rational bounding of square roots.
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


@dataclass(frozen=True)
class Place:
    """Which absolute value of Q is in force.

    kind is "archimedean" or "p-adic"; prime is set only in the p-adic
    case and must be prime.
    """

    kind: str
    prime: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "archimedean":
            if self.prime is not None:
                raise ValueError("archimedean place carries no prime")
        elif self.kind == "p-adic":
            if self.prime is None or not _is_prime(self.prime):
                raise ValueError(f"p-adic place needs a prime, got {self.prime!r}")
        else:
            raise ValueError(f"unknown place kind {self.kind!r}")

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


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(x: Rat | int, p: int) -> int:
    """v_p(x) for nonzero rational x: x = p^v * (a/b) with p dividing neither a nor b."""
    if x == 0:
        raise ZeroDivisionError("valuation of zero undefined")
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


# ---------------------------------------------------------------------------
# Square-root bounding and exact comparison.
#
# Quantities like distances are kept squared; when a statement genuinely
# involves sqrt's we either bound them outward to width 2^-40 or, for the
# frequent shape sqrt(a) + sqrt(b) vs sqrt(c), decide the sign exactly by
# squaring twice.
# ---------------------------------------------------------------------------


def sqrt_lower(q: Rat, bits: int = SQRT_BOUND_BITS) -> Rat:
    """Largest convenient rational l with l <= sqrt(q), within 2^-bits of it.

    Exact when q is a square of a rational.
    """
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    # sqrt(n/d) = sqrt(n*d)/d; scale by 4^bits so the floor isqrt is tight.
    big = (n * d) << (2 * bits)
    return Fraction(isqrt(big), d << bits)


def sqrt_upper(q: Rat, bits: int = SQRT_BOUND_BITS) -> Rat:
    """Rational u with sqrt(q) <= u <= sqrt(q) + 2^-bits; exact on squares."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    big = (n * d) << (2 * bits)
    r = isqrt(big)
    return Fraction(r + 1, d << bits)


def cmp_sqrt_sum(a: Rat, b: Rat, c: Rat) -> int:
    """Exact sign of (sqrt(a) + sqrt(b)) - sqrt(c) for nonnegative rationals.

    Decided purely over Q: sqrt(a)+sqrt(b) <= sqrt(c) iff
    a + b + 2*sqrt(a*b) <= c, and the remaining single square root is
    compared by squaring once more (signs tracked).
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("negative input to cmp_sqrt_sum")
    # (sqrt(a)+sqrt(b))^2 = a + b + 2 sqrt(ab); compare with c.
    t = c - a - b
    ab4 = 4 * a * b
    if t < 0:
        return 1  # lhs^2 > c already from a+b > c
    # compare 2 sqrt(ab) with t >= 0: sign of 4ab - t^2
    s = ab4 - t * t
    if s > 0:
        return 1
    if s < 0:
        return -1
    return 0


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


def format_rat(x: Rat) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
