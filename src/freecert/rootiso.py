"""Certified isolation of real polynomial roots over Q.

Supports the archimedean singular profiles: characteristic polynomials are
evaluated exactly, rational roots are split off exactly, and the remaining
real roots are enclosed by Sturm isolation, sign-change bisection, to a
requested relative width.  Intervals carry rational endpoints; a degenerate
interval (lo == hi) marks an exactly known root.

Polynomials are coefficient lists, lowest degree first, over Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .scalar import Rat

Poly = list[Fraction]

#: Relative width target for refined root enclosures.
ROOT_REL_BITS = 30

#: Largest trial divisor the rational root test factors with.
DIVISOR_TRIAL_CAP = 200_000


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints, lo <= hi."""

    lo: Rat
    hi: Rat

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))

    def divide(self, other: "Interval") -> "Interval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division through zero")
        inv = Interval(Fraction(1) / other.hi, Fraction(1) / other.lo)
        return self * inv


def point(x: Rat) -> Interval:
    x = Fraction(x)
    return Interval(x, x)


def ptrim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pdeg(p: Poly) -> int:
    return len(ptrim(p)) - 1


def peval(p: Poly, x: Rat) -> Rat:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    return [c * i for i, c in enumerate(p)][1:]


def prem(p: Poly, q: Poly) -> Poly:
    """Remainder of p by q over Q (q nonzero)."""
    p = ptrim(list(p))
    q = ptrim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead = q[-1]
    while len(p) >= len(q):
        f = p[-1] / lead
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[i + shift] -= f * c
        p = ptrim(p[:-1])
        if not p:
            break
    return p


def pquo(p: Poly, q: Poly) -> Poly:
    p = ptrim(list(p))
    q = ptrim(list(q))
    lead = q[-1]
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        f = p[-1] / lead
        shift = len(p) - len(q)
        out[shift] = f
        for i, c in enumerate(q):
            p[i + shift] -= f * c
        p = ptrim(p[:-1])
        if not p:
            break
    return ptrim(out)


def pgcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q."""
    a, b = ptrim(list(p)), ptrim(list(q))
    while b:
        a, b = b, prem(a, b)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def squarefree_part(p: Poly) -> Poly:
    p = ptrim(list(p))
    if pdeg(p) < 1:
        return p
    g = pgcd(p, pderiv(p))
    if pdeg(g) < 1:
        return p
    return pquo(p, g)


def sturm_sequence(p: Poly) -> list[Poly]:
    seq = [ptrim(list(p)), ptrim(pderiv(p))]
    while seq[-1]:
        r = prem(seq[-2], seq[-1])
        seq.append([-c for c in r])
    return seq[:-1]


def _variations(seq: list[Poly], x: Rat) -> int:
    signs = []
    for p in seq:
        v = peval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    flips = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            flips += 1
    return flips


def count_roots(seq: list[Poly], a: Rat, b: Rat) -> int:
    """Number of distinct real roots in (a, b] by Sturm's theorem."""
    return _variations(seq, a) - _variations(seq, b)


def cauchy_bound(p: Poly) -> Rat:
    """B with every real root of p inside [-B, B]."""
    p = ptrim(list(p))
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def _divisors(n: int) -> list[int] | None:
    """All positive divisors of n, or None when n is too hard to factor cheaply."""
    n = abs(n)
    if n == 0:
        return None
    fac: dict[int, int] = {}
    d = 2
    m = n
    while d * d <= m:
        if d > DIVISOR_TRIAL_CAP:
            return None
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    divs = [1]
    for q, e in fac.items():
        divs = [dv * q**k for dv in divs for k in range(e + 1)]
    if len(divs) > 4096:
        return None
    return sorted(divs)


def rational_roots(p: Poly) -> list[Rat]:
    """All rational roots of p, each listed once, via the rational root test.

    Falls back to the empty list when the candidate set would be too large;
    callers treat missed rational roots like irrational ones (sound, just
    wider enclosures).
    """
    p = ptrim(list(p))
    if pdeg(p) < 1:
        return []
    ip = _cleared(p)
    while ip and ip[0] == 0:
        ip = ip[1:]  # factor x out; root 0 handled below
    roots: list[Fraction] = []
    if peval(p, Fraction(0)) == 0:
        roots.append(Fraction(0))
    if not ip:
        return roots
    nums = _divisors(ip[0])
    dens = _divisors(ip[-1])
    if nums is None or dens is None:
        return roots
    high_first = ip[::-1]
    for dn in dens:
        for nm in nums:
            if gcd(nm, dn) == 1:
                roots.extend(Fraction(x, dn) for x in (nm, -nm) if _homogeneous(high_first, x, dn) == 0)
    return sorted(roots)


def root_multiplicity(p: Poly, r: Rat) -> int:
    m = 0
    q = ptrim(list(p))
    lin = [-r, Fraction(1)]
    while q and peval(q, r) == 0:
        q = pquo(q, lin)
        m += 1
    return m


def isolate_positive_roots(p: Poly) -> list[tuple[Interval, int]]:
    """Enclosures for every positive real root of p, with multiplicities.

    Rational roots come back as degenerate intervals.  Irrational ones are
    enclosed on the squarefree part by Sturm isolation, sign-change
    bisection: Sturm counts split (0, bound] until each piece holds one
    root, then `_refine` halves that piece by sign tests until
    hi - lo <= lo * 2^-ROOT_REL_BITS.  The union of returned intervals is
    pairwise disjoint and, counted with multiplicity, covers exactly the
    positive roots.
    """
    p = ptrim(list(p))
    if pdeg(p) < 1:
        return []
    out: list[tuple[Interval, int]] = []
    work = list(p)
    for r in rational_roots(p):
        if r <= 0:
            continue
        m = root_multiplicity(p, r)
        out.append((point(r), m))
        lin = [-r, Fraction(1)]
        for _ in range(m):
            work = pquo(work, lin)
    sf = squarefree_part(work)
    if pdeg(sf) >= 1:
        seq = sturm_sequence(sf)
        bound = cauchy_bound(sf)
        total = count_roots(seq, Fraction(0), bound)
        stack = [(Fraction(0), bound, total)] if total else []
        isolated: list[tuple[Rat, Rat]] = []
        while stack:
            a, b, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                isolated.append((a, b))
                continue
            mid = (a + b) / 2
            if peval(sf, mid) == 0:
                # rational root the divisor search missed; split it off
                m = root_multiplicity(work, mid)
                out.append((point(mid), m))
                lo_cnt = count_roots(seq, a, mid) - 1
                hi_cnt = cnt - 1 - lo_cnt
                stack.append((a, mid, lo_cnt))
                stack.append((mid, b, hi_cnt))
                continue
            lo_cnt = count_roots(seq, a, mid)
            stack.append((a, mid, lo_cnt))
            stack.append((mid, b, cnt - lo_cnt))
        for a, b in isolated:
            lo, hi = _refine(sf, a, b)
            m = _multiplicity_in(work, sf, lo, hi)
            out.append((Interval(lo, hi), m))
    out.sort(key=lambda t: (t[0].lo, t[0].hi))
    return out


def _refine(sf: Poly, a: Rat, b: Rat) -> tuple[Rat, Rat]:
    """Sturm isolation, sign-change bisection: the one root of sf inside
    the isolated (a, b) is bisected down to relative width
    2^-ROOT_REL_BITS; an exactly hit root returns (mid, mid).

    The open interval holds exactly one root, which is simple, so it lies
    below mid iff sf(mid) has the sign sf takes just left of b.  That sign
    never changes as b moves, and b itself may be a root only when
    isolation split it off as rational; there the sign comes from sf'(b).
    The endpoint a may be a root too (0, or a split-off root), so its sign
    is never read.

    The bisection runs on integers: sf with its denominators cleared, and
    the points as numerators over one denominator that doubles each step.
    """
    fb = peval(sf, b)
    positive_left_of_b = fb > 0 if fb else peval(pderiv(sf), b) < 0
    coeffs = _cleared(sf)[::-1]
    w = lcm(a.denominator, b.denominator)
    na, nb = a.numerator * (w // a.denominator), b.numerator * (w // b.denominator)
    while na <= 0 or (nb - na) << ROOT_REL_BITS > na:
        mid, w = na + nb, 2 * w
        acc = _homogeneous(coeffs, mid, w)
        if acc == 0:
            return Fraction(mid, w), Fraction(mid, w)
        if (acc > 0) == positive_left_of_b:
            na, nb = 2 * na, mid
        else:
            na, nb = mid, 2 * nb
    return Fraction(na, w), Fraction(nb, w)


def _homogeneous(coeffs: list[int], num: int, den: int) -> int:
    """den^deg * f(num / den) for f with integer coefficients listed
    highest degree first: Horner on the homogenized polynomial."""
    acc, dk = 0, 1
    for c in coeffs:
        acc = acc * num + c * dk
        dk *= den
    return acc


def _cleared(p: Poly) -> list[int]:
    """p times the lcm of its denominators: integer coefficients with the
    same roots and signs."""
    den = lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p]


def _multiplicity_in(full: Poly, sf: Poly, lo: Rat, hi: Rat) -> int:
    """Multiplicity in `full` of the single sf-root inside (lo, hi]."""
    m = 0
    q = ptrim(list(full))
    g = pgcd(q, sf)
    seq = sturm_sequence(g)
    while count_roots(seq, lo, hi) == 1:
        m += 1
        q = pquo(q, g)
        g = pgcd(q, sf)
        if pdeg(g) < 1:
            break
        seq = sturm_sequence(g)
    return max(m, 1)
