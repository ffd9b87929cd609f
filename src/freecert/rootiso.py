"""Certified isolation of the real roots of a real-rooted polynomial over Q.

Supports the archimedean singular profiles, whose polynomial is the
characteristic polynomial of a symmetric Gram matrix and so real-rooted.
Roots are counted by Descartes' rule of signs, exact on a real-rooted
polynomial, and isolated by bisection.  Rational roots are found exactly
by a binary search over the multiples of 1/lead in their isolating
intervals (Gauss's lemma) and split off; the others are enclosed by
bisection to a requested relative width.  A quadratic, the Gram
polynomial of every 2 x 2 matrix, is solved in closed form, chosen by
its degree alone (`_quadratic`): the quadratic formula gives its roots
exactly when the discriminant is a square, and otherwise the intervals
the bisection would isolate.  A squarefree part of degree 2 on the
general path, of a higher-degree polynomial or what is left of one once
its rational roots are split off, takes the same closed form, with the
multiplicities read off the polynomial.  On both, the interval the
bisection of an irrational root would end on is read off the quadratic
formula (`_refine_quadratic`).  Intervals carry rational endpoints; a
degenerate interval (lo == hi) marks an exactly known root.

Polynomials are integer coefficient sequences, lowest degree first:
`isolate_positive_roots` takes the tuple of the singular profiles'
`_charpoly_gram`, the denominator-cleared form of the Faddeev-LeVerrier
coefficients `dynamics.gram_charpoly` that the power iteration also
reads, and every other function a list.  Every later
polynomial is a positive multiple of the one it stands for, so roots and
signs never change.  A polynomial is evaluated at num/den as the integer
den^deg * f(num/den), which has the sign of f(num/den).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .scalar import Rat, Record

IntPoly = list[int]

#: Relative width target for refined root enclosures.
ROOT_REL_BITS = 30

class Interval(Record):
    """Closed interval [lo, hi] with rational endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat) -> None:
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        Record.__init__(self, lo, hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


def point(x: Rat) -> Interval:
    x = Fraction(x)
    return Interval(x, x)


def ptrim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pdeg(p: list) -> int:
    return len(ptrim(p)) - 1


def pderiv(p: IntPoly) -> IntPoly:
    return [c * i for i, c in enumerate(p)][1:]


def _primitive(p: IntPoly) -> IntPoly:
    """p over the gcd of its coefficients, a positive integer."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _homogeneous(p: IntPoly, num: int, den: int) -> int:
    """den^deg * p(num / den): Horner on the homogenized polynomial."""
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dk
        dk *= den
    return acc


def prem(p: IntPoly, q: IntPoly) -> IntPoly:
    """The primitive positive multiple of the remainder of p by q over Q
    (q nonzero): pseudo-division that scales by |lead(q)| at each step,
    so the sign of the remainder is kept."""
    p = ptrim(list(p))
    q = ptrim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead = abs(q[-1])
    sign = 1 if q[-1] > 0 else -1
    while len(p) >= len(q):
        f = sign * p[-1]
        shift = len(p) - len(q)
        p = [lead * c for c in p]
        for i, c in enumerate(q):
            p[i + shift] -= f * c
        p = ptrim(p[:-1])
    return _primitive(p)


def pquo(p: IntPoly, q: IntPoly) -> IntPoly:
    """The quotient p / q where q divides p over Q and is primitive, so
    that (Gauss's lemma) the quotient has integer coefficients."""
    p = ptrim(list(p))
    q = ptrim(list(q))
    lead, dq = q[-1], len(q) - 1
    out = [0] * max(0, len(p) - dq)
    for shift in range(len(out) - 1, -1, -1):
        f, r = divmod(p[shift + dq], lead)
        if r:
            raise ArithmeticError("polynomial quotient is not exact")
        out[shift] = f
        if f:
            for i, c in enumerate(q):
                p[i + shift] -= f * c
    if any(p[:dq]):
        raise ArithmeticError("polynomial quotient is not exact")
    return ptrim(out)


def pgcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """The primitive gcd, with a positive leading coefficient, of p and q,
    not both zero."""
    a, b = ptrim(list(p)), ptrim(list(q))
    while b:
        a, b = b, prem(a, b)
    a = _primitive(a)
    return a if a[-1] > 0 else [-c for c in a]


def _roots_above(p: IntPoly, num: int, den: int) -> tuple[int, int]:
    """(the roots of p above x = num/den, den > 0, the multiplicity of x
    as a root of p), both counted with multiplicity, for a real-rooted p.

    Horner's Taylor shift gives den^deg * p((y + num) / den), whose roots
    y > 0 are the roots of p above x.  By Descartes' rule of signs its
    coefficients' sign changes bound them, and equal their number when
    every root is real; its zero low coefficients count the root y = 0.
    """
    d = len(p) - 1
    q, dk = list(p), 1
    for i in range(d, -1, -1):
        q[i] *= dk
        dk *= den
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            q[j] += num * q[j + 1]
    at = 0
    while not q[at]:
        at += 1
    flips, last = 0, q[at]
    for c in q[at + 1 :]:
        if c:
            flips += (c > 0) != (last > 0)
            last = c
    return flips, at


def cauchy_bound(p: IntPoly) -> Rat:
    """B with every real root of p inside [-B, B]."""
    p = ptrim(list(p))
    m = max((abs(c) for c in p[:-1]), default=0)
    return 1 + Fraction(m, abs(p[-1]))


def _divide_out(p: IntPoly, r: Rat) -> tuple[IntPoly, int]:
    """(p over (den x - num)^m, m) with m the multiplicity of r = num/den in p."""
    lin = [-r.numerator, r.denominator]
    m = 0
    while p and _homogeneous(p, r.numerator, r.denominator) == 0:
        p = pquo(p, lin)
        m += 1
    return p, m


def _squarefree(p: IntPoly) -> IntPoly:
    """The squarefree part of p: p itself, or p over gcd(p, p')."""
    g = pgcd(p, pderiv(p))
    return p if len(g) == 1 else pquo(p, g)


def _bisect(sf: IntPoly) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """(the open intervals (a/w, b/w), as (a, b, w), that each hold one
    positive root of the squarefree sf, the roots hit at a midpoint as
    (numerator, denominator)): root counts split (0, cauchy_bound(sf)]
    until no piece holds more than one root.

    The points are numerators over a denominator that doubles with each
    split, as in `_refine`, so no step reduces a fraction."""
    bound = cauchy_bound(sf)
    total = _roots_above(sf, 0, 1)[0]
    # (a, b, w, roots above a/w, roots in the open (a/w, b/w)); b is no
    # root left to count: the bound is above all roots, a root at a
    # midpoint is hit
    stack = [(0, bound.numerator, bound.denominator, total, total)]
    isolated: list[tuple[int, int, int]] = []
    hit: list[tuple[int, int]] = []
    while stack:
        a, b, w, above_a, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            isolated.append((a, b, w))
            continue
        mid, w = a + b, 2 * w
        above_mid, at_mid = _roots_above(sf, mid, w)
        if at_mid:
            hit.append((mid, w))
        lo_cnt = above_a - above_mid - at_mid
        stack.append((2 * a, mid, w, above_a, lo_cnt))
        stack.append((mid, 2 * b, w, above_mid, cnt - lo_cnt - at_mid))
    return isolated, hit


def _rational_root(sf: IntPoly, a: int, b: int, w: int) -> tuple[int, int] | None:
    """The one root of sf inside the isolated (a/w, b/w), w > 0, as
    (numerator, denominator) if it is rational, else None.

    By Gauss's lemma a rational root of the integer polynomial sf is k/L
    with L = |lead(sf)| and k an integer, so a binary search over the k
    with a/w < k/L < b/w finds it, in about log2((b - a) L / w) sign
    tests.  The root is simple, so it lies below k/L iff sf(k/L) has the
    sign sf takes just left of b/w.  b/w may be a root the bisection hit;
    there that sign comes from sf'(b/w).  The endpoint a/w may be a root
    too (0, or a hit root), so its sign is never read.
    """
    lead = abs(sf[-1])
    fb = _homogeneous(sf, b, w)
    positive_left_of_b = fb > 0 if fb else _homogeneous(pderiv(sf), b, w) < 0
    lo = a * lead // w + 1
    hi = (b * lead - 1) // w
    while lo <= hi:
        k = (lo + hi) // 2
        v = _homogeneous(sf, k, lead)
        if not v:
            return k, lead
        if (v > 0) == positive_left_of_b:
            hi = k - 1
        else:
            lo = k + 1
    return None


@lru_cache(maxsize=4096)
def isolate_positive_roots(coeffs: tuple[int, ...]) -> tuple[tuple[Interval, int], ...]:
    """Enclosures for every positive real root of the real-rooted integer
    polynomial `coeffs`, with multiplicities.

    Rational roots come back as degenerate intervals.  A first `_bisect`
    of the squarefree part isolates every positive root, and
    `_rational_root` finds the rational ones in their intervals.  Those
    are divided out and the squarefree part of the rest is bisected
    again; with none found the first isolation is kept.  So the
    bisection that encloses the irrational roots always starts at the
    Cauchy bound of the squarefree part with the rational roots divided
    out.  `_refine` halves each of its intervals by sign tests until
    hi - lo <= lo * 2^-ROOT_REL_BITS.  A squarefree part of degree 2
    takes `_quadratic` in place of `_bisect` and `_rational_root`, and
    `_refine_quadratic` gives the interval `_refine` ends on.  A quadratic
    `coeffs` with real roots runs none of this: `_quadratic` gives its
    exact roots and the intervals `_bisect` would isolate, in integers,
    and only those intervals are refined.  The general path, `_isolate`,
    serves every other degree and a quadratic with no real root.  The
    union of returned intervals is pairwise disjoint and, counted with
    multiplicity, covers exactly the positive roots.

    Counts are Descartes' rule of signs (`_roots_above`), exact because
    the one caller passes the characteristic polynomial of a symmetric
    Gram matrix g^T g, so the polynomial and its factors are real-rooted.

    The result is memoized on the coefficient tuple and is itself a
    tuple, so no caller can change a shared result: in a search, a matrix
    and its inverse of determinant 1 share the characteristic polynomial
    of their Gram matrices, and so do transposes.
    """
    work = ptrim(list(coeffs))
    if pdeg(work) < 1:
        return ()
    if len(work) == 3 and (closed := _quadratic(*work)) is not None:
        exact, isolated = closed
        out = [(point(Fraction(n, d)), m) for n, d, m in exact]
        for a, b, w in isolated:
            a, b, w = _refine_quadratic(work, a, b, w)
            out.append((Interval(Fraction(a, w), Fraction(b, w)), 1))
        return tuple(out)
    return _isolate(work)


def _isolate(work: IntPoly) -> tuple[tuple[Interval, int], ...]:
    """The body of `isolate_positive_roots` for any degree >= 1, the one
    path of degree 3 and up, and the reference of `_quadratic`."""
    sf = _squarefree(work)
    isolated, roots = _positive_roots(sf, True)
    rational = [Fraction(*r) for r in roots]
    out: list[tuple[Interval, int]] = []
    if rational:
        for r in rational:
            work, m = _divide_out(work, r)
            out.append((point(r), m))
        sf = _squarefree(work)
        isolated = _positive_roots(sf, False)[0]
    refine = _refine_quadratic if len(sf) == 3 else _refine
    for a, b, w in isolated:
        a, b, w = refine(sf, a, b, w)
        # the roots of work in (a/w, b/w]; b/w is rational, so no root
        m = 1 if len(sf) == len(work) else _roots_above(work, a, w)[0] - _roots_above(work, b, w)[0]
        out.append((Interval(Fraction(a, w), Fraction(b, w)), m))
    out.sort(key=lambda t: (t[0].lo, t[0].hi))
    return tuple(out)


def _positive_roots(sf: IntPoly, rational: bool) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """(the `_bisect` intervals (a, b, w) of the positive roots of the
    squarefree sf, the positive rational roots as (numerator,
    denominator)).  A quadratic sf with real roots takes `_quadratic`,
    whose intervals hold only its irrational roots; otherwise `_bisect`
    isolates every root, and unless `rational` is False, as when no
    rational root is left, `_rational_root` reads one in each interval."""
    closed = _quadratic(*sf) if len(sf) == 3 else None
    if closed is not None:
        exact, isolated = closed
        return isolated, [(n, d) for n, d, _ in exact]
    isolated, roots = _bisect(sf)
    if rational:
        roots += [r for a, b, w in isolated if (r := _rational_root(sf, a, b, w)) is not None]
    return isolated, roots


def _refine(sf: IntPoly, a: int, b: int, w: int) -> tuple[int, int, int]:
    """Bisection by sign tests: the one root of sf inside the isolated
    (a/w, b/w), w > 0, is bisected down to relative width
    2^-ROOT_REL_BITS, and returned as the (a, b, w) of its last interval.

    The open interval holds exactly one root, as the Descartes counts of
    `isolate_positive_roots` show exactly on the real-rooted sf.  That
    root is simple and irrational, and b/w is the Cauchy bound or a
    midpoint, so no point the bisection reads is a root, and the root
    lies below mid iff sf(mid) has the sign of sf(b/w).  The endpoint a/w
    may be the root 0, so its sign is never read.

    The points are numerators over one denominator that doubles each step.
    """
    positive_at_b = _homogeneous(sf, b, w) > 0
    while a <= 0 or (b - a) << ROOT_REL_BITS > a:
        mid, w = a + b, 2 * w
        if (_homogeneous(sf, mid, w) > 0) == positive_at_b:
            a, b = 2 * a, mid
        else:
            a, b = mid, 2 * b
    return a, b, w


def _quadratic(c0: int, c1: int, c2: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]] | None:
    """What the general path `_isolate` finds for c0 + c1 x + c2 x^2,
    c2 != 0, in closed form, ascending: (the positive rational roots as
    (numerator, denominator, multiplicity), the `_bisect` intervals
    (a, b, w) of the positive irrational roots), or None when
    D = c1^2 - 4 c0 c2 < 0, which no Gram polynomial has.

    With c2 > 0 (every coefficient negated if need be, which keeps the
    roots) they are (-c1 +- sqrt(D)) / 2c2.  A square D gives them
    exactly, one root of multiplicity 2 at D = 0.  Otherwise c0 != 0, and
    the roots, of product c0/c2 and sum -c1/c2, are one positive at
    c0 < 0, two at c1 < 0 < c0 and none else.  `_bisect` splits (0, B) at B = Bn/Bd, the Cauchy bound, so
    its level-s pieces are (i Bn, (i + 1) Bn) / (Bd 2^s): it keeps one
    root at level 0, and two at the least level s >= 1 whose indices
    i = floor(rho Bd 2^s) // Bn differ, read as in `_refine_quadratic`
    from one isqrt per level.
    """
    if c2 < 0:
        c0, c1, c2 = -c0, -c1, -c2
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return None
    r = isqrt(disc)
    if r * r == disc:
        m = 2 if r == 0 else 1
        return [(n, 2 * c2, m) for n in sorted({-c1 - r, -c1 + r}) if n > 0], []
    top = max(abs(c0), abs(c1))
    g = gcd(top, c2)
    bn, bd = (c2 + top) // g, c2 // g  # cauchy_bound, 1 + top / c2, reduced
    if not (c1 < 0 < c0):
        return [], [(0, bn, bd)] if c0 < 0 else []
    u = bd
    while True:  # level s >= 1 reads u = Bd 2^s
        u <<= 1
        r = isqrt(disc * u * u)
        lo = (-c1 * u - r - 1) // (2 * c2) // bn
        hi = (r - c1 * u) // (2 * c2) // bn
        if lo != hi:
            return [], [(lo * bn, (lo + 1) * bn, u), (hi * bn, (hi + 1) * bn, u)]


def _refine_quadratic(sf: IntPoly, a: int, b: int, w: int) -> tuple[int, int, int]:
    """`_refine` in closed form, for a squarefree quadratic
    sf = c0 + c1 x + c2 x^2 whose root in (a/w, b/w) is irrational, so
    that D = c1^2 - 4 c0 c2 is no square.

    Each bisection step keeps the numerator width L = b - a and doubles
    the denominator, so level s holds the grid interval
    (a_s, a_s + L) / (w 2^s), a_s = a 2^s + j L, that contains the root
    rho = (-c1 +- sqrt(D)) / (2 c2).  With K = rho w and G(s) the floor
    of K 2^s, j is floor((G(s) - a 2^s) / L), as K 2^s is no integer.
    With c2 > 0 (sf negated if need be, which keeps its roots), rho is
    the larger root, +sqrt(D), iff sf(b/w) > 0, and
    G(t) = floor((P +- sqrt(Q)) / 2c2) with u = w 2^t, P = -c1 u and
    Q = D u^2, no square; for r = isqrt(Q) that is (P + r) // 2c2 or
    (P - r - 1) // 2c2, and G(s) = G(t) >> (t - s) for s <= t.

    The bisection stops at the first level with a_s >= M = L 2^ROOT_REL_BITS
    (then a_s > 0).  As a_s <= G(s) < a_s + L, a level with G(s) < M
    fails and the one after the first level s1 with G(s1) >= M passes,
    since G(s1 + 1) >= 2M >= M + L; so the stop is at s1 or s1 + 1.  A
    G(t) >= 2M gives both from shifts of it: s1 is the least s >= 0
    with G(t) // M >= 2^(t - s).  The first t is the one K > a asks for
    (b standing in for a = 0); a G(t) below 2M sets the next t from its
    bit length.
    """
    c0, c1, c2 = sf
    disc = c1 * c1 - 4 * c0 * c2
    larger = (_homogeneous(sf, b, w) > 0) == (c2 > 0)
    if c2 < 0:
        c1, c2 = -c1, -c2
    span = b - a
    bar = span << ROOT_REL_BITS
    t = max(0, bar.bit_length() + 2 - (a or b).bit_length())
    while True:
        u = w << t
        r = isqrt(disc * u * u)
        g = (r - c1 * u) // (2 * c2) if larger else (-c1 * u - r - 1) // (2 * c2)
        q = g // bar
        if q > 1:
            break
        # K 2^t >= 2^(bitlen(g) - 1), so this t has G(t) >= 2M; with
        # g = 0, K 2^t < 1 only, and t grows by at least the bits of 2M
        t += bar.bit_length() + 2 - g.bit_length() + (0 if g else t)
    s = max(0, t + 1 - q.bit_length())  # s1; s1 + 1 <= t, as q >= 2
    while True:
        base = a << s
        lo = base + span * (((g >> (t - s)) - base) // span)
        if lo >= bar:
            return lo, lo + span, w << s
        s += 1
