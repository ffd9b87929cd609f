from fractions import Fraction as F
from math import isqrt, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freecert import rootiso
from freecert.rootiso import (
    Interval,
    _bisect,
    _homogeneous,
    _rational_root,
    _refine,
    _refine_quadratic,
    _roots_above,
    cauchy_bound,
    isolate_positive_roots,
    pderiv,
    pgcd,
    pquo,
    prem,
    ptrim,
)
from freecert.scalar import clear_denominators
from oracles import (
    fraction_count_roots,
    fraction_isolate_positive_roots,
    fraction_pderiv,
    fraction_pgcd,
    fraction_squarefree_part,
    fraction_sturm_sequence,
    interval_contains,
    interval_divide,
    interval_mul,
    interval_power,
    peval,
    pmul,
    sturm_refine,
    sympy_rational_roots,
)


def _cleared(p):
    """p times the lcm of its denominators."""
    return clear_denominators(p)[0]


def poly_from_roots(roots):
    p = [F(1)]
    for r in roots:
        p = pmul(p, [-F(r), F(1)])
    return p


def test_poly_division_roundtrip():
    p = _cleared(poly_from_roots([1, F(2, 3), 3]))  # (x - 1)(3x - 2)(x - 3)
    assert pquo(p, [-2, 3]) == [3, -4, 1]
    with pytest.raises(ArithmeticError):
        pquo(p, [-2, 1])


def test_gcd_and_squarefree():
    p = _cleared(poly_from_roots([1, 1, 2]))
    sf = pquo(p, pgcd(p, pderiv(p)))
    assert sf == [2, -3, 1]
    assert pgcd(_cleared(poly_from_roots([1, 2])), _cleared(poly_from_roots([2, 3]))) == [-2, 1]
    assert pgcd([-4, 6], [0, -2, 3]) == [-2, 3]  # primitive, leading coefficient positive


def test_roots_above_counts_known_roots():
    # (2x - 1)(x - 3)^2(x - 7): the double root counts twice
    p = _cleared(poly_from_roots([F(1, 2), 3, 3, 7]))
    assert _roots_above(p, 0, 1) == (4, 0)
    assert _roots_above(p, 1, 2) == (3, 1)
    assert _roots_above(p, 1, 1) == (3, 0)
    assert _roots_above(p, 3, 1) == (1, 2)
    assert _roots_above(p, 10, 1) == (0, 0)
    b = cauchy_bound(p)
    assert all(r <= b for r in (F(1, 2), F(3), F(7)))


def test_rational_roots_found():
    p = pmul(poly_from_roots([F(3, 2), -2, 5, 5]), [F(-2), F(0), F(1)])
    assert sympy_rational_roots(p) == {F(-2): 1, F(3, 2): 1, F(5): 2}
    exact = [(iv.lo, m) for iv, m in isolate_positive_roots(tuple(_cleared(p))) if iv.exact]
    assert exact == [(F(3, 2), 1), (F(5), 2)]


def test_isolation_with_rational_and_irrational_roots():
    # roots: 2 (double), and 1 +- sqrt(2)/2 via x^2 - 2x + 1/2
    p = pmul(poly_from_roots([2, 2]), [F(1, 2), F(-2), F(1)])
    out = isolate_positive_roots(tuple(_cleared(p)))
    assert sum(m for _, m in out) == 4
    exact = [iv for iv, m in out if iv.exact]
    assert any(iv.lo == 2 and m == 2 for iv, m in out if iv.exact)
    irr = [iv for iv, _ in out if not iv.exact]
    assert len(irr) == 2
    # 1 - sqrt(2)/2 ~ 0.2929, 1 + sqrt(2)/2 ~ 1.7071; check enclosure via sign change
    q = [F(1, 2), F(-2), F(1)]
    for iv in irr:
        assert peval(q, iv.lo) * peval(q, iv.hi) < 0
        assert iv.hi - iv.lo <= iv.lo * F(1, 2**30)
    assert exact  # degenerate intervals mark the rational root


def test_isolation_ignores_nonpositive_roots():
    p = poly_from_roots([-1, 0, 4])
    out = isolate_positive_roots(tuple(_cleared(p)))
    assert len(out) == 1
    iv, m = out[0]
    assert m == 1 and interval_contains(iv, F(4))


BIG_PRIMES = (200003, 200009, 200017, 200023, 200029, 200033, 200041, 200063)


def test_isolation_finds_rational_roots_with_large_prime_factors():
    # every prime factor of the roots' numerators and denominators, and of
    # the coefficients' content, lies above 200,000, where a rational root
    # test by trial division would have to factor past them
    n = 200003 * 200009
    assert list(isolate_positive_roots((2 * n, -3 * n, n))) == [(Interval(F(1), F(1)), 1), (Interval(F(2), F(2)), 1)]
    p = (-2 * n, 5 * n, -4 * n, n)  # N (x - 1)^2 (x - 2)
    assert list(isolate_positive_roots(p)) == [(Interval(F(1), F(1)), 2), (Interval(F(2), F(2)), 1)]
    r, s = F(200017 * 200023, 200029), F(200033, 200041 * 200063)
    p = _cleared(pmul(poly_from_roots([r, s, s]), [F(-2), F(0), F(1)]))
    out = isolate_positive_roots(tuple(p))
    assert [(iv, m) for iv, m in out if iv.exact] == [(Interval(s, s), 2), (Interval(r, r), 1)]
    assert list(out) == fraction_isolate_positive_roots(p)


def test_isolation_of_the_gram_polynomial_of_a_repeated_rational_root():
    # charpoly(g^T g) of the symmetric 3x3 g = [[1451025, 1201200, 900900],
    # [1201200, 1030033, 756756], [900900, 756756, 588592]] and its
    # reciprocal, the one of g^-1: the roots 442050625 (double) and
    # 9166361760000 come out exact
    p = (-1791187339977687020062500000000, 8104187298723262890625, -9167245861250, 1)
    assert list(isolate_positive_roots(p)) == [(Interval(F(442050625), F(442050625)), 2), (Interval(F(9166361760000), F(9166361760000)), 1)]
    q = (-1, 9167245861250, -8104187298723262890625, 1791187339977687020062500000000)
    one_over = [(F(1, 9166361760000), 1), (F(1, 442050625), 2)]
    assert [(iv.lo, m) for iv, m in isolate_positive_roots(q) if iv.exact] == one_over
    assert list(isolate_positive_roots(q)) == fraction_isolate_positive_roots(list(q))


def test_isolation_counts_a_repeated_root_below_a_split_off_one():
    # N (x - r)(x^2 - c)^2 with c = 2 - 1/r: the Cauchy bound of the
    # squarefree part is 2r, so the first bisection hits r at its first
    # midpoint; r is split off, and sqrt(c), just below r, is isolated
    # again on x^2 - c alone and counted double
    r = 1 + F(1, 2**40)
    c = 2 - 1 / r
    sf = pmul([-r, F(1)], [-c, F(0), F(1)])
    p = [200003 * 200009 * x for x in _cleared(pmul(sf, [-c, F(0), F(1)]))]
    assert cauchy_bound(_cleared(sf)) == 2 * r
    out = isolate_positive_roots(tuple(p))
    assert [(iv.exact, m) for iv, m in out] == [(False, 2), (True, 1)]
    assert out[0][0].hi < r and out[1][0] == Interval(r, r)
    assert list(out) == fraction_isolate_positive_roots(p)


def test_isolation_is_memoized_on_the_cleared_polynomial():
    """x^2/2 - 3x + 1/2 clears to x^2 - 6x + 1, so the integer polynomial
    is a hit; the shared result is a tuple and equals a fresh isolation."""
    isolate_positive_roots.cache_clear()
    first = isolate_positive_roots(tuple(_cleared([F(1, 2), F(-3), F(1, 2)])))
    assert isinstance(first, tuple) and len(first) == 2
    assert isolate_positive_roots((1, -6, 1)) is first
    assert isolate_positive_roots.cache_info().hits == 1
    assert first == isolate_positive_roots.__wrapped__((1, -6, 1))


def test_interval_arithmetic():
    a = Interval(F(1), F(2))
    b = Interval(F(3), F(4))
    assert interval_mul(a, b) == Interval(F(3), F(8))
    q = interval_divide(b, a)
    assert q.lo == F(3, 2) and q.hi == 4
    assert interval_power(a, 2).lo == 1 and interval_power(a, 2).hi == 4


def _over_one(a, b) -> tuple[int, int, int]:
    """The rationals a and b as numerators over one denominator."""
    w = lcm(a.denominator, b.denominator)
    return a.numerator * (w // a.denominator), b.numerator * (w // b.denominator), w


def _rational_root_of(sf, a, b):
    """`_rational_root` of the cleared sf on the bracket (a, b), as a Fraction or None."""
    r = _rational_root(_cleared(sf), *_over_one(a, b))
    return None if r is None else F(*r)


def _refined(sf, a, b):
    """`_refine` of the cleared sf on the bracket (a, b), as two Fractions."""
    na, nb, w = _refine(_cleared(sf), *_over_one(a, b))
    return F(na, w), F(nb, w)


def _one_root_brackets(sf, points):
    """Pairs a < b of the points whose open interval holds exactly one root of sf."""
    seq = fraction_sturm_sequence(sf)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if fraction_count_roots(seq, a, b) - (peval(sf, b) == 0) == 1:
                yield a, b


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=3, unique=True),
    st.lists(st.integers(2, 60).filter(lambda q: isqrt(q) ** 2 != q), min_size=1, max_size=3, unique=True),
)
def test_refine_and_rational_roots_match_references(rational, irrational_sq):
    # square-free: distinct rational roots times distinct x^2 - q with q no
    # square; a bracket's one root is rational iff a rational root is in
    # it, and `_refine` takes only brackets of an irrational root whose
    # right end is no root
    sf = poly_from_roots(rational)
    for q in irrational_sq:
        sf = pmul(sf, [F(-q), F(0), F(1)])
    near = {F(isqrt(q * 4096) + d, 64) for q in irrational_sq for d in (0, 1)}
    points = sorted({F(0), cauchy_bound(sf)} | {r for r in rational if r > 0} | near)
    brackets = list(_one_root_brackets(sf, points))
    assert brackets
    for a, b in brackets:
        root = next((r for r in rational if a < r < b), None)
        assert _rational_root_of(sf, a, b) == root, (a, b)
        if root is None and b not in rational:
            assert _refined(sf, a, b) == sturm_refine(sf, a, b), (a, b)


def test_refine_with_a_root_at_an_endpoint():
    # sf(0) = 0 with the bracket starting at 0
    sf = pmul([F(0), F(1)], [F(-2), F(0), F(1)])
    assert _refined(sf, F(0), F(2)) == sturm_refine(sf, F(0), F(2))
    assert _rational_root_of(sf, F(0), F(2)) is None
    # left end a rational root, whose sign is never read
    sf = pmul(poly_from_roots([F(1)]), [F(-3), F(0), F(1)])
    assert _refined(sf, F(1), F(2)) == sturm_refine(sf, F(1), F(2))
    assert _rational_root_of(sf, F(1), F(2)) is None
    # right end a root the bisection hit: the sign left of it is -sf'(b)'s
    sf = pmul(poly_from_roots([F(2)]), [F(-3), F(0), F(1)])
    assert _rational_root_of(sf, F(1), F(2)) is None
    for r in (F(5, 4), F(7, 4), F(9, 5)):
        sf = pmul(poly_from_roots([r, F(2)]), [F(-5), F(0), F(1)])
        assert _rational_root_of(sf, F(1), F(2)) == r
    # both ends roots
    sf = pmul(poly_from_roots([F(3, 2), F(2)]), [F(-3), F(0), F(1)])
    assert _rational_root_of(sf, F(3, 2), F(2)) is None
    # the root at a lattice point in the middle
    sf = pmul(poly_from_roots([F(3, 2)]), [F(-5), F(0), F(1)])
    assert _rational_root_of(sf, F(1), F(2)) == F(3, 2)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
repeated_rationals = st.lists(st.tuples(small_rationals, st.integers(1, 3)), max_size=3)
repeated_quadratics = st.lists(st.tuples(st.integers(2, 40).filter(lambda q: isqrt(q) ** 2 != q), st.integers(1, 2)), max_size=2)


def _real_rooted(lead, rational, irrational_sq):
    """lead times (x - r)^m for each (r, m) and (x^2 - q)^m for each (q, m)."""
    p = [lead]
    for r, m in rational:
        p = pmul(p, poly_from_roots([r] * m))
    for q, m in irrational_sq:
        for _ in range(m):
            p = pmul(p, [F(-q), F(0), F(1)])
    return p


@settings(max_examples=60, deadline=None)
@given(repeated_rationals, repeated_quadratics, st.fractions(min_value=F(1, 5), max_value=8, max_denominator=5))
def test_isolation_matches_fraction_reference(rational, irrational_sq, lead):
    # rational and quadratic irrational roots, each possibly repeated, so
    # both the squarefree shortcut and the multiplicity count are exercised
    p = _real_rooted(lead, rational, irrational_sq)
    assert list(isolate_positive_roots(tuple(_cleared(p)))) == fraction_isolate_positive_roots(p)


big_factor = st.builds(lambda small, big: small * big, st.integers(1, 3), st.sampled_from((1,) + BIG_PRIMES))
big_rationals = st.builds(lambda sign, n, d: sign * F(n, d), st.sampled_from((1, 1, -1)), big_factor, big_factor)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(big_rationals, st.integers(1, 2)), min_size=1, max_size=3), repeated_quadratics, st.sampled_from((1,) + BIG_PRIMES))
def test_isolation_matches_reference_on_roots_with_large_prime_factors(rational, irrational_sq, lead):
    # numerators and denominators with prime factors above 200,000, beyond
    # what a rational root test could factor by trial division up to there
    p = _real_rooted(lead, rational, irrational_sq)
    out = isolate_positive_roots(tuple(_cleared(p)))
    assert list(out) == fraction_isolate_positive_roots(p)
    assert {iv.lo: m for iv, m in out if iv.exact} == {r: m for r, m in sympy_rational_roots(p).items() if r > 0}


def _fraction_count_with_multiplicity(p, a, b):
    """Roots of p in (a, b] counted with multiplicity, by Sturm counts on
    squarefree parts: a root of multiplicity m is a root of the first m
    of p, gcd(p, p'), the gcd of that and its derivative, and so on."""
    total = 0
    while len(ptrim(p)) >= 2:
        total += fraction_count_roots(fraction_sturm_sequence(fraction_squarefree_part(p)), a, b)
        p = fraction_pgcd(p, fraction_pderiv(p))
    return total


@settings(max_examples=60, deadline=None)
@given(repeated_rationals, repeated_quadratics, st.fractions(min_value=-8, max_value=8, max_denominator=5).filter(bool), small_rationals)
@example([(F(3), 2)], [], F(-1), F(0))  # a negative leading coefficient
@example([(F(0), 2)], [(2, 1)], F(1), F(0))  # x a double root
def test_roots_above_matches_fraction_counts(rational, irrational_sq, lead, x):
    # Descartes' rule counts exactly on these real-rooted polynomials
    p = _real_rooted(lead, rational, irrational_sq)
    ip = _cleared(p)
    bound = cauchy_bound(ip)
    for y in [x] + [r for r, _ in rational]:
        at = sum(m for r, m in rational if r == y)
        assert _roots_above(ip, y.numerator, y.denominator) == (_fraction_count_with_multiplicity(p, y, bound), at), y


def test_prem_is_a_positive_multiple_of_the_remainder():
    # negative leading coefficient of the divisor, odd degree drop
    p, q = [5, -1, 0, 3, 2], [1, 4, -3]
    r = prem(p, q)
    assert len(r) == 2
    quo = [F(c) for c in p]
    for _ in range(3):  # long division over Q
        f = quo[-1] / q[-1]
        shift = len(quo) - len(q)
        for i, c in enumerate(q):
            quo[i + shift] -= f * c
        quo.pop()
    ratio = F(r[-1]) / quo[-1]
    assert ratio > 0 and all(F(x) == ratio * y for x, y in zip(r, quo))


# ---------------------------------------------------------------------------
# Quadratics: the closed forms against the bisection
# ---------------------------------------------------------------------------


@st.composite
def quadratics(draw, kinds=("irrational", "rational", "repeated")):
    """An integer quadratic, lowest degree first, with real roots of one
    of `kinds`: m +- sqrt(d) for rationals m and d > 0 with d no square,
    two distinct rationals, or one rational twice.  Its numbers have up to
    4, 40 or 210 bits, its leading coefficient either sign; a monic one,
    up to sign, has integer roots or m and d."""
    bits, monic = draw(st.sampled_from((4, 40, 210))), draw(st.booleans())
    num, den = st.integers(-(2**bits), 2**bits), st.integers(1, 1 if monic else 2**bits)
    kind = draw(st.sampled_from(kinds))
    if kind == "irrational":
        m, d = F(draw(num), draw(den)), F(draw(st.integers(1, 2**bits)), draw(den))
        assume(isqrt(d.numerator * d.denominator) ** 2 != d.numerator * d.denominator)
        p = [m * m - d, -2 * m, F(1)]
    elif kind == "rational":
        r, t = F(draw(num), draw(den)), F(draw(num), draw(den))
        assume(r != t)
        p = poly_from_roots([r, t])
    else:
        r = F(draw(num), draw(den))
        p = poly_from_roots([r, r])
    lead = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 1 if monic else 2**bits))
    return tuple(lead * c for c in _cleared(p))


def _bisected(coeffs):
    """`isolate_positive_roots` of coeffs on the general path: every
    squarefree part goes to `_rational_root`, and `_refine` bisects every
    irrational root."""
    with mock.patch.object(rootiso, "_is_square", lambda n: True), mock.patch.object(rootiso, "_refine_quadratic", _refine):
        return isolate_positive_roots.__wrapped__(coeffs)


@settings(max_examples=150, deadline=None)
@given(quadratics(), st.lists(st.integers(0, 2**210), max_size=2))
@example((1, -(2**100), 1), [])  # roots near 2^-100 and 2^100
@example((-3, 0, 1), [])  # x^2 - 3
@example((6, -5, 1), [])  # (x - 2)(x - 3)
@example((-4, 4, -1), [])  # -(x - 2)^2
def test_quadratic_isolation_matches_the_bisection(coeffs, roots):
    # the quadratic times x - r for each r in roots: its squarefree part
    # is quadratic once the rational roots are divided out
    p = list(coeffs)
    for r in roots:
        p = [x - r * y for x, y in zip([0] + p, p + [0])]
    assert isolate_positive_roots.__wrapped__(tuple(p)) == _bisected(tuple(p))


def _floor_of_root(sf, a, b, w, den):
    """floor(rho den) for the one root rho of sf in the isolated
    (a/w, b/w), rho irrational, by a binary search of sign tests."""
    positive_at_b = _homogeneous(sf, b, w) > 0
    lo, hi = a * den // w, -(-b * den // w)  # lo <= rho den < hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        inside = a * den < mid * w < b * den
        if mid * w >= b * den or (inside and (_homogeneous(sf, mid, den) > 0) == positive_at_b):
            hi = mid
        else:
            lo = mid
    return lo


@settings(max_examples=150, deadline=None)
@given(quadratics(("irrational",)), st.integers(1, 2**100), st.integers(1, 2**12), st.integers(0, 2**12))
@example((1, -(2**100), 1), 1, 1, 0)
def test_quadratic_refine_matches_the_bisection(coeffs, den, span, offset):
    # on each interval `_bisect` isolates, and on the interval of numerator
    # width `span` over `den` that holds its root `offset % span` from its
    # left end's floor
    sf = list(coeffs)
    for a, b, w in _bisect(sf)[0]:
        assert _refine_quadratic(sf, a, b, w) == _refine(sf, a, b, w)
        lo = _floor_of_root(sf, a, b, w, den) - offset % span
        if lo >= 0 and _roots_above(sf, lo, den)[0] - _roots_above(sf, lo + span, den)[0] == 1:
            assert _refine_quadratic(sf, lo, lo + span, den) == _refine(sf, lo, lo + span, den)


def test_quadratic_refine_stops_where_the_width_bound_is_met_exactly():
    # 1/sqrt(2) w lies in (2^30, 2^30 + 1) for this w: the interval of
    # width 1 starting at 2^30 meets hi - lo <= lo 2^-ROOT_REL_BITS with
    # equality, so both keep it
    sf, w = [-1, 0, 2], isqrt(2**61) + 1
    a = 1 << rootiso.ROOT_REL_BITS
    assert _refine_quadratic(sf, a, a + 1, w) == _refine(sf, a, a + 1, w) == (a, a + 1, w)
