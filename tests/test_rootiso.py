from fractions import Fraction as F
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.rootiso import (
    Interval,
    _refine,
    cauchy_bound,
    count_roots,
    isolate_positive_roots,
    peval,
    pgcd,
    pquo,
    rational_roots,
    squarefree_part,
    sturm_sequence,
)
from oracles import interval_contains, interval_power, pmul, sturm_refine


def poly_from_roots(roots):
    p = [F(1)]
    for r in roots:
        p = pmul(p, [-F(r), F(1)])
    return p


def test_poly_division_roundtrip():
    p = poly_from_roots([1, 2, 3])
    q = poly_from_roots([2])
    assert pquo(p, q) == poly_from_roots([1, 3])


def test_gcd_and_squarefree():
    p = pmul(poly_from_roots([1, 1, 2]), [F(1)])
    sf = squarefree_part(p)
    assert peval(sf, F(1)) == 0 and peval(sf, F(2)) == 0
    assert pgcd(poly_from_roots([1, 2]), poly_from_roots([2, 3])) == poly_from_roots([2])


def test_sturm_counts_known_roots():
    p = poly_from_roots([F(1, 2), 3, 7])
    seq = sturm_sequence(p)
    assert count_roots(seq, F(0), F(10)) == 3
    assert count_roots(seq, F(1), F(5)) == 1
    b = cauchy_bound(p)
    assert all(r <= b for r in (F(1, 2), F(3), F(7)))


def test_rational_roots_found():
    p = poly_from_roots([F(3, 2), -2, 5])
    assert rational_roots(p) == [F(-2), F(3, 2), F(5)]


def test_isolation_with_rational_and_irrational_roots():
    # roots: 2 (double), and 1 +- sqrt(2)/2 via x^2 - 2x + 1/2
    p = pmul(poly_from_roots([2, 2]), [F(1, 2), F(-2), F(1)])
    out = isolate_positive_roots(p)
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
    out = isolate_positive_roots(p)
    assert len(out) == 1
    iv, m = out[0]
    assert m == 1 and interval_contains(iv, F(4))


def test_interval_arithmetic():
    a = Interval(F(1), F(2))
    b = Interval(F(3), F(4))
    assert (a * b).lo == 3 and (a * b).hi == 8
    q = b.divide(a)
    assert q.lo == F(3, 2) and q.hi == 4
    assert interval_power(a, 2).lo == 1 and interval_power(a, 2).hi == 4


def _one_root_brackets(sf, points):
    """Pairs a < b of the points whose open interval holds exactly one root of sf."""
    seq = sturm_sequence(sf)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if count_roots(seq, a, b) - (peval(sf, b) == 0) == 1:
                yield a, b


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=3, unique=True),
    st.lists(st.integers(2, 60).filter(lambda q: isqrt(q) ** 2 != q), min_size=1, max_size=3, unique=True),
)
def test_refine_and_rational_roots_match_references(rational, irrational_sq):
    # square-free: distinct rational roots times distinct x^2 - q with q no square
    sf = poly_from_roots(rational)
    for q in irrational_sq:
        sf = pmul(sf, [F(-q), F(0), F(1)])
    assert rational_roots(sf) == sorted(rational)
    near = {F(isqrt(q * 4096) + d, 64) for q in irrational_sq for d in (0, 1)}
    points = sorted({F(0), cauchy_bound(sf)} | {r for r in rational if r > 0} | near)
    brackets = list(_one_root_brackets(sf, points))
    assert brackets
    for a, b in brackets:
        assert _refine(sf, a, b) == sturm_refine(sf, a, b), (a, b)


def test_refine_with_a_root_at_an_endpoint():
    # sf(0) = 0 with the bracket starting at 0
    sf = pmul([F(0), F(1)], [F(-2), F(0), F(1)])
    assert _refine(sf, F(0), F(2)) == sturm_refine(sf, F(0), F(2))
    # left end a split-off rational root, then right end one
    for r in (F(1), F(2)):
        sf = pmul(poly_from_roots([r]), [F(-3), F(0), F(1)])
        assert _refine(sf, F(1), F(2)) == sturm_refine(sf, F(1), F(2))
    # both ends roots
    sf = pmul(poly_from_roots([F(3, 2), F(2)]), [F(-3), F(0), F(1)])
    assert _refine(sf, F(3, 2), F(2)) == sturm_refine(sf, F(3, 2), F(2))
    # a root the bisection hits exactly
    sf = pmul(poly_from_roots([F(3, 2)]), [F(-5), F(0), F(1)])
    assert _refine(sf, F(1), F(2)) == sturm_refine(sf, F(1), F(2)) == (F(3, 2), F(3, 2))
