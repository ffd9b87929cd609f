import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freecert.scalar import (
    ARCH,
    MR_LIMIT,
    Place,
    _is_prime,
    clear_denominators,
    cmp_sqrt_sum,
    format_rat,
    padic,
    parse_place,
    parse_rat,
    sqrt_lower,
    sqrt_upper,
)
from oracles import abs_value, fraction_cmp_sqrt_sum, padic_valuation


def test_place_validation():
    assert ARCH.kind == "archimedean"
    assert padic(5).prime == 5
    with pytest.raises(ValueError):
        Place("p-adic", 6)
    with pytest.raises(ValueError):
        Place("p-adic")
    with pytest.raises(ValueError):
        Place("archimedean", 3)
    with pytest.raises(ValueError):
        Place("complex")


def test_place_primality_is_deterministic_miller_rabin():
    assert padic(1000000000039).prime == 1000000000039
    with pytest.raises(ValueError):
        padic(3215031751)  # strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="prime too large"):
        padic(100000000000000000000000000319)


#: The least strong pseudoprime to the first k prime bases, k = 1..13
#: (OEIS A014233); the last is MR_LIMIT itself.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def test_miller_rabin_agrees_with_sympy():
    import sympy

    assert [n for n in range(10**5) if _is_prime(n)] == list(sympy.primerange(10**5))
    assert STRONG_PSEUDOPRIMES[-1] == MR_LIMIT
    for n in STRONG_PSEUDOPRIMES[:-1]:
        assert not _is_prime(n) and not sympy.isprime(n), n
        assert _is_prime(sympy.nextprime(n)), n
    # 53 - 1 = 4 * 13: the base 2 reaches -1 only at the squaring step
    assert parse_place("p:53").prime == 53


def test_valuation_oracle_values():
    # 50 = 2 * 5^2
    assert padic_valuation(F(50), 5) == 2
    assert padic_valuation(F(1), 7) == 0
    # 49 = 7^2, numerator coprime to 7
    assert padic_valuation(F(3, 49), 7) == -2
    assert padic_valuation(-250, 5) == 3  # plain integers need no Fraction


def test_parse_place():
    assert parse_place("arch") == ARCH
    assert parse_place("p:5") == padic(5)
    for bad in ("p:6", "p:x", "q:5", "Arch", ""):
        with pytest.raises(ValueError):
            parse_place(bad)


def test_valuation_of_zero():
    with pytest.raises(ZeroDivisionError):
        padic_valuation(F(0), 5)


def test_abs_value_oracle_values():
    assert abs_value(F(-3, 2), ARCH) == F(3, 2)
    assert abs_value(F(50), padic(5)) == F(1, 25)
    assert abs_value(F(0), ARCH) == 0
    assert abs_value(F(0), padic(7)) == 0


def test_abs_multiplicative():
    rng = random.Random(7)
    places = [ARCH, padic(2), padic(5)]
    for _ in range(300):
        x = F(rng.randint(-60, 60), rng.randint(1, 40))
        y = F(rng.randint(-60, 60), rng.randint(1, 40))
        for pl in places:
            assert abs_value(x * y, pl) == abs_value(x, pl) * abs_value(y, pl)


def test_ultrametric_inequality():
    rng = random.Random(11)
    for _ in range(300):
        x = F(rng.randint(-90, 90), rng.randint(1, 50))
        y = F(rng.randint(-90, 90), rng.randint(1, 50))
        for p in (2, 3, 5):
            pl = padic(p)
            assert abs_value(x + y, pl) <= max(abs_value(x, pl), abs_value(y, pl))


def test_canonical_form_of_results():
    v = abs_value(F(36, 8), padic(3))
    assert v.denominator > 0
    from math import gcd

    assert gcd(v.numerator, v.denominator) == 1


def test_sqrt_bounds_sandwich():
    rng = random.Random(3)
    for _ in range(200):
        q = F(rng.randint(0, 500), rng.randint(1, 100))
        lo, hi = sqrt_lower(q), sqrt_upper(q)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= F(1, 2**39)


def test_sqrt_bounds_exact_on_squares():
    assert sqrt_lower(F(9, 4)) == sqrt_upper(F(9, 4)) == F(3, 2)
    assert sqrt_lower(F(0)) == 0


def test_cmp_sqrt_sum_exact():
    # sqrt(1/4) + sqrt(1/4) == sqrt(1)
    assert cmp_sqrt_sum((1, 4), (1, 4), (1, 1)) == 0
    # sqrt(2) + sqrt(2) < sqrt(9)
    assert cmp_sqrt_sum((2, 1), (2, 1), (9, 1)) == -1
    # sqrt(4) + sqrt(1) > sqrt(8)
    assert cmp_sqrt_sum((4, 1), (1, 1), (8, 1)) == 1
    # a pair need not be reduced: sqrt(2/8) + sqrt(3/12) == sqrt(4/4)
    assert cmp_sqrt_sum((2, 8), (3, 12), (4, 4)) == 0
    for bad in (((-1, 2), (0, 1), (0, 1)), ((0, 1), (-1, 1), (0, 1)), ((0, 1), (0, 1), (-3, 4))):
        with pytest.raises(ValueError, match="negative input to cmp_sqrt_sum"):
            cmp_sqrt_sum(*bad)


def test_cmp_sqrt_sum_randomized_against_bounds():
    rng = random.Random(19)
    for _ in range(400):
        a = F(rng.randint(0, 30), rng.randint(1, 12))
        b = F(rng.randint(0, 30), rng.randint(1, 12))
        c = F(rng.randint(0, 60), rng.randint(1, 12))
        sign = cmp_sqrt_sum(a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio())
        lo = sqrt_lower(a) + sqrt_lower(b) - sqrt_upper(c)
        hi = sqrt_upper(a) + sqrt_upper(b) - sqrt_lower(c)
        if sign < 0:
            assert lo < 0
        elif sign > 0:
            assert hi > 0
        else:
            assert lo <= 0 <= hi


_NONNEG = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(_NONNEG, _NONNEG, _NONNEG, st.integers(1, 10**6), st.sampled_from(["any", "t = 0", "4ab = t^2"]))
@example(F(0), F(0), F(0), 1, "any")
@example(F(1, 4), F(1, 4), F(1), 3, "any")
def test_cmp_sqrt_sum_agrees_with_the_fraction_reference(a, b, c, scale, case):
    """On pairs scaled by any factor, the integer kernel gives the sign the
    Fraction reference gives; the two boundary cases t = c - a - b = 0
    and 4ab = t^2 (sqrt(c) = sqrt(a) + sqrt(b), with a = x^2 and b = y^2)
    are built on purpose."""
    if case == "t = 0":
        c = a + b
    elif case == "4ab = t^2":
        x, y = a, b
        a, b, c = x * x, y * y, (x + y) ** 2
    pairs = [(q.numerator * scale, q.denominator * scale) for q in (a, b, c)]
    want = fraction_cmp_sqrt_sum(a, b, c)
    assert cmp_sqrt_sum(*pairs) == want
    if case == "4ab = t^2":
        assert want == 0
    elif case == "t = 0":
        assert want == (1 if a and b else 0)


def test_parse_and_format_rat():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-7") == F(-7)
    assert format_rat(F(-3, 4)) == "-3/4"
    assert format_rat(F(5)) == "5"
    with pytest.raises(ValueError):
        parse_rat("1/0")
    with pytest.raises(ValueError):
        parse_rat("0.5")


def test_clear_denominators():
    assert clear_denominators((3, -4)) == ([3, -4], 1)
    assert clear_denominators([F(1, 2), 3, F(-2, 3)]) == ([3, 18, -4], 6)
    assert clear_denominators([]) == ([], 1)
    for bad in (0.5, "1/3"):
        with pytest.raises(TypeError):
            clear_denominators([1, bad])
