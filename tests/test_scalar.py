import random
from fractions import Fraction as F

import pytest

from freecert.scalar import (
    ARCH,
    Place,
    cmp_sqrt_sum,
    format_rat,
    padic,
    padic_valuation,
    parse_place,
    parse_rat,
    sqrt_lower,
    sqrt_upper,
)
from oracles import abs_value


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
    assert cmp_sqrt_sum(F(1, 4), F(1, 4), F(1)) == 0
    # sqrt(2) + sqrt(2) < sqrt(9)
    assert cmp_sqrt_sum(F(2), F(2), F(9)) == -1
    # sqrt(4) + sqrt(1) > sqrt(8)
    assert cmp_sqrt_sum(F(4), F(1), F(8)) == 1


def test_cmp_sqrt_sum_randomized_against_bounds():
    rng = random.Random(19)
    for _ in range(400):
        a = F(rng.randint(0, 30), rng.randint(1, 12))
        b = F(rng.randint(0, 30), rng.randint(1, 12))
        c = F(rng.randint(0, 60), rng.randint(1, 12))
        sign = cmp_sqrt_sum(a, b, c)
        lo = sqrt_lower(a) + sqrt_lower(b) - sqrt_upper(c)
        hi = sqrt_upper(a) + sqrt_upper(b) - sqrt_lower(c)
        if sign < 0:
            assert lo < 0
        elif sign > 0:
            assert hi > 0
        else:
            assert lo <= 0 <= hi


def test_parse_and_format_rat():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-7") == F(-7)
    assert format_rat(F(-3, 4)) == "-3/4"
    assert format_rat(F(5)) == "5"
    with pytest.raises(ValueError):
        parse_rat("1/0")
    with pytest.raises(ValueError):
        parse_rat("0.5")
