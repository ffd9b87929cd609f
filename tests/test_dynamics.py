import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freecert.dynamics import (
    ITER_BUDGET,
    DirectionData,
    _below,
    _charpoly_gram,
    _faddeev_leverrier,
    _power_direction,
    _selfmap_ladder,
    _witness_pool,
    certify_contracting,
    certify_proximal,
    certify_very_proximal,
    contraction_gap_sq,
    direction_candidates,
    gram_charpoly,
    padic_exponents,
    power_to_proximal,
    push_ball,
    push_set,
    singular_profile,
)
from freecert.projective import (
    Ball,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    apply,
    ball,
    det,
    dist_sq,
    dist_to_hyperplane_sq,
    gram_matrix,
    primitive,
)
from freecert.rootiso import isolate_positive_roots, point
from freecert.scalar import ARCH, clear_denominators, padic
from oracles import (
    fraction_charpoly_gram,
    fraction_gram,
    fraction_isolate_positive_roots,
    fraction_power_direction,
    fraction_view,
    interval_contains,
    interval_divide,
    padic_valuation,
    set_member,
    sqrt_bounds,
)

P5 = padic(5)

E1 = ProjPoint((1, 0))
E2 = ProjPoint((0, 1))


def diag(a, b, place=ARCH):
    return ProjMat(((a, 0), (0, b)), place)


ROT90 = ProjMat(((0, -1), (1, 0)), ARCH)
ROT45 = ProjMat(((1, -1), (1, 1)), ARCH)
FIB = ProjMat(((2, 1), (1, 1)), ARCH)


def test_padic_profile_oracle_values():
    prof = singular_profile(diag(5, 1, P5))
    assert prof.exact
    assert [iv.lo for iv in prof.values_sq] == [1, F(1, 25)]


def _profile_exponents(g: ProjMat) -> list[int]:
    """The exponents e_i of |sigma_i| = p^(-e_i), read back from the exact
    p-adic profile of g, in its order."""
    p = g.place.prime
    return [-padic_valuation(iv.lo, p) // 2 for iv in singular_profile(g).values_sq]


def test_padic_exponents_with_denominators():
    # 3/49 at p=7 has valuation -2; the profile shifts the integer rows'
    # exponents by the valuation of their scale 49
    g = ProjMat(((F(3, 49), 0), (0, 1)), padic(7))
    assert g._integer_form == (((3, 0), (0, 49)), 49)
    assert sorted(_profile_exponents(g)) == [-2, 0]


def test_gap_is_the_quotient_interval_of_the_top_two_values():
    # the ends v1.lo / v0.hi and v1.hi / v0.lo are the reference's
    # quotient of intervals, exact or not, at every place
    rng = random.Random(36)
    for place in (ARCH, P5):
        for n in (2, 3, 4):
            for _ in range(8):
                prof = singular_profile(_random_invertible(rng, n, place, lambda: rng.randint(-9, 9)))
                assert prof.gap_sq == interval_divide(prof.values_sq[1], prof.values_sq[0])


def test_arch_profile_identity_exact():
    prof = singular_profile(ProjMat(((1, 0), (0, 1)), ARCH))
    assert all(iv.exact and iv.lo == 1 for iv in prof.values_sq)


def test_arch_profile_diag_encloses_exact_values():
    prof = singular_profile(diag(4, 1))
    assert interval_contains(prof.values_sq[0], F(16)) and interval_contains(prof.values_sq[1], F(1))


def test_arch_profile_irrational_enclosure():
    # g^T g of [[2,1],[1,1]] has eigenvalues (7 +- 3 sqrt(5))/2
    prof = singular_profile(FIB)
    lam1 = prof.values_sq[0]
    lo5, hi5 = sqrt_bounds(F(5), 60)
    assert lam1.lo <= (7 + 3 * hi5) / 2 and (7 + 3 * lo5) / 2 <= lam1.hi
    assert not prof.exact
    rel = (lam1.hi - lam1.lo) / lam1.lo
    assert rel <= F(1, 2**30)


def test_gap_oracle_values():
    assert contraction_gap_sq(diag(4, 1)).lo == F(1, 16)
    assert contraction_gap_sq(diag(4, 1)).exact
    assert contraction_gap_sq(ProjMat(((1, 0), (0, 1)), ARCH)).lo == 1
    assert contraction_gap_sq(diag(25, 1, P5)).lo == F(1, 625)


def test_gap_multiplicative_for_diagonal_powers():
    g = diag(4, 1)
    base = contraction_gap_sq(g).lo
    for n in range(1, 6):
        assert contraction_gap_sq(g.power(n)).lo == base**n


def _padic_snf_transforms(g: ProjMat) -> tuple[list[int], tuple, tuple]:
    """Reference Smith form over the localization at p with accumulated
    transforms, in Fraction arithmetic.

    Returns (exponents ascending, Uinv, Vinv) with g = Uinv . D . Vinv,
    both transforms p-integral with p-unit determinant, hence sup-norm
    isometries of Q_p^n.  Column 1 of Uinv is the exact top singular
    direction; row 1 of Vinv is the exact top dual direction.
    """
    p = g.place.prime
    n = g.dim
    d = [list(r) for r in fraction_view(g)]
    uinv = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    vinv = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    exps: list[int] = []
    for k in range(n):
        piv_v = None
        pi = pj = -1
        for i in range(k, n):
            for j in range(k, n):
                x = d[i][j]
                if x:
                    v = padic_valuation(x, p)
                    if piv_v is None or v < piv_v:
                        piv_v, pi, pj = v, i, j
        assert piv_v is not None, "singular matrix"
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            for row in uinv:
                row[k], row[pi] = row[pi], row[k]
        if pj != k:
            for row in d:
                row[k], row[pj] = row[pj], row[k]
            vinv[k], vinv[pj] = vinv[pj], vinv[k]
        piv = d[k][k]
        for i in range(k + 1, n):
            x = d[i][k]
            if x:
                c = x / piv  # valuation >= 0 by pivot minimality
                for j in range(k, n):
                    d[i][j] -= c * d[k][j]
                for t in range(n):
                    uinv[t][k] += c * uinv[t][i]
        for j in range(k + 1, n):
            x = d[k][j]
            if x:
                c = x / piv
                for i in range(k, n):
                    d[i][j] -= c * d[i][k]
                for t in range(n):
                    vinv[k][t] += c * vinv[j][t]
        exps.append(piv_v)
    return exps, tuple(tuple(r) for r in uinv), tuple(tuple(r) for r in vinv)


def _random_invertible(rng, n, place, entry):
    while True:
        rows = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        try:
            return ProjMat(rows, place)
        except ValueError:
            continue


def test_snf_transforms_reconstruct():
    rng = random.Random(9)
    for _ in range(25):
        while True:
            rows = [[F(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
            try:
                g = ProjMat(tuple(tuple(r) for r in rows), P5)
                break
            except ValueError:
                continue
        exps, uinv, vinv = _padic_snf_transforms(g)
        assert exps == sorted(exps)
        assert exps == _profile_exponents(g)


def test_padic_kernel_matches_snf_reference():
    # exponents, attracting point and repelling hyperplane of the
    # fraction-free kernel against the Fraction Smith form with transforms
    rng = random.Random(23)

    def entry():
        return F(rng.randint(-30, 30), rng.choice((1, 1, 1, 2, 3, 4, 5, 7, 9, 25, 49)))

    for n in range(2, 8):
        for p in (2, 3, 5, 7):
            for _ in range(20):
                g = _random_invertible(rng, n, padic(p), entry)
                exps, uinv, vinv = _padic_snf_transforms(g)
                assert _profile_exponents(g) == exps
                dirs = direction_candidates(g)
                assert dirs.attract == ProjPoint(tuple(uinv[i][0] for i in range(n)))
                assert dirs.repel == ProjHyperplane(vinv[0])


def test_padic_certify_contracting_eliminates_once(monkeypatch):
    from freecert import dynamics

    calls = []
    eliminate = dynamics.padic_exponents

    def counting(rows, p):
        calls.append(1)
        return eliminate(rows, p)

    monkeypatch.setattr(dynamics, "padic_exponents", counting)
    singular_profile.cache_clear()
    direction_candidates.cache_clear()
    certify_contracting(ProjMat(((F(1, 3), 10, 7), (25, 4, 11), (6, 50, 13)), padic(5)), F(1, 4))
    assert len(calls) == 1


def test_padic_exponents_match_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(31)
    for n in (8, 10, 12):
        for p in (2, 3, 5):
            place = padic(p)
            a, b = (_random_invertible(rng, n, place, lambda: F(rng.randint(-5, 5))) for _ in range(2))
            d = ProjMat(tuple(tuple(p ** rng.randint(0, 3) if i == j else 0 for j in range(n)) for i in range(n)), place)
            rows = [[int(x) for x in r] for r in fraction_view(a @ d @ b)]
            factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
            expected = sorted(padic_valuation(int(f), p) for f in factors)
            assert padic_exponents(rows, p) == expected


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for n in range(2, 13):
        for sparse, singular in ((False, False), (True, False), (False, True), (True, True)):
            # sparse rows put zeros on the diagonal, which forces row swaps
            span = (0, 0, 0, 1) if sparse else (1,)
            rows = [[F(rng.choice(span) * rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            if singular:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[-2])]
            flat, scale = clear_denominators([x for r in rows for x in r])
            got = F(det(tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))), scale**n)
            want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).det()
            assert got == F(int(want.p), int(want.q))
            if singular:
                assert got == 0


def test_certify_contracting_oracle_values():
    v = certify_contracting(diag(4, 1), F(1, 4))
    assert v.kind == "yes"
    assert v.cert.attract == E1
    assert v.cert.repel == ProjHyperplane((1, 0))
    assert v.cert.attract_err_sq == 0 and v.cert.repel_err_sq == 0

    ident = ProjMat(((1, 0), (0, 1)), ARCH)
    v = certify_contracting(ident, F(1, 4))
    assert v.kind == "no"
    dirs = direction_candidates(ident)
    x = v.counterexample
    assert dist_to_hyperplane_sq(x, dirs.repel, ARCH) > F(1, 4)
    assert dist_sq(apply(ident, x), dirs.attract, ARCH) > F(1, 4)

    v = certify_contracting(diag(25, 1, P5), F(1, 25))
    assert v.kind == "yes"


def test_certified_no_carries_checkable_witness():
    v = certify_contracting(ROT90, F(1, 9))
    assert v.kind == "no"
    # the witness refutes the candidate pair by strict exact comparisons
    dirs = direction_candidates(ROT90)
    x = v.counterexample
    assert dist_to_hyperplane_sq(x, dirs.repel, ARCH) > F(1, 9)
    assert dist_sq(apply(ROT90, x), dirs.attract, ARCH) > F(1, 9)


def test_contraction_soundness_sampled():
    rng = random.Random(13)
    fixtures = [
        (diag(25, 1), F(1, 25)),
        (diag(81, 1), F(1, 10)),
        (diag(25, 1, P5), F(1, 25)),
        (ROT45 @ diag(625, 1) @ ROT45.inverse(), F(1, 25)),
    ]
    for g, eps_sq in fixtures:
        v = certify_contracting(g, eps_sq)
        assert v.kind == "yes", (fraction_view(g), eps_sq)
        cert = v.cert
        checked = 0
        while checked < 400:
            coords = (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
            if not any(coords):
                continue
            x = ProjPoint(coords)
            if dist_to_hyperplane_sq(x, cert.repel, g.place) > eps_sq:
                assert dist_sq(apply(g, x), cert.attract, g.place) <= eps_sq
                checked += 1


def test_certify_proximal_consistent_parameters():
    v = certify_proximal(diag(25, 1), F(1, 4), F(1, 25))
    assert v.kind == "yes"
    cert = v.cert
    assert set_member(E1, ball(cert.fixed_point.ball.center, F(1, 10)), ARCH) or cert.fixed_point.ball.center == E1
    # the enclosure self-maps and contains the rational dominant eigenvector
    assert dist_sq(cert.fixed_point.ball.center, E1, ARCH) <= cert.fixed_point.ball.radius_sq


def test_certify_proximal_is_honest_about_weak_gaps():
    # gap(diag(9,1)) = 1/9 exceeds eps^2 = 1/100, and a witness point refutes
    # the canonical pair at eps = 1/10: verdict No, not Yes
    v = certify_proximal(diag(9, 1), F(1, 4), F(1, 100))
    assert v.kind == "no"
    x = v.counterexample
    assert dist_to_hyperplane_sq(x, ProjHyperplane((1, 0)), ARCH) > F(1, 100)
    assert dist_sq(apply(diag(9, 1), x), E1, ARCH) > F(1, 100)


def test_certify_proximal_rotation_is_no():
    v = certify_proximal(ROT90, F(1, 4), F(1, 100))
    assert v.kind == "no"


def test_certify_proximal_precondition():
    with pytest.raises(ValueError, match="r <= 2eps"):
        certify_proximal(diag(9, 1), F(9, 10), F(1, 4))
    with pytest.raises(ValueError, match="r <= 2eps"):
        certify_very_proximal(diag(9, 1), F(9, 10), F(1, 4))


def test_power_to_proximal_geometric_gap():
    # smallest n with gap(2^n) <= eps^2 = 1/64, i.e. 2^-n <= 1/64: n = 6
    out = power_to_proximal(diag(2, 1), F(1, 4), F(1, 64), 20)
    assert out is not None
    n, cert = out
    assert n == 6
    assert cert.fixed_point.ball.center == E1


def test_power_to_proximal_identity_not_found():
    assert power_to_proximal(ProjMat(((1, 0), (0, 1)), ARCH), F(1, 4), F(1, 64), 5) is None


def test_power_to_proximal_fibonacci():
    # gap(g) ~ 0.146 > 9/100 but gap(g^2) ~ 0.021 <= 9/100: n = 2
    # (r_sq = 1/2 keeps the r > 2 eps precondition satisfiable)
    out = power_to_proximal(FIB, F(1, 2), F(9, 100), 10)
    assert out is not None
    n, cert = out
    assert n == 2
    # the enclosure pins the golden-ratio eigendirection [(1+sqrt5)/2 : 1]
    enc = cert.fixed_point.ball
    lo5, hi5 = sqrt_bounds(F(5), 100)
    # canonical rep of the eigenvector is (1, (sqrt5-1)/2); second coordinate interval:
    y_lo, y_hi = (lo5 - 1) / 2, (hi5 - 1) / 2
    c = fraction_view(enc.center)
    assert c[0] == 1
    # distance^2 from center to the true eigendirection, evaluated by intervals
    def d2(y):
        return (y - c[1]) ** 2 / ((1 + c[1] ** 2) * (1 + y * y))

    worst = max(d2(y_lo), d2(y_hi))
    assert worst <= enc.radius_sq


def test_certify_very_proximal_diagonal():
    v = certify_very_proximal(diag(25, 1), F(1, 4), F(1, 25))
    assert v.kind == "yes"
    assert v.cert.very is not None
    assert v.cert.very.contraction.attract == E2


def test_certify_very_proximal_symmetric_conjugate():
    g = ROT45 @ diag(625, 1) @ ROT45.inverse()
    v = certify_very_proximal(g @ g, F(1, 4), F(1, 100))
    assert v.kind == "yes"


def test_monotone_gap_decay_orthogonal_conjugates():
    # Pythagorean rotation keeps singular values exact
    rot = ProjMat(((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5))), ARCH)
    g = rot @ diag(9, 1) @ rot.inverse()
    uppers = [contraction_gap_sq(g.power(n)).hi for n in range(1, 9)]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert uppers[0] == F(1, 81)


def test_push_ball_isometry_and_contraction():
    moved = push_ball(ROT45, Ball(E1, F(1, 25)))
    assert moved.center == ProjPoint((1, 1))
    assert moved.radius_sq == F(1, 25)  # exact profile: Lipschitz constant 1

    shrink = push_ball(diag(25, 1).inverse(), Ball(E2, F(1, 25)))
    assert shrink.center == E2
    assert shrink.radius_sq < F(1, 1000)

    blowup = push_ball(diag(25, 1), Ball(E2, F(1, 25)))
    assert blowup.radius_sq == 1  # saturates: center sits on the repelling data


def test_push_set_sound_on_samples():
    rng = random.Random(17)
    g = FIB
    b = Ball(ProjPoint((1, 1)), F(1, 50))
    pushed = push_ball(g, b)
    for _ in range(200):
        coords = (F(rng.randint(-40, 40), rng.randint(1, 7)), F(rng.randint(-40, 40), rng.randint(1, 7)))
        if not any(coords):
            continue
        x = ProjPoint(coords)
        if dist_sq(x, b.center, ARCH) < b.radius_sq:
            y = apply(g, x)
            assert dist_sq(y, pushed.center, ARCH) <= pushed.radius_sq


def test_push_set_hnbhd_p1():
    from freecert.projective import hnbhd

    s = hnbhd(ProjHyperplane((1, 0)), F(1, 25))
    out = push_set(ROT45, s)
    comp = out.components[0]
    # rot45 sends the kernel point [e2] to [(-1,1)]; radius preserved
    assert comp.radius_sq == F(1, 25)


def test_push_set_hnbhd_sound_on_samples():
    # in P^2 a hyperplane neighborhood is pushed by push_hnbhd: every
    # sampled point of the neighborhood must land in the pushed set.  The
    # rotation is an isometry, so its bound is tight and some samples land
    # near the pushed boundary; the shear stretches
    from freecert.projective import hnbhd

    s = hnbhd(ProjHyperplane((1, -1, 2)), F(1, 25))
    for rows in (((0, -1, 0), (1, 0, 0), (0, 0, 1)), ((2, 1, 0), (0, 1, 0), (0, 0, 1))):
        g = ProjMat(rows, ARCH)
        pushed = push_set(g, s)
        rng = random.Random(19)
        inside = 0
        for _ in range(300):
            a, b = F(rng.randint(-30, 30), rng.randint(1, 5)), F(rng.randint(-30, 30), rng.randint(1, 5))
            # near the plane x - y + 2z = 0
            z = (b - a) / 2 + F(rng.randint(-20, 20), rng.randint(1, 4))
            if not (a or b or z):
                continue
            x = ProjPoint((a, b, z))
            if set_member(x, s, ARCH):
                inside += 1
                assert set_member(apply(g, x), pushed, ARCH)
        assert inside >= 50


def test_padic_exponents_fast_path_matches_general():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        if det == 0:
            continue
        checked += 1
        for p in (2, 3, 5):
            fast = padic_exponents(rows, p)
            # scaling by 1/7 gives the profile a scale of 7 to shift by,
            # a unit at these places, so the exponents must not change
            general = _profile_exponents(ProjMat([[F(x, 7) for x in r] for r in rows], padic(p)))
            assert fast == general
            assert fast == sorted(fast)


def test_witness_pool_order():
    # the pool is yielded lazily in the order of the full list, deduplicated
    # up to sign and sorted by support size, then coordinates
    for n in range(2, 8):
        seen, expected = set(), []
        for coords in itertools.product((0, 1, -1), repeat=n):
            if any(coords):
                p = ProjPoint(coords)
                if fraction_view(p) not in seen:
                    seen.add(fraction_view(p))
                    expected.append(p)
        expected.sort(key=lambda p: (sum(1 for c in fraction_view(p) if c != 0), fraction_view(p)))
        assert list(_witness_pool(n)) == expected


# ---------------------------------------------------------------------------
# The integer archimedean path against its Fraction reference
# ---------------------------------------------------------------------------


def _power_directions(g: ProjMat) -> list:
    """`_power_direction` on g g^T and on g^T g, and the Fraction
    reference on the same two Gram matrices, as two lists of pairs."""
    lam2_hi = singular_profile(g).values_sq[1].hi
    rows, _ = g._integer_form
    gtg, scale = g.gram
    charpoly = gram_charpoly(g)
    ours = [_power_direction(gram_matrix(rows), scale, lam2_hi, charpoly), _power_direction(gtg, scale, lam2_hi, charpoly)]
    ours = [(point, None if err is None else F(*err)) for point, err in ours]
    cols = list(zip(*fraction_view(g)))
    ref = [fraction_power_direction(fraction_gram(fraction_view(g)), lam2_hi), fraction_power_direction(fraction_gram(cols), lam2_hi)]
    return [ours, ref]


def _assert_matches_fraction_reference(g: ProjMat) -> list:
    charpoly = _charpoly_gram(g)
    want = fraction_charpoly_gram(g)
    assert list(charpoly) == clear_denominators(want)[0]
    roots = isolate_positive_roots(charpoly)
    assert list(roots) == fraction_isolate_positive_roots(want)
    ours, ref = _power_directions(g)
    assert ours == ref
    return roots


@st.composite
def arch_matrices(draw):
    """Invertible archimedean matrices: entries -6..6 over 1..4, n = 2..7;
    or c P + E with P a signed permutation matrix, c in 8..16 and E in
    {-1, 0, 1}, n = 2..5, whose singular values all lie within |E| of c.
    Their top two are near-equal, so the power iteration converges slowly
    and goes on past its first start column."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        c = draw(st.integers(8, 16))
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
        noise = draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
        rows = tuple(tuple(c * signs[i] * (perm[i] == j) + noise[i * n + j] for j in range(n)) for i in range(n))
    else:
        n = draw(st.integers(2, 7))
        nums = draw(st.lists(st.integers(-6, 6), min_size=n * n, max_size=n * n))
        dens = draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n) | st.just([1] * (n * n)))
        rows = tuple(tuple(F(nums[i * n + j], dens[i * n + j]) for j in range(n)) for i in range(n))
    try:
        return ProjMat(rows, ARCH)
    except ValueError:  # singular
        assume(False)


@settings(max_examples=15, deadline=None)
@given(arch_matrices())
def test_integer_singular_data_matches_fraction_reference(g):
    _assert_matches_fraction_reference(g)


def _blockdiag(*blocks) -> ProjMat:
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - len(b)) for r in b]
        at += len(b)
    return ProjMat(tuple(map(tuple, rows)), ARCH)


def test_power_direction_stalls_on_a_lower_eigenvector():
    # the first start column (1, 0) is the eigenvector of lambda_2 = 1:
    # no bound there, and the iterate repeats; the second column gives the
    # top direction with bound 0
    g = diag(1, 2)
    ours, ref = _power_directions(g)
    assert ours == ref == [(E2, 0), (E2, 0)]


#: analyze/contracting/4x4 of the highdim benchmark deck for seed 1000.
#: Its squared singular values are about 206.4, 162.9, 48.0 and 1.7, so
#: the bound falls by about (162.9 / 206.4)^2 = 0.62 per power-iteration
#: step, to about 1e-15 after 64 steps, far above 2^-80.
SLOW_4X4 = ((-8, 2, 5, -8), (-2, -4, -1, 4), (-8, -9, -3, 1), (1, -7, -2, -4))


def test_power_direction_runs_every_column_to_the_budget():
    """On both Gram matrices of SLOW_4X4, no start column reaches the
    2^-80 return or a stall within ITER_BUDGET steps, so the best bound is
    chosen across all four columns and their 64 iterates each; the Krylov
    moments, continued by the recurrence, give the Fraction reference's
    points and bounds, pinned by digest."""
    g = ProjMat(SLOW_4X4, ARCH)
    ours, ref = _power_directions(g)
    assert ours == ref
    rows, _ = g._integer_form
    for s_rows, (_, err) in zip((gram_matrix(rows), g.gram[0]), ours):
        assert err > F(1, 2**80)  # no early return
        for j in range(g.dim):
            v = primitive([row[j] for row in s_rows])
            for _ in range(ITER_BUDGET):
                u = primitive([sum(x * y for x, y in zip(row, v)) for row in s_rows])
                assert u != v  # no stall
                v = u
    digests = [hashlib.sha256(f"{point.coords} {err}".encode()).hexdigest()[:16] for point, err in ours]
    assert digests == ["2517e2116c570ad2", "463edac0d3a7b3cb"]
    (_, a_err), (_, r_err) = ours
    assert F(12, 10**16) < a_err < F(13, 10**16) and F(16, 10**15) < r_err < F(17, 10**15)


def test_below_compares_fractions():
    """`_below` decides a/b < c/d by bit lengths when they differ by two
    or more, else by cross products; both give Fraction's order."""
    small = range(17)
    for a, b, c, d in itertools.product(small, small[1:], small, small[1:]):
        assert _below(a, b, c, d) == (F(a, b) < F(c, d)), (a, b, c, d)
    big = 3**200
    assert _below(big, big + 1, 1, 1) and not _below(big + 1, big, 1, 1) and _below(0, big, 1, big)


def test_power_direction_keeps_the_first_of_tied_bounds():
    """g g^T = g^T g = [[101, 20], [20, 101]] commutes with the swap of
    coordinates, so the iterates of the second start column mirror those
    of the first and tie with their bounds, none reaching 2^-80 within
    ITER_BUDGET steps.  The first column's last iterate, found first,
    stays the best."""
    ours, ref = _power_directions(ProjMat(((10, 1), (1, 10)), ARCH))
    assert ours == ref
    for point, err in ours:
        assert point.coords[0] > point.coords[1] > 0 and err > F(1, 2**80)


def test_direction_candidates_run_no_iteration_at_a_repeated_top_singular_value(monkeypatch):
    """The inverse of the `analyze/very-proximal/3x3/conj` matrix of
    matrix-small's seed-1001 request 0184 has sigma_1 = sigma_2 exactly.
    Every start column of both power iterations then runs its ITER_BUDGET
    steps and ends with no bound, and `direction_candidates` gives that
    result, the first basis vector unbounded, without iterating."""
    from freecert import dynamics

    g = ProjMat(((1176841, 338688, 1612800), (338688, 114409, 470400), (1612800, 470400, 2255625)), ARCH).inverse()
    top, second = singular_profile(g).values_sq[:2]
    assert top.exact and top == second
    ours, ref = _power_directions(g)
    assert ours == ref == [(ProjPoint((1, 0, 0)), None)] * 2
    calls = []
    monkeypatch.setattr(dynamics, "_power_direction", lambda *args: calls.append(args))
    direction_candidates.cache_clear()
    got = direction_candidates(g)
    assert not calls
    assert got == DirectionData(ours[0][0], None, ProjHyperplane._of(ours[1][0].coords), None)


def test_double_irrational_squared_singular_values():
    # blockdiag(FIB, FIB): g^T g has charpoly (x^2 - 7x + 1)^2, not
    # squarefree, so each root's multiplicity comes from `_multiplicity`
    roots = _assert_matches_fraction_reference(_blockdiag(fraction_view(FIB), fraction_view(FIB)))
    assert [m for _, m in roots] == [2, 2]
    assert not any(iv.exact for iv, _ in roots)


def test_rational_squared_singular_value_split_off():
    roots = _assert_matches_fraction_reference(_blockdiag(fraction_view(FIB), ((2,),)))
    assert (point(4), 1) in roots
    assert [iv.exact for iv, _ in roots] == [False, True, False]


def test_a_matrix_and_its_inverse_share_one_isolation():
    """g and g^-1 of determinant 1 have Gram matrices with the same
    characteristic polynomial, so the second profile isolates nothing."""
    g = ProjMat(((3, 2), (1, 1)), ARCH)
    singular_profile.cache_clear()
    isolate_positive_roots.cache_clear()
    singular_profile(g)
    singular_profile(g.inverse())
    info = isolate_positive_roots.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([ARCH, padic(3)]),
    st.lists(st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=5), st.integers(-(2**80), 2**80)), min_size=4, max_size=4),
)
def test_dimension_2_gram_charpoly_matches_the_faddeev_leverrier_loop(place, entries):
    # (1, -tr S, det S) is the loop's polynomial of every 2 x 2 Gram matrix
    try:
        g = ProjMat([entries[:2], entries[2:]], place)
    except ValueError:
        assume(False)
    assert gram_charpoly(g) == _faddeev_leverrier(g.gram[0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**70), st.integers(0, 120), st.integers(1, 2**70))
def test_selfmap_ladder_rungs_are_the_reduced_fractions(odd, twos, extra):
    # numerators with every power of 2 up to past 2 * 45, so both sides of
    # s = min(v2(n), 2j) are reached
    n = (2 * odd - 1) << twos
    eps_sq = F(n, n + extra)
    rungs = _selfmap_ladder.__wrapped__(eps_sq).rungs
    assert rungs == tuple(F(eps_sq.numerator, eps_sq.denominator << 2 * j).as_integer_ratio() for j in range(45, 0, -1))
