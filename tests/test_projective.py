import random
from fractions import Fraction as F
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freecert import projective
from freecert.projective import (
    Ball,
    HNbhd,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    apply,
    apply_hyperplane,
    ball,
    component_member,
    dist_sq,
    dist_to_hyperplane_sq,
    hnbhd,
    identity,
    norm_sq,
    set_contains,
    set_disjoint,
    wedge,
)
from freecert.scalar import ARCH, cmp_sqrt_sum, padic, sqrt_lower
from oracles import (
    canonical_rep,
    fraction_apply,
    fraction_chord_witness,
    fraction_dist_sq,
    fraction_dist_to_hyperplane_sq,
    fraction_inverse,
    fraction_kernel_intersection_point,
    fraction_matmul,
    fraction_member,
    fraction_point_on_plane_near,
    fraction_view,
    set_member,
)

P5 = padic(5)

E1 = ProjPoint((1, 0))
E2 = ProjPoint((0, 1))
KER_X1 = ProjHyperplane((1, 0))
KER_X2 = ProjHyperplane((0, 1))


def rand_point(rng, n=3):
    while True:
        coords = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n))
        if any(coords):
            return ProjPoint(coords)


def test_norm_sq_oracle_values():
    # (numerator, denominator) of |v|^2 on integer vectors
    assert norm_sq((1, 1), ARCH) == (2, 1)
    assert norm_sq((1, 5), P5) == (1, 1)  # max(1, 1/5) squared
    assert norm_sq((25, -50), P5) == (1, 625)  # (1/25)^2
    assert norm_sq((0, 0), ARCH) == (0, 1)
    assert norm_sq((0, 0), P5) == (0, 1)


def test_wedge_oracle_values():
    assert wedge((1, 0), (0, 1)) == (1,)
    assert wedge((1, 0), (1, 1)) == (1,)
    assert wedge((1, 2), (2, 4)) == (0,)
    assert wedge((1, 2, 3), (0, 1, -1)) == (1, -1, -5)
    with pytest.raises(ValueError):
        wedge((1, 0), (1, 0, 0))


def test_dist_sq_oracle_values():
    assert dist_sq(E1, E2, ARCH) == 1
    assert dist_sq(E1, ProjPoint((1, 1)), ARCH) == F(1, 2)
    assert dist_sq(E1, ProjPoint((1, 5)), P5) == F(1, 25)


def test_dist_to_hyperplane_oracle_values():
    assert dist_to_hyperplane_sq(E2, KER_X2, ARCH) == 1
    assert dist_to_hyperplane_sq(ProjPoint((1, 1)), KER_X2, ARCH) == F(1, 2)
    # incidence: the point lies on the hyperplane
    assert dist_to_hyperplane_sq(E2, KER_X1, ARCH) == 0
    assert dist_to_hyperplane_sq(E2, KER_X1, P5) == 0


def test_apply_oracle_values():
    g = ProjMat(((2, 1), (1, 1)), ARCH)
    ident = ProjMat(((1, 0), (0, 1)), ARCH)
    p = ProjPoint((3, 7))
    assert apply(ident, p) == p
    assert apply(g, E2) == ProjPoint((1, 1))
    assert apply(g, ProjPoint((1, 1))) == ProjPoint((3, 2))


def test_apply_respects_projective_equivalence():
    rng = random.Random(5)
    g = ProjMat(((2, 1, 0), (1, 1, 3), (0, 2, 1)), ARCH)
    for _ in range(50):
        p = rand_point(rng)
        lam = F(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
        scaled = ProjPoint(tuple(lam * c for c in fraction_view(p)))
        assert apply(g, p) == apply(g, scaled)


def test_canonical_representatives():
    assert fraction_view(ProjPoint((0, 3, 6))) == (0, 1, 2)
    assert fraction_view(ProjPoint((-2, 4))) == (1, -2)
    assert ProjPoint((2, 4)) == ProjPoint((1, 2))
    assert hash(ProjPoint((2, 4))) == hash(ProjPoint((1, 2)))
    # stored: the primitive integer representative, first nonzero entry positive
    assert ProjPoint((F(-1, 2), F(1, 3), 0)).coords == (3, -2, 0)
    assert fraction_view(ProjPoint((F(-1, 2), F(1, 3), 0))) == (1, F(-2, 3), 0)
    assert ProjHyperplane((0, -6, 4)).coords == (0, 3, -2)
    assert fraction_view(ProjHyperplane((0, -6, 4))) == (0, 1, F(-2, 3))
    assert ProjPoint((1, 2)) != ProjHyperplane((1, 2))
    with pytest.raises(ValueError):
        ProjPoint((0, 0))
    with pytest.raises(TypeError):
        ProjPoint((0.5, 1))


def test_matrix_invariants():
    with pytest.raises(ValueError):
        ProjMat(((1, 2), (2, 4)), ARCH)  # singular
    g = ProjMat(((2, 1), (1, 1)), ARCH)
    assert (g @ g.inverse()).is_identity()
    assert g.power(3).proportional_to(g @ g @ g)
    assert g.power(-1).proportional_to(g.inverse())
    for start in (0, 1, 3):
        assert list(g.powers(8, start)) == [(n, g.power(n)) for n in range(start, 8)]
    assert list(g.powers(2, 3)) == []


def test_apply_hyperplane_preserves_incidence():
    g = ProjMat(((2, 1), (1, 1)), ARCH)
    h = KER_X1
    p = ProjPoint((0, 5))  # on ker(x1)
    assert dist_to_hyperplane_sq(apply(g, p), apply_hyperplane(g, h), ARCH) == 0


def test_metric_symmetry_and_identity():
    rng = random.Random(1)
    for place in (ARCH, P5):
        for _ in range(200):
            p, q = rand_point(rng), rand_point(rng)
            d1 = dist_sq(p, q, place)
            assert d1 == dist_sq(q, p, place)
            assert 0 <= d1 <= 1
            assert (d1 == 0) == (p == q)
            assert dist_sq(p, p, place) == 0


def test_triangle_inequality_sampled():
    # sqrt(dist) is a metric: checked through the square-root-free criterion
    rng = random.Random(2)
    for place in (ARCH, P5):
        for _ in range(200):
            a, b, c = (rand_point(rng) for _ in range(3))
            ab, bc, ac = dist_sq(a, b, place), dist_sq(b, c, place), dist_sq(c, a, place)
            # d(a,c) <= d(a,b) + d(b,c), via bounded sqrt of the cross term
            assert ac <= ab + bc + 2 * sqrt_lower(ab * bc) or cmp_sqrt_sum(ab.as_integer_ratio(), bc.as_integer_ratio(), ac.as_integer_ratio()) >= 0


def test_point_to_plane_lipschitz_sampled():
    # justifies set_disjoint's margin rule; 10^4 triples per place
    rng = random.Random(3)
    for place in (ARCH, P5):
        for _ in range(10_000):
            p, q = rand_point(rng), rand_point(rng)
            h = ProjHyperplane(fraction_view(rand_point(rng)))
            dp = dist_to_hyperplane_sq(p, h, place)
            dq = dist_to_hyperplane_sq(q, h, place)
            d = dist_sq(p, q, place)
            hi, lo = max(dp, dq), min(dp, dq)
            # |sqrt(dp) - sqrt(dq)| <= sqrt(d)
            assert cmp_sqrt_sum(lo.as_integer_ratio(), d.as_integer_ratio(), hi.as_integer_ratio()) >= 0


def test_set_member_oracle_values():
    assert set_member(E1, ball(E1, F(1, 100)), ARCH)
    assert not set_member(E2, ball(E1, F(1, 4)), ARCH)
    # boundary: distance^2 equals radius^2, open set excludes it
    assert not set_member(ProjPoint((1, 1)), hnbhd(KER_X2, F(1, 2)), ARCH)


def test_set_disjoint_oracle_values():
    v = set_disjoint(ball(E1, F(1, 100)), ball(E2, F(1, 100)), ARCH)
    assert v.kind == "disjoint"
    same = ball(E1, F(1, 9))
    v = set_disjoint(same, same, ARCH)
    assert v.kind == "overlap" and v.witness == E1
    # boundary case: d = 1, radii sum exactly 1; open sets are disjoint
    v = set_disjoint(ball(E1, F(1, 4)), hnbhd(KER_X1, F(1, 4)), ARCH)
    assert v.kind == "disjoint"


def test_set_disjoint_overlap_witness_is_checkable():
    s = ball(E1, F(1, 2))
    t = ball(ProjPoint((1, 1)), F(1, 2))
    v = set_disjoint(s, t, ARCH)
    assert v.kind == "overlap"
    assert set_member(v.witness, s, ARCH) and set_member(v.witness, t, ARCH)


def test_hyperplane_neighborhoods_always_meet_in_higher_dim():
    h1 = ProjHyperplane((1, 0, 0))
    h2 = ProjHyperplane((0, 1, 0))
    v = set_disjoint(hnbhd(h1, F(1, 100)), hnbhd(h2, F(1, 100)), ARCH)
    assert v.kind == "overlap"
    assert dist_to_hyperplane_sq(v.witness, h1, ARCH) == 0
    assert dist_to_hyperplane_sq(v.witness, h2, ARCH) == 0


def test_neighborhoods_of_one_plane_overlap_on_it():
    h = ProjHyperplane((1, 2, 3))
    v = set_disjoint(hnbhd(h, F(1, 100)), hnbhd(ProjHyperplane((2, 4, 6)), F(1, 25)), ARCH)
    assert v.kind == "overlap"
    assert dist_to_hyperplane_sq(v.witness, h, ARCH) == 0


def test_set_disjoint_padic():
    v = set_disjoint(ball(E1, F(1, 25)), ball(E2, F(1, 25)), P5)
    assert v.kind == "disjoint"


def test_set_contains():
    inner = ball(E1, F(1, 100))
    outer = ball(E1, F(1, 4))
    assert set_contains(outer, inner, ARCH)
    assert not set_contains(inner, outer, ARCH)
    assert set_contains(hnbhd(KER_X1, F(1, 4)), hnbhd(KER_X1, F(1, 100)), ARCH)
    # closed variant is strictly stronger on the boundary
    half = ball(E1, F(1, 4))
    assert set_contains(half, half, ARCH)
    assert not set_contains(half, half, ARCH, closed_inner=True)


def test_hyperplane_neighborhood_contains_a_ball():
    # in P^2: a ball centred on ker x_0 fits inside its neighborhood, and
    # one centred at distance 1 from it does not
    near = hnbhd(ProjHyperplane((1, 0, 0)), F(1, 4))
    assert set_contains(near, ball(ProjPoint((0, 1, 0)), F(1, 100)), ARCH)
    assert not set_contains(near, ball(ProjPoint((1, 0, 0)), F(1, 100)), ARCH)
    # a ball as wide as the neighborhood touches its boundary
    assert set_contains(near, ball(ProjPoint((0, 1, 1)), F(1, 4)), P5)
    assert not set_contains(near, ball(ProjPoint((0, 1, 1)), F(1, 4)), P5, closed_inner=True)


def test_unions():
    u = ball(E1, F(1, 100)).components + ball(E2, F(1, 100)).components
    from freecert.projective import ProjSet

    union = ProjSet(u)
    assert set_member(E1, union, ARCH) and set_member(E2, union, ARCH)
    far = ball(ProjPoint((1, 1)), F(1, 100))
    assert set_disjoint(union, far, ARCH).kind == "disjoint"


def test_component_validation():
    with pytest.raises(ValueError):
        Ball(E1, F(0))
    with pytest.raises(ValueError):
        HNbhd(KER_X1, F(2))


_ENTRY = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _square_rows(draw):
    n = draw(st.integers(2, 5))
    return tuple(tuple(draw(_ENTRY) for _ in range(n)) for _ in range(n))


def _invertible(rows) -> ProjMat:
    try:
        return ProjMat(rows, ARCH)
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_square_rows(), st.data())
def test_products_match_fraction_reference_without_det(rows, data):
    g = _invertible(rows)
    h = _invertible(data.draw(st.lists(st.lists(_ENTRY, min_size=g.dim, max_size=g.dim), min_size=g.dim, max_size=g.dim)))
    n = g.dim
    with mock.patch.object(projective, "det", wraps=projective.det) as det_spy:
        gh, gt, gi = g @ h, g.transpose(), g.inverse()
        ladder = list(g.powers(5))
        assert det_spy.call_count == 0
    assert fraction_view(gh) == fraction_matmul(fraction_view(g), fraction_view(h))
    assert fraction_view(gt) == tuple(tuple(fraction_view(g)[j][i] for j in range(n)) for i in range(n))
    ident = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    assert fraction_matmul(fraction_view(g), fraction_view(gi)) == ident
    acc = ident
    for k, gk in ladder:
        acc = fraction_matmul(acc, fraction_view(g))
        assert fraction_view(gk) == acc, k
    assert hash(gh) == hash(ProjMat(fraction_view(gh), ARCH)) and gh == ProjMat(fraction_view(gh), ARCH)


def test_products_clear_each_matrix_once():
    # input construction clears each matrix once, and `det` checks the
    # cleared integer rows; products, inverses, transposes and `det`
    # clear nothing
    with mock.patch.object(projective, "clear_denominators", wraps=projective.clear_denominators) as spy:
        g = ProjMat(((F(1, 2), 3, 0), (0, F(2, 3), 1), (1, 0, F(5, 7))), ARCH)
        h = ProjMat(((2, 0, 1), (F(1, 3), 1, 0), (0, 0, 1)), ARCH)
        assert spy.call_count == 2  # g, h
        first = g @ h
        again = [g @ h for _ in range(3)]
        g.inverse().transpose()
        d = projective.det(g._integer_form[0])  # eliminates in place on lists of its own
        assert spy.call_count == 2
    assert g._integer_form == (((21, 126, 0), (0, 28, 42), (42, 0, 30)), 42)
    assert all(fraction_view(x) == fraction_view(first) == fraction_matmul(fraction_view(g), fraction_view(h)) for x in again)
    assert projective.det(g._integer_form[0]) == d == 21 * 28 * 30 - 126 * (0 * 30 - 42 * 42)


@settings(max_examples=30, deadline=None)
@given(_square_rows(), st.data())
def test_singular_input_still_raises(rows, data):
    weights = data.draw(st.lists(_ENTRY, min_size=len(rows) - 1, max_size=len(rows) - 1))
    dependent = tuple(sum((w * r[j] for w, r in zip(weights, rows)), F(0)) for j in range(len(rows)))
    with pytest.raises(ValueError, match="invertible"):
        ProjMat(rows[:-1] + (dependent,), ARCH)


def test_is_identity_means_scalar():
    for rows in (((3, 0), (0, 3)), ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), ((F(1, 2), 0), (0, F(1, 2)))):
        assert ProjMat(rows, ARCH).is_identity()
    for rows in (((1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 1, 1))):
        assert not ProjMat(rows, ARCH).is_identity()


@settings(max_examples=60, deadline=None)
@given(_square_rows(), st.data())
def test_class_key_is_equality_in_pgl(rows, data):
    g = _invertible(rows)
    c = data.draw(_ENTRY.filter(bool))
    scaled = ProjMat(tuple(tuple(c * x for x in r) for r in fraction_view(g)), ARCH)
    assert g.class_key() == scaled.class_key() and g.proportional_to(scaled)
    key = g.class_key()
    assert all(isinstance(x, int) for x in key) and next(x for x in key if x) > 0
    # a primitive integer matrix is its own key
    assert ProjMat(tuple(key[i * g.dim : (i + 1) * g.dim] for i in range(g.dim)), ARCH).class_key() == key
    h = _invertible(data.draw(st.lists(st.lists(_ENTRY, min_size=g.dim, max_size=g.dim), min_size=g.dim, max_size=g.dim)))
    assert (g.class_key() == h.class_key()) == (g @ h.inverse()).is_identity()


# ---------------------------------------------------------------------------
# Integer points, hyperplanes and metric against the Fraction references
# ---------------------------------------------------------------------------

_COORD = st.fractions(min_value=-9, max_value=9, max_denominator=5)
_SCALE = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
_PLACES = st.sampled_from([ARCH, padic(2), padic(3)])


def _vector(data, n):
    return data.draw(st.lists(_COORD, min_size=n, max_size=n).filter(any))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), _PLACES, st.data())
def test_metric_and_apply_match_fraction_reference(n, place, data):
    v, w, f = (_vector(data, n) for _ in range(3))
    lam, mu = data.draw(_SCALE), data.draw(_SCALE)
    p, q, h = ProjPoint(v), ProjPoint(w), ProjHyperplane(f)
    # any representative gives the same class, and the class its canonical view
    assert ProjPoint([lam * c for c in v]) == p and ProjHyperplane([mu * c for c in f]) == h
    assert fraction_view(p) == canonical_rep(v) and fraction_view(h) == canonical_rep(f)
    assert all(type(c) is int for c in p.coords + h.coords) and gcd(*p.coords) == 1
    assert dist_sq(p, q, place) == fraction_dist_sq(v, [mu * c for c in w], place)
    assert dist_to_hyperplane_sq(p, h, place) == fraction_dist_to_hyperplane_sq([lam * c for c in v], f, place)
    g = _invertible(tuple(tuple(data.draw(_ENTRY) for _ in range(n)) for _ in range(n)))
    assert fraction_view(apply(g, p)) == fraction_apply(g, [lam * c for c in v])
    image = apply_hyperplane(g, h)
    assert fraction_view(image) == canonical_rep([sum(f[i] * x for i, x in enumerate(col)) for col in zip(*fraction_inverse(fraction_view(g)))])
    assert dist_to_hyperplane_sq(apply(g, p), image, place) == 0 or dist_to_hyperplane_sq(p, h, place) != 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), _PLACES, st.data())
def test_set_witnesses_match_fraction_reference(n, place, data):
    # the chord runs between canonical representatives, whose first
    # coordinates are 1, not between the stored integer ones
    p, q, c = (ProjPoint(_vector(data, n)) for _ in range(3))
    h = ProjHyperplane(_vector(data, n))
    radii = st.fractions(min_value=F(1, 100), max_value=1, max_denominator=100)
    comps = (Ball(c, data.draw(radii)), data.draw(st.sampled_from([Ball(q, data.draw(radii)), HNbhd(h, data.draw(radii))])))
    got = projective._chord_witness(p, q, comps, place)
    want = fraction_chord_witness(fraction_view(p), fraction_view(q), comps, place)
    assert (got is None and want is None) or fraction_view(got) == want
    foot = projective._point_on_plane_near(p, h)
    want_foot = fraction_point_on_plane_near(fraction_view(p), fraction_view(h))
    assert (foot is None and want_foot is None) or fraction_view(foot) == want_foot
    for comp in comps:
        assert component_member(p, comp, place) == fraction_member(fraction_view(p), comp, place)


def test_chord_witness_walks_canonical_representatives():
    # (3, 1) and (1, 3) are stored as themselves but walked as (1, 1/3) and
    # (1, 3): the chord's midpoint is then (1, 5/3), not (1, 1)
    p, q = ProjPoint((3, 1)), ProjPoint((1, 3))
    comps = (Ball(ProjPoint((3, 5)), F(1, 1000)), Ball(ProjPoint((3, 5)), F(1, 1000)))
    got = projective._chord_witness(p, q, comps, ARCH)
    assert got is not None and fraction_view(got) == fraction_chord_witness(fraction_view(p), fraction_view(q), comps, ARCH)
    assert fraction_chord_witness((F(3), F(1)), (F(1), F(3)), comps, ARCH) != fraction_view(got)


def test_matrix_refuses_a_float_entry():
    # 0.1 is not 1/10; taking its binary value would certify another matrix
    with pytest.raises(TypeError):
        ProjMat(((0.1, 0), (0, 1)), ARCH)


def test_matrix_refuses_a_string_entry():
    with pytest.raises(TypeError):
        ProjMat((("1/3", 0), (0, 1)), ARCH)


@st.composite
def _covector_pairs(draw):
    """Two hyperplanes of P(Q^n), n in 3..6, often with zero leading
    columns, often with m(p1, p1 + 1) = 0, where p1 is the first column
    where either covector is nonzero, and sometimes equal."""
    n = draw(st.integers(3, 6))
    lead = draw(st.integers(0, n - 2))
    f, g = ([0] * lead + draw(st.lists(st.integers(-3, 3), min_size=n - lead, max_size=n - lead)) for _ in range(2))
    p1 = next((j for j in range(n) if f[j] or g[j]), None)
    assume(p1 is not None)
    if p1 + 1 < n and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        f[p1 + 1], g[p1 + 1] = k * f[p1], k * g[p1]
    assume(any(f) and any(g))
    h1 = ProjHyperplane(tuple(f))
    return h1, h1 if draw(st.integers(0, 9)) == 0 else ProjHyperplane(tuple(g))


@settings(max_examples=300, deadline=None)
@given(_covector_pairs())
@example((ProjHyperplane((0, 1, 2, 3)), ProjHyperplane((0, 2, 4, 5))))
@example((ProjHyperplane((0, 0, 2)), ProjHyperplane((0, 0, 2))))
@example((ProjHyperplane((0, 3, 0, 1)), ProjHyperplane((0, 3, 0, 1))))
def test_kernel_intersection_matches_fraction_reference(planes):
    h1, h2 = planes
    got = projective._kernel_intersection_point(h1, h2)
    assert got == fraction_kernel_intersection_point(h1, h2)
    assert projective.dot(h1.coords, got.coords) == 0 == projective.dot(h2.coords, got.coords)


def test_no_float_coordinate_anywhere():
    # a float coordinate would make a class inexact; the constructors refuse
    # one, and every constructed class and distance stays int or Fraction
    with pytest.raises(TypeError):
        ProjHyperplane((1, 2.0))
    g = ProjMat(((2, 1, 0), (1, 1, 3), (0, 2, 1)), ARCH)
    p, h = ProjPoint((F(1, 2), 3, F(-2, 5))), ProjHyperplane((3, F(7, 4), 1))
    foot = projective._point_on_plane_near(p, h)
    assert fraction_view(foot) == fraction_point_on_plane_near(fraction_view(p), fraction_view(h))
    h2 = ProjHyperplane((1, 0, 1))
    points = [apply(g, p), foot, projective._kernel_intersection_point(h, h2), projective._kernel_intersection_point(h, h)]
    points.append(projective._chord_witness(p, foot, (Ball(p, F(1)), HNbhd(h, F(1))), ARCH))
    points.append(set_disjoint(ball(p, F(1, 2)), hnbhd(h, F(1, 2)), ARCH).witness)
    planes = [apply_hyperplane(g, h), h2]
    for x in points + planes:
        assert all(type(c) is int for c in x.coords)
    for place in (ARCH, P5):
        assert type(dist_sq(p, foot, place)) is F and type(dist_to_hyperplane_sq(p, h, place)) is F


@settings(max_examples=60, deadline=None)
@given(_square_rows())
@example(((0, 1), (1, 0)))
@example(((1, 2, 3), (2, 4, 7), (1, 0, 1)))  # the second pivot needs a row swap
def test_inverse_matches_fraction_reference_once(rows):
    g = _invertible(rows)
    gi = g.inverse()
    assert fraction_view(gi) == fraction_inverse(fraction_view(g))
    assert g.inverse() is gi and gi.inverse() is g


# ---------------------------------------------------------------------------
# Integer matrices against the Fraction references
# ---------------------------------------------------------------------------


def _assert_cleared(m: ProjMat, want) -> None:
    """m's Fraction view is `want`, and its integer form is the lcm-cleared one."""
    assert fraction_view(m) == want
    rows, scale = m._integer_form
    assert scale == lcm(*(x.denominator for r in want for x in r))
    assert rows == tuple(tuple(int(x * scale) for x in r) for r in want)
    assert all(type(x) is int for r in rows for x in r)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), _PLACES, st.data())
def test_integer_matrices_match_fraction_reference(n, place, data):
    def draw():
        rows = tuple(tuple(data.draw(_COORD) for _ in range(n)) for _ in range(n))
        try:
            return rows, ProjMat(rows, place)
        except ValueError:
            assume(False)

    (g_rows, g), (h_rows, h) = draw(), draw()
    k = data.draw(st.integers(-3, 4))
    ident = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    g_inv = fraction_inverse(g_rows)
    want_power = ident
    for _ in range(abs(k)):
        want_power = fraction_matmul(want_power, g_rows if k > 0 else g_inv)
    _assert_cleared(g, tuple(tuple(F(x) for x in r) for r in g_rows))
    _assert_cleared(g @ h, fraction_matmul(g_rows, h_rows))
    _assert_cleared(g.inverse(), g_inv)
    _assert_cleared(g.transpose(), tuple(zip(*fraction_view(g))))
    _assert_cleared(g.power(k), want_power)
    _assert_cleared(identity(n, place), ident)
    # equal matrices built along different paths are equal, with equal hashes
    for x, y in (
        (g @ g.inverse(), identity(n, place)),
        (g @ h, ProjMat(fraction_view(g @ h), place)),
        ((g @ h).inverse(), h.inverse() @ g.inverse()),
        (g.transpose().transpose(), g),
        (g.power(-2), g.inverse() @ g.inverse()),
        (g.power(0), ProjMat(ident, place)),
    ):
        assert x == y and hash(x) == hash(y)
    assert g != ProjMat(tuple(tuple(2 * x for x in r) for r in g_rows), place)


def test_product_scale_shrinks():
    # scales 6 and 2 give a product over 12 whose entries reduce to halves:
    # one gcd with the scale, 6, clears it to ((1, 1), (0, 3)) over 2
    a = ProjMat(((F(1, 2), F(1, 3)), (0, 1)), ARCH)
    b = ProjMat(((1, 0), (0, F(3, 2))), ARCH)
    assert a._integer_form == (((3, 2), (0, 6)), 6) and b._integer_form == (((2, 0), (0, 3)), 2)
    ab = a @ b
    assert ab._integer_form == (((1, 1), (0, 3)), 2)
    assert ab == ProjMat(((F(1, 2), F(1, 2)), (0, F(3, 2))), ARCH) and fraction_view(ab) == fraction_matmul(fraction_view(a), fraction_view(b))
    # and to scale 1 when the product is integral; the inverse's last pivot
    # is -2 here, and its sign moves into the rows
    flip = ProjMat(((F(-1, 2), 0), (0, 1)), ARCH)
    assert flip.inverse()._integer_form == (((-2, 0), (0, 1)), 1)
    assert (flip @ flip.inverse())._integer_form == (((1, 0), (0, 1)), 1) == identity(2, ARCH)._integer_form
    swap = ProjMat(((0, F(1, 2)), (2, 0)), ARCH)
    assert swap.inverse()._integer_form == (((0, 1), (4, 0)), 2)


# ---------------------------------------------------------------------------
# Dimension 2: the closed forms against the general path
# ---------------------------------------------------------------------------

# entries of both sizes: small rationals, and integers of 80 bits
_ENTRY_2 = st.one_of(_COORD, st.integers(-(2**80), 2**80))
_PLACES_2 = st.sampled_from([ARCH, padic(3)])


def _matrix_2(data, place) -> ProjMat:
    try:
        return ProjMat([[data.draw(_ENTRY_2) for _ in range(2)] for _ in range(2)], place)
    except ValueError:
        assume(False)


def _point_2(data) -> ProjPoint:
    return ProjPoint(data.draw(st.lists(_ENTRY_2, min_size=2, max_size=2).filter(any)))


@settings(max_examples=100, deadline=None)
@given(_PLACES_2, st.data())
def test_dimension_2_products_images_and_inverses_match_the_general_path(place, data):
    g, h, p = _matrix_2(data, place), _matrix_2(data, place), _point_2(data)
    (a, sa), (b, sb) = g._integer_form, h._integer_form
    assert (g @ h)._integer_form == projective._cleared(projective._product(a, b), sa * sb)
    assert apply(g, p).coords == projective.primitive(projective._image(a, p.coords))
    assert projective.inverse_rows(a, sa) == projective._eliminated_inverse(a, sa)


@settings(max_examples=100, deadline=None)
@given(_PLACES_2, st.data())
def test_dimension_2_wedge_and_distance_match_the_general_path(place, data):
    p, q = _point_2(data), _point_2(data)
    v, w = p.coords, q.coords
    assert wedge(v, w) == projective._minors(v, w)
    assert projective.dist_sq_pair(p, q, place) == projective._ratio_sq(projective._minors(v, w), v, w, place)
