"""The searches and the verifier decide through the same inequalities: every
verdict the producer reaches on a random matrix passes the checker."""

from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freecert.certfmt import (
    CertContext,
    check_claim,
    claim_contraction,
    claim_contraction_refuted,
    claim_selfmap,
    mat_json,
)
from freecert.checker import selfmap_at, selfmap_radii, witness_refutes
from freecert.dynamics import certify_contracting, contraction_gap_sq, direction_candidates, selfmap_enclosure
from freecert.projective import ProjHyperplane, ProjMat, ProjPoint
from freecert.scalar import ARCH, padic, sqrt_upper
from oracles import fraction_selfmap_at

PLACES = {"arch": ARCH, "p:5": padic(5)}


@st.composite
def _matrices(draw):
    n = draw(st.integers(2, 4))
    rows = tuple(tuple(draw(st.integers(-6, 6)) for _ in range(n)) for _ in range(n))
    place = PLACES[draw(st.sampled_from(sorted(PLACES)))]
    try:
        m = ProjMat(rows, place)
    except ValueError:
        assume(False)
    # powers sharpen the singular gap, so "yes" verdicts come up too
    return m.power(draw(st.integers(1, 4)))


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.sampled_from([F(1, 4), F(1, 9), F(1, 25), F(1, 100)]))
@example(ProjMat(((81, 0), (0, 1)), ARCH), F(1, 4))
@example(ProjMat(((25, 5), (0, 1)), padic(5)), F(1, 25))
@example(ProjMat(((1, 0), (0, 1)), padic(5)), F(1, 4))
def test_every_producer_verdict_passes_the_checker(g, epsilon_sq):
    ctx = CertContext(g.place, {"generators": {"g": mat_json(g)}}, {"element": "g", "subop": "contracting"})
    v = certify_contracting(g, epsilon_sq)
    if v.kind == "no":
        dirs = direction_candidates(g)
        assert witness_refutes(g, v.counterexample, dirs.attract, dirs.repel, epsilon_sq)
        assert check_claim(claim_contraction_refuted(g, epsilon_sq, v.counterexample), ctx)
    if v.kind != "yes":
        return
    c = v.cert
    assert check_claim(claim_contraction(g, c), ctx)
    for m, attract, repel, repel_err_sq in c.selfmap_problems(g):
        enc = selfmap_enclosure(m, attract, repel, repel_err_sq, c.gap_sq_hi, epsilon_sq)
        if enc is not None:
            assert check_claim(claim_selfmap(m, enc, repel, repel_err_sq, c.gap_sq_hi, epsilon_sq, attract), ctx)


def _ladder(epsilon_sq):
    return [epsilon_sq / 4**j for j in range(45, 0, -1)]


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.sampled_from([F(1, 4), F(1, 9), F(1, 25), F(1, 100)]), st.integers(0, 5))
@example(ProjMat(((81, 0), (0, 1)), ARCH), F(1, 4), 3)
@example(ProjMat(((25, 5), (0, 1)), padic(5)), F(1, 25), 3)
def test_selfmap_at_matches_fraction_reference(g, epsilon_sq, steps):
    """Along the search's own iteration from the candidate pair, the
    integer self-map test returns the reference's (g center, Enclosure or
    None), trying every radius in turn over Fraction."""
    dirs = direction_candidates(g)
    v = certify_contracting(g, epsilon_sq)
    gap_hi = contraction_gap_sq(g).hi
    problems = v.cert.selfmap_problems(g) if v.kind == "yes" else ((g, dirs.attract, dirs.repel, dirs.repel_err_sq or F(0)),)
    radii_sq = _ladder(epsilon_sq)
    for m, attract, repel, repel_err_sq in problems:
        c = attract
        for _ in range(steps + 1):
            got = selfmap_at(m, c, attract, repel, repel_err_sq, gap_hi, epsilon_sq, selfmap_radii(radii_sq))
            assert got == fraction_selfmap_at(m, c, attract, repel, repel_err_sq, gap_hi, epsilon_sq, radii_sq)
            c = got[0]


_COORD = st.integers(-9, 9)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_selfmap_at_matches_fraction_reference_on_any_pair(g, data):
    """Unrelated centers, pairs, errors and ascending radii: the skipped
    radii end the search exactly when the reference's first break does."""
    n = g.dim
    vec = st.lists(_COORD, min_size=n, max_size=n).filter(any)
    center, attract = ProjPoint(data.draw(vec)), ProjPoint(data.draw(vec))
    repel = ProjHyperplane(data.draw(vec))
    small = st.fractions(min_value=0, max_value=F(1, 4), max_denominator=10**6)
    repel_err_sq, gap_hi = data.draw(small), data.draw(small)
    epsilon_sq = data.draw(st.sampled_from([F(1, 4), F(1, 10), F(9, 100), F(1, 2**20)]))
    tiny = st.builds(lambda a, k: F(a, 2**k), st.integers(1, 9), st.integers(4, 100))
    radii_sq = sorted(set(data.draw(st.lists(tiny, min_size=1, max_size=12))))
    radii_sq = data.draw(st.sampled_from([radii_sq, _ladder(epsilon_sq)]))
    got = selfmap_at(g, center, attract, repel, repel_err_sq, gap_hi, epsilon_sq, selfmap_radii(radii_sq))
    assert got == fraction_selfmap_at(g, center, attract, repel, repel_err_sq, gap_hi, epsilon_sq, radii_sq)


def test_selfmap_at_skipped_radius_still_ends_the_search():
    # sqrt_upper is not monotone: t1 = 1/2 < t2 = 1/2 + 2^-43 has the larger
    # bound.  With reach between the two bounds, t1 ends the reference's
    # search (d_low <= 0), so t2, which would pass, is never tried; the
    # integer test skips t1 (it is at most the move, 1/2) and must still stop.
    t1, t2 = F(1, 2), F(1, 2) + F(1, 2**43)
    u1, u2 = sqrt_upper(t1), sqrt_upper(t2)
    assert u2 < u1
    s = 1 - (u1 + u2) / 2  # repel_err_sq = s^2, so reach = 1 - s lies between
    e1 = ProjPoint((1, 0))
    rot = ProjMat(((1, -1), (1, 1)), ARCH)  # moves e1 by exactly d^2 = 1/2
    args = (rot, e1, e1, ProjHyperplane((1, 0)), s * s, F(0), F(1))
    assert fraction_selfmap_at(*args, [t1, t2]) == (ProjPoint((1, 1)), None)
    assert selfmap_at(*args, selfmap_radii([t1, t2])) == (ProjPoint((1, 1)), None)
    assert selfmap_at(*args, selfmap_radii([t2]))[1] is not None  # t2 alone passes
