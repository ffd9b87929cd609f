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
from freecert.checker import witness_refutes
from freecert.dynamics import certify_contracting, direction_candidates, selfmap_enclosure
from freecert.projective import ProjMat
from freecert.scalar import ARCH, padic

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
