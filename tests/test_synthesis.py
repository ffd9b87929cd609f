from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.dynamics import certify_proximal, certify_very_proximal, contraction_gap_sq, direction_candidates, singular_profile
from freecert.projective import MarkedGroup, ProjMat, ProjPoint, ball, concat, known_not_proximal, set_contains, word_inverse
from freecert.scalar import ARCH, padic
from freecert.synthesis import (
    EPS_SQ_FLOOR_BITS,
    Budgets,
    ConjugateFactor,
    NormalData,
    NormalWord,
    auto_very_proximal,
    b1b2b3_synthesize,
    conjugate_contract,
    double_coset_wrap,
    normal_proximal,
    truncated_prodense,
    very_proximal_search,
    word_power,
    HostRegion,
    _eps_ladder,
    _eps_tries,
)
from oracles import pow2_at_least_loop, pow4_at_least_loop

E1, E2 = ProjPoint((1, 0)), ProjPoint((0, 1))
G25 = ProjMat(((25, 0), (0, 1)), ARCH)
ROT90 = ProjMat(((0, -1), (1, 0)), ARCH)
ROT45 = ProjMat(((1, -1), (1, 1)), ARCH)
SANOV_A = ProjMat(((1, 2), (0, 1)), ARCH)
SANOV_B = ProjMat(((1, 0), (2, 1)), ARCH)


def sanov():
    return MarkedGroup((("a", SANOV_A), ("b", SANOV_B)))


def test_word_utilities():
    w = concat([(0, 1), (0, -1), (1, 1)])
    assert w == ((1, 1),)
    assert word_inverse(((0, 1), (1, -1))) == ((1, 1), (0, -1))
    assert concat(((0, 1),), ((0, -1), (1, 1))) == ((1, 1),)
    assert word_power(((0, 1),), 3) == ((0, 1),) * 3
    assert word_power(((0, 1),), -2) == ((0, -1),) * 2


def test_marked_group_basics():
    g = sanov()
    assert g.parse_word("a b^-1") == ((0, 1), (1, -1))
    assert g.parse_word("a^2") == ((0, 1), (0, 1))
    assert g.word_str(((0, 1), (1, -1))) == "a b^-1"
    assert g.eval(g.parse_word("a a^-1")).is_identity()
    with pytest.raises(KeyError):
        g.parse_word("c")
    words = list(g.words_upto(2))
    # shortlex: length 1 first, positives before inverses
    assert words[:4] == [((0, 1),), ((1, 1),), ((0, -1),), ((1, -1),)]
    assert all(len(w) == 2 for w in words[4:])
    # freely reduced only
    assert ((0, 1), (0, -1)) not in words


def test_normal_word_membership_structure():
    g = sanov()
    reps = [g.parse_word("a a")]
    nw = NormalWord((ConjugateFactor(g.parse_word("b"), 0, 1),))
    w = nw.to_word(reps)
    assert w == g.parse_word("b a a b^-1")
    conj = nw.conjugated_by(g.parse_word("a"))
    assert conj.to_word(reps) == g.parse_word("a b a a b^-1 a^-1")
    sq = nw.power(2)
    assert g.eval(sq.to_word(reps)).proportional_to(g.eval(w) @ g.eval(w))
    inv = nw.power(-1)
    assert g.eval(concat(w, inv.to_word(reps))).is_identity()


def test_conjugate_contract_spec_instance():
    grp = MarkedGroup((("g", ProjMat(((9, 0), (0, 1)), ARCH)), ("r", ROT90)))
    out = conjugate_contract(grp, grp.parse_word("g"), grp.parse_word("r"), 6, F(1, 100))
    assert out is not None
    m, word, cert = out
    assert 1 <= m <= 6
    assert grp.eval(word).proportional_to(
        grp.eval(grp.parse_word("g")).power(m) @ ROT90 @ grp.eval(grp.parse_word("g")).power(-m)
    )


def test_conjugate_contract_general_position_errors():
    grp = MarkedGroup((("g", G25), ("r", ROT90), ("d", ProjMat(((2, 0), (0, 3)), ARCH))))
    with pytest.raises(ValueError, match="general position"):
        conjugate_contract(grp, grp.parse_word("g"), (), 4, F(1, 100))
    with pytest.raises(ValueError, match="general position"):
        conjugate_contract(grp, grp.parse_word("g"), grp.parse_word("d"), 4, F(1, 100))


def bbb_group():
    return MarkedGroup((("g", G25), ("r", ROT90), ("s", ROT45)))


def test_b1b2b3_desk_instance():
    grp = bbb_group()
    a_set, r_set = ball(E1, F(1, 25)), ball(E2, F(1, 25))
    out = b1b2b3_synthesize(
        grp, grp.parse_word("g"), a_set, r_set, grp.parse_word("r"), grp.parse_word("r"), grp.parse_word("s"), 32
    )
    assert out is not None
    assert out.k <= 32
    # produced sets certified inside the host attracting set
    assert set_contains(a_set, out.attract, ARCH)
    assert set_contains(a_set, out.repel, ARCH)
    # the word matches the constructed element
    expected = (
        G25
        @ ROT90
        @ G25.power(-(1 + out.k))
        @ ROT90
        @ G25.power(out.k + 1)
        @ ROT45
        @ G25.inverse()
    )
    assert grp.eval(out.word).proportional_to(expected)


def test_b1b2b3_identity_hypothesis_error():
    grp = bbb_group()
    with pytest.raises(ValueError, match="b1 R meets R"):
        b1b2b3_synthesize(
            grp, grp.parse_word("g"), ball(E1, F(1, 25)), ball(E2, F(1, 25)), (), grp.parse_word("r"), grp.parse_word("s"), 4
        )


def test_b1b2b3_zero_budget_not_found():
    grp = bbb_group()
    # hypotheses hold but k may not fit in the empty budget window
    out = b1b2b3_synthesize(
        grp,
        grp.parse_word("g"),
        ball(E1, F(1, 25)),
        ball(E2, F(1, 25)),
        grp.parse_word("r"),
        grp.parse_word("r"),
        grp.parse_word("s"),
        0,
    )
    assert out is None or out.k == 0


def test_very_proximal_search_found():
    grp = MarkedGroup((("g", G25), ("s", ROT45)))
    out = very_proximal_search(grp, grp.parse_word("g"), 2, F(1, 4), F(1, 25))
    assert out is not None
    f1, f2, w, cert = out
    assert cert.r_sq == F(1, 4) and cert.contraction.epsilon_sq == F(1, 25)
    assert len(f1) <= 2 and len(f2) <= 2


def test_very_proximal_search_not_found():
    grp = MarkedGroup((("g", G25),))
    # budget of zero-length candidate words: w = g () g^-1 () is trivial
    out = very_proximal_search(grp, grp.parse_word("g"), 0, F(1, 4), F(1, 25))
    assert out is None


def test_very_proximal_search_precondition():
    grp = MarkedGroup((("r", ROT90), ("g", G25)))
    with pytest.raises(ValueError, match="not certified contracting"):
        very_proximal_search(grp, grp.parse_word("r"), 1, F(1, 4), F(1, 25))


def test_normal_proximal_sanov():
    grp = sanov()
    data = NormalData("ncl(a^2)", (grp.parse_word("a a"),))
    out = normal_proximal(grp, data, None, Budgets())
    assert out is not None
    # syntactic membership: the proof flattens to the word and evaluates equal
    assert grp.eval(out.word).proportional_to(grp.eval(out.proof.to_word([grp.parse_word("a a")])))
    assert all(f.rep_index == 0 and f.exponent in (-1, 1) for f in out.proof.factors)


def test_normal_proximal_trivial_class():
    grp = sanov()
    with pytest.raises(ValueError, match="trivial class"):
        normal_proximal(grp, NormalData("triv", ((),)), None, Budgets())


def test_normal_proximal_host_too_small():
    grp = sanov()
    data = NormalData("ncl(a^2)", (grp.parse_word("a a"),))
    tiny = HostRegion(ball(ProjPoint((1, 1)), F(1, 4**30)))
    out = normal_proximal(grp, data, tiny, Budgets(nest_max=2), nest_element=grp.parse_word("a b"))
    assert out is None


def test_truncated_prodense_empty_normals():
    with pytest.raises(ValueError, match="nothing to intersect"):
        truncated_prodense(sanov(), [], Budgets())


def test_truncated_prodense_zero_budgets():
    grp = sanov()
    data = NormalData("ncl(a^2)", (grp.parse_word("a a"),), (grp.parse_word("a"),))
    rep = truncated_prodense(grp, [data], budgets=Budgets(host_word_len=0))
    assert rep.verdict == "unknown"
    assert any("host" in n for n in rep.notes)


def test_truncated_prodense_sanov_end_to_end():
    grp = sanov()
    data = NormalData(
        "ncl(a^2)",
        (grp.parse_word("a a"),),
        (grp.parse_word("a"), grp.parse_word("b")),
    )
    rep = truncated_prodense(grp, [data], Budgets())
    assert rep.verdict == "certified"
    assert rep.step1_tuple is not None and rep.step1_tuple.verdict == "certified"
    assert rep.combined is not None and rep.combined.verdict == "certified"
    assert rep.oracle is not None and rep.oracle.kind == "no-relation"
    deltas = rep.step2["ncl(a^2)"]
    assert len(deltas) == 2
    reps_list = [grp.parse_word("a a")]
    for cr in deltas:
        # coset correctness re-verified at the word level
        lhs = grp.eval(concat(cr.word, word_inverse(cr.coset_rep)))
        rhs = grp.eval(cr.membership.to_word(reps_list))
        assert lhs.proportional_to(rhs)
        # Remark-style nesting into a_N's sets re-verified
        a_n = rep.step1[0]
        inner = cr.cert.eps_sets
        outer = a_n.cert.eps_sets
        for i_set, o_set in zip(inner, outer):
            assert set_contains(o_set, i_set, ARCH)
    # the step-1 element stays clear of the final host sets (tuple checked it)
    assert all(rep.combined.passed)


def test_double_coset_wrap():
    h1 = G25
    h2 = ROT45 @ G25 @ ROT45.inverse()
    grp = MarkedGroup((("h1", h1), ("h2", h2), ("r", ROT90)))
    c1, c2 = auto_very_proximal(h1), auto_very_proximal(h2)
    assert c1 is not None and c2 is not None
    out = double_coset_wrap(grp, grp.parse_word("h1"), grp.parse_word("h2"), c1, c2, [grp.parse_word("r"), ()], Budgets())
    assert len(out) == 2
    wrapped = out[0]
    assert not wrapped.skipped
    assert wrapped.m >= 1 and wrapped.n >= 1
    # sets inside h1's attracting set and disjoint from its fixed-point enclosure
    from freecert.projective import ProjSet

    sets = ProjSet((wrapped.cert.attract_set, wrapped.cert.repel_set))
    assert set_contains(ProjSet((c1.contraction.attract_set,)), sets, ARCH)
    assert out[1].skipped == "trivial double coset"


def test_double_coset_wrap_empty():
    h1 = G25
    h2 = ROT45 @ G25 @ ROT45.inverse()
    grp = MarkedGroup((("h1", h1), ("h2", h2)))
    c1, c2 = auto_very_proximal(h1), auto_very_proximal(h2)
    assert double_coset_wrap(grp, grp.parse_word("h1"), grp.parse_word("h2"), c1, c2, [], Budgets()) == []


# rationals around the ladder: exact rungs 2^-j and their neighbours, from
# above the top rung down past the floor 2^-EPS_SQ_FLOOR_BITS, plus x <= 0
_RUNG = st.integers(-1, EPS_SQ_FLOOR_BITS + 8).map(lambda j: F(1, 2**j) if j >= 0 else F(2))
_LADDER_X = st.one_of(
    _RUNG,
    st.tuples(_RUNG, st.integers(-3, 3)).map(lambda t: t[0] * (1 + F(t[1], 1000))),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**40),
    st.just(F(0)),
)


@settings(max_examples=300, deadline=None)
@given(_LADDER_X)
def test_eps_ladder_matches_the_stepwise_search(x):
    assert _eps_ladder(x, 1) == pow2_at_least_loop(x)
    assert _eps_ladder(x, 2) == pow4_at_least_loop(x)


def test_auto_very_proximal_is_memoized_on_exact_equality():
    m = ProjMat(((5, 2), (2, 1)), ARCH)
    auto_very_proximal.cache_clear()
    got = auto_very_proximal(m)
    assert got is not None and got == auto_very_proximal.__wrapped__(m)
    # an equal matrix built another way is a hit
    again = (m @ m) @ m.inverse()
    assert again is not m and again == m
    assert auto_very_proximal(again) is got
    assert auto_very_proximal.cache_info().hits == 1
    # 2m is the same projective map, but a different key and certificate:
    # the gap bounds and enclosures are computed on the matrix itself
    doubled = ProjMat(((10, 4), (4, 2)), ARCH)
    assert doubled.class_key() == m.class_key()
    assert auto_very_proximal(doubled) != got
    assert auto_very_proximal.cache_info().misses == 2


def test_auto_very_proximal_gates_before_gap_work():
    # contraction_gap_sq reads the memoized singular_profile
    caches = (auto_very_proximal, direction_candidates, singular_profile)
    for place in (ARCH, padic(3)):
        a = ProjMat(((1, 2), (0, 1)), place)
        for c in caches:
            c.cache_clear()
        for m in (a, a.power(8)):
            assert known_not_proximal(m)
            assert auto_very_proximal(m) is None
        assert direction_candidates.cache_info().misses == singular_profile.cache_info().misses == 0
    hyperbolic = ProjMat(((2, 1), (1, 1)), ARCH)
    assert not known_not_proximal(hyperbolic)
    auto_very_proximal(hyperbolic)
    assert direction_candidates.cache_info().misses == singular_profile.cache_info().misses == 2


def test_known_not_proximal_decides_only_2x2_repeated_moduli():
    elliptic = ((0, -2), (1, 1))  # (a - d)^2 + 4bc = -7
    assert known_not_proximal(ProjMat(elliptic, ARCH))
    # -7 is a square in Q_2: the eigenvalues lie in Q_2, of valuations 0 and 1
    assert not known_not_proximal(ProjMat(elliptic, padic(2)))
    assert known_not_proximal(ProjMat(((F(1, 3), F(2, 3)), (0, F(1, 3))), padic(5)))
    assert not known_not_proximal(ProjMat(((1, 2, 0), (0, 1, 0), (0, 0, 1)), ARCH))


_NONZERO = st.integers(-6, 6).filter(bool)


def _parabolic(lam, k, p, q, scale):
    """(lam I + k u v^T) / scale with u = (p, q), v = (q, -p): v^T u = 0, so
    the one eigenvalue lam / scale, twice, in a Jordan block (k, q != 0)."""
    rows = ((lam + k * p * q, -k * p * p), (k * q * q, lam - k * p * q))
    return tuple(tuple(F(x, scale) for x in r) for r in rows)


def _elliptic(a, d, b, extra, sign):
    """(a - d)^2 + 4bc < 0: c has the sign opposite to b's and 4|bc| > (a - d)^2."""
    c = (a - d) ** 2 // (4 * b) + 1 + extra
    return ((a, sign * b), (-sign * c, d))


_PARABOLIC = st.tuples(
    st.builds(_parabolic, _NONZERO, _NONZERO, st.integers(-4, 4), st.integers(1, 4), st.integers(1, 3)),
    st.sampled_from([ARCH] + [padic(p) for p in (2, 3, 5, 7)]),
)
_ELLIPTIC = st.tuples(
    st.builds(_elliptic, st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 8), st.integers(0, 40), st.sampled_from((1, -1))),
    st.just(ARCH),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_PARABOLIC, _ELLIPTIC), st.sampled_from((F(65, 64), 2, 16, 256)))
def test_no_certifier_answers_yes_on_what_the_gate_skips(matrix, r_factor):
    # the gate keeps certificates byte-identical only because the certifiers
    # it skips could never certify such a matrix: run them ungated
    entries, place = matrix
    m = ProjMat(entries, place)
    assert known_not_proximal(m)
    for eps_sq in _eps_tries(max(contraction_gap_sq(m).hi, contraction_gap_sq(m.inverse()).hi)):
        r_sq = min(4 * eps_sq * r_factor, F(1))
        if r_sq > 4 * eps_sq:
            assert certify_very_proximal(m, r_sq, eps_sq).kind != "yes"
            assert certify_proximal(m, r_sq, eps_sq).kind != "yes"
