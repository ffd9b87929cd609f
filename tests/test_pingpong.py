import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freecert.dynamics import ProximalCert, certify_very_proximal
from freecert.pingpong import (
    MAX_ORACLE_WORDS,
    PingPongPlayer,
    certify_tuple,
    freeness_oracle,
    oracle_words,
    simple_player,
)
from freecert.projective import ProjMat, ProjPoint, ball, hnbhd
from freecert.scalar import ARCH, padic, pair_count, tuple_pairs, word_string
from freecert.tree import AmalgamData, FiniteGroup
from oracles import freeness_dfs, group_from_permutations, normal_form, set_member

E1 = ProjPoint((1, 0))
E2 = ProjPoint((0, 1))
ROT45 = ProjMat(((1, -1), (1, 1)), ARCH)
SANOV_A = ProjMat(((1, 2), (0, 1)), ARCH)
SANOV_B = ProjMat(((1, 0), (2, 1)), ARCH)


def diag81():
    return ProjMat(((81, 0), (0, 1)), ARCH)


def player_from(name, g, r_sq=F(1, 4), eps_sq=F(1, 64), declared=F(1, 10)):
    v = certify_very_proximal(g, r_sq, eps_sq)
    assert v.kind == "yes", f"fixture {name} failed to certify"
    cert = v.cert
    c_f = cert.contraction
    c_b = cert.very.contraction
    return PingPongPlayer(
        name=name,
        element=g,
        a_plus=ball(c_f.attract, declared),
        r_plus=hnbhd(c_f.repel, declared),
        a_minus=ball(c_b.attract, declared),
        r_minus=hnbhd(c_b.repel, declared),
        evidence=cert,
    )


def test_single_player_certified():
    out = certify_tuple([player_from("g", diag81())])
    assert out.verdict == "certified"
    assert out.passed == (True,) * pair_count(1)


def test_two_identical_players_refuted():
    p1 = player_from("g", diag81())
    p2 = player_from("h", diag81())
    out = certify_tuple([p1, p2])
    assert out.verdict == "refuted"
    assert out.witness is not None
    # the witness genuinely lies in both overlapping sets
    assert set_member(out.witness, p1.a_plus, ARCH)
    assert set_member(out.witness, p2.a_plus, ARCH)


def test_refutation_names_the_last_pair_walked():
    players = [player_from("g", diag81()), player_from("h", diag81())]
    out = certify_tuple(players)
    assert out.verdict == "refuted" and out.passed[-1] is False
    _, _, left, right = list(tuple_pairs([(p.name, [s for _, s in p.sets()]) for p in players]))[len(out.passed) - 1]
    assert out.witness_detail == f"{left} meets {right}"


def test_conjugated_pair_certified_and_oracle_consistent():
    g = diag81()
    h = ROT45 @ g @ ROT45.inverse()
    pg, ph = player_from("g", g), player_from("h", h)
    out = certify_tuple([pg, ph])
    assert out.verdict == "certified"
    assert freeness_oracle([g, h], 6, names=["g", "h"]).kind == "no-relation"
    assert freeness_oracle([g, h], 8, names=["g", "h"]).kind == "no-relation"


def test_order_invariance():
    g = diag81()
    h = ROT45 @ g @ ROT45.inverse()
    pg, ph = player_from("g", g), player_from("h", h)
    assert certify_tuple([pg, ph]).verdict == certify_tuple([ph, pg]).verdict


def test_simple_tuple_certified():
    g = diag81()
    v = certify_very_proximal(g, F(1, 4), F(1, 64))
    assert v.kind == "yes"
    p = simple_player("g", g, ball(E1, F(1, 10)), ball(E2, F(1, 10)), v.cert)
    out = certify_tuple([p])
    assert out.verdict == "certified"


def test_simple_tuple_duplicates_refuted():
    g = diag81()
    v = certify_very_proximal(g, F(1, 4), F(1, 64))
    p1 = simple_player("g", g, ball(E1, F(1, 10)), ball(E2, F(1, 10)), v.cert)
    p2 = simple_player("h", g, ball(E1, F(1, 10)), ball(E2, F(1, 10)), v.cert)
    assert certify_tuple([p1, p2]).verdict == "refuted"


def test_unipotent_has_no_valid_evidence():
    g = diag81()
    uni = ProjMat(((1, 1), (0, 1)), ARCH)
    v = certify_very_proximal(g, F(1, 4), F(1, 64))
    good = simple_player("g", g, ball(E1, F(1, 10)), ball(E2, F(1, 10)), v.cert)
    bad = simple_player("u", uni, ball(ProjPoint((1, 1)), F(1, 100)), ball(ProjPoint((1, -1)), F(1, 100)), None)
    out = certify_tuple([good, bad])
    assert out.verdict in ("unknown", "refuted")


def test_mismatched_backends_rejected():
    from freecert.tree import AmalgamData, BassSerreTree, FiniteGroup, ShadowSet, parse_word, TreeEvidence, classify

    am = AmalgamData(
        FiniteGroup(((0, 1), (1, 0)), names=("e", "s")),
        FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)), names=("e", "t", "u")),
        FiniteGroup(((0,),), names=("e",)),
        (0,),
        (0,),
    )
    tree = BassSerreTree(am)
    st = parse_word(am, "s t")
    cls = classify(st)
    u, v = cls.axis_edge
    sh = ShadowSet(tree, u, v)
    tree_player = PingPongPlayer("t0", st, sh, sh, sh, sh, TreeEvidence(cls))
    with pytest.raises(ValueError, match="backend"):
        certify_tuple([player_from("g", diag81()), tree_player])


TINY = F(1, 10**12)


def _tiny_attracting_balls(cert, p):
    c_f, c_b = cert.contraction, cert.very.contraction
    return PingPongPlayer(p.name, p.element, ball(c_f.attract, TINY), p.r_plus, ball(c_b.attract, TINY), p.r_minus, cert)


def _forward_only(cert, p):
    one_way = ProximalCert(cert.r_sq, cert.contraction, cert.fixed_point, cert.fixed_plane_dual)
    return PingPongPlayer(p.name, p.element, p.a_plus, p.r_plus, p.a_minus, p.r_minus, one_way)


def _tiny_repelling_nbhd(cert, p):
    return PingPongPlayer(p.name, p.element, p.a_plus, hnbhd(cert.contraction.repel, TINY), p.a_minus, p.r_minus, cert)


def _no_evidence(cert, p):
    return PingPongPlayer(p.name, p.element, p.a_plus, p.r_plus, p.a_minus, p.r_minus, None)


@pytest.mark.parametrize(
    "declare, why",
    [
        (_tiny_attracting_balls, "g: forward image ball not certified inside the declared attracting set"),
        (_forward_only, "g: evidence lacks the inverse direction"),
        (_tiny_repelling_nbhd, "g: forward evidence repelling set not certified inside the declared one"),
        (_no_evidence, "g: no usable mapping evidence"),
    ],
)
def test_unusable_mapping_evidence_is_unknown(declare, why):
    g = diag81()
    v = certify_very_proximal(g, F(1, 4), F(1, 64))
    assert v.kind == "yes"
    out = certify_tuple([declare(v.cert, player_from("g", g))])
    assert (out.verdict, out.witness, out.witness_detail) == ("unknown", None, why)
    assert out.passed == (True,) * pair_count(1)


def test_oracle_sanov_pair():
    out = freeness_oracle([SANOV_A, SANOV_B], 6, names=["a", "b"])
    assert out.kind == "no-relation"


def test_oracle_identity_relation():
    ident = ProjMat(((1, 0), (0, 1)), ARCH)
    out = freeness_oracle([ident], 1, names=["a"])
    assert out.kind == "relation" and out.word == "a"


def test_oracle_inverse_pair_relation():
    g = SANOV_A
    out = freeness_oracle([g, g.inverse()], 2, names=["a", "b"])
    assert out.kind == "relation"
    assert out.word == "a b"  # shortlex-minimal witness


def test_oracle_projective_scalar_relation():
    # -identity is the identity in PGL: 90-degree rotation has order 2 there
    rot90 = ProjMat(((0, -1), (1, 0)), ARCH)
    out = freeness_oracle([rot90], 2, names=["r"])
    assert out.kind == "relation" and out.word == "r r"


def test_word_string_formatting():
    assert word_string(((0, 1), (1, -1)), ["a", "b"]) == "a b^-1"


# ---------------------------------------------------------------------------
# The meet-in-the-middle oracle against the depth-first reference
# ---------------------------------------------------------------------------

# finite order in PGL(2): 2, 3, 4, 6; the rest have infinite order
FINITE_ORDER = (((0, -1), (1, 0)), ((0, -1), (1, 1)), ((1, -1), (1, 1)), ((1, -1), (1, 0)))
PLACES = (ARCH, padic(2), padic(3))


def _c(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def _amalgams() -> tuple[AmalgamData, ...]:
    s3 = group_from_permutations([(0, 2, 1), (1, 2, 0)])
    return (
        AmalgamData(_c(2), _c(3), _c(1), (0,), (0,)),  # Z/2 * Z/3
        AmalgamData(_c(4), _c(6), _c(2), (0, 2), (0, 3)),  # Z/4 *_{Z/2} Z/6, the shape of SL(2, Z)
        AmalgamData(s3, s3, _c(2), (0, 1), (0, 1)),  # S3 *_{Z/2} S3
    )


AMALGAMS = _amalgams()


def _same(elements, max_len):
    """The oracle's result, with elements named g0, g1, ..., which the
    depth-first reference also gives."""
    names = [f"g{i}" for i in range(len(elements))]
    got = freeness_oracle(elements, max_len, names)
    assert got == freeness_dfs(elements, max_len, names)
    return got


@st.composite
def _matrix_sets(draw):
    """1 to 3 invertible matrices at one place; some have finite order, or
    are a product of earlier ones, so relations come up too."""
    n = draw(st.sampled_from((2, 2, 3)))
    place = draw(st.sampled_from(PLACES))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("random", "random", "finite", "product")))
        if kind == "finite" and n == 2:
            out.append(ProjMat(draw(st.sampled_from(FINITE_ORDER)), place))
        elif kind == "product" and out:
            x, y = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(x @ y.inverse() if draw(st.booleans()) else x @ y)
        else:
            rows = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(n))
            try:
                out.append(ProjMat(rows, place))
            except ValueError:
                assume(False)
    return out


@st.composite
def _tree_sets(draw):
    """1 to 3 elements of a small amalgam, each a word of 1 to 4
    nontrivial letters from the two factors in turn."""
    am = draw(st.sampled_from(AMALGAMS))
    orders = {"A": am.group_a.order, "B": am.group_b.order}
    out = []
    for _ in range(draw(st.integers(1, 3))):
        tags = "AB" * 2 if draw(st.booleans()) else "BA" * 2
        word = [(tag, draw(st.integers(1, orders[tag] - 1))) for tag in tags[: draw(st.integers(1, 4))]]
        out.append(normal_form(am, word))
    return out


@settings(max_examples=60, deadline=None)
@given(_matrix_sets())
def test_oracle_matches_the_depth_first_reference_on_matrices(elements):
    _same(elements, 6 if len(elements) < 3 else 4)


@settings(max_examples=60, deadline=None)
@given(_tree_sets())
def test_oracle_matches_the_depth_first_reference_on_trees(elements):
    _same(elements, 6 if len(elements) < 3 else 4)


def test_oracle_scalar_generator_is_a_relation_of_length_one():
    scalar = ProjMat(((3, 0), (0, 3)), ARCH)
    out = _same([SANOV_A, scalar], 4)
    assert out.kind == "relation" and out.word == "g1"


def test_oracle_odd_length_relation():
    order3 = ProjMat(((0, -1), (1, 1)), padic(3))  # order 3 in PGL(2)
    assert _same([order3], 3).word == "g0 g0 g0"
    assert _same([SANOV_A.power(2), SANOV_A, SANOV_B], 3).word == "g0 g1^-1 g1^-1"


def test_oracle_junction_rule():
    # at length 2 every word u = g meets v = g with last(u) = last(v): that
    # match is g g^-1, not a reduced word, and must not be reported
    order3 = ProjMat(((0, -1), (1, 1)), ARCH)
    assert _same([order3], 2).kind == "no-relation"
    assert _same([SANOV_A, SANOV_B], 8).kind == "no-relation"


def test_oracle_tree_relation():
    am = AMALGAMS[0]
    x = normal_form(am, [("A", 1), ("B", 1)])  # s t, of infinite order
    out = _same([x, x @ x], 3)
    assert out.word == "g0 g0 g1^-1"


def test_oracle_three_generators_to_length_8_within_a_second():
    a, b = SANOV_A, SANOV_B
    three = [b, a @ b @ a.inverse(), a.power(2) @ b @ a.power(-2)]  # a free basis of a subgroup
    t0 = time.perf_counter()
    assert freeness_oracle(three, 8, ["b", "aba^-1", "a^2ba^-2"]).kind == "no-relation"
    assert time.perf_counter() - t0 < 1


def test_oracle_refuses_a_search_past_the_word_limit():
    assert oracle_words(3, 8) == 750 and oracle_words(3, 12) == 18750 <= MAX_ORACLE_WORDS
    assert oracle_words(4, 12) > MAX_ORACLE_WORDS
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_ORACLE_WORDS"):
        freeness_oracle([SANOV_A, SANOV_B, SANOV_A.power(2), SANOV_B.power(2)], 12, ["a", "b", "a2", "b2"])
    assert time.perf_counter() - t0 < 1
