from fractions import Fraction as F

import pytest

from freecert.dynamics import certify_very_proximal
from freecert.pingpong import (
    PingPongPlayer,
    certify_tuple,
    freeness_oracle,
    simple_player,
    word_string,
)
from freecert.projective import ProjHyperplane, ProjMat, ProjPoint, ball, hnbhd
from freecert.scalar import ARCH
from oracles import set_member

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
    assert all(c.ok for c in out.checks)


def test_two_identical_players_refuted():
    p1 = player_from("g", diag81())
    p2 = player_from("h", diag81())
    out = certify_tuple([p1, p2])
    assert out.verdict == "refuted"
    assert out.witness is not None
    # the witness genuinely lies in both overlapping sets
    assert set_member(out.witness, p1.a_plus, ARCH)
    assert set_member(out.witness, p2.a_plus, ARCH)


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
    cls = classify(st, am)
    u, v = cls.axis_edge
    sh = ShadowSet(tree, u, v)
    tree_player = PingPongPlayer("t0", st, sh, sh, sh, sh, TreeEvidence(cls))
    with pytest.raises(ValueError, match="backend"):
        certify_tuple([player_from("g", diag81()), tree_player])


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
