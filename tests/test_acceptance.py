"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its wall time and asserting the stated budget."""

import itertools
import json
import random
import time
from fractions import Fraction as F

from freecert.certfmt import CertContext, check_claim, dumps, enclosure_json, mat_json, plane_json, point_json, rat, selfmap_claim
from freecert.cli import main
from freecert.dynamics import (
    certify_contracting,
    contraction_gap_sq,
    padic_exponents,
)
from freecert.pingpong import certify_tuple, freeness_oracle
from freecert.projective import (
    MarkedGroup,
    ProjMat,
    ProjPoint,
    apply,
    ball,
    concat,
    dist_sq,
    dist_to_hyperplane_sq,
    set_contains,
    word_inverse,
)
from freecert.scalar import ARCH, padic, sqrt_lower
from freecert.synthesis import (
    Budgets,
    NormalData,
    auto_very_proximal,
    b1b2b3_synthesize,
    truncated_prodense,
)
from freecert.tree import (
    AmalgamData,
    BassSerreTree,
    FiniteGroup,
    classify,
    kernel_of_action,
    parse_word,
    tree_pingpong,
)
from oracles import all_subgroups, fraction_view, group_from_permutations, set_member

P5 = padic(5)


def report(num: int, label: str, limit: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < limit else "FAIL(time)"
    print(f"ACCEPTANCE {num:02d} {status} {elapsed:7.2f}s (< {limit:.0f}s)  {label}")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def rand_point3(rng) -> ProjPoint:
    while True:
        coords = tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(3))
        if any(coords):
            return ProjPoint(coords)


def test_criterion_01_metric_suite():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for place in (ARCH, P5):
        for _ in range(1000):
            a, b, c = rand_point3(rng), rand_point3(rng), rand_point3(rng)
            ab = dist_sq(a, b, place)
            assert ab == dist_sq(b, a, place)
            assert (ab == 0) == (a == b)
            assert dist_sq(a, a, place) == 0
            bc = dist_sq(b, c, place)
            ac = dist_sq(a, c, place)
            # triangle inequality via the square-root-free criterion with
            # the product's root bounded rationally to width 2^-40
            assert ac <= ab + bc + 2 * sqrt_lower(ab * bc)
    report(1, "standard-metric axioms on 1000 triples in P(Q^3), arch + 5-adic", 10, t0)


def _snf_oracle_exponents(m, p: int):
    """Independent brute force: Smith elimination over Z localized at p.

    Rows may be rescaled by p-units (the unit part of the pivot), which
    leaves the elementary divisors at p untouched.
    """
    a = [list(r) for r in m]
    exps = []
    for k in range(3):
        best = None
        bi = bj = -1
        for i in range(k, 3):
            for j in range(k, 3):
                x = a[i][j]
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best:
                        best, bi, bj = v, i, j
                        if v == 0:
                            break
            if best == 0:
                break
        if bi != k:
            a[k], a[bi] = a[bi], a[k]
        if bj != k:
            for row in a:
                row[k], row[bj] = row[bj], row[k]
        piv = a[k][k]
        pk = p**best
        unit = piv // pk
        for i in range(k + 1, 3):
            x = a[i][k]
            if x:
                xr = x // pk  # exact: pivot valuation is minimal
                for j in range(k, 3):
                    a[i][j] = unit * a[i][j] - xr * a[k][j]
        for j in range(k + 1, 3):
            x = a[k][j]
            if x:
                xr = x // pk
                for i in range(k, 3):
                    a[i][j] = unit * a[i][j] - xr * a[i][k]
        exps.append(best)
    return sorted(exps)


def test_criterion_02_padic_profiles_vs_snf_oracle():
    t0 = time.perf_counter()
    p = 2
    rows = list(itertools.product(range(-2, 3), repeat=3))
    checked = 0
    for r2 in rows:
        d, e, f = r2
        for r3 in rows:
            g, h, i = r3
            m1 = e * i - f * h
            m2 = d * i - f * g
            m3 = d * h - e * g
            for r1 in rows:
                a, b, c = r1
                if a * m1 - b * m2 + c * m3 == 0:
                    continue
                mat = (r1, r2, r3)
                lib = padic_exponents(mat, p)
                if sorted(lib) != _snf_oracle_exponents(mat, p):
                    raise AssertionError(f"profile mismatch at {mat}")
                checked += 1
    assert checked == 1_647_744  # nonsingular count over {-2..2}^9, fixed
    report(2, f"2-adic |sigma| multisets match SNF oracle on {checked} matrices", 60, t0)


def _rot(c, s):
    return ProjMat(((c, -s), (s, c)), ARCH)


def contraction_fixtures():
    """>= 20 certified (matrix, eps_sq) pairs across both places."""
    out = []
    pyth = [_rot(F(3, 5), F(4, 5)), _rot(F(5, 13), F(12, 13)), _rot(F(8, 17), F(15, 17))]
    for d in (25, 81, 49, 64, 100, 121, 144, 169):
        out.append((ProjMat(((d, 0), (0, 1)), ARCH), F(1, d)))
    for i, d in enumerate((25, 81, 49, 64, 100, 121)):
        r = pyth[i % 3]
        # rotated copies carry inexact direction enclosures: leave slack
        out.append((r @ ProjMat(((d, 0), (0, 1)), ARCH) @ r.inverse(), F(2, d)))
    unit5 = ProjMat(((1, 1), (0, 1)), P5)
    unit5b = ProjMat(((2, 1), (1, 1)), P5)
    for e in (2, 4):  # even exponents keep eps rational, so boundary certs are exact
        out.append((ProjMat(((5**e, 0), (0, 1)), P5), F(1, 5**e)))
        out.append((unit5 @ ProjMat(((5**e, 0), (0, 1)), P5) @ unit5.inverse(), F(1, 5**e)))
        out.append((unit5b @ ProjMat(((5**e, 0), (0, 1)), P5) @ unit5b.inverse(), F(1, 5**e)))
    return out


def test_criterion_03_contraction_soundness_sampled():
    t0 = time.perf_counter()
    fixtures = contraction_fixtures()
    assert len(fixtures) >= 20
    assert any(m.place.is_padic for m, _ in fixtures) and any(not m.place.is_padic for m, _ in fixtures)
    rng = random.Random(103)
    for g, eps_sq in fixtures:
        v = certify_contracting(g, eps_sq)
        assert v.kind == "yes", (fraction_view(g), eps_sq)
        cert = v.cert
        checked = 0
        attempts = 0
        while checked < 10_000:
            attempts += 1
            assert attempts < 200_000
            coords = (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
            if not any(coords):
                continue
            x = ProjPoint(coords)
            if dist_to_hyperplane_sq(x, cert.repel, g.place) > eps_sq:
                assert dist_sq(apply(g, x), cert.attract, g.place) <= eps_sq
                checked += 1
    report(3, f"zero violations on 10^4 points for each of {len(fixtures)} certified matrices", 60, t0)


def proximal_fixtures():
    out = []
    pyth = [_rot(F(3, 5), F(4, 5)), _rot(F(5, 13), F(12, 13)), _rot(F(8, 17), F(15, 17)), _rot(F(7, 25), F(24, 25)), _rot(F(20, 29), F(21, 29))]
    diags = (9, 16, 25, 36, 49)
    for i in range(25):
        r = pyth[i % 5]
        d = diags[(i // 5) % 5]
        out.append(r @ ProjMat(((d, 0), (0, 1)), ARCH) @ r.inverse())
    units = [ProjMat(((1, 1), (0, 1)), P5), ProjMat(((2, 1), (1, 1)), P5), ProjMat(((1, 2), (2, 1)), P5), ProjMat(((3, 1), (1, 2)), P5), ProjMat(((1, 0), (3, 1)), P5)]
    for i in range(25):
        u = units[i % 5]
        e = 2 + (i // 5) % 2
        out.append(u @ ProjMat(((5**e, 0), (0, 1)), P5) @ u.inverse())
    return out


def test_criterion_04_fixed_point_enclosures_and_decay():
    t0 = time.perf_counter()
    fixtures = proximal_fixtures()
    assert len(fixtures) == 50
    for g in fixtures:
        cert = auto_very_proximal(g)
        assert cert is not None, fraction_view(g)
        # enclosure self-maps: re-checked through the certificate checker
        c = cert.contraction
        claim = selfmap_claim(
            mat_json(g),
            enclosure_json(cert.fixed_point),
            point_json(c.attract),
            plane_json(c.repel),
            rat(c.repel_err_sq),
            rat(c.gap_sq_hi),
            rat(c.epsilon_sq),
        )
        assert check_claim(claim, CertContext(g.place, {"generators": {"g": mat_json(g)}}, {}))
        uppers = [contraction_gap_sq(g.power(n)).hi for n in range(1, 9)]
        assert all(x >= y for x, y in zip(uppers, uppers[1:]))
    for d in (4, 9, 25):
        for place in (ARCH, P5):
            g = ProjMat(((d, 0), (0, 1)), place)
            base = contraction_gap_sq(g).lo
            assert contraction_gap_sq(g).exact
            for n in range(1, 9):
                iv = contraction_gap_sq(g.power(n))
                assert iv.exact and iv.lo == base**n
    report(4, "50 proximal fixtures: enclosures re-verified, gap decay monotone, diagonal geometric", 120, t0)


def matrix_tuple_fixture():
    rot45 = ProjMat(((1, -1), (1, 1)), ARCH)
    g = ProjMat(((81, 0), (0, 1)), ARCH)
    h = rot45 @ g @ rot45.inverse()
    players = []
    from freecert.synthesis import player_from_cert

    for name, m in (("g", g), ("h", h)):
        cert = auto_very_proximal(m)
        assert cert is not None
        players.append(player_from_cert(name, m, cert))
    return players, [g, h]


def padic_tuple_fixture():
    u = ProjMat(((2, 1), (1, 1)), P5)
    g = ProjMat(((25, 0), (0, 1)), P5)
    h = u @ g @ u.inverse()
    from freecert.synthesis import player_from_cert

    players = []
    for name, m in (("g", g), ("h", h)):
        cert = auto_very_proximal(m)
        assert cert is not None
        players.append(player_from_cert(name, m, cert))
    return players, [g, h]


def mod_amalgam():
    c2 = FiniteGroup(((0, 1), (1, 0)), names=("e", "s"))
    c3 = FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)), names=("e", "t", "u"))
    triv = FiniteGroup(((0,),), names=("e",))
    return AmalgamData(c2, c3, triv, (0,), (0,))


def test_criterion_05_pingpong_implies_free():
    t0 = time.perf_counter()
    players, mats = matrix_tuple_fixture()
    out = certify_tuple(players)
    assert out.verdict == "certified"
    assert freeness_oracle(mats, 6, ["g", "h"]).kind == "no-relation"
    assert freeness_oracle(mats, 8, ["g", "h"]).kind == "no-relation"  # 2-generator tuple

    players5, mats5 = padic_tuple_fixture()
    out5 = certify_tuple(players5)
    assert out5.verdict == "certified"
    assert freeness_oracle(mats5, 6, ["g", "h"]).kind == "no-relation"
    assert freeness_oracle(mats5, 8, ["g", "h"]).kind == "no-relation"

    am = mod_amalgam()
    st2 = parse_word(am, "s t s t")
    conj2 = parse_word(am, "t s t s")
    tree_out = tree_pingpong([st2, conj2])
    assert tree_out.verdict == "certified"
    assert freeness_oracle([st2, conj2], 8, ["x", "y"]).kind == "no-relation"

    # known-free control
    sanov = [ProjMat(((1, 2), (0, 1)), ARCH), ProjMat(((1, 0), (2, 1)), ARCH)]
    assert freeness_oracle(sanov, 6, ["a", "b"]).kind == "no-relation"
    assert freeness_oracle(sanov, 8, ["a", "b"]).kind == "no-relation"
    report(5, "certified tuples (matrix, p-adic, tree) all pass the freeness oracle", 60, t0)


def test_criterion_06_b1b2b3_end_to_end():
    t0 = time.perf_counter()
    g25 = ProjMat(((25, 0), (0, 1)), ARCH)
    rot90 = ProjMat(((0, -1), (1, 0)), ARCH)
    rot45 = ProjMat(((1, -1), (1, 1)), ARCH)
    grp = MarkedGroup((("g", g25), ("r", rot90), ("s", rot45)))
    a_set = ball(ProjPoint((1, 0)), F(1, 25))
    r_set = ball(ProjPoint((0, 1)), F(1, 25))
    out = b1b2b3_synthesize(
        grp, grp.parse_word("g"), a_set, r_set, grp.parse_word("r"), grp.parse_word("r"), grp.parse_word("s"), 32
    )
    assert out is not None and out.k <= 32
    assert set_contains(a_set, out.attract, ARCH)
    assert set_contains(a_set, out.repel, ARCH)
    a_mat = grp.eval(out.word)
    rng = random.Random(106)
    checked = 0
    while checked < 10_000:
        coords = (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
        if not any(coords):
            continue
        x = ProjPoint(coords)
        if not set_member(x, out.repel, ARCH):
            assert set_member(apply(a_mat, x), out.attract, ARCH)
            checked += 1
    report(6, f"b1b2b3 with k = {out.k}: sets inside host, 10^4-point sampler clean", 120, t0)


def test_criterion_07_truncated_prodense():
    t0 = time.perf_counter()
    grp = MarkedGroup(
        (("a", ProjMat(((1, 2), (0, 1)), ARCH)), ("b", ProjMat(((1, 0), (2, 1)), ARCH)))
    )
    data = NormalData("N", (grp.parse_word("a a"),), (grp.parse_word("a"), grp.parse_word("b")))
    rep = truncated_prodense(grp, [data], Budgets())
    assert rep.verdict == "certified"
    assert rep.combined is not None and rep.combined.verdict == "certified"
    assert rep.oracle is not None and rep.oracle.kind == "no-relation"
    reps_list = [grp.parse_word("a a")]
    a_n = rep.step1[0]
    # syntactic membership of the step-1 element
    assert a_n.proof.factors and all(fc.rep_index == 0 for fc in a_n.proof.factors)
    assert grp.eval(a_n.word).proportional_to(grp.eval(a_n.proof.to_word(reps_list)))
    deltas = rep.step2["N"]
    assert len(deltas) == 2
    for cr in deltas:
        lhs = grp.eval(concat(cr.word, word_inverse(cr.coset_rep)))
        assert lhs.proportional_to(grp.eval(cr.membership.to_word(reps_list)))
        inner, outer = cr.cert.eps_sets, a_n.cert.eps_sets
        for i_set, o_set in zip(inner, outer):
            assert set_contains(o_set, i_set, ARCH)
    report(7, "Sanov truncated prodense: combined tuple certified, memberships word-checked", 300, t0)


def _bi_bfs(tree, u, v) -> int:
    """Independent bidirectional BFS distance (test oracle)."""
    if u == v:
        return 0
    fa, fb = {u: 0}, {v: 0}
    qa, qb = [u], [v]
    for _ in range(80):
        nxt = []
        for x in qa:
            for y in tree.neighbors(x):
                if y in fb:
                    return fa[x] + 1 + fb[y]
                if y not in fa:
                    fa[y] = fa[x] + 1
                    nxt.append(y)
        qa = nxt
        fa, fb, qa, qb = fb, fa, qb, qa
    raise AssertionError("bidirectional BFS exhausted")


def test_criterion_08_tree_classification_vs_bfs():
    t0 = time.perf_counter()
    am = mod_amalgam()
    tree = BassSerreTree(am)
    s_cls = classify(parse_word(am, "s"))
    t_cls = classify(parse_word(am, "t"))
    st_cls = classify(parse_word(am, "s t"))
    assert s_cls.kind == "elliptic" and t_cls.kind == "elliptic"
    assert st_cls.kind == "hyperbolic" and st_cls.translation_length == 2

    letters_a = ["s"]
    letters_b = ["t", "u"]

    def alternating(length, start_a):
        seqs = [[]]
        for i in range(length):
            pool = letters_a if (i % 2 == 0) == start_a else letters_b
            seqs = [s + [l] for s in seqs for l in pool]
        return seqs

    ball_vertices = list(tree.ball(tree.base_vertex("A"), 8))
    count = 0
    for length in range(1, 7):
        for start_a in (True, False):
            for seq in alternating(length, start_a):
                w = parse_word(am, " ".join(seq))
                out = classify(w)
                best = min(_bi_bfs(tree, v, tree.act(w, v)) for v in ball_vertices)
                if out.kind == "elliptic":
                    assert best == 0, seq
                else:
                    assert best == out.translation_length, seq
                count += 1
    report(8, f"classification matches radius-8 BFS displacement for {count} alternating words", 60, t0)


def s3_amalgams():
    s3 = group_from_permutations([(0, 2, 1), (1, 2, 0)])
    c3 = FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    c2 = FiniteGroup(((0, 1), (1, 0)))
    return AmalgamData(s3, s3, c3, (0, 3, 4), (0, 3, 4)), AmalgamData(s3, s3, c2, (0, 1), (0, 1))


def test_criterion_09_kernel_of_action():
    t0 = time.perf_counter()
    over_a3, over_c2 = s3_amalgams()
    assert kernel_of_action(over_a3) == [0, 1, 2]
    assert kernel_of_action(over_c2) == [0]
    for am in (over_a3, over_c2):
        got = set(kernel_of_action(am))
        best: set = set()
        for sub in all_subgroups(am.group_h):
            img_a = frozenset(am.embed_a[x] for x in sub)
            img_b = frozenset(am.embed_b[x] for x in sub)
            ok_a = all(
                am.group_a.mul(am.group_a.mul(am.group_a.inv(t), x), t) in img_a
                for t in range(am.group_a.order)
                for x in img_a
            )
            ok_b = all(
                am.group_b.mul(am.group_b.mul(am.group_b.inv(t), x), t) in img_b
                for t in range(am.group_b.order)
                for x in img_b
            )
            if ok_a and ok_b and len(sub) > len(best):
                best = set(sub)
        assert got == best
    report(9, "kernels match exhaustive subgroup enumeration (A3 and trivial cases)", 10, t0)


MATRIX_HEADER = """format 1
place arch

[matrix-group]
dim 2
gen a = [[81, 0], [0, 1]]
gen b = [[41, 40], [40, 41]]
"""

SANOV_HEADER = """format 1
place arch

[matrix-group]
dim 2
gen a = [[1, 2], [0, 1]]
gen b = [[1, 0], [2, 1]]
"""


def amalgam_text() -> str:
    return """format 1

[amalgam]
names-a e s
table-a
0 1
1 0
names-b e t u
table-b
0 1 2
1 2 0
2 0 1
names-h e
table-h
0
embed-a 0
embed-b 0
"""


CLI_FIXTURES = [
    ("analyze", MATRIX_HEADER + "\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq 1/10\n"),
    ("analyze", "format 1\nplace p:5\n[matrix-group]\ngen g = [[25, 0], [0, 1]]\n[task]\nop analyze\nsubop very-proximal\nelement g\nr-sq 1/2\nepsilon-sq 1/25\n"),
    ("pingpong", MATRIX_HEADER + "\n[task]\nop pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n"),
    ("pingpong", SANOV_HEADER + "\n[task]\nop pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 6\n"),
    ("tree", amalgam_text() + "\n[task]\nop tree\nsubop classify\nword s t\n"),
    ("tree", amalgam_text() + "\n[task]\nop tree\nsubop kernel\n"),
    ("tree", amalgam_text() + "\n[task]\nop tree\nsubop pingpong\nword s t s t\nword t s t s\n"),
    ("synthesize", "format 1\nplace arch\n[matrix-group]\ngen g = [[9, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\n[task]\nop synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 6\n"),
    ("synthesize", SANOV_HEADER + "\n[task]\nop synthesize\nsubop coset-pingpong\nnormal N = a a\ncosets N = a | b\n"),
]


def _mutate(cert: dict, which: int) -> dict:
    """Ten distinct single-field mutations, all on re-checked fields."""
    out = json.loads(json.dumps(cert))
    claims = out["claims"]

    def first(kind):
        for c in claims:
            if c["type"] == kind:
                return c
        return None

    if which == 0:
        c = first("set-disjoint")
        c["left"][0]["radius_sq"] = "999/1000"
    elif which == 1:
        c = first("word-eval")
        c["matrix"][0][0] = "7777"
    elif which == 2:
        c = first("contraction")
        c["cert"]["gap_sq_hi"] = "1/1000000000000"
    elif which == 3:
        c = first("contraction")
        c["cert"]["epsilon_sq"] = "1/100000000"
    elif which == 4:
        c = first("selfmap-enclosure")
        c["enclosure"]["radius_sq"] = "1/2"
    elif which == 5:
        # move the point onto the plane: distance drops to 0 < r
        c = first("point-plane-far")
        f0, f1 = F(c["plane"][0].replace("(", "").replace(")", "")), F(c["plane"][1])
        c["point"] = [str(-f1), str(f0)]
    elif which == 6:
        c = first("word-eval")
        c["word"] = c["word"] + " a"
    elif which == 7:
        c = first("tree-classify")
        c["translation_length"] = 4
    elif which == 8:
        c = first("kernel")
        c["elements"] = [0, 99]
    elif which == 9:
        c = first("normal-membership")
        c["factorization"] = "a"
    return out


def test_criterion_10_determinism_and_verification(tmp_path):
    t0 = time.perf_counter()
    cert_paths = []
    for i, (cmd, text) in enumerate(CLI_FIXTURES):
        prob = tmp_path / f"f{i}.prob"
        prob.write_text(text)
        out1 = tmp_path / f"f{i}.cert"
        out2 = tmp_path / f"f{i}b.cert"
        code1 = main([cmd, str(prob), "--out", str(out1)])
        code2 = main([cmd, str(prob), "--out", str(out2)])
        assert code1 == code2
        assert out1.read_bytes() == out2.read_bytes(), f"fixture {i} not byte-identical"
        assert main(["verify", str(out1)]) == 0, f"fixture {i} rejected by verify"
        cert_paths.append(out1)

    # ten single-field mutations, each rejected
    pool = {}
    for path in cert_paths:
        cert = json.loads(path.read_text())
        for c in cert["claims"]:
            pool.setdefault(c["type"], cert)
    rejected = 0
    for which in range(10):
        needed = {
            0: "set-disjoint",
            1: "word-eval",
            2: "contraction",
            3: "contraction",
            4: "selfmap-enclosure",
            5: "point-plane-far",
            6: "word-eval",
            7: "tree-classify",
            8: "kernel",
            9: "normal-membership",
        }[which]
        cert = pool.get(needed)
        assert cert is not None, f"no fixture carries a {needed} claim"
        bad = _mutate(cert, which)
        bad_path = tmp_path / f"mut{which}.cert"
        bad_path.write_text(dumps(bad))
        assert main(["verify", str(bad_path)]) == 3, f"mutation {which} was not rejected"
        rejected += 1
    assert rejected == 10
    report(10, f"{len(CLI_FIXTURES)} fixtures byte-identical + verified; 10 mutations rejected", 60, t0)
