import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert import tree as tree_module
from freecert.certfmt import MAX_VERTEX_KEY, MAX_WORD_LEN
from freecert.pingpong import PingPongPlayer, freeness_oracle
from freecert.tree import (
    AmalgamData,
    BassSerreTree,
    FiniteGroup,
    ShadowSet,
    TreeError,
    ball_radius,
    ball_rows,
    classify,
    identity_aut,
    kernel_of_action,
    normal_form,
    parse_word,
    tree_pingpong,
)
from oracles import (
    all_subgroups,
    ball_rows_bfs,
    coset_index,
    embedding_scan,
    geodesic_bfs,
    group_from_permutations,
    group_table_scan,
    higman_neumann_applicable,
    min_displacement,
    shadow_member,
)


def c2():
    return FiniteGroup(((0, 1), (1, 0)), names=("e", "s"))


def c3():
    return FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)), names=("e", "t", "u"))


def trivial():
    return FiniteGroup(((0,),), names=("e",))


def mod_amalgam():
    """Z/2 * Z/3, the modular-group shape."""
    return AmalgamData(c2(), c3(), trivial(), (0,), (0,))


def s3():
    return group_from_permutations([(0, 2, 1), (1, 2, 0)])


def s3_over_a3():
    g = s3()
    # elements sorted as permutation tuples; 3-cycles sit at indices 3, 4
    return AmalgamData(g, g, c3(), (0, 3, 4), (0, 3, 4))


def s3_over_c2():
    g = s3()
    # (0,2,1) is the transposition fixing 0, at index 1
    h = FiniteGroup(((0, 1), (1, 0)))
    return AmalgamData(g, g, h, (0, 1), (0, 1))


def test_group_table_validation():
    with pytest.raises(TreeError):
        FiniteGroup(((0, 1), (0, 1)))  # no inverse for 1
    with pytest.raises(TreeError):
        FiniteGroup(((1, 0), (0, 0)))  # no identity
    with pytest.raises(TreeError, match="row 0 of the multiplication table is malformed"):
        FiniteGroup(((0, True), (True, 0)))  # True equals 1 but is no int
    g = s3()
    assert g.order == 6
    assert g.identity == 0


def test_amalgam_embedding_validation():
    with pytest.raises(TreeError):
        AmalgamData(c2(), c3(), c2(), (0, 0), (0, 1))  # not injective
    with pytest.raises(TreeError):
        # wrong homomorphism: send generator of C2 to t in C3
        AmalgamData(c3(), c3(), c2(), (0, 1), (0, 1))
    with pytest.raises(TreeError, match="embedding into B has an entry that is not an integer"):
        AmalgamData(c2(), c3(), trivial(), (0,), (False,))


def _outcome(build):
    """What `build()` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as e:
        return type(e), str(e)


def _cyclic(n: int) -> tuple:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


# every group of order <= 4, as tables
SMALL_TABLES = [_cyclic(1), _cyclic(2), _cyclic(3), _cyclic(4), ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))]


@st.composite
def _tables(draw):
    """A table of order <= 4: a group's with up to three entries changed,
    or one drawn entry by entry, and now and then a row one entry short or
    long.  Entries are mostly in 0..n-1, sometimes -1 or n, and rarely no
    integer at all."""
    n = draw(st.integers(1, 4))

    def entry():
        roll = draw(st.integers(0, 29))  # Hypothesis favours small draws
        return draw(st.sampled_from(range(n) if roll < 27 else [-1, n] if roll < 29 else [True, "1", None]))

    if draw(st.integers(0, 7)) < 7:
        table = [list(row) for row in draw(st.sampled_from([t for t in SMALL_TABLES if len(t) == n]))]
        # the identity is 0: a change off its row and column keeps it
        low = draw(st.integers(0, min(1, n - 1)))
        for _ in range(draw(st.integers(1, 3))):
            table[draw(st.integers(low, n - 1))][draw(st.integers(low, n - 1))] = entry()
    else:
        table = [[entry() for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 7)) == 7:
        i = draw(st.integers(0, n - 1))
        table[i] = table[i][:-1] if draw(st.booleans()) else table[i] + [0]
    return table


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_group_table_checks_match_the_element_wise_scans(table):
    def checked():
        g = FiniteGroup(table)
        return g.identity, tuple(map(g.inv, range(g.order)))

    assert _outcome(checked) == _outcome(lambda: group_table_scan(table))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_embedding_checks_match_the_element_wise_scans(data):
    a, b, h = (FiniteGroup(data.draw(st.sampled_from(SMALL_TABLES))) for _ in range(3))

    def embedding(grp):
        # a random map is seldom injective, and an injective one seldom a
        # homomorphism: half are drawn as homomorphisms where there are
        # any, a quarter as injective maps
        kind = data.draw(st.integers(0, 3))
        homs = [f for f in itertools.permutations(range(grp.order), h.order) if _outcome(lambda: embedding_scan(grp, grp, h, f, f)) is None]
        if kind < 2 and homs:
            return data.draw(st.sampled_from(homs))
        unique = kind < 3 and h.order <= grp.order + 2
        size = h.order if unique else data.draw(st.sampled_from([h.order, h.order - 1, h.order + 1]))
        return tuple(data.draw(st.lists(st.integers(-1, grp.order), min_size=size, max_size=size, unique=unique)))

    embed_a, embed_b = embedding(a), embedding(b)
    built = _outcome(lambda: AmalgamData(a, b, h, embed_a, embed_b))
    assert (None if isinstance(built, AmalgamData) else built) == _outcome(lambda: embedding_scan(a, b, h, embed_a, embed_b))


def test_normal_form_oracle_values():
    am = mod_amalgam()
    assert normal_form(am, [("A", 1), ("A", 1)]).is_identity()
    w = normal_form(am, [("A", 1), ("B", 1), ("A", 1), ("B", 1)])
    assert w.length == 4
    st = parse_word(am, "s t")
    assert st.length == 2
    assert (st @ st.inverse()).is_identity()
    assert parse_word(am, "t^-1").length == 1
    assert parse_word(am, "t t t").is_identity()


def test_normal_form_h_letter_chase():
    am = s3_over_a3()
    # the H-element t written as an A-letter then as a B-letter: the table
    # chase through both injections lands on t^2 in H, syllable-free
    w = normal_form(am, [("A", 3), ("B", 3)])
    assert w.length == 0 and not w.is_identity()
    assert w.tail == 2
    # and composing with the inverse image recovers the identity
    assert normal_form(am, [("A", 3), ("B", 4)]).is_identity()


def test_normal_form_random_consistency():
    am = mod_amalgam()
    letters = [("A", 1), ("B", 1), ("B", 2)]
    import random

    rng = random.Random(23)
    for _ in range(200):
        seq1 = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        seq2 = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        w1, w2 = normal_form(am, seq1), normal_form(am, seq2)
        assert (w1 @ w2) == normal_form(am, seq1 + seq2)


def _letter_by_letter(w, letters):
    for tag, x in letters:
        w = w.append_letter(tag, x)
    return w


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_fold_equals_the_letter_by_letter_fold(data):
    """`act` folds a vertex key of up to MAX_VERTEX_KEY letters in one pass,
    and `normal_form`, products and inverses fold theirs the same way: each
    gives what `append_letter` gives one letter at a time."""
    am = data.draw(st.sampled_from([mod_amalgam(), s3_over_a3(), s3_over_c2()]))
    letter = st.tuples(st.sampled_from("AB"), st.integers(0, 5)).map(lambda l: (l[0], l[1] % am.factor(l[0]).order))
    word, key = data.draw(st.lists(letter, max_size=MAX_WORD_LEN)), data.draw(st.lists(letter, max_size=MAX_VERTEX_KEY))
    w = _letter_by_letter(identity_aut(am), word)
    tag = data.draw(st.sampled_from("AB"))
    tree = BassSerreTree(am)
    assert tree.act(w, (tag, tuple(key))) == tree.vertex_of(_letter_by_letter(w, key), tag)
    assert normal_form(am, word) == w
    assert w @ normal_form(am, key) == _letter_by_letter(w, key)
    assert _letter_by_letter(w, key) @ w.inverse() @ w == _letter_by_letter(w, key)
    assert (w @ w.inverse()).is_identity() and (w.inverse() @ w).is_identity()


def test_expand_tree_degrees():
    am = mod_amalgam()
    tree = BassSerreTree(am)
    ball = tree.ball(tree.base_vertex("A"), 3)
    for v, depth in ball.items():
        if depth < 3:
            deg = len(tree.neighbors(v))
            assert deg == coset_index(am, v[0])
    assert ball_rows(am, 0) == [[None, None]]
    # ball of radius 1 around the A-vertex has [A:H] = 2 edges: H itself,
    # by the identity of A, and s H
    assert ball_rows(am, 1) == [[None, None, 2], [0, 0], [0, 1]]
    # a row inside the radius carries its vertex's degree, one on it none
    rows = ball_rows(am, 3)
    assert [row[2:] for row in rows] == [[coset_index(am, v[0])] if d < 3 else [] for v, d in ball.items()]


def _vertices_of_rows(am, rows) -> list:
    """The vertices the rows spell: a row's vertex has the other type than
    its parent's, and its key is the parent's with the row's letter
    appended, unless the letter is the identity of the parent's factor."""
    out = []
    for parent, letter, *_ in rows:
        if parent is None:
            out.append(("A", ()))
            continue
        tag, key = out[parent]
        other = "B" if tag == "A" else "A"
        out.append((other, key if letter == am.factor(tag).identity else key + ((tag, letter),)))
    return out


def test_ball_rows_spell_the_ball_in_its_order():
    for am, radius in ((mod_amalgam(), 6), (s3_over_c2(), 5), (s3_over_a3(), 4)):
        tree = BassSerreTree(am)
        ball = tree.ball(tree.base_vertex("A"), radius)
        rows = ball_rows(am, radius)
        assert _vertices_of_rows(am, rows) == list(ball)
        assert all(parent is None or parent < i for i, (parent, *_) in enumerate(rows))


def test_ball_rows_match_the_vertex_bfs():
    c2_over_c2_in_s3 = AmalgamData(c2(), s3(), c2(), (0, 1), (0, 1))  # a finite tree: a star of 3 edges
    s3_over_s3 = AmalgamData(s3(), s3(), s3(), tuple(range(6)), tuple(range(6)))  # a single edge
    for am in (mod_amalgam(), s3_over_c2(), s3_over_a3(), c2_over_c2_in_s3, s3_over_s3):
        for radius in range(9):
            try:
                ball_radius(am, radius)
            except TreeError:
                break
            assert ball_rows(am, radius) == ball_rows_bfs(am, radius)


def test_ball_of_a_finite_tree_ends_with_its_last_vertex():
    # C2 *_C2 C2 acts on a single edge, so the ball ends after one layer
    # at any radius, here one `ball_radius` lets through
    c2_over_c2 = AmalgamData(c2(), c2(), c2(), (0, 1), (0, 1))
    assert ball_rows(c2_over_c2, 10**12) == [[None, None, 1], [0, 0, 1]]


def test_ball_radius_refuses_exactly_the_balls_over_the_limit(monkeypatch):
    # the count from the coset indices against balls actually built, with
    # the limit lowered so that the refused balls stay small
    monkeypatch.setattr(tree_module, "MAX_BALL_VERTICES", 100)
    c3_star_c3 = AmalgamData(c3(), c3(), trivial(), (0,), (0,))
    c2_over_c2 = AmalgamData(c2(), c2(), c2(), (0, 1), (0, 1))
    refused = 0
    for am in (mod_amalgam(), s3_over_c2(), s3_over_a3(), c3_star_c3, c2_over_c2):
        tree = BassSerreTree(am)
        for radius in range(9):
            if len(tree.ball(tree.base_vertex("A"), radius)) <= 100:
                assert ball_radius(am, radius) == radius
            else:
                refused += 1
                with pytest.raises(TreeError, match="MAX_BALL_VERTICES = 100"):
                    ball_rows(am, radius)
    assert refused >= 5
    with pytest.raises(TreeError, match="MAX_BALL_VERTICES"):
        ball_radius(c3_star_c3, 10**9)


def test_expand_tree_s3_degree():
    am = s3_over_a3()
    tree = BassSerreTree(am)
    assert len(tree.neighbors(tree.base_vertex("A"))) == 2


def test_classify_oracle_values():
    am = mod_amalgam()
    s, t = parse_word(am, "s"), parse_word(am, "t")
    st = parse_word(am, "s t")
    assert classify(s).kind == "elliptic"
    assert classify(t).kind == "elliptic"
    out = classify(st)
    assert out.kind == "hyperbolic" and out.translation_length == 2
    ident = parse_word(am, "")
    e = classify(ident)
    assert e.kind == "elliptic" and e.fixed_vertex == ("A", ())


def test_classify_matches_brute_force_displacement():
    am = mod_amalgam()
    tree = BassSerreTree(am)
    letters = ["s", "t", "u"]
    for k in range(1, 5):
        for combo in itertools.product(letters, repeat=k):
            w = parse_word(am, " ".join(combo))
            out = classify(w)
            disp = min_displacement(tree, w, radius=6)
            if out.kind == "elliptic":
                assert disp == 0
            else:
                assert disp == out.translation_length


def test_classify_conjugate_keeps_translation_length():
    am = mod_amalgam()
    w = parse_word(am, "s t s t u")
    c = parse_word(am, "t s")
    conj = c @ w @ c.inverse()
    a, b = classify(w), classify(conj)
    assert a.kind == b.kind
    if a.kind == "hyperbolic":
        assert a.translation_length == b.translation_length


def test_shadow_membership():
    am = mod_amalgam()
    tree = BassSerreTree(am)
    x = tree.base_vertex("A")
    y = tree.neighbors(x)[0]
    sh = ShadowSet(tree, x, y)
    assert shadow_member(y, sh)
    other = next(v for v in tree.neighbors(x) if v != y)
    assert not shadow_member(other, sh)
    # a third vertex behind y stays in the shadow
    z = next(v for v in tree.neighbors(y) if v != x)
    assert shadow_member(z, sh)


def test_shadow_disjointness():
    am = mod_amalgam()
    tree = BassSerreTree(am)
    x = tree.base_vertex("A")
    y = tree.neighbors(x)[0]
    fwd = ShadowSet(tree, x, y)
    bwd = ShadowSet(tree, y, x)
    assert fwd.disjoint_from(bwd).kind == "disjoint"
    v = fwd.disjoint_from(fwd)
    assert v.kind == "overlap" and v.witness is not None
    assert fwd.side_contains_vertex(v.witness)


def line_amalgam():
    """Z/2 * Z/2: every vertex has degree 2, so the tree is a line."""
    return AmalgamData(c2(), FiniteGroup(((0, 1), (1, 0)), names=("e", "r")), trivial(), (0,), (0,))


@pytest.mark.parametrize("amalgam", [line_amalgam, mod_amalgam], ids=["Z2*Z2", "Z2*Z3"])
def test_shadow_disjointness_matches_the_far_vertices(amalgam):
    # every vertex has degree >= 2, so every vertex lies on an end; for base
    # edges within 3 of the base vertex, two shadows share an end exactly
    # when some vertex at distance 4 lies in both (`shadow_member`).  On the
    # line, facing halftrees share a segment that no branch leaves, so
    # their shadows, the line's two ends, are disjoint
    am = amalgam()
    tree = BassSerreTree(am)
    depth = tree.ball(tree.base_vertex("A"), 4)
    edges = [(x, y) for x, d in depth.items() if d < 3 for y in tree.neighbors(x)]
    far = [v for v, d in depth.items() if d == 4]
    shadows = [ShadowSet(tree, x, y) for x, y in edges]
    members = [{v for v in far if shadow_member(v, sh)} for sh in shadows]
    kinds = set()
    for s, ms in zip(shadows, members):
        for t, mt in zip(shadows, members):
            verdict = s.disjoint_from(t)
            assert (verdict.kind == "disjoint") == (not ms & mt), (s, t)
            facing = s.side_contains_vertex(t.y) and t.side_contains_vertex(s.y)
            kinds.add((facing, verdict.kind))
    assert (True, "disjoint") in kinds


def test_a_name_of_both_factors_is_no_letter_unless_it_names_the_identity():
    am = AmalgamData(c2(), c2(), trivial(), (0,), (0,))  # both factors name their involution s
    assert "s" not in am.letter_names()
    with pytest.raises(TreeError, match="unknown letter 's'"):
        parse_word(am, "s")
    assert parse_word(am, "e").is_identity()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_shadow_of_a_bounded_word_lies_within_the_vertex_bound(data):
    # a hyperbolic word of at most MAX_WORD_LEN letters, often a conjugate
    # c g c^-1 with a long c, which moves the axis furthest from the base
    # edge.  The core g alternates syllables outside H, and its first and
    # last lie in different factors, so it is cyclically reduced of even
    # length at least 2: hyperbolic by construction
    am = data.draw(st.sampled_from([mod_amalgam(), s3_over_a3(), s3_over_c2()]))
    letter = st.tuples(st.sampled_from("AB"), st.integers(0, 5)).map(lambda l: (l[0], l[1] % am.factor(l[0]).order))
    conj = data.draw(st.lists(letter, max_size=MAX_WORD_LEN // 2 - 1))
    outside = {tag: [x for x in range(am.factor(tag).order) if am.h_preimage(tag, x) is None] for tag in "AB"}
    syllable_pairs = st.tuples(st.sampled_from(outside["A"]), st.sampled_from(outside["B"]))
    pairs = data.draw(st.lists(syllable_pairs, min_size=1, max_size=(MAX_WORD_LEN - 2 * len(conj)) // 2))
    order = data.draw(st.sampled_from(["AB", "BA"]))
    core = [(tag, pair["AB".index(tag)]) for pair in pairs for tag in order]
    inverse = [(tag, am.factor(tag).inv(x)) for tag, x in reversed(conj)]
    g = normal_form(am, conj + core + inverse)
    assert classify(g).kind == "hyperbolic"
    tup = tree_pingpong([g])
    keys = [len(v[1]) for p in tup.players for _, sh in p.sets() for v in (sh.x, sh.y)]
    assert max(keys) <= MAX_VERTEX_KEY


def test_tree_pingpong_certified_and_free():
    # squares of st and of its s-conjugate: their axes share the base edge,
    # so the raw pair cannot separate its shadows, but the squares can
    am = mod_amalgam()
    st = parse_word(am, "s t")
    conj = parse_word(am, "s") @ st @ parse_word(am, "s")  # s is an involution
    out = tree_pingpong([st @ st, conj @ conj])
    assert out.verdict == "certified"
    oracle = freeness_oracle([st @ st, conj @ conj], 8, names=["x", "y"])
    assert oracle.kind == "no-relation"


def test_tree_pingpong_shared_axis_segment_refuted():
    am = mod_amalgam()
    st = parse_word(am, "s t")
    conj = parse_word(am, "s") @ st @ parse_word(am, "s")
    out = tree_pingpong([st, conj])
    assert out.verdict == "refuted"


def test_tree_pingpong_duplicates_refuted():
    am = mod_amalgam()
    st = parse_word(am, "s t")
    out = tree_pingpong([st, st])
    assert out.verdict == "refuted"


def test_tree_evidence_refuses_a_declared_shadow_off_the_axis():
    am = mod_amalgam()
    g = parse_word(am, "s t s t")
    player = tree_pingpong([g]).players[0]
    evidence = player.evidence
    assert evidence.check_mapping(player) == (True, "")
    a_plus = player.a_plus
    # equal on another tree object, since a shadow compares by its edge
    same = ShadowSet(BassSerreTree(am), a_plus.x, a_plus.y)
    assert evidence.check_mapping(PingPongPlayer(player.name, g, same, player.r_plus, player.a_minus, player.r_minus, evidence)) == (True, "")
    flipped = ShadowSet(a_plus.tree, a_plus.y, a_plus.x)
    off_axis = PingPongPlayer(player.name, g, flipped, player.r_plus, player.a_minus, player.r_minus, evidence)
    assert evidence.check_mapping(off_axis) == (False, "t0: declared A+ does not match the axis data")


def test_tree_pingpong_elliptic_rejected():
    am = mod_amalgam()
    with pytest.raises(TreeError, match="not hyperbolic"):
        tree_pingpong([parse_word(am, "s")])


def test_tree_pingpong_refuses_elements_of_different_amalgams():
    g = parse_word(mod_amalgam(), "s t s t")
    for elements in ([g, parse_word(mod_amalgam(), "s t s t")], [g, normal_form(s3_over_a3(), [("A", 1)])], []):
        with pytest.raises(TreeError, match="one or more elements of one amalgam"):
            tree_pingpong(elements)


def test_oracle_finds_torsion_relation():
    am = mod_amalgam()
    t = parse_word(am, "t")
    out = freeness_oracle([t], 3, names=["t"])
    assert out.kind == "relation"
    assert out.word == "t t t"


def test_kernel_oracle_values():
    assert kernel_of_action(mod_amalgam()) == [0]
    assert kernel_of_action(s3_over_a3()) == [0, 1, 2]
    assert kernel_of_action(s3_over_c2()) == [0]


def test_kernel_maximality_against_subgroup_enumeration():
    for am in (s3_over_a3(), s3_over_c2()):
        k = set(kernel_of_action(am))
        h = am.group_h
        best = set()
        for sub in all_subgroups(h):
            img_a = frozenset(am.embed_a[x] for x in sub)
            img_b = frozenset(am.embed_b[x] for x in sub)
            normal_a = all(
                am.group_a.mul(am.group_a.mul(am.group_a.inv(a), s), a) in img_a
                for a in range(am.group_a.order)
                for s in img_a
            )
            normal_b = all(
                am.group_b.mul(am.group_b.mul(am.group_b.inv(b), s), b) in img_b
                for b in range(am.group_b.order)
                for s in img_b
            )
            if normal_a and normal_b and len(sub) > len(best):
                best = set(sub)
        assert k == best


def test_higman_neumann_index_condition():
    assert higman_neumann_applicable(mod_amalgam())  # (2-1)(3-1) = 2
    assert not higman_neumann_applicable(s3_over_a3())  # (2-1)(2-1) = 1


def test_distance_formula_matches_bfs():
    import random

    for am in (mod_amalgam(), s3_over_a3()):
        tree = BassSerreTree(am)
        ball = list(tree.ball(tree.base_vertex("A"), 5))
        rng = random.Random(31)
        for _ in range(300):
            u, v = rng.choice(ball), rng.choice(ball)
            assert len(tree.geodesic(u, v)) == len(geodesic_bfs(tree, u, v, cap=40))


def test_geodesic_matches_bfs_on_radius_4_balls():
    for am in (mod_amalgam(), s3_over_a3(), s3_over_c2()):
        tree = BassSerreTree(am)
        ball = list(tree.ball(tree.base_vertex("A"), 4))
        for u in ball:
            for v in ball:
                path = tree.geodesic(u, v)
                assert path == geodesic_bfs(tree, u, v, cap=8)
                assert tree.distance(u, v) == len(path) - 1
