"""Bass-Serre tree of an amalgam of finite groups, at desk scale.

Group elements are table indices; every check (homomorphism, normal
form, classification, kernel) runs over the full finite tables, so all
verdicts are exact.  Words reduce to the canonical amalgam normal form
t1 t2 ... tk h with alternating nontrivial transversal representatives
and h in the common subgroup; the empty form is the identity, which
makes the freeness oracle exact on this backend.  Every fold, of a
word, a product or a vertex key, is one walk over fold tables the
amalgam builds once: a table lookup per letter.

Boundary points are never materialized: shadows are handled through
their base edges, and every boundary statement used here is decided on
the geodesics between their vertices, read off the vertices' keys;
a distance is read off the keys alone, with no path built.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from operator import itemgetter

from .scalar import DisjointVerdict, Record, word_tokens

DEFAULT_RADIUS = 8
#: Most vertices a ball listed by `ball_rows` may hold.  Its layers grow
#: by the factor ([A:H] - 1)([B:H] - 1) every two steps, so a large radius
#: would not fail but run for minutes and write a certificate of hundreds
#: of megabytes.
MAX_BALL_VERTICES = 10_000


class TreeError(ValueError):
    """Input the tree code refuses.  `part` names the argument at fault
    where a constructor takes several: "table" or "names" of a
    FiniteGroup, "embed_a" or "embed_b" of an AmalgamData."""

    def __init__(self, message: str, part: str | None = None) -> None:
        super().__init__(message)
        self.part = part


class FiniteGroup(Record):
    """Finite group by multiplication table; verified on construction."""

    __slots__ = ("table", "names", "_identity", "_inverse")

    def __init__(self, table: tuple[tuple[int, ...], ...], names: tuple[str, ...] | None = None) -> None:
        # Each check compares whole rows at C speed and, where that fails,
        # runs the element-wise scan, which names the first failing
        # element or triple.  An entry must be an int: `True` equals 1.
        tab = tuple(tuple(r) for r in table)
        n = len(tab)
        for i, row in enumerate(tab):
            if not (len(row) == n and set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n):
                raise TreeError(f"row {i} of the multiplication table is malformed", "table")
        ids = tuple(range(n))
        ident = next((e for e, row in enumerate(tab) if row == ids and tuple(map(itemgetter(e), tab)) == ids), None)
        if ident is None:
            raise TreeError("multiplication table has no identity", "table")
        inv = []
        for x, row in enumerate(tab):
            xi = row.index(ident) if ident in row else None
            if xi is not None and tab[xi][x] != ident:  # a right inverse only: the scan looks further
                xi = next((y for y in range(xi + 1, n) if row[y] == ident and tab[y][x] == ident), None)
            if xi is None:
                raise TreeError(f"element {x} has no inverse", "table")
            inv.append(xi)
        # (ab)c = a(bc) for every c: the row of ab is the row of b read
        # through the row of a.  For n = 1 a getter returns no tuple and
        # the scan decides.
        through = [itemgetter(*row) for row in tab]
        for a, row_a in enumerate(tab):
            for b, ab in enumerate(row_a):
                if tab[ab] != through[b](row_a):
                    for c in range(n):
                        if tab[ab][c] != row_a[tab[b][c]]:
                            raise TreeError(f"associativity fails at ({a}, {b}, {c})", "table")
        if names is not None:
            names = tuple(names)
            if len(names) != n or len(set(names)) != n:
                raise TreeError("names must be distinct, one per element", "names")
        Record.__init__(self, tab, names)
        object.__setattr__(self, "_identity", ident)
        object.__setattr__(self, "_inverse", tuple(inv))

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self._inverse[x]

    def name_of(self, x: int) -> str:
        return self.names[x] if self.names else str(x)


Letter = tuple[str, int]  # ("A" | "B", element index in that factor)


class AmalgamData(Record):
    """A *_H B with finite factors, H given by injections into both.

    Built once with the tables every word and vertex is folded through:
    for each factor X, its rows at the images of H and its multiplication
    table, and the split of each element y = t emb(h) into the letter
    (X, t) of its coset's representative t (None for H itself) and h; its
    nontrivial representatives, ascending; and every element name that
    is a letter, with the letter of its inverse."""

    __slots__ = ("group_a", "group_b", "group_h", "embed_a", "embed_b", "_fold_tables", "_transversal", "_letters")

    def __init__(
        self, group_a: FiniteGroup, group_b: FiniteGroup, group_h: FiniteGroup, embed_a: tuple[int, ...], embed_b: tuple[int, ...]
    ) -> None:
        embeds = []
        for tag, part, grp, emb in (("A", "embed_a", group_a, embed_a), ("B", "embed_b", group_b, embed_b)):
            emb = tuple(emb)
            if any(type(x) is not int for x in emb):
                raise TreeError(f"embedding into {tag} has an entry that is not an integer", part)
            if len(emb) != group_h.order or len(set(emb)) != len(emb):
                raise TreeError(f"embedding into {tag} is not injective", part)
            # emb(x) emb(y) = emb(xy) for every y: the row of emb(x) read
            # at the image equals the image read at the row of x.  Where
            # that fails or raises, the scan names the first failing pair.
            at_image = itemgetter(*emb)
            for x, row in enumerate(group_h.table):
                try:
                    ok = at_image(grp.table[emb[x]]) == itemgetter(*row)(emb)
                except (IndexError, TypeError):
                    ok = False
                if not ok:
                    for y in range(group_h.order):
                        if grp.mul(emb[x], emb[y]) != emb[group_h.mul(x, y)]:
                            raise TreeError(f"embedding into {tag} is not a homomorphism at ({x}, {y})", part)
            embeds.append(emb)
        Record.__init__(self, group_a, group_b, group_h, *embeds)
        tables, transversal = {}, {}
        for tag, grp, emb in (("A", group_a, embeds[0]), ("B", group_b, embeds[1])):
            tables[tag], transversal[tag] = self._cosets(tag, grp, emb)
        object.__setattr__(self, "_fold_tables", tables)
        object.__setattr__(self, "_transversal", transversal)
        object.__setattr__(self, "_letters", self._letter_table())

    @staticmethod
    def _cosets(tag: str, grp: FiniteGroup, emb: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
        """The fold table of the factor `tag` and its nontrivial coset
        representatives, ascending, from one pass over the left cosets
        x H: the trivial coset is represented by the identity, the others
        by their least element index, the first x met in each."""
        split: list = [None] * grp.order
        reps = []
        for x, row in enumerate(grp.table):
            if split[x] is None:
                coset = [row[e] for e in emb]  # x emb(h), h ascending
                if grp.identity in coset:
                    letter, coset = None, emb
                else:
                    letter = (tag, x)
                    reps.append(x)
                for h, y in enumerate(coset):
                    split[y] = (letter, h)
        return ([grp.table[e] for e in emb], grp.table, split), tuple(reps)

    def _letter_table(self) -> dict[str, tuple[Letter, Letter]]:
        """Each element name that is a letter, with the letter of its
        inverse.  A name of both factors is none, unless it names A's
        identity, which the names of identities may share harmlessly."""

        def letters(tag: str, grp: FiniteGroup) -> dict[str, tuple[Letter, Letter]]:
            tags = repeat(tag)
            names = grp.names or map(str, range(grp.order))
            return dict(zip(names, zip(zip(tags, range(grp.order)), zip(tags, grp._inverse))))

        in_a, in_b = letters("A", self.group_a), letters("B", self.group_b)
        out = {**in_b, **in_a}
        for nm in in_a.keys() & in_b.keys():
            if in_a[nm][0][1] != self.group_a.identity:
                del out[nm]
        return out

    def factor(self, tag: str) -> FiniteGroup:
        return self.group_a if tag == "A" else self.group_b

    def h_image(self, tag: str, h: int) -> int:
        return (self.embed_a if tag == "A" else self.embed_b)[h]

    def transversal(self, tag: str) -> tuple[int, ...]:
        """Nontrivial coset representatives, ascending."""
        return self._transversal[tag]


class TreeAut(Record):
    """Element of A *_H B in reduced normal form: alternating nontrivial
    transversal syllables followed by an H-tail (an index in H).  The
    amalgam takes no part in equality, hashing or the repr."""

    __slots__ = ("amalgam", "syllables", "tail")
    place = None  # it acts on a tree, at no place of Q

    def _key(self) -> tuple:
        return (self.syllables, self.tail)

    @property
    def length(self) -> int:
        return len(self.syllables)

    def is_identity(self) -> bool:
        return not self.syllables and self.tail == self.amalgam.group_h.identity

    def class_key(self) -> "TreeAut":
        """The element itself: its normal form is unique, and it hashes
        and compares without the amalgam."""
        return self

    def append_letter(self, tag: str, x: int) -> "TreeAut":
        return self._fold(((tag, x),))

    def _fold(self, letters: Iterable[Letter]) -> "TreeAut":
        """self times the letters, folded into one syllable list, so that
        a word of L letters builds one TreeAut, not L of them."""
        syl, h = _table_fold(self.amalgam, self.syllables, self.tail, letters)
        return TreeAut(self.amalgam, tuple(syl), h)

    def __matmul__(self, other: "TreeAut") -> "TreeAut":
        if self.amalgam is not other.amalgam:
            raise TreeError("elements of different amalgams")
        letters = other.syllables
        if other.tail != self.amalgam.group_h.identity:
            letters += (("A", self.amalgam.h_image("A", other.tail)),)
        return self._fold(letters)

    def inverse(self) -> "TreeAut":
        am = self.amalgam
        letters = [(tag, am.factor(tag).inv(x)) for tag, x in reversed(self.syllables)]
        if self.tail != am.group_h.identity:
            letters.insert(0, ("A", am.h_image("A", am.group_h.inv(self.tail))))
        return identity_aut(am)._fold(letters)


def _table_fold(amalgam: AmalgamData, syllables: tuple[Letter, ...], h: int, letters: Iterable[Letter]) -> tuple[list[Letter], int]:
    """The syllables and H-tail of (syllables, h) times the letters, one
    table walk per letter (tag, x): y = emb(h) x in the factor, times the
    last syllable first when that is of the same factor (syllables
    alternate, so at most one merges), then split into the letter of its
    coset, appended unless it is H, and the next h."""
    tables = amalgam._fold_tables
    syl = list(syllables)
    for tag, x in letters:
        h_rows, mul, split = tables[tag]
        y = h_rows[h][x]
        if syl and syl[-1][0] == tag:
            y = mul[syl.pop()[1]][y]
        letter, h = split[y]
        if letter:
            syl.append(letter)
    return syl, h


def identity_aut(amalgam: AmalgamData) -> TreeAut:
    return TreeAut(amalgam, (), amalgam.group_h.identity)


def parse_word(amalgam: AmalgamData, text: str) -> TreeAut:
    """Parse a whitespace word of element names, with optional ^k, into
    its normal form.  The letters are folded as they are read, so a large
    exponent never becomes a list."""
    table = amalgam._letters

    def letters():
        for name, e in word_tokens(text):
            if name not in table:
                raise TreeError(f"unknown letter {name!r}")
            yield from repeat(table[name][e < 0], abs(e))

    return identity_aut(amalgam)._fold(letters())


# ---------------------------------------------------------------------------
# The tree itself: cosets gA, gB as vertices, gH as edges
# ---------------------------------------------------------------------------

Vertex = tuple[str, tuple[Letter, ...]]


class BassSerreTree:
    """The tree's vertices as canonical keys; adjacency is memoized
    (single writer)."""

    def __init__(self, amalgam: AmalgamData):
        self.amalgam = amalgam
        self._adj: dict[Vertex, tuple[Vertex, ...]] = {}

    def base_vertex(self, tag: str) -> Vertex:
        return (tag, ())

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        cached = self._adj.get(v)
        if cached is not None:
            return cached
        tag, key = v
        other = "B" if tag == "A" else "A"
        # the edge through this vertex's own coset, then the edges t H, whose
        # keys are one letter longer than any other neighbour's: all distinct
        out = ((other, key[:-1] if key and key[-1][0] == other else key),)
        out += tuple((other, key + ((tag, t),)) for t in self.amalgam.transversal(tag))
        self._adj[v] = out
        return out

    def act(self, w: TreeAut, v: Vertex) -> Vertex:
        """The image of the vertex v = (X, key), the coset key X: the coset
        (w key) X, keyed by the syllables of w key less a last one of X."""
        tag, key = v
        syl, _ = _table_fold(self.amalgam, w.syllables, w.tail, key)
        if syl and syl[-1][0] == tag:
            syl.pop()
        return (tag, tuple(syl))

    def ball(self, center: Vertex, radius: int) -> dict[Vertex, int]:
        """The depth of every vertex within `radius` of `center`, in
        breadth-first order: vertex by vertex, the ball that `ball_rows`
        lists by index arithmetic."""
        depth = {center: 0}
        frontier = [center]
        for d in range(1, radius + 1):
            if not frontier:  # a finite tree: no vertex is further out
                break
            nxt = []
            for u in frontier:
                for wv in self.neighbors(u):
                    if wv not in depth:
                        depth[wv] = d
                        nxt.append(wv)
            frontier = nxt
        return depth

    def geodesic(self, u: Vertex, v: Vertex) -> list[Vertex]:
        """The path from u to v, read off the canonical keys.

        The edge from a vertex toward the base edge drops the key's last
        letter and lands on a vertex of that letter's factor, so the path
        climbs from each end to the longest common key prefix.  The two
        turn vertices are equal, or they are the two ends of the base edge.
        """
        (_, p), (_, q) = u, v
        c = 0
        for x, y in zip(p, q):
            if x != y:
                break
            c += 1
        up = [u] + [(p[k][0], p[:k]) for k in range(len(p) - 1, c - 1, -1)]
        down = [(q[k][0], q[:k]) for k in range(c, len(q))] + [v]
        return up + down[1:] if up[-1] == down[0] else up + down

    def distance(self, u: Vertex, v: Vertex) -> int:
        """len(geodesic(u, v)) - 1, read off the keys with no path built:
        both climbs to the common prefix of length c, plus the edge
        between the turn vertices where their factors differ."""
        (tu, p), (tv, q) = u, v
        c = 0
        for x, y in zip(p, q):
            if x != y:
                break
            c += 1
        turn_u = p[c][0] if len(p) > c else tu
        turn_v = q[c][0] if len(q) > c else tv
        return len(p) + len(q) - 2 * c + (turn_u != turn_v)


def ball_radius(amalgam: AmalgamData, radius: int) -> int:
    """`radius`, refused when the ball of that radius around the base
    vertex of A would hold more than MAX_BALL_VERTICES vertices.  The ball
    is counted layer by layer from the coset indices, building no vertex:
    the base vertex has [A:H] neighbours, and every other vertex of type X
    has [X:H] - 1 neighbours one step further out."""
    if radius < 0:
        raise TreeError("radius must be >= 0")
    index = {tag: len(amalgam.transversal(tag)) + 1 for tag in "AB"}
    size = layer = 1
    for d in range(1, radius + 1):
        layer *= index["A"] if d == 1 else index["B" if d % 2 == 0 else "A"] - 1
        size += layer
        if size > MAX_BALL_VERTICES:
            raise TreeError(f"a ball of radius {radius} holds more than MAX_BALL_VERTICES = {MAX_BALL_VERTICES} vertices")
        if not layer:
            break
    return radius


def ball_rows(amalgam: AmalgamData, radius: int) -> list[list]:
    """The ball of `radius` around the base vertex of A, one row per
    vertex in breadth-first order.  The row of a vertex g t X whose parent
    is g Y is [the parent's row, t], with t the representative in Y of the
    edge's coset g t H, the identity of Y for g H; a vertex inside the
    radius adds its degree.  The base vertex's row has a null parent and
    letter.  Refused, as by `ball_radius`, past MAX_BALL_VERTICES vertices.

    The rows follow from the coset indices alone, with no vertex built.
    Factors alternate along every path, so a vertex at even depth is one
    of A and at odd depth one of B.  A vertex g Y lies on one edge g y H
    per coset of H in Y: the edge g H toward its parent, and one edge per
    nontrivial representative t, whose far end g t X is a child.  So its
    degree is 1 + |transversal of Y|, and its children come in ascending
    order of t.  The base vertex has no parent, and its edge H leads to
    the child 1 B, with A's identity as letter, listed first."""
    ball_radius(amalgam, radius)
    rows: list[list] = [[None, None]]
    start = 0
    for depth in range(radius):
        end = len(rows)
        if start == end:  # a finite tree: no vertex is further out
            break
        transversal = amalgam.transversal("A" if depth % 2 == 0 else "B")
        degree = 1 + len(transversal)
        for i in range(start, end):
            rows[i].append(degree)
            if i == 0:
                rows.append([0, amalgam.group_a.identity])
            rows.extend([i, t] for t in transversal)
        start = end
    return rows


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class Classification(Record):
    """kind "elliptic", with a fixed_vertex, or "hyperbolic", with its
    translation_length and an axis_edge, a pair of vertices on its axis."""

    __slots__ = ("kind", "fixed_vertex", "translation_length", "axis_edge")
    _defaults = {"fixed_vertex": None, "translation_length": None, "axis_edge": None}


def _cyclic_reduce(w: TreeAut) -> tuple[TreeAut, TreeAut]:
    """Return (conjugator c, core) with w = c core c^-1 and core cyclically reduced."""
    am = w.amalgam
    c = identity_aut(am)
    core = w
    while core.length >= 2 and core.syllables[0][0] == core.syllables[-1][0]:
        tag, x = core.syllables[0]
        s = identity_aut(am).append_letter(tag, x)
        c = c @ s
        core = s.inverse() @ core @ s
    return c, core


def classify(w: TreeAut) -> Classification:
    """Elliptic iff the cyclically reduced length is <= 1 (with an explicit
    fixed vertex); else hyperbolic with translation length the cyclically
    reduced length, cross-checked against the displacement of the base
    vertex and by a coherent-edge witness."""
    tree = BassSerreTree(w.amalgam)
    c, core = _cyclic_reduce(w)
    if core.length <= 1:
        if core.length == 0:
            fixed = tree.base_vertex("A")
        else:
            tag = core.syllables[0][0]
            fixed = tree.base_vertex(tag)
        return Classification("elliptic", fixed_vertex=tree.act(c, fixed))
    tau = core.length
    base = tree.base_vertex("A")
    path = tree.geodesic(base, tree.act(core, base))
    if len(path) - 1 != tau:
        raise AssertionError("translation length disagrees with the geodesic displacement")
    s, t = path[0], path[1]
    gs, gt = tree.act(core, s), tree.act(core, t)
    if not _coherent(tree, s, t, gs, gt):
        raise AssertionError("axis edge fails the coherent-edge criterion")
    axis = (tree.act(c, s), tree.act(c, t))
    return Classification("hyperbolic", translation_length=tau, axis_edge=axis)


def _coherent(tree: BassSerreTree, s: Vertex, t: Vertex, gs: Vertex, gt: Vertex) -> bool:
    """(s, t) not fixed and [s, g s] contains exactly one of t, g t."""
    if (s, t) == (gs, gt):
        return False
    path = tree.geodesic(s, gs)
    on_path = sum(1 for v in (t, gt) if v in path)
    return on_path == 1


# ---------------------------------------------------------------------------
# Shadows
# ---------------------------------------------------------------------------


class ShadowSet(Record):
    """Boundary shadow determined by the oriented base edge x -> y.  The
    tree takes no part in equality, hashing or the repr."""

    __slots__ = ("tree", "x", "y")

    def __init__(self, tree: BassSerreTree, x: Vertex, y: Vertex) -> None:
        if x == y:
            raise TreeError("shadow base edge is degenerate")
        if y not in tree.neighbors(x):
            raise TreeError("shadow base vertices are not adjacent")
        Record.__init__(self, tree, x, y)

    def _key(self) -> tuple:
        return (self.x, self.y)

    def side_contains_vertex(self, z: Vertex) -> bool:
        """z lies in the halftree behind y (ends through z belong to the shadow)."""
        return self.tree.distance(z, self.y) < self.tree.distance(z, self.x)

    def disjoint_from(self, other: "ShadowSet"):
        """Exact disjointness of two boundary shadows.

        Shadows are the end sets of the halftrees behind the gates.  If the
        halftrees share no vertex the shadows are disjoint; if one halftree
        contains the other's base edge they are nested and overlap.  When
        the halftrees face each other, their vertex intersection is the
        geodesic segment between the gates plus anything branching off it;
        the shadows overlap exactly when such an escaping branch exists
        (branches are infinite: interior degrees equal the indices >= 2).
        """
        in_self_yo = self.side_contains_vertex(other.y)
        in_other_y = other.side_contains_vertex(self.y)
        if not in_self_yo and not in_other_y:
            return DisjointVerdict("disjoint")
        if in_self_yo and in_other_y:
            path = self.tree.geodesic(self.y, other.y)
            on_path = set(path)
            for z in path:
                for w in self.tree.neighbors(z):
                    if w in on_path:
                        continue
                    if self.side_contains_vertex(w) and other.side_contains_vertex(w):
                        return DisjointVerdict("overlap", w)
            return DisjointVerdict("disjoint")
        # one halftree is nested inside the other
        witness = other.y if in_self_yo else self.y
        return DisjointVerdict("overlap", witness)


# ---------------------------------------------------------------------------
# Tree ping-pong
# ---------------------------------------------------------------------------


def axis_window(tree: BassSerreTree, g: TreeAut, cls: Classification) -> dict[int, Vertex]:
    """Axis vertices x_j for j = -tau .. tau, with x_0 the classified base
    and g x_j = x_(j+tau)."""
    u, _ = cls.axis_edge
    tau = cls.translation_length
    fwd = tree.geodesic(u, tree.act(g, u))
    gi = g.inverse()
    window = {j: v for j, v in enumerate(fwd)}  # 0 .. tau
    for j in range(0, tau + 1):
        window[j - tau] = tree.act(gi, window[j])
    return window


def axis_shadow_sets(tree: BassSerreTree, g: TreeAut, cls: Classification):
    """Localized attracting/repelling shadows at offset k = tau/2 along the
    axis.  With x_j the axis vertices, the mapping identities are exact:

        g(boundary - Shadow_{x_{1-k} -> x_{-k}})   = Shadow_{x_{tau-k} -> x_{tau-k+1}}
        g^-1(boundary - Shadow_{x_{k-1} -> x_k})   = Shadow_{x_{-k} -> x_{-k-1}}
    """
    tau = cls.translation_length
    k = tau // 2
    x = axis_window(tree, g, cls)
    a_plus = ShadowSet(tree, x[tau - k], x[tau - k + 1])
    r_plus = ShadowSet(tree, x[1 - k], x[-k])
    a_minus = ShadowSet(tree, x[-k], x[-k - 1])
    r_minus = ShadowSet(tree, x[k - 1], x[k])
    return a_plus, r_plus, a_minus, r_minus


class TreeEvidence(Record):
    """Hyperbolicity witness: the element translates its axis, so the
    shadow mapping identities above hold exactly and are re-derivable."""

    __slots__ = ("classification",)

    def check_mapping(self, player) -> tuple[bool, str]:
        cls = self.classification
        if cls.kind != "hyperbolic":
            return False, f"{player.name}: not hyperbolic"
        tree = player.a_plus.tree
        g = player.element
        a_plus, r_plus, _, _ = expected = axis_shadow_sets(tree, g, cls)
        for (label, s), e in zip(player.sets(), expected):
            if s != e:
                return False, f"{player.name}: declared {label} does not match the axis data"
        # re-derive the forward identity g(Shadow_{x->y} complement) = A+
        gx, gy = tree.act(g, r_plus.y), tree.act(g, r_plus.x)
        if (gx, gy) != (a_plus.x, a_plus.y):
            return False, f"{player.name}: axis translation fails to reproduce the attracting shadow"
        return True, ""


def tree_pingpong(elements: list[TreeAut]):
    """Certify a ping-pong tuple of hyperbolic tree automorphisms, one or
    more of one amalgam, with localized shadow sets read off their axes;
    shadow disjointness is decided exactly on the geodesics between their
    base edges."""
    from .pingpong import PingPongPlayer, certify_tuple

    if not elements or any(g.amalgam is not elements[0].amalgam for g in elements):
        raise TreeError("a ping-pong tuple needs one or more elements of one amalgam")
    tree = BassSerreTree(elements[0].amalgam)
    players = []
    for i, g in enumerate(elements):
        cls = classify(g)
        if cls.kind != "hyperbolic":
            raise TreeError(f"element {i} is not hyperbolic")
        a_plus, r_plus, a_minus, r_minus = axis_shadow_sets(tree, g, cls)
        players.append(
            PingPongPlayer(
                name=f"t{i}",
                element=g,
                a_plus=a_plus,
                r_plus=r_plus,
                a_minus=a_minus,
                r_minus=r_minus,
                evidence=TreeEvidence(cls),
            )
        )
    return certify_tuple(players)


# ---------------------------------------------------------------------------
# Kernel of the tree action (the core of H)
# ---------------------------------------------------------------------------


def _core_in(group: FiniteGroup, subset: frozenset[int]) -> frozenset[int]:
    """Largest subgroup of `group` normal in it and contained in subset:
    the intersection of all conjugates."""
    out = set(subset)
    for a in range(group.order):
        ai = group.inv(a)
        out &= {group.mul(group.mul(ai, s), a) for s in subset}
    return frozenset(out)


def kernel_of_action(amalgam: AmalgamData) -> list[int]:
    """The unique maximal K <= H normal in both factors: iterate mutual
    normal cores over the finite tables to the greatest fixed point.
    This is the kernel of the amalgam's action on its tree."""
    h = amalgam.group_h
    current = frozenset(range(h.order))
    while True:
        img_a = frozenset(amalgam.embed_a[x] for x in current)
        core_a = _core_in(amalgam.group_a, img_a)
        current_a = frozenset(x for x in current if amalgam.embed_a[x] in core_a)
        img_b = frozenset(amalgam.embed_b[x] for x in current_a)
        core_b = _core_in(amalgam.group_b, img_b)
        nxt = frozenset(x for x in current_a if amalgam.embed_b[x] in core_b)
        if nxt == current:
            return sorted(nxt)
        current = nxt
