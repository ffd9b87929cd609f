"""Exact projective geometry over (Q, place), and marked matrix groups.

A point or hyperplane stores the primitive integer representative of its
class with first nonzero coordinate positive, the key `primitive` also
gives a matrix's class, so equality and hashing are exact and no
coordinate is ever divided.  A matrix stores its integer rows over one
positive scale, the lcm of its entries' denominators; equality and
hashing read that unique form, and a product is cleared by one gcd.
In dimension 2, read off the input's length alone, a product, an image,
an inverse and a wedge take their closed forms; the general loops serve
every larger dimension.
That integer form is the only stored form: `certfmt` writes a point over
its first nonzero coordinate and a matrix's rows over their scale.
Coordinates and entries given as input are ints, Fractions and integer
(numerator, denominator) pairs in lowest terms, the form in which
`certfmt.pair_from` reads a certificate's numbers.
`scalar.clear_denominators` clears them in `class_rep` and
`ProjMat.__init__`, and anything else is a TypeError.  Past that, `det`,
inverses and kernels take and return integers alone.  The metric is the
standard one, d([v],[w]) = |v ^ w| / (|v| |w|), handled
throughout in squared form on the integer representatives: sums of
squares at the archimedean place; at a p-adic place the sup norm
replaces the Euclidean one, and an integer vector has norm
p^(-min v_p).  A distance is an integer (numerator, denominator) pair,
which callers that only compare cross-multiply; `dist_sq` and
`dist_to_hyperplane_sq` build a Fraction for callers that need the number.

Sets are finite unions of open balls and open hyperplane neighborhoods,
the only shapes the attracting/repelling machinery needs.  Disjointness
and containment are decided by exact comparisons of sqrt(a) + sqrt(b)
against sqrt(c), on the distance pairs and the radii's numerators and
denominators; Unknown is a legal verdict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .scalar import DisjointVerdict, Place, Rat, Record, clear_denominators, cmp_sqrt_sum, int_valuation, word_string, word_tokens

IntVec = tuple[int, ...]

#: Largest matrix dimension of a problem file, and of a matrix, point or
#: hyperplane of a certificate.  One archimedean `direction_candidates`
#: (singular profile and power iteration) takes up to 0.02 s at n = 12 and
#: 0.04 s at n = 16 on random entries in -9..9 (one core of an Intel Xeon
#: VM); its cost grows with n and with the entries' size, which grows in
#: the powers a search takes.  A search certifies up to `certfmt.MAX_EXPONENT`
#: such matrices, and `verify` re-runs it for each contraction claim, so
#: a larger n would not fail but run ever longer.
#: The contraction witness search stays bounded at any n: it tries at
#: most `dynamics.WITNESS_POOL_MAX` points.
MAX_DIM = 16


def class_rep(coords) -> IntVec:
    """The primitive integer representative, first nonzero entry positive,
    of the class of a nonzero vector of ints and Fractions."""
    v, _ = clear_denominators(coords)
    if not any(v):
        raise ValueError("zero vector has no projective class")
    return primitive(v)


class _IntegerClass(Record):
    """A class of P(Q^n) or of its dual, stored by `class_rep`.  A point
    never equals a hyperplane: equality asks for the same class."""

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        Record.__init__(self, class_rep(coords))

    @classmethod
    def _of(cls, v: IntVec):
        """The class of v, already primitive with first nonzero entry positive."""
        x = object.__new__(cls)
        object.__setattr__(x, "coords", v)
        return x

    @property
    def dim(self) -> int:
        return len(self.coords)


class ProjPoint(_IntegerClass):
    __slots__ = ()


class ProjHyperplane(_IntegerClass):
    """ker(f), stored by the class of the covector f."""

    __slots__ = ()

    def dual_point(self) -> ProjPoint:
        return ProjPoint._of(self.coords)


def norm_sq(v: IntVec, place: Place) -> tuple[int, int]:
    """|v|^2 of an integer vector as (numerator, denominator): the sum of
    squares, or (max_i |v_i|_p)^2 = p^(-2 min_i v_p(v_i))."""
    if not place.is_padic:
        return sum(map(mul, v, v)), 1
    p = place.prime
    least = None
    for x in v:
        if x:
            e = int_valuation(x, p)
            if least is None or e < least:
                least = e
                if not e:
                    break
    return (0, 1) if least is None else (1, p ** (2 * least))


def wedge(v, w) -> tuple:
    """2x2 minors v_i w_j - v_j w_i, i < j, in lexicographic order: the
    single minor in dimension 2, else `_minors`."""
    if len(v) != len(w):
        raise ValueError("wedge of vectors of different dimension")
    if len(v) == 2:
        return (v[0] * w[1] - v[1] * w[0],)
    return _minors(v, w)


def _minors(v, w) -> tuple:
    """Every 2x2 minor of two vectors of one dimension, in the order of `wedge`."""
    n = len(v)
    return tuple(v[i] * w[j] - v[j] * w[i] for i in range(n) for j in range(i + 1, n))


def dot(v, w):
    return sum(map(mul, v, w))


def _ratio_sq(top: IntVec, a: IntVec, b: IntVec, place: Place) -> tuple[int, int]:
    """|top|^2 / (|a|^2 |b|^2) as an integer pair, for primitive a and b:
    one of their coordinates is a p-adic unit, so |a| = |b| = 1 at a
    p-adic place."""
    if place.is_padic:
        return norm_sq(top, place)
    return norm_sq(top, place)[0], norm_sq(a, place)[0] * norm_sq(b, place)[0]


def dist_sq_pair(p: ProjPoint, q: ProjPoint, place: Place) -> tuple[int, int]:
    """d(p, q)^2 as (numerator, denominator), for callers that only compare it."""
    if p.dim != q.dim:
        raise ValueError("points of different dimension")
    return _ratio_sq(wedge(p.coords, q.coords), p.coords, q.coords, place)


def dist_sq(p: ProjPoint, q: ProjPoint, place: Place) -> Rat:
    """Squared standard metric; exact rational in [0, 1]."""
    return Fraction(*dist_sq_pair(p, q, place))


def dist_to_hyperplane_sq_pair(p: ProjPoint, h: ProjHyperplane, place: Place) -> tuple[int, int]:
    """d(p, h)^2 as (numerator, denominator), for callers that only compare it."""
    if p.dim != h.dim:
        raise ValueError("point and hyperplane of different dimension")
    return _ratio_sq((dot(h.coords, p.coords),), h.coords, p.coords, place)


def dist_to_hyperplane_sq(p: ProjPoint, h: ProjHyperplane, place: Place) -> Rat:
    """Squared distance |f(v)|^2 / (|f|^2 |v|^2); 0 iff p lies on h."""
    return Fraction(*dist_to_hyperplane_sq_pair(p, h, place))


def dual_dist_sq(h1: ProjHyperplane, h2: ProjHyperplane, place: Place) -> tuple[int, int]:
    """The squared distance between hyperplanes, measured between their
    dual points, as (numerator, denominator)."""
    return dist_sq_pair(h1.dual_point(), h2.dual_point(), place)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


IntRows = tuple[IntVec, ...]


class ProjMat:
    """Invertible n x n matrix over Q acting on P(Q^n) at a fixed place.

    Stored as `_integer_form` = (A, s): integer rows A over one positive
    scale s, the lcm of the entries' denominators, so gcd(s, A) = 1 and
    the form is unique; equality and hashing read it.  Invertibility is
    checked once, on construction from input.  Products, transposes and
    inverses of invertible matrices are invertible, so they are built by
    `_of`, which skips `det`.  Input entries are ints, Fractions and
    integer pairs (`clear_denominators`); a float or a string is a
    TypeError.
    """

    def __init__(self, entries, place: Place) -> None:
        entries = [tuple(r) for r in entries]
        n = len(entries)
        if n < 2 or any(len(r) != n for r in entries):
            raise ValueError("entries must form a square matrix, n >= 2")
        flat, scale = clear_denominators([x for r in entries for x in r])
        self._integer_form = (tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n)), scale)
        self.place = place
        if det(self._integer_form[0]) == 0:
            raise ValueError("matrix must be invertible")

    @classmethod
    def _of(cls, rows: IntRows, scale: int, place: Place) -> "ProjMat":
        """The matrix rows / scale, already cleared as in `_integer_form`,
        known to be square and invertible."""
        m = object.__new__(cls)
        m._integer_form = (rows, scale)
        m.place = place
        return m

    @property
    def dim(self) -> int:
        return len(self._integer_form[0])

    @cached_property
    def _hash(self) -> int:
        return hash((self._integer_form, self.place))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjMat):
            return NotImplemented
        return self is other or (self._integer_form == other._integer_form and self.place == other.place)

    def __repr__(self) -> str:
        return f"ProjMat({self._integer_form!r}, {self.place!r})"

    @cached_property
    def gram(self) -> tuple[IntRows, int]:
        """(S, s) with g^T g = S / s: the Gram matrix S = A^T A of the
        columns of the integer rows A = d g of `_integer_form`, and
        s = d^2.  Built once per matrix; the archimedean singular profile
        and direction candidates both read it."""
        rows, scale = self._integer_form
        return gram_matrix(tuple(zip(*rows))), scale * scale

    def __matmul__(self, other: "ProjMat") -> "ProjMat":
        # (A/sa)(B/sb) = AB/(sa sb), cleared by one gcd; eight products in
        # dimension 2
        a, sa = self._integer_form
        b, sb = other._integer_form
        if self.place != other.place or len(a) != len(b):
            raise ValueError("matrix product across places or dimensions")
        if len(a) == 2:
            (a0, a1), (a2, a3) = a
            (b0, b1), (b2, b3) = b
            rows = ((a0 * b0 + a1 * b2, a0 * b1 + a1 * b3), (a2 * b0 + a3 * b2, a2 * b1 + a3 * b3))
        else:
            rows = _product(a, b)
        return ProjMat._of(*_cleared(rows, sa * sb), self.place)

    def transpose(self) -> "ProjMat":
        rows, scale = self._integer_form
        return ProjMat._of(tuple(zip(*rows)), scale, self.place)

    @cached_property
    def _inverse(self) -> "ProjMat":
        inv = ProjMat._of(*inverse_rows(*self._integer_form), self.place)
        inv.__dict__["_inverse"] = self  # (g^-1)^-1 is g, with its caches warm
        return inv

    def inverse(self) -> "ProjMat":
        """g^-1, computed once per matrix."""
        return self._inverse

    def power(self, n: int) -> "ProjMat":
        if n == 0:
            return identity(self.dim, self.place)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        out = None
        acc = base
        while n:
            if n & 1:
                out = acc if out is None else out @ acc
            n >>= 1
            if n:
                acc = acc @ acc
        return out

    def powers(self, stop: int, start: int = 1):
        """(n, self^n) for start <= n < stop, one product per step."""
        acc = None
        for n in range(start, stop):
            acc = self.power(n) if acc is None else acc @ self
            yield n, acc

    def proportional_to(self, other: "ProjMat") -> bool:
        """Equality in PGL: entries agree up to a global nonzero scalar."""
        return self.class_key() == other.class_key()

    def is_identity(self) -> bool:
        """Scalar matrix: zero off the diagonal, one constant on it."""
        rows, _ = self._integer_form
        d = rows[0][0]
        return all(x == (d if i == j else 0) for i, r in enumerate(rows) for j, x in enumerate(r))

    @cached_property
    def height(self) -> int:
        """The bit length of the largest entry of `class_key`, computed once
        per matrix: a word's height is the sum of its letters'."""
        return max(map(abs, self.class_key())).bit_length()

    def class_key(self) -> tuple[int, ...]:
        """The entries, row by row, of the primitive integer multiple whose
        first nonzero entry is positive: equal exactly for matrices equal
        in PGL, and no Fraction is divided to find it."""
        rows, _ = self._integer_form
        return primitive([x for r in rows for x in r])


def known_not_proximal(m: ProjMat) -> bool:
    """True when m is 2 x 2 and its top eigenvalue modulus is repeated, so
    no (r, eps)-proximality certificate exists: the discriminant
    (a + d)^2 - 4 (ad - bc) = (a - d)^2 + 4bc of the integer rows
    ((a, b), (c, d)) is 0 (one eigenvalue, twice) at any place, or < 0 (a
    conjugate pair) at the archimedean place.  The scale multiplies it by
    a square, so only its sign is read.  False decides nothing."""
    rows, _ = m._integer_form
    if len(rows) != 2:
        return False
    (a, b), (c, d) = rows
    disc = (a - d) ** 2 + 4 * b * c
    return disc == 0 or (disc < 0 and not m.place.is_padic)


def _product(a: IntRows, b: IntRows) -> IntRows:
    """The integer rows of the product of two square integer matrices."""
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in a])


def _cleared(rows: IntRows, scale: int) -> tuple[IntRows, int]:
    """The form of `_integer_form` of the matrix rows / scale, for integer
    rows and a positive scale.  Entry x / scale has denominator
    scale / gcd(x, scale), and the lcm of those is scale / gcd(scale, rows),
    so dividing both by that gcd clears the matrix."""
    if scale != 1:
        g = gcd(scale, *(x for r in rows for x in r))
        if g != 1:
            return tuple(tuple(x // g for x in r) for r in rows), scale // g
    return rows, scale


def det(rows: IntRows) -> int:
    """Exact determinant of a square integer matrix: closed form for
    2 x 2, else `_eliminate` on a copy of the rows."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return _eliminate([list(r) for r in rows], len(rows))


def _eliminate(m: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) forward elimination, in place, of integer
    rows m whose first n columns are square; every column to the right is
    carried along.  Returns det of that n x n block, the last pivot times
    the sign of the row swaps, or 0 as soon as a column has no pivot."""
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        rk = m[k]
        piv = rk[k]
        for row in m[k + 1 :]:
            x = row[k]
            for j in range(k + 1, len(rk)):
                row[j] = (piv * row[j] - x * rk[j]) // prev
        prev = piv
    return sign * m[-1][n - 1]


def primitive(v) -> tuple[int, ...]:
    """The primitive multiple of a nonzero integer vector whose first
    nonzero entry is positive: equal exactly for proportional vectors."""
    g = gcd(*v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def gram_matrix(vectors) -> IntRows:
    """The symmetric matrix of dot products of integer vectors."""
    n = len(vectors)
    out = [[0] * n for _ in range(n)]
    for i, v in enumerate(vectors):
        for j in range(i, n):
            out[i][j] = out[j][i] = sum(map(mul, v, vectors[j]))
    return tuple(map(tuple, out))


def inverse_rows(a: IntRows, scale: int) -> tuple[IntRows, int]:
    """The `_integer_form` of (a / scale)^-1 for an invertible integer
    matrix a: scale adj(a) over det(a), with det(a) made positive and
    then cleared.  In dimension 2 the adjugate of ((p, q), (r, t)) is
    ((t, -q), (-r, p)); else `_eliminated_inverse` finds it."""
    if len(a) == 2:
        (p, q), (r, t) = a
        d = p * t - q * r
        s = scale if d > 0 else -scale
        return _cleared(((s * t, -s * q), (-s * r, s * p)), abs(d))
    return _eliminated_inverse(a, scale)


def _eliminated_inverse(a: IntRows, scale: int) -> tuple[IntRows, int]:
    """`inverse_rows` by elimination, at any dimension.

    `_eliminate` on [a | I] leaves an upper triangular U beside Y with
    U X = Y for X = a^-1, and returns d = det(a).  Then d X is the
    adjugate, an integer matrix, so back substitution for it divides
    exactly, and the inverse is scale d X over d, with d made positive
    and then cleared.
    """
    n = len(a)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    d = _eliminate(m, n)
    x: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        ri = m[i]
        acc = [d * y for y in ri[n:]]
        for k in range(i + 1, n):
            if ri[k]:
                acc = [s - ri[k] * t for s, t in zip(acc, x[k])]
        x[i] = [s // ri[i] for s in acc]
    sign_scale = scale if d > 0 else -scale
    return _cleared(tuple([tuple([sign_scale * v for v in row]) for row in x]), abs(d))


def identity(n: int, place: Place) -> ProjMat:
    return ProjMat._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, place)


def apply(g: ProjMat, p: ProjPoint) -> ProjPoint:
    """[g v], on the integer rows of g: four products in dimension 2,
    else `_image`."""
    rows, _ = g._integer_form
    v = p.coords
    if len(v) != len(rows):
        raise ValueError("dimension mismatch")
    if len(v) == 2:
        (a, b), (c, d) = rows
        x, y = v
        return ProjPoint._of(primitive((a * x + b * y, c * x + d * y)))
    return ProjPoint._of(primitive(_image(rows, v)))


def _image(rows: IntRows, v: IntVec) -> list[int]:
    """The integer vector rows v."""
    return [sum(map(mul, r, v)) for r in rows]


def apply_hyperplane(g: ProjMat, h: ProjHyperplane) -> ProjHyperplane:
    """Image hyperplane g(ker f) = ker(f o g^-1), on the integer rows of g^-1."""
    rows, _ = g.inverse()._integer_form
    f = h.coords
    return ProjHyperplane._of(primitive([sum(map(mul, col, f)) for col in zip(*rows)]))


Word = tuple[tuple[int, int], ...]  # letters (generator index, +-1), freely reduced


def word_inverse(w: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(w))


def concat(*words: Word) -> Word:
    out: list[tuple[int, int]] = []
    for w in words:
        for letter in w:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


class MarkedGroup(Record):
    """Named invertible generators over a shared place and dimension;
    identity testing is matrix equality up to a scalar."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[tuple[str, ProjMat], ...]) -> None:
        if not gens:
            raise ValueError("a marked group needs at least one generator")
        dims = {m.dim for _, m in gens}
        places = {m.place for _, m in gens}
        if len(dims) != 1 or len(places) != 1:
            raise ValueError("generators must share dimension and place")
        Record.__init__(self, gens)

    @property
    def place(self):
        return self.gens[0][1].place

    @property
    def dim(self) -> int:
        return self.gens[0][1].dim

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.gens]

    def gen_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.gens):
            if n == name:
                return i
        raise KeyError(f"unknown generator {name!r}")

    def eval(self, w: Word) -> ProjMat:
        out = None
        for idx, exp in w:
            m = self.gens[idx][1]
            m = m if exp > 0 else m.inverse()
            out = m if out is None else out @ m
        return identity(self.dim, self.place) if out is None else out

    def parse_word(self, text: str) -> Word:
        letters = []
        for name, e in word_tokens(text):
            letters.extend([(self.gen_index(name), 1 if e > 0 else -1)] * abs(e))
        return concat(letters)

    def word_str(self, w: Word) -> str:
        return word_string(w, self.names) if w else "e"

    def words_upto(self, max_len: int):
        """All nonempty freely reduced words of length <= max_len, shortlex,
        inverses ordered after positives."""
        k = len(self.gens)
        letters = [(i, 1) for i in range(k)] + [(i, -1) for i in range(k)]
        frontier: list[Word] = [()]
        for _ in range(max_len):
            nxt = []
            for w in frontier:
                for lt in letters:
                    if w and w[-1][0] == lt[0] and w[-1][1] == -lt[1]:
                        continue
                    nw = w + (lt,)
                    nxt.append(nw)
                    yield nw
            frontier = nxt


# ---------------------------------------------------------------------------
# Set algebra: finite unions of open balls and open hyperplane neighborhoods
# ---------------------------------------------------------------------------


def _radius_sq(radius_sq: Rat) -> Fraction:
    """A component's squared radius as a Fraction, refused outside (0, 1]."""
    if type(radius_sq) is not Fraction:
        radius_sq = Fraction(radius_sq)
    num, den = radius_sq.as_integer_ratio()
    if not 0 < num <= den:
        raise ValueError("radius_sq must lie in (0, 1]")
    return radius_sq


class Ball(Record):
    __slots__ = ("center", "radius_sq")

    def __init__(self, center: ProjPoint, radius_sq: Rat) -> None:
        Record.__init__(self, center, _radius_sq(radius_sq))

    @property
    def dim(self) -> int:
        return self.center.dim


class HNbhd(Record):
    __slots__ = ("plane", "radius_sq")

    def __init__(self, plane: ProjHyperplane, radius_sq: Rat) -> None:
        Record.__init__(self, plane, _radius_sq(radius_sq))

    @property
    def dim(self) -> int:
        return self.plane.dim


Component = Ball | HNbhd


class ProjSet(Record):
    __slots__ = ("components",)

    def __init__(self, components) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("empty set union")
        if len({c.dim for c in comps}) != 1:
            raise ValueError("mixed dimensions in one set")
        Record.__init__(self, comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def ball(center: ProjPoint, radius_sq: Rat) -> ProjSet:
    return ProjSet((Ball(center, radius_sq),))


def hnbhd(plane: ProjHyperplane, radius_sq: Rat) -> ProjSet:
    return ProjSet((HNbhd(plane, radius_sq),))


CERTIFIED_DISJOINT = DisjointVerdict("disjoint")
UNKNOWN = DisjointVerdict("unknown")


def overlap(witness: ProjPoint) -> DisjointVerdict:
    return DisjointVerdict("overlap", witness)


def component_member(p: ProjPoint, c: Component, place: Place) -> bool:
    # open sets: strict inequality
    if isinstance(c, Ball):
        num, den = dist_sq_pair(p, c.center, place)
    else:
        num, den = dist_to_hyperplane_sq_pair(p, c.plane, place)
    r = c.radius_sq
    return num * r.denominator < r.numerator * den


def dual_ball_of_hnbhd(c: HNbhd) -> Ball:
    """In P(Q^2) a hyperplane is a point; its neighborhood is the ball
    around the kernel point, with identical radius."""
    if c.dim != 2:
        raise ValueError("hyperplane neighborhoods dualize to balls only in dimension 2")
    f = c.plane.coords
    return Ball(ProjPoint._of(primitive((-f[1], f[0]))), c.radius_sq)


def _kernel_intersection_point(h1: ProjHyperplane, h2: ProjHyperplane) -> ProjPoint:
    """A rational point on ker f1 and ker f2, for n >= 3 (its one caller
    handles P^1 apart).

    For distinct planes it is the kernel vector supported on three
    columns: p1, the first where f1 or f2 is nonzero, p2, the first after
    it with m(p1, p2) = f1_p1 f2_p2 - f1_p2 f2_p1 nonzero, and the first
    column outside both.  That is the cross product of the covectors on
    those columns, the class the reduced row echelon form of (f1; f2)
    gives, so it depends on the two planes only."""
    f, g = h1.coords, h2.coords
    n = len(f)
    if h1 == h2:  # e_0 lies on ker f when f_0 = 0, else (f_1, -f_0, 0, ...) does
        return ProjPoint._of(primitive([f[1], -f[0]] if f[0] else [1, 0]) + (0,) * (n - 2))
    p1 = next(j for j in range(n) if f[j] or g[j])
    p2 = next(j for j in range(p1 + 1, n) if f[p1] * g[j] - f[j] * g[p1])
    free = next(j for j in range(n) if j != p1 and j != p2)
    sol = [0] * n
    for i, j, k in ((p1, p2, free), (p2, free, p1), (free, p1, p2)):
        sol[i] = f[j] * g[k] - f[k] * g[j]
    return ProjPoint._of(primitive(sol))


def _component_disjoint(a: Component, b: Component, place: Place) -> DisjointVerdict:
    # Open sets: closures may touch, so ">= r1 + r2" certifies disjointness
    # (backed by the triangle inequality / 1-Lipschitz property).
    if isinstance(a, HNbhd) and isinstance(b, HNbhd):
        if a.dim == 2:
            return _component_disjoint(dual_ball_of_hnbhd(a), dual_ball_of_hnbhd(b), place)
        return overlap(_kernel_intersection_point(a.plane, b.plane))
    if isinstance(a, HNbhd):
        a, b = b, a
    radii = a.radius_sq.as_integer_ratio(), b.radius_sq.as_integer_ratio()
    if isinstance(b, Ball):
        if cmp_sqrt_sum(*radii, dist_sq_pair(a.center, b.center, place)) <= 0:
            return CERTIFIED_DISJOINT
        if component_member(a.center, b, place):
            return overlap(a.center)
        if component_member(b.center, a, place):
            return overlap(b.center)
        w = _chord_witness(a.center, b.center, (a, b), place)
        return overlap(w) if w is not None else UNKNOWN
    # ball vs hyperplane neighborhood
    if cmp_sqrt_sum(*radii, dist_to_hyperplane_sq_pair(a.center, b.plane, place)) <= 0:
        return CERTIFIED_DISJOINT
    if component_member(a.center, b, place):
        return overlap(a.center)
    foot = _point_on_plane_near(a.center, b.plane)
    if foot is not None:
        if component_member(foot, a, place):
            return overlap(foot)
        w = _chord_witness(a.center, foot, (a, b), place)
        if w is not None:
            return overlap(w)
    return UNKNOWN


def _point_on_plane_near(p: ProjPoint, h: ProjHyperplane) -> ProjPoint | None:
    """Rational point on h (the Euclidean foot works at every place as a
    point of h, even if not nearest p-adically): the class of
    v - (f.v / f.f) f, which is that of (f.f) v - (f.v) f on the integer
    representatives."""
    f, v = h.coords, p.coords
    ff, fv = dot(f, f), dot(f, v)
    foot = [ff * a - fv * b for a, b in zip(v, f)]
    if not any(foot):
        return None
    return ProjPoint._of(primitive(foot))


def _chord_witness(p: ProjPoint, q: ProjPoint, comps: tuple[Component, Component], place: Place) -> ProjPoint | None:
    """Search the chord between the canonical representatives of p and q
    for a common point.  With P, Q the integer representatives and p0, q0
    their (positive) first nonzero coordinates, the chord's point at
    t = k/64 is the class of (64 - k) q0 P + k p0 Q, never zero since
    p != q."""
    if p == q:
        return p if all(component_member(p, c, place) for c in comps) else None
    big_p, big_q = p.coords, q.coords
    p0 = next(x for x in big_p if x)
    q0 = next(x for x in big_q if x)
    for k in range(0, 65):
        a, b = (64 - k) * q0, k * p0
        pt = ProjPoint._of(primitive([a * x + b * y for x, y in zip(big_p, big_q)]))
        if all(component_member(pt, c, place) for c in comps):
            return pt
    return None


def set_disjoint(s: ProjSet, t: ProjSet, place: Place) -> DisjointVerdict:
    """Certified disjointness of two finite unions.

    Disjoint needs every component pair certified; one overlapping pair
    yields an explicit common point; anything else is Unknown.
    """
    if s.dim != t.dim:
        raise ValueError("sets of different dimension")
    saw_unknown = False
    for a in s.components:
        for b in t.components:
            v = _component_disjoint(a, b, place)
            if v.kind == "overlap":
                return v
            if v.kind == "unknown":
                saw_unknown = True
    return UNKNOWN if saw_unknown else CERTIFIED_DISJOINT


def _component_contains(outer: Component, inner: Component, place: Place, closed_inner: bool) -> bool:
    """Certified inner <= outer (strictly stronger when closed_inner:
    the closure of inner must sit inside the open outer)."""
    if isinstance(inner, Ball):
        if isinstance(outer, Ball):
            d2 = dist_sq_pair(inner.center, outer.center, place)
        else:
            d2 = dist_to_hyperplane_sq_pair(inner.center, outer.plane, place)
    elif isinstance(outer, HNbhd):
        d2 = dual_dist_sq(inner.plane, outer.plane, place)
    elif inner.dim == 2:
        # a ball contains a hyperplane neighborhood only through the dual in P^1
        return _component_contains(outer, dual_ball_of_hnbhd(inner), place, closed_inner)
    else:
        return False
    c = cmp_sqrt_sum(d2, inner.radius_sq.as_integer_ratio(), outer.radius_sq.as_integer_ratio())
    return c < 0 if closed_inner else c <= 0


def set_contains(outer: ProjSet, inner: ProjSet, place: Place, closed_inner: bool = False) -> bool:
    """Certified inner subseteq outer (each inner component inside some
    outer component; sufficient, not necessary)."""
    if outer.dim != inner.dim:
        raise ValueError("sets of different dimension")
    return all(
        any(_component_contains(o, i, place, closed_inner) for o in outer.components) for i in inner.components
    )
