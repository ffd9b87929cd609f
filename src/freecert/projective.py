"""Exact projective geometry over (Q, place).

A point or hyperplane stores the primitive integer representative of its
class with first nonzero coordinate positive, the key `primitive` also
gives a matrix's class, so equality and hashing are exact and no
coordinate is ever divided.  `.rep` and `.functional` are the canonical
rational views (first nonzero coordinate 1) that certificates print.  The
metric is the standard one, d([v],[w]) = |v ^ w| / (|v| |w|), handled
throughout in squared form on the integer representatives: sums of
squares at the archimedean place; at a p-adic place the sup norm
replaces the Euclidean one, and an integer vector has norm
p^(-min v_p).  A distance is one Fraction, built from an integer pair
that callers which only compare cross-multiply instead.

Sets are finite unions of open balls and open hyperplane neighborhoods,
the only shapes the attracting/repelling machinery needs.  Disjointness
and containment are decided by exact comparisons of sqrt(a) + sqrt(b)
against sqrt(c); Unknown is a legal verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .scalar import Place, Rat, cmp_sqrt_sum, int_valuation

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def class_rep(coords) -> IntVec:
    """The primitive integer representative, first nonzero entry positive,
    of the class of a nonzero vector of ints and Fractions."""
    v = coords
    if not all(type(c) is int for c in v):
        for c in v:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coordinate {c!r} is not an int or a Fraction")
        scale = lcm(*(c.denominator for c in v))
        v = [c.numerator * (scale // c.denominator) for c in v]
    if not any(v):
        raise ValueError("zero vector has no projective class")
    return primitive(v)


@dataclass(frozen=True)
class _IntegerClass:
    """A class of P(Q^n) or of its dual, stored by `class_rep`."""

    coords: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", class_rep(self.coords))

    @classmethod
    def _of(cls, v: IntVec):
        """The class of v, already primitive with first nonzero entry positive."""
        x = object.__new__(cls)
        object.__setattr__(x, "coords", v)
        return x

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def _canonical(self) -> Vec:
        first = next(x for x in self.coords if x)
        return tuple(Fraction(x, first) for x in self.coords)


class ProjPoint(_IntegerClass):
    @property
    def rep(self) -> Vec:
        """The canonical representative: first nonzero coordinate 1."""
        return self._canonical


class ProjHyperplane(_IntegerClass):
    """ker(f), stored by the class of the covector f."""

    @property
    def functional(self) -> Vec:
        """The canonical covector: first nonzero coordinate 1."""
        return self._canonical

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
    """2x2 minors v_i w_j - v_j w_i, i < j, in lexicographic order."""
    if len(v) != len(w):
        raise ValueError("wedge of vectors of different dimension")
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


def dual_dist_sq(h1: ProjHyperplane, h2: ProjHyperplane, place: Place) -> Rat:
    """Distance between hyperplanes, measured between their dual points."""
    return dist_sq(h1.dual_point(), h2.dual_point(), place)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjMat:
    """Invertible n x n matrix over Q acting on P(Q^n) at a fixed place.

    Invertibility is checked once, on construction from input.  Products,
    transposes and inverses of invertible matrices are invertible, so they
    are built by `_trusted`, which skips `det`.
    """

    entries: tuple[Vec, ...]
    place: Place

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(c) for c in r) for r in self.entries)
        n = len(rows)
        if n < 2 or any(len(r) != n for r in rows):
            raise ValueError("entries must form a square matrix, n >= 2")
        object.__setattr__(self, "entries", rows)
        if det(rows) == 0:
            raise ValueError("matrix must be invertible")

    @classmethod
    def _trusted(cls, rows: tuple[Vec, ...], place: Place) -> "ProjMat":
        """A matrix from Fraction rows already known to be square and invertible."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        object.__setattr__(m, "place", place)
        return m

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def _integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """`integer_rows` of the entries as tuples, cleared once per matrix
        for `__matmul__`; `det` and `padic_exponents` eliminate in place on
        fresh lists of their own."""
        rows, scale = integer_rows(self.entries)
        return tuple(map(tuple, rows)), scale

    @cached_property
    def gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(S, s) with g^T g = S / s: the Gram matrix S = A^T A of the
        columns of the integer rows A = d g of `_integer_form`, and
        s = d^2.  Built once per matrix; the archimedean singular profile
        and direction candidates both read it."""
        rows, scale = self._integer_form
        return gram_matrix(tuple(zip(*rows))), scale * scale

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __matmul__(self, other: "ProjMat") -> "ProjMat":
        if self.place != other.place or self.dim != other.dim:
            raise ValueError("matrix product across places or dimensions")
        # (A/sa)(B/sb) = AB/(sa sb) on the integer rows; Fraction reduces each entry
        a, sa = self._integer_form
        b, sb = other._integer_form
        s = sa * sb
        cols = tuple(zip(*b))
        rows = tuple(tuple(Fraction(sum(map(mul, r, c)), s) for c in cols) for r in a)
        return ProjMat._trusted(rows, self.place)

    def transpose(self) -> "ProjMat":
        return ProjMat._trusted(tuple(zip(*self.entries)), self.place)

    @cached_property
    def _inverse(self) -> "ProjMat":
        rows, scale = self._integer_form
        inv = ProjMat._trusted(inverse_rows(rows, scale), self.place)
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
        d = self.entries[0][0]
        return all(x == (d if i == j else 0) for i, r in enumerate(self.entries) for j, x in enumerate(r))

    def class_key(self) -> tuple[int, ...]:
        """The entries, row by row, of the primitive integer multiple whose
        first nonzero entry is positive: equal exactly for matrices equal
        in PGL, and no Fraction is divided to find it."""
        rows, _ = self._integer_form
        return primitive([x for r in rows for x in r])


def det(rows: tuple[Vec, ...]) -> Rat:
    """Exact determinant: closed form for 2 x 2, else fraction-free
    (Bareiss) elimination on the integer matrix scale * rows."""
    n = len(rows)
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a, scale = integer_rows(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        rk = a[k]
        piv = rk[k]
        for row in a[k + 1 :]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - x * rk[j]) // prev
        prev = piv
    return Fraction(sign * a[-1][-1], scale**n)


def integer_rows(rows) -> tuple[list[list[int]], int]:
    """(scale * rows as integer lists, scale), scale the lcm of the denominators."""
    scale = 1
    for r in rows:
        for x in r:
            if x.denominator != 1:
                scale = lcm(scale, x.denominator)
    if scale == 1:
        return [[x.numerator for x in r] for r in rows], 1
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows], scale


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


def gram_matrix(vectors) -> tuple[tuple[int, ...], ...]:
    """The symmetric matrix of dot products of integer vectors."""
    n = len(vectors)
    out = [[0] * n for _ in range(n)]
    for i, v in enumerate(vectors):
        for j in range(i, n):
            out[i][j] = out[j][i] = sum(map(mul, v, vectors[j]))
    return tuple(map(tuple, out))


def inverse_rows(a, scale: int) -> tuple[Vec, ...]:
    """The rows of (a / scale)^-1 for an invertible integer matrix a.

    Fraction-free (Bareiss) elimination of [a | I] leaves an upper
    triangular U, whose last pivot d is det(a) up to sign, beside Y with
    U X = Y for X = a^-1.  Then d X is the adjugate up to sign, an integer
    matrix, so back substitution for it divides exactly, and the inverse
    is scale d X / d.
    """
    n = len(a)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    prev = 1
    for k in range(n):
        if not m[k][k]:
            swap = next(i for i in range(k + 1, n) if m[i][k])
            m[k], m[swap] = m[swap], m[k]
        rk = m[k]
        piv = rk[k]
        for row in m[k + 1 :]:
            x = row[k]
            for j in range(k + 1, 2 * n):
                row[j] = (piv * row[j] - x * rk[j]) // prev
        prev = piv
    x: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        ri = m[i]
        acc = [prev * y for y in ri[n:]]
        for k in range(i + 1, n):
            if ri[k]:
                acc = [s - ri[k] * t for s, t in zip(acc, x[k])]
        x[i] = [s // ri[i] for s in acc]
    return tuple(tuple(Fraction(scale * v, prev) for v in row) for row in x)


def identity(n: int, place: Place) -> ProjMat:
    return ProjMat._trusted(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)), place)


def apply(g: ProjMat, p: ProjPoint) -> ProjPoint:
    """[g v], on the integer rows of g."""
    if p.dim != g.dim:
        raise ValueError("dimension mismatch")
    rows, _ = g._integer_form
    v = p.coords
    return ProjPoint._of(primitive([sum(map(mul, r, v)) for r in rows]))


def apply_hyperplane(g: ProjMat, h: ProjHyperplane) -> ProjHyperplane:
    """Image hyperplane g(ker f) = ker(f o g^-1), on the integer rows of g^-1."""
    rows, _ = g.inverse()._integer_form
    f = h.coords
    return ProjHyperplane._of(primitive([sum(map(mul, col, f)) for col in zip(*rows)]))


# ---------------------------------------------------------------------------
# Set algebra: finite unions of open balls and open hyperplane neighborhoods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: ProjPoint
    radius_sq: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius_sq", Fraction(self.radius_sq))
        if not 0 < self.radius_sq <= 1:
            raise ValueError("radius_sq must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return self.center.dim


@dataclass(frozen=True)
class HNbhd:
    plane: ProjHyperplane
    radius_sq: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius_sq", Fraction(self.radius_sq))
        if not 0 < self.radius_sq <= 1:
            raise ValueError("radius_sq must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return self.plane.dim


Component = Ball | HNbhd


@dataclass(frozen=True)
class ProjSet:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("empty set union")
        if len({c.dim for c in comps}) != 1:
            raise ValueError("mixed dimensions in one set")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def ball(center: ProjPoint, radius_sq: Rat) -> ProjSet:
    return ProjSet((Ball(center, radius_sq),))


def hnbhd(plane: ProjHyperplane, radius_sq: Rat) -> ProjSet:
    return ProjSet((HNbhd(plane, radius_sq),))


@dataclass(frozen=True)
class DisjointVerdict:
    kind: str  # "disjoint" | "overlap" | "unknown"
    witness: ProjPoint | None = None


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
    return Ball(ProjPoint((-f[1], f[0])), c.radius_sq)


def _kernel_intersection_point(h1: ProjHyperplane, h2: ProjHyperplane) -> ProjPoint | None:
    """A rational point on ker f1 and ker f2 when one exists (n >= 3, or equal planes)."""
    if h1 == h2:
        f = h1.coords
        n = len(f)
        for i in range(n):
            for j in range(i + 1, n):
                cand = [0] * n
                cand[i], cand[j] = f[j], -f[i]
                if any(cand):
                    return ProjPoint(tuple(cand))
        return None
    n = h1.dim
    if n < 3:
        return None
    # solve the 2 x n homogeneous system exactly; its reduced row echelon
    # form, and so the solution, depends on the two planes only
    rows = [list(h1.functional), list(h2.functional)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, 2) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [c * inv for c in rows[r]]
        for i in range(2):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == 2:
            break
    free = next(c for c in range(n) if c not in pivots)
    sol = [Fraction(0)] * n
    sol[free] = Fraction(1)
    for i, col in enumerate(pivots):
        sol[col] = -rows[i][free]
    return ProjPoint(tuple(sol))


def _component_disjoint(a: Component, b: Component, place: Place) -> DisjointVerdict:
    # Open sets: closures may touch, so ">= r1 + r2" certifies disjointness
    # (backed by the triangle inequality / 1-Lipschitz property).
    if isinstance(a, HNbhd) and isinstance(b, HNbhd):
        if a.dim == 2:
            return _component_disjoint(dual_ball_of_hnbhd(a), dual_ball_of_hnbhd(b), place)
        w = _kernel_intersection_point(a.plane, b.plane)
        if w is not None:
            return overlap(w)
        return UNKNOWN
    if isinstance(a, HNbhd):
        a, b = b, a
    if isinstance(b, Ball):
        d2 = dist_sq(a.center, b.center, place)
        if cmp_sqrt_sum(a.radius_sq, b.radius_sq, d2) <= 0:
            return CERTIFIED_DISJOINT
        if component_member(a.center, b, place):
            return overlap(a.center)
        if component_member(b.center, a, place):
            return overlap(b.center)
        w = _chord_witness(a.center, b.center, (a, b), place)
        return overlap(w) if w is not None else UNKNOWN
    # ball vs hyperplane neighborhood
    d2 = dist_to_hyperplane_sq(a.center, b.plane, place)
    if cmp_sqrt_sum(a.radius_sq, b.radius_sq, d2) <= 0:
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
    t = k/64 is the class of (64 - k) q0 P + k p0 Q."""
    if p == q:
        return p if all(component_member(p, c, place) for c in comps) else None
    big_p, big_q = p.coords, q.coords
    p0 = next(x for x in big_p if x)
    q0 = next(x for x in big_q if x)
    for k in range(0, 65):
        a, b = (64 - k) * q0, k * p0
        cand = [a * x + b * y for x, y in zip(big_p, big_q)]
        if not any(cand):
            continue
        pt = ProjPoint._of(primitive(cand))
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


def _component_contains(outer: Component, inner: Component, place: Place, closed_inner: bool = False) -> bool:
    """Certified inner <= outer (strictly stronger when closed_inner:
    the closure of inner must sit inside the open outer)."""
    strict = closed_inner
    if isinstance(outer, Ball) and isinstance(inner, Ball):
        d2 = dist_sq(inner.center, outer.center, place)
        c = cmp_sqrt_sum(d2, inner.radius_sq, outer.radius_sq)
        return c < 0 if strict else c <= 0
    if isinstance(outer, HNbhd) and isinstance(inner, HNbhd):
        d2 = dual_dist_sq(inner.plane, outer.plane, place)
        c = cmp_sqrt_sum(d2, inner.radius_sq, outer.radius_sq)
        return c < 0 if strict else c <= 0
    if isinstance(outer, HNbhd) and isinstance(inner, Ball):
        d2 = dist_to_hyperplane_sq(inner.center, outer.plane, place)
        c = cmp_sqrt_sum(d2, inner.radius_sq, outer.radius_sq)
        return c < 0 if strict else c <= 0
    # ball can contain a hyperplane neighborhood only through the dual in P^1
    if inner.dim == 2:
        return _component_contains(outer, dual_ball_of_hnbhd(inner), place, closed_inner)
    return False


def set_contains(outer: ProjSet, inner: ProjSet, place: Place, closed_inner: bool = False) -> bool:
    """Certified inner subseteq outer (each inner component inside some
    outer component; sufficient, not necessary)."""
    if outer.dim != inner.dim:
        raise ValueError("sets of different dimension")
    return all(
        any(_component_contains(o, i, place, closed_inner) for o in outer.components) for i in inner.components
    )
