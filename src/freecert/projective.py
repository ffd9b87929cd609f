"""Exact projective geometry over (Q, place).

Points and hyperplanes carry canonical rational representatives (first
nonzero coordinate scaled to 1) so equality and hashing are exact.  The
metric is the standard one, d([v],[w]) = |v ^ w| / (|v| |w|), handled
throughout in squared form; at a p-adic place the sup norm replaces the
Euclidean one and everything stays rational.

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

from .scalar import Place, Rat, abs_sq, abs_value, cmp_sqrt_sum

Vec = tuple[Fraction, ...]


def vec(coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


def is_zero_vec(v: Vec) -> bool:
    return all(c == 0 for c in v)


def canonical_rep(v: Vec) -> Vec:
    """Scale so the first nonzero coordinate equals 1 (unique per class)."""
    for c in v:
        if c != 0:
            return tuple(x / c for x in v)
    raise ValueError("zero vector has no projective class")


@dataclass(frozen=True)
class ProjPoint:
    rep: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "rep", canonical_rep(vec(self.rep)))

    @property
    def dim(self) -> int:
        return len(self.rep)


@dataclass(frozen=True)
class ProjHyperplane:
    """ker(functional), stored by the canonical rep of the dual covector."""

    functional: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "functional", canonical_rep(vec(self.functional)))

    @property
    def dim(self) -> int:
        return len(self.functional)

    def dual_point(self) -> ProjPoint:
        return ProjPoint(self.functional)


def norm_sq(v: Vec, place: Place) -> Rat:
    """Squared standard norm: sum of squares, or (max_i |x_i|_p)^2."""
    if not place.is_padic:
        return sum((c * c for c in v), Fraction(0))
    best = Fraction(0)
    for c in v:
        if c != 0:
            a = abs_value(c, place)
            if a > best:
                best = a
    return best * best


def wedge(v: Vec, w: Vec) -> Vec:
    """2x2 minors v_i w_j - v_j w_i, i < j, in lexicographic order."""
    if len(v) != len(w):
        raise ValueError("wedge of vectors of different dimension")
    n = len(v)
    return tuple(v[i] * w[j] - v[j] * w[i] for i in range(n) for j in range(i + 1, n))


def dot(v: Vec, w: Vec) -> Rat:
    return sum((a * b for a, b in zip(v, w)), Fraction(0))


def dist_sq(p: ProjPoint, q: ProjPoint, place: Place) -> Rat:
    """Squared standard metric; exact rational in [0, 1]."""
    if p.dim != q.dim:
        raise ValueError("points of different dimension")
    return norm_sq(wedge(p.rep, q.rep), place) / (norm_sq(p.rep, place) * norm_sq(q.rep, place))


def dist_to_hyperplane_sq(p: ProjPoint, h: ProjHyperplane, place: Place) -> Rat:
    """Squared distance |f(v)|^2 / (|f|^2 |v|^2); 0 iff p lies on h."""
    if p.dim != h.dim:
        raise ValueError("point and hyperplane of different dimension")
    fv = dot(h.functional, p.rep)
    return abs_sq(fv, place) / (norm_sq(h.functional, place) * norm_sq(p.rep, place))


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
        rows = tuple(vec(r) for r in self.entries)
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

    def inverse(self) -> "ProjMat":
        return ProjMat._trusted(mat_inverse(self.entries), self.place)

    def mul_vec(self, v: Vec) -> Vec:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(dot(r, v) for r in self.entries)

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
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def gram_matrix(vectors) -> tuple[tuple[int, ...], ...]:
    """The symmetric matrix of dot products of integer vectors."""
    n = len(vectors)
    out = [[0] * n for _ in range(n)]
    for i, v in enumerate(vectors):
        for j in range(i, n):
            out[i][j] = out[j][i] = sum(map(mul, v, vectors[j]))
    return tuple(map(tuple, out))


def mat_inverse(rows: tuple[Vec, ...]) -> tuple[Vec, ...]:
    n = len(rows)
    aug = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def identity(n: int, place: Place) -> ProjMat:
    return ProjMat._trusted(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)), place)


def apply(g: ProjMat, p: ProjPoint) -> ProjPoint:
    """Canonical representative of [g v]."""
    return ProjPoint(g.mul_vec(p.rep))


def apply_hyperplane(g: ProjMat, h: ProjHyperplane) -> ProjHyperplane:
    """Image hyperplane g(ker f) = ker(f o g^-1)."""
    return ProjHyperplane(g.inverse().transpose().mul_vec(h.functional))


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
        return dist_sq(p, c.center, place) < c.radius_sq
    return dist_to_hyperplane_sq(p, c.plane, place) < c.radius_sq


def dual_ball_of_hnbhd(c: HNbhd) -> Ball:
    """In P(Q^2) a hyperplane is a point; its neighborhood is the ball
    around the kernel point, with identical radius."""
    if c.dim != 2:
        raise ValueError("hyperplane neighborhoods dualize to balls only in dimension 2")
    f = c.plane.functional
    return Ball(ProjPoint((-f[1], f[0])), c.radius_sq)


def _kernel_intersection_point(h1: ProjHyperplane, h2: ProjHyperplane) -> ProjPoint | None:
    """A rational point on ker f1 and ker f2 when one exists (n >= 3, or equal planes)."""
    if h1 == h2:
        f = h1.functional
        n = len(f)
        for i in range(n):
            for j in range(i + 1, n):
                cand = [Fraction(0)] * n
                cand[i], cand[j] = f[j], -f[i]
                if not is_zero_vec(tuple(cand)):
                    return ProjPoint(tuple(cand))
        return None
    n = h1.dim
    if n < 3:
        return None
    # solve the 2 x n homogeneous system exactly
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
    point of h, even if not nearest p-adically)."""
    f = h.functional
    v = p.rep
    fv = dot(f, v)
    ff = dot(f, f)
    foot = tuple(a - fv / ff * b for a, b in zip(v, f))
    if is_zero_vec(foot):
        return None
    return ProjPoint(foot)


def _chord_witness(p: ProjPoint, q: ProjPoint, comps: tuple[Component, Component], place: Place) -> ProjPoint | None:
    """Search the rational chord between p and q for a common point."""
    if p == q:
        return p if all(component_member(p, c, place) for c in comps) else None
    for k in range(0, 65):
        t = Fraction(k, 64)
        cand = tuple(a + t * (b - a) for a, b in zip(p.rep, q.rep))
        if is_zero_vec(cand):
            continue
        pt = ProjPoint(cand)
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
