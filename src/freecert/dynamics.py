"""Certified contraction and proximality of projective matrices.

The central sufficient test: if kappa = sigma_2/sigma_1 satisfies
kappa <= eps^2, the matrix maps the complement of the eps-neighborhood of
its (candidate) repelling hyperplane into the closed eps-ball around its
(candidate) attracting point.  Candidates are exact at p-adic places:
a scan of the integer rows finds the first entry of least valuation
in row-major order, and its column and row are the candidates (that entry
is the first pivot of the Smith elimination over the localization).
At the archimedean place they are rational enclosures (power iteration
with a residual bound against the certified second eigenvalue).  Both
archimedean searches read one characteristic polynomial per matrix,
`gram_charpoly`: the profile isolates its roots, and the power
iteration continues the Krylov moments mu_i = x^T S^i x of each start
column x by its recurrence (Cayley-Hamilton).  Every number the
iteration tests is a moment: |v|^2, v.Sv and |Sv|^2 of the k-th iterate
are mu_2k, mu_(2k+1) and mu_(2k+2) up to one positive factor, which the
scale-free bound cancels, and the iterate stalls iff
mu_2k mu_(2k+2) = mu_(2k+1)^2 (Cauchy-Schwarz).

Fixed points are certified by a self-mapping ball: a region on which the
map is certifiably L-Lipschitz with L < 1 and which it maps strictly into
itself contains exactly one fixed point.  No constants are taken on
faith: this module proposes candidates, every verdict is decided by the
inequalities in `checker` that `verify` also calls, and Unknown is a
legal outcome of the sufficient tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .checker import Enclosure, Ladder, evidence_outside, image_radius_bound, point_plane_far, selfmap_at, witness_refutes
from .projective import (
    Ball,
    HNbhd,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    ProjSet,
    apply,
    apply_hyperplane,
    dist_to_hyperplane_sq,
    dual_ball_of_hnbhd,
    gram_matrix,
    primitive,
    set_disjoint,
)
from .rootiso import Interval, isolate_positive_roots, point
from .scalar import VERY_PAIRS, Rat, Record, int_valuation, sqrt_lower, sqrt_upper

#: Iteration budget for enclosure and direction refinement.
ITER_BUDGET = 64


class SingularProfile(Record):
    """Certified squared singular values, descending; exact at p-adic places."""

    __slots__ = ("values_sq", "__dict__")  # the dict holds `gap_sq`

    @property
    def exact(self) -> bool:
        """Whether every value is known exactly (a degenerate interval)."""
        return all(v.exact for v in self.values_sq)

    @cached_property
    def gap_sq(self) -> Interval:
        """Enclosure of kappa^2 = (sigma_2/sigma_1)^2, divided once per
        profile: every value is positive, so its ends are v1.lo / v0.hi and
        v1.hi / v0.lo."""
        v0, v1 = self.values_sq[:2]
        return Interval(v1.lo / v0.hi, v1.hi / v0.lo)


# ---------------------------------------------------------------------------
# p-adic singular data: elementary divisors over the localization at p
# ---------------------------------------------------------------------------


def _padic_pivot(a, k: int, p: int, floor: int) -> tuple[int | None, int, int]:
    """(v, i, j): the pivot of elimination step k, the first entry a[i][j]
    of least valuation v in row-major order of the block a[k:][k:], found
    by a scan that stops at `floor`, a lower bound; v is None on a zero block."""
    best, pi, pj = None, k, k
    n = len(a)
    for i in range(k, n):
        row = a[i]
        for j in range(k, n):
            x = row[j]
            if x:
                v = int_valuation(x, p)
                if best is None or v < best:
                    best, pi, pj = v, i, j
                    if v == floor:
                        return best, pi, pj
    return best, pi, pj


def padic_exponents(rows, p: int) -> list[int]:
    """Ascending elementary-divisor exponents of an invertible integer
    matrix over the localization of Z at p; |sigma_i| = p^(-e_i).

    Fraction-free (Bareiss) elimination with p-adic pivoting on a copy of
    the integer rows; a matrix over a scale is shifted by its caller,
    `singular_profile`.  Each step pivots on the first entry of minimal
    valuation in row-major order of the remaining block (`_padic_pivot`).
    After k steps every remaining entry is det of the leading k x k pivot
    block times an entry of its Schur complement, so the k-th pivot has
    valuation e_1 + ... + e_k and consecutive differences are the
    exponents.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    exps: list[int] = []
    prev = 1
    prev_v = floor = 0  # floor: least valuation the next pivot can have
    for k in range(n):
        best, pi, pj = _padic_pivot(a, k, p, floor)
        if best is None:
            raise ValueError("singular matrix has no p-adic profile")
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a[k:]:
                row[k], row[pj] = row[pj], row[k]
        rk = a[k]
        piv = rk[k]
        for row in a[k + 1 :]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - x * rk[j]) // prev
        prev = piv
        exps.append(best - prev_v)
        floor = 2 * best - prev_v
        prev_v = best
    return exps


# ---------------------------------------------------------------------------
# Profiles and gaps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def gram_charpoly(g: ProjMat) -> tuple[int, ...]:
    """(1, c_1, ..., c_n): the monic characteristic polynomial
    lambda^n + c_1 lambda^(n-1) + ... + c_n of the integer Gram matrix
    S = A^T A of `ProjMat.gram`, highest degree first.  A A^T has the same
    one, so the profile and both power iterations of a matrix read it.
    It is (1, -tr S, det S) in dimension 2, else `_faddeev_leverrier`.
    """
    s_rows, _ = g.gram
    if len(s_rows) == 2:
        (p, q), (_, t) = s_rows  # S is symmetric
        return 1, -(p + t), p * t - q * q
    return _faddeev_leverrier(s_rows)


def _faddeev_leverrier(s_rows) -> tuple[int, ...]:
    """`gram_charpoly` of the integer Gram matrix S, at any dimension.

    Faddeev-LeVerrier: M <- S (M + c_(k-1) I), c_k = -tr(M) / k.  An
    integer matrix has an integer characteristic polynomial, so every
    division is exact.
    """
    n = len(s_rows)
    m = [[0] * n for _ in range(n)]
    coeffs = [1]  # c_0, the leading coefficient
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        cols = tuple(zip(*m))
        m = [[sum(map(mul, row, col)) for col in cols] for row in s_rows]
        c, r = divmod(-sum(m[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        coeffs.append(c)
    return tuple(coeffs)


def _charpoly_gram(g: ProjMat) -> tuple[int, ...]:
    """The characteristic polynomial of g^T g, lowest degree first, as the
    primitive integer polynomial with a positive leading coefficient: the
    key of `isolate_positive_roots`.

    g^T g = S / s, so charpoly(S / s) = sum_k c_k lambda^(n-k) / s^k with
    the c_k of `gram_charpoly`, and sum_k c_k s^(n-k) lambda^(n-k) over
    the gcd of its coefficients is its denominator-cleared form.
    """
    coeffs = gram_charpoly(g)
    scale = g.gram[1]
    n = len(coeffs) - 1
    # c_k multiplies lambda^(n-k)
    poly = [c * scale ** (n - k) for k, c in reversed(list(enumerate(coeffs)))]
    content = gcd(*poly)
    return tuple(c // content for c in poly)


@lru_cache(maxsize=4096)
def singular_profile(g: ProjMat) -> SingularProfile:
    """Certified squared singular values of g, descending.

    p-adic: exact powers p^(-2e) from the elementary divisors over the
    localization, found on the integer rows and shifted here, once, by
    the valuation of their scale.  Archimedean: enclosures of the roots
    of charpoly(g^T g), computed on the integer Gram matrix and isolated
    on integer coefficients, refined to relative width 2^-30.  Every
    rational root is found and split off exactly, so the profile is
    exact iff every root is rational (degenerate intervals).

    Results are memoized; the searches upstream revisit matrices often.
    """
    if g.place.is_padic:
        p = g.place.prime
        rows, scale = g._integer_form
        shift = int_valuation(scale, p)  # g = rows / scale
        exps = [e - shift for e in padic_exponents(rows, p)]
        vals = [point(Fraction(1, p ** (2 * e)) if e >= 0 else Fraction(p ** (-2 * e))) for e in exps]
        return SingularProfile(tuple(vals))
    roots = isolate_positive_roots(_charpoly_gram(g))
    vals: list[Interval] = []
    for iv, mult in roots:
        vals.extend([iv] * mult)
    if len(vals) != g.dim:
        raise AssertionError("gram matrix must have a full set of positive eigenvalues")
    vals.sort(key=lambda i: (i.hi, i.lo), reverse=True)
    return SingularProfile(tuple(vals))


def contraction_gap_sq(g: ProjMat) -> Interval:
    """Enclosure of kappa^2 = (sigma_2/sigma_1)^2; exact at p-adic places.
    The memoized profile holds it, so it is divided once per matrix."""
    return singular_profile(g).gap_sq


# ---------------------------------------------------------------------------
# Direction candidates
# ---------------------------------------------------------------------------


class DirectionData(Record):
    """Rational candidates for the singular directions with certified errors.

    attract, a ProjPoint, approximates the top left-singular direction
    within sqrt(attract_err_sq); the dual point of repel, a ProjHyperplane,
    approximates the top right-singular direction within
    sqrt(repel_err_sq).  An error of None means no certified bound was
    achieved (degenerate or budget exhausted).
    """

    __slots__ = ("attract", "attract_err_sq", "repel", "repel_err_sq")


def _below(a: int, b: int, c: int, d: int) -> bool:
    """a/b < c/d for integers a, c >= 0 and b, d > 0.  The cross products
    are multiplied out only when the bit lengths leave the order open:
    for positive a, c the product a d has a.bit_length() + d.bit_length()
    bits or one fewer, and so has c b."""
    e = a.bit_length() + d.bit_length() - c.bit_length() - b.bit_length()
    if a and c and not -1 <= e <= 1:
        return e < 0
    return a * d < c * b


def _power_direction(s_rows, scale: int, lam2_hi: Rat, charpoly: tuple[int, ...]) -> tuple[ProjPoint, tuple[int, int] | None]:
    """Candidate top eigendirection of the symmetric matrix S = s_rows / scale
    (integer rows) with a certified residual bound
    sin^2(angle) <= |Su - ru|^2 / (|u|^2 (r - lam2_hi)^2),
    as (numerator, denominator), or None when no iterate has r > lam2_hi.

    Power iteration from each column of T, the integer rows over
    their content d (S's eigenvectors, smaller moments), read off the
    Krylov moments mu_i = x^T T^i x of its primitive multiple x.  The
    k-th iterate v is the projective point of T^k x and u = s_rows v =
    d T v, so with lam2_hi = p/q the Rayleigh quotient
    r = u.v / (scale v.v) exceeds lam2_hi iff q d mu_(2k+1) > p scale mu_2k,
    and the bound is the rational
    (q d)^2 (mu_2k mu_(2k+2) - mu_(2k+1)^2) / (q d mu_(2k+1) - p scale mu_2k)^2,
    compared as integer pairs.  Both sides have degree 4 in v, so this
    is the bound of the primitive iterate and no gcd is taken.  S is
    positive definite, so no column and no iterate is zero, and the next
    point equals v, a stall on an eigenvector, iff u is a multiple of v:
    the equality case mu_2k mu_(2k+2) = mu_(2k+1)^2 of Cauchy-Schwarz.

    The first moments are dot products of the iterates T^k x; once n are
    known, Cayley-Hamilton continues them by the n-term recurrence
    mu_(i+n) = -(c_1 mu_(i+n-1) / d + ... + c_n mu_i / d^n) with the
    (1, c_1, ..., c_n) of `charpoly`, the `gram_charpoly` of S, in n
    products per moment in place of a matrix-vector product.  The point
    of the best bound is built once, as the primitive vector of its T^k x.
    """
    n = len(s_rows)
    p, q = lam2_hi.numerator, lam2_hi.denominator
    p_scale = p * scale
    d = gcd(*map(gcd, *s_rows))
    if d > 1:
        s_rows = [[x // d for x in row] for row in s_rows]
        q *= d
    recur = None  # the recurrence's coefficients, lined up with mu_i .. mu_(i+n-1)
    best_err = None  # (numerator, denominator) of the best bound
    for j in range(n):
        y = primitive([row[j] for row in s_rows])
        ys = [y]  # T^k x while the moments are seeded
        mu = [sum(map(mul, y, y))]
        uu = mu[0]
        for k in range(ITER_BUDGET):
            vv = uu
            if len(mu) < n:
                u = [sum(map(mul, row, y)) for row in s_rows]
                w, uu = sum(map(mul, u, y)), sum(map(mul, u, u))
                mu += (w, uu)
                ys.append(u)
                y = u
            else:
                if recur is None:
                    recur = [-c // d ** (n - i) for i, c in enumerate(charpoly[:0:-1])]
                w = sum(map(mul, recur, mu[-n:]))
                mu.append(w)
                uu = sum(map(mul, recur, mu[-n:]))
                mu.append(uu)
            slack = vv * uu - w * w
            gap = q * w - p_scale * vv
            if gap > 0:
                num, den = q * q * slack, gap * gap
                if best_err is None or _below(num, den, *best_err):
                    best, best_err = (ys, k), (num, den)
                if num << 80 <= den:
                    return _krylov_point(s_rows, *best), best_err
            if not slack:
                break  # stalled on an eigenvector; bound won't improve
    if best_err is None:
        return ProjPoint._of(tuple(int(i == 0) for i in range(n))), None
    return _krylov_point(s_rows, *best), best_err


def _krylov_point(t_rows, ys, k: int) -> ProjPoint:
    """The projective point of T^k x, continuing the iterates
    ys = (x, T x, ...) already built."""
    y = ys[min(k, len(ys) - 1)]
    for _ in range(len(ys) - 1, k):
        y = [sum(map(mul, row, y)) for row in t_rows]
    return ProjPoint._of(primitive(y))


@lru_cache(maxsize=4096)
def direction_candidates(g: ProjMat) -> DirectionData:
    """Attracting/repelling candidates with certified enclosure errors.

    p-adic: exact, from the first pivot of the elimination in
    `padic_exponents`, the first entry of least valuation of the integer
    rows in row-major order (`_padic_pivot`).  Its column is the top singular
    (attracting) direction and its row the functional of the repelling
    hyperplane.  Archimedean: power iteration on g g^T and g^T g with
    residual bounds against the second eigenvalue's enclosure.
    """
    rows, _ = g._integer_form
    if g.place.is_padic:
        # the common scale shifts every valuation equally
        p = g.place.prime
        _, i, j = _padic_pivot(rows, 0, p, 0)
        return DirectionData(ProjPoint._of(primitive([r[j] for r in rows])), Fraction(0), ProjHyperplane._of(primitive(rows[i])), Fraction(0))
    lam2_hi = singular_profile(g).values_sq[1].hi
    gtg, scale = g.gram
    charpoly = gram_charpoly(g)  # g g^T and g^T g share it
    attract, a_err = _power_direction(gram_matrix(rows), scale, lam2_hi, charpoly)
    dual, r_err = _power_direction(gtg, scale, lam2_hi, charpoly)
    a_err = None if a_err is None else Fraction(*a_err)
    r_err = None if r_err is None else Fraction(*r_err)
    return DirectionData(attract, a_err, ProjHyperplane._of(dual.coords), r_err)


# ---------------------------------------------------------------------------
# Contraction certificates
# ---------------------------------------------------------------------------


class ContractionCert(Record):
    """Evidence that g maps {d(., repel) >= eps} into {d(., attract) <= B}
    with B = sqrt(image_radius_sq) <= eps = sqrt(epsilon_sq).

    attract_err_sq / repel_err_sq bound the distance from the rational
    candidates to the true singular directions (exactly 0 at p-adic
    places); gap_sq_hi is the certified upper bound on kappa^2 feeding
    the estimate B = kappa/(eps - beta) + alpha.  Every number is a Rat.
    """

    __slots__ = ("epsilon_sq", "attract", "repel", "attract_err_sq", "repel_err_sq", "gap_sq_hi", "image_radius_sq")

    @property
    def attract_set(self) -> Ball:
        return Ball(self.attract, self.epsilon_sq)

    @property
    def repel_set(self) -> HNbhd:
        return HNbhd(self.repel, self.epsilon_sq)

    def selfmap_problems(self, g: ProjMat) -> tuple[tuple[ProjMat, ProjPoint, ProjHyperplane, Rat], ...]:
        """(map, attract, repel, repel_err_sq) of the two self-map searches
        that pin g's fixed point and fixed hyperplane: g itself, then the
        transpose acting on dual points, with the roles of the pair swapped."""
        return (
            (g, self.attract, self.repel, self.repel_err_sq),
            (g.transpose(), self.repel.dual_point(), ProjHyperplane._of(self.attract.coords), self.attract_err_sq),
        )


class Verdict(Record):
    """The outcome of a certify_* test, kind "yes", "no" or "unknown".  On
    "yes", cert is a ContractionCert from certify_contracting, else a
    ProximalCert.  On "no", the point counterexample refutes the
    contraction candidates of the matrix refutes, which is g itself or,
    from certify_very_proximal, g^-1."""

    __slots__ = ("kind", "cert", "counterexample", "refutes")
    _defaults = {"cert": None, "counterexample": None, "refutes": None}


#: Most points the contraction witness search tries, the whole pool at
#: n = 7.  Beyond that the pool grows as 3^n / 2, and a search through
#: it, repeated for each power by `power_to_proximal`, would run for
#: minutes at n = 16.
WITNESS_POOL_MAX = 1093


def _supported(n: int, size: int, lead: bool):
    """The n-tuples over {-1, 0, 1} with `size` nonzero entries, in
    lexicographic order; when `lead`, the first nonzero entry is 1."""
    if n == 0:
        yield ()
        return
    for c in (0, 1) if lead else (-1, 0, 1):
        if c == 0 and n > size:
            for rest in _supported(n - 1, size, lead):
                yield (0,) + rest
        elif c and size:
            for rest in _supported(n - 1, size - 1, False):
                yield (c,) + rest


def _witness_pool(n: int):
    """The first WITNESS_POOL_MAX points of P^(n-1) with coordinates in
    {-1, 0, 1}, once each, lazily: by support size, then lexicographically
    among the representatives whose first nonzero coordinate is 1."""
    pool = (ProjPoint._of(c) for size in range(1, n + 1) for c in _supported(n, size, True))
    return itertools.islice(pool, WITNESS_POOL_MAX)


def certify_contracting(g: ProjMat, epsilon_sq: Rat) -> Verdict:
    """Three-valued eps-contraction test.

    Yes: the singular-gap criterion kappa <= eps^2 holds with certified
    bounds and the candidate pair witnesses the contraction.  No: an
    explicit point x has d(x, repel) > eps and d(gx, attract) > eps,
    refuting the candidate pair (strict exact comparisons).  Unknown
    otherwise; the gap test is sufficient, not necessary.
    """
    epsilon_sq = Fraction(epsilon_sq)
    if not 0 < epsilon_sq < 1:
        raise ValueError("epsilon_sq must lie in (0, 1)")
    gap = contraction_gap_sq(g)
    dirs = direction_candidates(g)
    bound = image_radius_bound(gap.hi, epsilon_sq, dirs.attract_err_sq, dirs.repel_err_sq)
    if bound is not None:
        cert = ContractionCert(
            epsilon_sq=epsilon_sq,
            attract=dirs.attract,
            repel=dirs.repel,
            attract_err_sq=dirs.attract_err_sq,
            repel_err_sq=dirs.repel_err_sq,
            gap_sq_hi=gap.hi,
            image_radius_sq=bound * bound,
        )
        return Verdict("yes", cert)
    for x in _witness_pool(g.dim):
        if witness_refutes(g, x, dirs.attract, dirs.repel, epsilon_sq):
            return Verdict("no", counterexample=x, refutes=g)
    return Verdict("unknown")


# ---------------------------------------------------------------------------
# Fixed-point enclosures and proximality
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _selfmap_ladder(epsilon_sq: Rat):
    """The radii eps / 2^j, j = 45 down to 1, ascending, built once per eps
    by shifting its denominator.  n / d is in lowest terms, so a rung
    n / (d 4^j) reduces only by the 2^s, s = min(v2(n), 2j), that divides
    both."""
    n, d = epsilon_sq.as_integer_ratio()
    v = (n & -n).bit_length() - 1
    rungs = []
    for j in range(45, 0, -1):
        s = min(v, 2 * j)
        rungs.append((n >> s, d << 2 * j - s))
    return Ladder(rungs)


@lru_cache(maxsize=4096)
def selfmap_enclosure(
    g: ProjMat, attract: ProjPoint, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat
) -> Enclosure | None:
    """Iterate g on the attracting candidate until a ball, of radius
    eps / 2^j for j = 45 down to 1, passes the checker's self-map test.
    Cached: for a symmetric g the two problems of
    `ContractionCert.selfmap_problems` are one, as g^T = g and the
    repelling hyperplane's covector is the attracting point."""
    radii = _selfmap_ladder(epsilon_sq)
    c = attract
    for _ in range(ITER_BUDGET):
        c, enc = selfmap_at(g, c, attract, repel, repel_err_sq, gap_sq_hi, epsilon_sq, radii)
        if enc is not None:
            return enc
    return None


class ProximalCert(Record):
    """(r, eps)-proximality: the contraction certificate's candidate pair
    satisfies d(attract, repel) >= r, and both the fixed point and the
    fixed hyperplane are pinned inside self-mapping enclosures.
    `contraction` is a ContractionCert, which holds eps, `fixed_point` an
    Enclosure, and `fixed_plane_dual` the Enclosure of the hyperplane's
    dual point in the dual space; `very`, when set, is the ProximalCert of
    the inverse."""

    __slots__ = ("r_sq", "contraction", "fixed_point", "fixed_plane_dual", "very")
    _defaults = {"very": None}

    @property
    def fixed_plane_nbhd(self) -> HNbhd:
        b = self.fixed_plane_dual.ball
        return HNbhd(ProjHyperplane._of(b.center.coords), b.radius_sq)

    @property
    def eps_sets(self) -> tuple[ProjSet, ProjSet, ProjSet, ProjSet]:
        """(A+, R+, A-, R-): the eps-sets of g and, from `very`, of g^-1."""
        c, ci = self.contraction, self.very.contraction
        return tuple(ProjSet((s,)) for s in (c.attract_set, c.repel_set, ci.attract_set, ci.repel_set))

    def check_mapping(self, player) -> tuple[bool, str]:
        """The ping-pong mapping conditions g(X - R+) in A+ and
        g^-1(X - R-) in A- for a player holding this certificate: each
        direction's image ball and repelling set are certified inside the
        player's declared sets, at the place of its element.  Returns
        (held, why not)."""
        if self.very is None:
            return False, f"{player.name}: evidence lacks the inverse direction"
        place = player.element.place
        pairs = (
            (self, player.a_plus, player.r_plus, "forward"),
            (self.very, player.a_minus, player.r_minus, "inverse"),
        )
        for cert, a_decl, r_decl, tag in pairs:
            why = evidence_outside(cert.contraction, a_decl, r_decl, place)
            if why is not None:
                return False, f"{player.name}: {tag} {why}"
        return True, ""


def certify_proximal(g: ProjMat, r_sq: Rat, epsilon_sq: Rat) -> Verdict:
    """(r, eps)-proximality with r > 2 eps enforced.

    Yes needs (a) certified eps-contraction, (b) d(attract, repel) >= r
    for the certificate's own witness pair (exact), (c) self-mapping
    enclosures for the fixed point and the fixed hyperplane.
    """
    r_sq = Fraction(r_sq)
    epsilon_sq = Fraction(epsilon_sq)
    if r_sq <= 4 * epsilon_sq:
        raise ValueError("r <= 2eps")
    cv = certify_contracting(g, epsilon_sq)
    if cv.kind != "yes":
        return cv
    cert = cv.cert
    if not point_plane_far(cert.attract, cert.repel, r_sq, g.place):
        return Verdict("unknown")
    encs = []
    for m, attract, repel, repel_err_sq in cert.selfmap_problems(g):
        enc = selfmap_enclosure(m, attract, repel, repel_err_sq, cert.gap_sq_hi, epsilon_sq)
        if enc is None:
            return Verdict("unknown")
        encs.append(enc)
    return Verdict("yes", ProximalCert(r_sq, cert, *encs))


def certify_very_proximal(g: ProjMat, r_sq: Rat, epsilon_sq: Rat) -> Verdict:
    """Both g and g^-1 (r, eps)-proximal, plus the three cross-disjointness
    conditions `scalar.VERY_PAIRS` on the eps-sets of the pair
    (`ProximalCert.eps_sets`): A+ from R+, A+ from A-, and A- from R-,
    whose claims `certfmt.proximal_claims` writes.

    A "no" from g^-1 names g^-1 in `refutes`.  A failed cross-disjointness
    check is "unknown": a point common to two candidate sets refutes no
    contraction claim."""
    fwd = certify_proximal(g, r_sq, epsilon_sq)
    if fwd.kind != "yes":
        return fwd
    bwd = certify_proximal(g.inverse(), r_sq, epsilon_sq)
    if bwd.kind != "yes":
        return bwd
    c = fwd.cert
    paired = ProximalCert(c.r_sq, c.contraction, c.fixed_point, c.fixed_plane_dual, very=bwd.cert)
    sets = paired.eps_sets
    if any(set_disjoint(sets[i], sets[j], g.place).kind != "disjoint" for i, j in VERY_PAIRS):
        return Verdict("unknown")
    return Verdict("yes", paired)


def power_to_proximal(g: ProjMat, r_sq: Rat, epsilon_sq: Rat, max_n: int) -> tuple[int, ProximalCert] | None:
    """Smallest n <= max_n with certify_proximal(g^n) = Yes, else None."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    for n, gn in g.powers(max_n + 1):
        verdict = certify_proximal(gn, r_sq, epsilon_sq)
        if verdict.kind == "yes":
            return n, verdict.cert
    return None


# ---------------------------------------------------------------------------
# Certified set transport: sound supersets of images of balls/neighborhoods
# ---------------------------------------------------------------------------


def push_ball(m: ProjMat, b: Ball) -> Ball:
    """Ball certifiably containing m(b).

    Radius bounds are computed in squared form, so they are exact whenever
    the profile is (p-adic places, rational eigenvalues).  The local
    contraction bound kappa/D^2 applies when the ball is certifiably far
    from m's repelling data; else the global bound sigma1*sigma2/sigma_n^2.
    The radius saturates at the space diameter.
    """
    place = m.place
    profile = singular_profile(m)
    center = apply(m, b.center)
    # (sigma1 sigma2 / sigma_n^2)^2 = lam1 lam2 / lam_n^2; every profile
    # interval has lo > 0, as m is invertible
    lam_n_lo = profile.values_sq[-1].lo
    candidates = [profile.values_sq[0].hi * profile.values_sq[1].hi / (lam_n_lo * lam_n_lo) * b.radius_sq]
    dirs = direction_candidates(m)
    if dirs.repel_err_sq is not None:
        l_d = sqrt_lower(dist_to_hyperplane_sq(b.center, dirs.repel, place))
        d_low = l_d - sqrt_upper(b.radius_sq) - sqrt_upper(dirs.repel_err_sq)
        if d_low > 0:
            candidates.append(contraction_gap_sq(m).hi * b.radius_sq / d_low**4)
    radius_sq = min(candidates)
    if radius_sq > 1:
        radius_sq = Fraction(1)
    return Ball(center, radius_sq)


def push_hnbhd(m: ProjMat, h: HNbhd) -> HNbhd:
    """Hyperplane neighborhood certifiably containing m(h): the image
    plane with radius grown by the global bi-Lipschitz bound sigma1/sigma_n."""
    profile = singular_profile(m)
    radius_sq = profile.values_sq[0].hi / profile.values_sq[-1].lo * h.radius_sq
    if radius_sq > 1:
        radius_sq = Fraction(1)
    return HNbhd(apply_hyperplane(m, h.plane), radius_sq)


def push_component(m: ProjMat, comp):
    if isinstance(comp, Ball):
        return push_ball(m, comp)
    if comp.dim == 2:
        # in P^1 the neighborhood is, as a point set, the ball around the
        # kernel point, and m carries kernel points to kernel points
        return _hnbhd_of_ball(push_ball(m, dual_ball_of_hnbhd(comp)))
    return push_hnbhd(m, comp)


def _hnbhd_of_ball(b: Ball) -> HNbhd:
    if b.dim != 2:
        raise ValueError("only P^1 balls dualize to hyperplane neighborhoods")
    f = b.center.coords
    return HNbhd(ProjHyperplane._of(primitive((-f[1], f[0]))), b.radius_sq)


def push_set(m: ProjMat, s) -> "object":
    return ProjSet(tuple(push_component(m, c) for c in s.components))
