"""Certified contraction and proximality of projective matrices.

The central sufficient test: if kappa = sigma_2/sigma_1 satisfies
kappa <= eps^2, the matrix maps the complement of the eps-neighborhood of
its (candidate) repelling hyperplane into the closed eps-ball around its
(candidate) attracting point.  Candidates are exact at p-adic places:
a scan of the entries finds the first one of least valuation in
row-major order, and its column and row are the candidates (that entry
is the first pivot of the Smith elimination over the localization).
At the archimedean place they are rational enclosures (power iteration
with a residual bound against the certified second eigenvalue).

Fixed points are certified by a self-mapping ball: a region on which the
map is certifiably L-Lipschitz with L < 1 and which it maps strictly into
itself contains exactly one fixed point.  No constants are taken on
faith: this module proposes candidates, every verdict is decided by the
inequalities in `checker` that `verify` also calls, and Unknown is a
legal outcome of the sufficient tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .checker import Enclosure, image_radius_bound, point_plane_far, selfmap_at, selfmap_radii, witness_refutes
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
    integer_rows,
    primitive,
    set_disjoint,
)
from .rootiso import Interval, isolate_positive_roots, point
from .scalar import Place, Rat, int_valuation, padic_valuation, sqrt_lower, sqrt_upper

#: Iteration budget for enclosure and direction refinement.
ITER_BUDGET = 64


@dataclass(frozen=True)
class SingularProfile:
    """Certified squared singular values, descending; exact at p-adic places."""

    values_sq: tuple[Interval, ...]
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.values_sq)

    @cached_property
    def gap_sq(self) -> Interval:
        """Enclosure of kappa^2 = (sigma_2/sigma_1)^2, divided once per profile."""
        return self.values_sq[1].divide(self.values_sq[0])


# ---------------------------------------------------------------------------
# p-adic singular data: elementary divisors over the localization at p
# ---------------------------------------------------------------------------


def padic_exponents(rows, p: int) -> list[int]:
    """Ascending elementary-divisor exponents of an invertible matrix over
    the localization of Z at p; |sigma_i| = p^(-e_i).

    Fraction-free (Bareiss) elimination with p-adic pivoting on integer
    or Fraction entries, whose denominators are cleared by one common
    integer scale.  Each step pivots on the first entry of minimal
    valuation in row-major order of the remaining block.  After k steps
    every remaining entry is det of the leading k x k pivot block times an
    entry of its Schur complement, so the k-th pivot has valuation
    e_1 + ... + e_k and consecutive differences are the exponents.
    """
    n = len(rows)
    a, scale = integer_rows(rows)
    exps: list[int] = []
    prev = 1
    prev_v = floor = 0  # floor: least valuation the next pivot can have
    for k in range(n):
        best = None
        for i in range(k, n):
            row = a[i]
            for j in range(k, n):
                x = row[j]
                if x:
                    v = int_valuation(x, p)
                    if best is None or v < best:
                        best, pi, pj = v, i, j
                        if v == floor:
                            break
            if best == floor:
                break
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
    shift = int_valuation(scale, p)
    return [e - shift for e in exps]


# ---------------------------------------------------------------------------
# Profiles and gaps
# ---------------------------------------------------------------------------


def _charpoly_gram(g: ProjMat) -> list[Fraction]:
    """Characteristic polynomial of g^T g, lowest degree first.

    Faddeev-LeVerrier on the integer Gram matrix S of `ProjMat.gram`,
    g^T g = S / scale: M <- S (M + c_(k-1) I), c_k = -tr(M) / k.  An
    integer matrix has an integer characteristic polynomial, so every
    division is exact, and charpoly(S / scale) has the coefficients
    c_k / scale^k.
    """
    s_rows, scale = g.gram
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
    # c_k multiplies lambda^(n-k)
    return [Fraction(c, scale**k) for k, c in reversed(list(enumerate(coeffs)))]


@lru_cache(maxsize=4096)
def singular_profile(g: ProjMat) -> SingularProfile:
    """Certified squared singular values of g, descending.

    p-adic: exact powers p^(-2e) from the elementary divisors over the
    localization.  Archimedean: enclosures of the roots of charpoly(g^T g),
    computed on the integer Gram matrix and isolated on integer
    coefficients, refined to relative width 2^-30 (degenerate intervals
    for rational roots, which are split off exactly).

    Results are memoized; the searches upstream revisit matrices often.
    """
    if g.place.is_padic:
        exps = padic_exponents(g.entries, g.place.prime)
        p = g.place.prime
        vals = [point(Fraction(1, p ** (2 * e)) if e >= 0 else Fraction(p ** (-2 * e))) for e in exps]
        return SingularProfile(tuple(vals), exact=True)
    roots = isolate_positive_roots(_charpoly_gram(g))
    vals: list[Interval] = []
    for iv, mult in roots:
        vals.extend([iv] * mult)
    if len(vals) != g.dim:
        raise AssertionError("gram matrix must have a full set of positive eigenvalues")
    vals.sort(key=lambda i: (i.hi, i.lo), reverse=True)
    return SingularProfile(tuple(vals), exact=all(v.exact for v in vals))


def contraction_gap_sq(g: ProjMat) -> Interval:
    """Enclosure of kappa^2 = (sigma_2/sigma_1)^2; exact at p-adic places.
    The memoized profile holds it, so it is divided once per matrix."""
    return singular_profile(g).gap_sq


# ---------------------------------------------------------------------------
# Direction candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionData:
    """Rational candidates for the singular directions with certified errors.

    attract approximates the top left-singular direction within
    sqrt(attract_err_sq); repel's dual point approximates the top
    right-singular direction within sqrt(repel_err_sq).  None means no
    certified bound was achieved (degenerate or budget exhausted).
    """

    attract: ProjPoint
    attract_err_sq: Rat | None
    repel: ProjHyperplane
    repel_err_sq: Rat | None


def _power_direction(s_rows, scale: int, lam2_hi: Rat) -> tuple[ProjPoint, Rat | None]:
    """Candidate top eigendirection of the symmetric matrix S = s_rows / scale
    (integer rows) with a certified residual bound
    sin^2(angle) <= |Su - ru|^2 / (|u|^2 (r - lam2_hi)^2).

    The iterates are primitive integer vectors, the projective points of
    power iteration from each nonzero column of S.  With u = s_rows v,
    w = u.v and lam2_hi = p/q, the Rayleigh quotient r = w / (scale v.v)
    exceeds lam2_hi iff q w > p scale v.v, and the bound is the rational
    q^2 (v.v u.u - w^2) / (q w - p scale v.v)^2, compared as integer pairs.
    """
    n = len(s_rows)
    p, q = lam2_hi.numerator, lam2_hi.denominator
    p_scale = p * scale
    best = ProjPoint(tuple(int(i == 0) for i in range(n)))
    best_err = None  # (numerator, denominator) of best's bound
    for j in range(n):
        col = [row[j] for row in s_rows]
        if not any(col):
            continue
        v = primitive(col)
        for _ in range(ITER_BUDGET):
            u = [sum(map(mul, row, v)) for row in s_rows]
            if not any(u):
                break
            vv = sum(map(mul, v, v))
            w = sum(map(mul, u, v))
            gap = q * w - p_scale * vv
            if gap > 0:
                num, den = q * q * (vv * sum(map(mul, u, u)) - w * w), gap * gap
                if best_err is None or num * best_err[1] < best_err[0] * den:
                    best, best_err = ProjPoint(v), (num, den)
                if num << 80 <= den:
                    return best, Fraction(num, den)
            nxt = primitive(u)
            if nxt == v:
                break  # stalled on an eigenvector; bound won't improve
            v = nxt
    return best, None if best_err is None else Fraction(*best_err)


@lru_cache(maxsize=4096)
def direction_candidates(g: ProjMat) -> DirectionData:
    """Attracting/repelling candidates with certified enclosure errors.

    p-adic: exact, from a scan of the entries for the first one of least
    valuation in row-major order, which is the first pivot of the
    elimination in `padic_exponents`.  Its column is the top singular
    (attracting) direction and its row the functional of the repelling
    hyperplane.  Archimedean: power iteration on g g^T and g^T g with
    residual bounds against the second eigenvalue's enclosure.
    """
    if g.place.is_padic:
        p = g.place.prime
        _, i, j = min(
            (padic_valuation(x, p), i, j)
            for i, row in enumerate(g.entries)
            for j, x in enumerate(row)
            if x
        )
        return DirectionData(ProjPoint(g.col(j)), Fraction(0), ProjHyperplane(g.row(i)), Fraction(0))
    lam2_hi = singular_profile(g).values_sq[1].hi
    rows, _ = g._integer_form
    gtg, scale = g.gram
    attract, a_err = _power_direction(gram_matrix(rows), scale, lam2_hi)
    dual, r_err = _power_direction(gtg, scale, lam2_hi)
    return DirectionData(attract, a_err, ProjHyperplane(dual.coords), r_err)


# ---------------------------------------------------------------------------
# Contraction certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionCert:
    """Evidence that g maps {d(., repel) >= eps} into {d(., attract) <= B}
    with B = sqrt(image_radius_sq) <= eps = sqrt(epsilon_sq).

    attract_err_sq / repel_err_sq bound the distance from the rational
    candidates to the true singular directions (exactly 0 at p-adic
    places); gap_sq_hi is the certified upper bound on kappa^2 feeding
    the estimate B = kappa/(eps - beta) + alpha.
    """

    epsilon_sq: Rat
    attract: ProjPoint
    repel: ProjHyperplane
    method: str
    place: Place
    attract_err_sq: Rat
    repel_err_sq: Rat
    gap_sq_hi: Rat
    image_radius_sq: Rat

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
            (g.transpose(), self.repel.dual_point(), ProjHyperplane(self.attract.coords), self.attract_err_sq),
        )


@dataclass(frozen=True)
class ContractionVerdict:
    kind: str  # "yes" | "no" | "unknown"
    cert: ContractionCert | None = None
    counterexample: ProjPoint | None = None


def _witness_pool(n: int):
    """Every point of P^(n-1) with coordinates in {-1, 0, 1}, once each,
    lazily: by support size, then lexicographically among the
    representatives whose first nonzero coordinate is 1."""
    for size in range(1, n + 1):
        for coords in itertools.product((-1, 0, 1), repeat=n):
            if n - coords.count(0) == size and next(c for c in coords if c) == 1:
                yield ProjPoint(coords)


def certify_contracting(g: ProjMat, epsilon_sq: Rat) -> ContractionVerdict:
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
            method="singular-gap",
            place=g.place,
            attract_err_sq=dirs.attract_err_sq,
            repel_err_sq=dirs.repel_err_sq,
            gap_sq_hi=gap.hi,
            image_radius_sq=bound * bound,
        )
        return ContractionVerdict("yes", cert=cert)
    for x in _witness_pool(g.dim):
        if witness_refutes(g, x, dirs.attract, dirs.repel, epsilon_sq):
            return ContractionVerdict("no", counterexample=x)
    return ContractionVerdict("unknown")


# ---------------------------------------------------------------------------
# Fixed-point enclosures and proximality
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _selfmap_ladder(epsilon_sq: Rat):
    """The radii eps / 2^j, j = 45 down to 1, ascending, built once per eps."""
    return selfmap_radii(epsilon_sq / 4**j for j in range(45, 0, -1))


def selfmap_enclosure(
    g: ProjMat, attract: ProjPoint, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat
) -> Enclosure | None:
    """Iterate g on the attracting candidate until a ball, of radius
    eps / 2^j for j = 45 down to 1, passes the checker's self-map test."""
    radii = _selfmap_ladder(epsilon_sq)
    c = attract
    for _ in range(ITER_BUDGET):
        c, enc = selfmap_at(g, c, attract, repel, repel_err_sq, gap_sq_hi, epsilon_sq, radii)
        if enc is not None:
            return enc
    return None


@dataclass(frozen=True)
class ProximalCert:
    """(r, eps)-proximality: the contraction certificate's candidate pair
    satisfies d(attract, repel) >= r, and both the fixed point and the
    fixed hyperplane are pinned inside self-mapping enclosures."""

    r_sq: Rat
    epsilon_sq: Rat
    contraction: ContractionCert
    fixed_point: Enclosure
    fixed_plane_dual: Enclosure  # enclosure in the dual space (of the hyperplane's dual point)
    very: "ProximalCert | None" = None

    @property
    def fixed_plane_nbhd(self) -> HNbhd:
        b = self.fixed_plane_dual.ball
        return HNbhd(ProjHyperplane(b.center.coords), b.radius_sq)

    @property
    def attract_set(self) -> Ball:
        return self.contraction.attract_set

    @property
    def repel_set(self) -> HNbhd:
        return self.contraction.repel_set

    @property
    def eps_sets(self) -> tuple[ProjSet, ProjSet, ProjSet, ProjSet]:
        """(A+, R+, A-, R-): the eps-sets of g and, from `very`, of g^-1."""
        c, ci = self.contraction, self.very.contraction
        return tuple(ProjSet((s,)) for s in (c.attract_set, c.repel_set, ci.attract_set, ci.repel_set))

    def very_pairs(self) -> tuple[tuple[ProjSet, ProjSet, str], ...]:
        """The disjointnesses a very-proximal certificate needs, as
        (left, right, claim note); `certify_very_proximal` checks these
        and `certfmt` emits them."""
        a_p, r_p, a_m, r_m = self.eps_sets
        return ((a_p, r_p, "very: A+ vs R+"), (a_p, a_m, "very: A+ vs A-"), (a_m, r_m, "very: A- vs R-"))


@dataclass(frozen=True)
class ProximalVerdict:
    """On "no", counterexample refutes the contraction candidates of
    refutes, which is g itself or, from certify_very_proximal, g^-1."""

    kind: str  # "yes" | "no" | "unknown"
    cert: ProximalCert | None = None
    counterexample: ProjPoint | None = None
    refutes: ProjMat | None = None


def certify_proximal(g: ProjMat, r_sq: Rat, epsilon_sq: Rat) -> ProximalVerdict:
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
    if cv.kind == "no":
        return ProximalVerdict("no", counterexample=cv.counterexample, refutes=g)
    if cv.kind == "unknown":
        return ProximalVerdict("unknown")
    cert = cv.cert
    if not point_plane_far(cert.attract, cert.repel, r_sq, g.place):
        return ProximalVerdict("unknown")
    encs = []
    for m, attract, repel, repel_err_sq in cert.selfmap_problems(g):
        enc = selfmap_enclosure(m, attract, repel, repel_err_sq, cert.gap_sq_hi, epsilon_sq)
        if enc is None:
            return ProximalVerdict("unknown")
        encs.append(enc)
    return ProximalVerdict("yes", cert=ProximalCert(r_sq, epsilon_sq, cert, *encs))


def certify_very_proximal(g: ProjMat, r_sq: Rat, epsilon_sq: Rat) -> ProximalVerdict:
    """Both g and g^-1 (r, eps)-proximal, plus the three cross-disjointness
    conditions of `ProximalCert.very_pairs` on the eps-sets of the pair:
    A+ from R+, A+ from A-, and A- from R-.

    A "no" from g^-1 names g^-1 in `refutes`.  A failed cross-disjointness
    check is "unknown": a point common to two candidate sets refutes no
    contraction claim."""
    fwd = certify_proximal(g, r_sq, epsilon_sq)
    if fwd.kind != "yes":
        return fwd
    bwd = certify_proximal(g.inverse(), r_sq, epsilon_sq)
    if bwd.kind != "yes":
        return bwd
    paired = replace(fwd.cert, very=bwd.cert)
    if any(set_disjoint(left, right, g.place).kind != "disjoint" for left, right, _ in paired.very_pairs()):
        return ProximalVerdict("unknown")
    return ProximalVerdict("yes", cert=paired)


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
    candidates: list[Rat] = []
    lam_n_lo = profile.values_sq[-1].lo
    if lam_n_lo > 0:
        # (sigma1 sigma2 / sigma_n^2)^2 = lam1 lam2 / lam_n^2
        glob_sq = profile.values_sq[0].hi * profile.values_sq[1].hi / (lam_n_lo * lam_n_lo)
        candidates.append(glob_sq * b.radius_sq)
    dirs = direction_candidates(m)
    if dirs.repel_err_sq is not None:
        l_d = sqrt_lower(dist_to_hyperplane_sq(b.center, dirs.repel, place))
        d_low = l_d - sqrt_upper(b.radius_sq) - sqrt_upper(dirs.repel_err_sq)
        if d_low > 0:
            candidates.append(contraction_gap_sq(m).hi * b.radius_sq / d_low**4)
    radius_sq = min(candidates) if candidates else Fraction(1)
    if radius_sq > 1:
        radius_sq = Fraction(1)
    return Ball(center, radius_sq)


def push_hnbhd(m: ProjMat, h: HNbhd) -> HNbhd:
    """Hyperplane neighborhood certifiably containing m(h): the image
    plane with radius grown by the global bi-Lipschitz bound sigma1/sigma_n."""
    profile = singular_profile(m)
    lam_n_lo = profile.values_sq[-1].lo
    if lam_n_lo <= 0:
        return HNbhd(apply_hyperplane(m, h.plane), Fraction(1))
    radius_sq = profile.values_sq[0].hi / lam_n_lo * h.radius_sq
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
    return HNbhd(ProjHyperplane((-f[1], f[0])), b.radius_sq)


def push_set(m: ProjMat, s) -> "object":
    return ProjSet(tuple(push_component(m, c) for c in s.components))
