"""The certified inequalities, each written once.

The searches in `dynamics`, `pingpong` and `synthesis` propose candidates
and decide by these predicates; `certfmt.verify` re-checks a claim by
calling the same ones on its parsed numbers.  Only `scalar` and
`projective` are imported: exact arithmetic, the metric and set algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .projective import (
    Ball,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    ProjSet,
    apply,
    dist_sq,
    dist_sq_pair,
    dist_to_hyperplane_sq_pair,
    set_contains,
)
from .scalar import SQRT_BOUND_BITS, Place, Rat, Record, cmp_sqrt_sum, sqrt_lower_pair, sqrt_upper_pair


def image_radius_bound(gap_sq_hi: Rat, epsilon_sq: Rat, attract_err_sq: Rat | None, repel_err_sq: Rat | None) -> Rat | None:
    """Certified upper bound B = kappa/(eps - beta) + alpha on the radius of
    the image of {d(., repel) >= eps}, with kappa^2 <= gap_sq_hi, alpha^2 =
    attract_err_sq and beta^2 = repel_err_sq; None unless B <= eps (so also
    for a None error, meaning no certified direction bound).  The bounds
    are integer pairs; only B is built as a Fraction."""
    if attract_err_sq is None or repel_err_sq is None:
        return None
    ln, ld = sqrt_lower_pair(*epsilon_sq.as_integer_ratio())
    bn, bd = sqrt_upper_pair(*repel_err_sq.as_integer_ratio())
    dn = ln * bd - bn * ld  # eps - beta = dn / (ld bd)
    if dn <= 0:
        return None
    kn, kd = sqrt_upper_pair(*gap_sq_hi.as_integer_ratio())
    an, ad = sqrt_upper_pair(*attract_err_sq.as_integer_ratio())
    num, den = kn * ld * bd * ad + an * kd * dn, kd * dn * ad
    return Fraction(num, den) if num * ld <= ln * den else None


def witness_refutes(g: ProjMat, x: ProjPoint, attract: ProjPoint, repel: ProjHyperplane, epsilon_sq: Rat) -> bool:
    """x refutes eps-contraction of g for the pair (attract, repel): x lies
    strictly farther than eps from repel and g x strictly farther than eps
    from attract."""
    place = g.place
    en, ed = epsilon_sq.numerator, epsilon_sq.denominator
    num, den = dist_to_hyperplane_sq_pair(x, repel, place)
    if num * ed <= en * den:
        return False
    num, den = dist_sq_pair(apply(g, x), attract, place)
    return num * ed > en * den


def point_plane_far(point: ProjPoint, plane: ProjHyperplane, r_sq: Rat, place: Place) -> bool:
    """d(point, plane) >= r, exactly."""
    num, den = dist_to_hyperplane_sq_pair(point, plane, place)
    return num * r_sq.denominator >= r_sq.numerator * den


class Enclosure(Record):
    """Ball certified to contain exactly one fixed point of the map.

    Checked facts: the map is lipschitz_sq^(1/2)-Lipschitz (< 1) on the
    closed ball, maps it strictly into itself, and the ball sits inside
    the attracting set; region_low_sq is the certified squared lower
    bound on distances from the ball to the true repelling hyperplane.
    `selfmap_at` derives all three numbers, and `verify` requires the
    stored ones to equal them.
    """

    __slots__ = ("ball", "lipschitz_sq", "region_low_sq", "move_sq")  # move_sq: d(g.center, center)^2


class Ladder(Record):
    """Ascending squared radii t^2 for `selfmap_at`, as integer pairs in
    lowest terms, each with its bound u = sqrt_upper(t^2) as a pair,
    computed the first time a test reads it: a test reads about one rung,
    and a ladder serves every test of a search."""

    __slots__ = ("rungs", "_upper")

    def __init__(self, rungs) -> None:
        Record.__init__(self, tuple(rungs))
        object.__setattr__(self, "_upper", [None] * len(self.rungs))

    def upper(self, i: int) -> tuple[int, int]:
        u = self._upper[i]
        if u is None:
            u = self._upper[i] = sqrt_upper_pair(*self.rungs[i])
        return u

    def above(self, n: int, d: int) -> int:
        """The first rung above n/d (`bisect_right` on the pairs)."""
        lo, hi = 0, len(self.rungs)
        while lo < hi:
            mid = (lo + hi) // 2
            tn, td = self.rungs[mid]
            if n * td < tn * d:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def ends_below(self, start: int, rn: int, rd: int) -> bool:
        """Whether some rung below `start` has u >= reach = rn/rd, rd > 0.
        The rungs ascend, so every u below rung i is at most sqrt(t_i^2) +
        2^-40 <= u_i + 2^-40: the scan down from rung start - 1 stops at the
        first rung whose u is more than 2^-40 under reach."""
        for i in reversed(range(start)):
            un, ud = self.upper(i)
            gap = rn * ud - un * rd  # reach - u = gap / (rd ud)
            if gap <= 0:
                return True
            if gap << SQRT_BOUND_BITS > rd * ud:
                return False
        return False


def selfmap_at(
    g: ProjMat, center: ProjPoint, attract: ProjPoint, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat, radii: Ladder
) -> tuple[ProjPoint, Enclosure | None]:
    """(g center, the enclosure of the first passing radius of the ladder
    `radii`, or None).  B(center, t) passes when d_low =
    d(center, repel) - t - beta bounds its distance from the true repelling
    hyperplane with Lipschitz bound L = kappa / d_low^2 < 1, g moves center
    by less than (1 - L) t, and the ball lies in the closed eps-ball around
    attract.  A radius with d_low <= 0 ends the search.  The image, move
    and distances are computed once for all radii, and the radii up to the
    move are skipped, as 0 <= L < 1 makes (1 - L)^2 t^2 <= t^2: they fail
    the move test, and `Ladder.ends_below` tells whether one would have
    ended the search.  Every comparison is on integer pairs; Fractions are
    built only for the numbers an enclosure records."""
    place = g.place
    gc = apply(g, center)
    move_sq = dist_sq(gc, center, place)
    mn, md = move_sq.as_integer_ratio()
    ln, ld = sqrt_lower_pair(*dist_to_hyperplane_sq_pair(center, repel, place))
    bn, bd = sqrt_upper_pair(*repel_err_sq.as_integer_ratio())
    rn, rd = ln * bd - bn * ld, ld * bd  # reach = d(center, repel) - beta
    start = radii.above(mn, md)
    if radii.ends_below(start, rn, rd):
        return gc, None
    kn, kd = sqrt_upper_pair(*gap_sq_hi.as_integer_ratio())
    near = None
    for i in range(start, len(radii.rungs)):
        un, ud = radii.upper(i)
        dn, dd = rn * ud - un * rd, rd * ud  # d_low
        if dn <= 0:
            break
        low_n, low_d = dn * dn, dd * dd
        lip_d = kd * low_n  # L = kn low_d / lip_d
        slack = lip_d - kn * low_d  # 1 - L = slack / lip_d
        if slack <= 0:
            continue  # L >= 1
        tn, td = radii.rungs[i]
        if mn * lip_d * lip_d * td < slack * slack * tn * md:
            if near is None:
                near = dist_sq_pair(center, attract, place)
            if cmp_sqrt_sum(near, (tn, td), epsilon_sq.as_integer_ratio()) <= 0:
                lip_sq = Fraction(kn * low_d, lip_d) ** 2
                return gc, Enclosure(Ball(center, Fraction(tn, td)), lip_sq, Fraction(low_n, low_d), move_sq)
    return gc, None


def evidence_outside(cert, attract: ProjSet, repel: ProjSet, place: Place) -> str | None:
    """Why a contraction certificate's evidence is not certified inside the
    declared sets, or None when it is: the closed image ball
    B(cert.attract, image radius) must lie in `attract`, and the
    certificate's repelling neighborhood `cert.repel_set` in `repel`."""
    image = ProjSet((Ball(cert.attract, cert.image_radius_sq),))
    if not set_contains(attract, image, place, closed_inner=True):
        return "image ball not certified inside the declared attracting set"
    if not set_contains(repel, ProjSet((cert.repel_set,)), place):
        return "evidence repelling set not certified inside the declared one"
    return None
