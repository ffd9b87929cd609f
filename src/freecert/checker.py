"""The certified inequalities, each written once.

The searches in `dynamics`, `pingpong` and `synthesis` propose candidates
and decide by these predicates; `certfmt.verify` re-checks a claim by
calling the same ones on its parsed numbers.  Only `scalar` and
`projective` are imported: exact arithmetic, the metric and set algebra.
"""

from __future__ import annotations

from bisect import bisect_right

from .projective import (
    Ball,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    ProjSet,
    apply,
    dist_sq,
    dist_sq_pair,
    dist_to_hyperplane_sq,
    dist_to_hyperplane_sq_pair,
    set_contains,
)
from .scalar import SQRT_BOUND_BITS, Place, Rat, Record, cmp_sqrt_sum, sqrt_lower, sqrt_upper


def image_radius_bound(gap_sq_hi: Rat, epsilon_sq: Rat, attract_err_sq: Rat | None, repel_err_sq: Rat | None) -> Rat | None:
    """Certified upper bound B = kappa/(eps - beta) + alpha on the radius of
    the image of {d(., repel) >= eps}, with kappa^2 <= gap_sq_hi, alpha^2 =
    attract_err_sq and beta^2 = repel_err_sq; None unless B <= eps (so also
    for a None error, meaning no certified direction bound)."""
    if attract_err_sq is None or repel_err_sq is None:
        return None
    l_eps = sqrt_lower(epsilon_sq)
    denom = l_eps - sqrt_upper(repel_err_sq)
    if denom <= 0:
        return None
    bound = sqrt_upper(gap_sq_hi) / denom + sqrt_upper(attract_err_sq)
    return bound if bound <= l_eps else None


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


_SQRT_SLACK = Rat(1, 1 << SQRT_BOUND_BITS)  # sqrt_upper(q) - sqrt(q) is at most this


class Ladder(Record):
    """Ascending squared radii t^2 for `selfmap_at`, each with its bound
    u = sqrt_upper(t^2), computed the first time a test reads it: a test
    reads about one rung, and a ladder serves every test of a search."""

    __slots__ = ("radii_sq", "_upper")

    def __init__(self, radii_sq) -> None:
        Record.__init__(self, tuple(radii_sq))
        object.__setattr__(self, "_upper", [None] * len(self.radii_sq))

    def upper(self, i: int) -> Rat:
        u = self._upper[i]
        if u is None:
            u = self._upper[i] = sqrt_upper(self.radii_sq[i])
        return u

    def ends_below(self, start: int, reach: Rat) -> bool:
        """Whether some rung below `start` has u >= reach.  The rungs
        ascend, so every u below rung i is at most sqrt(t_i^2) + 2^-40 <=
        u_i + 2^-40: the scan down from rung start - 1 stops at the first
        rung whose u is more than 2^-40 under reach."""
        for i in reversed(range(start)):
            u = self.upper(i)
            if reach <= u:
                return True
            if reach - u > _SQRT_SLACK:
                return False
        return False


def selfmap_radii(radii_sq) -> Ladder:
    """The ladder `selfmap_at` reads, of squared radii in ascending order."""
    return Ladder(radii_sq)


def selfmap_at(
    g: ProjMat, center: ProjPoint, attract: ProjPoint, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat, radii: Ladder
) -> tuple[ProjPoint, Enclosure | None]:
    """(g center, the enclosure of the first passing radius in the ascending
    `selfmap_radii` radii, or None).  B(center, t) passes when d_low =
    d(center, repel) - t - beta bounds its distance from the true repelling
    hyperplane with Lipschitz bound L = kappa / d_low^2 < 1, g moves center
    by less than (1 - L) t, and the ball lies in the closed eps-ball around
    attract.  A radius with d_low <= 0 ends the search.  The image, move
    and distances are computed once for all radii, and the radii up to the
    move are skipped, as 0 <= L < 1 makes (1 - L)^2 t^2 <= t^2: they fail
    the move test, and `Ladder.ends_below` tells whether one would have
    ended the search."""
    place = g.place
    gc = apply(g, center)
    move_sq = dist_sq(gc, center, place)
    reach = sqrt_lower(dist_to_hyperplane_sq(center, repel, place)) - sqrt_upper(repel_err_sq)
    rungs = radii.radii_sq
    start = bisect_right(rungs, move_sq)
    if radii.ends_below(start, reach):
        return gc, None
    u_kappa = sqrt_upper(gap_sq_hi)
    near = None
    for i in range(start, len(rungs)):
        d_low = reach - radii.upper(i)
        if d_low <= 0:
            break
        low_sq = d_low * d_low
        if u_kappa >= low_sq:
            continue  # L >= 1
        lip = u_kappa / low_sq
        t_sq = rungs[i]
        if move_sq < (1 - lip) ** 2 * t_sq:
            if near is None:
                near = dist_sq_pair(center, attract, place)
            if cmp_sqrt_sum(near, t_sq.as_integer_ratio(), epsilon_sq.as_integer_ratio()) <= 0:
                return gc, Enclosure(Ball(center, t_sq), lip * lip, low_sq, move_sq)
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
