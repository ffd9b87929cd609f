"""The certified inequalities, each written once.

The searches in `dynamics`, `pingpong` and `synthesis` propose candidates
and decide by these predicates; `certfmt.verify` re-checks a claim by
calling the same ones on its parsed numbers.  Only `scalar` and
`projective` are imported: exact arithmetic, the metric and set algebra.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

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
from .scalar import Place, Rat, cmp_sqrt_sum, sqrt_lower, sqrt_upper


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


@dataclass(frozen=True)
class Enclosure:
    """Ball certified to contain exactly one fixed point of the map.

    Checked facts: the map is lipschitz_sq^(1/2)-Lipschitz (< 1) on the
    closed ball, maps it strictly into itself, and the ball sits inside
    the attracting set; region_low_sq is the certified squared lower
    bound on distances from the ball to the true repelling hyperplane.
    `selfmap_at` derives all three numbers, and `verify` requires the
    stored ones to equal them.
    """

    ball: Ball
    lipschitz_sq: Rat
    region_low_sq: Rat
    move_sq: Rat  # d(g.center, center)^2


def selfmap_radii(radii_sq) -> tuple[tuple[Rat, Rat, Rat], ...]:
    """(t^2, u, the largest u so far) for each squared radius in the given
    ascending order, with u = sqrt_upper(t^2): what `selfmap_at` reads."""
    out, top = [], None
    for t_sq in radii_sq:
        u = sqrt_upper(t_sq)
        top = u if top is None or u > top else top
        out.append((t_sq, u, top))
    return tuple(out)


def selfmap_at(
    g: ProjMat, center: ProjPoint, attract: ProjPoint, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat, radii
) -> tuple[ProjPoint, Enclosure | None]:
    """(g center, the enclosure of the first passing radius in the ascending
    `selfmap_radii` radii, or None).  B(center, t) passes when d_low =
    d(center, repel) - t - beta bounds its distance from the true repelling
    hyperplane with Lipschitz bound L = kappa / d_low^2 < 1, g moves center
    by less than (1 - L) t, and the ball lies in the closed eps-ball around
    attract.  A radius with d_low <= 0 ends the search.  The image, move
    and distances are computed once for all radii, and the radii up to the
    move are skipped, as 0 <= L < 1 makes (1 - L)^2 t^2 <= t^2: they fail
    the move test, and the largest bound u among them tells whether one
    would have ended the search."""
    place = g.place
    gc = apply(g, center)
    move_sq = dist_sq(gc, center, place)
    reach = sqrt_lower(dist_to_hyperplane_sq(center, repel, place)) - sqrt_upper(repel_err_sq)
    start = bisect_right(radii, move_sq, key=itemgetter(0))
    if start and reach <= radii[start - 1][2]:
        return gc, None
    u_kappa = sqrt_upper(gap_sq_hi)
    near_sq = None
    for t_sq, u_t, _ in radii[start:]:
        d_low = reach - u_t
        if d_low <= 0:
            break
        low_sq = d_low * d_low
        if u_kappa >= low_sq:
            continue  # L >= 1
        lip = u_kappa / low_sq
        if move_sq < (1 - lip) ** 2 * t_sq:
            if near_sq is None:
                near_sq = dist_sq(center, attract, place)
            if cmp_sqrt_sum(near_sq, t_sq, epsilon_sq) <= 0:
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
