"""The certified inequalities, each written once.

The searches in `dynamics`, `pingpong` and `synthesis` propose candidates
and decide by these predicates; `certfmt.verify` re-checks a claim by
calling the same ones on its parsed numbers.  Only `scalar` and
`projective` are imported: exact arithmetic, the metric and set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .projective import Ball, ProjHyperplane, ProjMat, ProjPoint, ProjSet, apply, dist_sq, dist_to_hyperplane_sq, set_contains
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
    return dist_to_hyperplane_sq(x, repel, place) > epsilon_sq and dist_sq(apply(g, x), attract, place) > epsilon_sq


def point_plane_far(point: ProjPoint, plane: ProjHyperplane, r_sq: Rat, place: Place) -> bool:
    """d(point, plane) >= r, exactly."""
    return dist_to_hyperplane_sq(point, plane, place) >= r_sq


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


def selfmap_at(
    g: ProjMat, center: ProjPoint, attract: ProjPoint, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat, radii_sq
) -> tuple[ProjPoint, Enclosure | None]:
    """(g center, the enclosure of the first passing radius in the ascending
    radii_sq, or None).  B(center, t) passes when d_low = d(center, repel)
    - t - beta bounds its distance from the true repelling hyperplane with
    Lipschitz bound L = kappa / d_low^2 < 1, g moves center by less than
    (1 - L) t, and the ball lies in the closed eps-ball around attract.
    The image, move and plane distance are computed once for all radii."""
    place = g.place
    gc = apply(g, center)
    move_sq = dist_sq(gc, center, place)
    l_d = sqrt_lower(dist_to_hyperplane_sq(center, repel, place))
    u_kappa = sqrt_upper(gap_sq_hi)
    u_beta = sqrt_upper(repel_err_sq)
    for t_sq in radii_sq:
        d_low = l_d - sqrt_upper(t_sq) - u_beta
        if d_low <= 0:
            break  # larger radii only make it worse
        lip = u_kappa / (d_low * d_low)
        if lip >= 1:
            continue
        if move_sq < (1 - lip) ** 2 * t_sq and cmp_sqrt_sum(dist_sq(center, attract, place), t_sq, epsilon_sq) <= 0:
            return gc, Enclosure(Ball(center, t_sq), lip * lip, d_low * d_low, move_sq)
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
