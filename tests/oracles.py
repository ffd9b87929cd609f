"""Brute-force reference computations shared by the test modules."""

import itertools
from fractions import Fraction
from math import isqrt

from freecert.checker import Enclosure
from freecert.dynamics import ITER_BUDGET
from freecert.pingpong import OracleResult
from freecert.projective import Ball, ProjMat, ProjPoint, component_member, dot, wedge
from freecert.rootiso import ROOT_REL_BITS, Interval, cauchy_bound, point, ptrim
from freecert.scalar import int_valuation, sqrt_lower, sqrt_upper, word_string
from freecert.synthesis import EPS_SQ_FLOOR_BITS
from freecert.tree import DEFAULT_RADIUS, BassSerreTree, FiniteGroup, TreeError


def sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(q) <= hi, 2^-bits apart, for q >= 0: tighter
    than the package's `sqrt_lower` and `sqrt_upper` when bits exceeds
    SQRT_BOUND_BITS."""
    n, d = q.numerator, q.denominator
    r = isqrt((n * d) << (2 * bits))
    return Fraction(r, d << bits), Fraction(r + 1, d << bits)


def subgroup_closure(group, gens) -> frozenset:
    out = {group.identity} | set(gens)
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for y in list(out):
                z = group.mul(x, y)
                if z not in out:
                    out.add(z)
                    changed = True
            if group.inv(x) not in out:
                out.add(group.inv(x))
                changed = True
    return frozenset(out)


def all_subgroups(group) -> list[frozenset]:
    """Every subgroup of a finite group, by closing every subset of its elements."""
    subs = {frozenset([group.identity])}
    elems = list(range(group.order))
    for r in range(1, group.order + 1):
        for combo in itertools.combinations(elems, r):
            subs.add(subgroup_closure(group, combo))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def geodesic_bfs(tree, u, v, cap: int = 64) -> list:
    """Breadth-first path from u to v over the lazily expanded tree
    (reference for `BassSerreTree.geodesic` and `distance`)."""
    if u == v:
        return [u]
    parent = {u: u}
    frontier = [u]
    for _ in range(cap):
        nxt = []
        for x in frontier:
            for y in tree.neighbors(x):
                if y not in parent:
                    parent[y] = x
                    if y == v:
                        path = [y]
                        while path[-1] != u:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(y)
        frontier = nxt
    raise TreeError("expand further: path exceeds the radius budget")


def min_displacement(tree, w, radius: int = DEFAULT_RADIUS) -> int:
    """Brute-force displacement minimum over the ball (oracle for classify)."""
    best = None
    for v in tree.ball(tree.base_vertex("A"), radius):
        d = tree.distance(v, tree.act(w, v))
        if best is None or d < best:
            best = d
            if best == 0:
                break
    return best


def shadow_member(prefix_vertex, shadow) -> bool:
    """Whether the geodesic from the shadow's basepoint through the given
    vertex passes through the shadow's gate y."""
    tree = shadow.tree
    return tree.distance(shadow.x, shadow.y) + tree.distance(shadow.y, prefix_vertex) == tree.distance(shadow.x, prefix_vertex)


def group_from_permutations(gens: list[tuple[int, ...]]) -> FiniteGroup:
    """Closure of permutation generators (tuples mapping i -> perm[i]),
    elements indexed in sorted order."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(deg))
                if q not in seen:
                    seen.add(q)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    elems.sort()
    index = {p: i for i, p in enumerate(elems)}
    return FiniteGroup(tuple(tuple(index[tuple(p[q[i]] for i in range(deg))] for q in elems) for p in elems))


def group_table_scan(table) -> tuple[int, tuple[int, ...]]:
    """The identity and inverses of a multiplication table, or the
    TreeError of its first malformed row, missing inverse or failing
    triple, by element-wise scans (reference for the row checks of
    `FiniteGroup`)."""
    tab = tuple(tuple(r) for r in table)
    n = len(tab)
    for i, row in enumerate(tab):
        if len(row) != n or any(type(x) is not int or not 0 <= x < n for x in row):
            raise TreeError(f"row {i} of the multiplication table is malformed")
    ident = next((e for e in range(n) if all(tab[e][x] == x and tab[x][e] == x for x in range(n))), None)
    if ident is None:
        raise TreeError("multiplication table has no identity")
    inv = []
    for x in range(n):
        xi = next((y for y in range(n) if tab[x][y] == ident and tab[y][x] == ident), None)
        if xi is None:
            raise TreeError(f"element {x} has no inverse")
        inv.append(xi)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                    raise TreeError(f"associativity fails at ({a}, {b}, {c})")
    return ident, tuple(inv)


def embedding_scan(group_a, group_b, group_h, embed_a, embed_b) -> None:
    """The TreeError of the first embedding of H that is not injective or
    not a homomorphism, at its first failing pair, by element-wise scans
    (reference for the row checks of `AmalgamData`)."""
    for tag, grp, emb in (("A", group_a, embed_a), ("B", group_b, embed_b)):
        emb = tuple(emb)
        if any(type(x) is not int for x in emb):
            raise TreeError(f"embedding into {tag} has an entry that is not an integer")
        if len(emb) != group_h.order or len(set(emb)) != len(emb):
            raise TreeError(f"embedding into {tag} is not injective")
        for x in range(group_h.order):
            for y in range(group_h.order):
                if grp.mul(emb[x], emb[y]) != emb[group_h.mul(x, y)]:
                    raise TreeError(f"embedding into {tag} is not a homomorphism at ({x}, {y})")


def ball_rows_bfs(amalgam, radius: int) -> list[list]:
    """The rows of `tree.ball_rows`, read off the vertices of the
    breadth-first `BassSerreTree.ball` and their `neighbors` (reference
    for its index arithmetic)."""
    tree = BassSerreTree(amalgam)
    depth = tree.ball(tree.base_vertex("A"), radius)
    rows = {v: [None, None] for v in depth}
    for i, (vertex, d) in enumerate(depth.items()):
        if d == radius:
            continue
        around = tree.neighbors(vertex)
        rows[vertex].append(len(around))
        tag, key = vertex
        for child in around:
            if depth[child] > d:  # not the parent
                rows[child] = [i, child[1][-1][1] if len(child[1]) > len(key) else amalgam.factor(tag).identity]
    return list(rows.values())


def coset_index(amalgam, tag: str) -> int:
    """|A:H| or |B:H|."""
    return amalgam.factor(tag).order // amalgam.group_h.order


def higman_neumann_applicable(amalgam) -> bool:
    """The index condition (|A:H| - 1)(|B:H| - 1) >= 2."""
    return (coset_index(amalgam, "A") - 1) * (coset_index(amalgam, "B") - 1) >= 2


def pmul(p: list, q: list) -> list:
    """Product of coefficient lists, lowest degree first."""
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def interval_contains(iv: Interval, x) -> bool:
    return iv.lo <= x <= iv.hi


def interval_mul(a: Interval, b: Interval) -> Interval:
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(cands), max(cands))


def interval_divide(a: Interval, b: Interval) -> Interval:
    """a / b by the reciprocal of b (reference for `SingularProfile.gap_sq`)."""
    if b.lo <= 0 <= b.hi:
        raise ZeroDivisionError("interval division through zero")
    return interval_mul(a, Interval(Fraction(1) / b.hi, Fraction(1) / b.lo))


def interval_power(iv: Interval, n: int) -> Interval:
    out = Interval(Fraction(1), Fraction(1))
    for _ in range(n):
        out = interval_mul(out, iv)
    return out


def set_member(p, s, place) -> bool:
    """Exact membership in an open set; a union is a disjunction."""
    return any(component_member(p, c, place) for c in s.components)


def fraction_matmul(a, b) -> tuple:
    """Entry-wise Fraction product of two square row tuples (reference for
    `ProjMat.__matmul__`)."""
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# The projective metric over Fraction, on canonical representatives
# (references for the integer paths of `projective` and `checker`)
# ---------------------------------------------------------------------------


def canonical_rep(v) -> tuple:
    """Scale so the first nonzero coordinate equals 1 (unique per class)."""
    for c in v:
        if c != 0:
            return tuple(Fraction(x) / c for x in v)
    raise ValueError("zero vector has no projective class")


def fraction_view(x) -> tuple:
    """The Fraction view of a point or hyperplane, its canonical
    representative (first nonzero coordinate 1), or of a matrix, its
    rational entries row by row: the numbers a certificate prints."""
    if isinstance(x, ProjMat):
        rows, scale = x._integer_form
        return tuple(tuple(Fraction(c, scale) for c in r) for r in rows)
    return canonical_rep(x.coords)


def is_zero_vec(v) -> bool:
    return all(c == 0 for c in v)


def padic_valuation(x, p: int) -> int:
    """v_p(x) for nonzero rational x: x = p^v * (a/b) with p dividing neither a nor b."""
    if x == 0:
        raise ZeroDivisionError("valuation of zero undefined")
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def abs_value(x, place) -> Fraction:
    """|x| at the given place, an exact rational (p^-v in the p-adic case)."""
    if x == 0:
        return Fraction(0)
    if not place.is_padic:
        return abs(Fraction(x))
    v = padic_valuation(Fraction(x), place.prime)
    return Fraction(1, place.prime**v) if v >= 0 else Fraction(place.prime ** (-v))


def fraction_norm_sq(v, place) -> Fraction:
    """Squared standard norm: sum of squares, or (max_i |x_i|_p)^2."""
    if not place.is_padic:
        return sum((c * c for c in v), Fraction(0))
    return max((abs_value(c, place) for c in v), default=Fraction(0)) ** 2


def fraction_dist_sq(v, w, place) -> Fraction:
    """|v ^ w|^2 / (|v|^2 |w|^2) on rational representatives."""
    return fraction_norm_sq(wedge(v, w), place) / (fraction_norm_sq(v, place) * fraction_norm_sq(w, place))


def fraction_dist_to_hyperplane_sq(v, f, place) -> Fraction:
    """|f(v)|^2 / (|f|^2 |v|^2) on rational representatives."""
    return abs_value(dot(f, v), place) ** 2 / (fraction_norm_sq(f, place) * fraction_norm_sq(v, place))


def fraction_apply(g, v) -> tuple:
    """Canonical representative of g v, multiplied out over Fraction."""
    return canonical_rep(tuple(dot(r, v) for r in fraction_view(g)))


def fraction_kernel_intersection_point(h1, h2):
    """A point on ker f1 and ker f2 of P(Q^n), n >= 3: for equal planes
    the first nonzero (f_j, -f_i) on coordinates i < j, else by Fraction
    row reduction of the canonical covectors, whose reduced row echelon
    form, and so the solution, depends on the two planes only (reference
    for `projective._kernel_intersection_point`)."""
    n = h1.dim
    if h1 == h2:
        f = h1.coords
        for i in range(n):
            for j in range(i + 1, n):
                cand = [0] * n
                cand[i], cand[j] = f[j], -f[i]
                if any(cand):
                    return ProjPoint(tuple(cand))
    rows = [list(fraction_view(h1)), list(fraction_view(h2))]
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


def fraction_inverse(rows) -> tuple:
    """Gauss-Jordan inverse over Fraction (reference for `ProjMat.inverse`)."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def fraction_member(v, comp, place) -> bool:
    """Membership of the rational point [v] in an open ball or hyperplane
    neighborhood, over Fraction."""
    if isinstance(comp, Ball):
        return fraction_dist_sq(v, fraction_view(comp.center), place) < comp.radius_sq
    return fraction_dist_to_hyperplane_sq(v, fraction_view(comp.plane), place) < comp.radius_sq


def fraction_point_on_plane_near(v, f):
    """Canonical representative of the Euclidean foot v - (f.v / f.f) f on
    canonical representatives, or None (reference for
    `projective._point_on_plane_near`)."""
    fv, ff = dot(f, v), dot(f, f)
    foot = tuple(a - fv / ff * b for a, b in zip(v, f))
    return None if is_zero_vec(foot) else canonical_rep(foot)


def fraction_chord_witness(v, w, comps, place):
    """Canonical representative of the first point v + (k/64)(w - v) in both
    components, or None (reference for `projective._chord_witness`)."""
    if canonical_rep(v) == canonical_rep(w):
        return canonical_rep(v) if all(fraction_member(v, c, place) for c in comps) else None
    for k in range(65):
        t = Fraction(k, 64)
        cand = tuple(a + t * (b - a) for a, b in zip(v, w))
        if not is_zero_vec(cand) and all(fraction_member(cand, c, place) for c in comps):
            return canonical_rep(cand)
    return None


def fraction_cmp_sqrt_sum(a: Fraction, b: Fraction, c: Fraction) -> int:
    """Sign of sqrt(a) + sqrt(b) - sqrt(c) over Fraction, by squaring twice
    (reference for the integer `scalar.cmp_sqrt_sum`)."""
    t = c - a - b
    if t < 0:
        return 1
    s = 4 * a * b - t * t
    return (s > 0) - (s < 0)


def fraction_image_radius_bound(gap_sq_hi, epsilon_sq, attract_err_sq, repel_err_sq):
    """B = kappa/(eps - beta) + alpha over Fraction, or None unless B <= eps
    (reference for the integer-pair `checker.image_radius_bound`)."""
    if attract_err_sq is None or repel_err_sq is None:
        return None
    l_eps = sqrt_lower(epsilon_sq)
    denom = l_eps - sqrt_upper(repel_err_sq)
    if denom <= 0:
        return None
    bound = sqrt_upper(gap_sq_hi) / denom + sqrt_upper(attract_err_sq)
    return bound if bound <= l_eps else None


def fraction_rat_from(text):
    """A certificate's number read over Fraction, then written back and
    compared with its text (reference for `certfmt.pair_from`)."""
    try:
        num, slash, den = text.partition("/")
        x = Fraction(int(num), int(den)) if slash else int(num)
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational literal {text!r}") from None
    if str(x) != text:
        raise ValueError(f"rational {text!r} is not written as certificates write {x}")
    return x


def fraction_selfmap_at(g, center, attract, repel, repel_err_sq, gap_sq_hi, epsilon_sq, radii_sq):
    """The self-map test over Fraction on canonical representatives, every
    radius in turn (reference for `checker.selfmap_at`)."""
    place = g.place
    c = fraction_view(center)
    gc = fraction_apply(g, c)
    move_sq = fraction_dist_sq(gc, c, place)
    l_d = sqrt_lower(fraction_dist_to_hyperplane_sq(c, fraction_view(repel), place))
    u_kappa = sqrt_upper(gap_sq_hi)
    u_beta = sqrt_upper(repel_err_sq)
    for t_sq in radii_sq:
        d_low = l_d - sqrt_upper(t_sq) - u_beta
        if d_low <= 0:
            break
        lip = u_kappa / (d_low * d_low)
        if lip >= 1:
            continue
        if move_sq < (1 - lip) ** 2 * t_sq and fraction_cmp_sqrt_sum(fraction_dist_sq(c, fraction_view(attract), place), t_sq, epsilon_sq) <= 0:
            return ProjPoint(gc), Enclosure(Ball(center, t_sq), lip * lip, d_low * d_low, move_sq)
    return ProjPoint(gc), None


# ---------------------------------------------------------------------------
# Archimedean singular data over Fraction (references for the integer
# paths of `rootiso` and `dynamics`)
# ---------------------------------------------------------------------------


def peval(p: list, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _fraction_divmod(p: list, q: list) -> tuple[list, list]:
    """(quotient, remainder) of p by q over Q (q nonzero)."""
    p, q = ptrim([Fraction(c) for c in p]), ptrim([Fraction(c) for c in q])
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        out[shift] = f
        for i, c in enumerate(q):
            p[i + shift] -= f * c
        p = ptrim(p[:-1])
    return ptrim(out), p


def fraction_pquo(p: list, q: list) -> list:
    return _fraction_divmod(p, q)[0]


def fraction_pgcd(p: list, q: list) -> list:
    """Monic gcd over Q."""
    a, b = ptrim(list(p)), ptrim(list(q))
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def fraction_pderiv(p: list) -> list:
    return [c * i for i, c in enumerate(p)][1:]


def fraction_squarefree_part(p: list) -> list:
    p = ptrim([Fraction(c) for c in p])
    g = fraction_pgcd(p, fraction_pderiv(p))
    return p if len(g) < 2 else fraction_pquo(p, g)


def fraction_sturm_sequence(p: list) -> list:
    seq = [ptrim([Fraction(c) for c in p]), ptrim(fraction_pderiv(p))]
    while seq[-1]:
        seq.append([-c for c in _fraction_divmod(seq[-2], seq[-1])[1]])
    return seq[:-1]


def fraction_count_roots(seq: list, a, b) -> int:
    """Distinct real roots in (a, b] by Sturm's theorem, evaluated over Fraction."""

    def variations(x) -> int:
        signs = [v > 0 for v in (peval(p, x) for p in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def sympy_rational_roots(p: list) -> dict:
    """{root: multiplicity} for the rational roots of p over Q, read off
    the linear factors of sympy's factorization: complete, with no
    trial-division cap (reference for the rational roots `rootiso`
    splits off)."""
    import sympy

    x = sympy.Symbol("x")
    factors = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x, domain="QQ").factor_list()[1]
    out = {}
    for f, m in factors:
        if f.degree() == 1:
            c1, c0 = f.all_coeffs()
            r = -c0 / c1
            out[Fraction(int(r.p), int(r.q))] = m
    return out


def _fraction_multiplicity_in(full: list, sf: list, lo, hi) -> int:
    m, q = 0, ptrim(list(full))
    g = fraction_pgcd(q, sf)
    while fraction_count_roots(fraction_sturm_sequence(g), lo, hi) - (peval(g, hi) == 0) == 1:
        m += 1
        q = fraction_pquo(q, g)
        g = fraction_pgcd(q, sf)
        if len(g) < 2:
            break
    return max(m, 1)


def fraction_isolate_positive_roots(p: list) -> list:
    """sympy's rational roots split off, then Sturm isolation and
    bisection over Fraction, with Sturm-count refinement (reference for
    `rootiso.isolate_positive_roots`)."""
    p = ptrim([Fraction(c) for c in p])
    if len(p) < 2:
        return []
    out, work = [], list(p)
    for r, m in sympy_rational_roots(p).items():
        if r > 0:
            out.append((point(r), m))
            for _ in range(m):
                work = fraction_pquo(work, [-r, Fraction(1)])
    sf = fraction_squarefree_part(work)
    if len(sf) >= 2:
        seq = fraction_sturm_sequence(sf)
        bound = cauchy_bound(sf)
        stack, isolated = [(Fraction(0), bound, fraction_count_roots(seq, Fraction(0), bound))], []
        while stack:
            a, b, cnt = stack.pop()
            if cnt == 1:
                isolated.append((a, b))
            elif cnt > 1:
                mid = (a + b) / 2
                lo_cnt = fraction_count_roots(seq, a, mid)
                stack += [(a, mid, lo_cnt), (mid, b, cnt - lo_cnt)]
        for a, b in isolated:
            lo, hi = sturm_refine(sf, a, b)
            out.append((Interval(lo, hi), _fraction_multiplicity_in(work, sf, lo, hi)))
    return sorted(out, key=lambda t: (t[0].lo, t[0].hi))


def fraction_gram(vectors) -> list:
    return [[dot(v, w) for w in vectors] for v in vectors]


def fraction_charpoly_gram(g) -> list:
    """Characteristic polynomial of g^T g by Faddeev-LeVerrier over
    Fraction, lowest degree first (reference for `dynamics._charpoly_gram`)."""
    n = g.dim
    s = fraction_gram(list(zip(*fraction_view(g))))
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        t = [[m[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        m = [[sum((s[i][x] * t[x][j] for x in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum((m[i][i] for i in range(n)), Fraction(0)) / k)
    return list(reversed(coeffs))


def fraction_power_direction(s_rows: list, lam2_hi) -> tuple:
    """Power iteration over Fraction on canonical representatives
    (reference for `dynamics._power_direction`)."""
    n = len(s_rows)
    best = (ProjPoint(tuple(Fraction(1 if i == 0 else 0) for i in range(n))), None)
    for j in range(n):
        start = tuple(s_rows[i][j] for i in range(n))
        if is_zero_vec(start):
            continue
        v = canonical_rep(start)
        for _ in range(ITER_BUDGET):
            sv = tuple(dot(row, v) for row in s_rows)
            if is_zero_vec(sv):
                break
            vv = dot(v, v)
            rho = dot(sv, v) / vv
            if rho > lam2_hi:
                res = tuple(a - rho * b for a, b in zip(sv, v))
                err = dot(res, res) / (vv * (rho - lam2_hi) ** 2)
                if best[1] is None or err < best[1]:
                    best = (ProjPoint(v), err)
                if err <= Fraction(1, 2**80):
                    return best
            nxt = canonical_rep(sv)
            if nxt == v:
                break
            v = nxt
    return best


def sturm_refine(sf: list, a, b) -> tuple:
    """Bisection of the one root of sf inside (a, b), irrational, that
    asks the Sturm count which half holds it (reference for
    `rootiso._refine`)."""
    seq = fraction_sturm_sequence(sf)
    scale = Fraction(1, 2**ROOT_REL_BITS)
    while a <= 0 or (b - a) > a * scale:
        mid = (a + b) / 2
        if fraction_count_roots(seq, a, mid) == 1:
            b = mid
        else:
            a = mid
    return a, b


def pow4_at_least_loop(x):
    """Smallest 4^-j >= x with j >= 1, or None (x must be < 1): the
    stepwise search the closed-form epsilon ladder replaced."""
    if x >= Fraction(1, 4):
        return Fraction(1, 4) if x <= Fraction(1, 4) else None
    q = Fraction(1, 4)
    best = None
    for _ in range(EPS_SQ_FLOOR_BITS // 2):
        if q >= x:
            best = q
            q /= 4
        else:
            break
    return best


def pow2_at_least_loop(x):
    """Smallest 2^-j >= x with j >= 1, or None (needs x <= 1/2): the
    stepwise search the closed-form epsilon ladder replaced."""
    if x <= 0 or x > Fraction(1, 2):
        return None
    q = Fraction(1, 2)
    best = None
    for _ in range(EPS_SQ_FLOOR_BITS):
        if q >= x:
            best = q
            q /= 2
        else:
            break
    return best


def freeness_dfs(elements: list, max_len: int, names: list[str]) -> OracleResult:
    """Iterative-deepening search of every nonempty reduced word of length
    <= max_len, in shortlex order with positives before inverses, for one
    that multiplies out to the identity (reference for
    `pingpong.freeness_oracle`)."""
    k = len(elements)
    letters = [(i, 1) for i in range(k)] + [(i, -1) for i in range(k)]
    values = [elements[i] if e > 0 else elements[i].inverse() for i, e in letters]

    def dfs(prefix: list[int], value, target_len: int):
        if len(prefix) == target_len:
            return tuple(letters[s] for s in prefix) if value.is_identity() else None
        for s, (i, e) in enumerate(letters):
            if prefix and letters[prefix[-1]] == (i, -e):
                continue  # not freely reduced
            found = dfs(prefix + [s], values[s] if value is None else value @ values[s], target_len)
            if found is not None:
                return found
        return None

    for length in range(1, max_len + 1):
        w = dfs([], None, length)
        if w is not None:
            return OracleResult("relation", word_string(w, names))
    return OracleResult("no-relation")
