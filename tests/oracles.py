"""Brute-force reference computations shared by the test modules."""

import itertools
from fractions import Fraction

from freecert.pingpong import OracleResult, word_string
from freecert.projective import component_member
from freecert.rootiso import ROOT_REL_BITS, Interval, count_roots, peval, sturm_sequence
from freecert.synthesis import EPS_SQ_FLOOR_BITS
from freecert.tree import DEFAULT_RADIUS, FiniteGroup, TreeError


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
    cap = 2 * radius + 2 * (w.length + 1)
    for v in tree.ball(tree.base_vertex("A"), radius):
        d = tree.distance(v, tree.act(w, v), cap=cap)
        if best is None or d < best:
            best = d
            if best == 0:
                break
    return best


def shadow_member(prefix_vertex, shadow, radius_budget: int = DEFAULT_RADIUS) -> bool:
    """Whether the geodesic from the shadow's basepoint through the given
    vertex passes through the shadow's gate y."""
    tree = shadow.tree
    try:
        d_xw = tree.distance(shadow.x, prefix_vertex, cap=radius_budget)
        d_xy = tree.distance(shadow.x, shadow.y, cap=radius_budget)
        d_yw = tree.distance(shadow.y, prefix_vertex, cap=radius_budget)
    except TreeError:
        raise TreeError("expand further: prefix outside the expanded region") from None
    return d_xy + d_yw == d_xw


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


def interval_power(iv: Interval, n: int) -> Interval:
    out = Interval(Fraction(1), Fraction(1))
    for _ in range(n):
        out = out * iv
    return out


def set_member(p, s, place) -> bool:
    """Exact membership in an open set; a union is a disjunction."""
    return any(component_member(p, c, place) for c in s.components)


def fraction_matmul(a, b) -> tuple:
    """Entry-wise Fraction product of two square row tuples (reference for
    `ProjMat.__matmul__`)."""
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)) for i in range(n))


def sturm_refine(sf: list, a, b) -> tuple:
    """Bisection of the one root of sf inside (a, b) that asks the Sturm
    count which half holds it (reference for `rootiso._refine`)."""
    seq = sturm_sequence(sf)
    scale = Fraction(1, 2**ROOT_REL_BITS)
    while a <= 0 or (b - a) > a * scale:
        mid = (a + b) / 2
        if peval(sf, mid) == 0:
            return mid, mid
        if count_roots(seq, a, mid) == 1:
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


def freeness_dfs(elements: list, max_len: int, names: list[str] | None = None) -> OracleResult:
    """Iterative-deepening search of every nonempty reduced word of length
    <= max_len, in shortlex order with positives before inverses, for one
    that multiplies out to the identity (reference for
    `pingpong.freeness_oracle`)."""
    k = len(elements)
    if names is None:
        names = [f"g{i}" for i in range(k)]
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
            return OracleResult("relation", w, word_string(w, names))
    return OracleResult("no-relation")
