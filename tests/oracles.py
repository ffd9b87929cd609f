"""Brute-force reference computations shared by the test modules."""

import itertools

from freecert.tree import DEFAULT_RADIUS, TreeError


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


def distance_bfs(tree, u, v, cap: int = 64) -> int:
    """Independent breadth-first distance (oracle for `BassSerreTree.distance`)."""
    if u == v:
        return 0
    depth = {u: 0}
    frontier = [u]
    for d in range(1, cap + 1):
        nxt = []
        for x in frontier:
            for y in tree.neighbors(x):
                if y == v:
                    return d
                if y not in depth:
                    depth[y] = d
                    nxt.append(y)
        frontier = nxt
    raise TreeError("expand further: distance exceeds the radius budget")


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
