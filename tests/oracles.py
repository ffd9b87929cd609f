"""Brute-force reference computations shared by the test modules."""

import itertools


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
