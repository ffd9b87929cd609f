"""Output checks against what each generated problem guarantees.

These run after the timed loop, on the certificate bytes the program
wrote.  They use independent arithmetic (sympy's Smith normal form, a
brute-force core of H, closed-form ball sizes), never freecert's own
code.  Each check returns None when the output agrees, else a reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from workloads import det

DECIDED = ("yes", "no", "certified", "refuted", "ok", "no-relation", "relation")


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _padic_profile(expect: dict, result: dict) -> str | None:
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    p = expect["p"]
    snf = smith_normal_form(Matrix(expect["matrix"]), domain=ZZ)
    exps = sorted(_valuation(abs(int(snf[i, i])), p) for i in range(snf.rows))
    want = [Fraction(1, p ** (2 * e)) for e in exps]
    got = [(Fraction(v["lo"]), Fraction(v["hi"])) for v in result["values_sq"]]
    if got != [(w, w) for w in want]:
        return f"p-adic profile {got} differs from the Smith form valuations {exps}"
    return None


def _arch_profile(expect: dict, result: dict) -> str | None:
    m = [[Fraction(x) for x in r] for r in expect["matrix"]]
    det_sq = det(m) ** 2
    trace = sum(x * x for r in m for x in r)
    lo = [Fraction(v["lo"]) for v in result["values_sq"]]
    hi = [Fraction(v["hi"]) for v in result["values_sq"]]
    prod_lo, prod_hi = Fraction(1), Fraction(1)
    for a, b in zip(lo, hi):
        prod_lo *= a
        prod_hi *= b
    if len(lo) != len(m) or not prod_lo <= det_sq <= prod_hi:
        return "arch profile enclosures do not bracket det(g)^2"
    if not sum(lo) <= trace <= sum(hi):
        return "arch profile enclosures do not bracket tr(g^T g)"
    return None


def brute_force_core(expect: dict) -> list[int]:
    """Largest subgroup K of the cyclic H whose images are normal in both
    factors, by trying every subset of H."""
    m = expect["m"]
    best: tuple[int, ...] = (0,)
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            if 0 not in subset or any((x + y) % m not in subset for x in subset for y in subset):
                continue
            if all(_normal_image(expect[f"table_{t}"], expect[f"embed_{t}"], subset) for t in ("a", "b")):
                if len(subset) > len(best):
                    best = subset
    return sorted(best)


def _normal_image(table, embed, subset) -> bool:
    image = {embed[x] for x in subset}
    n = len(table)
    inverse = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    return all(table[table[g][k]][inverse[g]] in image for g in range(n) for k in image)


def check_output(expect: dict, cert: dict) -> str | None:
    """Compare one certificate with its problem's construction guarantee."""
    result = cert.get("result", {})
    if cert.get("verdict") == "certified" and result.get("oracle") == "relation":
        return "certified ping-pong tuple but the oracle found a relation"
    kind = expect.get("type")
    if kind is None:
        return None
    if kind == "padic-profile":
        return _padic_profile(expect, result)
    if kind == "arch-profile":
        return _arch_profile(expect, result)
    if kind == "free":
        if "oracle" in result and result["oracle"] != "no-relation":
            return f"Sanov generators are free, oracle said {result['oracle']}"
        return None
    if kind == "hyperbolic":
        if result.get("kind") != "hyperbolic" or result.get("translation_length") != expect["translation_length"]:
            return f"expected hyperbolic of translation length {expect['translation_length']}, got {result}"
        return None
    if kind == "syllables":
        if len(result.get("syllables", [])) != expect["count"]:
            return f"expected {expect['count']} syllables in the normal form"
        return None
    if kind == "ball":
        if result.get("count") != expect["count"]:
            return f"ball has {result.get('count')} vertices, expected {expect['count']}"
        return None
    if kind == "kernel":
        want = brute_force_core(expect)
        if result.get("elements") != want:
            return f"kernel {result.get('elements')} differs from the brute-force core {want}"
        return None
    raise ValueError(f"unknown expectation {kind!r}")
