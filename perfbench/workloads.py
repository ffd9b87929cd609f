"""Seeded problem generators for the four benchmark workloads.

Each generator takes a seed and a round count and returns a deck: a
list of that many rounds, each round a list of `Request`s.  A round holds
one request per stratum of the workload (a subop, a dimension, a factor
family), so every round has the same mix.  The seed picks the entries
inside each stratum and rotates which place or parameter a stratum gets,
never the mix itself.  Rounds are generated in order from one random
stream, so a shorter deck of the same seed is a prefix of a longer one.

Nothing here imports freecert: the program only ever sees the generated
problem text.  `expect` records what the construction guarantees, for
the output checks in `checks.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

@dataclass
class Request:
    cmd: str  # analyze | pingpong | synthesize | tree
    label: str  # stratum, e.g. "analyze/very-proximal/3x3"
    text: str  # problem file
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exact matrix helpers
# ---------------------------------------------------------------------------


def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def det(a):
    """Exact determinant by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _diag(vals):
    n = len(vals)
    return [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def mat_literal(m) -> str:
    return "[" + ", ".join("[" + ", ".join(_fmt(x) for x in r) + "]" for r in m) + "]"


def _integral(m):
    """Scale a rational matrix to a primitive integer one (same projective map)."""
    den = 1
    for r in m:
        for x in r:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in r] for r in m]
    g = 0
    for r in ints:
        for x in r:
            g = gcd(g, x)
    return [[x // g for x in r] for r in ints]


PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _rotation(rng: random.Random, n: int):
    """Rational orthogonal matrix: one or two Pythagorean plane rotations."""
    out = _identity(n)
    planes = [(0, 1)] if n == 2 else rng.sample([(0, 1), (1, 2), (0, 2)], 2)
    for i, j in planes:
        a, b, c = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            a, b = b, a
        rot = [[Fraction(int(p == q)) for q in range(n)] for p in range(n)]
        rot[i][i], rot[i][j] = Fraction(a, c), Fraction(-b, c)
        rot[j][i], rot[j][j] = Fraction(b, c), Fraction(a, c)
        out = _mul(out, rot)
    return out, _transpose(out)


def _unimodular(rng: random.Random, n: int):
    """Integer matrix of determinant +-1 and its integer inverse."""
    u, ui = _identity(n), _identity(n)
    for _ in range(3 if n == 2 else 4):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        e = _identity(n)
        e[i][j] = t
        einv = _identity(n)
        einv[i][j] = -t
        u, ui = _mul(u, e), _mul(einv, ui)
    return u, ui


def _conjugate(rng: random.Random, place: str, n: int, d: Fraction):
    """r diag(d, 1, ...) r^-1 with r orthogonal (arch) or unimodular (p-adic)."""
    r, ri = _rotation(rng, n) if place == "arch" else _unimodular(rng, n)
    return _integral(_mul(_mul(r, _diag([d] + [1] * (n - 1))), ri))


def _random_int(rng: random.Random, n: int):
    """Nonsingular n x n matrix with entries in [-9, 9]."""
    while True:
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


# Gap of a conjugate relative to epsilon^2: clear yes cases, borderline
# ones and no cases for the contraction tests.
GAP_FACTORS = (Fraction(1, 8), Fraction(1, 8), Fraction(1, 2), Fraction(2))


def _contraction_factor(rng: random.Random, place: str, gap: Fraction, epsilon_sq: Fraction = Fraction(1, 25)) -> Fraction:
    """d with |1/d| at most gap * epsilon^2.  At a p-adic place d = p^-e,
    which is large in the p-adic norm."""
    target = epsilon_sq * gap
    if place == "arch":
        k = 2
        while Fraction(1, k * k) > target:
            k += 1
        return Fraction(k * k)
    p = int(place[2:])
    d = p
    while Fraction(1, d) > target:
        d *= p
    return Fraction(1, d * rng.choice((1, 1, 2 if p != 2 else 3)))


def _profile_expect(place: str, m) -> dict:
    if place == "arch":
        return {"type": "arch-profile", "matrix": [[_fmt(x) for x in r] for r in m]}
    return {"type": "padic-profile", "matrix": [[int(x) for x in r] for r in m], "p": int(place[2:])}


def _header(place: str, gens: dict) -> str:
    dim = len(next(iter(gens.values())))
    lines = ["format 1", f"place {place}", "", "[matrix-group]", f"dim {dim}"]
    lines += [f"gen {name} = {mat_literal(m)}" for name, m in gens.items()]
    return "\n".join(lines) + "\n\n[task]\n"


# ---------------------------------------------------------------------------
# matrix-small
# ---------------------------------------------------------------------------

PLACES_SMALL = ("arch", "p:2", "p:3", "p:5", "p:7")
# (epsilon^2, r^2) pairs with r > 2 eps, so no request is malformed.
PROXIMAL_PARAMS = (("1/25", "1/4"), ("1/100", "1/4"), ("1/64", "1/8"), ("1/36", "1/2"))


def _matrix_small_round(rng: random.Random, r: int, seed: int) -> list[Request]:
    out: list[Request] = []

    def turn(options, slot: int):
        """Discrete parameters rotate with the round, so any run of
        consecutive rounds meets each option equally often (within one)."""
        return options[(seed + r + slot) % len(options)]

    def conj(slot: int, place: str, dim: int, eps: str = "1/25"):
        return _conjugate(rng, place, dim, _contraction_factor(rng, place, turn(GAP_FACTORS, slot), Fraction(eps)))

    def analyze(slot: int, subop: str, dim: int, conjugate: bool, eps: str | None = None, r_sq: str | None = None) -> None:
        place = turn(PLACES_SMALL, slot)
        m = conj(slot, place, dim, eps or "1/25") if conjugate else _random_int(rng, dim)
        expect = _profile_expect(place, m) if subop == "profile" else {}
        extra = (f"epsilon-sq {eps}\n" if eps else "") + (f"r-sq {r_sq}\n" if r_sq else "")
        text = _header(place, {"g": m}) + f"op analyze\nsubop {subop}\nelement g\n{extra}"
        kind = "conj" if conjugate else "rand"
        out.append(Request("analyze", f"analyze/{subop}/{dim}x{dim}/{kind}", text, expect))

    analyze(0, "profile", 2, True)
    analyze(1, "profile", 3, False)
    analyze(2, "profile", 3, True)
    analyze(3, "contracting", 2, True, turn(("1/4", "1/16", "1/100"), 3))
    analyze(4, "contracting", 3, False, turn(("1/4", "1/16"), 4))
    analyze(5, "proximal", 2, True, *turn(PROXIMAL_PARAMS, 5))
    analyze(6, "proximal", 3, True, *turn(PROXIMAL_PARAMS, 6))
    analyze(7, "very-proximal", 2, True, *turn(PROXIMAL_PARAMS, 7))
    # 3x3 conjugates of diag(d, 1, 1): the inverse is not proximal, which
    # exercises the very-proximal refutation path (see README, known defect).
    analyze(8, "very-proximal", 3, True, *turn(PROXIMAL_PARAMS, 8))
    place = turn(PLACES_SMALL, 9)
    d = Fraction(turn((2, 3, 4), 9)) if place == "arch" else Fraction(1, int(place[2:]))
    g = _conjugate(rng, place, 2, d)
    out.append(
        Request(
            "analyze",
            "analyze/power-proximal/2x2",
            _header(place, {"g": g}) + "op analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\nmax-n 20\n",
        )
    )
    for slot, subop in ((10, "tuple"), (11, "simple-tuple")):
        place = turn(PLACES_SMALL, slot)
        a, b = conj(slot, place, 2), conj(slot + 1, place, 2)
        radius = turn(("radius-sq 1/10\n", "radius-sq 1/50\n", ""), slot)
        text = _header(place, {"a": a, "b": b}) + f"op pingpong\nsubop {subop}\nplayer g1 = a\nplayer g2 = b\n{radius}"
        out.append(Request("pingpong", f"pingpong/{subop}", text))
    place = turn(PLACES_SMALL, 12)
    a = conj(12, place, 2)
    b = _random_int(rng, 2) if turn((True, False), 12) else conj(13, place, 2)
    text = _header(place, {"a": a, "b": b}) + "op pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 6\n"
    out.append(Request("pingpong", "pingpong/oracle-6", text))

    # The synthesize shapes of the CLI tests, at the archimedean place.
    rot90 = [[0, -1], [1, 0]]
    d = turn((9, 16, 25), 13)
    text = _header("arch", {"g": _diag([d, 1]), "r": rot90}) + (
        "op synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 6\n"
    )
    out.append(Request("synthesize", "synthesize/conjugate-contract", text))
    d = turn((25, 36, 49), 14)
    text = _header("arch", {"g": _diag([d, 1]), "r": rot90, "s": [[1, -1], [1, 1]]}) + (
        f"op synthesize\nsubop b1b2b3\nelement g\nb1 r\nb2 r\nb3 s\nattract ball [1, 0] 1/{d}\nrepel ball [0, 1] 1/{d}\nk-max 32\n"
    )
    out.append(Request("synthesize", "synthesize/b1b2b3", text))
    d = turn((25, 49, 81), 15)
    h = _conjugate(rng, "arch", 2, Fraction(d))
    text = _header("arch", {"g": _diag([d, 1]), "h": h, "r": rot90}) + (
        "op synthesize\nsubop double-coset\nh1 g\nh2 h\ncoset-rep r\n"
    )
    out.append(Request("synthesize", "synthesize/double-coset", text))
    return out


def matrix_small(seed: int, n_rounds: int) -> list[list[Request]]:
    rng = random.Random(f"matrix-small/{seed}")
    return [_matrix_small_round(rng, r, seed) for r in range(n_rounds)]


# ---------------------------------------------------------------------------
# highdim
# ---------------------------------------------------------------------------

HIGHDIM_COMBOS = (
    ("arch", "profile"),
    ("p:2", "contracting"),
    ("p:3", "profile"),
    ("arch", "contracting"),
    ("p:2", "profile"),
    ("p:3", "contracting"),
)


# n = 8 is left out: one such request costs 1-3 s to solve and 1-2 s to
# verify, so a run held too few requests for steady percentiles.
# Verify time grows with n alone, so with one matrix per (n, combo) the
# verify median fell between the n = 5 and n = 6 groups and moved with
# their extremes; n = 6 has two matrices per combination, which puts the
# median inside its group.
HIGHDIM_SIZES = (4, 5, 6, 6, 7)


def highdim(seed: int, n_rounds: int) -> list[list[Request]]:
    """Each round is every (n, place, subop) once, n = 6 twice, with fresh
    matrices."""
    rng = random.Random(f"highdim/{seed}")
    deck = []
    for _ in range(n_rounds):
        rnd = []
        for n in HIGHDIM_SIZES:
            for place, subop in HIGHDIM_COMBOS:
                m = _random_int(rng, n)
                extra = "epsilon-sq 1/4\n" if subop == "contracting" else ""
                text = _header(place, {"g": m}) + f"op analyze\nsubop {subop}\nelement g\n{extra}"
                expect = _profile_expect(place, m) if subop == "profile" else {}
                rnd.append(Request("analyze", f"analyze/{subop}/{n}x{n}", text, expect))
        deck.append(rnd)
    return deck


# ---------------------------------------------------------------------------
# prodense
# ---------------------------------------------------------------------------

NORMAL_REPS = ("a a", "b b", "a b", "a b^-1")
COSET_LETTERS = ("a", "b", "a^-1", "b^-1")
PRODENSE_SUBOPS = ("truncated-prodense", "normal-proximal", "coset-pingpong", "oracle-8")


def prodense(seed: int, n_rounds: int) -> list[list[Request]]:
    """Each round is every (subop, k) once.  Class representatives follow a
    Latin square over (subop, k) that the seed shifts, and the seed picks
    the coset letters, so every round has the same mix of shapes."""
    rng = random.Random(f"prodense/{seed}")
    deck = []
    for r in range(n_rounds):
        rnd = []
        for j, subop in enumerate(PRODENSE_SUBOPS):
            for k in range(2, 6):
                head = _header("arch", {"a": [[1, k], [0, 1]], "b": [[1, 0], [k, 1]]})
                if subop == "oracle-8":
                    text = head + "op pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 8\n"
                    rnd.append(Request("pingpong", "pingpong/oracle-8", text, {"type": "free"}))
                    continue
                rep = NORMAL_REPS[(seed + r + j + k) % len(NORMAL_REPS)]
                body = f"op synthesize\nsubop {subop}\nnormal N = {rep}\n"
                expect = {}
                if subop == "truncated-prodense":
                    count = 1 + (seed + r + k) % 2
                    body += f"cosets N = {' | '.join(rng.sample(COSET_LETTERS, count))}\n"
                    expect = {"type": "free"}  # its oracle runs on elements of the free group
                elif subop == "coset-pingpong":
                    # One coset: with two, single requests take 14-38 s (N = b b),
                    # more than a whole run.
                    body += f"cosets N = {rng.choice(COSET_LETTERS)}\n"
                rnd.append(Request("synthesize", f"synthesize/{subop}", head + body, expect))
        deck.append(rnd)
    return deck


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


def _perm_group(gens):
    """Closure of permutation generators; table[i][j] = index of p_i o p_j."""
    deg = len(gens[0])
    elems = {tuple(range(deg))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(deg))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = sorted(elems)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(deg))] for q in perms] for p in perms]


SMALL_GROUPS = {
    "Z2": [(1, 0)],
    "Z3": [(1, 2, 0)],
    "Z4": [(1, 2, 3, 0)],
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S3": [(1, 0, 2), (0, 2, 1)],
    "Z6": [(1, 2, 3, 4, 5, 0)],
    "D4": [(1, 2, 3, 0), (3, 2, 1, 0)],
}


def _powers(table, x):
    out = [0]
    while True:
        nxt = table[out[-1]][x]
        if nxt == 0:
            return out
        out.append(nxt)


@dataclass
class Amalgam:
    table_a: list
    table_b: list
    m: int  # H is cyclic of order m
    embed_a: list
    embed_b: list

    def non_h(self, tag: str) -> list[str]:
        table, emb = (self.table_a, self.embed_a) if tag == "A" else (self.table_b, self.embed_b)
        return [f"{tag.lower()}{i}" for i in range(len(table)) if i not in emb]

    def index(self, tag: str) -> int:
        return len(self.table_a if tag == "A" else self.table_b) // self.m

    def header(self) -> str:
        h_table = [[(i + j) % self.m for j in range(self.m)] for i in range(self.m)]
        text = "format 1\n\n[amalgam]\n"
        text += _named_block("a", self.table_a) + _named_block("b", self.table_b) + _named_block("h", h_table)
        text += f"embed-a {' '.join(map(str, self.embed_a))}\nembed-b {' '.join(map(str, self.embed_b))}\n"
        return text + "\n[task]\nop tree\n"

    def growth(self) -> int:
        """Vertices gained per two steps away from the base vertex."""
        return (self.index("A") - 1) * (self.index("B") - 1)


def _named_block(tag: str, table) -> str:
    names = " ".join(f"{tag}{i}" for i in range(len(table)))
    rows = "\n".join(" ".join(map(str, r)) for r in table)
    return f"names-{tag} {names}\ntable-{tag}\n{rows}\n"


def _cyclic_amalgam(ga: str, gb: str, m: int, rng: random.Random) -> Amalgam | None:
    ta, tb = _perm_group(SMALL_GROUPS[ga]), _perm_group(SMALL_GROUPS[gb])
    xa = [x for x in range(len(ta)) if len(_powers(ta, x)) == m]
    xb = [x for x in range(len(tb)) if len(_powers(tb, x)) == m]
    if not xa or not xb or m >= len(ta) or m >= len(tb):
        return None
    return Amalgam(ta, tb, m, _powers(ta, rng.choice(xa)), _powers(tb, rng.choice(xb)))


# Ball of at most ~2^12 vertices per 24 steps, the Z/2*Z/3 growth at
# length 24, keeps the geodesic search in `classify` bounded per request.
GROWTH_BUDGET_LOG2 = 12


def _max_len(am: Amalgam) -> int:
    g = am.growth()
    if g <= 1:
        return 24
    steps = 0
    while g ** (steps + 1) <= 2**GROWTH_BUDGET_LOG2:
        steps += 1
    return max(8, min(24, 2 * steps))


def _ball_count(am: Amalgam, radius: int) -> int:
    total, level = 1, 1
    for d in range(1, radius + 1):
        if d == 1:
            level = am.index("A")
        else:
            level *= (am.index("B") if d % 2 == 0 else am.index("A")) - 1
        total += level
    return total


def _max_radius(am: Amalgam) -> int:
    r = 1
    while r < 8 and _ball_count(am, r + 1) <= 800:
        r += 1
    return r


def _random_amalgam(rng: random.Random, growth: int) -> Amalgam:
    while True:
        ga, gb = rng.choice(list(SMALL_GROUPS)), rng.choice(list(SMALL_GROUPS))
        am = _cyclic_amalgam(ga, gb, rng.choice((1, 2, 3)), rng)
        if am is not None and am.growth() == growth:
            return am


def _alternating(rng: random.Random, am: Amalgam, length: int) -> str:
    first = rng.choice("AB")
    other = "B" if first == "A" else "A"
    return " ".join(rng.choice(am.non_h(first if i % 2 == 0 else other)) for i in range(length))


def _core_expect(am: Amalgam) -> dict:
    return {
        "type": "kernel",
        "table_a": am.table_a,
        "table_b": am.table_b,
        "m": am.m,
        "embed_a": am.embed_a,
        "embed_b": am.embed_b,
    }


# Sizes spread over their range, each used equally often per family in
# every TREE_ROUNDS consecutive rounds from the first: the costs of classify
# and expand grow exponentially with them, so a run does whole multiples of
# TREE_ROUNDS.  Every round draws fresh letters and random amalgams.
TREE_OCCURRENCES = 24
TREE_ROUNDS = 4 * TREE_OCCURRENCES


def _spread(lo: int, hi: int, step: int) -> list[int]:
    """TREE_OCCURRENCES values from lo to hi in multiples of step."""
    n = TREE_OCCURRENCES - 1
    return [lo + step * round(i * (hi - lo) / (step * n)) for i in range(n + 1)]


def tree(seed: int, n_rounds: int) -> list[list[Request]]:
    """Round r uses family r % 4: Z/2*Z/3, S3*_{C2}S3, S3*_{A3}S3, or a fresh
    seeded amalgam of small permutation groups whose tree grows by 1, 2 or 4
    vertices per two steps.  Word lengths and radii are spread so that each
    family meets each size once per TREE_ROUNDS rounds; the seed picks the
    letters, the random amalgams and which occurrence gets which size."""
    rng = random.Random(f"tree/{seed}")
    fixed = [
        _cyclic_amalgam("Z2", "Z3", 1, rng),
        _cyclic_amalgam("S3", "S3", 2, rng),  # S3 *_{C2} S3
        _cyclic_amalgam("S3", "S3", 3, rng),  # S3 *_{A3} S3
    ]
    deck = []
    for r in range(n_rounds):
        family, q = r % 4, r // 4
        # The growth turns with the sizes below, so every TREE_ROUNDS rounds
        # pair the same growths with the same sizes.
        am = fixed[family] if family < 3 else _random_amalgam(rng, (1, 2, 4)[(seed + q) % 3])

        def pick(values, slot: int):
            return values[(seed + q + slot) % len(values)]

        head = am.header()
        rnd = []
        length = pick(_spread(8, 24, 1), 0)
        rnd.append(
            Request(
                "tree",
                "tree/normal-form",
                head + f"subop normal-form\nword {_alternating(rng, am, length)}\n",
                {"type": "syllables", "count": length},
            )
        )
        length = pick(_spread(8, _max_len(am), 2), 1)
        rnd.append(
            Request(
                "tree",
                "tree/classify",
                head + f"subop classify\nword {_alternating(rng, am, length)}\n",
                {"type": "hyperbolic", "translation_length": length},
            )
        )
        top = _max_radius(am)
        radius = pick(_spread(max(1, top - 2), top, 1), 2)
        rnd.append(
            Request(
                "tree",
                "tree/expand",
                head + f"subop expand\nradius {radius}\n",
                {"type": "ball", "count": _ball_count(am, radius)},
            )
        )
        # Oracle to length 4: the oracle runs only when a random pair
        # certifies, and at the default length 8 that alone moved the p90
        # by 70% between seeds.  prodense runs the oracle at length 8.
        words = [_alternating(rng, am, pick((2, 4, 6), 3 + k)) for k in range(2)]
        body = "subop pingpong\noracle-len 4\n" + "".join(f"word {w}\n" for w in words)
        rnd.append(Request("tree", "tree/pingpong", head + body))
        rnd.append(Request("tree", "tree/kernel", head + "subop kernel\n", _core_expect(am)))
        deck.append(rnd)
    return deck


GENERATORS = {"matrix-small": matrix_small, "highdim": highdim, "prodense": prodense, "tree": tree}
