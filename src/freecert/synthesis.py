"""Explicit constructions: contracting conjugates, the g b1 g^-(1+k) b2
g^(k+1) b3 g^-1 element, very-proximal synthesis, proximal elements inside
normal subgroups, coset representatives, the double-coset wrap, and the
truncated prodense builder.

Membership in a normal subgroup is never decided: candidates are built
syntactically as products of conjugates of the class representatives, so
membership holds by construction and can be re-checked at the word level.
All "sufficiently large" exponents are found by bounded smallest-first
search over certified checks; searches are deterministic and NotFound is
an honest outcome.  Every search walks the same few candidate streams:
the certified powers of an element (`_certified_powers`), its conjugates
along a power ladder (`_conjugates`), and the eps^2 tries of an automatic
certificate (`_eps_tries`); it filters them by `_clear` and the other set
conditions and takes the first survivor.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .certfmt import PRODENSE_ORACLE_LEN
from .checker import evidence_outside
from .dynamics import (
    ContractionCert,
    ProximalCert,
    certify_contracting,
    certify_very_proximal,
    contraction_gap_sq,
    direction_candidates,
    push_set,
)
from .pingpong import PingPongPlayer, certify_tuple, freeness_oracle
from .projective import (
    Ball,
    MarkedGroup,
    ProjMat,
    ProjSet,
    Word,
    concat,
    dist_to_hyperplane_sq,
    known_not_proximal,
    set_contains,
    set_disjoint,
    word_inverse,
)
from .scalar import Rat, Record, sqrt_upper


def word_power(w: Word, n: int) -> Word:
    if n < 0:
        return word_power(word_inverse(w), -n)
    out: Word = ()
    for _ in range(n):
        out = concat(out, w)
    return out


# ---------------------------------------------------------------------------
# Syntactic membership in normal closures
# ---------------------------------------------------------------------------


class ConjugateFactor(Record):
    """t r^e t^-1 for the class representative r of index rep_index, with
    t the word conjugator and e = exponent = +-1: visibly in the normal
    closure."""

    __slots__ = ("conjugator", "rep_index", "exponent")


class NormalWord(Record):
    """A product of conjugates of class representatives, a tuple of
    ConjugateFactors.

    The data structure is the membership proof: flattening yields the
    group word, and any conjugate or positive power of a NormalWord is
    again one.
    """

    __slots__ = ("factors",)

    def to_word(self, class_reps: list[Word]) -> Word:
        out: Word = ()
        for f in self.factors:
            r = class_reps[f.rep_index]
            if f.exponent < 0:
                r = word_inverse(r)
            out = concat(out, f.conjugator, r, word_inverse(f.conjugator))
        return out

    def conjugated_by(self, t: Word) -> "NormalWord":
        return NormalWord(tuple(ConjugateFactor(concat(t, f.conjugator), f.rep_index, f.exponent) for f in self.factors))

    def times(self, other: "NormalWord") -> "NormalWord":
        return NormalWord(self.factors + other.factors)

    def power(self, n: int) -> "NormalWord":
        if n < 0:
            inv = NormalWord(tuple(ConjugateFactor(f.conjugator, f.rep_index, -f.exponent) for f in reversed(self.factors)))
            return inv.power(-n)
        out = NormalWord(())
        for _ in range(n):
            out = out.times(self)
        return out


class NormalData(Record):
    __slots__ = ("label", "class_reps", "coset_reps")

    def __init__(self, label: str, class_reps: tuple[Word, ...], coset_reps: tuple[Word, ...] = ()) -> None:
        if not class_reps:
            raise ValueError("a normal datum needs class representatives")
        Record.__init__(self, label, class_reps, coset_reps)


def validate_normal_data(group: MarkedGroup, data: NormalData) -> None:
    for w in data.class_reps:
        if group.eval(w).is_identity():
            raise ValueError("trivial class")


# ---------------------------------------------------------------------------
# Automatic (r, eps) selection for certificates
# ---------------------------------------------------------------------------


#: The automatic eps^2 choices start no lower than 2^-EPS_SQ_FLOOR_BITS.
EPS_SQ_FLOOR_BITS = 120


def _eps_ladder(x: Rat, step: int) -> Rat | None:
    """Smallest rung 2^(-step j) >= x with 1 <= j <= EPS_SQ_FLOOR_BITS // step,
    or the bottom rung when x lies below it; None when x is above the top
    rung 2^-step.  The base-2 ladder (step 1) also gives None for x <= 0,
    which no certified contraction bound is."""
    if x > Fraction(1, 2**step) or (x <= 0 and step == 1):
        return None
    j = EPS_SQ_FLOOR_BITS // step
    if x > 0:
        # 2^-i >= x = p/q iff 2^i <= q/p iff 2^i <= q // p
        j = min(j, ((x.denominator // x.numerator).bit_length() - 1) // step)
    return Fraction(1, 2 ** (step * j))


def _eps_tries(gap_hi: Rat) -> list[Rat]:
    """The eps^2 an automatic certificate tries: the smallest power of 1/2
    above the certified kappa (the round-up is the slack the gap test
    needs), then doubled twice, keeping those below 1."""
    eps0 = _eps_ladder(sqrt_upper(gap_hi), 1)
    if eps0 is None:
        return []
    return [eps_sq for eps_sq in (eps0, 2 * eps0, 4 * eps0) if eps_sq < 1]


@lru_cache(maxsize=4096)
def auto_very_proximal(m: ProjMat) -> ProximalCert | None:
    """Pick (r, eps) by a fixed rule and certify m very-proximal, or give up.

    r^2 is the exact candidate attract-repel distance (the smaller of the
    two directions); eps^2 walks `_eps_tries` while the r > 2 eps window
    allows.

    The result depends on m alone, so it is memoized: the searches walk
    many of the same powers and conjugates.  The key is exact equality,
    not `class_key`: m and 2m share a class, but not their certificates'
    intervals and gap bounds.

    A matrix `known_not_proximal` is given up at once, before any gap or
    direction work; a sound certifier answers no "yes" for it anyway.
    """
    if known_not_proximal(m):
        return None
    mi = m.inverse()
    tries = _eps_tries(max(contraction_gap_sq(m).hi, contraction_gap_sq(mi).hi))
    if not tries:
        return None
    d_fwd = _candidate_gap(m)
    d_bwd = _candidate_gap(mi)
    if d_fwd is None or d_bwd is None:
        return None
    r_sq = min(d_fwd, d_bwd)
    verdicts = (certify_very_proximal(m, r_sq, eps_sq) for eps_sq in tries if r_sq > 4 * eps_sq)
    return next((v.cert for v in verdicts if v.kind == "yes"), None)


def _candidate_gap(m: ProjMat) -> Rat | None:
    dirs = direction_candidates(m)
    if dirs.attract_err_sq is None or dirs.repel_err_sq is None:
        return None
    return dist_to_hyperplane_sq(dirs.attract, dirs.repel, m.place)


def auto_contracting(m: ProjMat) -> ContractionCert | None:
    verdicts = (certify_contracting(m, eps_sq) for eps_sq in _eps_tries(contraction_gap_sq(m).hi))
    return next((v.cert for v in verdicts if v.kind == "yes"), None)


def _certified_powers(m: ProjMat, stop: int, start: int = 1):
    """(n, m^n, cert) for each start <= n < stop that `auto_very_proximal`
    certifies, smallest n first."""
    for n, m_n in m.powers(stop, start):
        cert = auto_very_proximal(m_n)
        if cert is not None:
            yield n, m_n, cert


def _conjugates(g: ProjMat, g_inv: ProjMat, x: ProjMat, stop: int):
    """(n, g^n x g^-n) for 1 <= n < stop, each conjugated once more from
    the one before."""
    for n in range(1, stop):
        x = g @ x @ g_inv
        yield n, x


def _clear(sets, others, place) -> bool:
    """Every set in `sets` certified disjoint from every set in `others`."""
    return all(set_disjoint(s, t, place).kind == "disjoint" for s in sets for t in others)


def player_from_cert(name: str, g: ProjMat, cert: ProximalCert) -> PingPongPlayer:
    """A player whose declared sets are the certificate's eps-sets."""
    return PingPongPlayer(name, g, *cert.eps_sets, cert)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


class Budgets(Record):
    """The bounds of the searches, each an int."""

    __slots__ = ("host_word_len", "host_power_max", "conj_len", "num_factors", "power_max", "nest_max", "m_max", "n_max", "general_position")
    _defaults = {
        "host_word_len": 2,
        "host_power_max": 16,
        "conj_len": 1,
        "num_factors": 2,
        "power_max": 6,
        "nest_max": 10,
        "m_max": 12,
        "n_max": 12,
        "general_position": 8,
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def conjugate_contract(
    group: MarkedGroup,
    g: Word,
    x: Word,
    m_max: int,
    epsilon_sq: Rat,
) -> tuple[int, Word, ContractionCert] | None:
    """Smallest m <= m_max making y = g^m x g^-m certifiably eps-contracting.

    Requires g certified very-proximal and x in general position: x must
    certifiably move the inverse's fixed point off the fixed hyperplane
    (checked against the certificate's enclosures)."""
    gm = group.eval(g)
    xm = group.eval(x)
    g_cert = auto_very_proximal(gm)
    if g_cert is None:
        raise ValueError("g is not certified very-proximal")
    fp_inv = g_cert.very.fixed_point.ball  # encloses the fixed point of g^-1
    moved = push_set(xm, ProjSet((fp_inv,)))
    plane_enc = ProjSet((g_cert.fixed_plane_nbhd,))
    if set_disjoint(moved, plane_enc, group.place).kind != "disjoint":
        raise ValueError("x not in general position")
    for m, y in _conjugates(gm, gm.inverse(), xm, m_max + 1):
        v = certify_contracting(y, epsilon_sq)
        if v.kind == "yes":
            return m, concat(word_power(g, m), x, word_power(g, -m)), v.cert
    return None


class BBBResult(Record):
    """The exponent k, the word, its attracting and repelling ProjSets and
    its ContractionCert."""

    __slots__ = ("k", "word", "attract", "repel", "cert")


def b1b2b3_synthesize(
    group: MarkedGroup,
    g: Word,
    attract: ProjSet,
    repel: ProjSet,
    b1: Word,
    b2: Word,
    b3: Word,
    k_max: int,
) -> BBBResult | None:
    """Search the smallest k <= k_max making
    a = g b1 g^-(1+k) b2 g^(k+1) b3 g^-1 certifiably d-contracting with
    attracting set g b1 g^-k (repel) and repelling set g b3^-1 g^-k (repel),
    both certified inside the declared attracting set.

    The four hypothesis disjointnesses are certified on pushed supersets
    first; a failure is an error naming the failing condition."""
    place = group.place
    gm = group.eval(g)
    b1m, b2m, b3m = group.eval(b1), group.eval(b2), group.eval(b3)
    b3_inv = b3m.inverse()
    hyps = (
        ("b1 R meets R", push_set(b1m, repel), repel),
        ("b2 A meets A", push_set(b2m, attract), attract),
        ("b3^-1 R meets R", push_set(b3_inv, repel), repel),
        ("b1 R meets b3^-1 R", push_set(b1m, repel), push_set(b3_inv, repel)),
    )
    for label, left, right in hyps:
        if set_disjoint(left, right, place).kind != "disjoint":
            raise ValueError(f"hypothesis not certified: {label}")
    g_inv = gm.inverse()
    # g^-k next to the conjugate g^-(k+1) b2 g^(k+1)
    ladders = zip(g_inv.powers(k_max + 1, start=0), _conjugates(g_inv, gm, b2m, k_max + 2))
    for (k, g_inv_k), (_, b2_conj) in ladders:
        a = gm @ b1m @ b2_conj @ b3m @ g_inv
        new_attract = push_set(gm @ b1m @ g_inv_k, repel)
        new_repel = push_set(gm @ b3_inv @ g_inv_k, repel)
        if any(c.radius_sq >= 1 for c in new_attract.components + new_repel.components):
            continue
        if set_disjoint(new_attract, new_repel, place).kind != "disjoint":
            continue
        if not (set_contains(attract, new_attract, place) and set_contains(attract, new_repel, place)):
            continue
        cert = _declared_contraction(a, new_attract, new_repel)
        if cert is not None:
            word = concat(
                g, b1, word_power(g, -(1 + k)), b2, word_power(g, k + 1), b3, word_inverse(g)
            )
            return BBBResult(k, word, new_attract, new_repel, cert)
    return None


def _declared_contraction(a: ProjMat, attract: ProjSet, repel: ProjSet) -> ContractionCert | None:
    """Certify a(X - repel) inside attract through a's canonical certificate:
    the canonical repelling neighborhood must sit inside the declared repel
    and the canonical image ball inside the declared attract."""
    gap = contraction_gap_sq(a).hi
    start = _eps_ladder(4 * sqrt_upper(gap), 2)
    if start is None:
        return None
    eps_sq = start
    while True:
        v = certify_contracting(a, eps_sq)
        if v.kind != "yes":
            return None
        if evidence_outside(v.cert, attract, repel, a.place) is None:
            return v.cert
        eps_sq /= 4
        if eps_sq < Fraction(1, 4**40):
            return None


def very_proximal_search(
    group: MarkedGroup,
    g: Word,
    word_len: int,
    r_sq: Rat,
    epsilon_sq: Rat,
) -> tuple[Word, Word, Word, ProximalCert] | None:
    """Shortlex search for f1, f2 with w = g f1 g^-1 f2 certifiably
    (r, eps)-very proximal; g itself must certify eps-contracting."""
    gm = group.eval(g)
    if certify_contracting(gm, epsilon_sq).kind != "yes":
        raise ValueError("g is not certified contracting at the given epsilon")
    candidates = [()] + list(group.words_upto(word_len))
    gi = word_inverse(g)
    for f1, f2 in itertools.product(candidates, repeat=2):
        w = concat(g, f1, gi, f2)
        if w:
            verdict = certify_very_proximal(group.eval(w), r_sq, epsilon_sq)
            if verdict.kind == "yes":
                return f1, f2, w, verdict.cert
    return None


# ---------------------------------------------------------------------------
# Step 1: proximal elements inside normal subgroups
# ---------------------------------------------------------------------------


class HostRegion(Record):
    """Where a synthesized element must live: all four canonical sets
    inside `region` and certifiably clear of every `avoid` set (the
    host's fixed-point enclosures, so the host power can later shrink
    its own neighborhoods in between).  Both are ProjSets."""

    __slots__ = ("region", "avoid")
    _defaults = {"avoid": ()}

    def contains_cert_sets(self, cert: ProximalCert, place) -> bool:
        return all(set_contains(self.region, s, place) for s in cert.eps_sets) and _clear(
            cert.eps_sets, self.avoid, place
        )


class NormalProximalResult(Record):
    """The normal datum's label, the NormalWord proof of membership, the
    word it flattens to, its ProximalCert and the nesting exponent."""

    __slots__ = ("label", "proof", "word", "cert", "nest_exponent")


def _normal_pool(group: MarkedGroup, data: NormalData, budgets: Budgets):
    """Deterministic pool of NormalWords: single conjugate factors first,
    then products of two, conjugators shortlex up to the budget."""
    conjugators = [()] + list(group.words_upto(budgets.conj_len))
    singles = []
    for t in conjugators:
        for i in range(len(data.class_reps)):
            for e in (1, -1):
                singles.append(NormalWord((ConjugateFactor(t, i, e),)))
    pool = list(singles)
    if budgets.num_factors >= 2:
        for f1, f2 in itertools.product(singles, repeat=2):
            pool.append(f1.times(f2))
    return pool


def normal_proximal(
    group: MarkedGroup,
    data: NormalData,
    host: HostRegion | None,
    budgets: Budgets,
    nest_element: Word | None = None,
) -> NormalProximalResult | None:
    """A very-proximal element of the normal closure, built syntactically
    from conjugates of the class representatives, with certificate sets
    certified inside the host region (nesting achieved by conjugating with
    powers of the fixed host element)."""
    validate_normal_data(group, data)
    class_reps = list(data.class_reps)
    place = group.place
    nest_m = group.eval(nest_element) if nest_element else None
    nest_inv = nest_m.inverse() if nest_m is not None else None
    for cand in _normal_pool(group, data, budgets):
        base = group.eval(cand.to_word(class_reps))
        if base.is_identity():
            continue
        for q, m, cert in _certified_powers(base, budgets.power_max + 1):
            l = 0
            if host is not None and not host.contains_cert_sets(cert, place):
                if nest_m is None:
                    continue
                nested = ((l, auto_very_proximal(y)) for l, y in _conjugates(nest_m, nest_inv, m, budgets.nest_max + 1))
                l, cert = next(((l, c) for l, c in nested if c is not None and host.contains_cert_sets(c, place)), (0, None))
                if cert is None:
                    continue
            proof = cand.power(q)
            if l:
                proof = proof.conjugated_by(word_power(nest_element, l))
            return NormalProximalResult(data.label, proof, proof.to_word(class_reps), cert, l)
    return None


# ---------------------------------------------------------------------------
# Step 2: coset representatives
# ---------------------------------------------------------------------------


class CosetResult(Record):
    """The coset representative, the power of a_N, the word delta, its
    ProximalCert, and the NormalWord that factors delta * rep^-1."""

    __slots__ = ("coset_rep", "power", "word", "cert", "membership")


def _general_position_ok(group: MarkedGroup, x: ProjMat, cert: ProximalCert) -> bool:
    fwd_fp = cert.fixed_point.ball
    fwd_plane = ProjSet((cert.fixed_plane_nbhd,))
    bwd_fp = cert.very.fixed_point.ball
    bwd_plane = ProjSet((cert.very.fixed_plane_nbhd,))
    moved_f = push_set(x, ProjSet((fwd_fp,)))
    moved_b = push_set(x.inverse(), ProjSet((bwd_fp,)))
    return (
        set_disjoint(moved_f, fwd_plane, group.place).kind == "disjoint"
        and set_disjoint(moved_b, bwd_plane, group.place).kind == "disjoint"
    )


def coset_pingpong(
    group: MarkedGroup,
    data: NormalData,
    a_n: NormalProximalResult,
    budgets: Budgets,
) -> tuple[list[CosetResult], list[Word]]:
    """For each coset representative x, produce delta = beta^l x' beta^l
    with x' = n1 x n2 adjusted into general position by elements of the
    normal closure, certified very-proximal with all four sets nested in
    a_n's, and pairwise ping-pong across the produced list.

    Returns (results, failed coset reps)."""
    class_reps = list(data.class_reps)
    place = group.place
    beta = group.eval(a_n.word)
    adjusters = [NormalWord(())] + _normal_pool(group, data, Budgets(conj_len=budgets.conj_len, num_factors=1))[: budgets.general_position]
    results: list[CosetResult] = []
    failed: list[Word] = []
    taken_sets: list[ProjSet] = []

    def candidates(rep: Word):
        """(n1, n2, x = n1 rep n2, l, cert) with beta^l x beta^l certified,
        nested in a_n's sets and clear of the sets already taken."""
        for n1, n2 in itertools.product(adjusters, repeat=2):
            x_word = concat(n1.to_word(class_reps), rep, n2.to_word(class_reps))
            x_m = group.eval(x_word)
            if not _general_position_ok(group, x_m, a_n.cert):
                continue
            for l, beta_l in beta.powers(budgets.nest_max + 1):
                cert = auto_very_proximal(beta_l @ x_m @ beta_l)
                if (
                    cert is not None
                    and _remark_nesting_ok(cert, a_n.cert, place)
                    and _clear(cert.eps_sets, taken_sets, place)
                ):
                    yield n1, n2, x_word, l, cert

    for rep in data.coset_reps:
        hit = next(candidates(rep), None)
        if hit is None:
            failed.append(rep)
            continue
        n1, n2, x_word, l, cert = hit
        delta_word = concat(word_power(a_n.word, l), x_word, word_power(a_n.word, l))
        membership = a_n.proof.power(l).times(n1).times(n2.times(a_n.proof.power(l)).conjugated_by(rep))
        _check_membership(group, delta_word, rep, membership, class_reps)
        results.append(CosetResult(rep, l, delta_word, cert, membership))
        taken_sets.extend(cert.eps_sets)
    return results, failed


def _remark_nesting_ok(cert: ProximalCert, outer: ProximalCert, place) -> bool:
    return all(set_contains(o, s, place) for o, s in zip(outer.eps_sets, cert.eps_sets))


def _check_membership(group: MarkedGroup, delta_word: Word, rep: Word, proof: NormalWord, class_reps) -> None:
    """Word-level coset correctness: delta rep^-1 equals the product of
    conjugates encoded by `proof`, checked by exact evaluation."""
    lhs = group.eval(concat(delta_word, word_inverse(rep)))
    rhs = group.eval(proof.to_word(class_reps))
    if not lhs.proportional_to(rhs):
        raise AssertionError("coset-correctness factorization failed to verify")


# ---------------------------------------------------------------------------
# Double cosets
# ---------------------------------------------------------------------------


class DoubleCosetResult(Record):
    """The original representative, the exponents m and n, the wrapped
    word and its ContractionCert, or why the representative was skipped."""

    __slots__ = ("original", "m", "n", "word", "cert", "skipped")
    _defaults = {"skipped": ""}


def double_coset_wrap(
    group: MarkedGroup,
    h1: Word,
    h2: Word,
    h1_cert: ProximalCert,
    h2_cert: ProximalCert,
    coset_reps: list[Word],
    budgets: Budgets,
) -> list[DoubleCosetResult]:
    """Wrap each representative c into h1^m h2^n c h2^n h1^-m, certified
    d-contracting with sets near h1's attracting point, pairwise disjoint
    across the produced list; identity representatives are skipped."""
    place = group.place
    h1m, h2m = group.eval(h1), group.eval(h2)
    h1_inv = h1m.inverse()
    out: list[DoubleCosetResult] = []
    taken: list[ProjSet] = []
    h2_plus = ProjSet((h2_cert.fixed_point.ball,))
    h2_minus = ProjSet((h2_cert.very.fixed_point.ball,))
    h1_attract = ProjSet((h1_cert.contraction.attract_set,))

    def wrap(x: ProjMat):
        """(m, n, cert, sets): h1^m h2^n x h2^n h1^-m certified contracting,
        its sets inside h1's attracting set and clear of the taken ones."""
        for n, h2_n in h2m.powers(budgets.n_max + 1):
            for m, y in _conjugates(h1m, h1_inv, h2_n @ x @ h2_n, budgets.m_max + 1):
                cert = auto_contracting(y)
                if cert is not None:
                    sets = ProjSet((cert.attract_set, cert.repel_set))
                    if set_contains(h1_attract, sets, place) and _clear((sets,), taken, place):
                        return m, n, cert, sets
        return None

    for c in coset_reps:
        cm = group.eval(c)
        if cm.is_identity():
            out.append(DoubleCosetResult(c, 0, 0, (), None, skipped="trivial double coset"))
            continue
        # the smallest shift h1^s c that moves h2's attracting point off its repelling one
        shifts = ((s, h1_s @ cm) for s, h1_s in h1m.powers(budgets.m_max + 1, start=0))
        s, x = next(((s, x) for s, x in shifts if _clear((push_set(x, h2_plus),), (h2_minus,), place)), (0, None))
        hit = wrap(x) if x is not None else None
        if hit is not None:
            m, n, cert, sets = hit
            shifted = concat(word_power(h1, s), c)
            word = concat(word_power(h1, m), word_power(h2, n), shifted, word_power(h2, n), word_power(h1, -m))
            out.append(DoubleCosetResult(c, m, n, word, cert))
            taken.append(sets)
    return out


# ---------------------------------------------------------------------------
# The truncated prodense builder
# ---------------------------------------------------------------------------


class SynthesisReport(Record):
    """What `truncated_prodense` built: the host word and power, the
    NormalProximalResults of step 1 and their PingPongTuple, the
    CosetResults of step 2 by label, the combined PingPongTuple, its
    OracleResult, the verdict ("certified" or "unknown") and notes."""

    __slots__ = ("host_word", "host_power", "step1", "step1_tuple", "step2", "combined", "oracle", "verdict", "notes")


def find_host(group: MarkedGroup, budgets: Budgets) -> tuple[Word, int, ProximalCert] | None:
    """Fixed very-proximal element used throughout Step 1: the shortlex
    first short word with a certifiable power."""
    for w in group.words_upto(budgets.host_word_len):
        for n, _, cert in _certified_powers(group.eval(w), budgets.host_power_max + 1):
            return w, n, cert
    return None


def _shrunken_host(cert: ProximalCert, used: list[ProjSet], place) -> HostRegion | None:
    """Host region inside the certificate's forward attracting ball,
    certified disjoint from every already-used set.  Conjugation by host
    powers pushes all four canonical sets of a candidate toward the
    forward fixed point, so one forward region serves both directions;
    the fixed-point enclosures are blocked out so the host power can
    later shrink its own neighborhoods in between."""
    fwd = cert.contraction.attract_set
    avoid = (
        ProjSet((cert.fixed_point.ball,)),
        ProjSet((cert.very.fixed_point.ball,)),
    )
    for j in range(0, 30):
        reg = ProjSet((Ball(fwd.center, fwd.radius_sq * Fraction(1, 4**j)),))
        if _clear((reg,), used, place):
            return HostRegion(reg, avoid)
    return None


def _host_power_avoiding(
    group: MarkedGroup, host_word: Word, start_power: int, budgets: Budgets, used: list[ProjSet]
) -> tuple[int, ProximalCert] | None:
    """Host power whose canonical sets are certifiably disjoint from every
    used set (the paper's shrinking A(g^l), R(g^l))."""
    powers = _certified_powers(group.eval(host_word), start_power + budgets.host_power_max + 1, start_power)
    return next(((n, cert) for n, _, cert in powers if _clear(cert.eps_sets, used, group.place)), None)


def truncated_prodense(group: MarkedGroup, normals: list[NormalData], budgets: Budgets) -> SynthesisReport:
    """Desk-scale embodiment of the two-step construction: a very-proximal
    element in every listed normal closure (nested along a fixed host), a
    certified coset element for every listed coset, and one combined
    certified tuple cross-checked by the freeness oracle up to
    PRODENSE_ORACLE_LEN."""
    if not normals:
        raise ValueError("nothing to intersect")
    notes: list[str] = []
    host = find_host(group, budgets)
    if host is None:
        return SynthesisReport((), 0, (), None, {}, None, None, "unknown", ("no host element",))
    host_word, host_power, host_cert = host
    host_full_word = word_power(host_word, host_power)
    place = group.place

    step1: list[NormalProximalResult] = []
    used_sets: list[ProjSet] = []
    region = _shrunken_host(host_cert, [], place)
    for data in normals:
        res = normal_proximal(group, data, region, budgets, nest_element=host_full_word)
        if res is None:
            notes.append(f"step 1 not found for {data.label}")
            continue
        step1.append(res)
        used_sets.extend(res.cert.eps_sets)
        region = _shrunken_host(host_cert, used_sets, place)
        if region is None:
            notes.append("host region exhausted")
            break

    host_player = step1_tuple = None
    if step1:
        final_host = _host_power_avoiding(group, host_word, host_power, budgets, used_sets)
        if final_host is None:
            notes.append("no host power clears the synthesized sets")
        else:
            fin_power, fin_cert = final_host
            host_player = player_from_cert("host", group.eval(word_power(host_word, fin_power)), fin_cert)
            players = [player_from_cert(r.label, group.eval(r.word), r.cert) for r in step1]
            step1_tuple = certify_tuple(players + [host_player])

    step2: dict[str, tuple[CosetResult, ...]] = {}
    step2_complete = True
    for res in step1:
        data = next(d for d in normals if d.label == res.label)
        if not data.coset_reps:
            step2[data.label] = ()
            continue
        got, failed = coset_pingpong(group, data, res, budgets)
        step2[data.label] = tuple(got)
        if failed:
            step2_complete = False
            notes.append(f"step 2 incomplete for {data.label}")

    combined = oracle = None
    deltas = [cr for res in step1 for cr in step2[res.label]]
    if deltas and host_player is not None:
        players = [player_from_cert(f"d[{group.word_str(cr.coset_rep)}]", group.eval(cr.word), cr.cert) for cr in deltas]
        players.append(host_player)
        combined = certify_tuple(players)
        names = [f"d{i}" for i in range(len(deltas))] + ["host"]
        oracle = freeness_oracle([p.element for p in players], PRODENSE_ORACLE_LEN, names=names)

    # a combined tuple implies a nonempty step 1 and an oracle run
    complete = (
        len(step1) == len(normals)
        and step2_complete
        and combined is not None
        and combined.verdict == "certified"
        and oracle.kind == "no-relation"
    )
    return SynthesisReport(
        host_word,
        host_power,
        tuple(step1),
        step1_tuple,
        step2,
        combined,
        oracle,
        "certified" if complete else "unknown",
        tuple(notes),
    )
