"""The certificate format, its claims and its verifier.

Certificates are canonical JSON: sorted keys, no whitespace, exact
rationals as "p/q" strings, a fixed seed echo, and no timestamps, so a
rerun produces byte-identical output, and `verify` accepts no other text
of the same JSON.  Every claim is written here, one builder per claim
group, from the JSON a certificate carries; `cli` emits through these
builders.  The verifier re-checks each claim semantically
(set verdicts, containments, memberships, word algebra, enclosure
inequalities, deterministic recomputation of certified data) without
re-running any search.  Oracle no-relation results are echoed, not re-run.

What a verdict means is written down once, in `VERDICTS`, keyed by
(op, subop, verdict): its exit code, the binder of the claims it needs,
the result fields that binder binds, and what it states without proof.
A binder rebuilds the claims its verdict needs with the same builders,
from the task, the result and the numbers only a search finds, read from
the claims; `verify` compares them whole with the certificate's claims.

A certificate matrix has one value, its header evaluation: a binder
derives every matrix its claims hold (a word's, an inverse, a power, a
tuple player's) as `mat_json` of that evaluation, so a claim's matrix
must equal it exactly.  Only a normal-membership claim, which states
equality in PGL, compares matrices up to a scalar.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

from . import __version__
from .checker import Enclosure, Ladder, image_radius_bound, point_plane_far, selfmap_at, witness_refutes
from .dynamics import contraction_gap_sq, direction_candidates
from .projective import (
    MAX_DIM,
    Ball,
    HNbhd,
    MarkedGroup,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    ProjSet,
    concat,
    set_contains,
    set_disjoint,
    word_inverse,
)
from .scalar import PAIR_LABELS, VERY_PAIRS, Place, Rat, Record, format_rat, letter_count, pair_count, parse_place, tuple_pairs
from .tree import AmalgamData, BassSerreTree, Classification, FiniteGroup, ShadowSet, TreeError, axis_shadow_sets, ball_rows, classify, kernel_of_action, parse_word

FORMAT = "freecert-certificate/2"

#: Largest exponent a power search may try: `max-n` (g^n), `m-max`
#: (g^m x g^-m) and `k-max` (g^-(k+1)).  Each exponent is one more
#: certification of a matrix whose entries grow with it, so a larger
#: value would not fail but run for minutes.  `verify` refuses a larger
#: `max_n` before it forms g^n, which at n = 10^6 took seconds.
MAX_EXPONENT = 64
#: Most letters a problem-file word may expand to.  Each letter is a
#: matrix product whose entries grow with the word, or a tree normal-form
#: step, so a long word would not fail but run for minutes and overflow
#: the certificate's numbers.  `verify` refuses a longer task word before
#: it evaluates any word: `a^1000000` ran for minutes.
MAX_WORD_LEN = 64
#: Largest height of a problem-file matrix word: the sum, over its
#: letters, of the bit length of the largest entry of the letter's
#: primitive integer matrix.  That bounds the bits of the word's entries,
#: and a certificate's numbers grow with them: for `analyze contracting`
#: on (a b)^k with a = [[99, 98], [1, 1]], b = [[1, 0], [99, 1]], each bit
#: of height costs about 14 decimal digits, so 256 keeps them near 3500,
#: under the 4300 digits Python converts to text.
MAX_WORD_HEIGHT = 256
#: Longest word `synthesize very-proximal` tries for f1 and f2.  It
#: certifies every pair of words up to that length, 2809 pairs for two
#: generators at length 3, so a longer one would run for minutes.
MAX_SEARCH_WORD_LEN = 3
#: Longest key `verify` reads for a shadow vertex, in letters.  The axis
#: of a word of L letters runs through c y, with c its `_cyclic_reduce`
#: conjugator, y a prefix of its core or of the core's inverse and
#: |c| + |core| <= L.  A geodesic costs the square of its keys' length.
MAX_VERTEX_KEY = MAX_WORD_LEN
#: Longest word the freeness oracle may be asked to search.  It stores
#: the reduced words of half that length, (2k)(2k - 1)^(L/2 - 1) of them
#: for k players, which `pingpong.MAX_ORACLE_WORDS` bounds as well.
#: `verify` refuses a longer `oracle_len` before it reads a relation.
MAX_ORACLE_LEN = 12
#: Word length up to which `synthesize truncated-prodense` cross-checks
#: its combined tuple with the freeness oracle; the oracle claim states it.
PRODENSE_ORACLE_LEN = 6


class VerifyError(ValueError):
    """Certificate is structurally unusable (distinct from failing checks).
    `part` is the header key at fault where the check names one."""

    part: str | None = None


class WordBoundError(ValueError):
    """A word over MAX_WORD_LEN letters or, in a group, over MAX_WORD_HEIGHT."""


def bounded_word(text: str, group: MarkedGroup | None):
    """The word `text` parsed in `group` (`text` itself without one), or
    WordBoundError when it has more than MAX_WORD_LEN letters, counted
    before any is expanded, or in `group` a height over MAX_WORD_HEIGHT.
    A bad exponent or an unknown generator is the parse's ValueError or KeyError."""
    letters = letter_count(text)
    if letters > MAX_WORD_LEN:
        raise WordBoundError(f"word of {letters} letters exceeds MAX_WORD_LEN = {MAX_WORD_LEN}")
    if group is None:
        return text
    w = group.parse_word(text)
    height = sum(group.eval((letter,)).height for letter in w)
    if height > MAX_WORD_HEIGHT:
        raise WordBoundError(f"word of height {height} bits exceeds MAX_WORD_HEIGHT = {MAX_WORD_HEIGHT}")
    return w


class CertificateError(ValueError):
    """A certificate that cannot be written."""


class _Float(Record):
    """A JSON number with a fraction or an exponent, as `loads` reads it:
    no certificate holds one, and it equals no value, so its field fails."""

    __slots__ = ("text",)


class _Unprintable:
    """A number `rat` could not write: Python converts no integer of more
    than `sys.get_int_max_str_digits()` digits to text.  `dumps` refuses
    the certificate, naming the field that holds it."""

    def __init__(self, x: Rat):
        self.x = x


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def rat(x: Rat) -> "str | _Unprintable":
    try:
        return format_rat(x)
    except ValueError:  # too many digits
        return _Unprintable(x)


def pair_from(text: str) -> tuple[int, int]:
    """The rational that `format_rat` writes as `text`, as its (numerator,
    denominator) pair in lowest terms.  That text is the `str` of the
    numerator, then, for a denominator over 1 and prime to it, "/" and
    the `str` of the denominator.  Any other text of it (`2/13122` for
    1/6561, `2/1`, `+1`, ` 1`, `-0`), and any text of no rational, is a
    ValueError, which fails the claim that holds it: a certificate binds a
    number by its one text.  The one reader of a certificate's numbers."""
    try:
        num, slash, den = text.partition("/")
        n = int(num)
        d = int(den) if slash else 1
    except (AttributeError, ValueError):  # no string, or no integers
        raise ValueError(f"malformed rational literal {text!r}") from None
    if str(n) == num and (not slash or (d > 1 and gcd(n, d) == 1 and str(d) == den)):
        return n, d
    if d == 0:
        raise ValueError(f"malformed rational literal {text!r}")
    raise ValueError(f"rational {text!r} is not written as certificates write {Fraction(n, d)}")


def rat_from(text: str) -> int | Rat:
    """The number of `pair_from`, an `int` if it has no denominator."""
    n, d = pair_from(text)
    return n if d == 1 else Fraction(n, d)


def place_from(s: str) -> Place:
    try:
        if not isinstance(s, str):
            raise ValueError("not a string")
        return parse_place(s)
    except ValueError as e:
        raise VerifyError(f"bad place {s!r}: {e}") from None


def _within_max_dim(data, what: str) -> None:
    """Refuse a matrix or vector of more than MAX_DIM rows or coordinates."""
    if len(data) > MAX_DIM:
        raise VerifyError(f"{what.format(len(data))} exceeds MAX_DIM = {MAX_DIM}")


def _coords(data, dim: int | None) -> list[tuple[int, int]]:
    """The coordinates of `data` as pairs.  Unless `dim` is None, a count
    other than `dim` is a ValueError, which fails the claim."""
    if dim is not None and len(data) != dim:
        raise ValueError(f"vector of {len(data)} coordinates in a certificate of dimension {dim}")
    return [pair_from(c) for c in data]


def _over(values, den: int) -> list:
    """The texts of x / den for integers x and a positive den: a point or
    hyperplane is written over its first nonzero coordinate, a matrix's
    integer rows over their scale.  Each is `rat`'s text of the reduced
    pair (x // g, den // g), g = gcd(x, den), built with no Fraction; a
    part with too many digits to write is an `_Unprintable`."""
    out = []
    for x in values:
        g = gcd(x, den)
        n, d = x // g, den // g
        try:
            out.append(str(n) if d == 1 else f"{n}/{d}")
        except ValueError:  # too many digits
            out.append(_Unprintable(Fraction(n, d)))
    return out


def mat_json(m: ProjMat) -> list[list[str]]:
    rows, scale = m._integer_form
    return [_over(row, scale) for row in rows]


def mat_from(data, place: Place) -> ProjMat:
    return ProjMat([[pair_from(c) for c in row] for row in data], place)


def point_json(p: ProjPoint) -> list[str]:
    return _over(p.coords, next(x for x in p.coords if x))


def point_from(data, dim: int | None) -> ProjPoint:
    return ProjPoint(_coords(data, dim))


def plane_json(h: ProjHyperplane) -> list[str]:
    return _over(h.coords, next(x for x in h.coords if x))


def plane_from(data, dim: int | None) -> ProjHyperplane:
    return ProjHyperplane(_coords(data, dim))


def ball_json(center: list, radius_sq: str) -> dict:
    return {"kind": "ball", "center": center, "radius_sq": radius_sq}


def hnbhd_json(plane: list, radius_sq: str) -> dict:
    return {"kind": "hnbhd", "plane": plane, "radius_sq": radius_sq}


def component_from(data, ctx: CertContext):
    if data["kind"] == "ball":
        return Ball(ctx.point(data["center"]), rat_from(data["radius_sq"]))
    if data["kind"] == "hnbhd":
        return HNbhd(ctx.plane(data["plane"]), rat_from(data["radius_sq"]))
    raise VerifyError(f"bad set component kind {data.get('kind')!r}")


def set_json(s: ProjSet) -> list[dict]:
    return [ball_json(point_json(c.center), rat(c.radius_sq)) if isinstance(c, Ball) else hnbhd_json(plane_json(c.plane), rat(c.radius_sq)) for c in s.components]


def set_from(data, ctx: CertContext) -> ProjSet:
    return ProjSet(tuple(component_from(c, ctx) for c in data))


# Records: each layout is written once, over the JSON of its numbers, from
# a search's objects (the encoders) or from a certificate's claims.


def enclosure_record(center: list, radius_sq: str, lipschitz_sq: str, region_low_sq: str, move_sq: str) -> dict:
    return {"center": center, "radius_sq": radius_sq, "lipschitz_sq": lipschitz_sq, "region_low_sq": region_low_sq, "move_sq": move_sq}


def enclosure_json(e: Enclosure) -> dict:
    return enclosure_record(point_json(e.ball.center), rat(e.ball.radius_sq), rat(e.lipschitz_sq), rat(e.region_low_sq), rat(e.move_sq))


def contraction_record(epsilon_sq: str, attract: list, repel: list, attract_err_sq: str, repel_err_sq: str, gap_sq_hi: str, image_radius_sq: str) -> dict:
    bounds = {"attract_err_sq": attract_err_sq, "repel_err_sq": repel_err_sq, "gap_sq_hi": gap_sq_hi, "image_radius_sq": image_radius_sq}
    return {"epsilon_sq": epsilon_sq, "attract": attract, "repel": repel, "method": "singular-gap", **bounds}


def contraction_json(c) -> dict:
    """The record of a `dynamics.ContractionCert`."""
    bounds = map(rat, (c.attract_err_sq, c.repel_err_sq, c.gap_sq_hi, c.image_radius_sq))
    return contraction_record(rat(c.epsilon_sq), point_json(c.attract), plane_json(c.repel), *bounds)


def proximal_record(r_sq: str, epsilon_sq: str, contraction: dict, fixed_point: dict, fixed_plane_dual: dict) -> dict:
    return {"r_sq": r_sq, "epsilon_sq": epsilon_sq, "contraction": contraction, "fixed_point": fixed_point, "fixed_plane_dual": fixed_plane_dual}


def proximal_json(c) -> dict:
    """The record of a `dynamics.ProximalCert`, with its inverse's if very-proximal."""
    contraction = contraction_json(c.contraction)
    out = proximal_record(rat(c.r_sq), contraction["epsilon_sq"], contraction, enclosure_json(c.fixed_point), enclosure_json(c.fixed_plane_dual))
    return out if c.very is None else {**out, "inverse": proximal_json(c.very)}


def vertex_json(v) -> list:
    return [v[0], [list(l) for l in v[1]]]


def _ints(*values) -> bool:
    """Whether each value is a JSON integer: not `true`, nor a `_Float`."""
    return all(type(x) is int for x in values)


def _int(x) -> int:
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _vertex_from(data) -> tuple:
    if len(data[1]) > MAX_VERTEX_KEY:
        raise VerifyError(f"vertex key of {len(data[1])} letters exceeds MAX_VERTEX_KEY = {MAX_VERTEX_KEY}")
    return (data[0], tuple((l[0], l[1] if type(l[1]) is int else _int(l[1])) for l in data[1]))


def _edge_from(data) -> tuple[tuple, tuple]:
    """The vertices (x, y) of a shadow's base edge `data`."""
    return _vertex_from(data["x"]), _vertex_from(data["y"])


def shadow_json(s) -> dict:
    return {"x": vertex_json(s.x), "y": vertex_json(s.y)}


# ---------------------------------------------------------------------------
# Claims: every claim is written here, one builder per group, from the JSON
# a certificate carries.  `cli` emits through these builders; a verdict's
# row rebuilds the claims it needs with them and compares them whole.
# ---------------------------------------------------------------------------


def word_eval_claim(word: str, matrix: list) -> dict:
    return {"type": "word-eval", "word": word, "matrix": matrix, "note": ""}


def membership_claim(element: str, factorization: str) -> dict:
    return {"type": "normal-membership", "element": element, "factorization": factorization}


def contraction_claim(matrix: list, cert: dict) -> dict:
    return {"type": "contraction", "matrix": matrix, "cert": cert}


def refuted_claims(word: str, m: ProjMat, refutes: ProjMat, epsilon_sq: str, witness: list, attract: list, repel: list) -> list[dict]:
    """A refuted word of matrix m: its word-eval claim, then the claim that
    the witness refutes eps-contraction for the candidate pair of
    `refutes`, m itself or, for very-proximal, its inverse.  The claims
    share the text of m when m is refuted."""
    matrix = mat_json(m)
    refuted = {"type": "contraction-refuted", "matrix": matrix if refutes is m else mat_json(refutes), "epsilon_sq": epsilon_sq, "witness": witness, "attract": attract, "repel": repel}
    return [word_eval_claim(word, matrix), refuted]


def selfmap_claim(matrix: list, enclosure: dict, attract: list, repel: list, repel_err_sq: str, gap_sq_hi: str, epsilon_sq: str) -> dict:
    numbers = {"attract": attract, "repel": repel, "repel_err_sq": repel_err_sq, "gap_sq_hi": gap_sq_hi, "epsilon_sq": epsilon_sq}
    return {"type": "selfmap-enclosure", "matrix": matrix, "enclosure": enclosure, **numbers}


def disjoint_claim(left: list, right: list, note: str) -> dict:
    return {"type": "set-disjoint", "left": left, "right": right, "note": note}


#: The claims of a proximal group before a very-proximal record's inverse
#: group: the contraction, the point-plane-far and the two self-maps, in the
#: order `proximal_claims` lays them out.  `_very` finds the inverse's group
#: this far past the group's first claim.
PROXIMAL_LEN = 4


def proximal_claims(m: ProjMat, cert: dict) -> list[dict]:
    """The proximal group of `m` from its record: the contraction claim,
    the point-plane-far claim of its pair at r^2, and the self-map
    enclosures of `ContractionCert.selfmap_problems` (the matrix's, then
    its transpose's with the pair's roles swapped).  A very-proximal record
    adds the group of m^-1 and the disjointness of the eps-sets that
    `dynamics.certify_very_proximal` checks, the pairs `VERY_PAIRS`."""
    matrix = mat_json(m)
    c, eps_sq, transpose = cert["contraction"], cert["epsilon_sq"], [list(col) for col in zip(*matrix)]
    out = [
        contraction_claim(matrix, c),
        {"type": "point-plane-far", "point": c["attract"], "plane": c["repel"], "r_sq": cert["r_sq"]},
        selfmap_claim(matrix, cert["fixed_point"], c["attract"], c["repel"], c["repel_err_sq"], c["gap_sq_hi"], eps_sq),
        selfmap_claim(transpose, cert["fixed_plane_dual"], c["repel"], c["attract"], c["attract_err_sq"], c["gap_sq_hi"], eps_sq),
    ]
    if "inverse" in cert:
        ends = (c, cert["inverse"]["contraction"])  # the eps-sets A+, R+, A-, R-
        sets = [one for d in ends for one in ([ball_json(d["attract"], d["epsilon_sq"])], [hnbhd_json(d["repel"], d["epsilon_sq"])])]
        out += proximal_claims(m.inverse(), cert["inverse"])
        out += [disjoint_claim(sets[i], sets[j], f"very: {PAIR_LABELS[i]} vs {PAIR_LABELS[j]}") for i, j in VERY_PAIRS]
    return out


def certified_claims(word: str, m: ProjMat, cert: dict, membership: dict | None = None) -> list[dict]:
    """A certified word of matrix m: its word-eval claim, the
    normal-membership claim when given, then its contraction claim or, for
    a proximal record, its proximal group.  The word-eval claim shares the
    text of m that the evidence's first claim holds."""
    evidence = proximal_claims(m, cert) if "contraction" in cert else [contraction_claim(mat_json(m), cert)]
    return [word_eval_claim(word, evidence[0]["matrix"]), *([membership] if membership else []), *evidence]


def b1b2b3_claims(attract: list, repel: list, host: list) -> list[dict]:
    """The produced sets disjoint, and both inside the host set."""
    sets = ((attract, "attracting"), (repel, "repelling"))
    inside = [{"type": "set-contains", "outer": host, "inner": s, "closed_inner": False, "note": f"{which} set inside host"} for s, which in sets]
    return [disjoint_claim(attract, repel, "produced sets disjoint"), *inside]


def _pair_claims(players: list[tuple[str, list]], passed, claim) -> list[dict]:
    """`claim(left, right, note)` of each of the players' `tuple_pairs`
    that `passed`, one flag per pair walked, marks True."""
    return [claim(left, right, f"{a} vs {b}") for (left, right, a, b), ok in zip(tuple_pairs(players), passed) if ok]


def matrix_tuple_claims(players: dict, names: list[str], groups: list[list[dict]], passed) -> list[dict]:
    """A projective tuple, players {name: {label: set}} in the order of
    `names`: the `tuple_pairs` it passed, then each player's very group."""
    pairs = _pair_claims([(name, [players[name][label] for label in PAIR_LABELS]) for name in names], passed, disjoint_claim)
    return pairs + [c for group in groups for c in group]


def tree_tuple_claims(words: list[str], lengths: list[int], shadows: list[list[dict]], passed) -> list[dict]:
    """A tree tuple of hyperbolic words: their classifications, their axis
    shadows (A+, R+, A-, R-), then the `tuple_pairs` of players t0, t1, ...
    that it passed."""
    players = [(f"t{i}", sets) for i, sets in enumerate(shadows)]
    pairs = _pair_claims(players, passed, lambda left, right, note: {"type": "shadow-disjoint", "left": left, "right": right, "note": note})
    classes = [classify_claim(w, "hyperbolic", n) for w, n in zip(words, lengths)]
    return classes + [{"type": "tree-evidence", "word": w, "sets": sets} for w, sets in zip(words, shadows)] + pairs


def oracle_claim(max_len: int, result: str, word: str | None, names: list[str]) -> dict:
    return {"type": "oracle", "max_len": max_len, "result": result, "word": word, "names": names}


def normal_form_claim(word: str, syllables: list, tail: int) -> dict:
    return {"type": "tree-normal-form", "word": word, "syllables": syllables, "tail": tail}


def classify_claim(word: str, kind: str, translation_length: int | None) -> dict:
    return {"type": "tree-classify", "word": word, "kind": kind, "translation_length": translation_length}


def kernel_claim(elements: list[int]) -> dict:
    return {"type": "kernel", "elements": elements}


# ---------------------------------------------------------------------------
# Certificate assembly and canonical dumping
# ---------------------------------------------------------------------------


def certificate(place: Place | None, backend: str, header: dict, task: dict, verdict: str, result: dict, claims: list[dict]) -> dict:
    return {
        "format": FORMAT,
        "tool": {"name": "freecert", "version": __version__},
        "seed": 0,
        "place": str(place) if place is not None else None,
        "backend": backend,
        "header": header,
        "task": task,
        "verdict": verdict,
        "result": result,
        "claims": claims,
    }


def _refuse(obj):
    """The encoder's hook for a value it does not write: `dumps` turns the
    CertificateError carrying `obj` into the one that names its field."""
    raise CertificateError(obj)


#: The one canonical encoder, `json`'s C one.  A certificate is a freshly
#: built tree, so it skips the check for circular references.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False, default=_refuse)


def dumps(cert: dict) -> str:
    """The canonical certificate text: that of `json.dumps(cert,
    sort_keys=True, separators=(",", ":"))` and a newline, which `json`'s C
    encoder writes.  Keys come in sorted order, with no whitespace, and
    strings in ASCII with JSON escapes.  A certificate holds only `str`,
    `int`, `bool`, `None`, `list`, `tuple` and `dict` with `str` keys.
    CertificateError names the first field, in key order, whose number has
    too many digits to write; any other value `json` does not write is a
    TypeError."""
    try:
        return _ENCODER.encode(cert) + "\n"
    except CertificateError as e:
        raise _refusal(cert, e.args[0]) from None


def _refusal(cert: dict, obj) -> Exception:
    """The error for a value `dumps` does not write."""
    if not isinstance(obj, _Unprintable):
        return TypeError(f"{type(obj).__name__} is not JSON serializable")
    bits = max(obj.x.numerator.bit_length(), obj.x.denominator.bit_length())
    return CertificateError(
        f"certificate field {_field_of(cert, obj)} holds a number of about {bits * 30103 // 100000 + 1} digits, "
        f"over the {sys.get_int_max_str_digits()} Python writes: raise epsilon-sq or lower max-n (or m-max, k-max)"
    )


def _field_of(node, target, path: str = "") -> str | None:
    """The dotted path of `target` inside nested dicts, lists and tuples."""
    if node is target:
        return path
    if isinstance(node, dict):
        children = ((f"{path}.{k}" if path else k, v) for k, v in sorted(node.items()))
    elif isinstance(node, (list, tuple)):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    return next((found for p, v in children if (found := _field_of(v, target, p)) is not None), None)


#: The one decoder, built once as `_ENCODER` is: `json.loads` with these
#: hooks would build a decoder and its scanner for every certificate.
_DECODER = json.JSONDecoder(parse_float=_Float, parse_constant=_Float)


def loads(text: str) -> dict:
    """The certificate in `text`, each number with a fraction or exponent
    (and NaN, Infinity) read as a `_Float`; VerifyError on text that is not
    JSON, is nested too deep to decode, holds an integer of more digits than
    Python converts, or lacks the format marker.  A leading byte order mark
    is refused as `json.loads` refuses it."""
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise VerifyError(f"not valid certificate JSON: {e}") from None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise VerifyError("missing or unsupported certificate format marker")
    return data


def verify_text(text: str) -> tuple[dict, list[str]]:
    """The certificate in `text` and why it fails verification: first,
    when `text` is not the text `dumps` writes of it (indented, keys out
    of order, a float, an escape `dumps` would not write), then the
    failures of `verify`.  VerifyError as `loads` and `verify` raise it."""
    cert = loads(text)
    try:
        canonical = dumps(cert) == text
    except TypeError:  # a _Float
        canonical = False
    failures = verify(cert)[1]
    return cert, failures if canonical else ["certificate text is not the canonical text of its JSON", *failures]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _check_contraction(matrix: ProjMat, stored: dict, ctx: CertContext) -> bool:
    """Re-derive the contraction facts for the stored candidate pair.

    Checks, in order: the stored gap bound is a genuine upper bound for
    kappa^2; the stored direction errors bound the recomputed ones for the
    same candidates; the image-radius inequality B <= eps holds from the
    stored numbers, and the stored image radius lies between B and eps.
    """
    eps_sq = rat_from(stored["epsilon_sq"])
    gap_hi = rat_from(stored["gap_sq_hi"])
    a_err = rat_from(stored["attract_err_sq"])
    r_err = rat_from(stored["repel_err_sq"])
    if gap_hi < contraction_gap_sq(matrix).hi:
        return False
    dirs = direction_candidates(matrix)
    if dirs.attract != ctx.point(stored["attract"]) or dirs.repel != ctx.plane(stored["repel"]):
        return False
    if dirs.attract_err_sq is None or dirs.repel_err_sq is None:
        return False
    if a_err < dirs.attract_err_sq or r_err < dirs.repel_err_sq:
        return False
    bound = image_radius_bound(gap_hi, eps_sq, a_err, r_err)
    return bound is not None and bound * bound <= rat_from(stored["image_radius_sq"]) <= eps_sq


def _rows_key(data) -> tuple:
    return tuple(map(tuple, data))


#: The task fields that hold words: a word, a list of words, or an object
#: whose values are words or lists of words.
TASK_WORDS = ("element", "x", "word", "words", "players", "normals")


def _bound_task_words(task: dict, group: MarkedGroup | None) -> dict:
    """Each word the task holds, by its text, as `bounded_word` returns it
    in `group`: its parse, or with no group the text itself, whose length
    alone is bounded.  VerifyError when a word is over the bounds.  A value
    that is no string, or a word with a bad exponent or an unknown
    generator, is left to the claim or binder that reads it."""
    words = {}
    for field in TASK_WORDS:
        value = task.get(field)
        for item in value.values() if isinstance(value, dict) else [value]:
            for word in item if isinstance(item, list) else [item]:
                if not isinstance(word, str):
                    continue
                try:
                    words[word] = bounded_word(word, group)
                except WordBoundError as e:
                    raise VerifyError(f"task {field} {e}") from None
                except (ValueError, KeyError):  # a bad exponent, an unknown generator
                    pass
    return words


def _check_selfmap(claim: dict, ctx: CertContext) -> bool:
    """The stored ball passes the self-map test with the stored numbers,
    and the stored Lipschitz, region and move numbers are the derived ones."""
    matrix = ctx.matrix(claim["matrix"])
    gap_hi = rat_from(claim["gap_sq_hi"])
    if contraction_gap_sq(matrix).hi > gap_hi:
        return False
    enc = claim["enclosure"]
    center, t_sq = ctx.point(enc["center"]), rat_from(enc["radius_sq"])
    r_err, eps_sq = rat_from(claim["repel_err_sq"]), rat_from(claim["epsilon_sq"])
    attract, repel = ctx.point(claim["attract"]), ctx.plane(claim["repel"])
    _, derived = selfmap_at(matrix, center, attract, repel, r_err, gap_hi, eps_sq, Ladder([t_sq.as_integer_ratio()]))
    stored = Enclosure(Ball(center, t_sq), *(rat_from(enc[k]) for k in ("lipschitz_sq", "region_low_sq", "move_sq")))
    return derived == stored


class CertContext:
    """What a certificate's claims are checked against, beyond the claim
    itself, for all claims of the certificate and for its verdict's row.
    The header is read once, when the context is built: the generator
    group and its dimension when it has `generators`, the amalgam and its
    Bass-Serre tree when it has `amalgam`.  A certificate with a place
    must have the former and one without the latter, and a table that
    does not read is VerifyError, whatever the claims.  Then one walk
    bounds every task word with `bounded_word` in the group, before any
    word is evaluated, and keeps the word each bound parses.

    Every claim check and binder reads a word through the one reader of
    its backend, once per text: `word` and `eval` (its header evaluation,
    the one exact value of that word's matrix) in the group, a task word
    from its bound's parse, and `tree_word` in the amalgam, whose
    `classify` `tree_class` keeps beside it.  Each matrix,
    point and hyperplane a claim holds is read once too: `matrix`,
    `point` and `plane` refuse a value over MAX_DIM, then read it at the
    certificate's place and dimension, and return the same object
    wherever it recurs.  So is each shadow: `shadow` refuses a vertex key
    over MAX_VERTEX_KEY, then builds the shadow of its base edge."""

    def __init__(self, place: Place | None, header: dict, task: dict):
        if not isinstance(header, dict):
            raise VerifyError("certificate header is not an object")
        self.place, self.task = place, task if isinstance(task, dict) else {}
        self._matrices, self._points, self._planes, self._evals, self._tree_words, self._classes, self._shadows = {}, {}, {}, {}, {}, {}, {}
        gens, amalgam = header.get("generators"), header.get("amalgam")
        self._group = self._generators(gens) if gens or place is not None else None
        self._amalgam = amalgam_from(amalgam) if amalgam or place is None else None
        self.dim = None if self._group is None else self._group.dim
        self.tree = None if self._amalgam is None else BassSerreTree(self._amalgam)
        self._words = _bound_task_words(self.task, self._group)

    def _generators(self, gens) -> MarkedGroup:
        """The group of the header's generator table, each matrix read at the place."""
        if not gens or not isinstance(gens, dict):
            raise VerifyError("certificate lacks a generator table")
        matrices = []
        for name, m in sorted(gens.items()):
            try:
                matrices.append((name, self.matrix(m)))
            except (ValueError, TypeError) as e:  # no invertible square matrix of rationals: no word evaluates
                raise VerifyError(f"bad generator {name}: {e}") from None
        try:
            return MarkedGroup(tuple(matrices))
        except ValueError as e:  # of two dimensions or places
            raise VerifyError(str(e)) from None

    @staticmethod
    def _once(memo: dict, key_of, read, data, *args):
        """read(data, *args), kept in `memo` under key_of(data): the JSON
        value's strings, equal only for equal texts, or the vertices of a
        base edge, whose integers are checked, so equal keys read alike.  A
        value whose key does not build or hash (a TypeError) is read
        uncached, and a read that raises stores nothing, so it fails alike
        wherever it recurs."""
        try:
            key = key_of(data)
            out = memo.get(key, _UNREAD)
        except TypeError:  # no key: a row that is no list, or a value that does not hash
            return read(data, *args)
        if out is _UNREAD:
            memo[key] = out = read(data, *args)
        return out

    def matrix(self, data) -> ProjMat:
        """`mat_from(data)` at the certificate's place, once per value."""
        _within_max_dim(data, "matrix of {} rows")
        return self._once(self._matrices, _rows_key, mat_from, data, self.place)

    def point(self, data) -> ProjPoint:
        """`point_from(data)` at the certificate's dimension, once per value."""
        _within_max_dim(data, "vector of {} coordinates")
        return self._once(self._points, tuple, point_from, data, self.dim)

    def plane(self, data) -> ProjHyperplane:
        """`plane_from(data)` at the certificate's dimension, once per value."""
        _within_max_dim(data, "vector of {} coordinates")
        return self._once(self._planes, tuple, plane_from, data, self.dim)

    @property
    def group(self) -> MarkedGroup:
        """The generator group, which a claim or binder of the other
        backend lacks."""
        if self._group is None:
            raise VerifyError("certificate lacks a generator table")
        return self._group

    @property
    def amalgam(self) -> AmalgamData:
        """The amalgam, which a claim or binder of the other backend lacks."""
        if self._amalgam is None:
            raise VerifyError("certificate lacks an amalgam table")
        return self._amalgam

    def word(self, text: str):
        """The word `text` parsed in the generator group, once per text: the
        one reader of a matrix word."""
        return self._once(self._words, _word_text, self.group.parse_word, text)

    def eval(self, text: str) -> ProjMat:
        """The header evaluation of the word `text`, once per text."""
        return self._once(self._evals, _word_text, lambda t: self.group.eval(self.word(t)), text)

    def tree_word(self, text: str):
        """The word `text` in the amalgam, in normal form, once per text:
        the one reader of a tree word."""
        return self._once(self._tree_words, _word_text, lambda t: parse_word(self.amalgam, t), text)

    def tree_class(self, text: str) -> Classification:
        """`classify` of the tree word `text`, once per text: the
        `tree-classify` and `tree-evidence` claims of a word share it."""
        return self._once(self._classes, _word_text, lambda t: classify(self.tree_word(t)), text)

    def shadow(self, data) -> ShadowSet:
        """The shadow of the base edge `data` ({"x": vertex, "y": vertex})
        on the tree, once per edge: every `shadow-disjoint` claim that
        names it shares it."""
        return self._once(self._shadows, _edge_from, lambda d: ShadowSet(self.tree, *_edge_from(d)), data)


_UNREAD = object()  # what `_once` finds under a key not yet read


def _word_text(text) -> str:
    """A word's text, the key its reader keeps it under; a value that is
    no string is a ValueError that names it."""
    if not isinstance(text, str):
        raise ValueError(f"word {text!r} is no string")
    return text


def _check_refutation(claim: dict, ctx: CertContext) -> bool:
    """The witness refutes eps-contraction for the claim matrix's pair.  At
    p-adic places the pair must be that matrix's direction candidates; the
    archimedean ones come from power iteration, which is not re-run here.
    Which matrix a verdict may refute is its row's to bind."""
    m = ctx.matrix(claim["matrix"])
    x, attract, repel = ctx.point(claim["witness"]), ctx.point(claim["attract"]), ctx.plane(claim["repel"])
    if ctx.place.is_padic:
        dirs = direction_candidates(m)
        if (dirs.attract, dirs.repel) != (attract, repel):
            return False
    return witness_refutes(m, x, attract, repel, rat_from(claim["epsilon_sq"]))


def check_claim(claim: dict, ctx: CertContext) -> bool:
    """Re-check one claim against the certificate context `verify` builds."""
    place, kind = ctx.place, claim.get("type")
    if kind == "set-disjoint":
        return set_disjoint(set_from(claim["left"], ctx), set_from(claim["right"], ctx), place).kind == "disjoint"
    if kind == "set-contains":
        closed = claim.get("closed_inner", False)
        return type(closed) is bool and set_contains(set_from(claim["outer"], ctx), set_from(claim["inner"], ctx), place, closed)
    if kind == "point-plane-far":
        return point_plane_far(ctx.point(claim["point"]), ctx.plane(claim["plane"]), rat_from(claim["r_sq"]), place)
    if kind == "word-eval":
        return ctx.eval(claim["word"]) == ctx.matrix(claim["matrix"])
    if kind == "contraction":
        return _check_contraction(ctx.matrix(claim["matrix"]), claim["cert"], ctx)
    if kind == "contraction-refuted":
        return _check_refutation(claim, ctx)
    if kind == "selfmap-enclosure":
        return _check_selfmap(claim, ctx)
    if kind == "normal-membership":
        return ctx.eval(claim["element"]).proportional_to(ctx.eval(claim["factorization"]))
    if kind == "oracle":
        return True  # search outcome: echoed, not re-run
    if kind in ("tree-classify", "tree-evidence", "shadow-disjoint", "kernel", "tree-normal-form"):
        return _check_tree_claim(kind, claim, ctx)
    raise VerifyError(f"unknown claim type {kind!r}")


def amalgam_from(data: dict) -> AmalgamData:
    """The amalgam described by a header's `amalgam` tables; VerifyError
    when they are missing or do not read, its `part` the key of the
    table, names or embedding whose check failed."""
    if not data:
        raise VerifyError("certificate lacks an amalgam table")

    def factor(tag: str) -> FiniteGroup:
        names = data.get(f"names_{tag}")
        try:
            return FiniteGroup(data[f"table_{tag}"], tuple(names) if names else None)
        except TreeError as e:  # "table" or "names" of this factor
            e.part = f"{e.part}_{tag}"
            raise

    try:
        return AmalgamData(factor("a"), factor("b"), factor("h"), tuple(data["embed_a"]), tuple(data["embed_b"]))
    except Exception as e:  # a table missing, or of the wrong kind
        err = VerifyError(f"bad amalgam: {e}")
        err.part = getattr(e, "part", None)
        raise err from None


def _check_tree_claim(kind: str, claim: dict, ctx: CertContext) -> bool:
    am = ctx.amalgam
    if kind == "kernel":
        return kernel_of_action(am) == claim["elements"] and _ints(*claim["elements"])
    if kind == "tree-normal-form":
        w = ctx.tree_word(claim["word"])
        syllables, tail = claim["syllables"], claim["tail"]
        return [[*s] for s in w.syllables] == syllables and w.tail == tail and _ints(tail, *(i for _, i in syllables))
    if kind == "tree-classify":
        out = ctx.tree_class(claim["word"])
        length = claim["translation_length"]
        return out.kind == claim["kind"] and out.translation_length == length and (length is None or _ints(length))
    if kind == "shadow-disjoint":
        return ctx.shadow(claim["left"]).disjoint_from(ctx.shadow(claim["right"])).kind == "disjoint"
    # tree-evidence, the last kind `check_claim` sends here
    g, cls = ctx.tree_word(claim["word"]), ctx.tree_class(claim["word"])
    if cls.kind != "hyperbolic":
        return False
    sets = [shadow_json(s) for s in axis_shadow_sets(ctx.tree, g, cls)]
    return sets == claim["sets"] and _ints(*(i for s in claim["sets"] for v in (s["x"], s["y"]) for _, i in v[1]))


# ---------------------------------------------------------------------------
# The verdict table
# ---------------------------------------------------------------------------


EXIT_OK = 0
EXIT_REFUTED = 3
EXIT_UNKNOWN = 4


class Unbound(ValueError):
    """A certificate whose claims or result do not carry its verdict."""


class Binding:
    """One certificate as a row's binder reads it, and the claims its
    verdict needs, which the binder rebuilds in order."""

    def __init__(self, cert: dict, ctx: CertContext):
        self.task, self.result, self.verdict, self.ctx = ctx.task, cert["result"], cert["verdict"], ctx
        self.claims, self.rebuilt = cert["claims"], []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise Unbound(what)

    def given(self, offset: int = 0, key: str | None = None) -> dict:
        """The claim `offset` places past the rebuilt ones, or its object `key`; {} if none."""
        i = len(self.rebuilt) + offset
        out = self.claims[i] if i < len(self.claims) else {}
        out = out if key is None else out.get(key)
        return out if isinstance(out, dict) else {}

    def word(self, text: str):
        """The word that `MarkedGroup.word_str` writes as `text`, "e" for
        the empty one; a word written any other way is unbound."""
        group = self.ctx.group
        w = () if text == "e" and "e" not in group.names else self.ctx.word(text)
        self.check(group.word_str(w) == text, f"{text!r} is not a word as certificates write it")
        return w


# Records of a group, read from its claims `at` places past the rebuilt
# ones: each number a search found is read by name and laid out again, at
# the task's eps^2 and r^2 where it has them.


def _contraction(b: Binding, at: int, eps_sq: str | None, r_sq: str | None) -> dict:
    c = b.given(at, "cert")
    numbers = (c.get(k) for k in ("attract", "repel", "attract_err_sq", "repel_err_sq", "gap_sq_hi", "image_radius_sq"))
    return contraction_record(eps_sq or c.get("epsilon_sq"), *numbers)


def _proximal(b: Binding, at: int, eps_sq: str | None, r_sq: str | None) -> dict:
    c = _contraction(b, at, eps_sq, None)
    point, plane = (b.given(at + k, "enclosure") for k in (2, 3))
    enclosures = [enclosure_record(*(e.get(k) for k in ("center", "radius_sq", "lipschitz_sq", "region_low_sq", "move_sq"))) for e in (point, plane)]
    return proximal_record(r_sq or b.given(at + 1).get("r_sq"), c["epsilon_sq"], c, *enclosures)


def _very(b: Binding, at: int, eps_sq: str | None, r_sq: str | None) -> dict:
    return {**_proximal(b, at, eps_sq, r_sq), "inverse": _proximal(b, at + PROXIMAL_LEN, eps_sq, r_sq)}


def _set_of(data: list) -> list[dict]:
    """A set's JSON laid out again from its components' numbers."""
    return [ball_json(c.get("center"), c.get("radius_sq")) if c.get("kind") == "ball" else hnbhd_json(c.get("plane"), c.get("radius_sq")) for c in data]


def _certified(b: Binding, word: str, evidence, eps_sq: str | None = None, r_sq: str | None = None, member: str | None = None) -> dict:
    """Rebuild a certified word's claims (`certified_claims`) of its header
    evaluation, whose record `evidence` reads: _contraction, _proximal or
    _very.  Returns the record."""
    m = b.ctx.eval(word)
    membership = None if member is None else membership_claim(member, b.given(1).get("factorization"))
    at = 1 if member is None else 2
    cert = evidence(b, at, eps_sq, r_sq)
    b.rebuilt += certified_claims(word, m, cert, membership)
    return cert


def _oracle(b: Binding, max_len: int | None = None, result: str | None = None, names: list | None = None) -> None:
    """The oracle claim (of the task's length and verdict unless given), its
    word and, unless given, its names read from the certificate's."""
    given = b.given()
    _int(given.get("max_len"))
    max_len = _int(b.task["oracle_len"] if max_len is None else max_len)
    b.rebuilt.append(oracle_claim(max_len, b.verdict if result is None else result, given.get("word"), given.get("names") if names is None else names))


def _relation(b: Binding) -> None:
    """A relation's oracle claim, over the task's players in the claim's
    order: its word has 1 to oracle_len letters, counted unexpanded, is
    written as `word_str` writes it, so freely reduced, and multiplies out
    to the identity over the players' header evaluations."""
    players, max_len, word, names = b.task["players"], b.task["oracle_len"], b.given().get("word"), b.given().get("names")
    b.check(_ints(max_len) and 1 <= max_len <= MAX_ORACLE_LEN, f"oracle_len is outside 1..MAX_ORACLE_LEN = {MAX_ORACLE_LEN}")
    b.check(isinstance(names, list) and sorted(names) == sorted(players), "oracle names are not the task's players")
    b.check(1 <= letter_count(_word_text(word)) <= max_len, f"relation {word!r} is not of 1 to {max_len} letters")
    group = MarkedGroup(tuple((name, b.ctx.eval(players[name])) for name in names))
    w = group.parse_word(word)
    b.check(group.word_str(w) == word, f"relation {word!r} is not freely reduced")
    b.check(group.eval(w).is_identity(), f"relation {word!r} is not the identity")
    b.check(b.result == {"oracle": b.verdict, "relation": word}, "result is not the oracle claim's")
    _oracle(b)


def _echoed(b: Binding) -> None:
    """A certified tuple's result echoes its verdict and gives no detail."""
    b.check(b.result["verdict"] == b.verdict and b.result["witness_detail"] == "", "result verdict is not the certificate's")


# Binders: each rebuilds the claims its verdict needs, in order, from the
# task, the result fields its row names in `binds`, and its groups' numbers.


def _element(b: Binding) -> None:
    word = b.task["element"]
    b.rebuilt.append(word_eval_claim(word, mat_json(b.ctx.eval(word))))


def _decided(b: Binding) -> None:
    """The element certified at the task's eps^2 and r^2, by the evidence of its subop."""
    t = b.task
    evidence = {"contracting": _contraction, "proximal": _proximal, "very-proximal": _very}[t["subop"]]
    b.check(b.result["cert"] == _certified(b, t["element"], evidence, t["epsilon_sq"], t.get("r_sq")), "result cert is not the claims'")


def _refuted(b: Binding) -> None:
    """The element's `refuted_claims`, of its own matrix or for
    very-proximal its inverse's: the one binder that reads a claim's
    matrix, to learn which."""
    t, given, m = b.task, b.given(1), b.ctx.eval(b.task["element"])
    # the inverse is derived only when the matrix is not the element's
    refutes = m.inverse() if t["subop"] == "very-proximal" and given.get("matrix") != mat_json(m) else m
    b.rebuilt += refuted_claims(t["element"], m, refutes, t["epsilon_sq"], b.result["counterexample"], given.get("attract"), given.get("repel"))


def _power(b: Binding) -> None:
    """The element's word-eval claim, then the proximal group of element^n."""
    t, n = b.task, b.result["n"]
    b.check(_ints(n, t["max_n"]) and 1 <= n <= t["max_n"] <= MAX_EXPONENT, f"result n is outside 1..max_n, or max_n over MAX_EXPONENT = {MAX_EXPONENT}")
    _element(b)
    cert = _proximal(b, 0, t["epsilon_sq"], t["r_sq"])
    b.rebuilt += proximal_claims(b.ctx.eval(t["element"]).power(n), cert)
    b.check(b.result["cert"] == cert, "result cert is not the claims'")


def _matrix_tuple(b: Binding) -> None:
    """The set-disjoint claims of the result's sets, for the players in
    the order of the oracle claim's names, each player's very-proximal
    group of its header evaluation and inverse, then the oracle claim."""
    players, words = b.result["players"], b.task["players"]
    k = len(players)
    b.check(pair_count(k) <= len(b.claims), f"{k} players need {pair_count(k)} disjointness claims")
    names = b.claims[-1].get("names")
    b.check(isinstance(names, list) and sorted(names) == sorted(players) == sorted(words), "result players are not the task's")
    laid = {name: {label: _set_of(players[name][label]) for label in PAIR_LABELS} for name in names}
    b.check(players == laid, "result players are not the claims' sets")
    at, groups = pair_count(k), []
    for name in names:
        groups.append(proximal_claims(b.ctx.eval(words[name]), _very(b, at, None, None)))
        at += len(groups[-1])
    b.rebuilt += matrix_tuple_claims(laid, names, groups, [True] * pair_count(k))
    _oracle(b, result=b.result["oracle"], names=names)
    _echoed(b)


def _tree_tuple(b: Binding) -> None:
    """`tree_tuple_claims` of the task's words, then the oracle claim; the
    lengths and shadows are read from the claims, whose checks recompute them."""
    words = b.task["words"]
    k = len(words)
    b.check(pair_count(k) <= len(b.claims), f"{k} players need {pair_count(k)} disjointness claims")
    lengths = [b.given(i).get("translation_length") for i in range(k)]
    shadows = [b.given(k + i).get("sets") for i in range(k)]
    b.rebuilt += tree_tuple_claims(words, lengths, shadows, [True] * pair_count(k))
    _oracle(b, result=b.result["oracle"], names=words)
    _echoed(b)


def _prodense(b: Binding) -> None:
    """A very-proximal word per step 1 label, in task order, and per step
    2 coset, then the oracle claim of length PRODENSE_ORACLE_LEN."""
    r = b.result
    labels = [s["label"] for s in r["step1"]]
    b.check(sorted(labels) == sorted(b.task["normals"]) == sorted(r["step2"]), "step 1 labels are not the task's normals")
    for w in [s["word"] for s in r["step1"]] + [d["word"] for label in labels for d in r["step2"][label]]:
        _certified(b, w, _very)
    _oracle(b, PRODENSE_ORACLE_LEN, r["oracle"])
    b.check(r["verdict"] == b.verdict, "result verdict is not the certificate's")


def _b1b2b3(b: Binding) -> None:
    """The word's contraction, its produced sets disjoint, and both inside one host."""
    r = b.result
    b.check(r["cert"] == _certified(b, r["word"], _contraction), "result cert is not the claims'")
    attract, repel = _set_of(r["attract"]), _set_of(r["repel"])
    b.check([r["attract"], r["repel"]] == [attract, repel], "result sets are not the claims'")
    b.rebuilt += b1b2b3_claims(attract, repel, _set_of(b.given(1).get("outer")))


def _very_search(b: Binding) -> None:
    """The word g f1 g^-1 f2, very-proximal at the task's r^2 and eps^2."""
    t, r = b.task, b.result
    g = b.word(t["element"])
    word = concat(g, b.word(r["f1"]), word_inverse(g), b.word(r["f2"]))
    b.check(r["word"] == b.ctx.group.word_str(word), "result word is not g f1 g^-1 f2")
    b.check(r["cert"] == _certified(b, r["word"], _very, t["epsilon_sq"], t["r_sq"]), "result cert is not the claims'")


def _normal_proximal(b: Binding) -> None:
    r = b.result
    b.check(r["cert"] == _certified(b, r["word"], _very, member=r["word"]), "result cert is not the claims'")


def _cosets(b: Binding) -> None:
    """Per delta, its very-proximal word with the membership of word coset^-1."""
    for d in b.result["deltas"]:
        member = b.ctx.group.word_str(concat(b.word(d["word"]), word_inverse(b.word(d["coset"]))))
        _certified(b, d["word"], _very, member=member)
    b.check(b.result["failed"] == [], "a yes leaves no coset failed")


def _conjugate(b: Binding) -> None:
    r = b.result
    b.check(r["cert"] == _certified(b, r["word"], _contraction, b.task["epsilon_sq"]), "result cert is not the claims'")


def _double_coset(b: Binding) -> None:
    for item in b.result["wrapped"]:
        if "skipped" not in item:
            _certified(b, item["word"], _contraction)


def _normal_form(b: Binding) -> None:
    r = b.result
    b.check(_ints(r["tail"], *(i for _, i in r["syllables"])), "result normal form holds a number that is no integer")
    b.check(r["is_identity"] is (not r["syllables"] and r["tail"] == b.ctx.amalgam.group_h.identity), "result is_identity is wrong")
    b.rebuilt.append(normal_form_claim(b.task["word"], r["syllables"], r["tail"]))


def _classify(b: Binding) -> None:
    r = b.result
    length = r.get("translation_length")
    b.check(length is None or _ints(length), "result translation_length is no integer")
    b.rebuilt.append(classify_claim(b.task["word"], r["kind"], length))


def _expand(b: Binding) -> None:
    """The result's ball is `ball_rows` of the task's radius, row for row,
    and its count the number of rows.  Equal rows may still hold `true`
    for 1, so the entries' types are read too."""
    rows, radius, count = b.result["ball"], b.task["radius"], b.result["count"]
    b.check(_ints(radius), "task radius is no integer")
    ball = ball_rows(b.ctx.amalgam, radius)
    b.check(rows == ball and {int, type(None)}.issuperset(map(type, chain.from_iterable(rows))), "result ball is not the ball of the task's radius")
    b.check(_ints(count) and count == len(rows), "result count is not the listing's")


def _kernel(b: Binding) -> None:
    r = b.result
    b.check(_ints(*r["elements"]), "result elements hold a number that is no integer")
    b.check(r["names"] == [b.ctx.amalgam.group_h.name_of(x) for x in r["elements"]], "result names are not the kernel's")
    b.rebuilt.append(kernel_claim(r["elements"]))


class Row(Record):
    """What one (op, subop, verdict) means: its exit code, the binder of
    the claims it needs (None: it needs none), the result fields that
    binder binds, and the result fields the verdict states without a
    claim (`field.sub` for a part of one).  A result field the row names
    in neither fails the certificate."""

    __slots__ = ("exit", "needs", "binds", "stated", "_named")

    def __init__(self, exit: int, needs=None, binds: tuple = (), stated: tuple = ()) -> None:
        Record.__init__(self, exit, needs, binds, stated)
        object.__setattr__(self, "_named", frozenset(binds).union(s.partition(".")[0] for s in stated))


_TUPLE_UNKNOWN = ("failed_player", "verdict", "witness_detail", "players")
_COSETS = ("deltas", "failed", "a_N")

#: (op, subop, verdict) -> Row: the only place a verdict's meaning is
#: written down.  `cli` emits each verdict with its row's exit code, and
#: `verify` checks each certificate against its row.
VERDICTS = {
    ("analyze", "profile", "ok"): Row(EXIT_OK, _element, stated=("values_sq", "exact")),
    ("analyze", "contracting", "yes"): Row(EXIT_OK, _decided, ("cert",)),
    ("analyze", "contracting", "no"): Row(EXIT_REFUTED, _refuted, ("counterexample",)),
    ("analyze", "contracting", "unknown"): Row(EXIT_UNKNOWN),
    ("analyze", "proximal", "yes"): Row(EXIT_OK, _decided, ("cert",)),
    ("analyze", "proximal", "no"): Row(EXIT_REFUTED, _refuted, ("counterexample",)),
    ("analyze", "proximal", "unknown"): Row(EXIT_UNKNOWN),
    ("analyze", "very-proximal", "yes"): Row(EXIT_OK, _decided, ("cert",)),
    ("analyze", "very-proximal", "no"): Row(EXIT_REFUTED, _refuted, ("counterexample",)),
    ("analyze", "very-proximal", "unknown"): Row(EXIT_UNKNOWN),
    ("analyze", "power-proximal", "yes"): Row(EXIT_OK, _power, ("n", "cert")),
    ("analyze", "power-proximal", "not-found"): Row(EXIT_UNKNOWN),
    ("pingpong", "oracle", "no-relation"): Row(EXIT_OK, _oracle, stated=("oracle", "relation")),
    ("pingpong", "oracle", "relation"): Row(EXIT_REFUTED, _relation, ("oracle", "relation")),
    ("pingpong", "tuple", "certified"): Row(EXIT_OK, _matrix_tuple, ("verdict", "witness_detail", "players", "oracle")),
    ("pingpong", "tuple", "refuted"): Row(EXIT_REFUTED, stated=("verdict", "witness", "witness_detail", "players")),
    ("pingpong", "tuple", "unknown"): Row(EXIT_UNKNOWN, stated=_TUPLE_UNKNOWN),
    ("pingpong", "simple-tuple", "certified"): Row(EXIT_OK, _matrix_tuple, ("verdict", "witness_detail", "players", "oracle")),
    ("pingpong", "simple-tuple", "refuted"): Row(EXIT_REFUTED, stated=("verdict", "witness", "witness_detail", "players")),
    ("pingpong", "simple-tuple", "unknown"): Row(EXIT_UNKNOWN, stated=_TUPLE_UNKNOWN),
    ("pingpong", "tree", "certified"): Row(EXIT_OK, _tree_tuple, ("verdict", "witness_detail", "oracle")),
    ("pingpong", "tree", "refuted"): Row(EXIT_REFUTED, stated=("verdict", "witness_detail")),
    ("synthesize", "truncated-prodense", "certified"): Row(
        EXIT_OK,
        _prodense,
        ("verdict", "step1", "step2", "oracle"),
        ("host", "notes", "step1_tuple", "combined", "step1.nest", "step2.coset", "step2.power"),
    ),
    ("synthesize", "truncated-prodense", "unknown"): Row(
        EXIT_UNKNOWN, stated=("host", "notes", "verdict", "step1", "step1_tuple", "step2", "combined", "oracle")
    ),
    ("synthesize", "conjugate-contract", "yes"): Row(EXIT_OK, _conjugate, ("word", "cert"), ("m",)),
    ("synthesize", "conjugate-contract", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "b1b2b3", "yes"): Row(EXIT_OK, _b1b2b3, ("word", "cert", "attract", "repel"), ("k",)),
    ("synthesize", "b1b2b3", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "very-proximal", "yes"): Row(EXIT_OK, _very_search, ("f1", "f2", "word", "cert")),
    ("synthesize", "very-proximal", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "normal-proximal", "yes"): Row(EXIT_OK, _normal_proximal, ("word", "cert")),
    ("synthesize", "normal-proximal", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "coset-pingpong", "yes"): Row(EXIT_OK, _cosets, ("deltas", "failed"), ("a_N", "deltas.power")),
    ("synthesize", "coset-pingpong", "unknown"): Row(EXIT_UNKNOWN, stated=_COSETS),
    ("synthesize", "coset-pingpong", "not-found"): Row(EXIT_UNKNOWN, stated=_COSETS),
    ("synthesize", "double-coset", "yes"): Row(EXIT_OK, _double_coset, ("wrapped",), ("wrapped.coset", "wrapped.m", "wrapped.n", "wrapped.skipped")),
    ("synthesize", "double-coset", "unknown"): Row(EXIT_UNKNOWN, stated=("reason", "wrapped")),
    ("tree", "normal-form", "ok"): Row(EXIT_OK, _normal_form, ("syllables", "tail", "is_identity")),
    ("tree", "classify", "ok"): Row(EXIT_OK, _classify, ("kind", "translation_length"), ("axis_edge", "fixed_vertex")),
    ("tree", "expand", "ok"): Row(EXIT_OK, _expand, ("ball", "count")),
    ("tree", "kernel", "ok"): Row(EXIT_OK, _kernel, ("elements", "names")),
}
SUBOPS = {(op, subop) for op, subop, _ in VERDICTS}


def check_verdict(cert: dict, ctx: CertContext) -> str | None:
    """Why the certificate's claims and result do not carry its verdict,
    or None; VerifyError for a task the table does not know."""
    op, subop, verdict = ctx.task.get("op"), ctx.task.get("subop"), cert.get("verdict")
    if not (isinstance(op, str) and isinstance(subop, str) and (op, subop) in SUBOPS):
        raise VerifyError(f"unknown task {op!r} {subop!r}")
    row = VERDICTS.get((op, subop, verdict)) if isinstance(verdict, str) else None
    if row is None:
        return f"verdict {verdict!r} is not a verdict of {op} {subop}"
    result = cert.get("result")
    if not isinstance(result, dict):
        return f"verdict {verdict!r} of {op} {subop}: result is not an object"
    unnamed = sorted(result.keys() - row._named)
    why = f"result field {unnamed[0]!r} is neither bound nor stated" if unnamed else None
    if why is None and row.needs is not None:
        b = Binding(cert, ctx)
        try:
            row.needs(b)
            why = _difference(b.rebuilt, b.claims)
        except VerifyError:
            raise
        except Unbound as e:  # a claim rebuilt so far that differs comes first
            why = _difference(b.rebuilt, b.claims[: len(b.rebuilt)]) or str(e)
        except Exception as e:  # a field missing or of the wrong kind
            why = f"{type(e).__name__}: {e}"
    return None if why is None else f"verdict {verdict!r} of {op} {subop}: {why}"


def _difference(rebuilt: list[dict], claims: list[dict]) -> str | None:
    """Where the claims differ from the rebuilt ones: the first differing
    claim's index, its type and its first differing field.  After `loads`
    and the claim checks, which read every integer of a claim exactly,
    `==` tells `true` from 1 on every claim field."""
    if rebuilt == claims:
        return None
    i = next((i for i, (want, got) in enumerate(zip(rebuilt, claims)) if want != got), min(len(rebuilt), len(claims)))
    if i == len(claims):
        return f"needs a {rebuilt[i]['type']} claim as claim {i}"
    if i == len(rebuilt):
        return f"claim {i} ({claims[i].get('type')}) belongs to no group of the verdict"
    want, got, path = rebuilt[i], claims[i], []
    while isinstance(want, dict) and isinstance(got, dict):  # the first key that differs, dotted into objects
        path.append(next(k for k in [*want, *got] if k not in want or k not in got or want[k] != got[k]))
        want, got = want.get(path[-1]), got.get(path[-1])
    return f"claim {i} ({claims[i].get('type')}) {'.'.join(path)} differs from the rebuilt claim"


def verify(cert: dict) -> tuple[bool, list[str]]:
    """Re-check every claim, then the verdict against its row of
    VERDICTS; returns (all passed, failure messages)."""
    place = place_from(cert["place"]) if cert.get("place") else None
    ctx = CertContext(place, cert.get("header", {}), cert.get("task"))
    failures = []
    claims = cert.get("claims")
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        raise VerifyError("certificate lacks a claims list of objects")
    for i, claim in enumerate(claims):
        try:
            ok = check_claim(claim, ctx)
        except VerifyError:
            raise
        except Exception as e:  # malformed payloads inside a claim
            failures.append(f"claim {i} ({claim.get('type')}): {e}")
            continue
        if not ok:
            note = claim.get("note")
            failures.append(f"claim {i} ({claim.get('type')}{f': {note}' if note else ''}) failed")
    unbound = check_verdict(cert, ctx)
    if unbound is not None:
        failures.append(unbound)
    return not failures, failures
