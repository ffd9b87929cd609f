"""The certificate format and its verifier.

Certificates are canonical JSON: sorted keys, two-space indent, exact
rationals as "p/q" strings, a fixed seed echo, and no timestamps, so a
rerun produces byte-identical output.  Every certificate carries a list
of claims, which `cli` builds; the verifier re-checks each claim
semantically (set verdicts, containments, memberships, word algebra,
enclosure inequalities, deterministic recomputation of certified data)
without re-running any search.  Oracle no-relation results are search
outcomes and are echoed, not re-run.

What a verdict means is written down once, in `VERDICTS`, keyed by
(op, subop, verdict): its exit code, the binder of the claims it needs,
the result fields that binder binds, and what it states without proof.
A binder walks the claims in order, group by group (a certified word is
its word-eval claim, any normal-membership claim, then a contraction or
a proximal group), and compares them as plain JSON with each other, with
the task and with the result.  `cli` emits each verdict with its row's
exit code, and `verify` checks each certificate against its row once
every claim has been re-checked.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import cached_property

from . import __version__
from .checker import Enclosure, image_radius_bound, point_plane_far, selfmap_at, selfmap_radii, witness_refutes
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
from .scalar import Place, Rat, Record, format_rat, parse_place, parse_rat
from .tree import AmalgamData, BassSerreTree, FiniteGroup, ShadowSet, axis_shadow_sets, classify, kernel_of_action, parse_word

FORMAT = "freecert-certificate/1"

#: Largest exponent a power search may try: `max-n` (g^n), `m-max`
#: (g^m x g^-m) and `k-max` (g^-(k+1)).  Each exponent is one more
#: certification of a matrix whose entries grow with it, so a larger
#: value would not fail but run for minutes.  `verify` refuses a larger
#: `max_n` before it forms g^n, which at n = 10^6 took seconds.
MAX_EXPONENT = 64


class VerifyError(ValueError):
    """Certificate is structurally unusable (distinct from failing checks)."""


class CertificateError(ValueError):
    """A certificate that cannot be written."""


class _Unprintable:
    """A number `rat` could not write: Python converts no integer of more
    than `sys.get_int_max_str_digits()` digits to text.  `dumps` refuses
    the certificate, naming the field that holds it."""

    def __init__(self, x: Fraction):
        self.x = x


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def rat(x: Rat) -> "str | _Unprintable":
    x = Fraction(x)
    try:
        return format_rat(x)
    except ValueError:  # too many digits
        return _Unprintable(x)


def place_from(s: str) -> Place:
    try:
        if not isinstance(s, str):
            raise ValueError("not a string")
        return parse_place(s)
    except ValueError as e:
        raise VerifyError(f"bad place {s!r}: {e}") from None


def vec_json(v) -> list[str]:
    return [rat(c) for c in v]


def vec_from(data, dim: int | None) -> tuple:
    """The coordinates of `data`, refused over MAX_DIM.  Unless `dim` is
    None, a count other than `dim` is a ValueError, which fails the claim."""
    if len(data) > MAX_DIM:
        raise VerifyError(f"vector of {len(data)} coordinates exceeds MAX_DIM = {MAX_DIM}")
    if dim is not None and len(data) != dim:
        raise ValueError(f"vector of {len(data)} coordinates in a certificate of dimension {dim}")
    return tuple(parse_rat(c) for c in data)


def mat_json(m: ProjMat) -> list[list[str]]:
    return [[rat(c) for c in row] for row in m.entries]


def mat_from(data, place: Place) -> ProjMat:
    """The matrix of `data`, refused over MAX_DIM before its det is computed."""
    if len(data) > MAX_DIM:
        raise VerifyError(f"matrix of {len(data)} rows exceeds MAX_DIM = {MAX_DIM}")
    return ProjMat(tuple(tuple(parse_rat(c) for c in row) for row in data), place)


def point_json(p: ProjPoint) -> list[str]:
    return vec_json(p.rep)


def point_from(data, dim: int | None) -> ProjPoint:
    return ProjPoint(vec_from(data, dim))


def plane_json(h: ProjHyperplane) -> list[str]:
    return vec_json(h.functional)


def plane_from(data, dim: int | None) -> ProjHyperplane:
    return ProjHyperplane(vec_from(data, dim))


def component_json(c) -> dict:
    if isinstance(c, Ball):
        return {"kind": "ball", "center": point_json(c.center), "radius_sq": rat(c.radius_sq)}
    return {"kind": "hnbhd", "plane": plane_json(c.plane), "radius_sq": rat(c.radius_sq)}


def component_from(data, dim: int | None):
    if data["kind"] == "ball":
        return Ball(point_from(data["center"], dim), parse_rat(data["radius_sq"]))
    if data["kind"] == "hnbhd":
        return HNbhd(plane_from(data["plane"], dim), parse_rat(data["radius_sq"]))
    raise VerifyError(f"bad set component kind {data.get('kind')!r}")


def set_json(s: ProjSet) -> list[dict]:
    return [component_json(c) for c in s.components]


def set_from(data, dim: int | None) -> ProjSet:
    return ProjSet(tuple(component_from(c, dim) for c in data))


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


def dumps(cert: dict) -> str:
    """The canonical JSON text; CertificateError names the first field,
    in key order, whose number has too many digits to write."""

    def refuse(obj):
        if not isinstance(obj, _Unprintable):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        bits = max(obj.x.numerator.bit_length(), obj.x.denominator.bit_length())
        raise CertificateError(
            f"certificate field {_field_of(cert, obj)} holds a number of about {bits * 30103 // 100000 + 1} digits, "
            f"over the {sys.get_int_max_str_digits()} Python writes: raise epsilon-sq or lower max-n (or m-max, k-max)"
        )

    return json.dumps(cert, sort_keys=True, indent=2, ensure_ascii=True, default=refuse) + "\n"


def _field_of(node, target, path: str = "") -> str | None:
    """The dotted path of `target` inside nested dicts and lists."""
    if node is target:
        return path
    if isinstance(node, dict):
        children = ((f"{path}.{k}" if path else k, v) for k, v in sorted(node.items()))
    elif isinstance(node, list):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    return next((found for p, v in children if (found := _field_of(v, target, p)) is not None), None)


def loads(text: str) -> dict:
    """The certificate in `text`; VerifyError on text that is not JSON, is
    nested too deep to decode, holds an integer of more digits than
    Python converts, or lacks the format marker."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise VerifyError(f"not valid certificate JSON: {e}") from None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise VerifyError("missing or unsupported certificate format marker")
    return data


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _check_contraction(matrix: ProjMat, stored: dict, dim: int | None) -> bool:
    """Re-derive the contraction facts for the stored candidate pair.

    Checks, in order: the stored gap bound is a genuine upper bound for
    kappa^2; the stored direction errors bound the recomputed ones for the
    same candidates; the image-radius inequality B <= eps holds from the
    stored numbers, and the stored image radius lies between B and eps.
    """
    eps_sq = parse_rat(stored["epsilon_sq"])
    gap_hi = parse_rat(stored["gap_sq_hi"])
    a_err = parse_rat(stored["attract_err_sq"])
    r_err = parse_rat(stored["repel_err_sq"])
    if gap_hi < contraction_gap_sq(matrix).hi:
        return False
    dirs = direction_candidates(matrix)
    if dirs.attract != point_from(stored["attract"], dim) or dirs.repel != plane_from(stored["repel"], dim):
        return False
    if dirs.attract_err_sq is None or dirs.repel_err_sq is None:
        return False
    if a_err < dirs.attract_err_sq or r_err < dirs.repel_err_sq:
        return False
    bound = image_radius_bound(gap_hi, eps_sq, a_err, r_err)
    return bound is not None and bound * bound <= parse_rat(stored["image_radius_sq"]) <= eps_sq


def _check_selfmap(claim: dict, ctx: CertContext) -> bool:
    """The stored ball passes the self-map test with the stored numbers,
    and the stored Lipschitz, region and move numbers are the derived ones."""
    matrix, dim = ctx.matrix(claim["matrix"]), ctx.dim
    gap_hi = parse_rat(claim["gap_sq_hi"])
    if contraction_gap_sq(matrix).hi > gap_hi:
        return False
    enc = claim["enclosure"]
    center, t_sq = point_from(enc["center"], dim), parse_rat(enc["radius_sq"])
    r_err, eps_sq = parse_rat(claim["repel_err_sq"]), parse_rat(claim["epsilon_sq"])
    attract, repel = point_from(claim["attract"], dim), plane_from(claim["repel"], dim)
    _, derived = selfmap_at(matrix, center, attract, repel, r_err, gap_hi, eps_sq, selfmap_radii([t_sq]))
    stored = Enclosure(Ball(center, t_sq), *(parse_rat(enc[k]) for k in ("lipschitz_sq", "region_low_sq", "move_sq")))
    return derived == stored


class CertContext:
    """What a certificate's claims are checked against, beyond the claim
    itself: the generator group and its dimension, the amalgam and its
    Bass-Serre tree that the header describes, the header evaluation of
    each word (the task's element among them), and each claim matrix.
    Each is built once, on first use, for all claims of the certificate
    and for its verdict's row."""

    def __init__(self, place: Place | None, header: dict, task: dict):
        self.place, self.header, self.task = place, header, task
        self._evals: dict[str, ProjMat] = {}
        self._matrices: dict[int, tuple[list, ProjMat]] = {}  # id of the JSON list -> (the list, its matrix)

    @cached_property
    def dim(self) -> int | None:
        """The generators' dimension, which every point, hyperplane and set
        component of a claim must have; None without a generator table."""
        return self.group.dim if self.header.get("generators") else None

    @cached_property
    def group(self):
        gens = self.header.get("generators")
        if not gens:
            raise VerifyError("certificate lacks a generator table")
        return MarkedGroup(tuple((name, mat_from(m, self.place)) for name, m in sorted(gens.items())))

    def matrix(self, data: list) -> ProjMat:
        """The matrix of the JSON list `data`, parsed once per list."""
        if id(data) not in self._matrices:
            self._matrices[id(data)] = (data, mat_from(data, self.place))
        return self._matrices[id(data)][1]

    def eval(self, word: str) -> ProjMat:
        if word not in self._evals:
            self._evals[word] = self.group.eval(self.group.parse_word(word))
        return self._evals[word]

    @cached_property
    def amalgam(self):
        if not self.header.get("amalgam"):
            raise VerifyError("certificate lacks an amalgam table")
        return amalgam_from(self.header["amalgam"])

    @cached_property
    def tree(self):
        return BassSerreTree(self.amalgam)


def _check_refutation(claim: dict, ctx: CertContext) -> bool:
    """The witness refutes eps-contraction for the claim matrix's pair.  At
    p-adic places the pair must be that matrix's direction candidates; the
    archimedean ones come from power iteration, which is not re-run here.
    Which matrix a verdict may refute is its row's to bind."""
    m = ctx.matrix(claim["matrix"])
    x, attract, repel = point_from(claim["witness"], ctx.dim), point_from(claim["attract"], ctx.dim), plane_from(claim["repel"], ctx.dim)
    if ctx.place.is_padic:
        dirs = direction_candidates(m)
        if (dirs.attract, dirs.repel) != (attract, repel):
            return False
    return witness_refutes(m, x, attract, repel, parse_rat(claim["epsilon_sq"]))


def check_claim(claim: dict, ctx: CertContext) -> bool:
    """Re-check one claim against the certificate context `verify` builds."""
    place, dim = ctx.place, ctx.dim
    kind = claim.get("type")
    if kind == "set-disjoint":
        return set_disjoint(set_from(claim["left"], dim), set_from(claim["right"], dim), place).kind == "disjoint"
    if kind == "set-contains":
        return set_contains(set_from(claim["outer"], dim), set_from(claim["inner"], dim), place, claim.get("closed_inner", False))
    if kind == "point-plane-far":
        return point_plane_far(point_from(claim["point"], dim), plane_from(claim["plane"], dim), parse_rat(claim["r_sq"]), place)
    if kind == "word-eval":
        return ctx.eval(claim["word"]).proportional_to(ctx.matrix(claim["matrix"]))
    if kind == "contraction":
        return _check_contraction(ctx.matrix(claim["matrix"]), claim["cert"], dim)
    if kind == "contraction-refuted":
        return _check_refutation(claim, ctx)
    if kind == "selfmap-enclosure":
        return _check_selfmap(claim, ctx)
    if kind == "normal-membership":
        return ctx.eval(claim["element"]).proportional_to(ctx.eval(claim["factorization"]))
    if kind == "oracle":
        return True  # search outcome: echoed, not re-run
    if kind in ("tree-classify", "tree-evidence", "shadow-disjoint", "kernel", "tree-normal-form", "tree-degree"):
        return _check_tree_claim(kind, claim, ctx)
    raise VerifyError(f"unknown claim type {kind!r}")


def amalgam_from(data: dict):
    """The amalgam described by a header's `amalgam` tables."""

    def factor(tag: str) -> FiniteGroup:
        names = data.get(f"names_{tag}")
        return FiniteGroup(tuple(tuple(r) for r in data[f"table_{tag}"]), tuple(names) if names else None)

    return AmalgamData(factor("a"), factor("b"), factor("h"), tuple(data["embed_a"]), tuple(data["embed_b"]))


def _check_tree_claim(kind: str, claim: dict, ctx: CertContext) -> bool:
    am = ctx.amalgam
    if kind == "kernel":
        return kernel_of_action(am) == list(claim["elements"])
    if kind == "tree-normal-form":
        w = parse_word(am, claim["word"])
        return [list(s) for s in w.syllables] == [list(s) for s in claim["syllables"]] and w.tail == claim["tail"]
    if kind == "tree-classify":
        out = classify(parse_word(am, claim["word"]), am)
        if out.kind != claim["kind"]:
            return False
        if out.kind == "hyperbolic":
            return out.translation_length == claim["translation_length"]
        return True
    if kind == "shadow-disjoint":
        tree = ctx.tree
        s1 = ShadowSet(tree, _vertex_from(claim["left"]["x"]), _vertex_from(claim["left"]["y"]))
        s2 = ShadowSet(tree, _vertex_from(claim["right"]["x"]), _vertex_from(claim["right"]["y"]))
        return s1.disjoint_from(s2).kind == "disjoint"
    if kind == "tree-evidence":
        g = parse_word(am, claim["word"])
        cls = classify(g, am)
        if cls.kind != "hyperbolic":
            return False
        a_p, r_p, a_m, r_m = axis_shadow_sets(ctx.tree, g, cls)
        return [shadow_json(a_p), shadow_json(r_p), shadow_json(a_m), shadow_json(r_m)] == claim["sets"]
    if kind == "tree-degree":
        return len(ctx.tree.neighbors(_vertex_from(claim["vertex"]))) == claim["degree"]
    raise VerifyError(f"unknown tree claim {kind!r}")


# ---------------------------------------------------------------------------
# The verdict table
# ---------------------------------------------------------------------------


EXIT_OK = 0
EXIT_REFUTED = 3
EXIT_UNKNOWN = 4


class Unbound(ValueError):
    """A certificate whose claims or result do not carry its verdict."""


class Binding:
    """One certificate as a row's binder reads it: its task, result and
    verdict, the CertContext, and its claims, which the binder takes in
    order, each group by group."""

    def __init__(self, cert: dict, ctx: CertContext):
        self.task, self.result, self.verdict, self.ctx = ctx.task, cert["result"], cert["verdict"], ctx
        self.claims, self.at = cert["claims"], 0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise Unbound(what)

    def peek(self) -> dict:
        return self.claims[self.at] if self.at < len(self.claims) else {}

    def take(self, claim_type: str, what: str, **fields) -> dict:
        """The next claim, which must be of `claim_type` and hold `fields`."""
        claim = self.peek()
        self.check(claim.get("type") == claim_type, f"needs a {claim_type} claim {what} as claim {self.at}")
        wrong = next((k for k, v in fields.items() if claim.get(k) != v), None)
        self.check(wrong is None, f"claim {self.at} ({claim_type}) {wrong} is not that {what}")
        self.at += 1
        return claim

    def take_each(self, claim_type: str, what: str, keys: tuple[str, ...], values: list[tuple]) -> list[dict]:
        """The next len(values) claims, of `claim_type`, whose `keys` hold `values`, in order."""
        claims = self.claims[self.at : self.at + len(values)]
        held = [(c.get("type"), *(c.get(k) for k in keys)) for c in claims]
        self.check(held == [(claim_type, *v) for v in values], f"needs {len(values)} {claim_type} claims {what} from claim {self.at}")
        self.at += len(values)
        return claims

    def word(self, text: str):
        """The word that `MarkedGroup.word_str` writes as `text`, "e" for
        the empty one; a word written any other way is unbound."""
        group = self.ctx.group
        w = () if text == "e" and "e" not in group.names else group.parse_word(text)
        self.check(group.word_str(w) == text, f"{text!r} is not a word as certificates write it")
        return w


# Claim groups: each takes its claims and returns the certificate JSON they
# state, which the row compares with the result's.


def _contraction(b: Binding, matrix: list, eps_sq: str | None, r_sq: str | None) -> dict:
    """A contraction claim of `matrix`, at the task's eps^2 if it has one;
    it reads no r^2."""
    cert = b.take("contraction", "of the word", matrix=matrix)["cert"]
    b.check(eps_sq is None or cert["epsilon_sq"] == eps_sq, "contraction epsilon_sq is not the task's")
    return cert


def _proximal(b: Binding, matrix: list, eps_sq: str | None, r_sq: str | None) -> dict:
    """A contraction claim of `matrix`, the point-plane-far claim of its
    pair at the task's r^2, and the self-map enclosures of
    `ContractionCert.selfmap_problems`: the matrix's, and its transpose's
    with the pair's roles swapped, both at the contraction's gap and eps^2."""
    c = _contraction(b, matrix, eps_sq, None)
    far = b.take("point-plane-far", "of the contraction pair", point=c["attract"], plane=c["repel"])
    b.check(r_sq is None or far["r_sq"] == r_sq, "point-plane-far r_sq is not the task's")
    shared = {"gap_sq_hi": c["gap_sq_hi"], "epsilon_sq": c["epsilon_sq"]}
    point = b.take("selfmap-enclosure", "of the attracting point", matrix=matrix, attract=c["attract"], repel=c["repel"], repel_err_sq=c["repel_err_sq"], **shared)
    transpose = [list(col) for col in zip(*matrix)]
    plane = b.take("selfmap-enclosure", "of the repelling plane", matrix=transpose, attract=c["repel"], repel=c["attract"], repel_err_sq=c["attract_err_sq"], **shared)
    return {"r_sq": far["r_sq"], "epsilon_sq": c["epsilon_sq"], "contraction": c, "fixed_point": point["enclosure"], "fixed_plane_dual": plane["enclosure"]}


def _eps_sets(c: dict) -> tuple[list, list]:
    """The JSON of a contraction's eps-sets: the ball and the neighbourhood."""
    return (
        [{"kind": "ball", "center": c["attract"], "radius_sq": c["epsilon_sq"]}],
        [{"kind": "hnbhd", "plane": c["repel"], "radius_sq": c["epsilon_sq"]}],
    )


def _very(b: Binding, matrix: list, eps_sq: str | None, r_sq: str | None) -> dict:
    """The proximal groups of `matrix` and of its inverse, then the
    set-disjoint claims of `ProximalCert.very_pairs`."""
    out = _proximal(b, matrix, eps_sq, r_sq)
    inverse = b.peek().get("matrix")
    b.check((b.ctx.matrix(inverse) @ b.ctx.matrix(matrix)).is_identity(), "second proximal group is not of the inverse")
    out["inverse"] = _proximal(b, inverse, eps_sq, r_sq)
    (a_p, r_p), (a_m, r_m) = _eps_sets(out["contraction"]), _eps_sets(out["inverse"]["contraction"])
    b.take_each("set-disjoint", "of the very-proximal pairs", ("left", "right"), [(a_p, r_p), (a_p, a_m), (a_m, r_m)])
    return out


def _certified(b: Binding, word: str, evidence, eps_sq: str | None = None, r_sq: str | None = None, member: str | None = None) -> dict:
    """A certified word: its word-eval claim, the normal-membership claim
    of `member` when given, then its `evidence` group."""
    matrix = b.take("word-eval", f"of {word!r}", word=word)["matrix"]
    if member is not None:
        b.take("normal-membership", f"of {member!r}", element=member)
    return evidence(b, matrix, eps_sq, r_sq)


def _tuple_pairs(b: Binding, players: list) -> list[tuple]:
    """The (left, right) pairs `pingpong.certify_tuple` finds disjoint,
    each player given as its sets (A+, R+, A-, R-): k (8k - 5) of them
    for k players, not built unless that many claims are left."""
    k = len(players)
    b.check(k * (8 * k - 5) <= len(b.claims) - b.at, f"{k} players need {k * (8 * k - 5)} disjointness claims")
    own = [pair for a_p, r_p, a_m, r_m in players for pair in ((a_p, a_m), (a_p, r_p), (a_m, r_m))]
    cross = [(a, s) for p in players for q in players if q is not p for a in (p[0], p[2]) for s in q]
    return own + cross


def _echoed(b: Binding) -> None:
    """A certified tuple's result echoes its verdict and gives no detail."""
    b.check(b.result["verdict"] == b.verdict and b.result["witness_detail"] == "", "result verdict is not the certificate's")


# Binders: each takes the claims its verdict needs, in order, and binds them
# to the task and to the result fields its row names in `binds`.


def _element(b: Binding) -> dict:
    return b.take("word-eval", "of the element", word=b.task["element"])


def _decided(evidence):
    def needs(b: Binding) -> None:
        t = b.task
        cert = _certified(b, t["element"], evidence, t["epsilon_sq"], t.get("r_sq"))
        b.check(b.result["cert"] == cert, "result cert is not the claims'")

    return needs


def _refuted(inverse_too: bool):
    def needs(b: Binding) -> None:
        """The element's contraction-refuted claim, or its inverse's."""
        t = b.task
        matrix = _element(b)["matrix"]
        claim = b.take("contraction-refuted", "of the result", epsilon_sq=t["epsilon_sq"], witness=b.result["counterexample"])
        # the product is formed only when the matrix is not the element's
        own = claim["matrix"] == matrix
        b.check(own or (inverse_too and (b.ctx.matrix(claim["matrix"]) @ b.ctx.matrix(matrix)).is_identity()), "refuted matrix is not the element's")

    return needs


def _power(b: Binding) -> None:
    t, n = b.task, b.result["n"]
    b.check(type(n) is int and 1 <= n <= t["max_n"] <= MAX_EXPONENT, f"result n is outside 1..max_n, or max_n over MAX_EXPONENT = {MAX_EXPONENT}")
    _element(b)
    matrix = b.peek().get("matrix")
    b.check(b.ctx.matrix(matrix).proportional_to(b.ctx.eval(t["element"]).power(n)), "proximal group is not of element^n")
    b.check(b.result["cert"] == _proximal(b, matrix, t["epsilon_sq"], t["r_sq"]), "result cert is not the claims'")


def _oracle(b: Binding) -> None:
    b.take("oracle", "of the task", max_len=b.task["oracle_len"], result=b.verdict)


def _matrix_tuple(b: Binding) -> None:
    """A set-disjoint claim for each pair `certify_tuple` checks on the
    result's sets, in any order, then each player's very-proximal group."""
    players, words = b.result["players"], dict(b.task["players"])
    b.check(sorted(players) == sorted(words), "result players are not the task's")
    pairs = _tuple_pairs(b, [tuple(players[name][s] for s in ("A+", "R+", "A-", "R-")) for name in sorted(players)])
    for _ in range(len(pairs)):
        claim = b.take("set-disjoint", "of the tuple's pairs")
        pair = (claim["left"], claim["right"])
        b.check(pair in pairs, f"claim {b.at - 1} (set-disjoint) is not a pair of the tuple")
        pairs.remove(pair)
    while words:
        m = b.ctx.matrix(b.peek().get("matrix"))
        name = next((n for n, w in words.items() if m.proportional_to(b.ctx.eval(w))), None)
        b.check(name is not None, f"claim {b.at} is no player's evidence")
        _very(b, b.peek()["matrix"], None, None)
        del words[name]
    b.take("oracle", "of the task", max_len=b.task["oracle_len"], result=b.result["oracle"])
    _echoed(b)


def _tree_tuple(b: Binding) -> None:
    """Each word's classification and axis shadows, in task order, then a
    shadow-disjoint claim for each pair `certify_tuple` checks on them."""
    words = b.task["words"]
    b.take_each("tree-classify", "of the words", ("word", "kind"), [(w, "hyperbolic") for w in words])
    shadows = [c["sets"] for c in b.take_each("tree-evidence", "of the words", ("word",), [(w,) for w in words])]
    b.take_each("shadow-disjoint", "of the tuple's pairs", ("left", "right"), _tuple_pairs(b, shadows))
    b.take("oracle", "of the task", max_len=b.task["oracle_len"], result=b.result["oracle"], names=words)
    _echoed(b)


def _prodense(b: Binding) -> None:
    """A very-proximal word per step 1 label, in task order, and per step
    2 coset, then the oracle claim."""
    r = b.result
    labels = [s["label"] for s in r["step1"]]
    b.check(sorted(labels) == sorted(b.task["normals"]) == sorted(r["step2"]), "step 1 labels are not the task's normals")
    for w in [s["word"] for s in r["step1"]] + [d["word"] for label in labels for d in r["step2"][label]]:
        _certified(b, w, _very)
    b.take("oracle", "of the combined tuple", result=r["oracle"])
    b.check(r["verdict"] == b.verdict, "result verdict is not the certificate's")


def _b1b2b3(b: Binding) -> None:
    """The word's contraction, its produced sets disjoint, and both inside one host."""
    r = b.result
    b.check(r["cert"] == _certified(b, r["word"], _contraction), "result cert is not the claims'")
    b.take("set-disjoint", "of the produced sets", left=r["attract"], right=r["repel"])
    host = b.take("set-contains", "of the attracting set", inner=r["attract"])["outer"]
    b.take("set-contains", "of the repelling set", outer=host, inner=r["repel"])


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
    c, r = b.take("tree-normal-form", "of the word", word=b.task["word"]), b.result
    b.check([r["syllables"], r["tail"]] == [c["syllables"], c["tail"]], "result normal form is not the claim's")
    b.check(r["is_identity"] == (not c["syllables"] and c["tail"] == b.ctx.amalgam.group_h.identity), "result is_identity is wrong")


def _classify(b: Binding) -> None:
    c, r = b.take("tree-classify", "of the word", word=b.task["word"]), b.result
    b.check(r["kind"] == c["kind"], "result kind is not the claim's")
    length = c["translation_length"] if c["kind"] == "hyperbolic" else None
    b.check(r.get("translation_length") == length, "result translation_length is not the claim's")


def _expand(b: Binding) -> None:
    """A tree-degree claim for each listed vertex inside the radius, in order."""
    listing, radius = b.result["vertices"], b.task["radius"]
    b.check(b.result["count"] == len(listing), "result count is not the listing's")
    inside = [(e["vertex"], e["degree"]) for e in listing if e["depth"] < radius]
    b.check(all("degree" not in e for e in listing if e["depth"] >= radius), "a vertex on the radius has a degree")
    b.take_each("tree-degree", "of the listed vertices", ("vertex", "degree"), inside)


def _kernel(b: Binding) -> None:
    elements = b.take("kernel", "of the result", elements=b.result["elements"])["elements"]
    b.check(b.result["names"] == [b.ctx.amalgam.group_h.name_of(x) for x in elements], "result names are not the kernel's")


class Row(Record):
    """What one (op, subop, verdict) means: its exit code, the binder of
    the claims it needs (None: it needs none), the result fields that
    binder binds, and what the verdict states without a claim: result
    fields (`field.sub` for a part of one) and claims the task cannot
    bind.  A result field the row names in neither fails the certificate."""

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
    ("analyze", "contracting", "yes"): Row(EXIT_OK, _decided(_contraction), ("cert",)),
    ("analyze", "contracting", "no"): Row(EXIT_REFUTED, _refuted(False), ("counterexample",)),
    ("analyze", "contracting", "unknown"): Row(EXIT_UNKNOWN),
    ("analyze", "proximal", "yes"): Row(EXIT_OK, _decided(_proximal), ("cert",)),
    ("analyze", "proximal", "no"): Row(EXIT_REFUTED, _refuted(False), ("counterexample",)),
    ("analyze", "proximal", "unknown"): Row(EXIT_UNKNOWN),
    ("analyze", "very-proximal", "yes"): Row(EXIT_OK, _decided(_very), ("cert",)),
    ("analyze", "very-proximal", "no"): Row(EXIT_REFUTED, _refuted(True), ("counterexample",)),
    ("analyze", "very-proximal", "unknown"): Row(EXIT_UNKNOWN),
    ("analyze", "power-proximal", "yes"): Row(EXIT_OK, _power, ("n", "cert")),
    ("analyze", "power-proximal", "not-found"): Row(EXIT_UNKNOWN),
    ("pingpong", "oracle", "no-relation"): Row(EXIT_OK, _oracle, stated=("oracle", "relation")),
    ("pingpong", "oracle", "relation"): Row(EXIT_REFUTED, _oracle, stated=("oracle", "relation")),
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
        ("host", "notes", "step1_tuple", "combined", "step1.nest", "step2.coset", "step2.power", "the oracle's elements"),
    ),
    ("synthesize", "truncated-prodense", "unknown"): Row(
        EXIT_UNKNOWN, stated=("host", "notes", "verdict", "step1", "step1_tuple", "step2", "combined", "oracle")
    ),
    ("synthesize", "conjugate-contract", "yes"): Row(EXIT_OK, _conjugate, ("word", "cert"), ("m",)),
    ("synthesize", "conjugate-contract", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "b1b2b3", "yes"): Row(EXIT_OK, _b1b2b3, ("word", "cert", "attract", "repel"), ("k", "the host set")),
    ("synthesize", "b1b2b3", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "very-proximal", "yes"): Row(EXIT_OK, _very_search, ("f1", "f2", "word", "cert")),
    ("synthesize", "very-proximal", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "normal-proximal", "yes"): Row(EXIT_OK, _normal_proximal, ("word", "cert"), ("normal-membership",)),
    ("synthesize", "normal-proximal", "not-found"): Row(EXIT_UNKNOWN),
    ("synthesize", "coset-pingpong", "yes"): Row(EXIT_OK, _cosets, ("deltas", "failed"), ("a_N", "deltas.power", "normal-membership")),
    ("synthesize", "coset-pingpong", "unknown"): Row(EXIT_UNKNOWN, stated=_COSETS),
    ("synthesize", "coset-pingpong", "not-found"): Row(EXIT_UNKNOWN, stated=_COSETS),
    ("synthesize", "double-coset", "yes"): Row(EXIT_OK, _double_coset, ("wrapped",), ("wrapped.coset", "wrapped.m", "wrapped.n", "wrapped.skipped")),
    ("synthesize", "double-coset", "unknown"): Row(EXIT_UNKNOWN, stated=("reason", "wrapped")),
    ("tree", "normal-form", "ok"): Row(EXIT_OK, _normal_form, ("syllables", "tail", "is_identity")),
    ("tree", "classify", "ok"): Row(EXIT_OK, _classify, ("kind", "translation_length"), ("axis_edge", "fixed_vertex")),
    ("tree", "expand", "ok"): Row(EXIT_OK, _expand, ("vertices", "count"), ("vertices.depth",)),
    ("tree", "kernel", "ok"): Row(EXIT_OK, _kernel, ("elements", "names")),
}
SUBOPS = {(op, subop) for op, subop, _ in VERDICTS}


def check_verdict(cert: dict, ctx: CertContext) -> str | None:
    """Why the certificate's claims and result do not carry its verdict,
    or None; VerifyError for a task the table does not know."""
    task = ctx.task if isinstance(ctx.task, dict) else {}
    op, subop, verdict = task.get("op"), task.get("subop"), cert.get("verdict")
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
            b.check(b.at == len(b.claims), f"claim {b.at} ({b.peek().get('type')}) belongs to no group of the verdict")
        except VerifyError:
            raise
        except Unbound as e:
            why = str(e)
        except Exception as e:  # a field missing or of the wrong kind
            why = f"{type(e).__name__}: {e}"
    return None if why is None else f"verdict {verdict!r} of {op} {subop}: {why}"


def vertex_json(v) -> list:
    return [v[0], [list(l) for l in v[1]]]


def _vertex_from(data) -> tuple:
    return (data[0], tuple((l[0], int(l[1])) for l in data[1]))


def shadow_json(s) -> dict:
    return {"x": vertex_json(s.x), "y": vertex_json(s.y)}


def verify(cert: dict) -> tuple[bool, list[str]]:
    """Re-check every claim, then the verdict against its row of
    VERDICTS; returns (all passed, failure messages)."""
    place = place_from(cert["place"]) if cert.get("place") else None
    ctx = CertContext(place, cert.get("header", {}), cert.get("task") or {})
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
