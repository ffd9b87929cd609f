"""Certificate serialization and independent re-verification.

Certificates are canonical JSON: sorted keys, two-space indent, exact
rationals as "p/q" strings, a fixed seed echo, and no timestamps, so a
rerun produces byte-identical output.  Every certificate carries a list
of claims; the verifier re-checks each claim semantically (set verdicts,
containments, memberships, word algebra, enclosure inequalities,
deterministic recomputation of certified data) without re-running any
search.  Oracle no-relation results are search outcomes and are echoed,
not re-run.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import cached_property

from . import __version__
from .checker import Enclosure, image_radius_bound, point_plane_far, selfmap_at, selfmap_radii, witness_refutes
from .dynamics import ContractionCert, ProximalCert, contraction_gap_sq, direction_candidates
from .projective import (
    Ball,
    HNbhd,
    ProjHyperplane,
    ProjMat,
    ProjPoint,
    ProjSet,
    set_contains,
    set_disjoint,
)
from .scalar import Place, Rat, format_rat, parse_place, parse_rat
from .synthesis import MarkedGroup
from .tree import AmalgamData, BassSerreTree, FiniteGroup, ShadowSet, axis_shadow_sets, classify, kernel_of_action, parse_word

FORMAT = "freecert-certificate/1"


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


def place_str(place: Place) -> str:
    return str(place)


def place_from(s: str) -> Place:
    try:
        if not isinstance(s, str):
            raise ValueError("not a string")
        return parse_place(s)
    except ValueError as e:
        raise VerifyError(f"bad place {s!r}: {e}") from None


def vec_json(v) -> list[str]:
    return [rat(c) for c in v]


def vec_from(data) -> tuple:
    return tuple(parse_rat(c) for c in data)


def mat_json(m: ProjMat) -> list[list[str]]:
    return [[rat(c) for c in row] for row in m.entries]


def mat_from(data, place: Place) -> ProjMat:
    return ProjMat(tuple(tuple(parse_rat(c) for c in row) for row in data), place)


def point_json(p: ProjPoint) -> list[str]:
    return vec_json(p.rep)


def point_from(data) -> ProjPoint:
    return ProjPoint(vec_from(data))


def plane_json(h: ProjHyperplane) -> list[str]:
    return vec_json(h.functional)


def plane_from(data) -> ProjHyperplane:
    return ProjHyperplane(vec_from(data))


def component_json(c) -> dict:
    if isinstance(c, Ball):
        return {"kind": "ball", "center": point_json(c.center), "radius_sq": rat(c.radius_sq)}
    return {"kind": "hnbhd", "plane": plane_json(c.plane), "radius_sq": rat(c.radius_sq)}


def component_from(data):
    if data["kind"] == "ball":
        return Ball(point_from(data["center"]), parse_rat(data["radius_sq"]))
    if data["kind"] == "hnbhd":
        return HNbhd(plane_from(data["plane"]), parse_rat(data["radius_sq"]))
    raise VerifyError(f"bad set component kind {data.get('kind')!r}")


def set_json(s: ProjSet) -> list[dict]:
    return [component_json(c) for c in s.components]


def set_from(data) -> ProjSet:
    return ProjSet(tuple(component_from(c) for c in data))


def enclosure_json(e: Enclosure) -> dict:
    return {
        "center": point_json(e.ball.center),
        "radius_sq": rat(e.ball.radius_sq),
        "lipschitz_sq": rat(e.lipschitz_sq),
        "region_low_sq": rat(e.region_low_sq),
        "move_sq": rat(e.move_sq),
    }


def contraction_json(c: ContractionCert) -> dict:
    return {
        "epsilon_sq": rat(c.epsilon_sq),
        "attract": point_json(c.attract),
        "repel": plane_json(c.repel),
        "method": c.method,
        "attract_err_sq": rat(c.attract_err_sq),
        "repel_err_sq": rat(c.repel_err_sq),
        "gap_sq_hi": rat(c.gap_sq_hi),
        "image_radius_sq": rat(c.image_radius_sq),
    }


def proximal_json(c: ProximalCert) -> dict:
    out = {
        "r_sq": rat(c.r_sq),
        "epsilon_sq": rat(c.epsilon_sq),
        "contraction": contraction_json(c.contraction),
        "fixed_point": enclosure_json(c.fixed_point),
        "fixed_plane_dual": enclosure_json(c.fixed_plane_dual),
    }
    if c.very is not None:
        out["inverse"] = proximal_json(c.very)
    return out


def interval_json(iv) -> dict:
    return {"lo": rat(iv.lo), "hi": rat(iv.hi)}


# ---------------------------------------------------------------------------
# Claims: emitted next to certified data, re-checked by the verifier
# ---------------------------------------------------------------------------


def claim_set_disjoint(left: ProjSet, right: ProjSet, note: str = "") -> dict:
    return {"type": "set-disjoint", "left": set_json(left), "right": set_json(right), "note": note}


def claim_set_contains(outer: ProjSet, inner: ProjSet, note: str = "") -> dict:
    return {
        "type": "set-contains",
        "outer": set_json(outer),
        "inner": set_json(inner),
        "closed_inner": False,
        "note": note,
    }


def claim_word_eval(word: str, matrix: ProjMat) -> dict:
    return {"type": "word-eval", "word": word, "matrix": mat_json(matrix), "note": ""}


def claim_contraction(matrix: ProjMat, cert: ContractionCert) -> dict:
    return {"type": "contraction", "matrix": mat_json(matrix), "cert": contraction_json(cert)}


def claim_contraction_refuted(matrix: ProjMat, epsilon_sq: Rat, witness: ProjPoint) -> dict:
    """The witness refutes eps-contraction for the matrix's direction candidates."""
    dirs = direction_candidates(matrix)
    return {
        "type": "contraction-refuted",
        "matrix": mat_json(matrix),
        "epsilon_sq": rat(epsilon_sq),
        "witness": point_json(witness),
        "attract": point_json(dirs.attract),
        "repel": plane_json(dirs.repel),
    }


def claim_point_plane_far(point: ProjPoint, plane: ProjHyperplane, r_sq: Rat) -> dict:
    return {"type": "point-plane-far", "point": point_json(point), "plane": plane_json(plane), "r_sq": rat(r_sq)}


def claim_selfmap(matrix: ProjMat, enclosure: Enclosure, repel: ProjHyperplane, repel_err_sq: Rat, gap_sq_hi: Rat, epsilon_sq: Rat, attract: ProjPoint) -> dict:
    return {
        "type": "selfmap-enclosure",
        "matrix": mat_json(matrix),
        "enclosure": enclosure_json(enclosure),
        "repel": plane_json(repel),
        "repel_err_sq": rat(repel_err_sq),
        "gap_sq_hi": rat(gap_sq_hi),
        "epsilon_sq": rat(epsilon_sq),
        "attract": point_json(attract),
    }


def claims_for_proximal(matrix: ProjMat, cert: ProximalCert) -> list[dict]:
    c = cert.contraction
    out = [claim_contraction(matrix, c), claim_point_plane_far(c.attract, c.repel, cert.r_sq)]
    for (m, attract, repel, repel_err_sq), enc in zip(c.selfmap_problems(matrix), (cert.fixed_point, cert.fixed_plane_dual)):
        out.append(claim_selfmap(m, enc, repel, repel_err_sq, c.gap_sq_hi, cert.epsilon_sq, attract))
    if cert.very is not None:
        out.extend(claims_for_proximal(matrix.inverse(), cert.very))
        out += [claim_set_disjoint(left, right, note) for left, right, note in cert.very_pairs()]
    return out


def claim_oracle(max_len: int, result_kind: str, word: str | None, names: list[str]) -> dict:
    return {"type": "oracle", "max_len": max_len, "result": result_kind, "word": word, "names": names}


def claim_normal_membership(element: str, factorization: str) -> dict:
    return {"type": "normal-membership", "element": element, "factorization": factorization}


def claims_for_cert(word: str, matrix: ProjMat, cert: ContractionCert | ProximalCert, *between: dict) -> list[dict]:
    """Claims for a certified word: its word-eval, then the claims in
    `between` (normal membership), then its contraction or proximal evidence."""
    out = [claim_word_eval(word, matrix), *between]
    if isinstance(cert, ProximalCert):
        return out + claims_for_proximal(matrix, cert)
    return out + [claim_contraction(matrix, cert)]


def _disjoint_claims(tup, claim) -> list[dict]:
    """One claim(left, right, note) per cross-set disjointness the tuple certified."""
    return [claim(c.left, c.right, c.detail) for c in tup.checks if c.kind == "disjoint" and c.ok]


def claims_for_tuple(tup) -> list[dict]:
    """Claims for a projective ping-pong tuple: its disjointnesses, then
    each player's proximal evidence."""
    out = _disjoint_claims(tup, claim_set_disjoint)
    for p in tup.players:
        if isinstance(p.evidence, ProximalCert):
            out.extend(claims_for_proximal(p.element, p.evidence))
    return out


def claim_tree_normal_form(word: str, w) -> dict:
    return {"type": "tree-normal-form", "word": word, "syllables": [list(s) for s in w.syllables], "tail": w.tail}


def claim_tree_classify(word: str, cls) -> dict:
    return {"type": "tree-classify", "word": word, "kind": cls.kind, "translation_length": cls.translation_length}


def claim_tree_degree(vertex, degree: int) -> dict:
    return {"type": "tree-degree", "vertex": vertex_json(vertex), "degree": degree}


def claim_kernel(elements: list[int]) -> dict:
    return {"type": "kernel", "elements": elements}


def claim_shadow_disjoint(left, right, note: str) -> dict:
    return {"type": "shadow-disjoint", "left": shadow_json(left), "right": shadow_json(right), "note": note}


def claims_for_tree_tuple(tup, words: list[str]) -> list[dict]:
    """Claims for a tree ping-pong tuple, read off the evidence it already
    holds: each word's classification, each player's axis shadows, then the
    tuple's disjointnesses."""
    players = list(zip(tup.players, words))
    out = [claim_tree_classify(word, p.evidence.classification) for p, word in players]
    out += [{"type": "tree-evidence", "word": word, "sets": [shadow_json(s) for _, s in p.sets()]} for p, word in players]
    return out + _disjoint_claims(tup, claim_shadow_disjoint)


# ---------------------------------------------------------------------------
# Certificate assembly and canonical dumping
# ---------------------------------------------------------------------------


def certificate(place: Place | None, backend: str, header: dict, task: dict, verdict: str, result: dict, claims: list[dict]) -> dict:
    return {
        "format": FORMAT,
        "tool": {"name": "freecert", "version": __version__},
        "seed": 0,
        "place": place_str(place) if place is not None else None,
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise VerifyError(f"not valid certificate JSON: {e}") from None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise VerifyError("missing or unsupported certificate format marker")
    return data


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _check_contraction(matrix: ProjMat, stored: dict) -> bool:
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
    if dirs.attract != point_from(stored["attract"]) or dirs.repel != plane_from(stored["repel"]):
        return False
    if dirs.attract_err_sq is None or dirs.repel_err_sq is None:
        return False
    if a_err < dirs.attract_err_sq or r_err < dirs.repel_err_sq:
        return False
    bound = image_radius_bound(gap_hi, eps_sq, a_err, r_err)
    return bound is not None and bound * bound <= parse_rat(stored["image_radius_sq"]) <= eps_sq


def _check_selfmap(claim: dict, place: Place) -> bool:
    """The stored ball passes the self-map test with the stored numbers,
    and the stored Lipschitz, region and move numbers are the derived ones."""
    matrix = mat_from(claim["matrix"], place)
    gap_hi = parse_rat(claim["gap_sq_hi"])
    if contraction_gap_sq(matrix).hi > gap_hi:
        return False
    enc = claim["enclosure"]
    center, t_sq = point_from(enc["center"]), parse_rat(enc["radius_sq"])
    r_err, eps_sq = parse_rat(claim["repel_err_sq"]), parse_rat(claim["epsilon_sq"])
    _, derived = selfmap_at(matrix, center, point_from(claim["attract"]), plane_from(claim["repel"]), r_err, gap_hi, eps_sq, selfmap_radii([t_sq]))
    stored = Enclosure(Ball(center, t_sq), *(parse_rat(enc[k]) for k in ("lipschitz_sq", "region_low_sq", "move_sq")))
    return derived == stored


class CertContext:
    """What a certificate's claims are checked against, beyond the claim
    itself: the generator group, the amalgam and its Bass-Serre tree that
    the header describes, and the header evaluation of each word (the
    task's element among them).  Each is built once, on first use, for all
    claims of the certificate."""

    def __init__(self, place: Place | None, header: dict, task: dict):
        self.place, self.header, self.task = place, header, task
        self._evals: dict[str, ProjMat] = {}

    @cached_property
    def group(self):
        gens = self.header.get("generators")
        if not gens:
            raise VerifyError("certificate lacks a generator table")
        return MarkedGroup(tuple((name, mat_from(m, self.place)) for name, m in sorted(gens.items())))

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
    """The witness refutes eps-contraction for the pair of the task's
    element e, or of e^-1 in a very-proximal task.  At p-adic places the
    pair must be that matrix's direction candidates; the archimedean ones
    come from power iteration, which is not re-run here."""
    m, e = mat_from(claim["matrix"], ctx.place), ctx.eval(ctx.task["element"])
    # m @ e ∝ I is tested only when m ∝ e fails, so no inverse is computed
    if not (m.proportional_to(e) or (ctx.task.get("subop") == "very-proximal" and (m @ e).is_identity())):
        return False
    x, attract, repel = point_from(claim["witness"]), point_from(claim["attract"]), plane_from(claim["repel"])
    if ctx.place.is_padic:
        dirs = direction_candidates(m)
        if (dirs.attract, dirs.repel) != (attract, repel):
            return False
    return witness_refutes(m, x, attract, repel, parse_rat(claim["epsilon_sq"]))


def check_claim(claim: dict, ctx: CertContext) -> bool:
    """Re-check one claim against the certificate context `verify` builds."""
    place = ctx.place
    kind = claim.get("type")
    if kind == "set-disjoint":
        return set_disjoint(set_from(claim["left"]), set_from(claim["right"]), place).kind == "disjoint"
    if kind == "set-contains":
        return set_contains(set_from(claim["outer"]), set_from(claim["inner"]), place, claim.get("closed_inner", False))
    if kind == "point-plane-far":
        return point_plane_far(point_from(claim["point"]), plane_from(claim["plane"]), parse_rat(claim["r_sq"]), place)
    if kind == "word-eval":
        return ctx.eval(claim["word"]).proportional_to(mat_from(claim["matrix"], place))
    if kind == "contraction":
        return _check_contraction(mat_from(claim["matrix"], place), claim["cert"])
    if kind == "contraction-refuted":
        return _check_refutation(claim, ctx)
    if kind == "selfmap-enclosure":
        return _check_selfmap(claim, place)
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


def vertex_json(v) -> list:
    return [v[0], [list(l) for l in v[1]]]


def _vertex_from(data) -> tuple:
    return (data[0], tuple((l[0], int(l[1])) for l in data[1]))


def shadow_json(s) -> dict:
    return {"x": vertex_json(s.x), "y": vertex_json(s.y)}


def verify(cert: dict) -> tuple[bool, list[str]]:
    """Re-check every claim; returns (all passed, failure messages)."""
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
            failures.append(f"claim {i} ({claim.get('type')}{': ' + claim.get('note') if claim.get('note') else ''}) failed")
    return not failures, failures
