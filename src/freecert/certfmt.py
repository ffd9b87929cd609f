"""The certificate format and its verifier.

Certificates are canonical JSON: sorted keys, two-space indent, exact
rationals as "p/q" strings, a fixed seed echo, and no timestamps, so a
rerun produces byte-identical output.  Every certificate carries a list
of claims, which `cli` builds; the verifier re-checks each claim
semantically (set verdicts, containments, memberships, word algebra,
enclosure inequalities, deterministic recomputation of certified data)
without re-running any search.  Oracle no-relation results are search
outcomes and are echoed, not re-run.
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
    set_contains,
    set_disjoint,
)
from .scalar import Place, Rat, format_rat, parse_place, parse_rat
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
    matrix, dim = mat_from(claim["matrix"], ctx.place), ctx.dim
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
    Bass-Serre tree that the header describes, and the header evaluation
    of each word (the task's element among them).  Each is built once, on
    first use, for all claims of the certificate."""

    def __init__(self, place: Place | None, header: dict, task: dict):
        self.place, self.header, self.task = place, header, task
        self._evals: dict[str, ProjMat] = {}

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
        return ctx.eval(claim["word"]).proportional_to(mat_from(claim["matrix"], place))
    if kind == "contraction":
        return _check_contraction(mat_from(claim["matrix"], place), claim["cert"], dim)
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
            note = claim.get("note")
            failures.append(f"claim {i} ({claim.get('type')}{f': {note}' if note else ''}) failed")
    return not failures, failures
