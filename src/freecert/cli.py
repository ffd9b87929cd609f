"""Command-line front end.

Problem files are line-oriented with section headers, exact-rational
literals, and positioned parse errors.  Certificates go to stdout (or
--out), logs to stderr.  Exit codes: 0 certified/yes, 2 input error,
3 refuted/no, 4 unknown/not-found/partial.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields as dc_fields
from fractions import Fraction

from . import certfmt
from .certfmt import VerifyError
from .dynamics import (
    certify_contracting,
    certify_proximal,
    certify_very_proximal,
    power_to_proximal,
    singular_profile,
)
from .pingpong import PingPongPlayer, certify_tuple, freeness_oracle, simple_player
from .projective import ProjHyperplane, ProjMat, ProjPoint, ProjSet, ball, hnbhd
from .scalar import ARCH, Place, parse_place, parse_rat
from .synthesis import (
    PRODENSE_ORACLE_LEN,
    Budgets,
    MarkedGroup,
    NormalData,
    Word,
    auto_very_proximal,
    b1b2b3_synthesize,
    concat,
    conjugate_contract,
    coset_pingpong,
    double_coset_wrap,
    normal_proximal,
    truncated_prodense,
    very_proximal_search,
    word_inverse,
)
from .tree import (
    DEFAULT_RADIUS,
    AmalgamData,
    BassSerreTree,
    TreeError,
    classify,
    expand_tree,
    kernel_of_action,
    parse_word as tree_parse_word,
    tree_pingpong,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUTED = 3
EXIT_UNKNOWN = 4

#: Longest word the freeness oracle may be asked to search.  It visits
#: every reduced word, (2k - 1)^L of them for k players, so a larger
#: oracle-len would not fail but run for hours.
MAX_ORACLE_LEN = 12
#: Most letters a problem-file word may expand to.  Each letter is a
#: matrix product whose entries grow with the word, so a long word would
#: not fail but run for minutes and overflow the certificate's numbers.
MAX_WORD_LEN = 64


class ProblemError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# ---------------------------------------------------------------------------
# Problem-file parsing
# ---------------------------------------------------------------------------


class Problem:
    def __init__(self):
        self.place: Place | None = None
        self.dim: int | None = None
        self.generators: list[tuple[str, list[list[Fraction]]]] = []
        self.amalgam_raw: dict = {}
        self.task: dict[str, list[tuple[int, str]]] = {}  # key -> [(line, value)]

    def task_get(self, key: str, default: str | None = None) -> str | None:
        vals = self.task.get(key)
        return vals[0][1] if vals else default

    def task_all(self, key: str) -> list[tuple[int, str]]:
        return self.task.get(key, [])


@contextmanager
def _input_error(kind: type[Exception] = ValueError, line: int = 1, col: int = 1):
    """Report a `kind` error raised on bad input as a positioned ProblemError."""
    try:
        yield
    except kind as e:
        raise ProblemError(line, col, str(e)) from None


def _parse_rat_at(text: str, line: int, col: int) -> Fraction:
    with _input_error(line=line, col=col):
        return parse_rat(text)


def _parse_matrix_literal(text: str, line: int) -> list[list[Fraction]]:
    rows: list[list[Fraction]] = []
    depth = 0
    token = ""
    row: list[Fraction] | None = None
    for col, ch in enumerate(text, start=1):
        if ch == "[":
            depth += 1
            if depth == 2:
                row = []
            elif depth > 2:
                raise ProblemError(line, col, "matrix literal nests too deep")
        elif ch == "]":
            if depth == 2:
                if token.strip():
                    row.append(_parse_rat_at(token.strip(), line, col))
                token = ""
                rows.append(row)
                row = None
            elif depth == 1:
                pass
            else:
                raise ProblemError(line, col, "unbalanced ']' in matrix literal")
            depth -= 1
        elif ch == ",":
            if depth == 2:
                if not token.strip():
                    raise ProblemError(line, col, "empty matrix entry")
                row.append(_parse_rat_at(token.strip(), line, col))
                token = ""
        elif depth == 2:
            token += ch
        elif ch.strip() and depth == 0 and rows:
            raise ProblemError(line, col, "trailing characters after matrix literal")
    if depth != 0:
        raise ProblemError(line, len(text), "unterminated matrix literal")
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ProblemError(line, 1, "matrix literal must be square")
    return rows


def parse_problem(text: str) -> Problem:
    prob = Problem()
    section = None
    pending_table: str | None = None
    table_rows: list[list[int]] = []
    saw_format = False

    def close_table(line_no: int):
        nonlocal pending_table, table_rows
        if pending_table is not None:
            if not table_rows:
                raise ProblemError(line_no, 1, f"{pending_table} has no rows")
            prob.amalgam_raw[pending_table.replace("-", "_")] = table_rows
            pending_table = None
            table_rows = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        body = stripped.strip()
        if pending_table is not None:
            if all(tok.lstrip("-").isdigit() for tok in body.split()):
                table_rows.append([int(t) for t in body.split()])
                continue
            close_table(line_no)
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in ("matrix-group", "amalgam", "task"):
                raise ProblemError(line_no, 2, f"unknown section {section!r}")
            continue
        key, _, rest = body.partition(" ")
        rest = rest.strip()
        if section is None:
            if key == "format":
                if rest != "1":
                    raise ProblemError(line_no, len(key) + 2, f"unsupported format {rest!r}")
                saw_format = True
            elif key == "place":
                with _input_error(line=line_no, col=len(key) + 2):
                    prob.place = parse_place(rest)
            else:
                raise ProblemError(line_no, 1, f"unexpected directive {key!r} before any section")
            continue
        if section == "matrix-group":
            if key == "dim":
                with _input_error(line=line_no, col=len(key) + 2):
                    prob.dim = int(rest)
            elif key == "gen":
                name, eq, literal = rest.partition("=")
                name = name.strip()
                if not eq or not name.isidentifier():
                    raise ProblemError(line_no, len(key) + 2, "expected: gen NAME = [[...], [...]]")
                prob.generators.append((name, _parse_matrix_literal(literal.strip(), line_no)))
            else:
                raise ProblemError(line_no, 1, f"unknown matrix-group directive {key!r}")
            # reported on whichever of the generator and the dim line comes later
            wrong = [(name, len(rows)) for name, rows in prob.generators if prob.dim not in (None, len(rows))]
            if wrong:
                name, k = wrong[0]
                raise ProblemError(line_no, 1, f"generator {name} is {k}x{k}, but dim is {prob.dim}")
        elif section == "amalgam":
            if key in ("table-a", "table-b", "table-h"):
                pending_table = key
                table_rows = []
            elif key in ("names-a", "names-b", "names-h"):
                prob.amalgam_raw[key.replace("-", "_")] = rest.split()
            elif key in ("embed-a", "embed-b"):
                prob.amalgam_raw[key.replace("-", "_")] = [int(t) for t in rest.split()]
            else:
                raise ProblemError(line_no, 1, f"unknown amalgam directive {key!r}")
        elif section == "task":
            if key == "oracle-len":
                with _input_error(line=line_no, col=len(key) + 2):
                    _check_oracle_len(int(rest), key)
            prob.task.setdefault(key, []).append((line_no, rest))
    close_table(len(text.splitlines()) + 1)
    if not saw_format:
        raise ProblemError(1, 1, "missing 'format 1' header")
    return prob


def _check_oracle_len(n: int, source: str) -> None:
    if not 1 <= n <= MAX_ORACLE_LEN:
        raise ValueError(f"{source} {n} is outside 1..{MAX_ORACLE_LEN}")


def _build_group(prob: Problem) -> MarkedGroup:
    if not prob.generators:
        raise ProblemError(1, 1, "task needs a [matrix-group] section")
    place = prob.place or ARCH
    try:
        gens = tuple((name, ProjMat(tuple(tuple(r) for r in rows), place)) for name, rows in prob.generators)
        return MarkedGroup(gens)
    except ValueError as e:
        raise ProblemError(1, 1, f"bad generator: {e}") from None


def _build_amalgam(prob: Problem) -> tuple[AmalgamData, dict]:
    """The amalgam and the certificate header that records its tables."""
    raw = prob.amalgam_raw
    needed = ("table_a", "table_b", "table_h", "embed_a", "embed_b")
    missing = [k for k in needed if k not in raw]
    if missing:
        raise ProblemError(1, 1, f"amalgam section incomplete: missing {missing[0].replace('_', '-')}")
    data = {k: raw.get(k) for k in needed + ("names_a", "names_b", "names_h")}
    try:
        return certfmt.amalgam_from(data), {"amalgam": data}
    except TreeError as e:
        raise ProblemError(1, 1, f"bad amalgam: {e}") from None


def _group_header(group: MarkedGroup) -> dict:
    return {"generators": {name: certfmt.mat_json(m) for name, m in group.gens}}


def _budgets(prob: Problem, overrides: list[str]) -> Budgets:
    values: dict[str, int] = {}
    names = {f.name for f in dc_fields(Budgets)}
    for line_no, spec in prob.task_all("budget"):
        name, eq, val = spec.partition("=")
        if not eq or name.strip() not in names:
            raise ProblemError(line_no, 1, f"unknown budget {name.strip()!r}")
        values[name.strip()] = int(val)
    for spec in overrides:
        name, eq, val = spec.partition("=")
        if not eq or name.strip() not in names:
            raise ValueError(f"unknown budget {name.strip()!r}")
        values[name.strip()] = int(val)
    return Budgets(**values)


def _need(prob: Problem, key: str) -> str:
    val = prob.task_get(key)
    if val is None:
        raise ProblemError(1, 1, f"task needs '{key}'")
    return val


def _parse_word_at(group: MarkedGroup, text: str, line: int, col: int = 1) -> Word:
    """`group.parse_word`, refusing a word of more than MAX_WORD_LEN
    letters (a^n counts n) before its letters are expanded."""
    letters = 0
    for token in text.split():
        power = token.partition("^")[2]
        with _input_error(line=line, col=col):
            letters += abs(int(power)) if power else 1
    if letters > MAX_WORD_LEN:
        raise ProblemError(line, col, f"word of {letters} letters exceeds MAX_WORD_LEN = {MAX_WORD_LEN}")
    with _input_error(KeyError, line, col):
        return group.parse_word(text)


def _task_word(group: MarkedGroup, prob: Problem, key: str) -> Word:
    text = _need(prob, key)
    return _parse_word_at(group, text, prob.task[key][0][0], len(key) + 2)


def _parse_set(text: str, line: int, place: Place) -> ProjSet:
    # ball [1, 0] 1/25   |   hnbhd [1, 0] 1/25
    parts = text.split("]")
    kind = text.split()[0]
    if kind not in ("ball", "hnbhd") or len(parts) != 2:
        raise ProblemError(line, 1, "set literal must be: ball|hnbhd [coords] radius-sq")
    coords_text = parts[0].split("[", 1)[1]
    coords = [
        _parse_rat_at(tok.strip(), line, 1) for tok in coords_text.split(",") if tok.strip()
    ]
    radius = _parse_rat_at(parts[1].strip(), line, 1)
    with _input_error(line=line):
        if kind == "ball":
            return ball(ProjPoint(tuple(coords)), radius)
        return hnbhd(ProjHyperplane(tuple(coords)), radius)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _verdict_exit(verdict: str) -> int:
    if verdict in ("yes", "certified", "ok", "no-relation"):
        return EXIT_OK
    if verdict in ("no", "refuted", "relation"):
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _emitter(place: Place | None, backend: str, header: dict, task: dict):
    """emit(verdict, result, claims) -> (certificate, exit code) for one command."""

    def emit(verdict: str, result: dict | None = None, claims: list[dict] | None = None) -> tuple[dict, int]:
        return certfmt.certificate(place, backend, header, task, verdict, result or {}, claims or []), _verdict_exit(verdict)

    return emit


def cmd_analyze(prob: Problem, args) -> tuple[dict, int]:
    group = _build_group(prob)
    subop = _need(prob, "subop")
    word = _task_word(group, prob, "element")
    m = group.eval(word)
    task = {"op": "analyze", "subop": subop, "element": group.word_str(word)}
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    word_eval = [certfmt.claim_word_eval(task["element"], m)]
    if subop == "profile":
        prof = singular_profile(m)
        result = {"values_sq": [certfmt.interval_json(v) for v in prof.values_sq], "exact": prof.exact}
        return emit("ok", result, word_eval)
    if subop in ("contracting", "proximal", "very-proximal"):
        eps_sq = parse_rat(_need(prob, "epsilon-sq"))
        task["epsilon_sq"] = certfmt.rat(eps_sq)
        if subop == "contracting":
            v = certify_contracting(m, eps_sq)
            refutes, cert_json = m, certfmt.contraction_json
        else:
            r_sq = parse_rat(_need(prob, "r-sq"))
            task["r_sq"] = certfmt.rat(r_sq)
            v = (certify_proximal if subop == "proximal" else certify_very_proximal)(m, r_sq, eps_sq)
            refutes, cert_json = v.refutes, certfmt.proximal_json
        if v.kind == "yes":
            return emit("yes", {"cert": cert_json(v.cert)}, certfmt.claims_for_cert(task["element"], m, v.cert))
        if v.kind == "no":
            refuted = certfmt.claim_contraction_refuted(refutes, eps_sq, v.counterexample)
            return emit("no", {"counterexample": certfmt.point_json(v.counterexample)}, word_eval + [refuted])
        return emit(v.kind, {}, word_eval)
    if subop == "power-proximal":
        eps_sq = parse_rat(_need(prob, "epsilon-sq"))
        r_sq = parse_rat(_need(prob, "r-sq"))
        max_n = int(prob.task_get("max-n", "16"))
        task.update({"epsilon_sq": certfmt.rat(eps_sq), "r_sq": certfmt.rat(r_sq), "max_n": max_n})
        out = power_to_proximal(m, r_sq, eps_sq, max_n)
        if out is None:
            return emit("not-found", {}, word_eval)
        n, cert = out
        result = {"n": n, "cert": certfmt.proximal_json(cert)}
        return emit("yes", result, word_eval + certfmt.claims_for_proximal(m.power(n), cert))
    raise ProblemError(1, 1, f"unknown analyze subop {subop!r}")


def cmd_pingpong(prob: Problem, args) -> tuple[dict, int]:
    if prob.generators and prob.amalgam_raw:
        raise ProblemError(1, 1, "mixed backends in one file")
    if prob.amalgam_raw:
        return _tree_pingpong_cert(prob, args)
    group = _build_group(prob)
    subop = prob.task_get("subop", "tuple")
    oracle_len = int(args.oracle_len or prob.task_get("oracle-len", "6"))
    players_spec = prob.task_all("player")
    if not players_spec:
        raise ProblemError(1, 1, "task needs at least one 'player NAME = word'")
    names, words, mats = [], [], []
    for line_no, spec in players_spec:
        name, eq, word_text = spec.partition("=")
        if not eq:
            raise ProblemError(line_no, 1, "expected: player NAME = word")
        names.append(name.strip())
        w = _parse_word_at(group, word_text, line_no)
        words.append(w)
        mats.append(group.eval(w))
    task = {"op": "pingpong", "subop": subop, "players": {n: group.word_str(w) for n, w in zip(names, words)}, "oracle_len": oracle_len}
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    if subop == "oracle":
        out = freeness_oracle(mats, oracle_len, names=names)
        result = {"oracle": out.kind, "relation": out.word}
        return emit(out.kind, result, [certfmt.claim_oracle(oracle_len, out.kind, out.word, names)])
    declared = prob.task_get("radius-sq")
    players = []
    for name, w, m in zip(names, words, mats):
        cert = auto_very_proximal(m)
        if cert is None:
            return emit("unknown", {"failed_player": name})
        if declared is not None:
            radius = parse_rat(declared)
            c_f, c_b = cert.contraction, cert.very.contraction
            if subop == "simple-tuple":
                players.append(simple_player(name, m, ball(c_f.attract, radius), ball(c_b.attract, radius), cert))
            else:
                players.append(
                    PingPongPlayer(
                        name,
                        m,
                        ball(c_f.attract, radius),
                        hnbhd(c_f.repel, radius),
                        ball(c_b.attract, radius),
                        hnbhd(c_b.repel, radius),
                        cert,
                    )
                )
        else:
            players.append(PingPongPlayer(name, m, *cert.eps_sets, cert))
    tup = certify_tuple(players)
    claims = certfmt.claims_for_tuple(tup)
    result = {
        "verdict": tup.verdict,
        "witness_detail": tup.witness_detail,
        "players": {
            p.name: {label: certfmt.set_json(s) for label, s in p.sets()} for p in players
        },
    }
    if tup.witness is not None:
        result["witness"] = certfmt.point_json(tup.witness)
    if tup.verdict == "certified":
        oracle = freeness_oracle(mats, oracle_len, names=names)
        claims.append(certfmt.claim_oracle(oracle_len, oracle.kind, oracle.word, names))
        result["oracle"] = oracle.kind
    return emit(tup.verdict, result, claims)


def _tree_pingpong_cert(prob: Problem, args) -> tuple[dict, int]:
    am, header = _build_amalgam(prob)
    oracle_len = int(args.oracle_len or prob.task_get("oracle-len", "8"))
    words_spec = prob.task_all("word")
    if not words_spec:
        raise ProblemError(1, 1, "tree pingpong needs 'word' lines")
    elements = []
    for line_no, text in words_spec:
        with _input_error(TreeError, line_no):
            elements.append(tree_parse_word(am, text))
    texts = [text for _, text in words_spec]
    emit = _emitter(None, "amalgam", header, {"op": "pingpong", "subop": "tree", "words": texts, "oracle_len": oracle_len})
    with _input_error(TreeError):
        tup = tree_pingpong(elements, am)
    claims = certfmt.claims_for_tree_tuple(tup, texts)
    result = {"verdict": tup.verdict, "witness_detail": tup.witness_detail}
    if tup.verdict == "certified":
        oracle = freeness_oracle(elements, oracle_len, names=[f"t{i}" for i in range(len(elements))])
        claims.append(certfmt.claim_oracle(oracle_len, oracle.kind, oracle.word, texts))
        result["oracle"] = oracle.kind
    return emit(tup.verdict, result, claims)


def cmd_synthesize(prob: Problem, args) -> tuple[dict, int]:
    group = _build_group(prob)
    ws = group.word_str
    subop = _need(prob, "subop")
    task = {"op": "synthesize", "subop": subop}
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    budgets = _budgets(prob, args.budget or [])

    def parse_normals() -> list[NormalData]:
        normals = {}
        for line_no, spec in prob.task_all("normal"):
            label, eq, reps = spec.partition("=")
            if not eq:
                raise ProblemError(line_no, 1, "expected: normal LABEL = word [; word ...]")
            words = tuple(_parse_word_at(group, w, line_no) for w in reps.split(";") if w.strip())
            if not words:
                raise ProblemError(line_no, 1, "normal datum needs class representatives")
            normals[label.strip()] = [words, ()]
        for line_no, spec in prob.task_all("cosets"):
            label, eq, reps = spec.partition("=")
            label = label.strip()
            if not eq or label not in normals:
                raise ProblemError(line_no, 1, f"cosets for unknown normal {label!r}")
            normals[label][1] = tuple(_parse_word_at(group, w, line_no) for w in reps.split("|"))
        return [NormalData(lbl, reps, cosets) for lbl, (reps, cosets) in normals.items()]

    def claims_for(word, cert, *between) -> list[dict]:
        return certfmt.claims_for_cert(ws(word), group.eval(word), cert, *between)

    if subop == "truncated-prodense":
        normals = parse_normals()
        if not normals:
            raise ProblemError(1, 1, "truncated-prodense needs at least one 'normal' line")
        with _input_error():
            report = truncated_prodense(group, normals, budgets=budgets)
        task["normals"] = {d.label: [ws(w) for w in d.class_reps] for d in normals}
        claims, step1, step2 = [], [], {}
        for r in report.step1:
            claims += claims_for(r.word, r.cert)
            step1.append({"label": r.label, "word": ws(r.word), "nest": r.nest_exponent})
        for label, crs in report.step2.items():
            step2[label] = []
            for cr in crs:
                claims += claims_for(cr.word, cr.cert)
                step2[label].append({"coset": ws(cr.coset_rep), "word": ws(cr.word), "power": cr.power})
        result = {
            "host": {"word": ws(report.host_word), "power": report.host_power},
            "notes": list(report.notes),
            "verdict": report.verdict,
            "step1": step1,
            "step1_tuple": report.step1_tuple.verdict if report.step1_tuple else None,
            "step2": step2,
            "combined": report.combined.verdict if report.combined else None,
        }
        if report.oracle is not None:
            result["oracle"] = report.oracle.kind
            claims.append(certfmt.claim_oracle(PRODENSE_ORACLE_LEN, report.oracle.kind, report.oracle.word, []))
        return emit(report.verdict, result, claims)
    if subop == "conjugate-contract":
        g = _task_word(group, prob, "element")
        x = _task_word(group, prob, "x-element")
        eps_sq = parse_rat(_need(prob, "epsilon-sq"))
        m_max = int(prob.task_get("m-max", "8"))
        task.update({"element": ws(g), "x": ws(x), "epsilon_sq": certfmt.rat(eps_sq)})
        with _input_error():
            out = conjugate_contract(group, g, x, m_max, eps_sq)
        if out is None:
            return emit("not-found")
        m, word, cert = out
        return emit("yes", {"m": m, "word": ws(word), "cert": certfmt.contraction_json(cert)}, claims_for(word, cert))
    if subop == "b1b2b3":
        g = _task_word(group, prob, "element")
        words = {k: _task_word(group, prob, k) for k in ("b1", "b2", "b3")}
        attract_line = prob.task_all("attract")
        repel_line = prob.task_all("repel")
        if not attract_line or not repel_line:
            raise ProblemError(1, 1, "b1b2b3 needs 'attract' and 'repel' set literals")
        a_set = _parse_set(attract_line[0][1], attract_line[0][0], group.place)
        r_set = _parse_set(repel_line[0][1], repel_line[0][0], group.place)
        k_max = int(prob.task_get("k-max", "32"))
        task.update({"element": ws(g), "k_max": k_max})
        with _input_error():
            out = b1b2b3_synthesize(group, g, a_set, r_set, words["b1"], words["b2"], words["b3"], k_max)
        if out is None:
            return emit("not-found")
        claims = claims_for(out.word, out.cert) + [
            certfmt.claim_set_disjoint(out.attract, out.repel, "produced sets disjoint"),
            certfmt.claim_set_contains(a_set, out.attract, note="attracting set inside host"),
            certfmt.claim_set_contains(a_set, out.repel, note="repelling set inside host"),
        ]
        result = {
            "k": out.k,
            "word": ws(out.word),
            "attract": certfmt.set_json(out.attract),
            "repel": certfmt.set_json(out.repel),
            "cert": certfmt.contraction_json(out.cert),
        }
        return emit("yes", result, claims)
    if subop == "very-proximal":
        g = _task_word(group, prob, "element")
        word_len = int(prob.task_get("word-len", "2"))
        r_sq = parse_rat(_need(prob, "r-sq"))
        eps_sq = parse_rat(_need(prob, "epsilon-sq"))
        task.update({"element": ws(g), "r_sq": certfmt.rat(r_sq), "epsilon_sq": certfmt.rat(eps_sq)})
        with _input_error():
            out = very_proximal_search(group, g, word_len, r_sq, eps_sq)
        if out is None:
            return emit("not-found")
        f1, f2, w, cert = out
        result = {"f1": ws(f1), "f2": ws(f2), "word": ws(w), "cert": certfmt.proximal_json(cert)}
        return emit("yes", result, claims_for(w, cert))
    if subop == "normal-proximal":
        normals = parse_normals()
        if len(normals) != 1:
            raise ProblemError(1, 1, "normal-proximal takes exactly one 'normal' line")
        with _input_error():
            out = normal_proximal(group, normals[0], None, budgets)
        if out is None:
            return emit("not-found")
        membership = certfmt.claim_normal_membership(ws(out.word), ws(out.proof.to_word(list(normals[0].class_reps))))
        result = {"word": ws(out.word), "cert": certfmt.proximal_json(out.cert)}
        return emit("yes", result, claims_for(out.word, out.cert, membership))
    if subop == "coset-pingpong":
        normals = parse_normals()
        if len(normals) != 1:
            raise ProblemError(1, 1, "coset-pingpong takes exactly one 'normal' line")
        data = normals[0]
        if not data.coset_reps:
            raise ProblemError(1, 1, "coset-pingpong needs a 'cosets' line")
        a_n = normal_proximal(group, data, None, budgets)
        if a_n is None:
            return emit("not-found")
        got, failed = coset_pingpong(group, data, a_n, budgets)
        claims, deltas = [], []
        for cr in got:
            membership = certfmt.claim_normal_membership(
                ws(concat(cr.word, word_inverse(cr.coset_rep))), ws(cr.membership.to_word(list(data.class_reps)))
            )
            claims += claims_for(cr.word, cr.cert, membership)
            deltas.append({"coset": ws(cr.coset_rep), "word": ws(cr.word), "power": cr.power})
        result = {"deltas": deltas, "failed": [ws(w) for w in failed], "a_N": ws(a_n.word)}
        return emit("yes" if got and not failed else ("unknown" if got else "not-found"), result, claims)
    if subop == "double-coset":
        h1 = _task_word(group, prob, "h1")
        h2 = _task_word(group, prob, "h2")
        cs = [_parse_word_at(group, spec, line_no) for line_no, spec in prob.task_all("coset-rep")]
        c1 = auto_very_proximal(group.eval(h1))
        c2 = auto_very_proximal(group.eval(h2))
        if c1 is None or c2 is None:
            return emit("unknown", {"reason": "h1/h2 not certified"})
        out = double_coset_wrap(group, h1, h2, c1, c2, cs, budgets)
        claims, items = [], []
        for r in out:
            if r.skipped:
                items.append({"coset": ws(r.original), "skipped": r.skipped})
                continue
            claims += claims_for(r.word, r.cert)
            items.append({"coset": ws(r.original), "m": r.m, "n": r.n, "word": ws(r.word)})
        # every representative wrapped, or skipped as a trivial double coset
        return emit("yes" if len(out) == len(cs) else "unknown", {"wrapped": items}, claims)
    raise ProblemError(1, 1, f"unknown synthesize subop {subop!r}")


def cmd_tree(prob: Problem, args) -> tuple[dict, int]:
    am, header = _build_amalgam(prob)
    subop = _need(prob, "subop")
    task = {"op": "tree", "subop": subop}
    emit = _emitter(None, "amalgam", header, task)
    if subop in ("normal-form", "classify"):
        text = _need(prob, "word")
        with _input_error(TreeError):
            w = tree_parse_word(am, text)
        task["word"] = text
    if subop == "normal-form":
        result = {"syllables": [list(s) for s in w.syllables], "tail": w.tail, "is_identity": w.is_identity()}
        return emit("ok", result, [certfmt.claim_tree_normal_form(text, w)])
    if subop == "classify":
        out = classify(w, am)
        result = {"kind": out.kind}
        if out.kind == "hyperbolic":
            result["translation_length"] = out.translation_length
            result["axis_edge"] = [certfmt.vertex_json(out.axis_edge[0]), certfmt.vertex_json(out.axis_edge[1])]
        else:
            result["fixed_vertex"] = certfmt.vertex_json(out.fixed_vertex)
        return emit("ok", result, [certfmt.claim_tree_classify(text, out)])
    if subop == "expand":
        radius = int(args.radius or prob.task_get("radius", str(DEFAULT_RADIUS)))
        tree = BassSerreTree(am)
        claims, listing = [], []
        for v, depth in sorted(expand_tree(am, radius=radius).items(), key=lambda kv: (kv[1], str(kv[0]))):
            entry = {"vertex": certfmt.vertex_json(v), "depth": depth}
            if depth < radius:
                entry["degree"] = len(tree.neighbors(v))
                claims.append(certfmt.claim_tree_degree(v, entry["degree"]))
            listing.append(entry)
        task["radius"] = radius
        return emit("ok", {"vertices": listing, "count": len(listing)}, claims)
    if subop == "pingpong":
        return _tree_pingpong_cert(prob, args)
    if subop == "kernel":
        k = kernel_of_action(am)
        return emit("ok", {"elements": k, "names": [am.group_h.name_of(x) for x in k]}, [certfmt.claim_kernel(k)])
    raise ProblemError(1, 1, f"unknown tree subop {subop!r}")


def cmd_verify(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = certfmt.loads(fh.read())
        ok, failures = certfmt.verify(cert)
    except (OSError, VerifyError) as e:
        print(f"verify: {e}", file=sys.stderr)
        return EXIT_INPUT
    if ok:
        print(f"verify: all {len(cert.get('claims', []))} claims re-checked", file=sys.stderr)
        return EXIT_OK
    for f in failures:
        print(f"verify: {f}", file=sys.stderr)
    return EXIT_REFUTED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _run_problem(args, runner) -> int:
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        prob = parse_problem(text)
        if args.place:
            prob.place = parse_place(args.place)
        if args.oracle_len is not None:
            _check_oracle_len(args.oracle_len, "--oracle-len")
        cert, code = runner(prob, args)
    except ProblemError as e:
        print(f"{args.problem}:{e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TreeError, KeyError) as e:
        print(f"{args.problem}: {e}", file=sys.stderr)
        return EXIT_INPUT
    payload = certfmt.dumps(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="freecert", description="Exact certificates for projective and tree dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem file")
        p.add_argument("--out", help="write the certificate here instead of stdout")
        p.add_argument("--place", help="override the place: arch or p:PRIME")
        p.add_argument("--budget", action="append", help="NAME=VALUE, repeatable")
        p.add_argument("--radius", type=int, help="radius of the ball `tree expand` lists")
        p.add_argument("--oracle-len", type=int, dest="oracle_len", help="freeness oracle word length")

    for name in ("analyze", "pingpong", "synthesize", "tree"):
        common(sub.add_parser(name))
    vp = sub.add_parser("verify")
    vp.add_argument("certificate", help="certificate file to re-check")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.certificate)
    runner = {"analyze": cmd_analyze, "pingpong": cmd_pingpong, "synthesize": cmd_synthesize, "tree": cmd_tree}[args.command]
    return _run_problem(args, runner)


if __name__ == "__main__":
    sys.exit(main())
