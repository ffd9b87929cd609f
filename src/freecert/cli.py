"""Command-line front end.

Problem files are line-oriented with section headers, exact-rational
literals, and positioned parse errors.  Certificates go to stdout (or
--out), logs to stderr.  Exit codes: 2 for an input error, else that of
the verdict's row of `certfmt.VERDICTS`: 0 for ok, yes, certified and
no-relation, 3 for no, refuted and relation, 4 for unknown and not-found.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial

from . import certfmt
from .certfmt import EXIT_OK, EXIT_REFUTED, MAX_EXPONENT, MAX_ORACLE_LEN, MAX_SEARCH_WORD_LEN, PRODENSE_ORACLE_LEN, VerifyError, bounded_word, contraction_json, mat_json, plane_json, point_json, proximal_json, rat, set_json, shadow_json, vertex_json
from .dynamics import (
    certify_contracting,
    certify_proximal,
    certify_very_proximal,
    direction_candidates,
    power_to_proximal,
    singular_profile,
)
from .pingpong import MAX_ORACLE_WORDS, PingPongPlayer, certify_tuple, freeness_oracle, oracle_words, simple_player
from .projective import MAX_DIM, MarkedGroup, ProjHyperplane, ProjMat, ProjPoint, ProjSet, Word, ball, concat, hnbhd, word_inverse
from .scalar import ARCH, Place, parse_place, parse_rat
from .synthesis import (
    Budgets,
    NormalData,
    auto_very_proximal,
    b1b2b3_synthesize,
    conjugate_contract,
    coset_pingpong,
    double_coset_wrap,
    normal_proximal,
    player_from_cert,
    truncated_prodense,
    very_proximal_search,
)
from .tree import (
    DEFAULT_RADIUS,
    AmalgamData,
    ball_radius,
    ball_rows,
    classify,
    kernel_of_action,
    parse_word as tree_parse_word,
    tree_pingpong,
)

EXIT_INPUT = 2

#: Largest problem file, in bytes: over a thousand times the largest
#: problem of the tests (983 bytes) and of the benchmark deck (414).  At most one
#: byte more is read, so a huge file is refused before it is parsed.
MAX_PROBLEM_BYTES = 1 << 20


class ProblemError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Problem-file parsing
# ---------------------------------------------------------------------------


_REQUIRED = object()


class Problem:
    """A parsed problem file, the whole of its task.  Commands read `[task]`
    values only through `value` and `values`, which parse, position errors
    and record each key as read, so a key no command reads can be refused
    by `all_read`."""

    def __init__(self):
        self.command = ""  # the subcommand running the task
        self.place: Place | None = None
        self.place_line = 0  # the line of the place directive, 0 without one
        self.dim: int | None = None
        self.generators: list[tuple[int, str, list[list[Fraction]]]] = []  # (line, name, rows)
        self.amalgam_raw: dict = {}
        self.task: dict[str, list[tuple[int, str]]] = {}  # key -> [(line, value)]
        self.read: set[str] = set()  # task keys a command read

    def value(self, key: str, parse, default=_REQUIRED):
        """`parse` of the key's value, or `default` when the key is absent
        (without a default the key is required).  An error, a second line
        of the key included, is reported at the value's line:col."""
        self.read.add(key)
        if key not in self.task:
            if default is _REQUIRED:
                raise ProblemError(1, 1, f"task needs '{key}'")
            return default
        (line, text), *again = self.task[key]
        if again:
            raise ProblemError(again[0][0], 1, f"'{key}' is already given on line {line}")
        return _parsed(parse, text, line, len(key) + 2)

    def values(self, key: str, parse) -> list:
        """`parse` of every value of a repeatable key, in file order.  An
        error is reported at the start of the value's line."""
        self.read.add(key)
        return [_parsed(parse, text, line) for line, text in self.task.get(key, [])]

    def all_read(self) -> None:
        """Refuse a `[task]` key the command did not read.  Each command
        calls this once it has read every value it reads, before it
        searches, so a stray key fails fast."""
        unread = min(((lines[0][0], key) for key, lines in self.task.items() if key not in self.read), default=None)
        if unread:
            raise ProblemError(unread[0], 1, f"'{unread[1]}' is not a key of this {self.command} task")

    def oracle_fits(self, key: str, k: int, oracle_len: int) -> None:
        """Refuse k oracle elements, at the last `key` line, when the search
        to oracle_len would store more than MAX_ORACLE_WORDS words."""
        words = oracle_words(k, oracle_len)
        if words > MAX_ORACLE_WORDS:
            line = self.task[key][-1][0]
            raise ProblemError(line, 1, f"{k} elements at oracle-len {oracle_len} store {words} words, over MAX_ORACLE_WORDS = {MAX_ORACLE_WORDS}")


def _parsed(parse, text: str, line: int, col: int = 1):
    """`parse(text)`, with a ValueError or KeyError (a bad generator name)
    reported as a ProblemError at line:col."""
    try:
        return parse(text)
    except (ValueError, KeyError) as e:
        raise ProblemError(line, col, str(e)) from None


def _parse_matrix_literal(text: str, line: int) -> list[list[Fraction]]:
    """The rows of `[[a, b, ...], [c, d, ...], ...]`.  Outside the rows only
    brackets and commas may stand, each where the layout puts it."""
    rows: list[list[Fraction]] = []
    depth, token, prev = 0, "", ""
    for col, ch in enumerate(text, start=1):
        if depth == 2:
            if ch == "[":
                raise ProblemError(line, col, "matrix literal nests too deep")
            if ch not in ",]":
                token += ch
                continue
            if not token.strip():
                raise ProblemError(line, col, "empty matrix entry")
            rows[-1].append(_parsed(parse_rat, token, line, col))
            token = ""
            if ch == "]":
                depth = 1
        elif ch == "]" and depth == 0:
            raise ProblemError(line, col, "unbalanced ']' in matrix literal")
        elif depth == 0 and ch.strip() and (prev or ch != "["):
            raise ProblemError(line, col, "trailing characters after matrix literal" if prev else "matrix literal must start with '['")
        elif depth == 1 and ch.strip() and ch not in "[],":
            raise ProblemError(line, col, "matrix entry outside a row")
        elif depth == 1 and ch.strip() and prev not in {"[": "[,", ",": "]", "]": "[]"}[ch]:
            raise ProblemError(line, col, f"misplaced {ch!r} in matrix literal")
        elif ch == "[":
            depth += 1
            if depth == 2:
                rows.append([])
        elif ch == "]":
            depth -= 1
        if ch.strip():
            prev = ch
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
            try:  # a line of integers is a table row
                table_rows.append([int(t) for t in body.split()])
                continue
            except ValueError:
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
                if prob.place_line:
                    raise ProblemError(line_no, 1, f"'place' is already given on line {prob.place_line}")
                prob.place, prob.place_line = _parsed(parse_place, rest, line_no, len(key) + 2), line_no
            else:
                raise ProblemError(line_no, 1, f"unexpected directive {key!r} before any section")
            continue
        if section == "matrix-group":
            if key == "dim":
                prob.dim = _parsed(_int_in("dim", 2, MAX_DIM), rest, line_no, len(key) + 2)
            elif key == "gen":
                name, eq, literal = rest.partition("=")
                name = name.strip()
                if not eq or not name.isidentifier():
                    raise ProblemError(line_no, len(key) + 2, "expected: gen NAME = [[...], [...]]")
                first = next((line for line, seen, _ in prob.generators if seen == name), None)
                if first is not None:
                    raise ProblemError(line_no, len(key) + 2, f"generator {name} is already defined on line {first}")
                rows = _parse_matrix_literal(literal.strip(), line_no)
                if len(rows) > MAX_DIM:
                    raise ProblemError(line_no, 1, f"generator {name} is {len(rows)}x{len(rows)}, over MAX_DIM = {MAX_DIM}")
                prob.generators.append((line_no, name, rows))
            else:
                raise ProblemError(line_no, 1, f"unknown matrix-group directive {key!r}")
            # reported on whichever of the generator and the dim line comes later
            wrong = [(name, len(rows)) for _, name, rows in prob.generators if prob.dim not in (None, len(rows))]
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
                tokens = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", body)][1:]
                prob.amalgam_raw[key.replace("-", "_")] = [_parsed(int, t, line_no, col) for col, t in tokens]
            else:
                raise ProblemError(line_no, 1, f"unknown amalgam directive {key!r}")
        elif section == "task":
            prob.task.setdefault(key, []).append((line_no, rest))
    close_table(len(text.splitlines()) + 1)
    if not saw_format:
        raise ProblemError(1, 1, "missing 'format 1' header")
    if prob.generators and prob.amalgam_raw:
        raise ProblemError(1, 1, "mixed backends in one file")
    return prob


def _build_group(prob: Problem) -> MarkedGroup:
    if not prob.generators:
        raise ProblemError(1, 1, "task needs a [matrix-group] section")
    place = prob.place or ARCH
    gens = []
    for line, name, rows in prob.generators:
        if gens and len(rows) != gens[0][1].dim:
            k, first = gens[0][1].dim, gens[0][0]
            raise ProblemError(line, 1, f"bad generator {name}: it is {len(rows)}x{len(rows)}, but {first} is {k}x{k}")
        try:
            gens.append((name, ProjMat(rows, place)))
        except ValueError as e:
            raise ProblemError(line, 1, f"bad generator {name}: {e}") from None
    return MarkedGroup(tuple(gens))


def _build_amalgam(prob: Problem) -> tuple[AmalgamData, dict]:
    """The amalgam and the certificate header that records its tables."""
    if prob.place_line:  # an amalgam acts on its tree, at no place
        raise ProblemError(prob.place_line, 1, f"'place' is not a directive of this {prob.command} task")
    raw = prob.amalgam_raw
    needed = ("table_a", "table_b", "table_h", "embed_a", "embed_b")
    missing = [k for k in needed if k not in raw]
    if missing:
        raise ProblemError(1, 1, f"amalgam section incomplete: missing {missing[0].replace('_', '-')}")
    data = {k: raw.get(k) for k in needed + ("names_a", "names_b", "names_h")}
    try:
        return certfmt.amalgam_from(data), {"amalgam": data}
    except VerifyError as e:
        raise ProblemError(1, 1, str(e)) from None


def _group_header(group: MarkedGroup) -> dict:
    return {"generators": {name: mat_json(m) for name, m in group.gens}}


def _budget(spec: str) -> tuple[str, int]:
    """A `NAME=INT` budget of `Budgets`.  The word lengths are refused
    outside 0..MAX_SEARCH_WORD_LEN and the power and adjuster counts
    outside 0..MAX_EXPONENT: each is the size of a search that would not
    fail but run for minutes.  `num_factors` is 1 or 2, the products of
    conjugates the normal-closure pool builds."""
    name, eq, val = spec.partition("=")
    name = name.strip()
    if not eq or name not in Budgets._fields:
        raise ValueError(f"unknown budget {name!r}")
    if name in ("host_word_len", "conj_len"):
        return name, _int_in(f"budget {name}", 0, MAX_SEARCH_WORD_LEN)(val)
    if name == "num_factors":
        return name, _int_in(f"budget {name}", 1, 2)(val)
    return name, _int_in(f"budget {name}", 0, MAX_EXPONENT)(val)


def _int_in(what: str, low: int, high: int):
    """A parser of an integer `what` in low..high."""

    def parse(text: str | int) -> int:
        n = int(text)
        if not low <= n <= high:
            raise ValueError(f"{what} {n} is outside {low}..{high}")
        return n

    return parse


def _one_of(what: str, *names: str):
    """A parser that accepts only `names`."""

    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"{what} {text!r} is not one of: {', '.join(names)}")
        return text

    return parse


def _parse_set(text: str, dim: int) -> ProjSet:
    """`ball [coords] radius-sq` or `hnbhd [coords] radius-sq`, of `dim` coordinates."""
    kind, _, rest = text.partition("[")
    coords, bracket, radius = rest.partition("]")
    if kind.strip() not in ("ball", "hnbhd") or not bracket:
        raise ValueError("set literal must be: ball|hnbhd [coords] radius-sq")
    vec = tuple(parse_rat(tok) for tok in coords.split(",") if tok.strip())
    if len(vec) != dim:
        raise ValueError(f"set has {len(vec)} coordinates, but the generators are {dim}x{dim}")
    if kind.strip() == "ball":
        return ball(ProjPoint(vec), parse_rat(radius))
    return hnbhd(ProjHyperplane(vec), parse_rat(radius))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _emitter(place: Place | None, backend: str, header: dict, task: dict):
    """emit(verdict, result, claims) -> (certificate, exit code) for one
    command, the exit code that of the verdict's row of `certfmt.VERDICTS`."""

    def emit(verdict: str, result: dict | None = None, claims: list[dict] | None = None) -> tuple[dict, int]:
        row = certfmt.VERDICTS[task["op"], task["subop"], verdict]
        return certfmt.certificate(place, backend, header, task, verdict, result or {}, claims or []), row.exit

    return emit


def cmd_analyze(prob: Problem) -> tuple[dict, int]:
    group = _build_group(prob)
    subop = prob.value("subop", _one_of("analyze subop", "profile", "contracting", "proximal", "very-proximal", "power-proximal"))
    word = prob.value("element", partial(bounded_word, group=group))
    task = {"op": "analyze", "subop": subop, "element": group.word_str(word)}
    if subop != "profile":
        eps_sq = prob.value("epsilon-sq", parse_rat)
        task["epsilon_sq"] = rat(eps_sq)
    if subop not in ("profile", "contracting"):
        r_sq = prob.value("r-sq", parse_rat)
        task["r_sq"] = rat(r_sq)
    if subop == "power-proximal":
        task["max_n"] = max_n = prob.value("max-n", _int_in("max-n", 1, MAX_EXPONENT), 16)
    prob.all_read()
    m = group.eval(word)
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    if subop in ("contracting", "proximal", "very-proximal"):
        if subop == "contracting":
            v, cert_json = certify_contracting(m, eps_sq), contraction_json
        else:
            v, cert_json = (certify_proximal if subop == "proximal" else certify_very_proximal)(m, r_sq, eps_sq), proximal_json
        if v.kind == "yes":
            result = {"cert": cert_json(v.cert)}
            return emit("yes", result, certfmt.certified_claims(task["element"], m, result["cert"]))
        if v.kind == "no":
            result = {"counterexample": point_json(v.counterexample)}
            dirs = direction_candidates(v.refutes)
            return emit("no", result, certfmt.refuted_claims(task["element"], m, v.refutes, task["epsilon_sq"], result["counterexample"], point_json(dirs.attract), plane_json(dirs.repel)))
    # every other verdict starts with the element's word-eval claim
    word_eval = [certfmt.word_eval_claim(task["element"], mat_json(m))]
    if subop == "profile":
        prof = singular_profile(m)
        result = {"values_sq": [{"lo": rat(v.lo), "hi": rat(v.hi)} for v in prof.values_sq], "exact": prof.exact}
        return emit("ok", result, word_eval)
    if subop == "power-proximal":
        out = power_to_proximal(m, r_sq, eps_sq, max_n)
        if out is None:
            return emit("not-found", {}, word_eval)
        n, cert = out
        result = {"n": n, "cert": proximal_json(cert)}
        return emit("yes", result, word_eval + certfmt.proximal_claims(m.power(n), result["cert"]))
    return emit(v.kind, {}, word_eval)


def cmd_pingpong(prob: Problem) -> tuple[dict, int]:
    group = _build_group(prob)
    subop = prob.value("subop", _one_of("pingpong subop", "tuple", "simple-tuple", "oracle"), "tuple")
    oracle_len = prob.value("oracle-len", _int_in("oracle-len", 1, MAX_ORACLE_LEN), 6)
    word = partial(bounded_word, group=group)

    def player(spec: str) -> tuple[str, Word]:
        name, eq, word_text = spec.partition("=")
        if not eq:
            raise ValueError("expected: player NAME = word")
        return name.strip(), word(word_text)

    players_spec = prob.values("player", player)
    if not players_spec:
        raise ProblemError(1, 1, "task needs at least one 'player NAME = word'")
    prob.oracle_fits("player", len(players_spec), oracle_len)
    radius = None if subop == "oracle" else prob.value("radius-sq", parse_rat, None)
    prob.all_read()
    names = [name for name, _ in players_spec]
    mats = [group.eval(w) for _, w in players_spec]
    task = {"op": "pingpong", "subop": subop, "players": {n: group.word_str(w) for n, w in players_spec}, "oracle_len": oracle_len}
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    if subop == "oracle":
        out = freeness_oracle(mats, oracle_len, names=names)
        result = {"oracle": out.kind, "relation": out.word}
        return emit(out.kind, result, [certfmt.oracle_claim(oracle_len, out.kind, out.word, names)])
    players = []
    for name, m in zip(names, mats):
        cert = auto_very_proximal(m)
        if cert is None:
            return emit("unknown", {"failed_player": name})
        c_f, c_b = cert.contraction, cert.very.contraction
        if radius is None:
            players.append(player_from_cert(name, m, cert))
        elif subop == "simple-tuple":
            players.append(simple_player(name, m, ball(c_f.attract, radius), ball(c_b.attract, radius), cert))
        else:
            a_plus, a_minus = ball(c_f.attract, radius), ball(c_b.attract, radius)
            players.append(PingPongPlayer(name, m, a_plus, hnbhd(c_f.repel, radius), a_minus, hnbhd(c_b.repel, radius), cert))
    tup = certify_tuple(players)
    players_json = {p.name: {label: set_json(s) for label, s in p.sets()} for p in players}
    result = {"verdict": tup.verdict, "witness_detail": tup.witness_detail, "players": players_json}
    groups = [certfmt.proximal_claims(p.element, proximal_json(p.evidence)) for p in players]
    claims = certfmt.matrix_tuple_claims(result["players"], names, groups, tup.passed)
    if tup.witness is not None:
        result["witness"] = point_json(tup.witness)
    if tup.verdict == "certified":
        oracle = freeness_oracle(mats, oracle_len, names=names)
        claims.append(certfmt.oracle_claim(oracle_len, oracle.kind, oracle.word, names))
        result["oracle"] = oracle.kind
    return emit(tup.verdict, result, claims)


def cmd_synthesize(prob: Problem) -> tuple[dict, int]:
    group = _build_group(prob)
    ws = group.word_str
    subops = ("truncated-prodense", "conjugate-contract", "b1b2b3", "very-proximal", "normal-proximal", "coset-pingpong", "double-coset")
    subop = prob.value("subop", _one_of("synthesize subop", *subops))
    task = {"op": "synthesize", "subop": subop}
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    # the budgeted subops read the budget lines (all_read refuses them elsewhere)
    if subop in ("truncated-prodense", "normal-proximal", "coset-pingpong", "double-coset"):
        budgets = Budgets(**dict(prob.values("budget", _budget)))

    word = partial(bounded_word, group=group)

    def parse_normals() -> list[NormalData]:
        def normal(spec: str) -> tuple[str, tuple[Word, ...]]:
            label, eq, reps = spec.partition("=")
            if not eq:
                raise ValueError("expected: normal LABEL = word [; word ...]")
            words = tuple(word(w) for w in reps.split(";") if w.strip())
            if not words:
                raise ValueError("normal datum needs class representatives")
            return label.strip(), words

        normals = {label: [words, ()] for label, words in prob.values("normal", normal)}

        def cosets(spec: str) -> None:
            label, eq, reps = spec.partition("=")
            if not eq:
                raise ValueError("expected: cosets LABEL = word | word ...")
            if label.strip() not in normals:
                raise ValueError(f"cosets for unknown normal {label.strip()!r}")
            normals[label.strip()][1] = tuple(word(w) for w in reps.split("|"))

        prob.values("cosets", cosets)
        return [NormalData(lbl, reps, cosets) for lbl, (reps, cosets) in normals.items()]

    normals = parse_normals() if subop in ("truncated-prodense", "normal-proximal", "coset-pingpong") else []
    if len(normals) != 1 and subop in ("normal-proximal", "coset-pingpong"):
        raise ProblemError(1, 1, f"{subop} takes exactly one 'normal' line")
    if subop == "truncated-prodense":
        if not normals:
            raise ProblemError(1, 1, "truncated-prodense needs at least one 'normal' line")
        if any(d.coset_reps for d in normals):  # the host and one element per coset
            prob.oracle_fits("cosets", 1 + sum(len(d.coset_reps) for d in normals), PRODENSE_ORACLE_LEN)
        prob.all_read()
        report = truncated_prodense(group, normals, budgets=budgets)
        task["normals"] = {d.label: [ws(w) for w in d.class_reps] for d in normals}
        claims, step1, step2 = [], [], {}
        for r in report.step1:
            claims += certfmt.certified_claims(ws(r.word), group.eval(r.word), proximal_json(r.cert))
            step1.append({"label": r.label, "word": ws(r.word), "nest": r.nest_exponent})
        for label, crs in report.step2.items():
            step2[label] = []
            for cr in crs:
                claims += certfmt.certified_claims(ws(cr.word), group.eval(cr.word), proximal_json(cr.cert))
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
            claims.append(certfmt.oracle_claim(PRODENSE_ORACLE_LEN, report.oracle.kind, report.oracle.word, []))
        return emit(report.verdict, result, claims)
    if subop == "conjugate-contract":
        g = prob.value("element", word)
        x = prob.value("x-element", word)
        eps_sq = prob.value("epsilon-sq", parse_rat)
        m_max = prob.value("m-max", _int_in("m-max", 1, MAX_EXPONENT), 8)
        prob.all_read()
        task.update({"element": ws(g), "x": ws(x), "epsilon_sq": rat(eps_sq)})
        out = conjugate_contract(group, g, x, m_max, eps_sq)
        if out is None:
            return emit("not-found")
        m, w, cert = out
        result = {"m": m, "word": ws(w), "cert": contraction_json(cert)}
        return emit("yes", result, certfmt.certified_claims(ws(w), group.eval(w), result["cert"]))
    if subop == "b1b2b3":
        g = prob.value("element", word)
        b1, b2, b3 = prob.value("b1", word), prob.value("b2", word), prob.value("b3", word)
        a_set = prob.value("attract", lambda text: _parse_set(text, group.dim))
        r_set = prob.value("repel", lambda text: _parse_set(text, group.dim))
        k_max = prob.value("k-max", _int_in("k-max", 0, MAX_EXPONENT), 32)
        prob.all_read()
        task.update({"element": ws(g), "k_max": k_max})
        out = b1b2b3_synthesize(group, g, a_set, r_set, b1, b2, b3, k_max)
        if out is None:
            return emit("not-found")
        attract, repel = set_json(out.attract), set_json(out.repel)
        result = {"k": out.k, "word": ws(out.word), "attract": attract, "repel": repel, "cert": contraction_json(out.cert)}
        claims = certfmt.certified_claims(ws(out.word), group.eval(out.word), result["cert"]) + certfmt.b1b2b3_claims(attract, repel, set_json(a_set))
        return emit("yes", result, claims)
    if subop == "very-proximal":
        g = prob.value("element", word)
        word_len = prob.value("word-len", _int_in("word-len", 1, MAX_SEARCH_WORD_LEN), 2)
        r_sq = prob.value("r-sq", parse_rat)
        eps_sq = prob.value("epsilon-sq", parse_rat)
        prob.all_read()
        task.update({"element": ws(g), "r_sq": rat(r_sq), "epsilon_sq": rat(eps_sq)})
        out = very_proximal_search(group, g, word_len, r_sq, eps_sq)
        if out is None:
            return emit("not-found")
        f1, f2, w, cert = out
        result = {"f1": ws(f1), "f2": ws(f2), "word": ws(w), "cert": proximal_json(cert)}
        return emit("yes", result, certfmt.certified_claims(ws(w), group.eval(w), result["cert"]))
    if subop == "normal-proximal":
        prob.all_read()
        out = normal_proximal(group, normals[0], None, budgets)
        if out is None:
            return emit("not-found")
        membership = certfmt.membership_claim(ws(out.word), ws(out.proof.to_word(list(normals[0].class_reps))))
        result = {"word": ws(out.word), "cert": proximal_json(out.cert)}
        return emit("yes", result, certfmt.certified_claims(ws(out.word), group.eval(out.word), result["cert"], membership))
    if subop == "coset-pingpong":
        data = normals[0]
        if not data.coset_reps:
            raise ProblemError(1, 1, "coset-pingpong needs a 'cosets' line")
        prob.all_read()
        a_n = normal_proximal(group, data, None, budgets)
        if a_n is None:
            return emit("not-found")
        got, failed = coset_pingpong(group, data, a_n, budgets)
        claims, deltas = [], []
        for cr in got:
            membership = certfmt.membership_claim(ws(concat(cr.word, word_inverse(cr.coset_rep))), ws(cr.membership.to_word(list(data.class_reps))))
            claims += certfmt.certified_claims(ws(cr.word), group.eval(cr.word), proximal_json(cr.cert), membership)
            deltas.append({"coset": ws(cr.coset_rep), "word": ws(cr.word), "power": cr.power})
        result = {"deltas": deltas, "failed": [ws(w) for w in failed], "a_N": ws(a_n.word)}
        return emit("yes" if got and not failed else ("unknown" if got else "not-found"), result, claims)
    # double-coset
    h1 = prob.value("h1", word)
    h2 = prob.value("h2", word)
    cs = prob.values("coset-rep", word)
    prob.all_read()
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
        claims += certfmt.certified_claims(ws(r.word), group.eval(r.word), contraction_json(r.cert))
        items.append({"coset": ws(r.original), "m": r.m, "n": r.n, "word": ws(r.word)})
    # every representative wrapped, or skipped as a trivial double coset
    return emit("yes" if len(out) == len(cs) else "unknown", {"wrapped": items}, claims)


def cmd_tree(prob: Problem) -> tuple[dict, int]:
    am, header = _build_amalgam(prob)
    subop = prob.value("subop", _one_of("tree subop", "normal-form", "classify", "expand", "pingpong", "kernel"))
    task = {"op": "tree", "subop": subop}

    def word(text: str) -> tuple[str, object]:
        # certificates echo the word as written
        return text, tree_parse_word(am, bounded_word(text, None))

    if subop in ("normal-form", "classify"):
        task["word"], w = prob.value("word", word)
    elif subop == "expand":
        task["radius"] = radius = prob.value("radius", lambda text: ball_radius(am, int(text)), DEFAULT_RADIUS)
    elif subop == "pingpong":
        oracle_len = prob.value("oracle-len", _int_in("oracle-len", 1, MAX_ORACLE_LEN), 8)
        words = prob.values("word", word)
        if not words:
            raise ProblemError(1, 1, "tree pingpong needs 'word' lines")
        prob.oracle_fits("word", len(words), oracle_len)
        texts = [text for text, _ in words]
        task = {"op": "pingpong", "subop": "tree", "words": texts, "oracle_len": oracle_len}
    prob.all_read()
    emit = _emitter(None, "amalgam", header, task)
    if subop == "normal-form":
        result = {"syllables": [list(s) for s in w.syllables], "tail": w.tail, "is_identity": w.is_identity()}
        return emit("ok", result, [certfmt.normal_form_claim(task["word"], result["syllables"], w.tail)])
    if subop == "classify":
        out = classify(w)
        result = {"kind": out.kind}
        if out.kind == "hyperbolic":
            result["translation_length"] = out.translation_length
            result["axis_edge"] = [vertex_json(out.axis_edge[0]), vertex_json(out.axis_edge[1])]
        else:
            result["fixed_vertex"] = vertex_json(out.fixed_vertex)
        return emit("ok", result, [certfmt.classify_claim(task["word"], out.kind, out.translation_length)])
    if subop == "expand":
        rows = ball_rows(am, radius)
        return emit("ok", {"ball": rows, "count": len(rows)})
    if subop == "pingpong":
        elements = [w for _, w in words]
        tup = tree_pingpong(elements)
        lengths = [p.evidence.classification.translation_length for p in tup.players]
        shadows = [[shadow_json(s) for _, s in p.sets()] for p in tup.players]
        claims = certfmt.tree_tuple_claims(texts, lengths, shadows, tup.passed)
        result = {"verdict": tup.verdict, "witness_detail": tup.witness_detail}
        if tup.verdict == "certified":
            oracle = freeness_oracle(elements, oracle_len, names=[p.name for p in tup.players])
            claims.append(certfmt.oracle_claim(oracle_len, oracle.kind, oracle.word, texts))
            result["oracle"] = oracle.kind
        return emit(tup.verdict, result, claims)
    k = kernel_of_action(am)
    return emit("ok", {"elements": k, "names": [am.group_h.name_of(x) for x in k]}, [certfmt.kernel_claim(k)])


def cmd_verify(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert, failures = certfmt.verify_text(fh.read())
    except (OSError, UnicodeDecodeError, VerifyError) as e:
        print(f"verify: {e}", file=sys.stderr)
        return EXIT_INPUT
    if not failures:
        print(f"verify: all {len(cert.get('claims', []))} claims re-checked", file=sys.stderr)
        return EXIT_OK
    for f in failures:
        print(f"verify: {f}", file=sys.stderr)
    return EXIT_REFUTED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


USAGE = """\
usage: freecert {analyze,pingpong,synthesize,tree} PROBLEM [--out PATH]
       freecert verify CERTIFICATE
The problem file holds the whole task; --out PATH (or --out=PATH) names the certificate file.
"""


def _run_problem(command: str, path: str, out: str, runner) -> int:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_PROBLEM_BYTES + 1)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if len(data) > MAX_PROBLEM_BYTES:
            line = data.count(b"\n", 0, MAX_PROBLEM_BYTES) + 1
            byte = MAX_PROBLEM_BYTES - data.rfind(b"\n", 0, MAX_PROBLEM_BYTES)
            raise ProblemError(line, byte, f"problem file is longer than MAX_PROBLEM_BYTES = {MAX_PROBLEM_BYTES}")
        prob = parse_problem(data.decode("utf-8"))
        prob.command = command
        prob.value("op", _one_of("op", command), None)
        cert, code = runner(prob)
        prob.all_read()  # the commands call it before searching; this guards a path that did not
        payload = certfmt.dumps(cert)
    except ProblemError as e:
        print(f"{path}:{e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EXIT_INPUT
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(payload)
    return code


def main(argv=None) -> int:
    words = iter(sys.argv[1:] if argv is None else argv)
    command, files, flags = next(words, ""), [], []  # flags: (name, value) in order; only --out takes a value
    for word in words:
        if word.startswith("--") and word != "--help":
            name, eq, value = word.partition("=")
            flags.append((name, value if eq or name != "--out" else next(words, None)))
        else:
            files.append(word)
    if {"-h", "--help"} & {command, *files}:
        sys.stdout.write(USAGE)
        return EXIT_OK
    # built at each call, so that a cmd_* wrapped on the module (by a tracer) runs
    runner = {"analyze": cmd_analyze, "pingpong": cmd_pingpong, "synthesize": cmd_synthesize, "tree": cmd_tree}.get(command)
    unknown = [name for name, _ in flags if name != "--out"]
    out = flags[-1][1] if flags else ""  # the last --out wins; only a bare --out at the end is None
    error = (
        (f"unknown command {command!r}" if command else "missing command") if runner is None and command != "verify"
        else f"verify takes no flag, not {flags[0][0]}" if runner is None and flags
        else f"unknown flag {unknown[0]}" if unknown
        else f"{command} takes one file, {len(files)} given" if len(files) != 1
        else "--out needs a value" if out is None
        else None
    )
    if error:
        sys.stderr.write(f"{USAGE}freecert: {error}\n")
        return EXIT_INPUT
    return cmd_verify(files[0]) if runner is None else _run_problem(command, files[0], out, runner)


if __name__ == "__main__":
    sys.exit(main())
