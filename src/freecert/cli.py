"""Command-line front end.

Problem files are line-oriented with section headers, exact-rational
literals, and positioned parse errors.  Certificates go to stdout (or
--out), logs to stderr.  Exit codes: 0 certified/yes, 2 input error,
3 refuted/no, 4 unknown/not-found/partial.
"""

from __future__ import annotations

import argparse
import sys
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
from .pingpong import MAX_ORACLE_WORDS, PingPongPlayer, certify_tuple, freeness_oracle, oracle_words, simple_player
from .projective import ProjHyperplane, ProjMat, ProjPoint, ProjSet, ball, hnbhd
from .scalar import ARCH, Place, parse_place, parse_rat, word_tokens
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
    player_from_cert,
    truncated_prodense,
    very_proximal_search,
    word_inverse,
)
from .tree import (
    DEFAULT_RADIUS,
    AmalgamData,
    BassSerreTree,
    TreeError,
    ball_radius,
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

#: Longest word the freeness oracle may be asked to search.  It stores
#: the reduced words of half that length, (2k)(2k - 1)^(L/2 - 1) of them
#: for k players, which `pingpong.MAX_ORACLE_WORDS` bounds as well.
MAX_ORACLE_LEN = 12
#: Largest exponent a power search may try: `max-n` (g^n), `m-max`
#: (g^m x g^-m) and `k-max` (g^-(k+1)).  Each exponent is one more
#: certification of a matrix whose entries grow with it, so a larger
#: value would not fail but run for minutes.
MAX_EXPONENT = 64
#: Longest word `synthesize very-proximal` tries for f1 and f2.  It
#: certifies every pair of words up to that length, 2809 pairs for two
#: generators at length 3, so a longer one would run for minutes.
MAX_SEARCH_WORD_LEN = 3
#: Most letters a problem-file word may expand to.  Each letter is a
#: matrix product whose entries grow with the word, or a tree normal-form
#: step, so a long word would not fail but run for minutes and overflow
#: the certificate's numbers.
MAX_WORD_LEN = 64
#: Largest matrix dimension.  One archimedean `direction_candidates`
#: (singular profile and power iteration) takes 0.1-0.2 s at n = 12 and
#: 0.2-0.3 s at n = 16 on random entries in -9..9, and a search certifies
#: up to MAX_EXPONENT such matrices, so a larger n would not fail but run
#: for minutes.
MAX_DIM = 16
#: Largest height of a problem-file matrix word: the sum, over its
#: letters, of the bit length of the largest entry of the letter's
#: primitive integer matrix.  That bounds the bits of the word's entries,
#: and a certificate's numbers grow with them: for `analyze contracting`
#: on (a b)^k with a = [[99, 98], [1, 1]], b = [[1, 0], [99, 1]], each bit
#: of height costs about 14 decimal digits, so 256 keeps them near 3500,
#: under the 4300 digits Python converts to text.
MAX_WORD_HEIGHT = 256
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
    """A parsed problem file and the command-line flags given with it.
    Commands read `[task]` values only through `value` and `values`,
    which parse, position errors and record each key as read, and flags
    only through `flag`, so a key or flag no command reads can be
    refused by `all_read`."""

    def __init__(self):
        self.command = ""  # the subcommand running the task
        self.place: Place | None = None
        self.dim: int | None = None
        self.generators: list[tuple[str, list[list[Fraction]]]] = []
        self.amalgam_raw: dict = {}
        self.task: dict[str, list[tuple[int, str]]] = {}  # key -> [(line, value)]
        self.flags: dict[str, object] = {}  # command-line flag given -> its parsed value
        self.read: set[str] = set()  # task keys and flags a command read

    def value(self, key: str, parse, default=_REQUIRED):
        """`parse` of the key's first value, or `default` when the key is
        absent (without a default the key is required).  An error is
        reported at the value's line:col."""
        self.read.add(key)
        if key not in self.task:
            if default is _REQUIRED:
                raise ProblemError(1, 1, f"task needs '{key}'")
            return default
        line, text = self.task[key][0]
        return _parsed(parse, text, line, len(key) + 2)

    def values(self, key: str, parse) -> list:
        """`parse` of every value of a repeatable key, in file order.  An
        error is reported at the start of the value's line."""
        self.read.add(key)
        return [_parsed(parse, text, line) for line, text in self.task.get(key, [])]

    def flag(self, name: str):
        """The value of the flag `name` (such as `--budget`), or None when
        it was not given."""
        self.read.add(name)
        return self.flags.get(name)

    def all_read(self) -> None:
        """Refuse a `[task]` key or a flag the command did not read.  Each
        command calls this once it has read every value it reads, before
        it searches, so a stray key fails fast."""
        unread = sorted((lines[0][0], key) for key, lines in self.task.items() if key not in self.read)
        if unread:
            line, key = unread[0]
            raise ProblemError(line, 1, f"'{key}' is not a key of this {self.command} task")
        unread_flags = [name for name in self.flags if name not in self.read]
        if unread_flags:
            raise ValueError(f"{unread_flags[0]} is not a flag of this {self.command} task")

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
                    row.append(_parsed(parse_rat, token, line, col))
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
                row.append(_parsed(parse_rat, token, line, col))
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
                prob.place = _parsed(parse_place, rest, line_no, len(key) + 2)
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
                rows = _parse_matrix_literal(literal.strip(), line_no)
                if len(rows) > MAX_DIM:
                    raise ProblemError(line_no, 1, f"generator {name} is {len(rows)}x{len(rows)}, over MAX_DIM = {MAX_DIM}")
                prob.generators.append((name, rows))
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
    place = prob.flag("--place") or prob.place or ARCH
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


def _budget(spec: str) -> tuple[str, int]:
    name, eq, val = spec.partition("=")
    if not eq or name.strip() not in {f.name for f in dc_fields(Budgets)}:
        raise ValueError(f"unknown budget {name.strip()!r}")
    return name.strip(), int(val)


def _bounded(text: str) -> str:
    """`text`, refused when its word has more than MAX_WORD_LEN letters
    (a^n counts n), before any letter is expanded."""
    letters = sum(abs(k) for _, k in word_tokens(text))
    if letters > MAX_WORD_LEN:
        raise ValueError(f"word of {letters} letters exceeds MAX_WORD_LEN = {MAX_WORD_LEN}")
    return text


def _matrix_word(group: MarkedGroup):
    """A parser of a word in the group's generators, refused when it has
    more than MAX_WORD_LEN letters or a height over MAX_WORD_HEIGHT."""
    heights: dict[tuple[int, int], int] = {}

    def parse(text: str) -> Word:
        w = group.parse_word(_bounded(text))
        for idx, e in set(w) - heights.keys():
            m = group.gens[idx][1]
            heights[idx, e] = max(map(abs, (m if e > 0 else m.inverse()).class_key())).bit_length()
        height = sum(heights[letter] for letter in w)
        if height > MAX_WORD_HEIGHT:
            raise ValueError(f"word of height {height} bits exceeds MAX_WORD_HEIGHT = {MAX_WORD_HEIGHT}")
        return w

    return parse


def _int_in(what: str, low: int, high: int):
    """A parser of an integer `what` in low..high."""

    def parse(text: str | int) -> int:
        n = int(text)
        if not low <= n <= high:
            raise ValueError(f"{what} {n} is outside {low}..{high}")
        return n

    return parse


def _oracle_len_of(prob: Problem, default: int) -> int:
    """The file's `oracle-len`, checked even when `--oracle-len` overrides it."""
    n = prob.value("oracle-len", _int_in("oracle-len", 1, MAX_ORACLE_LEN), default)
    flag = prob.flag("--oracle-len")
    return n if flag is None else flag


def _one_of(what: str, *names: str):
    """A parser that accepts only `names`."""

    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"{what} {text!r} is not one of: {', '.join(names)}")
        return text

    return parse


def _parse_set(text: str) -> ProjSet:
    """`ball [coords] radius-sq` or `hnbhd [coords] radius-sq`."""
    kind, _, rest = text.partition("[")
    coords, bracket, radius = rest.partition("]")
    if kind.strip() not in ("ball", "hnbhd") or not bracket:
        raise ValueError("set literal must be: ball|hnbhd [coords] radius-sq")
    vec = tuple(parse_rat(tok) for tok in coords.split(",") if tok.strip())
    if kind.strip() == "ball":
        return ball(ProjPoint(vec), parse_rat(radius))
    return hnbhd(ProjHyperplane(vec), parse_rat(radius))


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


def cmd_analyze(prob: Problem) -> tuple[dict, int]:
    group = _build_group(prob)
    subop = prob.value("subop", _one_of("analyze subop", "profile", "contracting", "proximal", "very-proximal", "power-proximal"))
    word = prob.value("element", _matrix_word(group))
    task = {"op": "analyze", "subop": subop, "element": group.word_str(word)}
    if subop != "profile":
        eps_sq = prob.value("epsilon-sq", parse_rat)
        task["epsilon_sq"] = certfmt.rat(eps_sq)
    if subop not in ("profile", "contracting"):
        r_sq = prob.value("r-sq", parse_rat)
        task["r_sq"] = certfmt.rat(r_sq)
    if subop == "power-proximal":
        task["max_n"] = max_n = prob.value("max-n", _int_in("max-n", 1, MAX_EXPONENT), 16)
    prob.all_read()
    m = group.eval(word)
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    word_eval = [certfmt.claim_word_eval(task["element"], m)]
    if subop == "profile":
        prof = singular_profile(m)
        result = {"values_sq": [certfmt.interval_json(v) for v in prof.values_sq], "exact": prof.exact}
        return emit("ok", result, word_eval)
    if subop == "power-proximal":
        out = power_to_proximal(m, r_sq, eps_sq, max_n)
        if out is None:
            return emit("not-found", {}, word_eval)
        n, cert = out
        result = {"n": n, "cert": certfmt.proximal_json(cert)}
        return emit("yes", result, word_eval + certfmt.claims_for_proximal(m.power(n), cert))
    if subop == "contracting":
        v = certify_contracting(m, eps_sq)
        refutes, cert_json = m, certfmt.contraction_json
    else:
        v = (certify_proximal if subop == "proximal" else certify_very_proximal)(m, r_sq, eps_sq)
        refutes, cert_json = v.refutes, certfmt.proximal_json
    if v.kind == "yes":
        return emit("yes", {"cert": cert_json(v.cert)}, certfmt.claims_for_cert(task["element"], m, v.cert))
    if v.kind == "no":
        refuted = certfmt.claim_contraction_refuted(refutes, eps_sq, v.counterexample)
        return emit("no", {"counterexample": certfmt.point_json(v.counterexample)}, word_eval + [refuted])
    return emit(v.kind, {}, word_eval)


def cmd_pingpong(prob: Problem) -> tuple[dict, int]:
    group = _build_group(prob)
    subop = prob.value("subop", _one_of("pingpong subop", "tuple", "simple-tuple", "oracle"), "tuple")
    oracle_len = _oracle_len_of(prob, 6)
    word = _matrix_word(group)

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
        return emit(out.kind, result, [certfmt.claim_oracle(oracle_len, out.kind, out.word, names)])
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


def cmd_synthesize(prob: Problem) -> tuple[dict, int]:
    group = _build_group(prob)
    ws = group.word_str
    subops = ("truncated-prodense", "conjugate-contract", "b1b2b3", "very-proximal", "normal-proximal", "coset-pingpong", "double-coset")
    subop = prob.value("subop", _one_of("synthesize subop", *subops))
    task = {"op": "synthesize", "subop": subop}
    emit = _emitter(group.place, "matrix", _group_header(group), task)
    # the file's budget lines, then the --budget flags over them
    budgets = Budgets(**dict(prob.values("budget", _budget) + [_budget(spec) for spec in prob.flag("--budget") or []]))

    word = _matrix_word(group)

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
            if not eq or label.strip() not in normals:
                raise ValueError(f"cosets for unknown normal {label.strip()!r}")
            normals[label.strip()][1] = tuple(word(w) for w in reps.split("|"))

        prob.values("cosets", cosets)
        return [NormalData(lbl, reps, cosets) for lbl, (reps, cosets) in normals.items()]

    def claims_for(word, cert, *between) -> list[dict]:
        return certfmt.claims_for_cert(ws(word), group.eval(word), cert, *between)

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
        g = prob.value("element", word)
        x = prob.value("x-element", word)
        eps_sq = prob.value("epsilon-sq", parse_rat)
        m_max = prob.value("m-max", _int_in("m-max", 1, MAX_EXPONENT), 8)
        prob.all_read()
        task.update({"element": ws(g), "x": ws(x), "epsilon_sq": certfmt.rat(eps_sq)})
        out = conjugate_contract(group, g, x, m_max, eps_sq)
        if out is None:
            return emit("not-found")
        m, w, cert = out
        return emit("yes", {"m": m, "word": ws(w), "cert": certfmt.contraction_json(cert)}, claims_for(w, cert))
    if subop == "b1b2b3":
        g = prob.value("element", word)
        b1, b2, b3 = prob.value("b1", word), prob.value("b2", word), prob.value("b3", word)
        a_set = prob.value("attract", _parse_set)
        r_set = prob.value("repel", _parse_set)
        k_max = prob.value("k-max", _int_in("k-max", 0, MAX_EXPONENT), 32)
        prob.all_read()
        task.update({"element": ws(g), "k_max": k_max})
        out = b1b2b3_synthesize(group, g, a_set, r_set, b1, b2, b3, k_max)
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
        g = prob.value("element", word)
        word_len = prob.value("word-len", _int_in("word-len", 1, MAX_SEARCH_WORD_LEN), 2)
        r_sq = prob.value("r-sq", parse_rat)
        eps_sq = prob.value("epsilon-sq", parse_rat)
        prob.all_read()
        task.update({"element": ws(g), "r_sq": certfmt.rat(r_sq), "epsilon_sq": certfmt.rat(eps_sq)})
        out = very_proximal_search(group, g, word_len, r_sq, eps_sq)
        if out is None:
            return emit("not-found")
        f1, f2, w, cert = out
        result = {"f1": ws(f1), "f2": ws(f2), "word": ws(w), "cert": certfmt.proximal_json(cert)}
        return emit("yes", result, claims_for(w, cert))
    if subop == "normal-proximal":
        prob.all_read()
        out = normal_proximal(group, normals[0], None, budgets)
        if out is None:
            return emit("not-found")
        membership = certfmt.claim_normal_membership(ws(out.word), ws(out.proof.to_word(list(normals[0].class_reps))))
        result = {"word": ws(out.word), "cert": certfmt.proximal_json(out.cert)}
        return emit("yes", result, claims_for(out.word, out.cert, membership))
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
            membership = certfmt.claim_normal_membership(
                ws(concat(cr.word, word_inverse(cr.coset_rep))), ws(cr.membership.to_word(list(data.class_reps)))
            )
            claims += claims_for(cr.word, cr.cert, membership)
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
        claims += claims_for(r.word, r.cert)
        items.append({"coset": ws(r.original), "m": r.m, "n": r.n, "word": ws(r.word)})
    # every representative wrapped, or skipped as a trivial double coset
    return emit("yes" if len(out) == len(cs) else "unknown", {"wrapped": items}, claims)


def cmd_tree(prob: Problem) -> tuple[dict, int]:
    am, header = _build_amalgam(prob)
    subop = prob.value("subop", _one_of("tree subop", "normal-form", "classify", "expand", "pingpong", "kernel"))
    task = {"op": "tree", "subop": subop}

    def word(text: str) -> tuple[str, object]:
        # certificates echo the word as written
        return text, tree_parse_word(am, _bounded(text))

    if subop in ("normal-form", "classify"):
        task["word"], w = prob.value("word", word)
    elif subop == "expand":
        radius = prob.value("radius", lambda text: ball_radius(am, int(text)), DEFAULT_RADIUS)
        flag = prob.flag("--radius")
        if flag is not None:
            radius = ball_radius(am, flag)
        task["radius"] = radius
    elif subop == "pingpong":
        oracle_len = _oracle_len_of(prob, 8)
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
        return emit("ok", result, [certfmt.claim_tree_normal_form(task["word"], w)])
    if subop == "classify":
        out = classify(w, am)
        result = {"kind": out.kind}
        if out.kind == "hyperbolic":
            result["translation_length"] = out.translation_length
            result["axis_edge"] = [certfmt.vertex_json(out.axis_edge[0]), certfmt.vertex_json(out.axis_edge[1])]
        else:
            result["fixed_vertex"] = certfmt.vertex_json(out.fixed_vertex)
        return emit("ok", result, [certfmt.claim_tree_classify(task["word"], out)])
    if subop == "expand":
        tree = BassSerreTree(am)
        claims, listing = [], []
        for v, depth in sorted(expand_tree(am, radius=radius).items(), key=lambda kv: (kv[1], str(kv[0]))):
            entry = {"vertex": certfmt.vertex_json(v), "depth": depth}
            if depth < radius:
                entry["degree"] = len(tree.neighbors(v))
                claims.append(certfmt.claim_tree_degree(v, entry["degree"]))
            listing.append(entry)
        return emit("ok", {"vertices": listing, "count": len(listing)}, claims)
    if subop == "pingpong":
        elements = [w for _, w in words]
        tup = tree_pingpong(elements, am)
        claims = certfmt.claims_for_tree_tuple(tup, texts)
        result = {"verdict": tup.verdict, "witness_detail": tup.witness_detail}
        if tup.verdict == "certified":
            oracle = freeness_oracle(elements, oracle_len, names=[f"t{i}" for i in range(len(elements))])
            claims.append(certfmt.claim_oracle(oracle_len, oracle.kind, oracle.word, texts))
            result["oracle"] = oracle.kind
        return emit(tup.verdict, result, claims)
    k = kernel_of_action(am)
    return emit("ok", {"elements": k, "names": [am.group_h.name_of(x) for x in k]}, [certfmt.claim_kernel(k)])


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
        with open(args.problem, "rb") as fh:
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
        given = (
            ("--place", args.place, parse_place),
            ("--budget", args.budget, list),
            ("--radius", args.radius, int),
            ("--oracle-len", args.oracle_len, _int_in("--oracle-len", 1, MAX_ORACLE_LEN)),
        )
        prob.flags = {name: parse(value) for name, value, parse in given if value is not None}
        prob.command = args.command
        prob.value("op", _one_of("op", args.command), None)
        cert, code = runner(prob)
        prob.all_read()  # the commands call it before searching; this guards a path that did not
        payload = certfmt.dumps(cert)
    except ProblemError as e:
        print(f"{args.problem}:{e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TreeError, KeyError) as e:
        print(f"{args.problem}: {e}", file=sys.stderr)
        return EXIT_INPUT
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
