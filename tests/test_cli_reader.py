"""The command-line reader of `cli.main`, and the input refusals that sit
beside it: a repeated single-valued `[task]` key, a `place` line the task
does not read or that repeats, and a certificate whose
claim note is no string, whose header is malformed or empty, whose matrix is over
MAX_DIM or whose task word is over MAX_WORD_LEN or MAX_WORD_HEIGHT."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from freecert import cli
from freecert.certfmt import dumps
from freecert.cli import USAGE, main
from freecert.projective import MAX_DIM
from test_cli import MATRIX_HEADER, SANOV_HEADER, mod_amalgam_header, run, verify_file

ROOT = Path(__file__).resolve().parents[1]
PROFILE = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["analyze", "in.prob", "--help"], ["verify", "-h"]])
def test_help_prints_the_usage_to_stdout(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == USAGE and err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "missing command"),
        (["bogus", "in.prob"], "unknown command 'bogus'"),
        (["analyze"], "analyze takes one file, 0 given"),
        (["tree", "a.prob", "b.prob"], "tree takes one file, 2 given"),
        (["verify", "a.cert", "-x"], "verify takes one file, 2 given"),
        (["analyze", "in.prob", "--out"], "--out needs a value"),
        (["verify", "a.cert", "--out", "x"], "verify takes no flag, not --out"),
        (["verify", "a.cert", "--place=arch"], "verify takes no flag, not --place"),
    ],
)
def test_usage_errors_exit_2_with_the_usage_on_stderr(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{USAGE}freecert: {message}\n"


def test_both_flag_forms_give_the_same_certificate(tmp_path):
    # --out PATH and --out=PATH; the last --out wins
    prob = tmp_path / "in.prob"
    prob.write_text(PROFILE.replace("place arch", "place p:5"))
    spaced, joined, first = tmp_path / "spaced.cert", tmp_path / "joined.cert", tmp_path / "first.cert"
    assert main(["analyze", str(prob), "--out", str(spaced)]) == 0
    assert main(["analyze", f"--out={first}", str(prob), f"--out={joined}"]) == 0
    assert json.loads(spaced.read_text())["place"] == "p:5"
    assert spaced.read_bytes() == joined.read_bytes()
    assert not first.exists()


def test_unknown_flag_is_refused_as_unread(tmp_path, capsys):
    # a flag no command reads is a usage error, named before the file is read
    code, cert, _ = run(tmp_path, "analyze", PROFILE, "--bogus", "1")
    assert code == 2 and cert is None
    out, err = capsys.readouterr()
    assert out == "" and err == f"{USAGE}freecert: unknown flag --bogus\n"


def test_place_is_refused_where_the_task_does_not_read_it(tmp_path, capsys):
    # an amalgam acts on its tree at no place, and a second place line would override the first
    classify = mod_amalgam_header().replace("format 1\n", "format 1\nplace p:3\n") + "\n[task]\nop tree\nsubop classify\nword s t\n"
    code, cert, _ = run(tmp_path, "tree", classify)
    assert code == 2 and cert is None
    assert "in.prob:2:1: 'place' is not a directive of this tree task" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", PROFILE.replace("place arch\n", "place arch\nplace p:3\n"))
    assert code == 2 and cert is None
    assert "in.prob:3:1: 'place' is already given on line 2" in capsys.readouterr().err


def test_module_entry_point_writes_the_certificate_to_stdout(tmp_path):
    prob = tmp_path / "in.prob"
    prob.write_text(PROFILE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "freecert.cli", "analyze", str(prob)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, cert, _ = run(tmp_path, "analyze", PROFILE)
    assert code == 0 and json.loads(done.stdout) == cert


def test_traced_commands_are_the_ones_main_runs(tmp_path, monkeypatch):
    """A tracer wraps `cmd_*` on the module; `main` must run the wrapper."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code, _, _ = run(tmp_path, "analyze", PROFILE)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.stats["cli.command"][0] == 1


@pytest.mark.parametrize(
    "repeat, line",
    [("op tree\n", "in.prob:14:1: 'op' is already given on line 10"), ("epsilon-sq 1/9\n", "in.prob:14:1: 'epsilon-sq' is already given on line 13")],
    ids=["op", "epsilon-sq"],
)
def test_repeated_single_valued_key_is_refused_at_its_second_line(tmp_path, capsys, repeat, line):
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n"
    code, cert, _ = run(tmp_path, "analyze", text + repeat)
    assert code == 2 and cert is None
    assert line in capsys.readouterr().err


def test_failing_claim_with_a_note_that_is_no_string_is_reported(tmp_path, capsys):
    text = "format 1\nplace arch\n[matrix-group]\ngen a = [[2, 1], [1, 1]]\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n"
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 0
    cert["claims"][0].update(matrix=[["3", "1"], ["1", "1"]], note=5)
    out.write_text(dumps(cert))
    capsys.readouterr()
    assert verify_file(out) == 3
    assert "verify: claim 0 (word-eval: 5) failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda h: [h], "certificate header is not an object"),
        (lambda h: h["generators"]["a"][0].__setitem__(0, "x"), "bad generator a: malformed rational literal 'x'"),
        (lambda h: h["generators"]["a"][0].__setitem__(0, "4/2"), "bad generator a: rational '4/2' is not written as certificates write 2"),
        (lambda h: h["generators"]["a"].append(["1", "0"]), "bad generator a: entries must form a square matrix"),
        (lambda h: h["generators"].update(a=[["1", "1"], ["1", "1"]]), "bad generator a: matrix must be invertible"),
    ],
    ids=["header-not-an-object", "entry-not-a-rational", "entry-not-as-written", "not-square", "singular"],
)
def test_verify_refuses_a_malformed_header(tmp_path, capsys, tamper, message):
    # no word can be evaluated, so the certificate is an input error
    code, cert, out = run(tmp_path, "analyze", PROFILE)
    assert code == 0
    cert["header"] = tamper(cert["header"]) or cert["header"]
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert verify_file(out) == 2
    assert f"verify: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, message",
    [
        ({"generators": {"a": [["1", "1"], ["1", "1"]], "b": [["2", "1"], ["1", "1"]]}}, "bad generator a: matrix must be invertible"),
        ({}, "certificate lacks a generator table"),
    ],
    ids=["singular", "empty"],
)
def test_verify_reads_the_header_of_a_certificate_with_no_claims(tmp_path, capsys, header, message):
    # the identity player fails first: an unknown tuple with no claim and no
    # binder, so no word is evaluated and only the header read refuses it
    text = "format 1\nplace arch\n[matrix-group]\ngen a = [[1, 0], [0, 1]]\ngen b = [[2, 1], [1, 1]]\n"
    code, cert, out = run(tmp_path, "pingpong", text + "[task]\nop pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n")
    assert (code, cert["verdict"], cert["result"]["failed_player"], cert["claims"]) == (4, "unknown", "g1", [])
    assert verify_file(out) == 0
    cert["header"] = header
    out.write_text(dumps(cert))
    capsys.readouterr()
    assert verify_file(out) == 2
    assert f"verify: {message}" in capsys.readouterr().err


def _random_rows(n: int) -> list[list[str]]:
    rng = random.Random(n)
    return [[str(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize(
    "claim_type, field, value, message",
    [
        ("contraction", "matrix", _random_rows(MAX_DIM + 1), f"matrix of {MAX_DIM + 1} rows exceeds MAX_DIM = {MAX_DIM}"),
        ("contraction", "matrix", _random_rows(32), f"matrix of 32 rows exceeds MAX_DIM = {MAX_DIM}"),
        ("point-plane-far", "point", [str(k) for k in range(1, 16001)], f"vector of 16000 coordinates exceeds MAX_DIM = {MAX_DIM}"),
    ],
    ids=["matrix-17", "matrix-32", "point-16000"],
)
def test_verify_refuses_a_matrix_or_vector_over_max_dim_fast(tmp_path, capsys, claim_type, field, value, message):
    # without the limit the 32 x 32 contraction claim alone takes about a
    # second to re-check, and 16000-coordinate balls in a set-disjoint
    # claim tens of seconds
    text = MATRIX_HEADER + "\n[task]\nop pingpong\nsubop tuple\nplayer a = a\nplayer b = b\nradius-sq 1/10\n"
    code, cert, out = run(tmp_path, "pingpong", text)
    assert code == 0
    next(c for c in cert["claims"] if c["type"] == claim_type)[field] = value
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert verify_file(out) == 2
    assert time.perf_counter() - t0 < 1
    assert f"verify: {message}" in capsys.readouterr().err
    assert cli.MAX_DIM == MAX_DIM


@pytest.mark.parametrize(
    "command, text, path",
    [
        ("analyze", MATRIX_HEADER + "\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n", ("element",)),
        ("pingpong", MATRIX_HEADER + "\n[task]\nop pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 4\n", ("players", "b")),
        ("tree", mod_amalgam_header() + "\n[task]\nop tree\nsubop classify\nword s t\n", ("word",)),
    ],
    ids=["element", "players", "tree-word"],
)
def test_verify_refuses_a_task_word_over_max_word_len_before_evaluating_it(tmp_path, capsys, command, text, path):
    # a^1000000 as the task element and its word-eval word kept verify
    # busy for minutes, evaluating the header; a^100000 took 2 s
    code, cert, out = run(tmp_path, command, text)
    assert code == 0
    *outer, last = path
    holder = cert["task"]
    for key in outer:
        holder = holder[key]
    word, holder[last] = holder[last], "a^1000000"
    for claim in cert["claims"]:
        if claim.get("word") == word:
            claim["word"] = "a^1000000"
    out.write_text(dumps(cert))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert verify_file(out) == 2
    assert time.perf_counter() - t0 < 1
    assert f"verify: task {path[0]} word of 1000000 letters exceeds MAX_WORD_LEN = 64" in capsys.readouterr().err


PINGPONG = MATRIX_HEADER + "\n[task]\nop pingpong\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n"
ELEMENT = MATRIX_HEADER + "\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n"


@pytest.mark.parametrize(
    "command, text, path, value, message",
    [
        ("analyze", ELEMENT, ("element",), 5, "verdict 'yes' of analyze contracting: ValueError: word 5 is no string"),
        ("analyze", ELEMENT, ("element",), 1.5, "verdict 'yes' of analyze contracting: ValueError: word _Float('1.5') is no string"),
        ("pingpong", PINGPONG, ("players", "g1"), None, "verdict 'certified' of pingpong tuple: ValueError: word None is no string"),
        ("pingpong", PINGPONG, ("players", "g1"), 5, "verdict 'certified' of pingpong tuple: ValueError: word 5 is no string"),
    ],
    ids=["element-int", "element-float", "players-null", "players-int"],
)
def test_verify_leaves_a_task_word_that_is_no_string_to_its_binder(tmp_path, capsys, command, text, path, value, message):
    # the task-word bound counts strings only: any other value fails, by
    # name, in the binder that reads it (exit 3)
    code, cert, out = run(tmp_path, command, text)
    assert code == 0
    *outer, last = path
    holder = cert["task"]
    for key in outer:
        holder = holder[key]
    holder[last] = value
    out.write_text(json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n")
    capsys.readouterr()
    assert verify_file(out) == 3
    assert message in capsys.readouterr().err


def test_verify_names_a_relation_word_that_is_no_string(tmp_path, capsys):
    # the oracle claim's relation word is read as a string before its
    # letters are counted, so null fails by name (exit 3)
    text = SANOV_HEADER + "\n[task]\nop pingpong\nsubop oracle\nplayer g1 = a\nplayer g2 = a\noracle-len 2\n"
    code, cert, out = run(tmp_path, "pingpong", text)
    assert code == 3 and cert["result"] == {"oracle": "relation", "relation": "g1 g2^-1"}
    cert["claims"][0]["word"] = cert["result"]["relation"] = None
    out.write_text(dumps(cert))
    capsys.readouterr()
    assert verify_file(out) == 3
    assert "verdict 'relation' of pingpong oracle: ValueError: word None is no string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word, message",
    [("a^x", "ValueError: bad exponent in 'a^x'"), ("zz", "KeyError: \"unknown generator 'zz'\"")],
    ids=["bad-exponent", "unknown-generator"],
)
def test_verify_leaves_a_task_word_that_does_not_parse_to_its_binder(tmp_path, capsys, word, message):
    # the task-word bound refuses only a word over a bound: one it cannot
    # parse fails in the binder that evaluates it (exit 3)
    code, cert, out = run(tmp_path, "analyze", ELEMENT)
    assert code == 0
    cert["task"]["element"] = word
    out.write_text(dumps(cert))
    capsys.readouterr()
    assert verify_file(out) == 3
    assert f"verify: verdict 'yes' of analyze contracting: {message}" in capsys.readouterr().err


def test_verify_refuses_a_task_word_over_max_word_height(tmp_path, capsys):
    # a = diag(2^200, 1) has height 201, so `a a` has height 402: solve
    # refuses the word, and verify refuses it as the task element of a
    # profile certificate whose word-eval claim states its matrix
    text = f"format 1\nplace arch\n[matrix-group]\ngen a = [[{2**200}, 0], [0, 1]]\n[task]\nop analyze\nsubop profile\nelement {{}}\n"
    code, cert, _ = run(tmp_path, "analyze", text.format("a a"))
    assert code == 2 and cert is None
    assert "in.prob:8:9: word of height 402 bits exceeds MAX_WORD_HEIGHT = 256" in capsys.readouterr().err
    code, cert, out = run(tmp_path, "analyze", text.format("a"))
    assert code == 0
    cert["task"]["element"] = cert["claims"][0]["word"] = "a a"
    cert["claims"][0]["matrix"] = [[str(2**400), "0"], ["0", "1"]]
    out.write_text(dumps(cert))
    capsys.readouterr()
    assert verify_file(out) == 2
    assert "verify: task element word of height 402 bits exceeds MAX_WORD_HEIGHT = 256" in capsys.readouterr().err
