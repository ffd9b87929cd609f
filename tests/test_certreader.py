"""How `verify` reads a certificate's numbers, once per certificate, as
integers, and its words, once per text.

`certfmt.pair_from` is the one reader of a certificate's numbers.  It
reads back every text `format_rat` writes, as its integer pair, and
refuses every other text with the message the Fraction reader of
`oracles.fraction_rat_from` gives.  `CertContext` reads each matrix,
point and hyperplane value once per certificate, and a certificate
verifies exactly as it does with every value read afresh.  It parses each
word once: a task word in the bound that reads the task, any other word
on first use.  A certificate it cannot read, one with a byte order mark or
with a claim or binder of the other backend, is an input error.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freecert import certfmt
from freecert.certfmt import CertContext, VerifyError, _Float, dumps, pair_from, verify
from freecert.projective import MAX_DIM, MarkedGroup
from freecert.scalar import format_rat
from oracles import fraction_rat_from
from test_cli import MATRIX_HEADER, run, verify_file
from test_golden import PROBLEMS

PROXIMAL = MATRIX_HEADER + "\n[task]\nop analyze\nsubop proximal\nelement b\nepsilon-sq 1/25\nr-sq 1/4\n"
TUPLE = MATRIX_HEADER + "\n[task]\nop pingpong\nsubop tuple\nplayer a = a\nplayer b = b\nradius-sq 1/10\n"
VERY = MATRIX_HEADER + "\n[task]\nop analyze\nsubop very-proximal\nelement a b\nepsilon-sq 1/25\nr-sq 1/4\n"

_HUGE = st.integers(-(10**4000), 10**4000)


@settings(max_examples=300, deadline=None)
@given(st.fractions() | st.builds(F, _HUGE, _HUGE.filter(bool)))
@example(F(-(10**4000), 3))
@example(F(0))
def test_every_text_format_rat_writes_reads_back_as_its_pair(x):
    assert pair_from(format_rat(x)) == x.as_integer_ratio()


@pytest.mark.parametrize(
    "text, message",
    [
        ("+1", "rational '+1' is not written as certificates write 1"),
        (" 1", "rational ' 1' is not written as certificates write 1"),
        ("1 ", "rational '1 ' is not written as certificates write 1"),
        ("01", "rational '01' is not written as certificates write 1"),
        ("-0", "rational '-0' is not written as certificates write 0"),
        ("1_0", "rational '1_0' is not written as certificates write 10"),
        ("١", "rational '١' is not written as certificates write 1"),
        ("2/1", "rational '2/1' is not written as certificates write 2"),
        ("2/4", "rational '2/4' is not written as certificates write 1/2"),
        ("1/-2", "rational '1/-2' is not written as certificates write -1/2"),
        ("1/0", "malformed rational literal '1/0'"),
        ("1.0", "malformed rational literal '1.0'"),
        (1, "malformed rational literal 1"),
        (True, "malformed rational literal True"),
        (None, "malformed rational literal None"),
        (["1"], "malformed rational literal ['1']"),
        ({"1": 1}, "malformed rational literal {'1': 1}"),
        (_Float("1.0"), "malformed rational literal _Float('1.0')"),
    ],
)
def test_the_pair_reader_refuses_every_other_text_as_before(text, message):
    for reader in (pair_from, fraction_rat_from):
        with pytest.raises(ValueError) as err:
            reader(text)
        assert str(err.value) == message


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789/-+ _١", max_size=8))
@example("0/5")
@example("-7/14")
def test_the_pair_reader_agrees_with_the_fraction_reader(text):
    try:
        want = fraction_rat_from(text)
    except ValueError as e:
        with pytest.raises(ValueError) as err:
            pair_from(text)
        assert str(err.value) == str(e)
    else:
        assert pair_from(text) == want.as_integer_ratio()


def _string_paths(node, path=()):
    """The paths of the string leaves of nested dicts and lists."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _string_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _string_paths(v, path + (i,))
    elif isinstance(node, str):
        yield path


def _tampered(cert: dict, path: tuple, value) -> dict:
    out = certfmt.loads(certfmt.dumps(cert))
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


def _outcome(cert: dict):
    try:
        return verify(cert)
    except VerifyError as e:
        return "input error", str(e)


def _uncached(memo, key_of, read, data, *args):
    return read(data, *args)


@pytest.mark.parametrize("command, text", [("analyze", PROXIMAL), ("pingpong", TUPLE), ("analyze", VERY)], ids=["proximal", "tuple", "very-proximal"])
def test_a_certificate_that_repeats_its_texts_verifies_as_when_each_is_read_afresh(tmp_path, monkeypatch, command, text):
    code, cert, _ = run(tmp_path, command, text)
    assert code == 0
    rng = random.Random(0)
    paths = [p for p in _string_paths(cert["claims"], ("claims",)) if p[-1] != "type"]
    cases = [cert] + [_tampered(cert, p, v) for p in rng.sample(paths, 40) for v in ("+1", "2/4", "7", ["1"])]
    cached = [_outcome(c) for c in cases]
    assert cached[0] == (True, [])
    assert sum(ok is not True for ok, _ in cached) > len(cases) // 2
    monkeypatch.setattr(CertContext, "_once", staticmethod(_uncached))
    assert [_outcome(c) for c in cases] == cached


def test_each_distinct_matrix_and_point_text_is_read_once(tmp_path, monkeypatch):
    code, cert, _ = run(tmp_path, "analyze", VERY)
    assert code == 0
    reads = {"mat_from": [], "point_from": []}
    for name, seen in reads.items():
        real = getattr(certfmt, name)
        monkeypatch.setattr(certfmt, name, lambda data, at, real=real, seen=seen: seen.append(repr(data)) or real(data, at))
    assert verify(cert) == (True, [])
    for name, seen in reads.items():
        assert len(seen) == len(set(seen)), name
    assert len(reads["mat_from"]) < sum(1 for c in cert["claims"] if "matrix" in c) + len(cert["header"]["generators"])


def test_a_tampered_text_repeated_in_claims_fails_each_of_them_alike(tmp_path):
    code, cert, _ = run(tmp_path, "analyze", PROXIMAL)
    assert code == 0
    matrix = cert["claims"][0]["matrix"]
    assert matrix[0][0] == "41"
    holders = [i for i, c in enumerate(cert["claims"]) if c.get("matrix") == matrix]
    assert len(holders) >= 2
    for i in holders:
        cert["claims"][i]["matrix"] = [["+41", *matrix[0][1:]], *matrix[1:]]
    ok, failures = verify(cert)
    why = "rational '+41' is not written as certificates write 41"
    assert not ok
    assert [f for f in failures if why in f] == [f"claim {i} ({cert['claims'][i]['type']}): {why}" for i in holders]


def test_an_unhashable_coordinate_fails_its_claim_as_before(tmp_path):
    code, cert, _ = run(tmp_path, "analyze", PROXIMAL)
    assert code == 0
    i = next(i for i, c in enumerate(cert["claims"]) if c["type"] == "point-plane-far")
    cert["claims"][i]["point"][0] = ["1"]
    ok, failures = verify(cert)
    assert not ok and f"claim {i} (point-plane-far): malformed rational literal ['1']" in failures


def test_a_matrix_over_max_dim_is_refused_before_its_key_is_built(tmp_path, monkeypatch):
    code, cert, out = run(tmp_path, "analyze", PROXIMAL)
    assert code == 0
    keys = []
    real = certfmt._rows_key
    monkeypatch.setattr(certfmt, "_rows_key", lambda data: keys.append(len(data)) or real(data))
    cert["claims"][1]["matrix"] = [["1"] * (MAX_DIM + 1)] * (MAX_DIM + 1)
    out.write_text(certfmt.dumps(cert))
    assert verify_file(out) == 2
    assert keys and max(keys) <= MAX_DIM  # the generator table's and claim 0's matrices only


@pytest.mark.parametrize("name", ["pingpong-tuple", "analyze-contracting", "tree-pingpong"])
def test_verify_parses_each_word_once(tmp_path, monkeypatch, name):
    # the bound's parse of a task word is the one its reader keeps, and the
    # tree claims that hold a word read it through one memo
    command, text = PROBLEMS[name]
    code, cert, _ = run(tmp_path, command, text)
    assert code == 0
    parsed = []
    group_parse, tree_parse = MarkedGroup.parse_word, certfmt.parse_word
    monkeypatch.setattr(MarkedGroup, "parse_word", lambda group, text: parsed.append(text) or group_parse(group, text))
    monkeypatch.setattr(certfmt, "parse_word", lambda amalgam, text: parsed.append(text) or tree_parse(amalgam, text))
    assert verify(cert) == (True, [])
    task = cert["task"]
    words = [task["element"]] if "element" in task else [*task["players"].values()] if "players" in task else task["words"]
    assert sorted(parsed) == sorted(set(words))


def test_verify_classifies_each_tree_word_once(tmp_path, monkeypatch):
    # a word's tree-classify and tree-evidence claims share one classify
    command, text = PROBLEMS["tree-pingpong"]
    code, cert, _ = run(tmp_path, command, text)
    assert code == 0
    classified = []
    real = certfmt.classify
    monkeypatch.setattr(certfmt, "classify", lambda w: classified.append(w) or real(w))
    assert verify(cert) == (True, [])
    words = cert["task"]["words"]
    kinds = [c["type"] for c in cert["claims"]]
    assert kinds.count("tree-classify") == kinds.count("tree-evidence") == len(words) == 2
    assert len(classified) == len(words)


def _word_eval_on_a_tree(cert: dict) -> str:
    cert["claims"].append({"type": "word-eval", "word": "s", "matrix": [["1", "0"], ["0", "1"]], "note": ""})
    return dumps(cert)


def _tree_kernel_on_a_matrix_header(cert: dict) -> str:
    cert.update(task={"op": "tree", "subop": "kernel"}, verdict="ok", result={"elements": [0], "names": ["e"]}, claims=[])
    return dumps(cert)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("tree-classify", _word_eval_on_a_tree, "verify: certificate lacks a generator table\n"),
        ("analyze-profile", _tree_kernel_on_a_matrix_header, "verify: certificate lacks an amalgam table\n"),
        ("analyze-profile", lambda cert: "\ufeff" + dumps(cert), "verify: not valid certificate JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ],
    ids=["claim-of-the-matrix-backend", "binder-of-the-tree-backend", "byte-order-mark"],
)
def test_a_certificate_the_reader_cannot_read_is_an_input_error(tmp_path, capsys, name, edit, message):
    # a claim or a binder of the other backend finds no table to read, and a
    # byte order mark is refused as `json.loads` refuses it
    command, text = PROBLEMS[name]
    code, cert, out = run(tmp_path, command, text)
    assert code == 0
    out.write_text(edit(cert), encoding="utf-8")
    capsys.readouterr()
    assert verify_file(out) == 2
    assert capsys.readouterr().err.startswith(message)
