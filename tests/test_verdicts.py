"""The verdict table `certfmt.VERDICTS`: every row is reached by a problem
that exits with the row's code and verifies, and a certificate whose
claims or result do not carry its verdict fails `verify` (exit 3).
"""

import copy
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.certfmt import PRODENSE_ORACLE_LEN, PROXIMAL_LEN, VERDICTS, CertContext, VerifyError, check_claim, dumps, mat_from, place_from, plane_from, point_from
from freecert.checker import Ladder, selfmap_at
from freecert.cli import main
from freecert.dynamics import contraction_gap_sq, direction_candidates
from freecert.projective import Ball
from freecert.scalar import ARCH, VERY_PAIRS, parse_rat
from test_cli import MATRIX_HEADER, SANOV_HEADER, mod_amalgam_header, run
from test_golden import PROBLEMS

ROOT = Path(__file__).resolve().parent.parent
TASK = "\n[task]\n"


def _one(gens: str, place: str = "arch") -> str:
    return f"format 1\nplace {place}\n[matrix-group]\n{gens}" + TASK


#: golden problem -> the row its certificate reaches
GOLDEN_ROWS = {
    "analyze-profile": ("analyze", "profile", "ok"),
    "analyze-contracting": ("analyze", "contracting", "yes"),
    "analyze-contracting-no": ("analyze", "contracting", "no"),
    "analyze-proximal": ("analyze", "proximal", "yes"),
    "analyze-very-proximal": ("analyze", "very-proximal", "yes"),
    "analyze-very-proximal-no": ("analyze", "very-proximal", "no"),
    "analyze-power-proximal": ("analyze", "power-proximal", "yes"),
    "pingpong-tuple": ("pingpong", "tuple", "certified"),
    "pingpong-tuple-auto-sets": ("pingpong", "tuple", "certified"),
    "pingpong-simple-tuple": ("pingpong", "simple-tuple", "certified"),
    "pingpong-refuted": ("pingpong", "tuple", "refuted"),
    "pingpong-oracle": ("pingpong", "oracle", "no-relation"),
    "synthesize-truncated-prodense": ("synthesize", "truncated-prodense", "unknown"),
    "synthesize-truncated-prodense-full": ("synthesize", "truncated-prodense", "certified"),
    "synthesize-conjugate-contract": ("synthesize", "conjugate-contract", "yes"),
    "synthesize-b1b2b3": ("synthesize", "b1b2b3", "yes"),
    "synthesize-very-proximal": ("synthesize", "very-proximal", "yes"),
    "synthesize-normal-proximal": ("synthesize", "normal-proximal", "yes"),
    "synthesize-coset-pingpong": ("synthesize", "coset-pingpong", "yes"),
    "synthesize-double-coset": ("synthesize", "double-coset", "yes"),
    "tree-normal-form": ("tree", "normal-form", "ok"),
    "tree-classify": ("tree", "classify", "ok"),
    "tree-classify-elliptic": ("tree", "classify", "ok"),
    "tree-expand": ("tree", "expand", "ok"),
    "tree-pingpong": ("pingpong", "tree", "certified"),
    "tree-kernel": ("tree", "kernel", "ok"),
}

_ROTATION = "gen g = [[0, -1], [1, 0]]\n"
_B1B2B3 = "gen g = [[25, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\ngen s = [[1, -1], [1, 1]]\n"
# proximal at p:5 while its inverse is not, so no word in it is very-proximal
_ONE_WAY = "gen g = [[-18734, -29976, 0], [12490, 19985, 0], [39968, 59952, 1250]]\n"

#: one problem per row: the golden one where there is one, else a problem
#: of the seed-1000 benchmark deck, else one made for the row
ROW_PROBLEMS = {
    **{row: PROBLEMS[name] for name, row in GOLDEN_ROWS.items()},
    ("analyze", "contracting", "unknown"): (
        "analyze",
        _one("gen g = [[-7, -24], [3, 10]]\n", "p:2") + "op analyze\nsubop contracting\nelement g\nepsilon-sq 1/4\n",
    ),
    ("analyze", "proximal", "no"): (
        "analyze",
        _one("gen g = [[289, -96], [792, -263]]\n", "p:5") + "op analyze\nsubop proximal\nelement g\nepsilon-sq 1/36\nr-sq 1/2\n",
    ),
    ("analyze", "proximal", "unknown"): (
        "analyze",
        _one("gen g = [[1, 93], [0, 32]]\n", "p:2") + "op analyze\nsubop proximal\nelement g\nepsilon-sq 1/36\nr-sq 1/2\n",
    ),
    ("analyze", "very-proximal", "unknown"): (
        "analyze",
        _one("gen g = [[79, -78], [52, -51]]\n", "p:3") + "op analyze\nsubop very-proximal\nelement g\nepsilon-sq 1/36\nr-sq 1/2\n",
    ),
    ("analyze", "power-proximal", "not-found"): (
        "analyze",
        _one(_ROTATION) + "op analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\nmax-n 4\n",
    ),
    ("pingpong", "oracle", "relation"): (
        "pingpong",
        _one("gen a = [[592, 756], [756, 1033]]\ngen b = [[3, 7], [-5, -3]]\n") + "op pingpong\nsubop oracle\nplayer a = a\nplayer b = b\n",
    ),
    ("pingpong", "tuple", "unknown"): (
        "pingpong",
        _one("gen a = [[-804, -322], [2415, 967]]\ngen b = [[-467, 156], [-1482, 495]]\n", "p:3") + "op pingpong\nplayer g1 = a\nplayer g2 = b\n",
    ),
    ("pingpong", "simple-tuple", "refuted"): (
        "pingpong",
        _one("gen a = [[1, -248], [0, 125]]\ngen b = [[1, 98], [0, 50]]\n", "p:5")
        + "op pingpong\nsubop simple-tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/50\n",
    ),
    ("pingpong", "simple-tuple", "unknown"): (
        "pingpong",
        _one("gen a = [[81, -240], [0, 1]]\ngen b = [[-794, -636], [1060, 849]]\n", "p:3")
        + "op pingpong\nsubop simple-tuple\nplayer g1 = a\nplayer g2 = b\n",
    ),
    ("pingpong", "tree", "refuted"): ("tree", mod_amalgam_header() + TASK + "op tree\nsubop pingpong\nword s t\nword s u s t s u s u\n"),
    ("synthesize", "conjugate-contract", "not-found"): (
        "synthesize",
        _one("gen g = [[9, 0], [0, 1]]\n" + _ROTATION.replace("g =", "r =")) + "op synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 1\n",
    ),
    ("synthesize", "b1b2b3", "not-found"): (
        "synthesize",
        _one(_B1B2B3) + "op synthesize\nsubop b1b2b3\nelement g\nb1 r\nb2 r\nb3 s\nattract ball [1, 0] 1/25\nrepel ball [0, 1] 1/25\nk-max 0\n",
    ),
    ("synthesize", "very-proximal", "not-found"): (
        "synthesize",
        _one(_ONE_WAY, "p:5") + "op synthesize\nsubop very-proximal\nelement g\nword-len 1\nr-sq 1/4\nepsilon-sq 1/25\n",
    ),
    ("synthesize", "normal-proximal", "not-found"): (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop normal-proximal\nnormal N = a a\nbudget power_max=0\n",
    ),
    ("synthesize", "coset-pingpong", "unknown"): (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop coset-pingpong\nnormal N = a a\ncosets N = b | b^-1\n",
    ),
    ("synthesize", "coset-pingpong", "not-found"): (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop coset-pingpong\nnormal N = a a\ncosets N = b\nbudget nest_max=0\n",
    ),
    ("synthesize", "double-coset", "unknown"): (
        "synthesize",
        _one(_ROTATION + "gen h = [[13, 12], [12, 13]]\n" + _ROTATION.replace("g =", "r =")) + "op synthesize\nsubop double-coset\nh1 g\nh2 h\ncoset-rep r\n",
    ),
}


def test_every_row_has_a_problem():
    assert sorted(ROW_PROBLEMS) == sorted(VERDICTS)


@pytest.mark.parametrize("row", sorted(ROW_PROBLEMS), ids=["/".join(r) for r in sorted(ROW_PROBLEMS)])
def test_every_row_is_reached_and_verifies(tmp_path, row):
    command, text = ROW_PROBLEMS[row]
    code, cert, out = run(tmp_path, command, text)
    assert (cert["task"]["op"], cert["task"]["subop"], cert["verdict"]) == row
    assert code == VERDICTS[row].exit
    assert main(["verify", str(out)]) == 0


def test_readme_exit_codes_are_the_tables():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    line = readme[readme.index("Exit codes:") : readme.index("The verdicts and their")]
    listed = {int(code): set(re.findall(r"[a-z][a-z-]*", words)) for code, words in re.findall(r"`(\d)` ([^;]*)", line)}
    tabled = {code: {v for (_, _, v), row in VERDICTS.items() if row.exit == code} for code in (0, 3, 4)}
    assert listed == {**tabled, 2: {"input", "error"}}


def _verify(tmp_path, cert: dict) -> int:
    path = tmp_path / "tampered.cert"
    path.write_text(dumps(cert))
    return main(["verify", str(path)])


def _row(cert: dict):
    return VERDICTS[cert["task"]["op"], cert["task"]["subop"], cert["verdict"]]


#: the goldens whose row binds every result field and claim it has
SUFFICING = sorted(name for name, row in GOLDEN_ROWS.items() if not VERDICTS[row].stated and VERDICTS[row].needs)
_FLIP = {"yes": "no", "no": "yes", "certified": "refuted", "ok": "no"}


@pytest.fixture(scope="module")
def goldens(tmp_path_factory) -> dict:
    """The certificate of each sufficing golden problem, solved once."""
    out = {}
    for name in SUFFICING:
        command, text = PROBLEMS[name]
        out[name] = run(tmp_path_factory.mktemp(name), command, text)[1]
    return out


@pytest.mark.parametrize("name", SUFFICING)
def test_a_sufficing_golden_fails_without_claims_result_or_its_verdict(tmp_path, goldens, name):
    cut = [{"claims": []}] if goldens[name]["claims"] else []  # `tree expand` has no claim to cut
    for tamper in (*cut, {"result": {}}, {"verdict": _FLIP[goldens[name]["verdict"]]}):
        assert _verify(tmp_path, {**goldens[name], **tamper}) == 3, tamper


def test_every_stated_entry_is_a_result_field():
    # what a row states beyond its result fields is prose, in the README
    prose = [(key, s) for key, row in VERDICTS.items() for s in row.stated if not re.fullmatch(r"\w+(\.\w+)?", s)]
    assert not prose, prose


#: the rows that once stated prose, each reached by its golden, and that prose
STATED_PROSE = [
    ("synthesize-normal-proximal", "normal-membership"),
    ("synthesize-coset-pingpong", "normal-membership"),
    ("synthesize-b1b2b3", "the host set"),
    ("synthesize-truncated-prodense-full", "the oracle's elements"),
]


@pytest.mark.parametrize("name, key", STATED_PROSE, ids=[name for name, _ in STATED_PROSE])
def test_a_result_field_named_like_stated_prose_fails(tmp_path, capsys, name, key):
    command, text = PROBLEMS[name]
    code, cert, _ = run(tmp_path, command, text)
    assert code == 0
    cert["result"][key] = "anything at all"
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    assert f"result field {key!r} is neither bound nor stated" in capsys.readouterr().err


def test_verify_binds_selfmap_enclosures_to_their_contraction(tmp_path, capsys):
    # the first selfmap claim's repel_err_sq set to 0, with the three numbers
    # selfmap_at derives for it restated: each claim alone still checks
    text = MATRIX_HEADER + TASK + "op analyze\nsubop very-proximal\nelement b\nepsilon-sq 1/25\nr-sq 1/4\n"
    _, cert, _ = run(tmp_path, "analyze", text)
    claim = next(c for c in cert["claims"] if c["type"] == "selfmap-enclosure")
    claim["repel_err_sq"] = "0"
    enc = claim["enclosure"]
    center, t_sq = point_from(enc["center"], 2), parse_rat(enc["radius_sq"])
    args = (point_from(claim["attract"], 2), plane_from(claim["repel"], 2), 0, parse_rat(claim["gap_sq_hi"]), parse_rat(claim["epsilon_sq"]))
    _, derived = selfmap_at(mat_from(claim["matrix"], ARCH), center, *args, Ladder([t_sq.as_integer_ratio()]))
    assert derived.ball == Ball(center, t_sq)
    enc.update(lipschitz_sq=str(derived.lipschitz_sq), region_low_sq=str(derived.region_low_sq), move_sq=str(derived.move_sq))
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    err = capsys.readouterr().err
    assert "failed" not in err  # no claim fails: the row does
    assert "verdict 'yes' of analyze very-proximal: claim 3 (selfmap-enclosure) repel_err_sq differs from the rebuilt claim" in err


def test_a_very_proximal_group_puts_its_inverse_proximal_len_claims_on(tmp_path):
    # `_very` reads the inverse's group at PROXIMAL_LEN past the first claim
    text = MATRIX_HEADER + TASK + "op analyze\nsubop very-proximal\nelement b\nepsilon-sq 1/25\nr-sq 1/4\n"
    _, cert, _ = run(tmp_path, "analyze", text)
    group = [c["type"] for c in cert["claims"][1:]]  # past the word-eval claim
    own = ["contraction", "point-plane-far", "selfmap-enclosure", "selfmap-enclosure"]
    assert len(own) == PROXIMAL_LEN
    assert group == own + own + ["set-disjoint"] * len(VERY_PAIRS)


def _golden_claim(tmp_path, name: str, kind: str):
    """A golden's certificate, its first claim of type `kind` and the
    context `check_claim` checks it in."""
    command, text = PROBLEMS[name]
    _, cert, _ = run(tmp_path, command, text)
    claim = next(c for c in cert["claims"] if c["type"] == kind)
    ctx = CertContext(place_from(cert["place"]), cert["header"], cert["task"])
    assert check_claim(claim, ctx)
    return cert, claim, ctx


@pytest.mark.parametrize("field", ["attract", "repel"])
def test_a_contraction_claim_states_the_recomputed_candidates(tmp_path, field):
    _, claim, ctx = _golden_claim(tmp_path, "analyze-contracting", "contraction")
    assert claim["cert"][field] == ["1", "0"]
    claim["cert"][field] = ["0", "1"]
    assert not check_claim(claim, ctx)


def test_a_contraction_claim_bounds_the_recomputed_direction_error(tmp_path, capsys):
    cert, claim, ctx = _golden_claim(tmp_path, "analyze-very-proximal", "contraction")
    err = direction_candidates(mat_from(claim["matrix"], ctx.place)).attract_err_sq
    assert err > 0
    claim["cert"]["attract_err_sq"] = str(err / 2)
    assert not check_claim(claim, ctx)
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    assert "verify: claim 1 (contraction) failed" in capsys.readouterr().err


def test_a_selfmap_claim_bounds_kappa_squared(tmp_path):
    # gap_sq_hi halved, below kappa^2, with the three numbers selfmap_at
    # derives at that gap restated, so only the gap check can refuse it
    _, claim, ctx = _golden_claim(tmp_path, "analyze-proximal", "selfmap-enclosure")
    matrix = mat_from(claim["matrix"], ctx.place)
    gap = contraction_gap_sq(matrix).hi / 2
    claim["gap_sq_hi"] = str(gap)
    enc = claim["enclosure"]
    center, t_sq = point_from(enc["center"], 2), parse_rat(enc["radius_sq"])
    args = (point_from(claim["attract"], 2), plane_from(claim["repel"], 2), parse_rat(claim["repel_err_sq"]), gap, parse_rat(claim["epsilon_sq"]))
    _, derived = selfmap_at(matrix, center, *args, Ladder([t_sq.as_integer_ratio()]))
    assert derived.ball == Ball(center, t_sq)
    enc.update(lipschitz_sq=str(derived.lipschitz_sq), region_low_sq=str(derived.region_low_sq), move_sq=str(derived.move_sq))
    assert not check_claim(claim, ctx)


@pytest.mark.parametrize(
    "tamper, code, message",
    [
        (lambda c: c["task"].update(subop="spiral"), 2, "verify: unknown task 'analyze' 'spiral'"),
        (lambda c: c.update(task="contracting"), 2, "verify: unknown task None None"),
        (lambda c: c["task"].update(op=["analyze"]), 2, "verify: unknown task ['analyze'] 'contracting'"),
        (lambda c: c.update(verdict="partial"), 3, "verify: verdict 'partial' is not a verdict of analyze contracting"),
        (lambda c: c.update(verdict=["yes"]), 3, "verify: verdict ['yes'] is not a verdict of analyze contracting"),
        (lambda c: c.update(verdict="ok"), 3, "verify: verdict 'ok' is not a verdict of analyze contracting"),
        (lambda c: c["result"].update(note="x"), 3, "result field 'note' is neither bound nor stated"),
        (lambda c: c["claims"].append(dict(c["claims"][0])), 3, "claim 2 (word-eval) belongs to no group of the verdict"),
        (lambda c: c["task"].update(epsilon_sq="1/9"), 3, "claim 1 (contraction) cert.epsilon_sq differs from the rebuilt claim"),
        (lambda c: c.update(result=[c["result"]]), 3, "verify: verdict 'yes' of analyze contracting: result is not an object"),
    ],
    ids=[
        "unknown-subop",
        "task-not-an-object",
        "op-not-a-string",
        "partial",
        "verdict-not-a-string",
        "verdict-of-another-subop",
        "unnamed-field",
        "extra-claim",
        "task-epsilon",
        "result-not-an-object",
    ],
)
def test_verify_names_the_verdict_and_what_it_lacks(tmp_path, capsys, tamper, code, message):
    text = MATRIX_HEADER + TASK + "op analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n"
    _, cert, _ = run(tmp_path, "analyze", text)
    tamper(cert)
    capsys.readouterr()
    assert _verify(tmp_path, cert) == code
    assert message in capsys.readouterr().err


def test_verify_refuses_a_set_component_of_an_unknown_kind(tmp_path, capsys):
    cert, claim, ctx = _golden_claim(tmp_path, "analyze-very-proximal", "set-disjoint")
    claim["left"][0]["kind"] = "disk"
    with pytest.raises(VerifyError, match="^bad set component kind 'disk'$"):
        check_claim(claim, ctx)
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 2
    assert "verify: bad set component kind 'disk'" in capsys.readouterr().err


def test_verify_reports_an_input_error_that_a_binder_meets(tmp_path, capsys, goldens):
    # `tree expand` has no claim: the header is read before any claim or binder
    cert = {**goldens["tree-expand"], "header": {}}
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 2
    assert "verify: certificate lacks an amalgam table" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("table_a", [[0, True], [True, 0]], "row 0 of the multiplication table is malformed"),
        ("embed_b", [False], "embedding into B has an entry that is not an integer"),
    ],
    ids=["table", "embedding"],
)
def test_verify_refuses_an_amalgam_entry_that_is_no_json_integer(tmp_path, capsys, field, value, message):
    # Z/2 * Z/3: `true` equals 1 and `false` 0, so range and group laws alone pass both tables
    _, cert, _ = run(tmp_path, "tree", mod_amalgam_header() + "\n[task]\nop tree\nsubop kernel\n")
    cert["header"]["amalgam"][field] = value
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 2
    assert f"verify: bad amalgam: {message}" in capsys.readouterr().err


def _method_in_claim_and_result(cert):
    cert["claims"][1]["cert"]["method"] = cert["result"]["cert"]["method"] = "power-iteration"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda c: c["claims"][1].update(extra="x"), "claim 1 (contraction) extra differs from the rebuilt claim"),
        (lambda c: c["claims"][0].update(note="the element"), "claim 0 (word-eval) note differs from the rebuilt claim"),
        (_method_in_claim_and_result, "claim 1 (contraction) cert.method differs from the rebuilt claim"),
    ],
    ids=["extra-claim-key", "word-eval-note", "method-in-claim-and-result"],
)
def test_verify_compares_the_claims_whole(tmp_path, capsys, tamper, message):
    # each claim passes its own check: only the layout the verdict needs fails
    text = _one("gen a = [[2, 1], [1, 1]]\n") + "op analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n"
    code, cert, _ = run(tmp_path, "analyze", text)
    assert code == 0
    tamper(cert)
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    err = capsys.readouterr().err
    assert "failed" not in err
    assert message in err


@pytest.mark.parametrize(
    "name, field, value, message",
    [
        ("tree-normal-form", "tail", False, "result normal form holds a number that is no integer"),
        ("tree-expand", "count", 11.0, "result count is not the listing's"),
    ],
)
def test_verify_tells_json_integers_from_booleans_and_floats(tmp_path, capsys, name, field, value, message):
    # `false` equals 0 and `11.0` equals 11 in Python
    command, text = PROBLEMS[name]
    _, cert, _ = run(tmp_path, command, text)
    assert cert["result"][field] == value and type(cert["result"][field]) is int
    cert["result"][field] = value
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    assert message in capsys.readouterr().err


def test_verify_forms_no_power_past_max_exponent(tmp_path, capsys):
    # g^n at n = 10^6 took seconds for g = [[2, 1], [1, 1]]
    text = _one("gen g = [[2, 1], [1, 1]]\n") + "op analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\n"
    code, cert, _ = run(tmp_path, "analyze", text)
    assert code == 0
    cert["task"]["max_n"] = cert["result"]["n"] = 10**6
    capsys.readouterr()
    t0 = time.perf_counter()
    assert _verify(tmp_path, cert) == 3
    assert time.perf_counter() - t0 < 1
    assert "result n is outside 1..max_n, or max_n over MAX_EXPONENT = 64" in capsys.readouterr().err


def test_verify_builds_no_tuple_pairs_past_its_claims(tmp_path, capsys):
    # 2000 players would need 31,990,000 pairs, which take seconds and
    # gigabytes to list; the certificate holds 44 claims
    command, text = PROBLEMS["pingpong-tuple"]
    _, cert, _ = run(tmp_path, command, text)
    names = [f"p{i}" for i in range(2000)]
    cert["task"]["players"] = dict.fromkeys(names, "a")
    cert["result"]["players"] = dict.fromkeys(names, cert["result"]["players"]["g1"])
    capsys.readouterr()
    t0 = time.perf_counter()
    assert _verify(tmp_path, cert) == 3
    assert time.perf_counter() - t0 < 1
    assert "2000 players need 31990000 disjointness claims" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word, names, oracle_len, message",
    [
        ("a b", ["a", "b"], 6, "relation 'a b' is not the identity"),
        ("a b", ["a"], 6, "oracle names are not the task's players"),
        ("a^1000000", ["a", "b"], 6, "relation 'a^1000000' is not of 1 to 6 letters"),
        ("a a^-1", ["a", "b"], 6, "relation 'a a^-1' is not freely reduced"),
        ("a b", ["a", "b"], 13, "oracle_len is outside 1..MAX_ORACLE_LEN = 12"),
    ],
    ids=["not-the-identity", "names", "too-long", "not-reduced", "oracle-len"],
)
def test_verify_checks_a_relation(tmp_path, capsys, word, names, oracle_len, message):
    # the Sanov pair is free: each forged relation agrees in the claim, the
    # result and the task, so only the relation's own check can fail it
    command, text = PROBLEMS["pingpong-oracle"]
    _, cert, _ = run(tmp_path, command, text)
    cert["verdict"], cert["task"]["oracle_len"] = "relation", oracle_len
    cert["result"] = {"oracle": "relation", "relation": word}
    cert["claims"][0].update(result="relation", word=word, names=names, max_len=oracle_len)
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    assert message in capsys.readouterr().err


def _scale(claims: list[dict], factor: int) -> None:
    """Each claim matrix among `claims` times `factor`."""
    for claim in claims:
        if "matrix" in claim:
            claim["matrix"] = [[str(parse_rat(x) * factor) for x in row] for row in claim["matrix"]]


@pytest.mark.parametrize(
    "name, first, stop, factor, message",
    [
        ("analyze-contracting", 0, 2, 2, "claim 0 (word-eval) failed"),
        ("analyze-very-proximal", 5, 9, 3, "claim 5 (contraction) matrix differs from the rebuilt claim"),
        ("analyze-power-proximal", 1, 5, 5, "claim 1 (contraction) matrix differs from the rebuilt claim"),
        ("pingpong-tuple", 22, 33, 7, "claim 22 (contraction) matrix differs from the rebuilt claim"),
    ],
    ids=["every-matrix", "inverse-group", "power-group", "first-player-group"],
)
def test_verify_binds_each_matrix_exactly(tmp_path, capsys, goldens, name, first, stop, factor, message):
    # a contraction or self-map check reads its matrix only up to scale, so
    # a group scaled throughout passes its claims' own checks
    cert = copy.deepcopy(goldens[name])
    _scale(cert["claims"][first:stop], factor)
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("max_len", [1, 12])
def test_verify_binds_the_prodense_oracle_length(tmp_path, capsys, max_len):
    command, text = PROBLEMS["synthesize-truncated-prodense-full"]
    _, cert, _ = run(tmp_path, command, text)
    oracle = cert["claims"][-1]
    assert (oracle["type"], oracle["max_len"]) == ("oracle", PRODENSE_ORACLE_LEN)
    oracle["max_len"] = max_len
    capsys.readouterr()
    assert _verify(tmp_path, cert) == 3
    assert f"claim {len(cert['claims']) - 1} (oracle) max_len differs from the rebuilt claim" in capsys.readouterr().err


def test_every_certificate_of_the_matrix_deck_verifies(tmp_path, monkeypatch):
    """The benchmark's seed-1000 deck of the matrix workloads, solved and
    verified in-process with every memo cleared first, as
    `tools/deck_digests.py` runs it: no request crashes, and `verify` exits
    0 on every certificate written."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from run import find_caches
    from workloads import GENERATORS

    caches, prob, out = find_caches(), tmp_path / "r.prob", tmp_path / "r.cert"

    def call(argv: list[str]) -> int:
        for c in caches:
            c.cache_clear()
        return main(argv)

    requests = [req for workload, rounds in [("matrix-small", 20), ("highdim", 5), ("prodense", 1)] for rnd in GENERATORS[workload](1000, rounds) for req in rnd]
    assert len(requests) == 486
    refused = []
    for i, req in enumerate(requests):
        prob.write_text(req.text, encoding="utf-8")
        out.unlink(missing_ok=True)
        code = call([req.cmd, str(prob), "--out", str(out)])
        verified = call(["verify", str(out)]) if out.exists() else None
        if code not in (0, 3, 4) or verified != 0:
            refused.append(f"{i:04d} {req.label}: solve exit {code}, verify exit {verified}")
    assert not refused, "\n".join(refused)


@pytest.mark.parametrize("players, relation", [("player x = a\nplayer y = a a\n", "x x y^-1"), ("player y = a a\nplayer x = a\n", "y x^-1 x^-1")])
def test_verify_accepts_a_relation_of_player_words(tmp_path, players, relation):
    # the oracle names the players in their file order, the task in sorted order
    code, cert, out = run(tmp_path, "pingpong", SANOV_HEADER + TASK + "op pingpong\nsubop oracle\n" + players + "oracle-len 3\n")
    assert (code, cert["result"]["relation"]) == (3, relation)
    assert main(["verify", str(out)]) == 0


# ---------------------------------------------------------------------------
# Mutation suite: every claim deletion, verdict change, bound result edit,
# key added to a claim's object and change of a claim's type, note or
# method of a sufficing golden fails verify
# ---------------------------------------------------------------------------


def _leaves(node, path=()):
    """The paths of the scalars and empty containers under `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    found = [p for k, v in items for p in _leaves(v, path + (k,))]
    return found or [path]


def _other(value):
    """A strategy for a JSON value of the same kind as `value`, but different."""
    if isinstance(value, bool):
        return st.just(not value)
    if isinstance(value, int):
        return st.integers(-3, 99).filter(lambda x: x != value)
    if isinstance(value, str):
        return st.text("0123456789/-ab ", max_size=6).filter(lambda x: x != value)
    if value is None:
        return st.just("x")
    return st.just(["x"])  # an empty list or object


_ALL_FIELDS = sorted(set().union(*(row._named for row in VERDICTS.values())) | {"note"})

#: the claim types of each backend: a claim given another backend's type
#: asks for a table the header lacks, an input error (exit 2)
_CLAIM_TYPES = {
    "matrix": ["word-eval", "contraction", "contraction-refuted", "point-plane-far", "selfmap-enclosure", "set-disjoint", "set-contains", "normal-membership", "oracle"],
    "amalgam": ["tree-normal-form", "tree-classify", "tree-evidence", "shadow-disjoint", "kernel", "oracle"],
}


def _objects(node) -> list:
    """Every object under `node`, `node` included when it is one."""
    items = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return [node] * isinstance(node, dict) + [o for v in items for o in _objects(v)]


@st.composite
def mutations(draw, certs: dict):
    name = draw(st.sampled_from(sorted(certs)))
    cert = copy.deepcopy(certs[name])
    row, op = _row(cert), cert["task"]["op"]
    others = sorted({v for o, _, v in VERDICTS if o == op} - {cert["verdict"]})
    on_claims = ["delete-claim", "claim-key", "claim-field"] if cert["claims"] else []  # `tree expand` has none
    kind = draw(st.sampled_from(["edit", "remove", "add"] + on_claims + ["verdict"] * bool(others)))
    claim = draw(st.sampled_from(cert["claims"])) if on_claims else None
    if kind == "delete-claim":
        cert["claims"].remove(claim)
    elif kind == "claim-key":
        obj = draw(st.sampled_from(_objects(claim)))
        obj[draw(st.text("abcdefgh_", min_size=1, max_size=8).filter(lambda k: k not in obj))] = draw(st.one_of(st.none(), st.integers(0, 9), st.text(max_size=3)))
    elif kind == "claim-field":
        field = draw(st.sampled_from(["type"] + ["note"] * ("note" in claim) + ["method"] * ("method" in claim.get("cert", {}))))
        if field == "type":
            claim["type"] = draw(st.sampled_from([t for t in _CLAIM_TYPES[cert["backend"]] if t != claim["type"]]))
        elif field == "note":
            claim["note"] = draw(_other(claim["note"]))
        else:
            claim["cert"]["method"] = draw(_other(claim["cert"]["method"]))
    elif kind == "verdict":
        cert["verdict"] = draw(st.sampled_from(others))
    elif kind == "remove":
        del cert["result"][draw(st.sampled_from(row.binds))]
    elif kind == "add":
        field = draw(st.sampled_from([f for f in _ALL_FIELDS if f not in row._named]))
        cert["result"][field] = draw(st.one_of(st.none(), st.integers(0, 9), st.text(max_size=3)))
    else:
        field = draw(st.sampled_from(row.binds))
        *parents, last = (field,) + draw(st.sampled_from(_leaves(cert["result"][field])))
        node = cert["result"]
        for key in parents:
            node = node[key]
        node[last] = draw(_other(node[last]))
    return name, kind, cert


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_every_mutation_of_a_sufficing_golden_fails_verify(scratch, goldens, data):
    name, kind, cert = data.draw(mutations(goldens))
    assert _verify(scratch, cert) == 3, (name, kind)
