import ast
import itertools
import json
import re
import time
from pathlib import Path

import pytest

from freecert.cli import MAX_PROBLEM_BYTES, main
from oracles import group_from_permutations

MATRIX_HEADER = """format 1
place arch

[matrix-group]
dim 2
gen a = [[81, 0], [0, 1]]
gen b = [[41, 40], [40, 41]]
"""

SANOV_HEADER = """format 1
place arch

[matrix-group]
dim 2
gen a = [[1, 2], [0, 1]]
gen b = [[1, 0], [2, 1]]
"""


def mod_amalgam_header() -> str:
    return """format 1

[amalgam]
names-a e s
table-a
0 1
1 0
names-b e t u
table-b
0 1 2
1 2 0
2 0 1
names-h e
table-h
0
embed-a 0
embed-b 0
"""


def s3_amalgam_header(h: str) -> str:
    s3 = group_from_permutations([(0, 2, 1), (1, 2, 0)])
    rows = "\n".join(" ".join(str(x) for x in r) for r in s3.table)
    if h == "a3":
        h_block = "names-h e p q\ntable-h\n0 1 2\n1 2 0\n2 0 1\nembed-a 0 3 4\nembed-b 0 3 4"
    else:
        h_block = "names-h e p\ntable-h\n0 1\n1 0\nembed-a 0 1\nembed-b 0 1"
    return f"""format 1

[amalgam]
names-a e t1 t2 c1 c2 t3
table-a
{rows}
names-b f u1 u2 d1 d2 u3
table-b
{rows}
{h_block}
"""


def run(tmp_path, command, text, *extra):
    prob = tmp_path / "in.prob"
    prob.write_text(text)
    out = tmp_path / "out.cert"
    code = main([command, str(prob), "--out", str(out)] + list(extra))
    data = json.loads(out.read_text()) if out.exists() and out.read_text() else None
    return code, data, out


def verify_file(path) -> int:
    return main(["verify", str(path)])


def test_analyze_contracting_yes(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n"
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 0
    assert cert["verdict"] == "yes"
    assert verify_file(out) == 0


def test_analyze_identity_no(tmp_path):
    text = (
        "format 1\nplace arch\n[matrix-group]\ngen e = [[1, 0], [0, 1]]\n"
        "[task]\nop analyze\nsubop contracting\nelement e\nepsilon-sq 1/4\n"
    )
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 3
    assert cert["verdict"] == "no"
    assert verify_file(out) == 0


def _forged_refutation_code(tmp_path, text: str, refuted: dict, subop: str | None = None) -> int:
    """verify's exit code for the certificate of `text` rewritten to verdict
    `no` with one more contraction-refuted claim (and the task's subop)."""
    code, cert, _ = run(tmp_path, "analyze", text)
    assert code == 0
    cert["verdict"] = "no"
    cert["task"]["subop"] = subop or cert["task"]["subop"]
    cert["claims"].append(dict(refuted, type="contraction-refuted", epsilon_sq="1/4"))
    forged = tmp_path / "forged.cert"
    forged.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    return verify_file(forged)


def test_verify_binds_contraction_refutation_to_the_element(tmp_path):
    task = "[task]\nop analyze\nsubop contracting\nelement {}\nepsilon-sq 1/4\n"
    # a refutation of the identity says nothing about the contracting a
    identity = {"matrix": [["1", "0"], ["0", "1"]], "witness": ["1", "0"], "attract": ["0", "1"], "repel": ["1", "0"]}
    assert _forged_refutation_code(tmp_path, MATRIX_HEADER + "\n" + task.format("a"), identity) == 3
    # a = diag(25, 1) at p:5 has candidates attract [0, 1], repel ker(0, 1);
    # the forged pair swaps in attract [1, 0]
    padic = "format 1\nplace p:5\n[matrix-group]\ngen a = [[25, 0], [0, 1]]\n" + task.format("a")
    swapped = {"matrix": [["25", "0"], ["0", "1"]], "witness": ["0", "1"], "attract": ["1", "0"], "repel": ["0", "1"]}
    assert _forged_refutation_code(tmp_path, padic, swapped) == 3
    # e = diag(1, 25, 25) at p:5 is contracting and e^-1 is not: the witness
    # [0, 1, 1] refutes the candidates of e^-1, which only a very-proximal
    # task may cite
    padic = "format 1\nplace p:5\n[matrix-group]\ngen e = [[1, 0, 0], [0, 25, 0], [0, 0, 25]]\n" + task.format("e")
    inverse = [["25", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    refuted = {"matrix": inverse, "witness": ["0", "1", "1"], "attract": ["0", "1", "0"], "repel": ["0", "1", "0"]}
    assert _forged_refutation_code(tmp_path, padic, refuted) == 3
    assert _forged_refutation_code(tmp_path, padic, refuted, "very-proximal") == 0


def test_analyze_profile_padic(tmp_path):
    text = (
        "format 1\nplace p:5\n[matrix-group]\ngen g = [[5, 0], [0, 1]]\n"
        "[task]\nop analyze\nsubop profile\nelement g\n"
    )
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 0
    assert cert["result"]["exact"] is True
    assert cert["result"]["values_sq"] == [{"lo": "1", "hi": "1"}, {"lo": "1/25", "hi": "1/25"}]


def test_analyze_power_proximal(tmp_path):
    text = (
        "format 1\nplace arch\n[matrix-group]\ngen g = [[2, 0], [0, 1]]\n"
        "[task]\nop analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\nmax-n 20\n"
    )
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 0
    assert cert["result"]["n"] == 6
    assert verify_file(out) == 0


def test_analyze_malformed_rational(tmp_path):
    text = "format 1\nplace arch\n[matrix-group]\ngen g = [[1/0, 0], [0, 1]]\n[task]\nop analyze\nsubop profile\nelement g\n"
    code, cert, _ = run(tmp_path, "analyze", text)
    assert code == 2 and cert is None


def test_analyze_very_proximal_inverse_refutation_verifies(tmp_path):
    # g is proximal but g^-1 is not: the refutation must be stated against g^-1
    text = (
        "format 1\nplace p:5\n[matrix-group]\n"
        "gen g = [[-18734, -29976, 0], [12490, 19985, 0], [39968, 59952, 1250]]\n"
        "[task]\nop analyze\nsubop very-proximal\nelement g\nepsilon-sq 1/25\nr-sq 1/4\n"
    )
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 3
    assert cert["verdict"] == "no"
    assert verify_file(out) == 0


def test_verify_binds_the_stored_enclosure_numbers(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop very-proximal\nelement b\nepsilon-sq 1/25\nr-sq 1/4\n"
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 0 and cert["verdict"] == "yes"
    assert verify_file(out) == 0
    for field, value in (("lipschitz_sq", "0"), ("region_low_sq", "1"), ("move_sq", "0")):
        tampered = json.loads(out.read_text())
        next(c for c in tampered["claims"] if c["type"] == "selfmap-enclosure")["enclosure"][field] = value
        bad = tmp_path / "bad.cert"
        bad.write_text(json.dumps(tampered, sort_keys=True, indent=2) + "\n")
        assert verify_file(bad) == 3, field


def test_place_prime_beyond_primality_limit_fails_fast(tmp_path):
    text = (
        "format 1\nplace p:100000000000000000000000000319\n[matrix-group]\ngen g = [[5, 0], [0, 1]]\n"
        "[task]\nop analyze\nsubop profile\nelement g\n"
    )
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "analyze", text)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and cert is None


def test_verify_rejects_certificate_place_beyond_primality_limit(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    _, cert, out = run(tmp_path, "analyze", text, "--place", "p:5")
    cert["place"] = "p:100000000000000000000000000319"
    out.write_text(json.dumps(cert))
    assert verify_file(out) == 2


def test_place_large_prime_accepted(tmp_path):
    p = 1000000000039
    text = (
        f"format 1\nplace p:{p}\n[matrix-group]\ngen g = [[{p}, 0], [0, 1]]\n"
        "[task]\nop analyze\nsubop profile\nelement g\n"
    )
    code, cert, _ = run(tmp_path, "analyze", text)
    assert code == 0
    assert cert["result"]["values_sq"][1] == {"lo": f"1/{p * p}", "hi": f"1/{p * p}"}


def test_pingpong_certified_and_verify(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n"
    code, cert, out = run(tmp_path, "pingpong", text)
    assert code == 0
    assert cert["verdict"] == "certified"
    assert cert["result"]["oracle"] == "no-relation"
    assert verify_file(out) == 0


def test_pingpong_player_name_with_vs(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop pingpong\nsubop tuple\nplayer x vs y = a\nplayer g2 = b\nradius-sq 1/10\n"
    code, cert, out = run(tmp_path, "pingpong", text)
    assert code == 0
    assert cert["verdict"] == "certified"
    assert any(c.get("note") == "x vs y.A+ vs x vs y.A-" for c in cert["claims"])
    assert verify_file(out) == 0


def test_pingpong_duplicates_refuted(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop pingpong\nplayer g1 = a\nplayer g2 = a\nradius-sq 1/10\n"
    code, cert, _ = run(tmp_path, "pingpong", text)
    assert code == 3
    assert cert["verdict"] == "refuted"
    assert "witness" in cert["result"]


def test_pingpong_oracle_sanov(tmp_path):
    text = SANOV_HEADER + "\n[task]\nop pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 6\n"
    code, cert, _ = run(tmp_path, "pingpong", text)
    assert code == 0
    assert cert["result"]["oracle"] == "no-relation"


def test_pingpong_mixed_backends(tmp_path):
    text = MATRIX_HEADER + mod_amalgam_header().split("format 1")[1] + "\n[task]\nop pingpong\nplayer g = a\n"
    code, _, _ = run(tmp_path, "pingpong", text)
    assert code == 2


def test_tree_classify(tmp_path):
    text = mod_amalgam_header() + "\n[task]\nop tree\nsubop classify\nword s t\n"
    code, cert, out = run(tmp_path, "tree", text)
    assert code == 0
    assert cert["result"]["kind"] == "hyperbolic"
    assert cert["result"]["translation_length"] == 2
    assert verify_file(out) == 0


def test_tree_classify_elliptic(tmp_path):
    text = mod_amalgam_header() + "\n[task]\nop tree\nsubop classify\nword s\n"
    code, cert, _ = run(tmp_path, "tree", text)
    assert code == 0
    assert cert["result"]["kind"] == "elliptic"


def test_tree_normal_form(tmp_path):
    text = mod_amalgam_header() + "\n[task]\nop tree\nsubop normal-form\nword s s\n"
    code, cert, out = run(tmp_path, "tree", text)
    assert code == 0
    assert cert["result"]["is_identity"] is True
    assert verify_file(out) == 0


def test_tree_expand(tmp_path):
    text = mod_amalgam_header() + "\n[task]\nop tree\nsubop expand\nradius 2\n"
    code, cert, out = run(tmp_path, "tree", text)
    assert code == 0
    assert cert["result"]["count"] == 1 + 2 + 2 * 2
    assert verify_file(out) == 0


def test_verify_builds_the_amalgam_once(tmp_path, monkeypatch):
    from freecert import certfmt

    text = s3_amalgam_header("c2") + "\n[task]\nop tree\nsubop expand\nradius 3\n"
    code, cert, out = run(tmp_path, "tree", text)
    assert code == 0
    assert len(cert["claims"]) >= 10
    calls = []
    build = certfmt.amalgam_from

    def counting(data):
        calls.append(1)
        return build(data)

    monkeypatch.setattr(certfmt, "amalgam_from", counting)
    assert verify_file(out) == 0
    assert len(calls) == 1


def test_tree_pingpong_via_cli(tmp_path):
    text = mod_amalgam_header() + "\n[task]\nop tree\nsubop pingpong\nword s t s t\nword t s t s\n"
    code, cert, out = run(tmp_path, "tree", text)
    assert code == 0
    assert cert["verdict"] == "certified"
    assert cert["result"]["oracle"] == "no-relation"
    assert verify_file(out) == 0


def test_tree_kernel_fixtures(tmp_path):
    code, cert, out = run(tmp_path, "tree", s3_amalgam_header("a3") + "\n[task]\nop tree\nsubop kernel\n")
    assert code == 0
    assert cert["result"]["elements"] == [0, 1, 2]
    assert verify_file(out) == 0
    code, cert, _ = run(tmp_path, "tree", s3_amalgam_header("c2") + "\n[task]\nop tree\nsubop kernel\n")
    assert code == 0
    assert cert["result"]["elements"] == [0]


def test_tree_bad_table(tmp_path):
    text = mod_amalgam_header().replace("0 1\n1 0", "0 1\n1 1") + "\n[task]\nop tree\nsubop kernel\n"
    code, _, _ = run(tmp_path, "tree", text)
    assert code == 2


def test_synthesize_prodense(tmp_path):
    text = SANOV_HEADER + "\n[task]\nop synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = a | b\n"
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert cert["verdict"] == "certified"
    assert cert["result"]["combined"] == "certified"
    assert cert["result"]["oracle"] == "no-relation"
    assert len(cert["result"]["step2"]["N"]) == 2
    assert verify_file(out) == 0


def test_synthesize_prodense_empty_normals(tmp_path):
    text = SANOV_HEADER + "\n[task]\nop synthesize\nsubop truncated-prodense\n"
    code, _, _ = run(tmp_path, "synthesize", text)
    assert code == 2


def test_synthesize_prodense_zero_budgets(tmp_path):
    text = SANOV_HEADER + "\n[task]\nop synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = a\n"
    code, cert, _ = run(tmp_path, "synthesize", text, "--budget", "host_word_len=0")
    assert code == 4
    assert cert["verdict"] == "unknown"


def test_synthesize_conjugate_contract(tmp_path):
    text = (
        "format 1\nplace arch\n[matrix-group]\ngen g = [[9, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\n"
        "[task]\nop synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 6\n"
    )
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert 1 <= cert["result"]["m"] <= 6
    assert verify_file(out) == 0


def test_removed_budget_is_unknown(tmp_path, capsys):
    text = (
        "format 1\nplace arch\n[matrix-group]\ngen g = [[9, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\n"
        "[task]\nop synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 6\n"
    )
    code, cert, _ = run(tmp_path, "synthesize", text, "--budget", "k_max=1")
    assert code == 2 and cert is None
    assert "unknown budget 'k_max'" in capsys.readouterr().err


def test_synthesize_b1b2b3(tmp_path):
    text = (
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\ngen s = [[1, -1], [1, 1]]\n"
        "[task]\nop synthesize\nsubop b1b2b3\nelement g\nb1 r\nb2 r\nb3 s\n"
        "attract ball [1, 0] 1/25\nrepel ball [0, 1] 1/25\nk-max 32\n"
    )
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert cert["result"]["k"] <= 32
    assert verify_file(out) == 0


def test_synthesize_very_proximal(tmp_path):
    text = (
        "format 1\nplace arch\n[matrix-group]\ngen g = [[25, 0], [0, 1]]\ngen s = [[1, -1], [1, 1]]\n"
        "[task]\nop synthesize\nsubop very-proximal\nelement g\nword-len 2\nr-sq 1/4\nepsilon-sq 1/25\n"
    )
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert verify_file(out) == 0


def test_synthesize_normal_proximal_and_cosets(tmp_path):
    text = SANOV_HEADER + "\n[task]\nop synthesize\nsubop normal-proximal\nnormal N = a a\n"
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert verify_file(out) == 0
    text = SANOV_HEADER + "\n[task]\nop synthesize\nsubop coset-pingpong\nnormal N = a a\ncosets N = a | b\n"
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert len(cert["result"]["deltas"]) == 2
    assert verify_file(out) == 0


def test_synthesize_double_coset(tmp_path):
    text = (
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen h = [[13, 12], [12, 13]]\ngen r = [[0, -1], [1, 0]]\n"
        "[task]\nop synthesize\nsubop double-coset\nh1 g\nh2 h\ncoset-rep r\n"
    )
    code, cert, out = run(tmp_path, "synthesize", text)
    assert code == 0
    assert cert["result"]["wrapped"][0]["m"] >= 1
    assert verify_file(out) == 0


def test_determinism_byte_identical(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop pingpong\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n"
    _, _, out1 = run(tmp_path, "pingpong", text)
    first = out1.read_text()
    _, _, out2 = run(tmp_path, "pingpong", text)
    assert out2.read_text() == first


def test_verify_rejects_mutations(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop pingpong\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n"
    code, cert, out = run(tmp_path, "pingpong", text)
    assert code == 0
    mutated = json.loads(out.read_text())
    for c in mutated["claims"]:
        if c["type"] == "set-disjoint":
            c["left"][0]["radius_sq"] = "99/100"
            break
    bad = tmp_path / "bad.cert"
    bad.write_text(json.dumps(mutated, sort_keys=True, indent=2) + "\n")
    assert verify_file(bad) == 3


def test_verify_rejects_truncation(tmp_path):
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    _, _, out = run(tmp_path, "analyze", text)
    bad = tmp_path / "trunc.cert"
    bad.write_text(out.read_text()[:100])
    assert verify_file(bad) == 2


def test_place_override_flag(tmp_path):
    text = "format 1\nplace arch\n[matrix-group]\ngen g = [[5, 0], [0, 1]]\n[task]\nop analyze\nsubop profile\nelement g\n"
    code, cert, _ = run(tmp_path, "analyze", text, "--place", "p:5")
    assert code == 0
    assert cert["place"] == "p:5"
    assert cert["result"]["exact"] is True


def test_unknown_section_is_positioned_error(tmp_path, capsys):
    prob = tmp_path / "x.prob"
    prob.write_text("format 1\n[weird]\n")
    code = main(["analyze", str(prob)])
    assert code == 2
    err = capsys.readouterr().err
    assert "2:2" in err


@pytest.mark.parametrize("order", ["dim first", "dim last"])
def test_generator_size_must_match_dim(tmp_path, capsys, order):
    dim, gen = "dim 3\n", "gen a = [[2, 0], [0, 1]]\n"
    body = dim + gen if order == "dim first" else gen + dim
    text = "format 1\nplace arch\n[matrix-group]\n" + body + "[task]\nop analyze\nsubop profile\nelement a\n"
    code, cert, _ = run(tmp_path, "analyze", text)
    assert code == 2 and cert is None
    assert "5:1: generator a is 2x2, but dim is 3" in capsys.readouterr().err


def test_place_syntax_errors_keep_their_framing(tmp_path, capsys):
    text = MATRIX_HEADER.replace("place arch", "place q:5") + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    assert run(tmp_path, "analyze", text)[0] == 2
    assert "2:7: place must be arch or p:PRIME" in capsys.readouterr().err
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    assert run(tmp_path, "analyze", text, "--place", "p:6")[0] == 2
    _, cert, out = run(tmp_path, "analyze", text)
    for bad in ("p:x", 5):
        cert["place"] = bad
        out.write_text(json.dumps(cert))
        assert verify_file(out) == 2


def test_verify_rejects_member_claims(tmp_path):
    # no command emits a `member` claim, so the checker knows no such type
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    _, cert, out = run(tmp_path, "analyze", text)
    far = [{"kind": "ball", "center": ["0", "1"], "radius_sq": "1/4"}]
    cert["claims"].append({"type": "member", "point": ["1", "0"], "set": far, "value": False})
    out.write_text(json.dumps(cert))
    assert verify_file(out) == 2


@pytest.mark.parametrize("claims", [["oops"], {"x": 1}], ids=["list-of-strings", "object"])
def test_verify_rejects_claims_that_are_not_a_list_of_objects(tmp_path, capsys, claims):
    text = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    _, cert, out = run(tmp_path, "analyze", text)
    cert["claims"] = claims
    out.write_text(json.dumps(cert))
    assert verify_file(out) == 2
    assert "claims list of objects" in capsys.readouterr().err


def test_oracle_len_beyond_limit_fails_fast(tmp_path, capsys):
    body = "\n[task]\nop pingpong\nsubop oracle\nplayer a = a\nplayer b = b\n"
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "pingpong", SANOV_HEADER + body + "oracle-len 13\n")
    assert code == 2 and cert is None
    assert "in.prob:14:12: oracle-len 13 is outside 1..12" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "pingpong", SANOV_HEADER + body, "--oracle-len", "40")
    assert code == 2 and cert is None
    assert "--oracle-len 40 is outside 1..12" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "tree", mod_amalgam_header() + "\n[task]\nop pingpong\nword s t\noracle-len 99\n")
    assert code == 2 and cert is None
    assert time.perf_counter() - t0 < 1
    code, cert, _ = run(tmp_path, "pingpong", SANOV_HEADER + body + "oracle-len 4\n")
    assert code == 0 and cert["result"]["oracle"] == "no-relation"


def test_double_coset_verdict_counts_skipped_identity_reps(tmp_path):
    # r r = -I is the identity projectively: skipped, and the verdict stays yes
    text = (
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen h = [[13, 12], [12, 13]]\ngen r = [[0, -1], [1, 0]]\n"
        "[task]\nop synthesize\nsubop double-coset\nh1 g\nh2 h\ncoset-rep r\ncoset-rep r r\n"
    )
    code, cert, out = run(tmp_path, "synthesize", text)
    wrapped = cert["result"]["wrapped"]
    assert code == 0 and cert["verdict"] == "yes"
    assert wrapped[0]["m"] >= 1 and wrapped[1] == {"coset": "r r", "skipped": "trivial double coset"}
    assert verify_file(out) == 0


def test_word_beyond_limit_fails_fast(tmp_path, capsys):
    body = "\n[task]\nop analyze\nsubop contracting\nepsilon-sq 1/4\nelement "
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "analyze", SANOV_HEADER + body + "a b " * 128 + "\n")
    assert code == 2 and cert is None
    assert "in.prob:13:9: word of 256 letters exceeds MAX_WORD_LEN = 64" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", SANOV_HEADER + body + "a^100000\n")
    assert code == 2 and cert is None
    assert "word of 100000 letters" in capsys.readouterr().err
    player = "\n[task]\nop pingpong\nsubop oracle\nplayer a = a^65\nplayer b = b\noracle-len 2\n"
    code, cert, _ = run(tmp_path, "pingpong", SANOV_HEADER + player)
    assert code == 2 and cert is None
    assert "in.prob:12:1: word of 65 letters" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", SANOV_HEADER + body + "a^32 b^-32\n")
    assert code == 0 and cert["task"]["element"] == "a " * 32 + "b^-1 " * 31 + "b^-1"
    assert time.perf_counter() - t0 < 1


def test_tree_word_beyond_limit_fails_fast(tmp_path, capsys):
    task = mod_amalgam_header() + "\n[task]\nop tree\nsubop {}\n"
    t0 = time.perf_counter()
    for word in ("s t^100000", "s t^1000000"):
        for subop in ("normal-form", "classify"):
            code, cert, _ = run(tmp_path, "tree", task.format(subop) + f"word {word}\n")
            assert code == 2 and cert is None
            assert f"in.prob:22:6: word of {1 + int(word[4:])} letters exceeds MAX_WORD_LEN = 64" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "tree", task.format("pingpong") + "word s t\nword s t^65\n")
    assert code == 2 and cert is None
    assert "in.prob:23:1: word of 66 letters" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1
    # within the limit the certificate echoes the word as written
    code, cert, _ = run(tmp_path, "tree", task.format("classify") + "word s t^63\n")
    assert code == 0 and cert["task"]["word"] == "s t^63"


def test_bad_values_fail_before_any_search_with_a_position(tmp_path, capsys):
    power = "format 1\nplace arch\n[matrix-group]\ngen g = [[2, 0], [0, 1]]\n[task]\nop analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\n"
    # one of these players does not certify, so the run ends in unknown
    players = "format 1\nplace arch\n[matrix-group]\ngen a = [[2, 1], [1, 1]]\ngen b = [[1, 2], [0, 1]]\n[task]\nop pingpong\nplayer g1 = a\nplayer g2 = b\n"
    for command, text, where in (
        ("analyze", MATRIX_HEADER + "\n[task]\nop analyze\nsubop contracting\nelement a\nepsilon-sq abc\n", "in.prob:13:12: malformed rational"),
        ("analyze", power + "max-n x\n", "in.prob:11:7: invalid literal"),
        ("synthesize", SANOV_HEADER + "\n[task]\nop synthesize\nsubop normal-proximal\nnormal N = a a\nbudget power_max=x\n", "in.prob:13:1: invalid literal"),
        ("pingpong", players + "radius-sq x\n", "in.prob:10:11: malformed rational"),
    ):
        code, cert, _ = run(tmp_path, command, text)
        assert code == 2 and cert is None
        assert where in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "pingpong", players + "radius-sq 1/10\n")
    assert code == 4 and "failed_player" in cert["result"]


def test_unread_key_and_mismatched_op_are_input_errors(tmp_path, capsys):
    power = "format 1\nplace arch\n[matrix-group]\ngen g = [[2, 0], [0, 1]]\n[task]\nop analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\n"
    code, cert, _ = run(tmp_path, "analyze", power + "max_n 20\n")
    assert code == 2 and cert is None
    assert "in.prob:11:1: 'max_n' is not a key of this analyze task" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", power.replace("op analyze", "op tree"))
    assert code == 2 and cert is None
    assert "in.prob:6:4: op 'tree' is not one of: analyze" in capsys.readouterr().err
    # a flag that overrides a key still reads and checks the file's value
    oracle = SANOV_HEADER + "\n[task]\nop pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 99\n"
    expand = mod_amalgam_header() + "\n[task]\nop tree\nsubop expand\nradius x\n"
    budget = SANOV_HEADER + "\n[task]\nop synthesize\nsubop normal-proximal\nnormal N = a a\nbudget k_max=1\n"
    for command, text, flag in (("pingpong", oracle, "--oracle-len"), ("tree", expand, "--radius"), ("synthesize", budget, "--budget")):
        code, cert, _ = run(tmp_path, command, text, flag, "host_word_len=1" if flag == "--budget" else "2")
        assert code == 2 and cert is None
        assert re.search(r"in\.prob:\d+:\d+: ", capsys.readouterr().err)


def test_tree_expand_beyond_vertex_limit_fails_fast(tmp_path, capsys):
    # Z/3 * Z/3: the ball of radius 16 has 196606 vertices
    c3 = "0 1 2\n1 2 0\n2 0 1"
    header = f"format 1\n[amalgam]\nnames-a e a1 a2\ntable-a\n{c3}\nnames-b e b1 b2\ntable-b\n{c3}\ntable-h\n0\nembed-a 0\nembed-b 0\n"
    task = header + "[task]\nop tree\nsubop expand\nradius {}\n"
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "tree", task.format(16))
    assert code == 2 and cert is None
    assert "in.prob:20:8: a ball of radius 16 holds more than MAX_BALL_VERTICES = 10000 vertices" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "tree", task.format(2), "--radius", "16")
    assert code == 2 and cert is None
    assert time.perf_counter() - t0 < 1
    code, cert, _ = run(tmp_path, "tree", task.format(4))
    assert code == 0 and cert["result"]["count"] == 1 + 3 + 3 * 2 + 3 * 2 * 2 + 3 * 2 * 2 * 2


def test_readme_task_key_table_matches_the_cli():
    """The README's `[task]` key table lists exactly the keys that
    `cli.py` passes as string literals to `Problem.value` and `values`."""
    root = Path(__file__).resolve().parents[1]
    read = {
        node.args[0].value
        for node in ast.walk(ast.parse((root / "src" / "freecert" / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("value", "values")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | read by | default | limit |")
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :])
    listed = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert "element" in read and "budget" in read
    assert listed == read


def test_oracle_past_its_word_limit_fails_fast(tmp_path, capsys):
    # 4 elements at oracle-len 12 would store 8 * 7^5 = 134456 words
    players = "\n[task]\nop pingpong\nsubop oracle\noracle-len 12\nplayer a = a\nplayer b = b\nplayer c = a b\nplayer d = b a\n"
    words = mod_amalgam_header() + "\n[task]\nop tree\nsubop pingpong\noracle-len 12\n" + "word s t\nword t s\nword s u\nword u s\n"
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "pingpong", SANOV_HEADER + players)
    assert code == 2 and cert is None
    assert "in.prob:16:1: 4 elements at oracle-len 12 store 134456 words, over MAX_ORACLE_WORDS = 20000" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "pingpong", SANOV_HEADER + players.replace("oracle-len 12", "oracle-len 6"), "--oracle-len", "12")
    assert code == 2 and cert is None
    code, cert, _ = run(tmp_path, "tree", words)
    assert code == 2 and cert is None
    assert "in.prob:26:1: 4 elements" in capsys.readouterr().err
    # the host and 13 coset elements at the fixed length 6: 28 * 27^2 = 20412 words
    cosets = " | ".join(["a", "b", "a b", "b a", "a a", "b b", "a^-1", "b^-1", "a b^-1", "b a^-1", "a^-1 b", "b^-1 a", "a a b"])
    prodense = SANOV_HEADER + f"\n[task]\nop synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = {cosets}\n"
    code, cert, _ = run(tmp_path, "synthesize", prodense)
    assert code == 2 and cert is None
    assert "in.prob:13:1: 14 elements at oracle-len 6 store 20412 words" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "key, text, limit",
    [
        ("max-n", "format 1\nplace arch\n[matrix-group]\ngen g = [[0, -1], [1, 0]]\n[task]\nop analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\n", "1..64"),
        ("m-max", "format 1\nplace arch\n[matrix-group]\ngen g = [[9, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\n[task]\nop synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\n", "1..64"),
        ("k-max", "format 1\nplace arch\n[matrix-group]\ngen g = [[25, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\ngen s = [[1, -1], [1, 1]]\n[task]\nop synthesize\nsubop b1b2b3\nelement g\nb1 r\nb2 r\nb3 s\nattract ball [1, 0] 1/25\nrepel ball [0, 1] 1/25\n", "0..64"),
        ("word-len", "format 1\nplace arch\n[matrix-group]\ngen g = [[25, 0], [0, 1]]\ngen s = [[1, -1], [1, 1]]\n[task]\nop synthesize\nsubop very-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/25\n", "1..3"),
    ],
    ids=["max-n", "m-max", "k-max", "word-len"],
)
def test_integer_search_bound_beyond_limit_fails_fast(tmp_path, capsys, key, text, limit):
    command = text.split("\nop ")[1].split("\n")[0]
    line = text.count("\n") + 1
    t0 = time.perf_counter()
    for value in (100000, -1):
        code, cert, _ = run(tmp_path, command, text + f"{key} {value}\n")
        assert code == 2 and cert is None
        assert f"in.prob:{line}:{len(key) + 2}: {key} {value} is outside {limit}" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1
    # the top of the range is legal
    code, cert, _ = run(tmp_path, command, text + f"{key} {limit.split('..')[1]}\n")
    assert code in (0, 4) and cert is not None


def test_flag_the_command_does_not_read_is_an_input_error(tmp_path, capsys):
    profile = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    code, cert, _ = run(tmp_path, "analyze", profile, "--budget", "bogus=1", "--radius", "-5")
    assert code == 2 and cert is None
    assert "in.prob: --budget is not a flag of this analyze task" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", profile, "--oracle-len", "4")
    assert code == 2 and cert is None
    assert "--oracle-len is not a flag of this analyze task" in capsys.readouterr().err
    kernel = mod_amalgam_header() + "\n[task]\nop tree\nsubop kernel\n"
    for flag, value in (("--place", "p:5"), ("--radius", "2"), ("--budget", "power_max=1")):
        code, cert, _ = run(tmp_path, "tree", kernel, flag, value)
        assert code == 2 and cert is None
        assert f"{flag} is not a flag of this tree task" in capsys.readouterr().err
    # flags the command reads are accepted
    code, cert, _ = run(tmp_path, "analyze", profile, "--place", "p:5")
    assert code == 0 and cert["place"] == "p:5"


def test_unread_key_or_flag_is_refused_before_the_search(tmp_path, capsys):
    # a 3x3 Jordan block is never certified proximal: all 64 powers are
    # searched (seconds) unless the stray flag or key is refused first
    jordan = (
        "format 1\nplace arch\n[matrix-group]\ngen g = [[15, 13, 0], [0, 15, 13], [0, 0, 15]]\n"
        "[task]\nop analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\nmax-n 64\n"
    )
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "analyze", jordan, "--radius", "3")
    assert code == 2 and cert is None
    assert "in.prob: --radius is not a flag of this analyze task" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", jordan + "radius-sq 1/4\n")
    assert code == 2 and cert is None
    assert "in.prob:12:1: 'radius-sq' is not a key of this analyze task" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1


def test_dimension_beyond_limit_fails_fast(tmp_path, capsys):
    def gen(n: int) -> str:
        return "gen g = [" + ", ".join("[" + ", ".join("2" if i == j else "0" if j != i + 1 else "1" for j in range(n)) + "]" for i in range(n)) + "]\n"

    profile = "[task]\nop analyze\nsubop profile\nelement g\n"
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "analyze", "format 1\n[matrix-group]\ndim 17\n" + gen(17) + profile)
    assert code == 2 and cert is None
    assert "in.prob:3:5: dim 17 is outside 2..16" in capsys.readouterr().err
    code, cert, _ = run(tmp_path, "analyze", "format 1\n[matrix-group]\n" + gen(17) + profile)
    assert code == 2 and cert is None
    assert "in.prob:3:1: generator g is 17x17, over MAX_DIM = 16" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1
    # the top of the range is legal
    diag16 = "gen g = [" + ", ".join("[" + ", ".join(str(i + 1) if i == j else "0" for j in range(16)) + "]" for i in range(16)) + "]\n"
    code, cert, _ = run(tmp_path, "analyze", "format 1\n[matrix-group]\ndim 16\n" + diag16 + profile)
    assert code == 0 and len(cert["result"]["values_sq"]) == 16


def test_word_height_beyond_limit_fails_fast(tmp_path, capsys):
    # (a b)^32 has height 64 * 7 = 448 bits; its contraction certificate
    # would write numbers of over 4300 digits
    header = "format 1\nplace arch\n[matrix-group]\ndim 2\ngen a = [[99, 98], [1, 1]]\ngen b = [[1, 0], [99, 1]]\n"
    task = "[task]\nop analyze\nsubop contracting\nepsilon-sq 1/4\nelement {}\n"
    t0 = time.perf_counter()
    code, cert, _ = run(tmp_path, "analyze", header + task.format("a b " * 32))
    assert code == 2 and cert is None
    assert "in.prob:11:9: word of height 448 bits exceeds MAX_WORD_HEIGHT = 256" in capsys.readouterr().err
    # inverse letters count the height of the inverse matrix, [[1, -98], [-1, 99]]
    players = "[task]\nop pingpong\nsubop oracle\nplayer x = a\nplayer y = b^-19 a^-18\n"
    code, cert, _ = run(tmp_path, "pingpong", header + players)
    assert code == 2 and cert is None
    assert "in.prob:11:1: word of height 259 bits exceeds MAX_WORD_HEIGHT = 256" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1
    # within the limit the certificate is written
    code, cert, _ = run(tmp_path, "analyze", header + task.format("a b " * 18))
    assert code == 0 and cert["verdict"] == "yes"


def test_problem_file_beyond_size_limit_fails_fast(tmp_path, capsys):
    profile = MATRIX_HEADER + "\n[task]\nop analyze\nsubop profile\nelement a\n"
    pad = MAX_PROBLEM_BYTES - len(profile.encode())
    lines, rest = divmod(pad, 100)
    text = profile + ("#" * 99 + "\n") * lines + "#" * rest
    assert len(text.encode()) == MAX_PROBLEM_BYTES
    t0 = time.perf_counter()
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 0 and cert["verdict"] == "ok"
    out.unlink()
    code, cert, _ = run(tmp_path, "analyze", text + "#")
    assert code == 2 and cert is None
    # the first byte past the limit is at the end of the last line
    err = capsys.readouterr().err
    assert f"in.prob:{text.count(chr(10)) + 1}:{rest + 1}: problem file is longer than MAX_PROBLEM_BYTES = {MAX_PROBLEM_BYTES}" in err
    # a file far over the limit is read only to the limit (sparse, so no disk)
    huge = tmp_path / "huge.prob"
    with open(huge, "wb") as fh:
        fh.truncate(64 * MAX_PROBLEM_BYTES)
    assert main(["analyze", str(huge), "--out", str(tmp_path / "huge.cert")]) == 2
    assert not (tmp_path / "huge.cert").exists()
    assert "huge.prob:1:1048577: problem file is longer" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1


def test_number_too_long_to_write_names_its_field(tmp_path, capsys):
    # the word is short, but the power search multiplies its height: at
    # eps^2 = 10^-150 the certificate would need a number of over 4300 digits
    text = (
        "format 1\nplace arch\n[matrix-group]\ngen a = [[99, 98], [1, 1]]\n[task]\nop analyze\nsubop power-proximal\n"
        f"element a\nr-sq 1/4\nepsilon-sq 1/{10**150}\nmax-n 64\n"
    )
    t0 = time.perf_counter()
    code, cert, out = run(tmp_path, "analyze", text)
    assert code == 2 and cert is None and not out.exists()
    err = capsys.readouterr().err
    assert "in.prob: certificate field claims[3].enclosure.lipschitz_sq holds a number of about 63" in err
    assert "raise epsilon-sq or lower max-n" in err
    assert time.perf_counter() - t0 < 1


def test_problem_file_not_utf8_is_an_input_error(tmp_path, capsys):
    prob = tmp_path / "in.prob"
    prob.write_bytes(b"format 1\n\xff\xfe\n")
    assert main(["analyze", str(prob), "--out", str(tmp_path / "out.cert")]) == 2
    assert "in.prob: 'utf-8' codec can't decode byte 0xff in position 9" in capsys.readouterr().err
    assert not (tmp_path / "out.cert").exists()
