"""Golden certificates: one problem per CLI subop, pinned by the sha256 of
the certificate bytes and the exit code.

`test_determinism_byte_identical` compares two runs of the same code; this
guards byte identity across changes to the code.  A deliberate change to
the certificate format updates these digests and says so.
"""

import hashlib
import json

import pytest

from freecert.certfmt import FORMAT
from freecert.cli import main

from test_cli import MATRIX_HEADER, SANOV_HEADER, mod_amalgam_header, run, s3_amalgam_header

TASK = "\n[task]\n"

PROBLEMS = {
    "analyze-profile": ("analyze", MATRIX_HEADER + TASK + "op analyze\nsubop profile\nelement a b\n"),
    # a repeated rational root: exact values_sq 9166361760000, 442050625, 442050625
    "analyze-profile-rational-roots": (
        "analyze",
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[1451025, 1201200, 900900], [1201200, 1030033, 756756], [900900, 756756, 588592]]\n"
        + TASK
        + "op analyze\nsubop profile\nelement g\n",
    ),
    "analyze-contracting": (
        "analyze",
        MATRIX_HEADER + TASK + "op analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n",
    ),
    "analyze-contracting-no": (
        "analyze",
        "format 1\nplace arch\n[matrix-group]\ngen e = [[1, 0], [0, 1]]\n"
        + TASK
        + "op analyze\nsubop contracting\nelement e\nepsilon-sq 1/4\n",
    ),
    "analyze-proximal": (
        "analyze",
        MATRIX_HEADER + TASK + "op analyze\nsubop proximal\nelement a\nepsilon-sq 1/25\nr-sq 1/4\n",
    ),
    "analyze-very-proximal": (
        "analyze",
        MATRIX_HEADER + TASK + "op analyze\nsubop very-proximal\nelement b\nepsilon-sq 1/25\nr-sq 1/4\n",
    ),
    "analyze-very-proximal-no": (
        "analyze",
        "format 1\nplace p:5\n[matrix-group]\n"
        "gen g = [[-18734, -29976, 0], [12490, 19985, 0], [39968, 59952, 1250]]\n"
        + TASK
        + "op analyze\nsubop very-proximal\nelement g\nepsilon-sq 1/25\nr-sq 1/4\n",
    ),
    "analyze-power-proximal": (
        "analyze",
        "format 1\nplace arch\n[matrix-group]\ngen g = [[2, 0], [0, 1]]\n"
        + TASK
        + "op analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\nmax-n 20\n",
    ),
    "pingpong-tuple": (
        "pingpong",
        MATRIX_HEADER + TASK + "op pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n",
    ),
    # unknown: 14 of its 22 pairs are shown disjoint, and only those have claims
    "pingpong-tuple-unknown": (
        "pingpong",
        "format 1\nplace p:3\n[matrix-group]\n"
        "gen a = [[-9437, 2904], [-31460, 9681]]\ngen b = [[961, -240], [3520, -879]]\n"
        + TASK
        + "op pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n",
    ),
    "pingpong-tuple-auto-sets": ("pingpong", MATRIX_HEADER + TASK + "op pingpong\nplayer g1 = a\nplayer g2 = b\n"),
    "pingpong-simple-tuple": (
        "pingpong",
        MATRIX_HEADER + TASK + "op pingpong\nsubop simple-tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n",
    ),
    "pingpong-refuted": (
        "pingpong",
        MATRIX_HEADER + TASK + "op pingpong\nplayer g1 = a\nplayer g2 = a\nradius-sq 1/10\n",
    ),
    "pingpong-oracle": (
        "pingpong",
        SANOV_HEADER + TASK + "op pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 6\n",
    ),
    "synthesize-truncated-prodense": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = a\nbudget host_word_len=0\n",
    ),
    # the whole pipeline: host, Step 1 nested once, both cosets, combined tuple, oracle
    "synthesize-truncated-prodense-full": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = a | b\n",
    ),
    "synthesize-conjugate-contract": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\ngen g = [[9, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\n"
        + TASK
        + "op synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 6\n",
    ),
    "synthesize-b1b2b3": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\ngen s = [[1, -1], [1, 1]]\n"
        + TASK
        + "op synthesize\nsubop b1b2b3\nelement g\nb1 r\nb2 r\nb3 s\n"
        "attract ball [1, 0] 1/25\nrepel ball [0, 1] 1/25\nk-max 32\n",
    ),
    "synthesize-very-proximal": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\ngen g = [[25, 0], [0, 1]]\ngen s = [[1, -1], [1, 1]]\n"
        + TASK
        + "op synthesize\nsubop very-proximal\nelement g\nword-len 2\nr-sq 1/4\nepsilon-sq 1/25\n",
    ),
    "synthesize-normal-proximal": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop normal-proximal\nnormal N = a a\n",
    ),
    "synthesize-coset-pingpong": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop coset-pingpong\nnormal N = a a\ncosets N = b\n",
    ),
    "synthesize-double-coset": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen h = [[13, 12], [12, 13]]\ngen r = [[0, -1], [1, 0]]\n"
        + TASK
        + "op synthesize\nsubop double-coset\nh1 g\nh2 h\ncoset-rep r\n",
    ),
    "tree-normal-form": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop normal-form\nword s t s\n"),
    "tree-classify": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop classify\nword s t\n"),
    "tree-classify-elliptic": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop classify\nword s\n"),
    "tree-expand": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop expand\nradius 3\n"),
    "tree-pingpong": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop pingpong\nword s t s t\nword t s t s\n"),
    "tree-pingpong-refuted": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop pingpong\nword s t\nword t s\n"),
    "tree-kernel": ("tree", s3_amalgam_header("a3") + TASK + "op tree\nsubop kernel\n"),
}

GOLDEN = {
    "analyze-contracting": (0, "a757a0048e9f8ec4092b61e2b4950376cd0125688b2ca8a23c38109574a0f0c6"),
    "analyze-contracting-no": (3, "fa80a9f3af7d3ad6c22cdcbb38d5b9a9fd120f89200a36c4df0108a8b9b231c0"),
    "analyze-power-proximal": (0, "ede9ea07553c24341430e0da85096bf8432d1926bb12475109b5f317ed1162e7"),
    "analyze-profile": (0, "480a60c20eadcbbc095b64091cccc6fd9f3dcba3264a2bc6ba4fb635d36c5c7a"),
    "analyze-profile-rational-roots": (0, "e7e8b50678e494e60aaeedba2891a85e226e1c034f48d88f377c622241cbfcaa"),
    "analyze-proximal": (0, "43c76a2bfe2d2bd1839aabab6a54a014d84341c4d3368c754b403bf80608db1c"),
    "analyze-very-proximal": (0, "73fa2c2b150c29a43922a622a66d1ef21f9c72b3c9efe614f34f30db409e8125"),
    "analyze-very-proximal-no": (3, "fc412f60a5ca604813390e9244cac3953b5ca35eeea0535d0dfacccc2a9c5528"),
    "pingpong-oracle": (0, "598ee78b070d0ee6e64eae467ce741d2a5e359b491932f098a14c05bbf08b06b"),
    "pingpong-refuted": (3, "6a66ab854dba9ed9a63544f7b636b7140163febacb88cf1e80503196fc804683"),
    "pingpong-simple-tuple": (0, "6ccf440032bd2c2acf57ed4b8791df36c48cf2ec1ba7bf521ea69045d944f4f2"),
    "pingpong-tuple": (0, "ddcedc098500b11e1fb8fa976b2e73135b5aeedcd0a067fd57dbd687aa0cfdb5"),
    "pingpong-tuple-unknown": (4, "7f6f53d092df0bf97756c5406cb05efe02eb1f422d496329c704f7484db1b4b1"),
    "pingpong-tuple-auto-sets": (0, "8ae51ac458fe291b64ab28640325275763ac5b2089fe40b86b3b06492bf1e2b7"),
    "synthesize-b1b2b3": (0, "0be11f1b86e10e6d3a20848e3b29845e204c7bbd8b5114b6a1181f6279faade3"),
    "synthesize-conjugate-contract": (0, "fab279175649645ed888cc2d973b22095e9555f3086869f75778478c88a42954"),
    "synthesize-coset-pingpong": (0, "52cb526abad7fefabec51c394fe8c9394b0f6b435c6a2685aa60944ea9e60031"),
    "synthesize-double-coset": (0, "4fd103fa2b8c7ff0779d0e5b210bab3ce539ae130b040f7b1a3717deb6051cce"),
    "synthesize-normal-proximal": (0, "8d09ac640d883b77a8b4df1b3e504aa5a23e2dac98de576ca10470b3c0c1869e"),
    "synthesize-truncated-prodense": (4, "42b64291e4b93216fe7dad727df575a17ddcae17405560d9d7bd536791f77ab1"),
    "synthesize-truncated-prodense-full": (0, "b38ed5e169cd9329b060b20611f6236466df39e26cfa1dafd357920e15ea2864"),
    "synthesize-very-proximal": (0, "6bccf3988e123444dbec56cea1bed86d4a6586eaf1638b259dbeec7cbd82ae03"),
    "tree-classify": (0, "7ab82bd1fd11402836c0affa495af1c9eb21e48af82703da97207b2ee883c2e2"),
    "tree-classify-elliptic": (0, "2c9d548b6db597004f3a4fd567790e110e3bdde87c1b7e4366998a43b46e6896"),
    "tree-expand": (0, "d6271cce604994e63290500bc819e9ea6ed6b49559ec87291f529a8dfb0f0870"),
    "tree-kernel": (0, "e32c882373a8a31b7d8373c576d7dadf157ed6ebab61fc71ea23a457f9d1e8c6"),
    "tree-normal-form": (0, "02a632bfd34dc032437876eb00a6d9e2b581d6ebf2e69862ee22f8268e441e50"),
    "tree-pingpong": (0, "1cb543498d3768cd2b86335fd561c0b0f291916a177978345df5cb39c219ff66"),
    "tree-pingpong-refuted": (3, "c09a4c19370c11f3f0a281c7670401b1828aabdaedc2b7e30719f9288128b3ab"),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_golden_certificate(tmp_path, name):
    command, text = PROBLEMS[name]
    code, _, out = run(tmp_path, command, text)
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == GOLDEN[name]


def test_golden_profile_of_a_repeated_rational_root(tmp_path):
    """charpoly(g^T g) of this g has the rational roots 9166361760000 and
    442050625 (double), whose numerators a rational root test by trial
    division could not factor cheaply; the profile gives them exactly."""
    command, text = PROBLEMS["analyze-profile-rational-roots"]
    code, data, _ = run(tmp_path, command, text)
    values = ["9166361760000", "442050625", "442050625"]
    assert (code, data["result"]) == (0, {"exact": True, "values_sq": [{"hi": v, "lo": v} for v in values]})


def _verify_edited(tmp_path, capsys, name: str, edit) -> tuple[int, str]:
    """verify's exit code and stderr on the golden `name`'s text after `edit`."""
    command, text = PROBLEMS[name]
    _, _, out = run(tmp_path, command, text)
    edited = edit(out.read_text())
    assert edited != out.read_text()
    out.write_text(edited)
    capsys.readouterr()
    return main(["verify", str(out)]), capsys.readouterr().err


def _reindented(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "name, edit",
    [
        ("analyze-contracting", _reindented),
        ("tree-expand", _reindented),
        ("tree-expand", lambda t: t.replace('"radius":3', '"radius":3.0')),
        ("tree-expand", lambda t: t.replace('"names_a":["e","s"]', '"names_a":["e","\\u0073"]')),
        ("tree-expand", lambda t: t.replace('{"backend":"amalgam",', '{"backend":"amalgam","backend":"amalgam",')),
    ],
    ids=["reindented", "reindented-expand", "float", "escaped-letter", "repeated-key"],
)
def test_verify_refuses_a_text_that_is_not_canonical(tmp_path, capsys, name, edit):
    # each edit keeps the value as `json.loads` reads it (3.0 equals 3)
    code, err = _verify_edited(tmp_path, capsys, name, edit)
    assert code == 3
    assert "verify: certificate text is not the canonical text of its JSON" in err


@pytest.mark.parametrize(
    "old, new",
    [
        ('"1/6561"', '"2/13122"'),
        ('"matrix":[["81"', '"matrix":[["81/1"'),
        ('"attract":["1"', '"attract":["+1"'),
        ('"attract":["1"', '"attract":[" 1"'),
        ('"attract_err_sq":"0"', '"attract_err_sq":"-0"'),
    ],
    ids=["unreduced", "over-one", "plus-sign", "space", "minus-zero"],
)
def test_verify_refuses_a_rational_certificates_do_not_write(tmp_path, capsys, old, new):
    # the same number in another text, in a claim and the result alike, so
    # the claim's own check is what fails
    code, err = _verify_edited(tmp_path, capsys, "analyze-contracting", lambda t: t.replace(old, new))
    assert code == 3
    assert "is not written as certificates write" in err and "canonical" not in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("[1,1,2]", "[1,2,2]"),
        ("[1,1,2]", "[1,1,3]"),
        (',[6,1]],"count":11', '],"count":10'),
    ],
    ids=["edited-row", "wrong-degree", "row-dropped-count-fixed"],
)
def test_verify_refuses_a_ball_that_is_not_the_tasks(tmp_path, capsys, old, new):
    code, err = _verify_edited(tmp_path, capsys, "tree-expand", lambda t: t.replace(old, new))
    assert code == 3
    assert "verify: verdict 'ok' of tree expand: result ball is not the ball of the task's radius" in err


def test_verify_refuses_the_first_certificate_format(tmp_path, capsys):
    code, err = _verify_edited(tmp_path, capsys, "tree-expand", lambda t: t.replace(FORMAT, "freecert-certificate/1"))
    assert code == 2
    assert "verify: missing or unsupported certificate format marker" in err
