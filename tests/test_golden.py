"""Golden certificates: one problem per CLI subop, pinned by the sha256 of
the certificate bytes and the exit code.

`test_determinism_byte_identical` compares two runs of the same code; this
guards byte identity across changes to the code.  A deliberate change to
the certificate format updates these digests and says so.
"""

import hashlib

import pytest

from test_cli import MATRIX_HEADER, SANOV_HEADER, mod_amalgam_header, run, s3_amalgam_header

TASK = "\n[task]\n"

PROBLEMS = {
    "analyze-profile": ("analyze", MATRIX_HEADER + TASK + "op analyze\nsubop profile\nelement a b\n", []),
    # a repeated rational root: exact values_sq 9166361760000, 442050625, 442050625
    "analyze-profile-rational-roots": (
        "analyze",
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[1451025, 1201200, 900900], [1201200, 1030033, 756756], [900900, 756756, 588592]]\n"
        + TASK
        + "op analyze\nsubop profile\nelement g\n",
        [],
    ),
    "analyze-contracting": (
        "analyze",
        MATRIX_HEADER + TASK + "op analyze\nsubop contracting\nelement a\nepsilon-sq 1/4\n",
        [],
    ),
    "analyze-contracting-no": (
        "analyze",
        "format 1\nplace arch\n[matrix-group]\ngen e = [[1, 0], [0, 1]]\n"
        + TASK
        + "op analyze\nsubop contracting\nelement e\nepsilon-sq 1/4\n",
        [],
    ),
    "analyze-proximal": (
        "analyze",
        MATRIX_HEADER + TASK + "op analyze\nsubop proximal\nelement a\nepsilon-sq 1/25\nr-sq 1/4\n",
        [],
    ),
    "analyze-very-proximal": (
        "analyze",
        MATRIX_HEADER + TASK + "op analyze\nsubop very-proximal\nelement b\nepsilon-sq 1/25\nr-sq 1/4\n",
        [],
    ),
    "analyze-very-proximal-no": (
        "analyze",
        "format 1\nplace p:5\n[matrix-group]\n"
        "gen g = [[-18734, -29976, 0], [12490, 19985, 0], [39968, 59952, 1250]]\n"
        + TASK
        + "op analyze\nsubop very-proximal\nelement g\nepsilon-sq 1/25\nr-sq 1/4\n",
        [],
    ),
    "analyze-power-proximal": (
        "analyze",
        "format 1\nplace arch\n[matrix-group]\ngen g = [[2, 0], [0, 1]]\n"
        + TASK
        + "op analyze\nsubop power-proximal\nelement g\nr-sq 1/4\nepsilon-sq 1/64\nmax-n 20\n",
        [],
    ),
    "pingpong-tuple": (
        "pingpong",
        MATRIX_HEADER + TASK + "op pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n",
        [],
    ),
    # unknown: 14 of its 22 pairs are shown disjoint, and only those have claims
    "pingpong-tuple-unknown": (
        "pingpong",
        "format 1\nplace p:3\n[matrix-group]\n"
        "gen a = [[-9437, 2904], [-31460, 9681]]\ngen b = [[961, -240], [3520, -879]]\n"
        + TASK
        + "op pingpong\nsubop tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n",
        [],
    ),
    "pingpong-tuple-auto-sets": ("pingpong", MATRIX_HEADER + TASK + "op pingpong\nplayer g1 = a\nplayer g2 = b\n", []),
    "pingpong-simple-tuple": (
        "pingpong",
        MATRIX_HEADER + TASK + "op pingpong\nsubop simple-tuple\nplayer g1 = a\nplayer g2 = b\nradius-sq 1/10\n",
        [],
    ),
    "pingpong-refuted": (
        "pingpong",
        MATRIX_HEADER + TASK + "op pingpong\nplayer g1 = a\nplayer g2 = a\nradius-sq 1/10\n",
        [],
    ),
    "pingpong-oracle": (
        "pingpong",
        SANOV_HEADER + TASK + "op pingpong\nsubop oracle\nplayer a = a\nplayer b = b\noracle-len 6\n",
        [],
    ),
    "synthesize-truncated-prodense": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = a\n",
        ["--budget", "host_word_len=0"],
    ),
    # the whole pipeline: host, Step 1 nested once, both cosets, combined tuple, oracle
    "synthesize-truncated-prodense-full": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop truncated-prodense\nnormal N = a a\ncosets N = a | b\n",
        [],
    ),
    "synthesize-conjugate-contract": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\ngen g = [[9, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\n"
        + TASK
        + "op synthesize\nsubop conjugate-contract\nelement g\nx-element r\nepsilon-sq 1/100\nm-max 6\n",
        [],
    ),
    "synthesize-b1b2b3": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen r = [[0, -1], [1, 0]]\ngen s = [[1, -1], [1, 1]]\n"
        + TASK
        + "op synthesize\nsubop b1b2b3\nelement g\nb1 r\nb2 r\nb3 s\n"
        "attract ball [1, 0] 1/25\nrepel ball [0, 1] 1/25\nk-max 32\n",
        [],
    ),
    "synthesize-very-proximal": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\ngen g = [[25, 0], [0, 1]]\ngen s = [[1, -1], [1, 1]]\n"
        + TASK
        + "op synthesize\nsubop very-proximal\nelement g\nword-len 2\nr-sq 1/4\nepsilon-sq 1/25\n",
        [],
    ),
    "synthesize-normal-proximal": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop normal-proximal\nnormal N = a a\n",
        [],
    ),
    "synthesize-coset-pingpong": (
        "synthesize",
        SANOV_HEADER + TASK + "op synthesize\nsubop coset-pingpong\nnormal N = a a\ncosets N = b\n",
        [],
    ),
    "synthesize-double-coset": (
        "synthesize",
        "format 1\nplace arch\n[matrix-group]\n"
        "gen g = [[25, 0], [0, 1]]\ngen h = [[13, 12], [12, 13]]\ngen r = [[0, -1], [1, 0]]\n"
        + TASK
        + "op synthesize\nsubop double-coset\nh1 g\nh2 h\ncoset-rep r\n",
        [],
    ),
    "tree-normal-form": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop normal-form\nword s t s\n", []),
    "tree-classify": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop classify\nword s t\n", []),
    "tree-classify-elliptic": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop classify\nword s\n", []),
    "tree-expand": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop expand\nradius 3\n", []),
    "tree-pingpong": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop pingpong\nword s t s t\nword t s t s\n", []),
    "tree-pingpong-refuted": ("tree", mod_amalgam_header() + TASK + "op tree\nsubop pingpong\nword s t\nword t s\n", []),
    "tree-kernel": ("tree", s3_amalgam_header("a3") + TASK + "op tree\nsubop kernel\n", []),
}

GOLDEN = {
    "analyze-contracting": (0, "602541b0f4e288d22eb04d71606379c376bfb33374e8c3fcf3e4f9a2d4031a5a"),
    "analyze-contracting-no": (3, "f282d923a132263c6de6cb584bdb716e398cbed9d935c18e07e552e71c37100d"),
    "analyze-power-proximal": (0, "eb3d4974b585e45d74ac4cbdc5fda8cd38be8dee0e8d48180e455556872d19c9"),
    "analyze-profile": (0, "ec53f7d9758073b2a6371caafa840586f4d6b48743eb0965896438535ec7705b"),
    "analyze-profile-rational-roots": (0, "eaef907bf180c90647aae1a22f3a172d7ad886053f0508bdbca479eff23d78d3"),
    "analyze-proximal": (0, "3d958408f3d9a0320790643ae1b9dbaa2851cae77266dbc35a0c0f77209b9afe"),
    "analyze-very-proximal": (0, "578259dd09989a6a2cfbca6cf15ae4a2ba897988f2da42c417d236fbe10bdb9e"),
    "analyze-very-proximal-no": (3, "f2fa0f75012c77265e37a906f8d7e947c52e7b2755558c521423cb56c5da0201"),
    "pingpong-oracle": (0, "7f030b22342bf9e59f1f0bb98cd85fb6110996983f7b51217ab30de3fc4242c2"),
    "pingpong-refuted": (3, "84975d67e92981c3b25cbdba9fd03774d6beb11a22c74a20d757f0291b68d4d6"),
    "pingpong-simple-tuple": (0, "8dbb8516743711e56ddf2647f6039bcc4fb5b79c59e00d377164ebaf859d38d1"),
    "pingpong-tuple": (0, "3d8e9f2666dd430e1b7905c2978091fe001f4e1cb617f969bf92a252837d3b9c"),
    "pingpong-tuple-unknown": (4, "be206a6b766698bc7c90fd45ec057e63fd7c82c5208ca3885dd08cfe90297d29"),
    "pingpong-tuple-auto-sets": (0, "5bd32f2105d456670d6dde1baeb8fe3c67ea634d9719a37dc0adf643378f619b"),
    "synthesize-b1b2b3": (0, "2c11c50d042b46d750231263b18f0fe90025d3d2b24339c6bb16b862b5a1395e"),
    "synthesize-conjugate-contract": (0, "367e225e052b2817361ef1bc3d7b177f6445fd1b8187f56f18806e887d11ea4e"),
    "synthesize-coset-pingpong": (0, "5f27656806f1fdc253e6f2c55d631f6fd9fd8e243edaf18cbd555b83f859cf11"),
    "synthesize-double-coset": (0, "a559158d1bc4c7d922567c0b53fa33d1dca9d9786b30de89d6e2956973bf0ead"),
    "synthesize-normal-proximal": (0, "a7e503e06c39732bfe45e5f8df9cbab8a74f7f59ed39bd59f53c54e8f3d6d248"),
    "synthesize-truncated-prodense": (4, "c5075b848e48789dce0fabcc2c66df302a230c99e1f44bfd55d7d6f52201ab12"),
    "synthesize-truncated-prodense-full": (0, "e41c0a1a054d714c080859558e165e32a3023f27da098742f769c16d2f36ff22"),
    "synthesize-very-proximal": (0, "6669ff37ea64e5c3da4c5bcd739ab005c992bf1d8e219f97f3e9090837150038"),
    "tree-classify": (0, "1a499541218bf0894d285713654943af6779b8c68af689f88d512dad530d08a8"),
    "tree-classify-elliptic": (0, "f14d6fb2314251e633a717959cda11787e05c90e78f4af697942049083808427"),
    "tree-expand": (0, "08958e4a33ad1163275db7d8c8e41460e2e110c2c69b75593dbe08eef5730db6"),
    "tree-kernel": (0, "d932b6f9075b2d77029c6ab5cd1d522083c508a901cd7e9bb33c51be80317aa7"),
    "tree-normal-form": (0, "ccfe8eb97e01fe387f72082fd040d8323feff14200eb932945bef49c6baa0f94"),
    "tree-pingpong": (0, "f55a38e4512c98f2750afea61c70cec00c3b7727b1ed11507703c0d25527a838"),
    "tree-pingpong-refuted": (3, "45e44f9dacaf6c73bb5adcb4be98acfa2f21bfd031b036a1b3c8e77e8eac3c6d"),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_golden_certificate(tmp_path, name):
    command, text, extra = PROBLEMS[name]
    code, _, out = run(tmp_path, command, text, *extra)
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == GOLDEN[name]


def test_golden_profile_of_a_repeated_rational_root(tmp_path):
    """charpoly(g^T g) of this g has the rational roots 9166361760000 and
    442050625 (double), whose numerators a rational root test by trial
    division could not factor cheaply; the profile gives them exactly."""
    command, text, extra = PROBLEMS["analyze-profile-rational-roots"]
    code, data, _ = run(tmp_path, command, text, *extra)
    values = ["9166361760000", "442050625", "442050625"]
    assert (code, data["result"]) == (0, {"exact": True, "values_sq": [{"hi": v, "lo": v} for v in values]})
