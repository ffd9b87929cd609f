"""Mutants of the golden certificates that `verify` still accepts.

    python3 tools/mutcensus.py [NAME ...]

Builds the certificate of each golden problem of `tests/test_golden.py`
(or of each NAME among them) with `freecert.cli.main` and mutates each
leaf of its `result` and `claims` once, except a claim's `note`:

- an int becomes its successor and a bool its negation;
- a rational, a string `certfmt.pair_from` reads as n/d, becomes the
  text of (2n + 1)/(2d), a nearby canonical rational;
- any other string gains an "x", and null becomes 0.

Each mutant is written as `certfmt.dumps` writes it and verified in
process through `certfmt.verify_text`, as `freecert verify` reads a
file. A mutant survives when `verify` passes it.

Prints each survivor as `NAME PATH: REASON`, PATH the leaf's dotted path
(`claims.3.cert.image_radius_sq`), REASON that of the first entry of
`SURVIVORS` whose golden and path pattern match it, then each golden's
survivors of its mutants, and the totals. A survivor no entry matches
is printed with the reason UNLISTED, and an entry for a census golden
that matches no survivor as UNUSED; either makes the exit code 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from freecert.certfmt import VerifyError, dumps, pair_from, verify_text  # noqa: E402
from freecert.cli import main as cli_main  # noqa: E402
from test_golden import PROBLEMS  # noqa: E402

_TUPLES = ("pingpong-tuple", "pingpong-tuple-auto-sets", "pingpong-simple-tuple")
_UNKNOWN = "unknown: an Unknown verdict needs no claim"
_REFUTED = "item 2: a refuted tuple states its overlap"
_ECHO = "hole 2: a no-relation oracle claim is echoed"
_PAIR = "hole 4: an archimedean refuted pair is not re-derived"
_STATED = "hole 1: a stated result field"

#: (goldens, path pattern, reason) of every survivor the census expects,
#: the path matched with `fnmatch`.  A reason is `unknown`, `slack` (a
#: bound that still holds, so the mutant is still a proof), or the ROADMAP
#: item or README hole that would close it.
SURVIVORS = (
    (("pingpong-tuple-unknown", "synthesize-truncated-prodense"), "*", _UNKNOWN),
    (("pingpong-refuted", "tree-pingpong-refuted"), "*", _REFUTED),
    (("analyze-profile", "analyze-profile-rational-roots"), "result.*", "item 3: a profile states its values"),
    (("pingpong-oracle",), "*", _ECHO),
    (_TUPLES, "claims.44.word", _ECHO),
    (("tree-pingpong",), "claims.26.word", _ECHO),
    (("synthesize-truncated-prodense-full",), "claims.36.word", _ECHO),
    (("analyze-contracting-no",), "claims.1.attract.*", _PAIR),
    (("analyze-contracting-no",), "claims.1.repel.*", _PAIR),
    (("synthesize-b1b2b3",), "result.k", _STATED),
    (("synthesize-conjugate-contract",), "result.m", _STATED),
    (("synthesize-coset-pingpong",), "result.a_N", _STATED),
    (("synthesize-coset-pingpong",), "result.deltas.*.power", _STATED),
    (("synthesize-double-coset",), "result.wrapped.*", _STATED),
    (("synthesize-truncated-prodense-full",), "result.*", _STATED),
    (("tree-classify",), "result.axis_edge.*", _STATED),
    (("tree-classify-elliptic",), "result.fixed_vertex.*", _STATED),
    (
        (*_TUPLES, "synthesize-truncated-prodense-full", "synthesize-coset-pingpong", "synthesize-double-coset"),
        "claims.*.cert.image_radius_sq",
        "slack: a larger image radius, still at most eps^2",
    ),
    (_TUPLES, "claims.*.enclosure.center.*", "slack: another centre whose ball still maps into itself"),
    (("synthesize-truncated-prodense-full", "synthesize-coset-pingpong"), "claims.*.r_sq", "slack: a larger r^2, still far"),
    (("synthesize-double-coset",), "claims.1.cert.epsilon_sq", "slack: a larger eps^2, still met"),
)


def leaves(node, path: tuple = ()):
    """(path, value) of each leaf under `node`, but a claim's `note`."""
    if isinstance(node, dict):
        for key, value in node.items():
            if not (len(path) == 2 and path[0] == "claims" and key == "note"):
                yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path, node


def mutated(value):
    """The one mutation of a leaf value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 0
    try:
        n, d = pair_from(value)
    except ValueError:
        return value + "x"
    return str(Fraction(2 * n + 1, 2 * d))


def with_leaf(node, path: tuple, value):
    """A copy of `node` with the leaf at `path` replaced by `value`."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: with_leaf(node[head], rest, value)}
    return [with_leaf(v, rest, value) if i == head else v for i, v in enumerate(node)]


def survives(cert: dict) -> bool:
    try:
        return not verify_text(dumps(cert))[1]
    except VerifyError:
        return False


def golden_certificates(names) -> dict:
    """The certificate of each named golden problem, as `cli.main` writes it."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or PROBLEMS:
            command, text = PROBLEMS[name]
            prob, cert = Path(tmp) / "in.prob", Path(tmp) / "out.cert"
            prob.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli_main([command, str(prob), "--out", str(cert)])
            out[name] = json.loads(cert.read_text())
    return out


def entry_of(name: str, path: str) -> tuple | None:
    """The first entry of SURVIVORS that names the golden and matches the path."""
    return next((e for e in SURVIVORS if name in e[0] and fnmatchcase(path, e[1])), None)


def census(names=()) -> dict:
    """{golden: (its mutants, its survivors' paths)}."""
    out = {}
    for name, cert in golden_certificates(names).items():
        found = []
        paths = list(leaves({"result": cert["result"], "claims": cert["claims"]}))
        for path, value in paths:
            if survives(with_leaf(cert, path, mutated(value))):
                found.append(".".join(map(str, path)))
        out[name] = (len(paths), found)
    return out


def unlisted(counts: dict) -> list[tuple[str, str]]:
    """(golden, path) of each survivor no entry of SURVIVORS matches."""
    return [(name, path) for name, (_, found) in counts.items() for path in found if entry_of(name, path) is None]


def unused(counts: dict) -> list[tuple[str, str, str]]:
    """(golden, path pattern, reason) of each entry of SURVIVORS that
    names a census golden of which no survivor matches it."""
    used = {(name, entry_of(name, path)) for name, (_, found) in counts.items() for path in found}
    return [(name, e[1], e[2]) for e in SURVIVORS for name in e[0] if name in counts and (name, e) not in used]


def main(argv: list[str]) -> int:
    counts = census(argv)
    for name, (_, found) in counts.items():
        for path in found:
            entry = entry_of(name, path)
            print(f"{name} {path}: {entry[2] if entry else 'UNLISTED'}")
    for name, (mutants, found) in counts.items():
        print(f"{name}: {len(found)} of {mutants} mutants survive")
    print(f"{sum(len(f) for _, f in counts.values())} of {sum(m for m, _ in counts.values())} mutants survive")
    missing = unused(counts)
    for name, pattern, reason in missing:
        print(f"UNUSED {name} {pattern}: {reason}")
    return int(bool(unlisted(counts) or missing))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
