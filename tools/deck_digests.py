"""Byte-identity check over the benchmark deck.

    python3 tools/deck_digests.py --src DIR --out FILE
    python3 tools/deck_digests.py --src DIR --against FILE

Builds the seed-1000 deck of a 25 s `perfbench/run.py` run of every
workload (matrix-small 20 rounds, highdim 5, prodense 1, tree 192: 1446
requests) from `perfbench/workloads.py`, and feeds each request to the
freecert sources under DIR the way `run.py` does: through `freecert.cli.main`,
with every freecert `lru_cache` cleared first.  FILE gets one line per
request: its label, the solve exit code, the sha256 of the certificate
bytes and the exit code of `verify` on it ("-" where no certificate was
written).

Two source trees give identical FILEs exactly when they give the same
exit codes and certificate bytes on the whole deck, so diffing the file
of a parent commit against that of a change is the byte-identity check.
--against FILE makes that diff: it compares the run with a saved FILE,
prints the label of the first request that differs, and exits 1 on any
difference (0 when every line is identical).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import find_caches, load_freecert  # noqa: E402
from workloads import GENERATORS  # noqa: E402

SEED = 1000
ROUNDS = {"matrix-small": 20, "highdim": 5, "prodense": 1, "tree": 192}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="freecert source tree (default: ./src)")
    ap.add_argument("--out", type=Path, help="digest file to write")
    ap.add_argument("--against", type=Path, help="saved digest file to compare the run with")
    args = ap.parse_args(argv)
    if args.out is None and args.against is None:
        ap.error("give --out, --against or both")
    cli_main = load_freecert(args.src.resolve())
    caches = find_caches()

    def call(argv: list[str]):
        for c in caches:
            c.cache_clear()
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli_main(argv)
            except Exception as e:  # a crash is recorded, not fatal
                return f"crash:{type(e).__name__}"

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        prob, cert = Path(tmp) / "r.prob", Path(tmp) / "r.cert"
        for workload, n_rounds in ROUNDS.items():
            for rnd in GENERATORS[workload](SEED, n_rounds):
                for req in rnd:
                    prob.write_text(req.text, encoding="utf-8")
                    cert.unlink(missing_ok=True)
                    code = call([req.cmd, str(prob), "--out", str(cert)])
                    digest, vcode = "-", "-"
                    if cert.exists():
                        digest = hashlib.sha256(cert.read_bytes()).hexdigest()
                        vcode = call(["verify", str(cert)])
                    lines.append(f"{workload} {len(lines):04d} {req.label} {code} {digest} {vcode}\n")
    if args.out is not None:
        args.out.write_text("".join(lines), encoding="utf-8")
        print(f"{len(lines)} requests -> {args.out}", file=sys.stderr)
    if args.against is None:
        return 0
    saved = args.against.read_text(encoding="utf-8").splitlines(keepends=True)
    diff = next((i for i, (a, b) in enumerate(zip(lines, saved)) if a != b), None)
    if diff is None and len(lines) == len(saved):
        print(f"{len(lines)} requests identical to {args.against}", file=sys.stderr)
        return 0
    if diff is None:
        print(f"{len(lines)} requests, {len(saved)} in {args.against}: the shorter one ends first", file=sys.stderr)
    else:
        print(f"first difference: {' '.join(lines[diff].split()[:3])}", file=sys.stderr)
        print(f"  run:   {lines[diff].rstrip()}\n  saved: {saved[diff].rstrip()}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
