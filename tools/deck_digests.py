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
written).  stderr gets the deck's split of solve and verify exit codes,
each workload's summed in-process solve and verify seconds, followed by
those of each of its strata (the requests of one label) and by each
freecert `lru_cache`'s hits and calls summed over the workload's
requests (read after each call, before the next one clears them), and
the total bytes of its certificates.

Each call is timed by `perfbench/speed.py`'s `SpeedClock`, as `run.py`
times its requests: its wall time scaled to the reference speed.  On a
shared 2-core box the raw `perf_counter` totals of one unchanged source
tree varied by 1.5x between runs, as the machine's speed moved; the
scaled seconds of two trees compare like with like.

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
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import find_caches, load_freecert  # noqa: E402
from speed import SpeedClock  # noqa: E402
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

    seconds = defaultdict(lambda: [0.0, 0.0])  # (workload, label) -> summed solve and verify seconds at the reference speed
    memos = {f"{c.__module__.removeprefix('freecert.')}.{c.__qualname__}": c for c in caches}
    traffic = defaultdict(lambda: [0, 0])  # (workload, memo) -> summed hits and calls

    def invoke(argv: list[str]):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli_main(argv)
            except Exception as e:  # a crash is recorded, not fatal
                return f"crash:{type(e).__name__}"

    def call(argv: list[str], workload: str, times: list[float], kind: int):
        for c in caches:
            c.cache_clear()
        code, seconds_at_reference = clock.timed(invoke, argv)
        times[kind] += seconds_at_reference
        for name, c in memos.items():
            info, row = c.cache_info(), traffic[workload, name]
            row[0] += info.hits
            row[1] += info.hits + info.misses
        return code

    lines, total_bytes = [], 0
    with tempfile.TemporaryDirectory() as tmp, SpeedClock() as clock:
        prob, cert = Path(tmp) / "r.prob", Path(tmp) / "r.cert"
        for workload, n_rounds in ROUNDS.items():
            for rnd in GENERATORS[workload](SEED, n_rounds):
                for req in rnd:
                    prob.write_text(req.text, encoding="utf-8")
                    cert.unlink(missing_ok=True)
                    times = seconds[workload, req.label]
                    code = call([req.cmd, str(prob), "--out", str(cert)], workload, times, 0)
                    digest, vcode = "-", "-"
                    if cert.exists():
                        data = cert.read_bytes()
                        digest, total_bytes = hashlib.sha256(data).hexdigest(), total_bytes + len(data)
                        vcode = call(["verify", str(cert)], workload, times, 1)
                    lines.append(f"{workload} {len(lines):04d} {req.label} {code} {digest} {vcode}\n")
    for column, name in ((3, "solve"), (5, "verify")):
        split = Counter(line.split()[column] for line in lines)
        print(f"{name} exit codes: " + ", ".join(f"{code} x{n}" for code, n in sorted(split.items())), file=sys.stderr)
    for workload in ROUNDS:
        strata = {label: times for (w, label), times in seconds.items() if w == workload}
        rows = [(workload, *map(sum, zip(*strata.values())))] + [(f"  {label}", *times) for label, times in strata.items()]
        for name, solve, verify in rows:
            print(f"{name}: solve {solve:.3f} s, verify {verify:.3f} s", file=sys.stderr)
        for name in sorted(memos):
            hits, calls = traffic[workload, name]
            print(f"  memo {name}: {hits} hits of {calls} calls", file=sys.stderr)
    print(f"certificate bytes: {total_bytes}", file=sys.stderr)
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
