"""freecert benchmark: one workload run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's problem files from the seed, then feeds them to
the public entry point `freecert.cli.main` one at a time, as a CLI user
who waits for each certificate before asking for the next.  Every
certificate also goes through `main(["verify", ...])`.  Before each call
every `functools.lru_cache` in the freecert modules is cleared, so each
request sees the cold state of a fresh `freecert` process.

--trace 0 runs a deck whose size depends on S alone, never on how fast
the code runs, so that two versions given the same seed and S run the
same inputs, and reports the end-to-end metrics.  --trace 1 runs a fixed
prefix of the deck once with every layer wrapped (see tracer.py), then
once more untraced, and reports the per-layer metrics and the tracing
overhead.
The last stdout line is the JSON result; notes go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import checks
from speed import SpeedClock, timed_child
from workloads import GENERATORS, TREE_ROUNDS

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 11
# A --trace 0 run does one unit of rounds per UNIT_S seconds of --seconds,
# at least one unit.  At --seconds 25 that is 20 rounds of matrix-small
# (320 requests), 5 of highdim (150), 1 of prodense (16) and 192 of tree
# (960): about 25 s of requests each at the seed commit on the box of
# baseline.json.  A tree unit is TREE_ROUNDS rounds, over which its word
# lengths and radii are spread evenly.  highdim gets 5 rounds, not 4, so
# that its solve p90 lies inside a dense group of requests rather than at
# the edge of its slow group, whose size varies by seed (see README).
UNIT_ROUNDS = {"matrix-small": 1, "highdim": 1, "prodense": 1, "tree": TREE_ROUNDS}
UNIT_S = {"matrix-small": 1.25, "highdim": 5.0, "prodense": 25.0, "tree": 12.5}
# Rounds a traced run covers: a fixed prefix of the deck, so that one seed
# traces the same requests and its counts repeat exactly.
TRACE_ROUNDS = {"matrix-small": 12, "highdim": 3, "prodense": 1, "tree": 24}
# One in REPEAT_EVERY requests, at least one, is run again for byte identity.
REPEAT_EVERY = 20
SOLVE_CODES = (0, 3, 4)  # a certificate was written


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(GENERATORS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="freecert source tree to measure (default: ./src)")
    return ap.parse_args(argv)


def measure_setup(src: Path) -> float:
    """Median time of a fresh interpreter running `import freecert.cli`,
    scaled to the reference speed by the interpreter's own samples."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import freecert.cli"], env=env, cwd=ROOT, check=True)  # writes bytecode once
    return statistics.median(
        timed_child([sys.executable], "import freecert.cli", env=env, cwd=ROOT) for _ in range(SETUP_REPEATS)
    )


def load_freecert(src: Path):
    sys.path.insert(0, str(src))
    import freecert
    import freecert.cli

    if Path(freecert.__file__).resolve().parent != (src / "freecert").resolve():
        raise RuntimeError(f"imported freecert from {freecert.__file__}, not from {src}")
    return freecert.cli.main


def find_caches() -> list:
    """Every functools.lru_cache reachable from a freecert module or class."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "freecert" or name.startswith("freecert.")):
            continue
        objs = list(vars(mod).values())
        objs += [v for o in objs if isinstance(o, type) and o.__module__ == name for v in vars(o).values()]
        for obj in objs:
            if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                found[id(obj)] = obj
    return list(found.values())


class Runner:
    """Issues requests against freecert.cli.main with cold caches."""

    def __init__(self, cli_main, caches, paths, clock: SpeedClock):
        self.cli_main = cli_main
        self.caches = caches
        self.paths = paths  # request index -> (problem file, certificate file)
        self.clock = clock
        self.tracer = None
        self.next_id = 0

    def cold(self) -> None:
        for c in self.caches:
            c.cache_clear()
        for c in self.caches:
            if c.cache_info().currsize != 0:
                raise RuntimeError(f"cache {c!r} is not empty before a request")

    def call(self, name: str, argv: list[str]):
        """(exit code or None on a crash, seconds at reference speed, stderr)."""
        self.cold()
        err = io.StringIO()

        def invoke():
            try:
                if self.tracer is None:
                    return self.cli_main(argv)
                return self.tracer.request(self.next_id, name, self.cli_main, argv)
            except Exception:
                err.write(traceback.format_exc())
                return None

        with contextlib.redirect_stderr(err):
            code, elapsed = self.clock.timed(invoke)
        return code, elapsed, err.getvalue()

    def request(self, index: int, cmd: str) -> dict:
        prob, cert = self.paths[index]
        cert.unlink(missing_ok=True)
        code, solve_s, err = self.call("request.solve", [cmd, str(prob), "--out", str(cert)])
        rec = {"req": index, "code": code, "solve_s": solve_s, "err": err}
        if code in SOLVE_CODES and cert.exists():
            vcode, verify_s, verr = self.call("request.verify", ["verify", str(cert)])
            rec.update(verify_code=vcode, verify_s=verify_s, verify_err=verr)
            rec["digest"] = hashlib.sha256(cert.read_bytes()).hexdigest()
        self.next_id += 1
        return rec

    def repeat_digest(self, index: int, cmd: str) -> str | None:
        prob, cert = self.paths[index]
        out = cert.with_suffix(".repeat")
        code, _, _ = self.call("request.repeat", [cmd, str(prob), "--out", str(out)])
        if code not in SOLVE_CODES or not out.exists():
            return None
        return hashlib.sha256(out.read_bytes()).hexdigest()


def _last_line(text: str) -> str:
    """The message line of an error report or traceback, shortened."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1][:160] if lines else ""


def judge(records: list[dict], requests, paths, repeats: dict[int, str | None]):
    """Apply the output checks; returns (failed flags, wrong answers, reasons).
    A traced run does each request twice into the same certificate file,
    so both passes' bytes are compared with what the file holds last."""
    written: dict[int, tuple[str, str | None, str | None]] = {}  # digest, verdict, contradiction
    reasons: Counter = Counter()
    wrong = 0
    failed_flags = []
    for rec in records:
        i = rec["req"]
        req = requests[i]
        why = None
        wrong_answer = False
        if rec["code"] is None:
            why = "crash: " + _last_line(rec["err"])
        elif rec["code"] not in SOLVE_CODES:
            why = f"exit {rec['code']}: " + _last_line(rec["err"])
        elif "digest" not in rec:
            why = "no certificate written"
        else:
            if i not in written:
                data = paths[i][1].read_bytes()
                cert = json.loads(data)
                written[i] = (hashlib.sha256(data).hexdigest(), cert.get("verdict"), checks.check_output(req.expect, cert))
            digest, rec["verdict"], contradiction = written[i]
            if rec["digest"] != digest or repeats.get(i, digest) != digest:
                why, wrong_answer = "certificate bytes differ between attempts", True
            elif contradiction is not None:
                why, wrong_answer = contradiction, True
            elif rec["verify_code"] != 0:
                why = f"verify exit {rec['verify_code']}: " + _last_line(rec["verify_err"])
        if why is not None:
            reasons[f"{req.label}: {why}"] += 1
        wrong += wrong_answer
        failed_flags.append(why is not None)
    return failed_flags, wrong, reasons


def quantile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records: list[dict], failed_flags: list[bool], setup_s: float, peak_rss_mb: float) -> dict:
    solves = [r["solve_s"] for r in records]
    verifies = [r["verify_s"] for r in records if "verify_s" in r]
    decided = sum(1 for r in records if r.get("verdict") in checks.DECIDED)
    return {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (statistics.median(solves), "s"),
        "solve_p90_s": (quantile90(solves), "s"),
        "solves_per_s": (len(solves) / sum(solves), "1/s"),
        "verify_p50_s": (statistics.median(verifies), "s"),
        "verify_p90_s": (quantile90(verifies), "s"),
        "verifies_per_s": (len(verifies) / sum(verifies), "1/s"),
        "decided_ratio": (decided / len(records), "1"),
        "ok_ratio": (1 - sum(failed_flags) / len(records), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner: Runner, requests):
    """The requests once traced, then once untraced; returns both passes'
    records, traced first, and the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced = [runner.request(i, req.cmd) for i, req in enumerate(requests)]
    finally:
        tracer.uninstall()
        runner.tracer = None
    plain = [runner.request(i, req.cmd) for i, req in enumerate(requests)]
    return traced + plain, tracer


def repeat_sample(runner: Runner, requests, records, key: str) -> dict[int, str | None]:
    """Re-run a seeded sample of the requests that wrote a certificate."""
    written = [r["req"] for r in records if "digest" in r]
    sample = random.Random(key).sample(written, min(len(written), max(1, len(written) // REPEAT_EVERY)))
    return {i: runner.repeat_digest(i, requests[i].cmd) for i in sorted(sample)}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = args.src.resolve()
    if not (src / "freecert" / "cli.py").is_file():
        print(f"run.py: no freecert sources under {src}", file=sys.stderr)
        return 2

    if args.trace:
        n_rounds = TRACE_ROUNDS[args.workload]
    else:
        n_rounds = UNIT_ROUNDS[args.workload] * max(1, round(args.seconds / UNIT_S[args.workload]))
    requests = [req for rnd in GENERATORS[args.workload](args.seed, n_rounds) for req in rnd]

    workdir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, req in enumerate(requests):
            prob = workdir / f"r{i:04d}.prob"
            prob.write_text(req.text, encoding="utf-8")
            paths.append((prob, workdir / f"r{i:04d}.cert"))
        repeats: dict[int, str | None] = {}
        setup_s = None if args.trace else measure_setup(src)
        with SpeedClock() as clock:
            runner = Runner(load_freecert(src), find_caches(), paths, clock)
            if args.trace:
                records, tracer = run_traced(runner, requests)
            else:
                records = [runner.request(i, req.cmd) for i, req in enumerate(requests)]
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                repeats = repeat_sample(runner, requests, records, f"repeat/{args.workload}/{args.seed}")
        failed_flags, wrong, reasons = judge(records, requests, paths, repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        half = len(records) // 2
        busy = [sum(r["solve_s"] + r.get("verify_s", 0.0) for r in part) for part in (records[:half], records[half:])]
        metrics = tracer.metrics(busy[0] / busy[1])
        tracer.write_spans(RUNS / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        metrics = end_to_end(records, failed_flags, setup_s, peak_rss_mb)
    labels = Counter(requests[r["req"]].label for r in records)
    print(f"{args.workload} seed {args.seed}: {len(records)} requests, {len(repeats)} repeated", file=sys.stderr)
    for label, count in sorted(labels.items()):
        print(f"  {count:5d}  {label}", file=sys.stderr)
    for why, count in reasons.most_common():
        print(f"  FAILED x{count}: {why}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(failed_flags),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
