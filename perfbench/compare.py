"""Compare two freecert source trees with the benchmark.

    python3 perfbench/compare.py run --parent DIR --change DIR --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

`run` measures the `src/` of both checkouts with this directory's
benchmark code and settings, untraced, in PAIRS pairs per workload.
Pair i uses seed SEED0 + i on both sides; even pairs run the parent
first, odd pairs the change first.  Every result is appended to the
JSONL file, then the report is printed.

`report` prints one row per workload and end-to-end metric:
  - each side's median and quartiles, and the change's wins over the
    parent in the pairs (ties count for neither);
  - GAIN when there are at least PAIRS pairs, the change wins at least 9
    in 10 of them and the medians differ by more than the parent's
    interquartile range;
  - UNRESOLVED when the parent's interquartile range exceeds the metric's
    bound, unless every change run beats every parent run;
  - WORSE when the change's median is worse than the parent's by more
    than the bound.
A last row per workload compares fail_ratio (failed over attempted) and
flags any rise, and any run whose outputs were not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10  # a gain is never claimed on fewer pairs
SEED0 = 1000
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_pairs(args) -> None:
    sides = {"parent": Path(args.parent).resolve() / "src", "change": Path(args.change).resolve() / "src"}
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for pair in range(PAIRS):
                seed = SEED0 + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    cmd = [
                        sys.executable,
                        str(HERE / "run.py"),
                        "--workload", workload,
                        "--seed", str(seed),
                        "--seconds", str(SPEC["run_seconds"]),
                        "--trace", "0",
                        "--src", str(sides[side]),
                    ]
                    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    row = {"workload": workload, "pair": pair, "side": side, "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} {side}: {result['attempted']} requests, {result['failed']} failed", file=sys.stderr)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(spec: dict, a: float, b: float) -> bool:
    """Is a strictly better than b?"""
    return a < b if spec["better"] == "lower" else a > b


def compare_metric(spec: dict, pairs: list[tuple[float, float]]) -> dict:
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    wins = sum(_better(spec, c, p) for p, c in pairs)
    iqr = p3 - p1
    bound = spec["bound"]
    dominates = all(_better(spec, c, p) for c in change for p in parent)
    status = "same"
    if iqr / abs(pm) > bound and not dominates:
        status = "UNRESOLVED"
    elif len(pairs) >= PAIRS and wins >= 0.9 * len(pairs) and _better(spec, cm, pm) and abs(cm - pm) > iqr:
        status = "GAIN"
    worse = _better(spec, pm, cm) and abs(cm - pm) / abs(pm) > bound
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "pairs": len(pairs),
        "status": status,
        "worse": worse,
    }


def report(path: str) -> int:
    rows = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    specs = {m["name"]: m for m in SPEC["end_to_end"]}
    by_key: dict[tuple[str, int], dict[str, dict]] = defaultdict(dict)
    for row in rows:
        by_key[(row["workload"], row["pair"])][row["side"]] = row["result"]
    flagged = False
    workloads = sorted({k[0] for k in by_key})
    print(f"{'workload':13s} {'metric':42s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'wins':>6s}  status")
    for workload in workloads:
        complete = [sides for (w, _), sides in sorted(by_key.items()) if w == workload and len(sides) == 2]
        if not complete:
            continue
        for name in specs:
            pairs = [(s["parent"]["metrics"][name]["value"], s["change"]["metrics"][name]["value"]) for s in complete]
            out = compare_metric(specs[name], pairs)
            status = out["status"] + (" WORSE>bound" if out["worse"] else "")
            flagged |= out["worse"]
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload:13s} {name:42s} {fmt.format(*out['parent']):>32s} {fmt.format(*out['change']):>32s}"
                f" {out['wins']:>3d}/{out['pairs']:<2d}  {status}"
            )
        fail = {}
        for side in ("parent", "change"):
            attempted = sum(s[side]["attempted"] for s in complete)
            failed = sum(s[side]["failed"] for s in complete)
            fail[side] = failed / attempted
        incorrect = sum(not s[side]["correct"] for s in complete for side in ("parent", "change"))
        status = "ROSE" if fail["change"] > fail["parent"] else "same or lower"
        if incorrect:
            status += f", {incorrect} runs not correct"
        flagged |= fail["change"] > fail["parent"] or incorrect > 0
        print(f"{workload:13s} {'fail_ratio':42s} {fail['parent']:>32.4g} {fail['change']:>32.4g} {'':>6s}  {status}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("run", help="measure parent and change in alternating pairs")
    rp.add_argument("--parent", required=True, help="checkout of the parent commit")
    rp.add_argument("--change", required=True, help="checkout of the change")
    rp.add_argument("--out", required=True, help="JSONL file the results are appended to")
    pp = sub.add_parser("report", help="compare results already collected")
    pp.add_argument("results")
    args = ap.parse_args(argv)
    if args.command == "run":
        run_pairs(args)
        return report(args.out)
    return report(args.results)


if __name__ == "__main__":
    sys.exit(main())
