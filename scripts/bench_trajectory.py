"""Run the benchmark's workloads and keep their result lines.

    python3 scripts/bench_trajectory.py LABEL [--checkout DIR] [--seed 0] [--seconds 40]
    python3 scripts/bench_trajectory.py LABEL --against DIR [--checkout DIR] [--seed 0]
        [--seconds 40]

For each workload in BENCHMARK.json the first form runs, in the checkout DIR
(by default the repository holding this script),

    python3 perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0

and writes BENCH_<LABEL>.json next to this repository's BENCHMARK.json: the
machine record perfbench prints, and per workload its result line (the last
line of its output) and the medians as measured, before the division by the
host slowdown.

The second form compares the checkout (the change) with the checkout DIR
given to --against (its parent).  For each workload it runs PAIRS pairs,
one perfbench run of each side per pair, the parent first in even pairs and
the change first in odd ones, all on one seed.  Ten pairs is the fewest on
which a gain can be claimed: the change must win at least nine of them.  Per end-to-end metric it
prints and stores each side's median and quartiles over the pairs and the
change's win count: the pairs in which the change is better, ties counting
for neither.  BENCH_<LABEL>.json then holds, per workload, every pair's
values and that summary, and the commit of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def run_workload(checkout: Path, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(machine line, result line) of one perfbench run of workload name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = records[-1]
    saved = checkout / ".perfbench" / f"result-{name}-seed{seed}-trace0.json"
    result["raw_medians"] = json.loads(saved.read_text())["raw_medians"]
    return records[0], result


def commit_of(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q25": q1, "q75": q3}


def compare_pairs(change: Path, parent: Path, name: str, seed: int,
                  seconds: float, better: dict) -> tuple[dict, dict]:
    """(machine line, record) of PAIRS alternating pairs of perfbench runs of one workload.

    The record holds every pair's metric values and, per metric, each side's
    median and quartiles and the change's win count.
    """
    runs = []
    for k in range(PAIRS):
        order = [("parent", parent), ("change", change)]
        if k % 2:
            order.reverse()
        pair = {"first": order[0][0]}
        for side, checkout in order:
            machine, result = run_workload(checkout, name, seed, seconds)
            pair[side] = {m: entry["value"] for m, entry in result["metrics"].items()}
            pair[side]["correct"] = result["correct"]
        runs.append(pair)
        print(f"{name} pair {k + 1}/{PAIRS}: " + ", ".join(
            f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in better))
    summary = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p["parent"][metric] - p["change"][metric]) > 0 for p in runs)
        summary[metric] = {side: summarize([p[side][metric] for p in runs])
                           for side in ("parent", "change")}
        summary[metric]["change_wins"] = wins
        stats = summary[metric]
        print(f"{name} {metric}: parent {stats['parent']['median']:.4g} "
              f"[{stats['parent']['q25']:.4g}, {stats['parent']['q75']:.4g}], change "
              f"{stats['change']['median']:.4g} [{stats['change']['q25']:.4g}, "
              f"{stats['change']['q75']:.4g}], change better in {wins}/{PAIRS}")
    return machine, {"pairs": runs, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--against", type=Path, default=None,
                    help="checkout of the parent to alternate runs with")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    if args.against is not None:
        parent = args.against.resolve()
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        record["commits"] = {"change": commit_of(checkout), "parent": commit_of(parent)}
        record["pairs"] = PAIRS
        for name in workloads:
            machine, record["workloads"][name] = compare_pairs(
                checkout, parent, name, args.seed, args.seconds, better)
            record.setdefault("machine", machine["machine"])
            record.setdefault("env", machine["env"])
    else:
        for name in workloads:
            machine, result = run_workload(checkout, name, args.seed, args.seconds)
            record.setdefault("machine", machine["machine"])
            record.setdefault("env", machine["env"])
            record["workloads"][name] = result
            print(f"{name}: " + ", ".join(f"{k} = {m['value']:.4g}"
                                          for k, m in result["metrics"].items()))
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
