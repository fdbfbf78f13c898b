"""Run the benchmark's workloads once each and keep their result lines.

    python3 scripts/bench_trajectory.py LABEL [--checkout DIR] [--seed 0] [--seconds 40]

For each workload in BENCHMARK.json this runs, in the checkout DIR (by
default the repository holding this script),

    python3 perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0

and writes BENCH_<LABEL>.json next to this repository's BENCHMARK.json: the
machine record perfbench prints, and per workload its result line (the last
line of its output) and the medians as measured, before the division by the
host slowdown.  Two commits measured one after the other on one machine give
the before/after numbers of a performance change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    workloads = [w["name"] for w in
                 json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
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
