"""rhflab benchmark: one workload, fresh single-process repetitions, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  With --trace 0 it starts one fresh
process per repetition (perfbench/workload.py) while another repetition as
long as the last one still ends within S seconds, at least MIN_REPS times,
and reports the medians of the end-to-end metrics.  Times are at the
reference host speed (see speedprobe.py); the measured ones are printed
and kept in the result file too.
With --trace 1 it runs the workload once untraced and once traced and
reports the per-layer metrics, the layer table and the tracing overhead.
Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

# ops per repetition: a scenario run, the Vlasov leg, one particle number of the oracle
OPS_PER_REP = {"quench_hf": 1, "hartree_phase_space": 2, "ed_oracle": 4}
MIN_REPS = 2
# set-up-only processes started before each repetition: set-up is short, so
# its median needs more samples than one per repetition
SETUP_PROBES = 2
DEADLINE_S = 170.0
# every child gets the same single-threaded BLAS and one sweep worker
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "RHFLAB_WORKERS": "1", "PYTHONHASHSEED": "0"}


def spawn(workload: str, seed: int, trace: int, timeout: float,
          setup_only: bool = False) -> dict:
    """Start one repetition in a fresh process; a crash counts all its ops failed."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + ["--setup-only"] * setup_only
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return crashed(workload, f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        return crashed(workload, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def crashed(workload: str, why: str) -> dict:
    ops = OPS_PER_REP[workload]
    return {"attempted": ops, "failed": ops, "errors": [why], "outputs": None,
            "wall_s": None, "setup_s": None, "peak_rss_mib": None,
            "wall_s_raw": None, "setup_s_raw": None}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(), "child_env": CHILD_ENV}


def median_of(reps: list, key: str):
    values = [r[key] for r in reps if r.get(key) is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS_PER_REP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rhflab" / "__init__.py").is_file():
        print(f"error: no rhflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = machine()
    started = time.monotonic()
    reps: list[dict] = []
    probes: list[dict] = []
    values: dict = {}
    if args.trace:
        plain = spawn(args.workload, args.seed, 0, DEADLINE_S)
        traced = spawn(args.workload, args.seed, 1,
                       DEADLINE_S - (time.monotonic() - started))
        reps = [plain, traced]
        values = dict(traced.get("layers", {}))
        if plain["wall_s"] is not None and traced["wall_s"] is not None:
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        same = plain["outputs"] is not None and plain["outputs"] == traced["outputs"]
        if not same:
            traced["errors"].append("traced outputs differ from untraced outputs")
    else:
        last = 0.0  # duration of the latest repetition, set-up included
        while True:
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_REPS and elapsed + last > args.seconds:
                break
            if reps and elapsed + 1.5 * last > DEADLINE_S:
                break
            for _ in range(SETUP_PROBES):
                probes.append(spawn(args.workload, args.seed, 0, DEADLINE_S - elapsed,
                                    setup_only=True))
            reps.append(spawn(args.workload, args.seed, 0,
                              DEADLINE_S - (time.monotonic() - started)))
            last = time.monotonic() - started - elapsed
        values = {key: median_of(reps, key) for key in ("wall_s", "peak_rss_mib")}
        values["setup_s"] = median_of(reps + probes, "setup_s")
    raw = {"wall_s": median_of(reps, "wall_s_raw"),
           "setup_s": median_of(reps + probes, "setup_s_raw")}

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values["ok_frac"] = (attempted - failed) / attempted
    errors = [e for r in reps + probes for e in r.get("errors", [])]
    correct = failed == 0 and not errors
    metrics = {}
    for name in wanted:
        value = values.get(name)
        if value is None:
            correct = False
            errors.append(f"metric {name} not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": units[name]}

    WORK_DIR.mkdir(exist_ok=True)
    shutil.rmtree(WORK_DIR / "tmp", ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": env,
              "elapsed_s": time.monotonic() - started, "reps": reps,
              "setup_probes": probes, "raw_medians": raw,
              "correct": correct, "metrics": metrics}
    out = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"machine": env, "env": reps[0].get("env")}))
    for error in errors:
        print(f"FAILED: {error}")
    for name, m in metrics.items():
        samples = "traced run" if args.trace else f"median of {len(reps)} runs"
        if name == "setup_s":
            samples = f"median of {len(reps) + len(probes)} set-ups"
        print(f"{name} = {m['value']!r} {m['unit']} ({samples})")
    if not args.trace:
        print(f"as measured, before dividing by the host slowdown: {raw}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
