"""Command-line front end: run, sweep, inspect, checks.

    rhflab run SCENARIO [--out DIR]
    rhflab sweep SCENARIO --axis {N,m0,dt,coupling} --values 8,16,32 [--out DIR]
    rhflab inspect CONTAINER.rhfs
    rhflab checks REPORT.json

Worker count for sweeps comes from the RHFLAB_WORKERS environment variable
(default 1).  Exit status is 1 iff a run failed a hard diagnostic, and 2 iff
a scenario failed to parse or a run ended in an error (its manifest says
which).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .containers import load_json, read_orbital_header
from .runner import run, sweep
from .scenarios import ScenarioError, load_scenario

__all__ = ["main"]


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path("runs") / scenario.name
    try:
        result = run(scenario, out)
    except Exception:  # run wrote the error manifest, which keeps no traceback
        traceback.print_exc()
        print(f"{scenario.name}: error (artifacts in {out})")
        return 2
    status = result.manifest["status"]
    print(f"{scenario.name}: {status} (artifacts in {out})")
    for name, ok in sorted(result.manifest["checks"].items()):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values = [tok for tok in args.values.split(",") if tok]
    out = Path(args.out) if args.out else Path("runs") / f"{scenario.name}_sweep_{args.axis}"
    try:
        code = sweep(scenario, args.axis, values, out)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep over {args.axis} -> {out}/sweep.csv (exit {code})")
    return code


def _cmd_inspect(args) -> int:
    try:
        head = read_orbital_header(args.container)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in head.items():
        print(f"{key} = {value}")
    return 0


def _cmd_checks(args) -> int:
    try:
        report = load_json(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = report.get("check", Path(args.report).stem)
    passed = bool(report.get("passed", False))
    print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    for entry in report.get("reports", []):
        t = entry.get("time", 0.0)
        if "min_margin" in entry:
            detail = f"min_margin = {entry['min_margin']:.3e}"
        elif "max_ratio" in entry:
            detail = f"max_ratio = {entry['max_ratio']:.3e}"
        else:
            detail = ""
        flag = "PASS" if entry.get("passed", True) else "FAIL"
        print(f"  [{flag}] t = {t:g}  {detail}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhflab",
        description="Mean-field dynamics laboratory for pseudo-relativistic fermions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory (default runs/<name>)")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario along a parameter axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True, choices=["N", "m0", "dt", "coupling"])
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_inspect = sub.add_parser("inspect", help="print an orbital container (.rhfs) header")
    p_inspect.add_argument("container")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_checks = sub.add_parser("checks", help="pretty-print a JSON check report")
    p_checks.add_argument("report")
    p_checks.set_defaults(fn=_cmd_checks)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
