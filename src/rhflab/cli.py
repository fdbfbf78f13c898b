"""Command-line front end: run, sweep, inspect, checks.

    rhflab run SCENARIO [--out DIR]
    rhflab sweep SCENARIO --axis {N,m0,dt,coupling} --values 8,16,32 [--out DIR]
    rhflab inspect CONTAINER.rhfs
    rhflab checks REPORT.json

Worker count for sweeps comes from the RHFLAB_WORKERS environment variable
(default 1), a whole number >= 1; no more workers start than the sweep has
sub-runs.  Exit status is 1 iff a run failed a hard diagnostic, and 2 iff a
scenario, a sweep value or the worker count failed to parse, its output
directory cannot be created (all refused before any work) or a run ended in
an error (its manifest says which).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .containers import load_json, read_orbital_header
from .runner import run, sweep, sweep_scenarios
from .scenarios import load_scenario

__all__ = ["main"]


def _scenario_and_out(args, default_out, refuse=lambda scenario: None) -> tuple:
    """(scenario, its output directory, made), or (None, None) after one error line on stderr.

    default_out maps the scenario to the directory used when --out is not
    given; refuse(scenario) raises ValueError for what the command cannot
    honour before the directory is made.
    """
    try:
        scenario = load_scenario(args.scenario)
        refuse(scenario)
        out = Path(args.out) if args.out else Path("runs") / default_out(scenario)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # a ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return None, None
    return scenario, out


def _cmd_run(args) -> int:
    scenario, out = _scenario_and_out(args, lambda scenario: scenario.name)
    if scenario is None:
        return 2
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
    values = [tok for tok in args.values.split(",") if tok]
    scenario, out = _scenario_and_out(
        args, lambda scenario: f"{scenario.name}_sweep_{args.axis}",
        lambda scenario: sweep_scenarios(scenario, args.axis, values))
    if scenario is None:
        return 2
    code = sweep(scenario, args.axis, values, out)
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
