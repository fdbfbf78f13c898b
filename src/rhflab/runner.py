"""Scenario orchestration: preparation, evolution, diagnostics, artifacts.

A run produces a deterministic artifact set under the output directory:

  initial_state.rhfs, final_state.rhfs, checkpoints/...
  scf_trace.csv (scf preparation), conservation.csv, commutators.csv
  checks/exp_bound.json, checks/exchange_bound.json, checks/kinetic_ratio.json
  growth_fit.json, integrated_growth.json, manifest.json

The evolution's samples, the t = 0 ones too, read the one MeanField that
`propagate.evolve` seeds the initial state with.

Exit status is 1 iff a hard diagnostic failed (inequality margin below
tolerance, an SCF preparation that did not converge, or an aborted
evolution).  An exception raised during the run (a Krylov solve that cannot
reach its tolerance, a singular Löwdin Gram matrix, an artifact write that
fails) still writes a manifest, with status `error`, the exception's type
and message and the artifacts written so far, and no traceback, absolute
path or time; then the exception propagates, and `rhflab run` and a sweep
record exit status 2.  Re-running a scenario at the same BLAS
thread count reproduces every artifact byte for byte.
"""

from __future__ import annotations

import os
import re
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .containers import dump_json, fmt17, save_orbitals, write_csv
from .diagnostics import (
    commutator_channels,
    default_phase_samples,
    exchange_double_commutator_check,
    exp_bound_check,
    growth_fit,
    integrated_growth_audit,
    kinetic_double_commutator_check,
)
from .grids import potential_moment_refinement_check
from .orbitals import OrbitalSet, boosted_fermi_sea, fermi_sea, hs_distance_squared, seam_mass
from .propagate import Observer, SimState, evolve
from .scenarios import Scenario, value_token
from .scf import scf_minimize

__all__ = ["RunResult", "run", "sweep", "sweep_scenarios", "WORKERS_ENV"]

WORKERS_ENV = "RHFLAB_WORKERS"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_AXES = {
    "N": ("model", "n_particles"),
    "m0": ("model", "m0"),
    "dt": ("evolution", "dt"),
    "coupling": ("potential", "coupling"),
}
# end-time metrics of one run, the sweep.csv columns after the exit code
SWEEP_METRICS = ("energy_drift_rel", "comm_x_final", "comm_grad_final", "comm_x_over_neps",
                 "growth_C", "growth_c", "min_margin")


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    manifest: dict
    metrics: dict  # SWEEP_METRICS name -> value, nan where the run has none
    final_orbitals: OrbitalSet


def _prepare(scenario: Scenario, grid, potential, dispersion, out_dir: Path):
    n_particles = scenario[("model", "n_particles")]
    kind = scenario[("preparation", "kind")]
    if kind == "fermi_sea":
        return fermi_sea(grid, n_particles, dispersion), None
    if kind == "boosted_fermi_sea":
        return boosted_fermi_sea(
            grid, n_particles, dispersion,
            amplitude=scenario[("preparation", "boost_amplitude")],
            mode=scenario[("preparation", "boost_mode")],
        ), None
    res = scf_minimize(grid, potential, n_particles, dispersion, scenario.build_scf_config())
    rows = [(i, e, r) for i, (e, r) in enumerate(zip(res.energies, res.residuals))]
    write_csv(out_dir / "scf_trace.csv", ["iteration", "energy", "residual"], rows)
    return res.orbitals, res


def run(scenario: Scenario, out_dir) -> RunResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "scenario": scenario.name,
        "config_hash": scenario.config_hash(),
        # LAPACK results, and so artifact bytes, can depend on the thread count
        "versions": {"rhflab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS}},
        "config": scenario.canonical_lines(),
    }
    try:
        return _run(scenario, out_dir, header)
    except Exception as exc:  # every ending writes a manifest (module docstring)
        manifest = dict(header, status="error",
                        error={"type": type(exc).__name__,
                               "message": _relative_paths(str(exc), out_dir)},
                        artifacts=_artifacts(out_dir))
        dump_json(out_dir / "manifest.json", manifest)
        raise


def _relative_paths(message: str, out_dir: Path) -> str:
    """message with each absolute path under the output directory made relative to it.

    Only a whole path is rewritten, one that starts the message or follows a
    blank or a quote: a path inside the directory loses the directory's
    prefix, and the directory itself becomes '.'.
    """
    for root in sorted({str(out_dir.absolute()), str(out_dir.resolve())}, key=len, reverse=True):
        pattern = (r"(?<![^\s'\"])" + re.escape(root)
                   + r"(?:" + re.escape(os.sep) + r"|(?=[\s'\":]|$))")
        message = re.sub(pattern, lambda m: "" if m.group().endswith(os.sep) else ".", message)
    return message


def _artifacts(out_dir: Path) -> list[str]:
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
                  if p.is_file() and p.name != "manifest.json")


def _run(scenario: Scenario, out_dir: Path, header: dict) -> RunResult:
    (out_dir / "checks").mkdir(exist_ok=True)
    config_hash = header["config_hash"]
    recorded_warnings: list[str] = []

    grid = scenario.build_grid()
    dispersion = scenario.build_dispersion()
    potential = scenario.build_potential(grid)

    if scenario[("potential", "kernel")] == "gaussian":
        width = scenario[("potential", "width")]
        stable, coarse, fine = potential_moment_refinement_check(
            lambda p: np.exp(-0.5 * width**2 * p**2), grid,
            coupling=scenario[("potential", "coupling")],
        )
        if not stable:
            msg = (f"interaction moment not stabilized under refinement "
                   f"({fmt17(coarse)} -> {fmt17(fine)})")
            warnings.warn(msg)
            recorded_warnings.append(msg)

    orbitals, scf_result = _prepare(scenario, grid, potential, dispersion, out_dir)
    save_orbitals(out_dir / "initial_state.rhfs", orbitals)
    _write_sidecar(out_dir / "initial_state.rhfs", 0.0, config_hash)

    # evolve seeds the state with the evolution's MeanField before the t = 0 samples
    state = SimState(time=0.0, orbitals=orbitals, potential=potential,
                     config=scenario.build_evolution_config(dispersion))

    observers, reports = _build_observers(scenario, grid, out_dir, config_hash)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evolve(state, observers)
    recorded_warnings.extend(str(w.message) for w in caught)

    save_orbitals(out_dir / "final_state.rhfs", result.state.orbitals)
    _write_sidecar(out_dir / "final_state.rhfs", result.state.time, config_hash)

    checks_summary, metrics = _write_series_and_reports(scenario, result, reports, out_dir,
                                                        grid)
    if scf_result is not None:
        checks_summary["scf_converged"] = bool(scf_result.converged)
    hard_failure = result.aborted or any(not ok for ok in checks_summary.values())

    manifest = dict(
        header,
        status="aborted" if result.aborted else ("failed" if hard_failure else "ok"),
        abort_reason=result.abort_reason,
        checks=checks_summary,
        warnings=sorted(set(recorded_warnings)),
        preparation=_scf_summary(scf_result),
        artifacts=_artifacts(out_dir),
    )
    dump_json(out_dir / "manifest.json", manifest)
    return RunResult(exit_code=1 if hard_failure else 0, out_dir=out_dir,
                     manifest=manifest, metrics=metrics,
                     final_orbitals=result.state.orbitals)


def _scf_summary(scf_result):
    if scf_result is None:
        return None
    return {
        "converged": scf_result.converged,
        "iterations": scf_result.iterations,
        "energy": scf_result.energy,
        "stationarity": scf_result.stationarity,
        "comm_x_over_neps": scf_result.comm_x_over_neps,
        "comm_grad_over_neps": scf_result.comm_grad_over_neps,
        "oscillation": scf_result.oscillation,
    }


def _build_observers(scenario: Scenario, grid, out_dir: Path, config_hash: str):
    observers = []
    reports: dict[str, list] = {}
    diag = lambda key: scenario[("diagnostics", key)]

    if diag("conservation") > 0:
        def conservation(state: SimState) -> dict:
            return {
                # the functional conserved by the active flow, in its MeanField's form
                "energy": state.mean_field.energy(state.orbitals.orbitals),
                "trace": float(state.orbitals.n_particles),
                "gram_deviation": state.last_gram_deviation,
                "projection_residual": state.last_projection_residual,
                "seam_mass": seam_mass(state.orbitals),
            }

        observers.append(Observer("conservation", diag("conservation"), conservation))

    if diag("commutators") > 0:
        def commutators(state: SimState) -> dict:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # seam mass already recorded
                return commutator_channels(state.orbitals)

        observers.append(Observer("commutators", diag("commutators"), commutators))

    def report_observer(name: str, check, channel: str) -> Observer:
        """Samples report[channel] of check(state), keeping each timed report."""
        reports[name] = []

        def observe(state: SimState) -> dict:
            report = check(state)
            report["time"] = state.time
            reports[name].append(report)
            return {channel: report[channel]}

        return Observer(name, diag(name), observe)

    if diag("exp_bound") > 0:
        samples = default_phase_samples(grid)
        observers.append(report_observer(
            "exp_bound", lambda s: exp_bound_check(s.orbitals, samples), "min_margin"))
    if diag("exchange_bound") > 0:
        observers.append(report_observer(
            "exchange_bound",
            lambda s: exchange_double_commutator_check(s.orbitals, s.potential), "min_margin"))
    if diag("kinetic_ratio") > 0:
        m0 = scenario[("model", "m0")]
        observers.append(report_observer(
            "kinetic_ratio", lambda s: kinetic_double_commutator_check(s.orbitals, m0),
            "max_ratio"))

    if diag("checkpoint") > 0:
        ckpt_dir = out_dir / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)

        def checkpoint(state: SimState) -> dict:
            path = ckpt_dir / f"state_{state.step_index:08d}.rhfs"
            save_orbitals(path, state.orbitals)
            _write_sidecar(path, state.time, config_hash)
            return {"step": float(state.step_index)}

        observers.append(Observer("checkpoint", diag("checkpoint"), checkpoint))

    return observers, reports


def _write_sidecar(container_path: Path, time: float, config_hash: str) -> None:
    Path(str(container_path) + ".meta.txt").write_text(
        f"time = {fmt17(time)}\nconfig_hash = {config_hash}\n"
    )


def _write_series_and_reports(scenario: Scenario, result, reports, out_dir: Path,
                              grid) -> tuple[dict, dict]:
    """Write the series CSVs and check reports; returns (checks, SWEEP_METRICS)."""
    checks_summary: dict[str, bool] = {}
    metrics = dict.fromkeys(SWEEP_METRICS, float("nan"))
    for name, series in result.series.items():
        if name == "checkpoint":
            continue
        header = ["time"] + sorted(series.channels)
        rows = [
            [t] + [series.channels[c][i] for c in sorted(series.channels)]
            for i, t in enumerate(series.times)
        ]
        write_csv(out_dir / f"{name}.csv", header, rows)

    for name, entries in reports.items():
        passed = all(e["passed"] for e in entries) if entries else True
        dump_json(out_dir / "checks" / f"{name}.json",
                  {"check": name, "passed": passed, "reports": entries})
        checks_summary[name] = passed
    margins = [e["min_margin"] for name in ("exp_bound", "exchange_bound")
               for e in reports.get(name, ())]
    if margins:
        metrics["min_margin"] = min(margins)

    comm = result.series.get("commutators")
    if comm is not None and comm.times:
        times = np.asarray(comm.times)
        # summed in sorted channel order, the order of the CSV columns
        comm_x = sum(np.asarray(comm.channels[c]) for c in sorted(comm.channels)
                     if c.startswith("comm_x_"))
        comm_grad = sum(np.asarray(comm.channels[c]) for c in sorted(comm.channels)
                        if c.startswith("comm_grad_"))
        n_particles = scenario[("model", "n_particles")]
        metrics.update(comm_x_final=comm_x[-1], comm_grad_final=comm_grad[-1],
                       comm_x_over_neps=comm_x[-1] / (n_particles * scenario.epsilon()))
        if len(times) >= 8:
            fit = growth_fit(times, comm_x, n_particles, grid.epsilon)
            envelope_ok = bool(
                np.all(comm_x <= 1.1 * fit.envelope(n_particles, grid.epsilon, times)
                       + 1e-12)
            )
            dump_json(out_dir / "growth_fit.json", {
                "check": "growth_fit", "C": fit.C, "c": fit.c,
                "residual": fit.residual, "passed": envelope_ok,
            })
            checks_summary["growth_fit"] = envelope_ok
            metrics.update(growth_C=fit.C, growth_c=fit.c)
        if len(times) >= 2:
            audit = integrated_growth_audit(times, comm_x, comm_grad, n_particles,
                                            scenario[("model", "m0")])
            dump_json(out_dir / "integrated_growth.json", audit)
            checks_summary["integrated_growth"] = bool(audit["passed"])

    cons = result.series.get("conservation")
    if cons is not None and len(cons.times) >= 2:
        energy = np.asarray(cons.channels["energy"])
        drift = float(np.max(np.abs(energy - energy[0])) / max(1.0, abs(energy[0])))
        span = max(result.state.time, 1e-300)
        summary = {
            "check": "conservation",
            "energy_drift_rel": drift,
            "energy_drift_rel_per_unit_time": drift / span,
            "max_gram_deviation": float(np.max(cons.channels["gram_deviation"])),
            "max_projection_residual": float(np.max(cons.channels["projection_residual"])),
            "trace_constant": bool(np.all(np.asarray(cons.channels["trace"])
                                          == cons.channels["trace"][0])),
        }
        dump_json(out_dir / "checks" / "conservation.json", summary)
        metrics["energy_drift_rel"] = drift

    return checks_summary, metrics


def _run_sub(args):
    """(exit code, SWEEP_METRICS values, final orbitals or None) of one sub-run."""
    try:
        result = run(*args)
    except Exception:  # run wrote the error manifest; the sweep goes on
        traceback.print_exc()
        return 2, [float("nan")] * len(SWEEP_METRICS), None
    return result.exit_code, list(result.metrics.values()), result.final_orbitals


def sweep_scenarios(scenario: Scenario, axis: str, values: list) -> tuple[list, list, int]:
    """(tokens, scenarios, workers) of a sweep's values, refused before any work.

    Each value is parsed as its field by `Scenario.with_value` first, so a bad
    token is refused as that field; the parsed values must then be strictly
    monotone.  The worker count WORKERS_ENV (default 1) must be a whole
    number >= 1, and no more workers start than there are sub-runs.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}")
    if not values:
        raise ValueError("sweep needs at least one value")
    section, key = SWEEP_AXES[axis]
    tokens = [value_token(v) for v in values]
    scenarios = [scenario.with_value(section, key, token) for token in tokens]
    diffs = np.diff([sub.values[section, key] for sub in scenarios])
    if len(tokens) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("sweep values must be strictly monotone")
    workers = os.environ.get(WORKERS_ENV, "1")
    if not (workers.isdecimal() and int(workers) >= 1):
        raise ValueError(f"{WORKERS_ENV} must be a whole number >= 1, got {workers!r}")
    return tokens, scenarios, min(int(workers), len(scenarios))


def sweep(scenario: Scenario, axis: str, values: list, out_root) -> int:
    """One sub-run per value along the axis; aggregated end-time metrics CSV."""
    tokens, scenarios, n_workers = sweep_scenarios(scenario, axis, values)
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    jobs = [(sub, out_root / f"{axis}_{i:02d}_{token}")
            for i, (token, sub) in enumerate(zip(tokens, scenarios))]

    if n_workers == 1:
        results = [_run_sub(job) for job in jobs]
    else:
        # imported here: a run that uses no pool does not load the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_sub, jobs))

    codes = [code for code, _, _ in results]
    rows = [[i, axis, token, code] + metrics
            for i, (token, (code, metrics, _)) in enumerate(zip(tokens, results))]
    header = ["index", "axis", "value", "exit_code", *SWEEP_METRICS]
    if axis == "dt":
        header.append("dist_sq_to_prev")
        finals = [final for _, _, final in results]
        for i, row in enumerate(rows):
            if i == 0 or finals[i] is None or finals[i - 1] is None:
                row.append(float("nan"))
            else:
                row.append(hs_distance_squared(finals[i], finals[i - 1]))
    write_csv(out_root / "sweep.csv", header, rows)
    dump_json(out_root / "sweep_manifest.json", {
        "axis": axis, "values": tokens, "exit_codes": codes,
        "base_config_hash": scenario.config_hash(),
    })
    return max(codes)
