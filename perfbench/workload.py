"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N [--trace 0|1]
        [--spawned-at MONOTONIC] [--setup-only]

Prints one JSON line: set-up and wall time, peak memory, ops attempted and
failed, the named outputs and, with --trace 1, the per-layer metrics of a
traced run plus the layer table.  run.py starts this script once per
repetition; it can also be run by hand from the root of the repository.

Inputs come from the seed alone: it draws the physical parameters within
fixed ranges; sizes, step counts and cadences are fixed per workload.

Set-up and wall time are reported both as measured (`*_raw`) and divided by
the host slowdown that speedprobe.py measured over the same interval.
"""

import time

SPAWNED_AT = time.monotonic()

import speedprobe  # noqa: E402

PROBE = speedprobe.SpeedProbe()
if __name__ == "__main__":
    PROBE.start()  # before the imports, so that set-up is probed too

import argparse  # noqa: E402
import configparser  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rhflab import containers, diagnostics, ed, propagate, runner, scenarios, scf, vlasov  # noqa: E402
from rhflab.grids import Dispersion  # noqa: E402

import tracer as tracing  # noqa: E402

DEFAULT_SEED = 0
REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = ROOT / ".perfbench"

# acceptance bounds of the conservation suite (tests/test_acceptance.py, criterion 2)
ENERGY_DRIFT_MAX = 1e-6
GRAM_DEVIATION_MAX = 1e-8
PROJECTION_RESIDUAL_MAX = 1e-8
# criterion 8: oracle unitarity/energy tolerance and gap bound
ORACLE_TOL = 1e-9
ORACLE_GAP_MAX = 0.5
VLASOV_MASS_TOL = 1e-10
# reference outputs must agree to rounding
REF_RTOL = 1e-7
REF_ATOL = 1e-13

# Fixed part of the grid scenarios: scenarios/reference_1d.ini, copied here
# so that an edit to the repository's scenarios does not change the benchmark.
GRID_SCENARIO = {
    "grid": {"dim": "1", "points_per_dim": "256", "box_length": "12.566370614359172"},
    "model": {"epsilon": "auto", "dispersion": "relativistic", "m0": "1.0"},
    "potential": {"kernel": "gaussian", "trap": "harmonic"},
    "preparation": {"kind": "scf", "max_iterations": "200", "mixing": "0.5",
                    "convergence_tol": "1e-10"},
    "evolution": {"scheme": "exponential_midpoint", "dt": "0.001",
                  "reortho_every": "10", "keep_trap": "false"},
}
DT = 0.001

WORKLOADS = {
    # the paper's reference quench: SCF ground state, trap released, full HF
    "quench_hf": {"n_particles": 32, "steps": 60, "exchange_on": True, "ops": 1,
                  "cadence": {"conservation": 20, "commutators": 20, "exp_bound": 60,
                              "exchange_bound": 60, "kinetic_ratio": 60,
                              "checkpoint": 30}},
    # Hartree flow with every observer at a dense cadence, then a Vlasov leg
    "hartree_phase_space": {"n_particles": 16, "steps": 300, "exchange_on": False,
                            "ops": 2, "vlasov_dt": 0.0025,
                            "cadence": {name: 5 for name in (
                                "conservation", "commutators", "exp_bound",
                                "exchange_bound", "kinetic_ratio", "checkpoint")}},
    # exact-diagonalization oracle: gap series for N = 2..5 on 16 modes
    "ed_oracle": {"n_modes": 16, "particle_numbers": (2, 3, 4, 5), "ops": 4,
                  "dt": 0.02, "t_final": 1.0, "sample_every": 5},
}

# layer table: one step and one block h-apply per N, for HF and Hartree
TABLE_NS = (8, 16, 32)
TABLE_STEPS = 5


def draw_params(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "ed_oracle":
        return {"coupling": rng.uniform(0.18, 0.22), "epsilon": rng.uniform(0.9, 1.1)}
    return {"coupling": rng.uniform(0.45, 0.55), "width": rng.uniform(0.9, 1.1),
            "trap_strength": rng.uniform(0.9, 1.1)}


def write_grid_scenario(path: Path, name: str, spec: dict, params: dict,
                        n_particles: int | None = None) -> None:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_dict(GRID_SCENARIO)
    cfg["scenario"] = {"name": name}
    cfg["model"]["n_particles"] = str(n_particles or spec["n_particles"])
    cfg["potential"].update({k: repr(params[k]) for k in ("coupling", "width",
                                                           "trap_strength")})
    cfg["evolution"]["t_final"] = repr(spec["steps"] * DT)
    cfg["evolution"]["exchange_on"] = "true" if spec["exchange_on"] else "false"
    cfg["diagnostics"] = {k: str(v) for k, v in spec["cadence"].items()}
    with open(path, "w") as fh:
        cfg.write(fh)


class Gate:
    """Output checks of one op; a failed check fails the op."""

    def __init__(self):
        self.errors: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.errors.append(what)


def check_run(gate: Gate, result, out_dir: Path, outputs: dict) -> None:
    """Seed-independent invariants of a runner.run and its named outputs."""
    manifest = result.manifest
    gate.check(manifest["status"] == "ok" and result.exit_code == 0,
               f"manifest status {manifest['status']!r}, exit {result.exit_code}")
    for name, ok in manifest["checks"].items():
        gate.check(ok, f"check {name} failed")
    gate.check((manifest.get("preparation") or {}).get("converged"), "SCF not converged")
    cons = containers.load_json(out_dir / "checks" / "conservation.json")
    gate.check(cons["energy_drift_rel"] <= ENERGY_DRIFT_MAX,
               f"energy drift {cons['energy_drift_rel']:.3e}")
    gate.check(cons["max_gram_deviation"] <= GRAM_DEVIATION_MAX,
               f"Gram deviation {cons['max_gram_deviation']:.3e}")
    gate.check(cons["max_projection_residual"] <= PROJECTION_RESIDUAL_MAX,
               f"projection residual {cons['max_projection_residual']:.3e}")
    gate.check(cons["trace_constant"], "trace not constant")
    header, rows = containers.read_csv(out_dir / "conservation.csv")
    outputs["final_energy"] = float(rows[-1][header.index("energy")])
    header, rows = containers.read_csv(out_dir / "commutators.csv")
    outputs["final_comm_x"] = sum(float(v) for h, v in zip(header, rows[-1])
                                  if h.startswith("comm_x_"))
    for check in ("exp_bound", "exchange_bound"):
        reports = containers.load_json(out_dir / "checks" / f"{check}.json")["reports"]
        outputs[f"min_{check}_margin"] = min(r["min_margin"] for r in reports)
    kinetic = containers.load_json(out_dir / "checks" / "kinetic_ratio.json")["reports"]
    outputs["max_kinetic_ratio"] = max(r["max_ratio"] for r in kinetic)
    outputs["scf_iterations"] = manifest["preparation"]["iterations"]


def run_grid(scenario, spec: dict, tmp: Path, timer) -> tuple:
    """quench_hf / hartree_phase_space: runner.run, then the optional Vlasov leg."""
    out_dir = tmp / "out"
    outputs: dict = {}
    failed = 0

    timer.start()
    try:
        result = runner.run(scenario, out_dir)
    except Exception:
        timer.stop()
        return {"errors": [traceback.format_exc(limit=3)]}, spec["ops"]
    legs = []
    if "vlasov_dt" in spec:
        try:
            legs.append(vlasov_leg(scenario, spec, out_dir))
        except Exception:
            legs.append(traceback.format_exc(limit=3))
    timer.stop()

    errors: list[str] = []
    gate = Gate()
    check_run(gate, result, out_dir, outputs)
    failed += bool(gate.errors)
    errors += gate.errors
    for leg in legs:
        if isinstance(leg, str):
            failed += 1
            errors.append(leg)
            continue
        gate = Gate()
        mass0, mass1, cmp = leg
        gate.check(abs(mass1 - mass0) <= VLASOV_MASS_TOL,
                   f"Vlasov mass {mass0!r} -> {mass1!r}")
        outputs["vlasov_wigner_l2"] = cmp["l2"]
        failed += bool(gate.errors)
        errors += gate.errors
    return {"outputs": outputs, "errors": errors}, failed


def vlasov_leg(scenario, spec: dict, out_dir: Path):
    grid = scenario.build_grid()
    potential = scenario.build_potential(grid)
    initial = containers.load_orbitals(out_dir / "initial_state.rhfs")
    final = containers.load_orbitals(out_dir / "final_state.rhfs")
    w0 = diagnostics.wigner_transform(initial)
    w1 = diagnostics.wigner_transform(final)
    field = vlasov.PhaseSpaceField.from_wigner(w0)
    moved = vlasov.vlasov_run(field, potential, scenario[("model", "m0")],
                              dt=spec["vlasov_dt"], t_final=spec["steps"] * DT)
    return field.mass(), moved.mass(), vlasov.compare_to_wigner(moved, w1)


def run_oracle(spec: dict, params: dict, timer) -> tuple:
    """ed_oracle: exact evolution vs mode-space HF, one op per particle number."""
    eps, coupling = params["epsilon"], params["coupling"]
    disp = Dispersion.relativistic(1.0)
    vhat = lambda q: np.exp(-0.5 * q**2)
    step_t = spec["dt"] * spec["sample_every"]
    outputs: dict = {"basis_size": 0, "hamiltonian_nnz": 0}
    errors: list[str] = []
    failed = 0
    timer.start()
    for n_part in spec["particle_numbers"]:
        gate = Gate()
        try:
            basis = ed.FockBasis(spec["n_modes"], n_part, 2.0 * np.pi)
            modes = ed.fermi_sea_modes(basis, disp, eps)
            h = ed.build_hamiltonian(basis, disp, eps, vhat, coupling=coupling)
            psi = ed.slater_vector(basis, modes)
            e0 = np.vdot(psi, h @ psi).real
            gammas = [ed.reduced_density_1(psi, basis)]
            for _ in range(int(round(spec["t_final"] / step_t))):
                psi = ed.evolve_exact(psi, h, step_t, eps)
                gammas.append(ed.reduced_density_1(psi, basis))
            _, hf_gammas = ed.hf_mode_evolution(basis, disp, eps, vhat, coupling, modes,
                                                spec["t_final"], spec["dt"],
                                                sample_every=spec["sample_every"])
            gaps = ed.mean_field_gap(gammas, hf_gammas)
        except Exception:
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            continue
        timer.pause()
        gate.check(abs(np.linalg.norm(psi) - 1.0) <= ORACLE_TOL, f"N={n_part} unitarity")
        energy = np.vdot(psi, h @ psi).real
        gate.check(abs(energy - e0) <= ORACLE_TOL * max(1.0, abs(e0)), f"N={n_part} energy")
        gate.check(gaps[0] == 0.0, f"N={n_part} gap at t=0 is {gaps[0]!r}")
        gate.check(np.max(gaps) <= ORACLE_GAP_MAX, f"N={n_part} gap {np.max(gaps)!r}")
        outputs[f"max_gap_N{n_part}"] = float(np.max(gaps))
        outputs["basis_size"] += basis.size
        outputs["hamiltonian_nnz"] += int(h.nnz)
        failed += bool(gate.errors)
        errors += gate.errors
        timer.resume()
    timer.stop()
    return {"outputs": outputs, "errors": errors}, failed


class Timer:
    """Wall and CPU time of the op, excluding paused output checks.

    `first` and `last` bound the timed work in perf_counter time.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.first = self.last = None

    def start(self):
        self._t, self._c = time.perf_counter(), time.process_time()
        if self.first is None:
            self.first = self._t

    def pause(self):
        self.last = time.perf_counter()
        self.wall += self.last - self._t
        self.cpu += time.process_time() - self._c

    resume = start
    stop = pause


def compare_reference(workload: str, outputs: dict) -> list[str]:
    reference = json.loads(REFERENCE_FILE.read_text()).get(workload)
    if reference is None:
        return [f"no reference outputs for {workload}"]
    errors = []
    for name, ref in reference.items():
        got = outputs.get(name)
        if got is None or not math.isclose(got, ref, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            errors.append(f"{name} = {got!r}, reference {ref!r}")
    return errors


def layer_table(params: dict, tmp: Path, tracer) -> dict:
    """Median ms of one step and one block h-apply at N in TABLE_NS, HF and Hartree."""
    table = {}
    for n_part in TABLE_NS:
        ini = tmp / f"table_{n_part}.ini"
        spec = dict(WORKLOADS["quench_hf"], steps=TABLE_STEPS + 1)
        write_grid_scenario(ini, f"table_{n_part}", spec, params, n_particles=n_part)
        scenario = scenarios.load_scenario(ini)
        grid = scenario.build_grid()
        disp = scenario.build_dispersion()
        potential = scenario.build_potential(grid)
        prep = scf.scf_minimize(grid, potential, n_part, disp, scf.ScfConfig())
        for flow, exchange_on in (("hf", True), ("hartree", False)):
            config = propagate.EvolutionConfig(dt=DT, t_final=(TABLE_STEPS + 1) * DT,
                                               dispersion=disp, exchange_on=exchange_on)
            state = propagate.SimState(0.0, prep.orbitals, potential, config)
            state = propagate.step(state)  # warm-up
            tracer.clear()
            for _ in range(TABLE_STEPS):
                state = propagate.step(state)
            table[f"propagate.step.median_ms.{flow}.N{n_part}"] = tracing.median_ms(
                tracer.spans, "propagate.step")
            table[f"propagate.h_apply.median_ms.{flow}.N{n_part}"] = tracing.median_ms(
                tracer.spans, tracing.MATVEC)
    return table


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "RHFLAB_WORKERS": os.environ.get(runner.WORKERS_ENV),
    }


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=SPAWNED_AT,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first timed call and report the set-up time")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    params = draw_params(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR / "tmp"))
    try:
        if args.workload != "ed_oracle":
            ini = tmp / f"{args.workload}.ini"
            write_grid_scenario(ini, args.workload, spec, params)
            scenario = scenarios.load_scenario(ini)
        setup_raw = time.monotonic() - args.spawned_at
        setup_slowdown = PROBE.slowdown(0.0, time.perf_counter())
        setup = {"setup_s_raw": setup_raw, "setup_slowdown": setup_slowdown,
                 "setup_s": setup_raw / setup_slowdown if setup_slowdown else None}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        timer = Timer()
        if args.workload == "ed_oracle":
            result, failed = run_oracle(spec, params, timer)
        else:
            result, failed = run_grid(scenario, spec, tmp, timer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_slowdown = PROBE.slowdown(timer.first, timer.last)
        outputs = result.get("outputs", {})
        if args.seed == DEFAULT_SEED and failed == 0:
            ref_errors = compare_reference(args.workload, outputs)
            if ref_errors:
                failed = 1
                result["errors"] = result.get("errors", []) + ref_errors
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "params": params,
            **setup,
            "wall_s_raw": timer.wall,
            "wall_slowdown": wall_slowdown,
            "wall_s": timer.wall / wall_slowdown if wall_slowdown else None,
            "cpu_s": timer.cpu,
            "peak_rss_mib": peak_rss_mib,
            "attempted": spec["ops"],
            "failed": min(failed, spec["ops"]),
            "errors": result.get("errors", []),
            "outputs": outputs,
            "env": environment(),
        }
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans)
            layers["process.cpu_s"] = timer.cpu
            layers["ed.basis_size"] = outputs.get("basis_size", 0)
            layers["ed.hamiltonian_nnz"] = outputs.get("hamiltonian_nnz", 0)
            spans_file = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_file)
            layers.update(layer_table(draw_params("quench_hf", args.seed), tmp, tracer))
            report["layers"] = layers
            report["spans_file"] = str(spans_file.relative_to(ROOT))
            report["trace_missing"] = tracer.missing
    finally:
        PROBE.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
