"""Run the benchmark's workloads and keep their result lines.

    python3 scripts/bench_trajectory.py LABEL [--checkout DIR] [--seed 0] [--seconds 40]
    python3 scripts/bench_trajectory.py LABEL --against DIR [--checkout DIR] [--seed 0]
        [--seconds 40]
    python3 scripts/bench_trajectory.py LABEL --crossover [--checkout DIR]
    python3 scripts/bench_trajectory.py LABEL --layers [--checkout DIR]

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

The third form times one exponential-midpoint HF step of the checkout on
each mean-field path (dense, pair; `scf.MeanField`) at n in CROSSOVER_NS
and N in CROSSOVER_PARTICLES on 1D grids, and at 32² and 64² with N = 8,
all at one BLAS thread.  Every case starts from a fixed kicked SCF state
(the 64² state is the 32² one interpolated spectrally, because a dense SCF
at 64² takes minutes); each repetition steps that same state once per path,
the paths interleaved, and the run records the median, the quartiles and
the path the rule picks.  It also fits the rule's constant c of
c·n^d <= N²·log2(n^d) to these times (`fit_dense_cost`).  The run, with
the checkout's commit and the host's CPU count and versions, is appended
to the list `crossover` of BENCH_<LABEL>.json, so every run made stays on
record; the file's other keys are kept.

The fourth form times layers of the checkout by perfbench's layer names,
at one BLAS thread, on the crossover's trapped 1D setup at n = LAYER_N and
N in LAYER_PARTICLES: ms per `scf.scf_minimize`, and ms per energy of its
ground state by `scf.hf_energy` and by `scf.MeanField.energy` on the dense
path, given the real ω/N the SCF holds.  Each repetition runs every layer
once, interleaved, and the run records per N and layer the median and
quartiles of LAYER_REPS repetitions, and beside each layer the tracemalloc
live peak of one call, in KiB above what was live before it (`peak_kib`);
every slice below records both.  Its ED slice times, the same way, ms per
`ed.build_hamiltonian`, per `ed.evolve_exact` sample (one step of
ED_SAMPLE_T from the Fermi sea) and per `ed.ModeMeanField.mean_field` (at
the Fermi sea's density) for each case of ED_LAYER_CASES: 16 modes with
N = 2..5 at the ed_oracle workload's ε = 1, coupling 0.2, and 20 modes with
N = 7 at the resolved-gap test's ε = 0.25, coupling 2.  Its diagnostics
slice times, the same way and on the SCF ground state at each N kicked by
e^{2πix/L}, ms per `diagnostics.commutator_channels`, `exp_bound_check` (the
runner's 16 phase samples), `exchange_double_commutator_check` in the
form `orbitals.apply_exchange` picks and, where the checkout has both forms
(`orbitals._dense_exchange`, `_loop_exchange`), with each forced
(`[dense]`, `[loop]`),
`kinetic_double_commutator_check` (m0 = 1), `wigner_transform`,
`vlasov.vlasov_step` (dt = VLASOV_DT, from the state's Wigner transform) and
`vlasov.vlasov_run` over VLASOV_STEPS steps of VLASOV_DT from the same field,
recorded in ms per step, since a run fuses the half x-shifts of adjacent
steps and a single step cannot show that.
`commutator_channels` gets a new OrbitalSet per call, so it pays the base
channels; every other check gets one set whose channels it has already read
where the checkout keeps them (`OrbitalSet.base_channels`), so it is timed
for its own work, and the slice's layers sum to one sample's cost on either
side.  Its propagation slice times, for each (d, n, N) of PROPAGATION_CASES
on the trapped setup, ms per `propagate.step` (exponential midpoint,
dt = PROPAGATION_DT) and per block h-apply on the N orbitals (`krylov.matvec`,
the MeanField's closure of the state), for each flow of PROPAGATION_FLOWS
(Hartree, HF on the pair path, HF on the dense path), from two starts: the
SCF ground state kicked by `kick` and released from the trap (`released`), and
the ground state kept in its trap (`stationary`), on which a step barely
moves the orbitals.  Per case it also records the Krylov matvecs per solve
of one step.  PROPAGATION_RK4 is timed the same way under RK4 with HF on
the pair path.  Where the checkout has both forms, its exchange slice
times the exchange check with each form forced, the same way, for each
(d, n, N) of EXCHANGE_LAYER_CASES on a seeded random orthonormal state:
both sides of each dimension's crossover, and 64² above the check's size
cap.  Per case it records the form
`apply_exchange` picks, the medians and quartiles and each form's
tracemalloc peak, and per dimension it fits the cost c of
c·n^d <= N²·log2(n^d) to the cases within the cap (`fit_dense_cost`).
The run is appended
to the list `layers` of BENCH_<LABEL>.json, as `--crossover` appends to
`crossover`.  Both forms store the host's load averages (os.getloadavg)
taken before and after the run in the block they append, as `loadavg`.

The first two forms rewrite every key of BENCH_<LABEL>.json but
`crossover` and `layers`: the machine, the commits and the workloads are
those of the runs just made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
CROSSOVER_NS = (64, 128, 256)
CROSSOVER_PARTICLES = (2, 4, 8, 16)
CROSSOVER_2D = ((32, 8), (64, 8))  # (n per axis, N)
CROSSOVER_REPS = 7
LAYER_N = 256
LAYER_PARTICLES = (8, 16, 32)
LAYER_REPS = 9
# (modes, particles, ε, coupling) of the ED slice of --layers
ED_LAYER_CASES = ((16, 2, 1.0, 0.2), (16, 3, 1.0, 0.2), (16, 4, 1.0, 0.2), (16, 5, 1.0, 0.2),
                  (20, 7, 0.25, 2.0))
ED_SAMPLE_T = 0.1
VLASOV_DT = 0.0025  # the hartree_phase_space workload's Vlasov step
VLASOV_STEPS = 120  # and the steps of its Vlasov leg
# (d, n per axis, N) of the propagation slice of --layers, and its RK4 case
PROPAGATION_CASES = tuple((1, n, n_part) for n in (128, 256) for n_part in (4, 8, 16, 32)) + (
    (2, 64, 8),)
PROPAGATION_RK4 = (1, 256, 12)
PROPAGATION_DT = 1e-3
# flow of the propagation slice -> (exchange_on, MeanField path)
PROPAGATION_FLOWS = {"hartree": (False, "pair"), "hf-pair": (True, "pair"),
                     "hf-dense": (True, "dense")}
# (d, n per axis, N) of the exchange slice of --layers
EXCHANGE_LAYER_CASES = (
    (1, 256, 2), (1, 256, 4), (1, 256, 5), (1, 256, 6), (1, 256, 7), (1, 256, 8), (1, 256, 16),
    (1, 512, 8), (1, 512, 10), (1, 512, 12), (1, 512, 14),
    (1, 1024, 12), (1, 1024, 16), (1, 1024, 18), (1, 1024, 20),
    (2, 16, 3), (2, 16, 4), (2, 16, 5), (2, 16, 8),
    (2, 32, 8), (2, 32, 10), (2, 32, 12), (2, 32, 16),
    (3, 8, 2), (3, 8, 3), (3, 8, 4), (3, 8, 6),
    (2, 64, 16), (2, 64, 32))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# kept across runs of every form: each --crossover or --layers run is appended
RECORD_LISTS = ("crossover", "layers")


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


def load_checkout(checkout: Path) -> None:
    """Make the checkout's rhflab importable at one BLAS thread."""
    for name in BLAS_THREAD_VARS:  # read when numpy loads its BLAS
        os.environ[name] = "1"
    sys.path.insert(0, str(checkout / "src"))


def host_record(checkout: Path) -> dict:
    import numpy as np

    return {"commit": commit_of(checkout),
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__}}


def trapped_setup(dim: int, n: int, n_part: int):
    """(grid, potential) of the trapped setup the crossover and layers runs share."""
    import numpy as np
    from rhflab.grids import Grid, PotentialSpec, gaussian_vhat, harmonic_trap

    grid = Grid(dim, n, 4.0 * np.pi, 1.0 / n_part)
    pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                        coupling=0.5)
    return grid, pot


def ground_state(dim: int, n: int, n_part: int):
    """The SCF ground state of the trapped setup as an (N, *grid.shape) array.

    On 2D grids above 32² it is the 32² state interpolated spectrally, because
    a dense SCF at 64² takes minutes.
    """
    import numpy as np
    from rhflab import scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet, reorthonormalize

    grid, pot = trapped_setup(dim, n, n_part)
    if dim == 2 and n > 32:  # interpolate the 32² state: pad its spectrum
        coarse = ground_state(dim, 32, n_part)
        spec = np.fft.fftshift(np.fft.fft2(coarse), axes=(1, 2))
        pad = (n - 32) // 2
        spec = np.pad(spec, ((0, 0), (pad, pad), (pad, pad)))
        fine = np.fft.ifft2(np.fft.ifftshift(spec, axes=(1, 2))) * (n / 32) ** 2
        return reorthonormalize(OrbitalSet(fine, grid, validate=False)).orbitals
    return scf.scf_minimize(grid, pot, n_part, Dispersion.relativistic(1.0),
                            scf.ScfConfig()).orbitals.orbitals


def kick(grid):
    """e^{2πi·Σx/L}: one momentum quantum along every axis."""
    import numpy as np

    return np.exp(1j * sum(2.0 * np.pi / grid.box_length * x for x in grid.x_mesh))


def crossover(checkout: Path) -> dict:
    """One crossover run: ms per midpoint step on each path (module docstring)."""
    load_checkout(checkout)
    import time

    from rhflab import propagate, scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet

    disp = Dispersion.relativistic(1.0)
    cases = [(1, n, n_part) for n in CROSSOVER_NS for n_part in CROSSOVER_PARTICLES]
    cases += [(2, n, n_part) for n, n_part in CROSSOVER_2D]
    block = dict(host_record(checkout), reps=CROSSOVER_REPS, dt=1e-3,
                 dense_cost=scf.DENSE_COST, cases=[])
    for dim, n, n_part in cases:
        grid, pot = trapped_setup(dim, n, n_part)
        orbs = OrbitalSet(ground_state(dim, n, n_part) * kick(grid), grid, validate=False)
        config = propagate.EvolutionConfig(dt=1e-3, t_final=1e-3, dispersion=disp)
        inputs = (grid, pot, disp, config.scheme, True, False, n_part)
        states = {path: propagate.SimState(0.0, orbs, pot, config,
                                           mean_field=scf.MeanField.for_evolution(
                                               *inputs, path=path))
                  for path in scf.PATHS}
        times = {path: [] for path in states}
        for path, state in states.items():  # warm-up
            propagate.step(state)
        for _ in range(CROSSOVER_REPS):
            for path, state in states.items():
                start = time.perf_counter()
                propagate.step(state)
                times[path].append(1e3 * (time.perf_counter() - start))
        del states
        case = {"dim": dim, "n": n, "N": n_part,
                "rule": scf.MeanField.for_evolution(*inputs).path,
                "ms": {path: summarize(ms) for path, ms in times.items()}}
        block["cases"].append(case)
        print(f"crossover {n}^{dim} N={n_part}: " + ", ".join(
            f"{path} {stats['median']:.3g} ms" for path, stats in case["ms"].items())
            + f"; rule picks {case['rule']}")
    block["fit"] = fit_dense_cost(block["cases"])
    print(f"crossover fit: {block['fit']}")
    return block


def interleaved_ms(calls: dict, reps: int) -> dict:
    """Median and quartiles of ms per call, the calls run in turn in each of reps rounds."""
    import time

    times = {name: [] for name in calls}
    for call in calls.values():  # warm-up
        call()
    for _ in range(reps):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(1e3 * (time.perf_counter() - start))
    return {name: summarize(ms) for name, ms in times.items()}


def ed_layers() -> list[dict]:
    """The ED slice of a layers run (module docstring)."""
    import numpy as np
    from rhflab import ed
    from rhflab.grids import Dispersion

    disp = Dispersion.relativistic(1.0)
    vhat = lambda q: np.exp(-0.5 * q**2)
    cases = []
    for n_modes, n_part, eps, coupling in ED_LAYER_CASES:
        basis = ed.FockBasis(n_modes, n_part, 2.0 * np.pi)
        h = ed.build_hamiltonian(basis, disp, eps, vhat, coupling)
        psi = ed.slater_vector(basis, ed.fermi_sea_modes(basis, disp, eps))
        mean_field = ed.ModeMeanField(basis, disp, eps, vhat, coupling)
        gamma = ed.reduced_density_1(psi, basis)
        calls = {
            "ed.build_hamiltonian": lambda: ed.build_hamiltonian(basis, disp, eps, vhat,
                                                                 coupling),
            "ed.evolve_exact": lambda: ed.evolve_exact(psi, h, ED_SAMPLE_T, eps),
            "ed.ModeMeanField.mean_field": lambda: mean_field.mean_field(gamma),
        }
        case = {"M": n_modes, "N": n_part, "epsilon": eps, "coupling": coupling,
                "basis_size": basis.size, "nnz": int(h.nnz),
                "ms": interleaved_ms(calls, LAYER_REPS),
                "peak_kib": {name: live_peak_kib(call) for name, call in calls.items()}}
        del h  # let the Hamiltonian go before the next case builds its own
        cases.append(case)
        print(f"layers ED M={n_modes} N={n_part}: " + ", ".join(
            f"{name} {stats['median']:.3g} ms" for name, stats in case["ms"].items()))
    return cases


def live_peak_kib(call) -> float:
    """The tracemalloc peak of one call, in KiB above what was live before it."""
    import tracemalloc

    tracemalloc.start()
    live = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (peak - live) / 1024.0


def picked_exchange_form(orbs, pot) -> str:
    """The form `orbitals.apply_exchange` picks for orbs, seen by stand-in forms."""
    from rhflab import orbitals

    saved = orbitals._dense_exchange, orbitals._loop_exchange
    orbitals._dense_exchange = lambda *args: "dense"
    orbitals._loop_exchange = lambda *args: "loop"
    try:
        return orbitals.apply_exchange(orbs, pot, orbs.orbitals)
    finally:
        orbitals._dense_exchange, orbitals._loop_exchange = saved


def forced_exchange_check(form: str, orbs, pot):
    """A call of the exchange check with apply_exchange replaced by one form."""
    from rhflab import diagnostics, orbitals

    def call():
        saved = diagnostics.apply_exchange
        diagnostics.apply_exchange = getattr(orbitals, f"_{form}_exchange")
        try:
            return diagnostics.exchange_double_commutator_check(orbs, pot)
        finally:
            diagnostics.apply_exchange = saved
    return call


def exchange_layers() -> dict:
    """The exchange slice of a layers run (module docstring)."""
    import numpy as np
    from rhflab import orbitals
    from rhflab.grids import Grid, PotentialSpec, gaussian_vhat
    from rhflab.orbitals import OrbitalSet

    rng = np.random.default_rng(0)
    cases = []
    for dim, n, n_part in EXCHANGE_LAYER_CASES:
        grid = Grid(dim, n, 4.0 * np.pi, 1.0 / n_part)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0))
        q = np.linalg.qr(rng.standard_normal((grid.size, n_part))
                         + 1j * rng.standard_normal((grid.size, n_part)))[0]
        orbs = OrbitalSet((q.T / np.sqrt(grid.cell_volume)).reshape(n_part, *grid.shape), grid,
                          validate=False)
        calls = {form: forced_exchange_check(form, orbs, pot) for form in ("dense", "loop")}
        ms = interleaved_ms(calls, LAYER_REPS)
        case = {"dim": dim, "n": n, "N": n_part, "picked": picked_exchange_form(orbs, pot),
                "ms": ms, "peak_kib": {form: live_peak_kib(call) for form, call in calls.items()}}
        cases.append(case)
        print(f"layers exchange {n}^{dim} N={n_part}: dense {ms['dense']['median']:.3g} ms, "
              f"loop {ms['loop']['median']:.3g} ms; picks {case['picked']}")
    fits = {str(dim): fit_dense_cost([c for c in cases if c["dim"] == dim
                                      and c["n"] ** dim <= orbitals.EXCHANGE_DENSE_CAP],
                                     other="loop")
            for dim in sorted({c["dim"] for c in cases})}
    print("layers exchange fit: " + ", ".join(
        f"d={dim} c in ({fit['low']:.3g}, {fit['high']:.3g}]" for dim, fit in fits.items()))
    return {"cases": cases, "fit": fits}


def diagnostics_layers(grid, pot, orbitals_block, n_part: int) -> dict:
    """The diagnostics slice of a layers run at one N (module docstring)."""
    import warnings

    import numpy as np
    from rhflab import diagnostics, orbitals, vlasov
    from rhflab.orbitals import OrbitalSet

    kick = np.exp(2j * np.pi / grid.box_length * grid.x_mesh[0])
    block = orbitals_block * kick
    orbs = OrbitalSet(block, grid, validate=False)
    diagnostics.comm_x_total(orbs)  # kept where the checkout keeps channels
    samples = diagnostics.default_phase_samples(grid)
    field = vlasov.PhaseSpaceField.from_wigner(diagnostics.wigner_transform(orbs))

    name = "diagnostics.exchange_double_commutator_check"
    calls = {
        "diagnostics.commutator_channels": lambda: diagnostics.commutator_channels(
            OrbitalSet(block, grid, validate=False)),
        "diagnostics.exp_bound_check": lambda: diagnostics.exp_bound_check(orbs, samples),
        name: lambda: diagnostics.exchange_double_commutator_check(orbs, pot),
    }
    forms = hasattr(orbitals, "_dense_exchange")
    if forms:
        calls[name + "[dense]"] = forced_exchange_check("dense", orbs, pot)
        calls[name + "[loop]"] = forced_exchange_check("loop", orbs, pot)
    calls.update({
        "diagnostics.kinetic_double_commutator_check":
            lambda: diagnostics.kinetic_double_commutator_check(orbs, 1.0),
        "diagnostics.wigner_transform": lambda: diagnostics.wigner_transform(orbs),
        "vlasov.vlasov_step": lambda: vlasov.vlasov_step(field, pot, 1.0, VLASOV_DT),
        "vlasov.vlasov_run": lambda: vlasov.vlasov_run(field, pot, 1.0, VLASOV_DT,
                                                       VLASOV_STEPS * VLASOV_DT),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # seam mass, Wigner residual, Vlasov CFL
        ms = interleaved_ms(calls, LAYER_REPS)
        peaks = {layer: live_peak_kib(call) for layer, call in calls.items()}
    ms["vlasov.vlasov_run"] = {key: value / VLASOV_STEPS
                               for key, value in ms["vlasov.vlasov_run"].items()}
    case = {"N": n_part, "exchange_form": None, "ms": ms, "peak_kib": peaks}
    if forms:
        case["exchange_form"] = picked_exchange_form(orbs, pot)
    print(f"layers diagnostics n={grid.n} N={n_part}: " + ", ".join(
        f"{layer.split('.', 1)[1]} {stats['median']:.3g} ms" for layer, stats in ms.items()))
    return case


def krylov_counts(state) -> tuple[int, int]:
    """(Krylov solves, matvecs) of one propagate.step of state."""
    from rhflab import propagate

    counts = [0, 0]
    solve = propagate.expm_apply_block

    def counting(matvec, v, tau, **kwargs):
        def counted(rows):
            counts[1] += 1
            return matvec(rows)

        counts[0] += 1
        return solve(counted, v, tau, **kwargs)

    propagate.expm_apply_block = counting
    try:
        propagate.step(state)
    finally:
        propagate.expm_apply_block = solve
    return counts[0], counts[1]


def propagation_layers() -> list[dict]:
    """The propagation slice of a layers run (module docstring)."""
    import warnings

    from rhflab import propagate, scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet

    disp = Dispersion.relativistic(1.0)
    runs = [(case, "exponential_midpoint", PROPAGATION_FLOWS) for case in PROPAGATION_CASES]
    runs.append((PROPAGATION_RK4, "rk4_frozen_field", {"hf-pair": (True, "pair")}))
    cases = []
    for (dim, n, n_part), scheme, flows in runs:
        grid, pot = trapped_setup(dim, n, n_part)
        phi = ground_state(dim, n, n_part)
        starts = {"released": (phi * kick(grid), False), "stationary": (phi, True)}
        states = {}
        for flow, (exchange_on, path) in flows.items():
            for start, (block, keep_trap) in starts.items():
                config = propagate.EvolutionConfig(
                    dt=PROPAGATION_DT, t_final=PROPAGATION_DT, scheme=scheme,
                    exchange_on=exchange_on, dispersion=disp, keep_trap=keep_trap)
                mean_field = scf.MeanField.for_evolution(
                    grid, pot, disp, scheme, exchange_on, keep_trap, n_part, path=path)
                orbs = OrbitalSet(block, grid, validate=False)
                states[flow, start] = propagate.SimState(0.0, orbs, pot, config,
                                                         mean_field=mean_field)
        calls = {}
        for (flow, start), state in states.items():
            apply_h = state.mean_field.closure(state.orbitals.orbitals)
            calls[flow, start, "propagate.step"] = lambda state=state: propagate.step(state)
            calls[flow, start, "krylov.matvec"] = (
                lambda apply_h=apply_h, block=state.orbitals.orbitals: apply_h(block))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # dt above the suggested cap
            ms = interleaved_ms(calls, LAYER_REPS)
            peaks = {key: live_peak_kib(call) for key, call in calls.items()}
            for (flow, start), state in states.items():
                solves, matvecs = krylov_counts(state)
                case = {"dim": dim, "n": n, "N": n_part, "scheme": scheme, "flow": flow,
                        "path": state.mean_field.path, "start": start,
                        "matvecs_per_solve": matvecs / solves if solves else None,
                        "ms": {layer: ms[flow, start, layer]
                               for layer in ("propagate.step", "krylov.matvec")},
                        "peak_kib": {layer: peaks[flow, start, layer]
                                     for layer in ("propagate.step", "krylov.matvec")}}
                cases.append(case)
                per_solve = (f", {case['matvecs_per_solve']:.3g} matvecs/solve"
                             if solves else "")
                print(f"layers propagation {n}^{dim} N={n_part} {scheme} {flow} {start}: "
                      f"step {case['ms']['propagate.step']['median']:.3g} ms, h-apply "
                      f"{case['ms']['krylov.matvec']['median']:.3g} ms{per_solve}")
        del states, calls
    return cases


def layers(checkout: Path) -> dict:
    """One layers run: every slice (module docstring)."""
    load_checkout(checkout)
    from rhflab import orbitals, scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet

    disp = Dispersion.relativistic(1.0)
    block = dict(host_record(checkout), reps=LAYER_REPS, n=LAYER_N, cases=[],
                 diagnostics_cases=[])
    for n_part in LAYER_PARTICLES:
        grid, pot = trapped_setup(1, LAYER_N, n_part)
        config = scf.ScfConfig()
        res = scf.scf_minimize(grid, pot, n_part, disp, config)
        phi = res.orbitals.orbitals.real.copy()
        orbs = OrbitalSet(phi, grid, validate=False)
        omega_n = scf._density_matrix_per_particle(phi, grid)
        mean_field = scf.MeanField(grid, pot, disp)
        calls = {
            "scf.scf_minimize": lambda: scf.scf_minimize(grid, pot, n_part, disp, config),
            "scf.hf_energy": lambda: scf.hf_energy(orbs, pot, disp),
            "scf.MeanField.energy": lambda: mean_field.energy(phi, omega_n),
        }
        ms = interleaved_ms(calls, LAYER_REPS)
        hf, dense = calls["scf.hf_energy"](), calls["scf.MeanField.energy"]()
        case = {"N": n_part, "scf_iterations": res.iterations,
                "energy_rel_diff": abs(dense - hf) / abs(hf), "ms": ms,
                "peak_kib": {name: live_peak_kib(call) for name, call in calls.items()}}
        block["cases"].append(case)
        print(f"layers n={LAYER_N} N={n_part}: " + ", ".join(
            f"{name} {stats['median']:.3g} ms" for name, stats in case["ms"].items()))
        block["diagnostics_cases"].append(
            diagnostics_layers(grid, pot, res.orbitals.orbitals, n_part))
    block["ed_cases"] = ed_layers()
    block["propagation_cases"] = propagation_layers()
    if hasattr(orbitals, "_dense_exchange"):
        block["exchange"] = exchange_layers()
    return block


def fit_dense_cost(cases: list[dict], other: str = "pair") -> dict:
    """The c of dense iff c·n^d <= N²·log2(n^d) that costs the least median time.

    Each case is dense iff c <= x = N²·log2(n^d)/n^d, `other` (the pair
    path, the loop form) otherwise.  The cost of a c is the time the cases
    lose over their faster path; every c in (low, high] has the least cost.
    """
    points = []
    for case in cases:
        size = case["n"] ** case["dim"]
        points.append((case["N"] ** 2 * math.log2(size) / size,
                       case["ms"]["dense"]["median"], case["ms"][other]["median"]))
    points.sort()
    edges = [0.0] + [x for x, _, _ in points] + [math.inf]
    costs = []
    for low, high in zip(edges, edges[1:]):  # c in (low, high]: dense where x >= high
        lost = sum((dense if x >= high else fft) - min(dense, fft)
                   for x, dense, fft in points)
        costs.append((lost, low, high))
    lost, low, high = min(costs)
    return {"low": low, "high": high, "lost_ms": lost}


def workload_record(args, checkout: Path) -> dict:
    """The record of the first or second form: every workload's runs on this host."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    if args.against is not None:
        parent = args.against.resolve()
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        record["commits"] = {"change": commit_of(checkout), "parent": commit_of(parent)}
        record["pairs"] = PAIRS
    for name in (w["name"] for w in spec["workloads"]):
        if args.against is not None:
            machine, record["workloads"][name] = compare_pairs(
                checkout, parent, name, args.seed, args.seconds, better)
        else:
            machine, result = run_workload(checkout, name, args.seed, args.seconds)
            record["workloads"][name] = result
            print(f"{name}: " + ", ".join(f"{k} = {m['value']:.4g}"
                                          for k, m in result["metrics"].items()))
        record["machine"], record["env"] = machine["machine"], machine["env"]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--against", type=Path, default=None,
                    help="checkout of the parent to alternate runs with")
    form = ap.add_mutually_exclusive_group()
    form.add_argument("--crossover", action="store_true",
                      help="time one step on each mean-field path in place of the workloads")
    form.add_argument("--layers", action="store_true",
                      help="time the SCF, energy, diagnostics, ED, propagation and "
                           "exchange layers in place of the workloads")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    out = ROOT / f"BENCH_{args.label}.json"
    old = json.loads(out.read_text()) if out.exists() else {}
    if args.crossover or args.layers:
        key, run = ("crossover", crossover) if args.crossover else ("layers", layers)
        record = dict(old, label=args.label)
        before = os.getloadavg()
        block = run(checkout)
        block["loadavg"] = {"before": list(before), "after": list(os.getloadavg())}
        record[key] = old.get(key, []) + [block]
    else:
        # the crossover and layers runs are kept; every other key is the runs made now
        record = workload_record(args, checkout)
        record.update((key, old[key]) for key in RECORD_LISTS if key in old)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
