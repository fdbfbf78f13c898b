"""Pair the benchmark's workloads across two checkouts, time layers, fit the dense rule.

    python3 scripts/bench_trajectory.py LABEL --against DIR [--checkout DIR] [--seed 0]
        [--seconds 40]
    python3 scripts/bench_trajectory.py LABEL --layers [--checkout DIR]
    python3 scripts/bench_trajectory.py LABEL --fit [--checkout DIR]

Exactly one of the three forms is given; each writes BENCH_<LABEL>.json next
to this repository's BENCHMARK.json.

The first form compares the checkout (the change; by default the repository
holding this script) with the checkout DIR given to --against (its parent).
For each workload in BENCHMARK.json it runs PAIRS pairs, one run of each
side per pair, the parent first in even pairs and the change first in odd
ones, all on one seed, each run in its checkout as

    python3 perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0

Ten pairs is the fewest on which a gain can be claimed: the change must win
at least nine of them.  Per end-to-end metric it prints and stores each
side's median and quartiles over the pairs and the change's win count: the
pairs in which the change is better, ties counting for neither.
BENCH_<LABEL>.json then holds the machine record perfbench prints, per
workload every pair's values and that summary, and the commit of each side.

The second form imports the checkout's rhflab once, at one BLAS thread
(`load_checkout`, in `main`), and times every case through one runner,
`time_calls`: one warm-up call of each of the case's layers, then
LAYER_REPS rounds in which the layers run in turn, so the host's drift
falls on them alike.  Every case records per layer the median and quartiles
of ms per call (`ms`) and the tracemalloc live peak of one more call, in KiB
above what was live before it (`peak_kib`).  It times layers of the
checkout by perfbench's layer names, in five slices:

- SCF and energy: on the trapped 1D setup (`trapped_setup`) at n = LAYER_N
  and N in LAYER_PARTICLES, `scf.scf_minimize`, and the energy of its
  ground state by `scf.hf_energy` and by `scf.MeanField.energy` on the
  dense path, given the real ω/N the SCF holds.
- ED: for each case of ED_LAYER_CASES (16 modes with N = 2..5 at the
  ed_oracle workload's ε = 1, coupling 0.2, and 20 modes with N = 7 at the
  resolved-gap test's ε = 0.25, coupling 2), `ed.build_hamiltonian`, one
  `ed.evolve_exact` sample (one step of ED_SAMPLE_T from the Fermi sea) and
  `ed.ModeMeanField.mean_field` at the Fermi sea's density.
- Diagnostics: on the SCF ground state at each N kicked by e^{2πix/L},
  `diagnostics.commutator_channels`, `exp_bound_check` (the runner's 16
  phase samples), `exchange_double_commutator_check` in the form
  `orbitals.apply_exchange` picks (the exchange slice times both forms),
  `kinetic_double_commutator_check` (m0 = 1), `wigner_transform`,
  `vlasov.vlasov_step` (dt = VLASOV_DT, from the state's Wigner transform)
  and `vlasov.vlasov_run` over VLASOV_STEPS steps of VLASOV_DT from the same
  field, recorded per step, since a run fuses the half x-shifts of adjacent
  steps and a single step cannot show that.  `commutator_channels` gets a
  new OrbitalSet per call, so it pays the base channels; every other check
  gets one set whose channels it has already read where the checkout keeps
  them (`OrbitalSet.base_channels`), so it is timed for its own work, and
  the slice's layers sum to one sample's cost on either side.
- Propagation: for each (d, n, N) of PROPAGATION_CASES, `propagate.step`
  (exponential midpoint) and one block h-apply on the N orbitals
  (`krylov.matvec`, the MeanField's closure of the state), for each flow of
  PROPAGATION_FLOWS (Hartree, HF on the pair path, HF on the dense path).
  Every case's grid is within the dense size cap, so each is timed on both
  paths.  A state is built by `evolution_state`: one step of PROPAGATION_DT
  at m0 = 1 on the trapped setup, from its SCF ground state, kicked by
  `kick` and released from the trap (`released`).  `ground_state` refuses an
  SCF that did not converge.  Above SCF_GRID_N points per axis the SCF runs
  on that grid and the state is interpolated spectrally; on 2D that grid is
  16², because on 32² the SCF at N = 16 stops at its iteration limit
  without converging, while on 16² it converges at every N of the table.
  On 1D the unkicked ground state kept in the trap (`stationary`) is timed
  too: a step barely moves it, so it shows the block solve's extra matvecs
  on stationary states, and on 1D it costs little.  The HF steps from the
  released start on both paths are the evolution's cases of the dense rule
  (`--fit`).  Each case also records the Krylov matvecs per solve of one
  step.  PROPAGATION_RK4 is timed the same way under RK4 with HF on the pair
  path.
- Exchange: the exchange check with each form forced (EXCHANGE_FORMS) for
  each (d, n, N) of EXCHANGE_LAYER_CASES on a seeded random orthonormal
  state, both sides of each dimension's crossover.  Each case records the
  form `apply_exchange` picks and the rows B = (d+1)·N and applies k = 1.
  The slice fits nothing itself; `--fit` reads it.

The run, with the checkout's commit, the host's CPU count and versions and
its load averages (os.getloadavg) before and after it (`loadavg`), is
appended to the list `layers` of BENCH_<LABEL>.json, so every run made
stays on record; the file's other keys are kept.  Earlier files also hold
`crossover` runs, `exchange_chunks` blocks and layers runs of retired forms,
all kept as data that `--fit` does not read.

The third form runs nothing: it gathers every case timed on both sides in
the `layers` runs of this repository's BENCH_*.json files whose exchange
slice timed the `fft` form (`recorded_cases`).  Those are the propagation
slices' HF steps from the released start as the evolution's cases, with
B = N and k = the checkout's `scf.MATVECS_PER_SOLVE`, the k that
`scf.MeanField.for_evolution` decides with (each case's recorded matvecs
per solve would score placements the checkout never makes), and the
exchange slices' cases as the check's, with the B and k they record.  It
fits one constant per dimension of the rule dense iff
r = (N + k·B)·n^d / (k·B·N·log2(n^d)) <= c (`dense_ratio`), and prints and
stores as `fit` the median ms the checkout's DENSE_COST loses over the
faster side, summed over the cases, and its margin: that loss less the
least-loss constants' loss, which says whether a refit would pay.  One run
read this way timed a retired form under the name `fft`: the first layers
run of BENCH_pr21.json, taken at the parent of the change that made the one
FFT exchange form; its 39 cases lose 3.2 ms under DENSE_COST = (7.75, 12.5, 15).

The first form rewrites every key of BENCH_<LABEL>.json but `crossover`,
`layers` and `fit`: the machine, the commits and the workloads are those of
the pairs just run.
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
# per d: the grid a ground state is computed on by SCF; finer grids get it
# interpolated spectrally, because on 32² the SCF at N = 16 does not converge
SCF_GRID_N = {1: 1 << 30, 2: 16}
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
PROPAGATION_CASES = tuple(
    (1, n, n_part) for n in (64, 128, 256) for n_part in (2, 4, 8, 16, 32)) + (
    (1, 1024, 12), (2, 32, 8), (2, 64, 8), (2, 64, 16), (2, 64, 32))
PROPAGATION_RK4 = (1, 256, 12)
PROPAGATION_DT = 1e-3
# flow of the propagation slice -> (exchange_on, MeanField path)
PROPAGATION_FLOWS = {"hartree": (False, "pair"), "hf-pair": (True, "pair"),
                     "hf-dense": (True, "dense")}
# (d, n per axis, N) of the exchange slice of --layers
EXCHANGE_LAYER_CASES = (
    (1, 256, 2), (1, 256, 4), (1, 256, 5), (1, 256, 6), (1, 256, 7), (1, 256, 8), (1, 256, 16),
    (1, 256, 32), (1, 512, 8), (1, 512, 10), (1, 512, 12), (1, 512, 14),
    (1, 1024, 12), (1, 1024, 16), (1, 1024, 18), (1, 1024, 20),
    (2, 16, 3), (2, 16, 4), (2, 16, 5), (2, 16, 8),
    (2, 32, 8), (2, 32, 10), (2, 32, 12), (2, 32, 16),
    (3, 8, 2), (3, 8, 3), (3, 8, 4), (3, 8, 6),
    (2, 64, 16), (2, 64, 32), (2, 64, 48))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the exchange check's forms, dense first: `orbitals._exchange_matrix` and `_fft_exchange`
EXCHANGE_FORMS = ("dense", "fft")
# kept across runs of every form: each --layers run is appended, --fit replaces
# its block, and the retired --crossover's runs stay as data that --fit does not read
KEPT_KEYS = ("crossover", "layers", "fit")


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


def time_calls(label: str, calls: dict, reps: int) -> dict:
    """{"ms": median and quartiles of ms per call, "peak_kib": live peak per call}.

    Each call runs once as a warm-up, then reps rounds run the calls in
    turn; the peak is the tracemalloc peak of one more call, in KiB above
    what was live before it.  Prints one line headed by label.
    """
    import time
    import tracemalloc

    times = {name: [] for name in calls}
    for call in calls.values():  # warm-up
        call()
    for _ in range(reps):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(1e3 * (time.perf_counter() - start))
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        live = tracemalloc.get_traced_memory()[0]
        call()
        peaks[name] = (tracemalloc.get_traced_memory()[1] - live) / 1024.0
        tracemalloc.stop()
    ms = {name: summarize(values) for name, values in times.items()}
    print(f"{label}: " + ", ".join(f"{name} {stats['median']:.3g} ms"
                                   for name, stats in ms.items()), flush=True)
    return {"ms": ms, "peak_kib": peaks}


def trapped_setup(dim: int, n: int, n_part: int):
    """(grid, potential) of the trapped setup of the SCF, diagnostics and propagation slices."""
    import numpy as np
    from rhflab.grids import Grid, PotentialSpec, gaussian_vhat, harmonic_trap

    grid = Grid(dim, n, 4.0 * np.pi, 1.0 / n_part)
    pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                        coupling=0.5)
    return grid, pot


def ground_state(dim: int, n: int, n_part: int):
    """The SCF ground state of the trapped setup as an (N, *grid.shape) array.

    Above SCF_GRID_N[dim] points per axis it is the state on that grid
    interpolated spectrally.  Raises RuntimeError, naming (d, n, N), where
    the SCF does not converge.
    """
    import numpy as np
    from rhflab import scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet, reorthonormalize

    grid, pot = trapped_setup(dim, n, n_part)
    coarse_n = SCF_GRID_N[dim]
    if n > coarse_n:  # interpolate the coarse state: pad its spectrum
        axes = tuple(range(1, dim + 1))
        coarse = ground_state(dim, coarse_n, n_part)
        spec = np.fft.fftshift(np.fft.fftn(coarse, axes=axes), axes=axes)
        pad = (n - coarse_n) // 2
        spec = np.pad(spec, ((0, 0),) + ((pad, pad),) * dim)
        fine = np.fft.ifftn(np.fft.ifftshift(spec, axes=axes), axes=axes) * (n / coarse_n) ** dim
        return reorthonormalize(OrbitalSet(fine, grid, validate=False)).orbitals
    res = scf.scf_minimize(grid, pot, n_part, Dispersion.relativistic(1.0), scf.ScfConfig())
    if not res.converged:
        raise RuntimeError(f"the SCF at (d, n, N) = ({dim}, {n}, {n_part}) did not converge "
                           f"in {res.iterations} iterations")
    return res.orbitals.orbitals


def kick(grid):
    """e^{2πi·Σx/L}: one momentum quantum along every axis."""
    import numpy as np

    return np.exp(1j * sum(2.0 * np.pi / grid.box_length * x for x in grid.x_mesh))


def evolution_state(grid, pot, block, n_part: int, scheme: str, exchange_on: bool,
                    keep_trap: bool, path: str | None):
    """The SimState of block for one step of PROPAGATION_DT at m0 = 1.

    Its MeanField runs on path, or on the path the rule picks where path is None.
    """
    from rhflab import propagate, scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet

    disp = Dispersion.relativistic(1.0)
    config = propagate.EvolutionConfig(dt=PROPAGATION_DT, t_final=PROPAGATION_DT, scheme=scheme,
                                       exchange_on=exchange_on, dispersion=disp,
                                       keep_trap=keep_trap)
    mean_field = scf.MeanField.for_evolution(grid, pot, disp, scheme, exchange_on, keep_trap,
                                             n_part, path=path)
    return propagate.SimState(0.0, OrbitalSet(block, grid, validate=False), pot, config,
                              mean_field=mean_field)


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
        build = lambda: ed.build_hamiltonian(basis, disp, eps, vhat, coupling)
        h = build()
        psi = ed.slater_vector(basis, ed.fermi_sea_modes(basis, disp, eps))
        mean_field = ed.ModeMeanField(basis, disp, eps, vhat, coupling)
        gamma = ed.reduced_density_1(psi, basis)
        calls = {
            "ed.build_hamiltonian": build,
            "ed.evolve_exact": lambda: ed.evolve_exact(psi, h, ED_SAMPLE_T, eps),
            "ed.ModeMeanField.mean_field": lambda: mean_field.mean_field(gamma),
        }
        cases.append({"M": n_modes, "N": n_part, "epsilon": eps, "coupling": coupling,
                      "basis_size": basis.size, "nnz": int(h.nnz),
                      **time_calls(f"layers ED M={n_modes} N={n_part}", calls, LAYER_REPS)})
        del h, calls  # let the Hamiltonian go before the next case builds its own
    return cases


def picked_exchange_form(orbs) -> str:
    """The form `orbitals.apply_exchange` picks for the check on orbs."""
    from rhflab import orbitals

    rows = (orbs.grid.dim + 1) * orbs.n_particles
    return "dense" if orbitals.dense_pays(orbs.grid, orbs.n_particles, rows, 1) else "fft"


def forced_exchange_check(form: str, orbs, pot):
    """A call of the exchange check with its exchange form forced."""
    from rhflab import diagnostics, orbitals

    def call():
        saved = orbitals.dense_pays
        orbitals.dense_pays = lambda *args: form == "dense"
        try:
            return diagnostics.exchange_double_commutator_check(orbs, pot)
        finally:
            orbitals.dense_pays = saved
    return call


def exchange_layers() -> dict:
    """The exchange slice of a layers run (module docstring)."""
    import numpy as np
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
        picked = picked_exchange_form(orbs)
        calls = {form: forced_exchange_check(form, orbs, pot) for form in EXCHANGE_FORMS}
        cases.append({"dim": dim, "n": n, "N": n_part, "rows": (dim + 1) * n_part, "applies": 1,
                      "picked": picked, **time_calls(
                          f"layers exchange {n}^{dim} N={n_part}, picks {picked}", calls,
                          LAYER_REPS)})
    return {"cases": cases}


def diagnostics_layers(grid, pot, orbitals_block, n_part: int) -> dict:
    """The diagnostics slice of a layers run at one N (module docstring)."""
    import warnings

    from rhflab import diagnostics, vlasov
    from rhflab.orbitals import OrbitalSet

    block = orbitals_block * kick(grid)
    orbs = OrbitalSet(block, grid, validate=False)
    diagnostics.comm_x_total(orbs)  # kept where the checkout keeps channels
    samples = diagnostics.default_phase_samples(grid)
    field = vlasov.PhaseSpaceField.from_wigner(diagnostics.wigner_transform(orbs))

    calls = {
        "diagnostics.commutator_channels": lambda: diagnostics.commutator_channels(
            OrbitalSet(block, grid, validate=False)),
        "diagnostics.exp_bound_check": lambda: diagnostics.exp_bound_check(orbs, samples),
        "diagnostics.exchange_double_commutator_check":
            lambda: diagnostics.exchange_double_commutator_check(orbs, pot),
        "diagnostics.kinetic_double_commutator_check":
            lambda: diagnostics.kinetic_double_commutator_check(orbs, 1.0),
        "diagnostics.wigner_transform": lambda: diagnostics.wigner_transform(orbs),
        "vlasov.vlasov_step": lambda: vlasov.vlasov_step(field, pot, 1.0, VLASOV_DT),
        "vlasov.vlasov_run": lambda: vlasov.vlasov_run(field, pot, 1.0, VLASOV_DT,
                                                       VLASOV_STEPS * VLASOV_DT),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # seam mass, Wigner residual, Vlasov CFL
        timed = time_calls(f"layers diagnostics n={grid.n} N={n_part}", calls, LAYER_REPS)
    timed["ms"]["vlasov.vlasov_run"] = {key: value / VLASOV_STEPS
                                        for key, value in timed["ms"]["vlasov.vlasov_run"].items()}
    return {"N": n_part, "exchange_form": picked_exchange_form(orbs), **timed}


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

    from rhflab import propagate

    runs = [(case, "exponential_midpoint", PROPAGATION_FLOWS) for case in PROPAGATION_CASES]
    runs.append((PROPAGATION_RK4, "rk4_frozen_field", {"hf-pair": (True, "pair")}))
    layer_names = ("propagate.step", "krylov.matvec")
    cases = []
    for (dim, n, n_part), scheme, flows in runs:
        grid, pot = trapped_setup(dim, n, n_part)
        phi = ground_state(dim, n, n_part)
        starts = {"released": (phi * kick(grid), False)}
        if dim == 1:  # --fit reads only the released start, and on 2D this one is slow
            starts["stationary"] = (phi, True)
        states = {(flow, start): evolution_state(grid, pot, block, n_part, scheme, exchange_on,
                                                 keep_trap, path)
                  for flow, (exchange_on, path) in flows.items()
                  for start, (block, keep_trap) in starts.items()}
        calls = {}
        for (flow, start), state in states.items():
            apply_h = state.mean_field.closure(state.orbitals.orbitals)
            calls[f"{flow} {start} propagate.step"] = lambda state=state: propagate.step(state)
            calls[f"{flow} {start} krylov.matvec"] = (
                lambda apply_h=apply_h, block=state.orbitals.orbitals: apply_h(block))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # dt above the suggested cap
            timed = time_calls(f"layers propagation {n}^{dim} N={n_part} {scheme}", calls,
                               LAYER_REPS)
            for (flow, start), state in states.items():
                solves, matvecs = krylov_counts(state)
                cases.append({"dim": dim, "n": n, "N": n_part, "scheme": scheme, "flow": flow,
                              "path": state.mean_field.path, "start": start,
                              "matvecs_per_solve": matvecs / solves if solves else None,
                              **{part: {layer: timed[part][f"{flow} {start} {layer}"]
                                        for layer in layer_names} for part in timed}})
        del states, calls
    return cases


def layers(checkout: Path) -> dict:
    """One layers run: every slice (module docstring)."""
    import numpy as np
    from rhflab import scf
    from rhflab.grids import Dispersion
    from rhflab.orbitals import OrbitalSet

    disp = Dispersion.relativistic(1.0)
    host = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    block = {"commit": commit_of(checkout), "host": host, "reps": LAYER_REPS, "n": LAYER_N,
             "cases": [], "diagnostics_cases": []}
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
        timed = time_calls(f"layers n={LAYER_N} N={n_part}", calls, LAYER_REPS)
        hf, dense = calls["scf.hf_energy"](), calls["scf.MeanField.energy"]()
        block["cases"].append({"N": n_part, "scf_iterations": res.iterations,
                               "energy_rel_diff": abs(dense - hf) / abs(hf), **timed})
        block["diagnostics_cases"].append(
            diagnostics_layers(grid, pot, res.orbitals.orbitals, n_part))
    block["ed_cases"] = ed_layers()
    block["propagation_cases"] = propagation_layers()
    block["exchange"] = exchange_layers()
    return block


def dense_ratio(case: dict) -> float:
    """r = (N + k·B)·n^d / (k·B·N·log2(n^d)) of a case with B rows and k applies per build.

    The dense rule (`grids.dense_pays`) picks dense iff r <= DENSE_COST[d-1].
    """
    size = case["n"] ** case["dim"]
    rows, applies = case["rows"], case["applies"]
    return (case["N"] + applies * rows) * size / (applies * rows * case["N"] * math.log2(size))


def lost_ms(case: dict, dense: bool) -> float:
    """The median ms a case loses over its faster side, dense or FFT (`pair` or `fft`)."""
    dense_ms = case["ms"]["dense"]["median"]
    fft_ms = case["ms"]["pair" if "pair" in case["ms"] else "fft"]["median"]
    return (dense_ms if dense else fft_ms) - min(dense_ms, fft_ms)


def fit_dense_cost(cases: list[dict]) -> dict:
    """Per dimension, the c of dense iff r <= c (`dense_ratio`) that costs the least median time.

    Cases without a dense time (above the size cap) are left out.  The cost of
    a c is the time the cases lose over their faster side; every c in
    [low, high) has the least cost.
    """
    fits = {}
    for dim in sorted({case["dim"] for case in cases}):
        timed = [case for case in cases if case["dim"] == dim and "dense" in case["ms"]]
        ratios = sorted({dense_ratio(case) for case in timed})
        costs = []
        for low, high in zip([0.0] + ratios, ratios + [math.inf]):  # dense where r <= low
            costs.append((sum(lost_ms(case, dense_ratio(case) <= low) for case in timed),
                          low, high))
        lost, low, high = min(costs)
        fits[str(dim)] = {"low": low, "high": high, "lost_ms": lost}
    return fits


def recorded_cases() -> list[dict]:
    """Every case timed on both sides in the `layers` runs of this repository's BENCH_*.json.

    Only runs whose exchange slice timed the `fft` form are read.  Per run,
    the evolution's cases are the HF steps from the released start on both
    paths of one (d, n, N), with B = N and k = the checkout's
    `scf.MATVECS_PER_SOLVE`; the check's are the exchange cases, with the B
    and k they record.  Each case names the file it was read from.
    """
    from rhflab import scf

    cases = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        for run in json.loads(path.read_text()).get("layers", []):
            exchange = run.get("exchange", {}).get("cases", [])
            if not any("fft" in case["ms"] for case in exchange):
                continue  # timed before the `fft` form, or without an exchange slice
            steps = {}  # (d, n, N) -> {path: ms of the HF midpoint step from the released start}
            for case in run["propagation_cases"]:
                hf_step = case["flow"] != "hartree" and case["scheme"] == "exponential_midpoint"
                if hf_step and case["start"] == "released":
                    key = (case["dim"], case["n"], case["N"])
                    steps.setdefault(key, {})[case["path"]] = case["ms"]["propagate.step"]
            cases += [{"dim": dim, "n": n, "N": n_part, "ms": ms, "source": path.name,
                       "caller": "evolution", "rows": n_part, "applies": scf.MATVECS_PER_SOLVE}
                      for (dim, n, n_part), ms in steps.items() if "dense" in ms]
            cases += [dict(case, source=path.name, caller="check") for case in exchange]
    return cases


def fit(checkout: Path) -> dict:
    """The fit of one dense rule to every recorded case, and what the checkout's rule loses.

    The margin is the rule's loss less the least-loss constants' loss.
    """
    from rhflab import grids

    cases = recorded_cases()
    lost = sum(lost_ms(case, grids.dense_pays(grids.Grid(case["dim"], case["n"], 1.0, 1.0),
                                              case["N"], case["rows"], case["applies"]))
               for case in cases)
    fits = fit_dense_cost(cases)
    margin = lost - sum(stats["lost_ms"] for stats in fits.values())
    for dim, stats in fits.items():
        print(f"fit d={dim}: c in [{stats['low']:.4g}, {stats['high']:.4g}), "
              f"lost {stats['lost_ms']:.4g} ms")
    print(f"{len(cases)} cases: DENSE_COST {list(grids.DENSE_COST)} loses {lost:.4g} ms, "
          f"{margin:.4g} ms more than the least-loss constants")
    return {"commit": commit_of(checkout), "dense_cost": list(grids.DENSE_COST),
            "cases": len(cases), "fit": fits, "lost_ms": {"rule": lost}, "margin_ms": margin}


def workload_record(args, checkout: Path) -> dict:
    """The record of the first form: every workload's pairs on this host."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    parent = args.against.resolve()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {},
              "commits": {"change": commit_of(checkout), "parent": commit_of(parent)},
              "pairs": PAIRS}
    for name in (w["name"] for w in spec["workloads"]):
        machine, record["workloads"][name] = compare_pairs(
            checkout, parent, name, args.seed, args.seconds, better)
        record["machine"], record["env"] = machine["machine"], machine["env"]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    form = ap.add_mutually_exclusive_group(required=True)
    form.add_argument("--against", type=Path,
                      help="checkout of the parent to alternate workload runs with")
    form.add_argument("--layers", action="store_true",
                      help="time the SCF, energy, diagnostics, ED, propagation and "
                           "exchange layers in place of the workloads")
    form.add_argument("--fit", action="store_true",
                      help="fit the dense rule to every recorded evolution and exchange case")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.layers or args.fit:
        load_checkout(checkout)
    out = ROOT / f"BENCH_{args.label}.json"
    old = json.loads(out.read_text()) if out.exists() else {}
    if args.fit:
        record = dict(old, label=args.label, fit=fit(checkout))
    elif args.layers:
        record = dict(old, label=args.label)
        before = os.getloadavg()
        block = layers(checkout)
        block["loadavg"] = {"before": list(before), "after": list(os.getloadavg())}
        record["layers"] = old.get("layers", []) + [block]
    else:
        # the crossover, layers and fit blocks are kept; every other key is the runs made now
        record = workload_record(args, checkout)
        record.update((key, old[key]) for key in KEPT_KEYS if key in old)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
