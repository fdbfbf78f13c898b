"""Hartree-Fock ground-state preparation.

Minimizes the relativistic Hartree-Fock energy over N-orbital Slater states
by damped self-consistent iteration with Aufbau occupation: the mean-field
matrix is built densely (grid sizes capped at n^d <= 4096), diagonalized,
and the lowest N eigenvectors occupied.  Mixing damps the density-matrix
input of the mean field; every emitted iterate is an exact projection.

The dense Fock builder is shared with the time stepper (`fock_matrix`),
which caches its ω-independent parts, K (+ V_ext) and V(x_i - x_j), by
grid, dispersion, potential and trap flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Dispersion, Grid, PotentialSpec, apply_kinetic, convolve_potential
from .diagnostics import comm_grad_total, comm_x_total
from .orbitals import OrbitalSet, reduced_density

__all__ = [
    "ScfConfig",
    "ScfResult",
    "hf_energy",
    "scf_minimize",
    "dense_one_body_matrix",
    "fock_matrix",
    "DENSE_SIZE_CAP",
]

DENSE_SIZE_CAP = 4096
# budget of the static-matrix cache; the newest entry is kept even above it
STATIC_CACHE_BYTES = 64 * 2**20
_static_cache: dict = {}


@dataclass
class ScfConfig:
    max_iterations: int = 200
    mixing: float = 0.5
    convergence_tol: float = 1e-10
    aufbau: bool = True

    def __post_init__(self):
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError(f"mixing must lie in (0, 1], got {self.mixing}")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


@dataclass
class ScfResult:
    orbitals: OrbitalSet
    energy: float
    energies: list
    residuals: list
    iterations: int
    converged: bool
    oscillation: bool
    stationarity: float
    comm_x_over_neps: float
    comm_grad_over_neps: float


def hf_energy(orbs: OrbitalSet, potential: PotentialSpec, dispersion: Dispersion,
              include_vext: bool = True, exchange_on: bool = True) -> float:
    """tr[(K + V_ext) ω] + (2N)^{-1} ∬ V(x-y)(ω(x,x)ω(y,y) - |ω(x,y)|^2).

    Direct term computed spectrally from ρ; exchange (1/2) Σ_j <f_j, X f_j> as
    (2N n^d)^{-1} Σ_{jk} Σ_p V̂(p) |FFT(conj(f_k) f_j)(p)|² dv, all N² pair
    transforms in one batch.  The flags select the functional conserved by the
    active flow: a quench drops V_ext, the Hartree equation drops the exchange
    term.
    """
    grid = orbs.grid
    dv = grid.cell_volume
    n = orbs.n_particles
    one_body = 0.0
    for f in orbs.orbitals:
        one_body += np.vdot(f, apply_kinetic(f, grid, dispersion)).real * dv
        if include_vext:
            one_body += np.vdot(f, potential.vext * f).real * dv
    rho = reduced_density(orbs)
    v_rho = convolve_potential(rho, grid, potential)
    direct = 0.5 * n * float(np.sum(v_rho * rho) * dv)
    exchange = 0.0
    if exchange_on and potential.has_interaction():
        # |FFT(conj(f_k) f_j)(p)|² = |FFT(conj(f_j) f_k)(-p)|² and V̂ is even,
        # so the pairs k <= j suffice, those with k < j counted twice
        k, j = np.triu_indices(n)
        axes = tuple(range(1, grid.dim + 1))
        pair_hat = np.fft.fftn(np.conj(orbs.orbitals[k]) * orbs.orbitals[j], axes=axes)
        weight = np.where(k == j, 0.5, 1.0).reshape(-1, *(1,) * grid.dim)
        exchange = (dv / (n * grid.size)
                    * float(np.sum(weight * potential.vhat_eff * np.abs(pair_hat) ** 2)))
    return float(one_body + direct - exchange)


def dense_one_body_matrix(grid: Grid, dispersion: Dispersion,
                          vext: np.ndarray | None = None) -> np.ndarray:
    """K + V_ext as a Hermitian matrix on grid-value vectors."""
    if grid.size > DENSE_SIZE_CAP:
        raise ValueError(f"grid size {grid.size} exceeds dense SCF cap {DENSE_SIZE_CAP}")
    eye = np.eye(grid.size, dtype=complex).reshape(grid.size, *grid.shape)
    axes = tuple(range(1, grid.dim + 1))
    sym = dispersion.symbol(grid)
    k_cols = np.fft.ifftn(sym * np.fft.fftn(eye, axes=axes), axes=axes)
    h = k_cols.reshape(grid.size, grid.size).T.copy()
    if vext is not None:
        h[np.diag_indices(grid.size)] += vext.reshape(-1)
    return h


def _lag_matrix(grid: Grid, potential: PotentialSpec) -> np.ndarray:
    """V(x_i - x_j) from the interaction coefficients (circulant in each axis)."""
    v_lag = np.fft.ifftn(potential.vhat_eff).real * (grid.size / grid.box_length**grid.dim)
    idx = np.indices(grid.shape).reshape(grid.dim, grid.size).astype(np.int32)
    diff = (idx[:, :, None] - idx[:, None, :]) % grid.n
    return v_lag[tuple(diff)]


def _static_matrices(grid: Grid, dispersion: Dispersion, potential: PotentialSpec,
                     include_vext: bool) -> tuple:
    """(K [+ V_ext], V(x_i - x_j) or None), read-only and cached by content."""
    vext = potential.vext if include_vext else None
    key = (grid, dispersion, potential.vhat_eff.tobytes(),
           None if vext is None else vext.tobytes())
    hit = _static_cache.pop(key, None)
    if hit is None:
        h0 = dense_one_body_matrix(grid, dispersion, vext)
        v_lag = _lag_matrix(grid, potential) if potential.has_interaction() else None
        hit = (h0, v_lag)
        for a in hit:
            if a is not None:
                a.flags.writeable = False
    _static_cache[key] = hit  # (re)inserted last: the dict is in LRU order
    held = sum(a.nbytes for entry in _static_cache.values() for a in entry if a is not None)
    while held > STATIC_CACHE_BYTES and len(_static_cache) > 1:
        oldest = _static_cache.pop(next(iter(_static_cache)))
        held -= sum(a.nbytes for a in oldest if a is not None)
    return hit


def _fock_matrix(h0: np.ndarray, v_lag_mat, dmat: np.ndarray, grid: Grid,
                 potential: PotentialSpec, n_particles: int) -> np.ndarray:
    """h(ω) on value vectors: h0 + diag(V*ρ) - X(ω)."""
    rho = dmat.diagonal().real / (n_particles * grid.cell_volume)
    v_rho = convolve_potential(rho.reshape(grid.shape), grid, potential).reshape(-1)
    h = h0.copy()
    h[np.diag_indices(grid.size)] += v_rho
    if v_lag_mat is not None:
        exchange = v_lag_mat * dmat
        exchange /= n_particles
        h -= exchange
    return h


def fock_matrix(source: np.ndarray, grid: Grid, potential: PotentialSpec,
                dispersion: Dispersion, include_vext: bool) -> np.ndarray:
    """Dense h(ω) = K [+ V_ext] + V*ρ - X(ω) for ω = Σ_j |f_j><f_j|, f = source.

    source is an (N, *grid.shape) orbital block; the result acts on
    grid-value vectors.  The ω-independent parts come from the cache.
    """
    h0, v_lag = _static_matrices(grid, dispersion, potential, include_vext)
    return _fock_matrix(h0, v_lag, _density_matrix(source, grid), grid, potential,
                        source.shape[0])


def _occupy(h: np.ndarray, n_particles: int, grid: Grid, aufbau: bool,
            prev: np.ndarray | None) -> np.ndarray:
    """Diagonalize and pick N occupied orbitals (Aufbau or maximum overlap)."""
    evals, evecs = np.linalg.eigh(h)
    if aufbau or prev is None:
        cols = np.arange(n_particles)
    else:
        scores = np.sum(np.abs(evecs.conj().T @ prev.reshape(n_particles, -1).T
                               * grid.cell_volume) ** 2, axis=1)
        order = np.lexsort((np.arange(len(evals)), evals, -scores))
        cols = np.sort(order[:n_particles])
    phi = (evecs[:, cols] / np.sqrt(grid.cell_volume)).T
    return phi.reshape(n_particles, *grid.shape)


def scf_minimize(grid: Grid, potential: PotentialSpec, n_particles: int,
                 dispersion: Dispersion, config: ScfConfig) -> ScfResult:
    """Damped SCF with Aufbau occupation; returns the best (lowest-energy) iterate."""
    if n_particles > grid.size:
        raise ValueError("more particles than grid degrees of freedom")
    # built here rather than taken from the cache: a run keeps no SCF matrices
    h0 = dense_one_body_matrix(grid, dispersion, potential.vext)
    v_lag_mat = _lag_matrix(grid, potential) if potential.has_interaction() else None

    phi = _occupy(h0, n_particles, grid, True, None)
    orbs = OrbitalSet(phi, grid, validate=False)
    energy = hf_energy(orbs, potential, dispersion)
    dmat = _density_matrix(phi, grid)
    d_mix = dmat.copy()

    energies = [energy]
    residuals = [float(np.linalg.norm(h0 @ dmat - dmat @ h0, "fro"))]
    best = (energy, orbs)
    converged = False
    oscillation = False
    mixing = config.mixing
    halved = False
    iterations = 0
    alpha = 1.0  # first update replaces the guess outright

    for it in range(1, config.max_iterations + 1):
        iterations = it
        h = _fock_matrix(h0, v_lag_mat, d_mix, grid, potential, n_particles)
        phi = _occupy(h, n_particles, grid, config.aufbau, phi)
        orbs = OrbitalSet(phi, grid, validate=False)
        new_energy = hf_energy(orbs, potential, dispersion)
        dmat = _density_matrix(phi, grid)
        residual = float(np.linalg.norm(h @ dmat - dmat @ h, "fro"))
        energies.append(new_energy)
        residuals.append(residual)
        if new_energy < best[0]:
            best = (new_energy, orbs)
        slack = 1e-12 * max(1.0, abs(energy))
        if new_energy > energy + slack and it > 1:
            if not halved:
                mixing = 0.5 * mixing
                halved = True
            else:
                oscillation = True
        if abs(new_energy - energy) < config.convergence_tol:
            energy = new_energy
            converged = True
            break
        energy = new_energy
        d_mix = (1.0 - alpha) * d_mix + alpha * dmat
        alpha = mixing

    energy, orbs = best
    dmat = _density_matrix(orbs.orbitals, grid)
    h_final = _fock_matrix(h0, v_lag_mat, dmat, grid, potential, n_particles)
    stationarity = float(np.linalg.norm(h_final @ dmat - dmat @ h_final, "fro"))
    neps = n_particles * grid.epsilon
    return ScfResult(
        orbitals=orbs,
        energy=energy,
        energies=energies,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        oscillation=oscillation,
        stationarity=stationarity,
        comm_x_over_neps=comm_x_total(orbs) / neps,
        comm_grad_over_neps=comm_grad_total(orbs) / neps,
    )


def _density_matrix(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """Σ_j f_j(x) conj(f_j(y)) dv on value vectors, from an (N, *shape) block."""
    flat = phi.reshape(phi.shape[0], -1)
    return (flat.T @ flat.conj()) * grid.cell_volume
