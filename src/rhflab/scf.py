"""Hartree-Fock ground-state preparation.

Minimizes the relativistic Hartree-Fock energy over N-orbital Slater states
by damped self-consistent iteration with Aufbau occupation: the mean-field
matrix is built densely (grid sizes capped at n^d <= 4096), diagonalized,
and the lowest N eigenvectors occupied.  Mixing damps the density-matrix
input of the mean field; every emitted iterate is an exact projection.

The loop runs in real arithmetic: K has an even symbol, and V_ext,
V(x_i - x_j) and every iterate's density matrix are real, so each h is real
symmetric and its eigenvectors are real.  The orbitals become complex only
in the OrbitalSet handed out.  At a degenerate Fermi level (open shells of
symmetric 2D/3D traps) Aufbau occupation is ambiguous, in complex as in real
arithmetic, and LAPACK may pick any subspace of the degenerate level.

The residuals and `stationarity` are ‖[h, ω]‖_HS, computed as √2‖(1-P)hP‖_F
from the n×N block (1-P)hU (`_commutator_norm`).  Residual k pairs iterate
ω_k with the mixed mean field h_{k+1} that iterate k+1 is occupied from;
ω_k is an eigenprojection of h_k, so pairing it with h_k would read zero up
to rounding.  The last iterate has no next mean field and is paired with
h(ω_k); `stationarity` is that norm for the returned (lowest-energy) state.

One dense Fock builder, `fock_matrix`, serves this loop and the time
stepper.  Its ω-independent parts come from two memoised builders, read-only:
K by (grid, dispersion) and V(x_i - x_j) by grid and interaction
coefficients (by content, so changed coefficients never read a stale
matrix).  V_ext is added on the diagonal of each Fock matrix, so the SCF and
a propagation that drops the trap share one K.  A Fock matrix is built in
one n^d×n^d buffer, the caller's ω/N: the density-matrix product writes
Φ^T·conj(Φ)·(dv/N) into it with the factor on the N-row operand, V(x_i - x_j)
multiplies it in place and K is subtracted in place.  So the loop mixes
and holds its density matrices as ω/N and hands fock_matrix a copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Dispersion, Grid, PotentialSpec, convolve_potential
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

# at the cap one dense matrix is 128 MiB; the memoised builders hold at most
# three (two K for a pair evolution over the dispersion axis, one V(x_i - x_j))
DENSE_SIZE_CAP = 4096


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
    rho = reduced_density(orbs)
    # Σ_j <f_j, K f_j> by Parseval from one FFT of the block
    power = np.abs(grid.fft(orbs.orbitals)) ** 2
    one_body = float(np.sum(dispersion.symbol(grid) * power)) * dv / grid.size
    if include_vext:
        one_body += n * float(np.sum(potential.vext * rho)) * dv
    v_rho = convolve_potential(rho, grid, potential)
    direct = 0.5 * n * float(np.sum(v_rho * rho) * dv)
    exchange = 0.0
    if exchange_on and potential.has_interaction():
        # |FFT(conj(f_k) f_j)(p)|² = |FFT(conj(f_j) f_k)(-p)|² and V̂ is even,
        # so the pairs k <= j suffice, those with k < j counted twice
        k, j = np.triu_indices(n)
        pair_hat = grid.fft(np.conj(orbs.orbitals[k]) * orbs.orbitals[j])
        weight = np.where(k == j, 0.5, 1.0).reshape(-1, *(1,) * grid.dim)
        exchange = (dv / (n * grid.size)
                    * float(np.sum(weight * potential.vhat_eff * np.abs(pair_hat) ** 2)))
    return float(one_body + direct - exchange)


@functools.lru_cache(maxsize=2)
def dense_one_body_matrix(grid: Grid, dispersion: Dispersion) -> np.ndarray:
    """K as a real symmetric float64 matrix on grid-value vectors, read-only.

    K[i, j] = c[(i - j) mod n] with c = ifftn(symbol), real because the
    symbol depends on |p| only (the unmatched Nyquist mode adds ±1 terms).
    Memoised by (grid, dispersion), both hashable by value.
    """
    if grid.size > DENSE_SIZE_CAP:
        raise ValueError(f"grid size {grid.size} exceeds dense SCF cap {DENSE_SIZE_CAP}")
    k = _circulant(grid, np.fft.ifftn(dispersion.symbol(grid)).real)
    k.flags.writeable = False
    return k


def _lag_matrix(grid: Grid, potential: PotentialSpec) -> np.ndarray:
    """V(x_i - x_j) from the interaction coefficients, read-only, memoised by content."""
    return _lag_matrix_of(grid, potential.vhat_eff.tobytes())


@functools.lru_cache(maxsize=1)
def _lag_matrix_of(grid: Grid, vhat_eff: bytes) -> np.ndarray:
    vhat = np.frombuffer(vhat_eff).reshape(grid.shape)
    v_lag = _circulant(grid, np.fft.ifftn(vhat).real * (grid.size / grid.box_length**grid.dim))
    v_lag.flags.writeable = False
    return v_lag


def _circulant(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The matrix M[i, j] = coeffs[(i - j) mod n], index differences taken per axis."""
    idx = np.indices(grid.shape).reshape(grid.dim, grid.size).astype(np.int32)
    diff = (idx[:, :, None] - idx[:, None, :]) % grid.n
    return coeffs[tuple(diff)]


def fock_matrix(omega_n: np.ndarray, grid: Grid, potential: PotentialSpec,
                dispersion: Dispersion, vext: np.ndarray | None) -> np.ndarray:
    """Dense h(ω) = K [+ V_ext] + V*ρ - X(ω) on grid-value vectors, in omega_n's buffer.

    omega_n is ω/N on value vectors (`_density_matrix_per_particle`), so
    ρ is its diagonal over dv.  With an interaction the matrix is turned into
    h in place and returned: the caller hands over a buffer it owns.  vext,
    when given, goes on the diagonal as (K_ii + vext_i) + (V*ρ)_i.  A real
    omega_n (the SCF) gives a real h, a complex one (the propagation) a
    complex h.
    """
    k = dense_one_body_matrix(grid, dispersion)
    rho = omega_n.diagonal().real / grid.cell_volume
    v_rho = convolve_potential(rho.reshape(grid.shape), grid, potential).reshape(-1)
    diag = k.diagonal() if vext is None else k.diagonal() + vext.reshape(-1)
    diag = diag + v_rho
    if not potential.has_interaction():
        h = k.copy()
        np.fill_diagonal(h, diag)
        return h
    # one buffer: X(ω) = V(x_i - x_j)·ω/N in place, then K - X off the
    # diagonal and (K [+ V_ext] + V*ρ) - X on it
    h = omega_n
    h *= _lag_matrix(grid, potential)
    diag = diag - h.diagonal()
    np.subtract(k, h, out=h)
    np.fill_diagonal(h, diag)
    return h


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
    """Damped SCF with Aufbau occupation; returns the best (lowest-energy) iterate.

    residuals[k] is ‖[h_{k+1}, ω_k]‖ for the next mean field h_{k+1}, and
    ‖[h(ω_k), ω_k]‖ on the last row (module docstring).
    """
    if n_particles > grid.size:
        raise ValueError("more particles than grid degrees of freedom")
    vext = potential.vext
    # first guess from K + V_ext, a local copy of the held K
    h = dense_one_body_matrix(grid, dispersion).copy()
    h[np.diag_indices(grid.size)] += vext.reshape(-1)
    phi = _occupy(h, n_particles, grid, True, None)
    energy = hf_energy(OrbitalSet(phi, grid, validate=False), potential, dispersion)
    # density matrices are mixed and held as ω/N, the form fock_matrix builds in
    dmat = _density_matrix_per_particle(phi, grid)
    d_mix = dmat

    energies = [energy]
    residuals = []
    best = (energy, phi)
    converged = False
    oscillation = False
    mixing = config.mixing
    halved = False
    iterations = 0
    alpha = 1.0  # first update replaces the guess outright

    for it in range(1, config.max_iterations + 1):
        iterations = it
        h = fock_matrix(d_mix.copy(), grid, potential, dispersion, vext)
        residuals.append(_commutator_norm(h, phi, grid))
        phi = _occupy(h, n_particles, grid, config.aufbau, phi)
        new_energy = hf_energy(OrbitalSet(phi, grid, validate=False), potential, dispersion)
        dmat = _density_matrix_per_particle(phi, grid)
        energies.append(new_energy)
        if new_energy < best[0]:
            best = (new_energy, phi)
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

    last = phi
    energy, phi = best
    h_final = fock_matrix(_density_matrix_per_particle(phi, grid), grid, potential, dispersion,
                          vext)
    stationarity = _commutator_norm(h_final, phi, grid)
    if phi is last:
        residuals.append(stationarity)
    else:  # dmat is the last iterate's density
        h_last = fock_matrix(dmat, grid, potential, dispersion, vext)
        residuals.append(_commutator_norm(h_last, last, grid))
    orbs = OrbitalSet(phi, grid, validate=False)
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


def _commutator_norm(h: np.ndarray, phi: np.ndarray, grid: Grid) -> float:
    """‖[h, P]‖_F for P = Σ_j |φ_j><φ_j| dv, from the n×N residual block.

    With U = Φ√dv orthonormal and h Hermitian, [h, P] = (1-P)hP - Ph(1-P),
    so ‖[h, P]‖_F = √2‖(1-P)hU‖_F = √2‖hU - U(U†hU)‖_F: one n²N product in
    place of the two n³ products hP and Ph.
    """
    u = phi.reshape(phi.shape[0], -1).T * np.sqrt(grid.cell_volume)
    resid = h @ u
    resid -= u @ (u.conj().T @ resid)
    return float(np.sqrt(2.0) * np.linalg.norm(resid))


def _density_matrix_per_particle(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """ω/N = N^{-1}·Σ_j f_j(x) conj(f_j(y)) dv on value vectors, from an (N, *shape) block.

    The factor dv/N goes on the N-row operand of the product, so no pass over
    the n^d×n^d result is spent on it.
    """
    flat = phi.reshape(phi.shape[0], -1)
    return flat.T @ (flat.conj() * (grid.cell_volume * (1.0 / phi.shape[0])))
