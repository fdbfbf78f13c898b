"""Hartree-Fock ground-state preparation and the mean field h(ω) itself.

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

`MeanField` is h(ω) = K [+ V_ext] + V*ρ - X(ω) for one SCF or one
evolution, built from (grid, potential, dispersion, exchange_on, keep_trap)
and, for an evolution, the scheme and N that pick one of its two paths once
(`MeanField.for_evolution`):

  dense  h(ω) as the n^d×n^d Fock matrix, applied as one GEMM.  The
         MeanField owns K and V(x_i - x_j) (`grids._circulant`); nothing
         else holds them, so they are freed with it (an SCF's when
         `scf_minimize` returns).  A Fock matrix is built in one buffer, the
         caller's ω/N (`orbitals._density_matrix_per_particle`): the
         density-matrix product writes Φ^T·conj(Φ)·(dv/N) into it with the
         factor on the N-row operand, `orbitals._exchange_matrix` turns it
         into X in place, K is subtracted in place and the diagonal becomes
         (K_ii [+ V_ext,i]) + (V*ρ)_i - X_ii.
         The SCF mixes and holds its density matrices as ω/N and hands
         `MeanField.fock` a copy.
  pair   the FFT path on every grid: K as a Fourier multiplier, the direct
         term as a local field, the exchange by `orbitals._fft_exchange`.

`MeanField.energy` is the energy of the functional a MeanField serves (V_ext
with keep_trap, the exchange where X runs).  The dense path reads it in one
pass from K, V_ext, V(x_i - x_j) and ω/N; the pair path returns `hf_energy`,
which transforms the N(N+1)/2 orbital pair products.  The SCF takes every
iterate's energy from its MeanField and the ω/N it already holds for mixing,
and a run's conservation samples read the evolution's MeanField, so a dense
run's energies differ from `hf_energy` at rounding only.

An evolution runs dense when the scheme is exponential midpoint (a step
makes 2 Fock builds, each serving the MATVECS_PER_SOLVE matvecs of one
Krylov solve), exchange is on, the potential interacts, and the dense rule
`grids.dense_pays` holds for N rows and MATVECS_PER_SOLVE applies per build;
otherwise it runs pair.  The paths agree to rounding; artifacts differ only
in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (DENSE_SIZE_CAP, Dispersion, Grid, PotentialSpec, _circulant,
                    convolve_potential, dense_pays)
from .diagnostics import comm_grad_total, comm_x_total
from .orbitals import (OrbitalSet, _density_matrix_per_particle, _exchange_matrix,
                       _fft_exchange, reduced_density)

__all__ = [
    "ScfConfig",
    "ScfResult",
    "hf_energy",
    "scf_minimize",
    "MeanField",
    "DENSE_SIZE_CAP",
]

PATHS = ("dense", "pair")
# the h-applies one Fock build serves: the matvecs of one Krylov solve, 5 on
# the reference quench (CHANGES.md, one fixed-point pass per midpoint step)
MATVECS_PER_SOLVE = 5


@dataclass
class ScfConfig:
    max_iterations: int = 200
    mixing: float = 0.5
    convergence_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError(f"mixing must lie in (0, 1], got {self.mixing}")
        if not 0 < self.convergence_tol < np.inf:
            raise ValueError(
                f"convergence_tol must be a finite positive number, got {self.convergence_tol}")


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
    (2N n^d)^{-1} Σ_{jk} Σ_p V̂(p) |FFT(conj(f_k) f_j)(p)|² dv, from the
    N(N+1)/2 pair transforms k <= j in one batch.  The flags select the
    functional conserved by the active flow: a quench drops V_ext, the Hartree
    equation drops the exchange term.  This is the FFT path's form of
    `MeanField.energy`.
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


class MeanField:
    """h(ω) = K [+ V_ext] + V*ρ - X(ω) on one grid, by one path (module docstring).

    exchange_on drops X(ω) when false (the Hartree flow), keep_trap drops
    V_ext when false (a quench).  X(ω) runs only where the potential
    interacts.  `closure` gives h(ω_source) on field blocks by the path and
    `energy` the energy of that functional; `fock` is the dense path's
    matrix.
    """

    def __init__(self, grid: Grid, potential: PotentialSpec, dispersion: Dispersion,
                 path: str = "dense", exchange_on: bool = True, keep_trap: bool = True):
        if path not in PATHS:
            raise ValueError(f"path must be one of {PATHS}, got {path!r}")
        self.grid = grid
        self.potential = potential
        self.dispersion = dispersion
        self.path = path
        self.exchange = exchange_on and potential.has_interaction()
        self.vext = potential.vext if keep_trap else None
        self.inputs = None  # set by for_evolution
        if path != "dense":
            self._symbol = dispersion.symbol(grid)
            self._vhat = potential.vhat_eff
            return
        if grid.size > DENSE_SIZE_CAP:
            raise ValueError(f"grid size {grid.size} exceeds dense cap {DENSE_SIZE_CAP}")
        # K[i, j] = c[(i - j) mod n] with c = ifftn(symbol), real because the
        # symbol depends on |p| only
        self._k = _circulant(grid, np.fft.ifftn(dispersion.symbol(grid)).real)
        self._v_lag = None
        if self.exchange:
            self._v_lag = _circulant(grid, potential.lag_values())
        diag = self._k.diagonal()
        self._diag0 = diag.copy() if self.vext is None else diag + self.vext.reshape(-1)

    @classmethod
    def for_evolution(cls, grid: Grid, potential: PotentialSpec, dispersion: Dispersion,
                      scheme: str, exchange_on: bool, keep_trap: bool, n_particles: int,
                      path: str | None = None) -> "MeanField":
        """The MeanField of one evolution; path None picks it by the rule (module docstring).

        The inputs are kept as `inputs`, so a stepper can tell whether a
        MeanField it carries still serves its state.
        """
        if path is None:
            dense = (scheme == "exponential_midpoint" and exchange_on
                     and potential.has_interaction() and dense_pays(
                         grid, n_particles, n_particles, MATVECS_PER_SOLVE))
            path = "dense" if dense else "pair"
        mean_field = cls(grid, potential, dispersion, path, exchange_on, keep_trap)
        mean_field.inputs = (grid, potential, dispersion, scheme, exchange_on, keep_trap,
                             n_particles)
        return mean_field

    def fock(self, omega_n: np.ndarray) -> np.ndarray:
        """Dense h(ω) on grid-value vectors, built in omega_n's buffer.

        omega_n is ω/N on value vectors (`_density_matrix_per_particle`), so
        ρ is its diagonal over dv.  With exchange the matrix is turned into h
        in place and returned: the caller hands over a buffer it owns.  A
        real omega_n (the SCF) gives a real h, a complex one (the
        propagation) a complex h.  A zero omega_n gives K [+ V_ext].
        """
        grid = self.grid
        rho = omega_n.diagonal().real / grid.cell_volume
        v_rho = convolve_potential(rho.reshape(grid.shape), grid, self.potential).reshape(-1)
        diag = self._diag0 + v_rho
        if self._v_lag is None:
            h = self._k.copy()
            np.fill_diagonal(h, diag)
            return h
        # one buffer: X(ω) in place, then K - X off the diagonal and
        # (K [+ V_ext] + V*ρ) - X on it
        h = _exchange_matrix(omega_n, self._v_lag)
        diag = diag - h.diagonal()
        np.subtract(self._k, h, out=h)
        np.fill_diagonal(h, diag)
        return h

    def energy(self, phi: np.ndarray, omega_n: np.ndarray | None = None) -> float:
        """The energy of the functional this MeanField serves, at the orbitals phi.

        V_ext counts with keep_trap and the exchange where X runs, as in
        `hf_energy` with those flags, which the pair path returns.  The dense
        path reads K, V_ext and V(x_i - x_j) against omega_n, the ω/N of phi
        (`_density_matrix_per_particle`, formed here when not given, never
        written): N·(Σ K∘Re(ω/N) + Σ V_ext·diag(ω/N) + direct
        - ½Σ V(x_i - x_j)·|ω/N|²), the direct term from ρ as in `hf_energy`.
        """
        grid = self.grid
        if self.path != "dense":
            return hf_energy(OrbitalSet(phi, grid, validate=False), self.potential,
                             self.dispersion, include_vext=self.vext is not None,
                             exchange_on=self.exchange)
        if omega_n is None:
            omega_n = _density_matrix_per_particle(phi, grid)
        dv = grid.cell_volume
        diag = omega_n.diagonal().real
        # K is real symmetric and ω Hermitian, so tr(Kω) reads Re(ω) only
        one_body = np.einsum("ij,ij->", self._k, omega_n.real)
        if self.vext is not None:
            one_body += np.dot(self.vext.reshape(-1), diag)
        rho = diag / dv
        v_rho = convolve_potential(rho.reshape(grid.shape), grid, self.potential)
        direct = 0.5 * np.dot(v_rho.reshape(-1), rho) * dv
        exchange = 0.0
        if self._v_lag is not None:
            # |ω/N|² summed over the real and imaginary parts, each read in place
            parts = ((omega_n.real, omega_n.imag) if np.iscomplexobj(omega_n)
                     else (omega_n,))
            exchange = 0.5 * sum(np.einsum("ij,ij,ij->", self._v_lag, part, part)
                                 for part in parts)
        return float(phi.shape[0] * (one_body + direct - exchange))

    def closure(self, source: np.ndarray):
        """h(ω_source) as a block closure on (B, *shape) field stacks."""
        grid = self.grid
        if self.path == "dense":
            h_t = self.fock(_density_matrix_per_particle(source, grid)).T

            def apply_fock_block(fields: np.ndarray) -> np.ndarray:
                return (fields.reshape(fields.shape[0], -1) @ h_t).reshape(fields.shape)

            return apply_fock_block
        rho = np.mean(np.abs(source) ** 2, axis=0)
        local = convolve_potential(rho, grid, self.potential)
        if self.vext is not None:
            local = local + self.vext

        def apply_h_block(fields: np.ndarray) -> np.ndarray:
            out = grid.ifft(self._symbol * grid.fft(fields))
            out += local * fields
            return out

        if not self.exchange:
            return apply_h_block

        def apply_pair_block(fields: np.ndarray) -> np.ndarray:
            out = apply_h_block(fields)
            out -= _fft_exchange(grid, source, self._vhat, fields)
            return out

        return apply_pair_block


def _occupy(h: np.ndarray, n_particles: int, grid: Grid) -> np.ndarray:
    """Diagonalize and occupy the N lowest eigenvectors (Aufbau)."""
    _, evecs = np.linalg.eigh(h)
    # an index array, not a slice: it leaves phi C-ordered, and the SCF's
    # bytes depend on that layout
    phi = (evecs[:, np.arange(n_particles)] / np.sqrt(grid.cell_volume)).T
    return phi.reshape(n_particles, *grid.shape)


def scf_minimize(grid: Grid, potential: PotentialSpec, n_particles: int,
                 dispersion: Dispersion, config: ScfConfig) -> ScfResult:
    """Damped SCF with Aufbau occupation; returns the best (lowest-energy) iterate.

    residuals[k] is ‖[h_{k+1}, ω_k]‖ for the next mean field h_{k+1}, and
    ‖[h(ω_k), ω_k]‖ on the last row (module docstring).
    """
    if n_particles > grid.size:
        raise ValueError("more particles than grid degrees of freedom")
    # K and V(x_i - x_j) live as long as this call
    mean_field = MeanField(grid, potential, dispersion)
    # the start: the one-body part K [+ V_ext], the Fock matrix of ω = 0
    phi = _occupy(mean_field.fock(np.zeros((grid.size, grid.size))), n_particles, grid)
    # density matrices are mixed and held as ω/N, the form MeanField.fock
    # builds in and MeanField.energy reads
    dmat = _density_matrix_per_particle(phi, grid)
    energy = mean_field.energy(phi, dmat)
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
        h = mean_field.fock(d_mix.copy())
        residuals.append(_commutator_norm(h, phi, grid))
        phi = _occupy(h, n_particles, grid)
        dmat = _density_matrix_per_particle(phi, grid)
        new_energy = mean_field.energy(phi, dmat)
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
    h_final = mean_field.fock(_density_matrix_per_particle(phi, grid))
    stationarity = _commutator_norm(h_final, phi, grid)
    if phi is last:
        residuals.append(stationarity)
    else:  # dmat is the last iterate's density
        h_last = mean_field.fock(dmat)
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
