"""Exact many-body evolution of a few fermions on a small plane-wave mode set.

Momentum-space second quantization: the kinetic part is diagonal in the
occupation basis, the translation-invariant interaction is

    (2N)^{-1} Σ_{p,p',q} V̂(q)/L · a†_{p+q} a†_{p'-q} a_{p'} a_p

with terms leaving the retained mode set dropped (the model Hamiltonian is
exact for both legs of the comparison).  The mean-field reference evolution
runs natively in the same mode space from the identical coefficients, so the
gap series tr|γ(t) - ω(t)|²_HS carries no discretization mismatch.

The mean-field leg runs on propagate's time loop and midpoint stepper, with a
dense matrix exponential and the polar factor of the orbital rows as repair.

ε is an independent dial here (never tied to a particle-number rule): the
joint semiclassical scaling is out of reach at 2-3 particles, so N-scans and
ε-scans are run separately.

FockBasis tables, built once: int64 occupation masks in lexicographic subset
order (bit m = mode m), the occupations occupied[m, i] and the int8 prefix
counts below[m, i], the number of occupied modes below m in state i.  Each
operator on mode m, applied right to left, gives (-1)^(occupied modes below m),
so from state i's own counts a†_q a_p gives (-1)^(below[p,i] + below[q,i] +
[p<q]), and a†_c a†_d a_b a_a with a<b, c<d gives (-1)^(below[a,i] +
below[b,i] + below[c,i] + below[d,i] + 1 + [a<c] + [a<d] + [b<c] + [b<d]),
the brackets correcting for the modes already moved.  Only parities matter,
so the counts are combined with XOR.  No state lookup is needed: two equal-size
subsets compare as their smallest differing element, so R ∪ S -> R ∪ S' (R
disjoint from S and S') preserves the order, and the states holding S but
not S' map in enumeration order onto those holding S' but not S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.linalg
import scipy.sparse

from .grids import Dispersion
from .krylov import expm_apply
from .propagate import Observer, _exponential_midpoint, _time_loop, step_count

__all__ = [
    "FockBasis",
    "build_hamiltonian",
    "slater_vector",
    "evolve_exact",
    "reduced_density_1",
    "fermi_sea_modes",
    "hf_mode_evolution",
    "mean_field_gap",
    "BASIS_CAP",
]

BASIS_CAP = 1_000_000
# int64 occupation masks, one bit per mode, the sign bit untouched
MAX_MODES = 62


class FockBasis:
    """N-particle occupation basis over M plane-wave modes (1D box of length L).

    Modes are indexed in FFT layout; states enumerate the N-subsets of mode
    indices in lexicographic order.
    """

    def __init__(self, n_modes: int, n_particles: int, box_length: float):
        if n_particles < 1 or n_particles > n_modes:
            raise ValueError("need 1 <= n_particles <= n_modes")
        if n_modes > MAX_MODES:
            raise ValueError(f"n_modes={n_modes} exceeds {MAX_MODES} (int64 occupation masks)")
        if comb(n_modes, n_particles) > BASIS_CAP:
            raise ValueError(f"basis size C({n_modes},{n_particles}) exceeds cap {BASIS_CAP}")
        self.n_modes = n_modes
        self.n_particles = n_particles
        self.box_length = float(box_length)
        self.freqs = np.fft.fftfreq(n_modes, d=1.0 / n_modes).astype(int)
        self.momenta = 2.0 * np.pi * self.freqs / box_length
        self.subsets = list(itertools.combinations(range(n_modes), n_particles))
        modes = np.array(self.subsets, dtype=np.int64)
        self.masks = np.bitwise_or.reduce(np.int64(1) << modes, axis=1)
        self.occupied = ((self.masks >> np.arange(n_modes)[:, None]) & 1).astype(bool)
        self.below = np.cumsum(self.occupied, axis=0, dtype=np.int8) - self.occupied

    @property
    def size(self) -> int:
        return len(self.subsets)


def _interaction_table(basis: FockBasis, vhat, coupling: float):
    """(partner, coef) over [a, b, c] for the terms coef·a†_c a†_d a_b a_a.

    partner[a, b, c] is the mode d with f_a + f_b = f_c + f_d, or -1 when d is
    not retained, a == b or c == d; coef is 0 wherever partner is -1.
    """
    m = basis.n_modes
    f = basis.freqs
    modes = np.arange(m)
    fd = f[:, None, None] + f[None, :, None] - f[None, None, :]
    d = fd % m  # FFT layout: frequency f sits at mode f mod M
    retained = ((fd >= f.min()) & (fd <= f.max())
                & (modes[:, None, None] != modes[None, :, None]) & (d != modes))
    partner = np.where(retained, d, -1)
    prefactor = coupling / (2.0 * basis.n_particles * basis.box_length)
    q = basis.momenta[None, :] - basis.momenta[:, None]
    vq = np.array([[float(vhat(abs(x))) for x in row] for row in q])
    coef = np.where(retained, prefactor * vq[:, None, :], 0.0)
    return partner, coef


def build_hamiltonian(basis: FockBasis, dispersion: Dispersion, epsilon: float,
                      vhat, coupling: float = 1.0) -> scipy.sparse.csr_matrix:
    """Sparse Hamiltonian on the N-particle sector.

    vhat maps |q| -> V̂(q) (real, even); the kinetic symbol is evaluated at
    ε·|p| per mode.  The four orderings of each term are summed onto a < b,
    c < d, then applied to every state holding a and b at once.
    """
    occ, below = basis.occupied, basis.below
    sym = dispersion.symbol_values(epsilon * np.abs(basis.momenta))
    partner, coef = _interaction_table(basis, vhat, coupling)
    diagonal = sym @ occ
    rows, cols, vals = [], [], []
    for a in range(basis.n_modes):
        for b in range(a + 1, basis.n_modes):
            held = occ[a] & occ[b]
            for c in np.flatnonzero(partner[a, b] > np.arange(basis.n_modes)).tolist():
                d = int(partner[a, b, c])
                # summed in the order the four orderings are enumerated
                w = ((coef[a, b, c] - coef[a, b, d]) - coef[b, a, c]) + coef[b, a, d]
                if w == 0.0:
                    continue
                if (c, d) == (a, b):
                    diagonal[held] += w
                    continue
                src = np.flatnonzero(held & ~(occ[c] | occ[d]))
                parity = (below[a, src] ^ below[b, src] ^ below[c, src] ^ below[d, src]
                          ^ (1 + (a < c) + (a < d) + (b < c) + (b < d))) & 1
                # the targets, in the order of their sources (module docstring)
                rows.append(np.flatnonzero(occ[c] & occ[d] & ~(occ[a] | occ[b])))
                cols.append(src)
                vals.append(np.where(parity, -w, w))
    states = np.arange(basis.size)
    ij = (np.concatenate(rows + [states]).astype(np.int32),
          np.concatenate(cols + [states]).astype(np.int32))
    h = scipy.sparse.coo_matrix((np.concatenate(vals + [diagonal]), ij),
                                shape=(basis.size,) * 2, dtype=complex).tocsr()
    h.eliminate_zeros()
    return h


def slater_vector(basis: FockBasis, mode_subset) -> np.ndarray:
    """Unit amplitude on the determinant occupying the given mode indices."""
    subset = tuple(sorted(int(m) for m in mode_subset))
    if len(subset) != basis.n_particles or len(set(subset)) != len(subset):
        raise ValueError(f"mode subset must contain {basis.n_particles} distinct modes")
    if subset[0] < 0 or subset[-1] >= basis.n_modes:
        raise ValueError("mode subset outside the basis")
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.masks == sum(1 << m for m in subset)] = 1.0
    return vec


def fermi_sea_modes(basis: FockBasis, dispersion: Dispersion, epsilon: float) -> tuple:
    """The N lowest-symbol modes, ties broken by dual-grid (FFT-layout) order."""
    sym = dispersion.symbol_values(epsilon * np.abs(basis.momenta))
    ranked = sorted(range(basis.n_modes), key=lambda m: (sym[m], m))
    return tuple(sorted(ranked[: basis.n_particles]))


def evolve_exact(vector: np.ndarray, hamiltonian, t: float, epsilon: float,
                 tol: float = 1e-10) -> np.ndarray:
    """e^{-i H t / ε} vector by adaptive Lanczos; unitary to the tolerance."""
    return expm_apply(hamiltonian.dot, np.asarray(vector, dtype=complex),
                      t / epsilon, weight=1.0, tol=tol)


def reduced_density_1(vector: np.ndarray, basis: FockBasis) -> np.ndarray:
    """One-particle reduced density γ[p, q] = <a†_q a_p>; Hermitian, tr = N.

    Each pair p < q pairs the states holding p but not q with their targets
    in order (module docstring); the lower triangle is the conjugate.
    """
    vector = np.asarray(vector, dtype=complex)
    occ, below = basis.occupied, basis.below
    gamma = np.diag(occ @ np.abs(vector) ** 2).astype(complex)
    for p in range(basis.n_modes):
        for q in range(p + 1, basis.n_modes):
            src = np.flatnonzero(occ[p] & ~occ[q])
            sign = 1 - 2 * ((below[p, src] ^ below[q, src] ^ 1) & 1)
            dst = np.flatnonzero(occ[q] & ~occ[p])
            gamma[p, q] = np.dot(sign * vector[src], vector[dst].conj())
    return gamma + np.triu(gamma, 1).conj().T


@dataclass
class ModeMeanField:
    """Dense mean-field machinery on the mode set (the HF comparison leg).

    `interaction` is the real sparse M²×M² matrix taking γ.ravel() to the
    direct-minus-exchange part of h(γ).ravel(); `energy` uses the same matrix.
    """

    basis: FockBasis
    dispersion: Dispersion
    epsilon: float
    vhat: object
    coupling: float = 1.0
    interaction: scipy.sparse.csr_matrix = field(init=False)
    kinetic: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.basis.n_modes
        partner, coef = _interaction_table(self.basis, self.vhat, self.coupling)
        a, b, c = np.nonzero(coef)
        d = partner[a, b, c]
        w = coef[a, b, c]
        # h[c,a] += w γ[b,d];  h[d,b] += w γ[a,c];  h[c,b] -= w γ[a,d];  h[d,a] -= w γ[b,c]
        rows = np.concatenate([c * m + a, d * m + b, c * m + b, d * m + a])
        cols = np.concatenate([b * m + d, a * m + c, a * m + d, b * m + c])
        self.interaction = scipy.sparse.csr_matrix(
            (np.concatenate([w, w, -w, -w]), (rows, cols)), shape=(m * m, m * m)
        )
        self.kinetic = self.dispersion.symbol_values(
            self.epsilon * np.abs(self.basis.momenta)
        )

    def gamma_of(self, orbitals: np.ndarray) -> np.ndarray:
        return orbitals.T @ orbitals.conj()

    def mean_field(self, gamma: np.ndarray) -> np.ndarray:
        m = self.basis.n_modes
        return np.diag(self.kinetic) + (self.interaction @ gamma.ravel()).reshape(m, m)

    def energy(self, gamma: np.ndarray) -> float:
        """Σ kinetic·γ_pp + ½ tr(h_int(γ) γ), real part."""
        e = float(np.sum(self.kinetic * gamma.diagonal().real))
        h_int = self.interaction @ gamma.ravel()
        return e + 0.5 * float(np.real(h_int @ gamma.T.ravel()))

    def step(self, orbitals: np.ndarray, dt: float) -> np.ndarray:
        """Exponential midpoint (the grid propagator's stepper) with dense expm."""
        eps = self.epsilon
        return _exponential_midpoint(
            orbitals, lambda rows: self.mean_field(self.gamma_of(rows)),
            lambda h, phi, tau: phi @ scipy.linalg.expm(-1j * tau * h / eps).T, dt,
        )


def _polar_factor(orbitals: np.ndarray) -> np.ndarray:
    """Löwdin repair against drift, mirrors the grid propagator."""
    u, _, vt = np.linalg.svd(orbitals, full_matrices=False)
    return u @ vt


def hf_mode_evolution(basis: FockBasis, dispersion: Dispersion, epsilon: float,
                      vhat, coupling: float, initial_modes, t_final: float,
                      dt: float, sample_every: int = 1):
    """Mean-field evolution of a Fermi-sea determinant on the mode set.

    Returns (times, gammas): the sampled one-particle density matrices of the
    time-dependent mean-field state, aligned with evolve_exact sampling.
    Raises ValueError when t_final is not a whole number of steps dt.
    """
    mf = ModeMeanField(basis, dispersion, epsilon, vhat, coupling)
    orbitals = np.zeros((basis.n_particles, basis.n_modes), dtype=complex)
    for row, m in enumerate(sorted(initial_modes)):
        orbitals[row, m] = 1.0
    sample = Observer("gamma", sample_every, lambda rows: {"gamma": mf.gamma_of(rows)})
    series = _time_loop(orbitals, step_count(0.0, t_final, dt), 0.0, dt,
                        lambda rows, t: mf.step(rows, dt), _polar_factor, [sample]).series
    return np.asarray(series["gamma"].times), series["gamma"].channels["gamma"]


def mean_field_gap(gamma_series, hf_series) -> np.ndarray:
    """tr|γ(t) - ω(t)|²_HS per sample (squared Hilbert-Schmidt distance)."""
    if len(gamma_series) != len(hf_series):
        raise ValueError("series lengths differ")
    out = []
    for g, w in zip(gamma_series, hf_series):
        g = np.asarray(g)
        w = np.asarray(w)
        if g.shape != w.shape:
            raise ValueError("mode counts differ between the two legs")
        out.append(float(np.sum(np.abs(g - w) ** 2)))
    return np.asarray(out)
