"""Low-rank density-matrix algebra on orbital sets.

A rank-N projection ω = Σ_j |f_j><f_j| is carried as its N orthonormal
orbitals; a commutator [A, ω] has rank ≤ 2N, so trace norms come from an
r×r problem instead of an n^d × n^d kernel.

For orthonormal orbitals ω is a projection and [A, ω] = (1-ω)Aω - ωA(1-ω)
is block off-diagonal, so tr|[A, ω]| = ‖(1-ω)Aω‖₁ + ‖(1-ω)A†ω‖₁.  For
A = ±A† or A unitary the two terms are equal, and each is the nuclear norm
of one n^d × N residual block built from the fields A f_j
(`commutator_trace_norm`); the diagnostics use that form, and `trace_norm`
of the factored commutator Σ_k |left_k><right_k| is the general one.

An OrbitalSet computes its base channels tr|[x_a, ω]| and tr|[ε∂_a, ω]|
on first read (`OrbitalSet.base_channels`, one stacked norm-kernel call) and
keeps them: a runner hands every check of one sampled state the same set,
so the commutator series, the phase bound, the exchange bound and the
kinetic ratio share one evaluation.

The exchange operator X(ω) has two forms: X = V(x_i - x_j)∘ω/N as one
dense n^d×n^d matrix applied to a field block by one GEMM, and a loop over
the N orbitals, one FFT pair each.  `apply_exchange` picks by the dense rule
(`grids.dense_pays`) with the exchange check's own cap and costs, measured
on the check's block of (d+1)·N fields (`scripts/bench_trajectory.py
--layers`, its exchange slice).  They differ from the evolution's: the
dense form's fixed cost, building X, is paid once per check rather than
once per ~5 matvecs, and the loop's cost per point grows with d.  The cap
keeps the dense X at 16 MiB.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grids import Dispersion, Grid, PotentialSpec, _circulant_view, dense_pays, plane_wave

__all__ = [
    "OrbitalSet",
    "reduced_density",
    "apply_exchange",
    "trace_norm",
    "commutator_trace_norm",
    "reorthonormalize",
    "hs_distance_squared",
    "fermi_sea",
    "fermi_sea_freqs",
    "seam_mass",
]

GRAM_TOL = 1e-8  # construction guard; freshly orthonormalized sets sit at ~1e-12
SEAM_BAND = 0.05  # seam_mass counts ρ within SEAM_BAND·L of the seam at ±L/2


# the exchange check's dense form holds one complex n^d×n^d X: 16 MiB here
EXCHANGE_DENSE_CAP = 1024
# per dimension d = 1, 2, 3: dense where cost·n^d <= N²·log2(n^d), each inside
# the interval fitted to the check's forms (module docstring)
EXCHANGE_DENSE_COST = (3.3, 1.2, 0.5)

class OrbitalSet:
    """N orthonormal complex fields on a grid; immutable after construction."""

    def __init__(self, orbitals: np.ndarray, grid: Grid, validate: bool = True):
        orbitals = np.ascontiguousarray(orbitals, dtype=complex)
        if orbitals.ndim != grid.dim + 1 or orbitals.shape[1:] != grid.shape:
            raise ValueError(
                f"orbitals shape {orbitals.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.orbitals = orbitals
        self.n_particles = orbitals.shape[0]
        self.orbitals.flags.writeable = False
        if validate:
            dev = np.max(np.abs(self.gram() - np.eye(self.n_particles)))
            if dev > GRAM_TOL:
                raise ValueError(f"orbitals are not orthonormal (gram deviation {dev:.3e})")

    def gram(self) -> np.ndarray:
        flat = self.orbitals.reshape(self.n_particles, -1)
        return (flat.conj() @ flat.T) * self.grid.cell_volume

    @cached_property
    def base_channels(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(tr|[x_a, ω]| per axis, tr|[ε∂_a, ω]| per axis), computed on first read.

        The 2d blocks x_a f_j and ε∂_a f_j go through one stacked norm
        kernel; x_a is self-adjoint and ε∂_a skew-adjoint, so each trace
        norm is twice one side (`commutator_trace_norm`).
        """
        grid = self.grid
        dim = grid.dim
        stack = np.empty((2 * dim, *self.orbitals.shape), dtype=complex)
        fh = grid.fft(self.orbitals)
        for a in range(dim):
            np.multiply(grid.x_mesh[a], self.orbitals, out=stack[a])
            stack[dim + a] = grid.ifft(1j * grid.epsilon * grid.p_mesh[a] * fh)
        norms = 2.0 * _one_sided_norm(self, stack.reshape(2 * dim, self.n_particles, -1))
        return tuple(norms[:dim].tolist()), tuple(norms[dim:].tolist())


def reduced_density(orbs: OrbitalSet) -> np.ndarray:
    """Particle density ρ(x) = N^{-1} Σ_j |f_j(x)|^2, integrating to 1."""
    return np.sum(np.abs(orbs.orbitals) ** 2, axis=0) / orbs.n_particles


def apply_exchange(orbs: OrbitalSet, potential: PotentialSpec, field: np.ndarray) -> np.ndarray:
    """Exchange operator (X f)(x) = N^{-1} Σ_j f_j(x) (V * (conj(f_j) f))(x).

    field is one grid field or a (B, *grid.shape) block of them.  The form
    is picked by the dense rule with EXCHANGE_DENSE_CAP and the grid
    dimension's EXCHANGE_DENSE_COST (module docstring): `_dense_exchange`
    where it holds, `_loop_exchange` elsewhere.
    """
    grid = orbs.grid
    grid.check_field(field[0] if field.ndim == grid.dim + 1 else field)
    if dense_pays(grid.size, orbs.n_particles, EXCHANGE_DENSE_CAP,
                  EXCHANGE_DENSE_COST[grid.dim - 1]):
        return _dense_exchange(orbs, potential, field)
    return _loop_exchange(orbs, potential, field)


def _dense_exchange(orbs: OrbitalSet, potential: PotentialSpec, field: np.ndarray) -> np.ndarray:
    """X = V(x_i - x_j)∘ω/N on value vectors, applied to the block by one GEMM.

    X is built in ω/N's buffer, as `scf.MeanField.fock` builds its exchange,
    by one product with V(x_i - x_j) as a strided view, so the one n^d×n^d
    matrix this form holds is X.
    """
    grid = orbs.grid
    x_mat = _density_matrix_per_particle(orbs.orbitals, grid)
    cells = x_mat.reshape((grid.n,) * (2 * grid.dim))
    np.multiply(cells, _circulant_view(grid, potential.lag_values()), out=cells)
    return (field.reshape(-1, grid.size) @ x_mat.T).reshape(field.shape)


def _loop_exchange(orbs: OrbitalSet, potential: PotentialSpec, field: np.ndarray) -> np.ndarray:
    """X by a loop over the N orbitals f_j, each pass one FFT pair batched over the block.

    The working set stays the size of the block.
    """
    grid = orbs.grid
    out = np.zeros(field.shape, dtype=complex)
    for f_j in orbs.orbitals:
        conv = grid.ifft(potential.vhat_eff * grid.fft(np.conj(f_j) * field))
        conv *= f_j
        out += conv
    out /= orbs.n_particles
    return out


def _density_matrix_per_particle(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """ω/N = N^{-1}·Σ_j f_j(x) conj(f_j(y)) dv on value vectors, from an (N, *shape) block.

    The factor dv/N goes on the N-row operand of the product, so no pass over
    the n^d×n^d result is spent on it.
    """
    flat = phi.reshape(phi.shape[0], -1)
    return flat.T @ (flat.conj() * (grid.cell_volume * (1.0 / phi.shape[0])))


def trace_norm(op, rank_cap: int = 4096) -> float:
    """Sum of singular values of Σ_k |left_k><right_k|; never densifies.

    op carries the factors as `left`, `right` ((rank, *grid.shape) fields),
    `rank` and `grid`.
    """
    if op.rank > rank_cap:
        raise ValueError(f"rank {op.rank} exceeds cap {rank_cap}")
    if op.rank == 0:
        return 0.0
    sq = np.sqrt(op.grid.cell_volume)
    lmat = op.left.reshape(op.rank, -1).T * sq
    rmat = op.right.reshape(op.rank, -1).T * sq
    _, r1 = np.linalg.qr(lmat)
    _, r2 = np.linalg.qr(rmat)
    svals = np.linalg.svd(r1 @ r2.conj().T, compute_uv=False)
    return float(np.sum(svals))


def _one_sided_norm(orbs: OrbitalSet, a_stack: np.ndarray) -> np.ndarray:
    """‖(1-ω)A_k ω‖₁ for each block of flattened fields A_k f_j, shape (K, N, n^d).

    One batched projection, QR and SVD over the K blocks.  a_stack (complex)
    is overwritten with the residual blocks, so that a stack holds one
    working copy, not two.
    """
    dv = orbs.grid.cell_volume
    flat = orbs.orbitals.reshape(orbs.n_particles, -1)
    coeffs = (flat.conj() @ a_stack.transpose(0, 2, 1)) * dv   # <f_k, A f_j>
    a_stack -= coeffs.transpose(0, 2, 1) @ flat                 # (1-ω) A f_j
    # the N×N triangular factor of each tall block carries its singular
    # values; reducing first is cheaper than an SVD of the whole block
    svals = np.linalg.svd(np.linalg.qr(a_stack.transpose(0, 2, 1), mode="r"),
                          compute_uv=False)
    return np.sum(svals, axis=-1) * np.sqrt(dv)


def commutator_trace_norm(orbs: OrbitalSet, a_fields: np.ndarray) -> float:
    """tr|[A, ω]| = 2‖(1-ω)Aω‖₁ from the fields A f_j, one n^d × N block.

    Requires orthonormal orbitals and A = ±A† or A unitary.  Orthonormal
    orbitals make ω a projection, so [A, ω] is block off-diagonal and
    tr|[A, ω]| = ‖(1-ω)Aω‖₁ + ‖(1-ω)A†ω‖₁; for those A the two terms are
    equal (for unitary A both carry sqrt(1 - s_k²), s_k the singular
    values of the N×N matrix <f_i, A f_j>).  ‖(1-ω)Aω‖₁ is the sum of
    singular values of the residual block g_j = A f_j - Σ_k f_k <f_k, A f_j>,
    scaled by sqrt(cell volume).  For any other A use `trace_norm` of the
    factored commutator.  For a set that is only nearly
    orthonormal the result is off by about its Gram deviation.
    """
    n_part = orbs.n_particles
    if a_fields.shape != orbs.orbitals.shape:
        raise ValueError(f"fields of shape {a_fields.shape} do not match the "
                         f"orbital block {orbs.orbitals.shape}")
    a_stack = a_fields.astype(complex).reshape(1, n_part, -1)
    return 2.0 * float(_one_sided_norm(orbs, a_stack)[0])


def reorthonormalize(orbs: OrbitalSet, cond_cap: float = 1e8) -> OrbitalSet:
    """Symmetric Löwdin orthonormalization: closest orthonormal set, same span."""
    s = orbs.gram()
    w, u = np.linalg.eigh(s)
    if w[0] <= 0.0 or w[-1] / w[0] > cond_cap:
        raise ValueError(
            f"orbital Gram matrix is numerically singular (condition {w[-1] / max(w[0], 1e-300):.3e})"
        )
    s_inv_half = (u * (1.0 / np.sqrt(w))) @ u.conj().T
    flat = orbs.orbitals.reshape(orbs.n_particles, -1)
    new = (s_inv_half.T @ flat).reshape(orbs.orbitals.shape)
    return OrbitalSet(new, orbs.grid, validate=False)


def hs_distance_squared(a: OrbitalSet, b: OrbitalSet) -> float:
    """tr|ω_a - ω_b|² for projections onto orthonormal sets.

    Computed as ‖(1-ω_a)F_b‖² + ‖(1-ω_b)F_a‖² from the residual blocks of
    each set against the other's span; the equivalent 2N - 2‖<F_a, F_b>‖²
    cancels to a floor of about 2N·eps_machine near zero distance.
    """
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    dv = a.grid.cell_volume
    fa = a.orbitals.reshape(a.n_particles, -1)
    fb = b.orbitals.reshape(b.n_particles, -1)
    overlap = (fa.conj() @ fb.T) * dv               # <f_i^a, f_j^b>
    resid_b = fb - overlap.T @ fa
    resid_a = fa - overlap.conj() @ fb
    return float((np.vdot(resid_a, resid_a).real + np.vdot(resid_b, resid_b).real) * dv)


def fermi_sea_freqs(grid: Grid, n_particles: int, dispersion: Dispersion) -> list[tuple]:
    """The n lowest-symbol dual modes; ties broken by lexicographic dual-grid order."""
    symbol = dispersion.symbol(grid)
    idx_lists = list(np.ndindex(*grid.shape))
    ranked = sorted(idx_lists, key=lambda idx: (symbol[idx], idx))
    if n_particles > len(ranked):
        raise ValueError("more particles than grid modes")
    return [tuple(int(grid.freq_axis[i]) for i in idx) for idx in ranked[:n_particles]]


def fermi_sea(grid: Grid, n_particles: int, dispersion: Dispersion) -> OrbitalSet:
    """Slater determinant of the N lowest plane-wave modes."""
    freqs = fermi_sea_freqs(grid, n_particles, dispersion)
    orbitals = np.stack([plane_wave(grid, f) for f in freqs])
    return OrbitalSet(orbitals, grid, validate=False)


def boosted_fermi_sea(grid: Grid, n_particles: int, dispersion: Dispersion,
                      amplitude: float = 0.5, mode: int = 1) -> OrbitalSet:
    """Fermi sea carrying a smooth velocity field u0(x) = amplitude·sin(2π·mode·x/L).

    Every orbital is multiplied by the same unit-modulus phase e^{iφ(x)/ε}
    with φ' = u0, so orthonormality is exact and the Wigner function is the
    velocity-sheared sea: smooth in the bulk, structured only along the two
    displaced Fermi lines.  Nontrivial mean-field dynamics (a nonlinear
    density wave) with an N-independent classical limit.
    """
    sea = fermi_sea(grid, n_particles, dispersion)
    k = 2.0 * np.pi * mode / grid.box_length
    phase = np.zeros(grid.shape)
    for xm in grid.x_mesh:
        phase = phase + (-amplitude / k) * np.cos(k * xm)
    boost = np.exp(1j * phase / grid.epsilon)
    return OrbitalSet(boost * sea.orbitals, grid, validate=False)


def seam_mass(orbs: OrbitalSet) -> float:
    """Mass of ρ within a SEAM_BAND·L-wide neighborhood of the position seam at ±L/2."""
    grid = orbs.grid
    cut = 0.5 * grid.box_length * (1.0 - SEAM_BAND)
    mask = np.zeros(grid.shape, dtype=bool)
    for xm in grid.x_mesh:
        mask = mask | (np.abs(xm) >= cut)
    rho = reduced_density(orbs)
    return float(np.sum(rho[mask]) * grid.cell_volume)
