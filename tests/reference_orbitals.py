"""Factored-operator references and test states for the orbital tests.

`LowRankOperator` holds Σ_k |left_k><right_k| with fields as factors, the
form `rhflab.orbitals.trace_norm` reads; the commutators [x_a, ω], [ε∂_a, ω]
and [e^{ip·x}, ω] are built in it as rank ≤ 2N operators.
`commutator_trace_norm` is the one-sided norm tr|[A, ω]| = 2‖(1-ω)Aω‖₁ on
one block of fields A f_j, the reference of the diagnostics' stacked form.  `gaussian_orbital`
and `random_orbital_set` build the test states.  `grid_inner`, `grid_norm`,
`apply_kinetic` and `gram_deviation` are the grid-level forms only the tests
use: the L2 inner product and norm, the kinetic multiplier on one field, and
an orbital set's distance from orthonormality.

The exchange forms and rules that `orbitals._exchange_matrix`,
`orbitals._fft_exchange` and `grids.dense_pays` replaced are kept here as
references: the evolution's (B, N, n^d) pair array (`reference_pair_exchange`),
the check's per-orbital loop (`reference_loop_exchange`) and dense X from the
strided view (`reference_dense_exchange`), and the two rules that picked
among them (`previous_evolution_dense`, `previous_check_dense`).
"""

import math


import numpy as np

from rhflab.grids import Dispersion, Grid, PotentialSpec, _circulant_view, plane_wave
from rhflab.orbitals import OrbitalSet, _density_matrix_per_particle, _one_sided_norm


def grid_inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> complex:
    """Discrete L2 inner product <f, g> (conjugate-linear in f)."""
    return complex(np.vdot(f, g)) * grid.cell_volume


def grid_norm(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(f, f).real * grid.cell_volume))


def apply_kinetic(f: np.ndarray, grid: Grid, dispersion: Dispersion) -> np.ndarray:
    """Apply the kinetic operator as a Fourier multiplier."""
    grid.check_field(f)
    return grid.ifft(dispersion.symbol(grid) * grid.fft(f))


def gram_deviation(orbs: OrbitalSet) -> float:
    return float(np.max(np.abs(orbs.gram() - np.eye(orbs.n_particles))))


def apply_density_matrix(orbs: OrbitalSet, field: np.ndarray) -> np.ndarray:
    """ω field = Σ_j <f_j, field> f_j."""
    orbs.grid.check_field(field)
    flat = orbs.orbitals.reshape(orbs.n_particles, -1)
    coeffs = (flat.conj() @ field.reshape(-1)) * orbs.grid.cell_volume
    return (coeffs @ flat).reshape(orbs.grid.shape)


def commutator_trace_norm(orbs: OrbitalSet, a_fields: np.ndarray) -> float:
    """tr|[A, ω]| = 2‖(1-ω)Aω‖₁ from the fields A f_j, one n^d × N block.

    The one-sided norm (`rhflab.orbitals._one_sided_norm`, where the identity
    is stated) on a single block, with its shape checked: the reference the
    stacked calls of the diagnostics are compared with.  Requires orthonormal
    orbitals and A = ±A† or A unitary.
    """
    n_part = orbs.n_particles
    if a_fields.shape != orbs.orbitals.shape:
        raise ValueError(f"fields of shape {a_fields.shape} do not match the "
                         f"orbital block {orbs.orbitals.shape}")
    a_stack = a_fields.astype(complex).reshape(1, n_part, -1)
    return 2.0 * float(_one_sided_norm(orbs, a_stack)[0])


class LowRankOperator:
    """Σ_k |left_k><right_k| with fields as factors."""

    def __init__(self, left: np.ndarray, right: np.ndarray, grid: Grid):
        left = np.asarray(left, dtype=complex)
        right = np.asarray(right, dtype=complex)
        if left.shape != right.shape or left.ndim != grid.dim + 1:
            raise ValueError("left/right factor shapes must match (r, *grid.shape)")
        if left.shape[1:] != grid.shape:
            raise ValueError("factor fields do not match grid shape")
        self.left = left
        self.right = right
        self.grid = grid
        self.rank = left.shape[0]

    def apply(self, field: np.ndarray) -> np.ndarray:
        flat_r = self.right.reshape(self.rank, -1)
        coeffs = (flat_r.conj() @ field.reshape(-1)) * self.grid.cell_volume
        return (coeffs @ self.left.reshape(self.rank, -1)).reshape(self.grid.shape)

    def dense(self) -> np.ndarray:
        """Operator matrix in the orthonormal grid basis (small grids only)."""
        sq = np.sqrt(self.grid.cell_volume)
        lmat = self.left.reshape(self.rank, -1).T * sq
        rmat = self.right.reshape(self.rank, -1).T * sq
        return lmat @ rmat.conj().T


def hs_norm(op: LowRankOperator) -> float:
    """Hilbert-Schmidt norm from the r×r Gram matrices."""
    if op.rank == 0:
        return 0.0
    dv = op.grid.cell_volume
    lflat = op.left.reshape(op.rank, -1)
    rflat = op.right.reshape(op.rank, -1)
    gl = (lflat.conj() @ lflat.T) * dv
    gr = (rflat.conj() @ rflat.T) * dv
    val = np.sum(gl.T * gr).real
    return float(np.sqrt(max(val, 0.0)))


def commutator_with_position(orbs: OrbitalSet, axis: int) -> LowRankOperator:
    """[x_axis, ω] as a rank ≤ 2N factored operator.

    Position is multiplication by the centered coordinate in [-L/2, L/2);
    states are expected to stay away from the seam at ±L/2.
    """
    if not 0 <= axis < orbs.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {orbs.grid.dim}")
    x = orbs.grid.x_mesh[axis]
    xf = x * orbs.orbitals
    left = np.concatenate([xf, -orbs.orbitals])
    right = np.concatenate([orbs.orbitals, xf])
    return LowRankOperator(left, right, orbs.grid)


def commutator_with_momentum(orbs: OrbitalSet, axis: int) -> LowRankOperator:
    """[ε∂_axis, ω] as a rank ≤ 2N factored operator."""
    if not 0 <= axis < orbs.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {orbs.grid.dim}")
    grid = orbs.grid
    mult = 1j * grid.epsilon * grid.p_mesh[axis]
    df = grid.ifft(mult * grid.fft(orbs.orbitals))
    # ε∂ is anti-self-adjoint: [ε∂, ω] = Σ |ε∂f><f| + |f><ε∂f|
    left = np.concatenate([df, orbs.orbitals])
    right = np.concatenate([orbs.orbitals, df])
    return LowRankOperator(left, right, orbs.grid)


def commutator_with_phase(orbs: OrbitalSet, freqs) -> LowRankOperator:
    """[e^{ip·x}, ω] for a dual momentum p given by integer frequencies."""
    grid = orbs.grid
    wave = plane_wave(grid, freqs) * grid.box_length ** (grid.dim / 2.0)
    uf = wave * orbs.orbitals
    ubar_f = np.conj(wave) * orbs.orbitals
    left = np.concatenate([uf, -orbs.orbitals])
    right = np.concatenate([orbs.orbitals, ubar_f])
    return LowRankOperator(left, right, grid)


def gaussian_orbital(grid: Grid, center=0.0, sigma=0.5, momentum_freqs=None) -> np.ndarray:
    """Normalized periodized Gaussian, optionally carrying a plane-wave boost.

    sigma is the position standard deviation of |f|^2 (on R; periodization
    corrections are negligible for sigma << L).
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size == 1 and grid.dim > 1:
        center = np.full(grid.dim, center[0])
    f = np.ones(grid.shape, dtype=complex)
    for a in range(grid.dim):
        x = grid.x_mesh[a] - center[a]
        acc = np.zeros(grid.shape)
        for image in (-1, 0, 1):
            acc = acc + np.exp(-((x + image * grid.box_length) ** 2) / (4.0 * sigma**2))
        f = f * acc
    if momentum_freqs is not None:
        f = f * plane_wave(grid, momentum_freqs) * grid.box_length ** (grid.dim / 2.0)
    return f / grid_norm(grid, f)


def random_orbital_set(grid: Grid, n_particles: int, seed: int = 0) -> OrbitalSet:
    """Orthonormalized random fields (deterministic per seed); test utility."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_particles, *grid.shape)) + 1j * rng.standard_normal(
        (n_particles, *grid.shape)
    )
    flat = raw.reshape(n_particles, -1)
    q, _ = np.linalg.qr(flat.T)
    orbs = (q.T / np.sqrt(grid.cell_volume)).reshape(n_particles, *grid.shape)
    return OrbitalSet(orbs, grid, validate=False)


def reference_pair_exchange(grid: Grid, source: np.ndarray, vhat: np.ndarray,
                            fields: np.ndarray) -> np.ndarray:
    """X(ω_source) on a (B, *shape) block as one (B, N, *shape) pair array."""
    src_conj = np.conj(source)
    pair = src_conj[None, ...] * fields[:, None, ...]
    conv = grid.ifft(vhat * grid.fft(pair))
    return np.sum(source[None, ...] * conv, axis=1) / source.shape[0]


def reference_loop_exchange(orbs: OrbitalSet, potential: PotentialSpec,
                            field: np.ndarray) -> np.ndarray:
    """X on one field or a block by a loop over the N orbitals, one FFT pair each."""
    grid = orbs.grid
    out = np.zeros(field.shape, dtype=complex)
    for f_j in orbs.orbitals:
        conv = grid.ifft(potential.vhat_eff * grid.fft(np.conj(f_j) * field))
        conv *= f_j
        out += conv
    out /= orbs.n_particles
    return out


def reference_dense_exchange(orbs: OrbitalSet, potential: PotentialSpec,
                             field: np.ndarray) -> np.ndarray:
    """X = V(x_i - x_j)∘ω/N from the strided view of V(x_i - x_j), applied by one GEMM."""
    grid = orbs.grid
    x_mat = _density_matrix_per_particle(orbs.orbitals, grid)
    cells = x_mat.reshape((grid.n,) * (2 * grid.dim))
    np.multiply(cells, _circulant_view(grid, potential.lag_values()), out=cells)
    return (field.reshape(-1, grid.size) @ x_mat.T).reshape(field.shape)


def previous_evolution_dense(grid: Grid, n_particles: int) -> bool:
    """The evolution's former rule: n^d <= 4096 and 0.75·n^d <= N²·log2(n^d)."""
    return grid.size <= 4096 and 0.75 * grid.size <= n_particles**2 * math.log2(grid.size)


def previous_check_dense(grid: Grid, n_particles: int) -> bool:
    """The exchange check's former rule: n^d <= 1024 and c_d·n^d <= N²·log2(n^d)."""
    cost = (3.3, 1.2, 0.5)[grid.dim - 1]
    return grid.size <= 1024 and cost * grid.size <= n_particles**2 * math.log2(grid.size)
