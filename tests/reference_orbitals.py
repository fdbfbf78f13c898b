"""Factored-operator references for the orbital and diagnostic tests.

`LowRankOperator` holds Σ_k |left_k><right_k| with fields as factors, the
form `rhflab.orbitals.trace_norm` reads; the commutators [x_a, ω], [ε∂_a, ω]
and [e^{ip·x}, ω] are built in it as rank ≤ 2N operators.
"""

import numpy as np

from rhflab.grids import Grid, plane_wave
from rhflab.orbitals import OrbitalSet


def apply_density_matrix(orbs: OrbitalSet, field: np.ndarray) -> np.ndarray:
    """ω field = Σ_j <f_j, field> f_j."""
    orbs.grid.check_field(field)
    flat = orbs.orbitals.reshape(orbs.n_particles, -1)
    coeffs = (flat.conj() @ field.reshape(-1)) * orbs.grid.cell_volume
    return (coeffs @ flat).reshape(orbs.grid.shape)


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
