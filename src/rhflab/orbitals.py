"""Low-rank density-matrix algebra on orbital sets.

A rank-N projection ω = Σ_j |f_j><f_j| is carried as its N orthonormal
orbitals; commutators with position, momentum and plane-wave phases are
rank ≤ 2N and are represented factored, so trace norms come from an
r×r problem instead of an n^d × n^d kernel.

For orthonormal orbitals ω is a projection and [A, ω] = (1-ω)Aω - ωA(1-ω)
is block off-diagonal, so tr|[A, ω]| = ‖(1-ω)Aω‖₁ + ‖(1-ω)A†ω‖₁.  For
A = ±A† or A unitary the two terms are equal, and each is the nuclear norm
of one n^d × N residual block built from the fields A f_j
(`commutator_trace_norm`); the diagnostics use that form, and `trace_norm`
on the factored commutators is the general one.
"""

from __future__ import annotations

import numpy as np

from .grids import Dispersion, Grid, PotentialSpec, plane_wave

__all__ = [
    "OrbitalSet",
    "LowRankOperator",
    "reduced_density",
    "apply_density_matrix",
    "apply_exchange",
    "commutator_with_position",
    "commutator_with_momentum",
    "commutator_with_phase",
    "trace_norm",
    "commutator_trace_norm",
    "hs_norm",
    "reorthonormalize",
    "hs_distance_squared",
    "fermi_sea",
    "fermi_sea_freqs",
    "gaussian_orbital",
    "random_orbital_set",
    "seam_mass",
]

GRAM_TOL = 1e-8  # construction guard; freshly orthonormalized sets sit at ~1e-12


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

    def gram_deviation(self) -> float:
        return float(np.max(np.abs(self.gram() - np.eye(self.n_particles))))


def reduced_density(orbs: OrbitalSet) -> np.ndarray:
    """Particle density ρ(x) = N^{-1} Σ_j |f_j(x)|^2, integrating to 1."""
    return np.sum(np.abs(orbs.orbitals) ** 2, axis=0) / orbs.n_particles


def apply_density_matrix(orbs: OrbitalSet, field: np.ndarray) -> np.ndarray:
    """ω field = Σ_j <f_j, field> f_j."""
    orbs.grid.check_field(field)
    flat = orbs.orbitals.reshape(orbs.n_particles, -1)
    coeffs = (flat.conj() @ field.reshape(-1)) * orbs.grid.cell_volume
    return (coeffs @ flat).reshape(orbs.grid.shape)


def apply_exchange(orbs: OrbitalSet, potential: PotentialSpec, field: np.ndarray) -> np.ndarray:
    """Exchange operator (X f)(x) = N^{-1} Σ_j f_j(x) (V * (conj(f_j) f))(x).

    All N convolutions run as one batched FFT pair.
    """
    grid = orbs.grid
    grid.check_field(field)
    axes = tuple(range(1, grid.dim + 1))
    pair = np.conj(orbs.orbitals) * field
    conv = np.fft.ifftn(potential.vhat_eff * np.fft.fftn(pair, axes=axes), axes=axes)
    return np.sum(orbs.orbitals * conv, axis=0) / orbs.n_particles


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


def trace_norm(op: LowRankOperator, rank_cap: int = 4096) -> float:
    """Sum of singular values from the factored form; never densifies."""
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


def _one_sided_norm(orbs: OrbitalSet, flat: np.ndarray, a_flat: np.ndarray) -> float:
    """‖(1-ω)Aω‖₁ from the flattened fields A f_j."""
    dv = orbs.grid.cell_volume
    coeffs = (flat.conj() @ a_flat.T) * dv          # <f_k, A f_j>
    resid = a_flat - coeffs.T @ flat                # (1-ω) A f_j
    # the N×N triangular factor of the tall block carries its singular
    # values; reducing first is cheaper than an SVD of the whole block
    svals = np.linalg.svd(np.linalg.qr(resid.T, mode="r"), compute_uv=False)
    return float(np.sum(svals)) * np.sqrt(dv)


def commutator_trace_norm(orbs: OrbitalSet, a_fields: np.ndarray) -> float:
    """tr|[A, ω]| = 2‖(1-ω)Aω‖₁ from the fields A f_j, one n^d × N block.

    Requires orthonormal orbitals and A = ±A† or A unitary.  Orthonormal
    orbitals make ω a projection, so [A, ω] is block off-diagonal and
    tr|[A, ω]| = ‖(1-ω)Aω‖₁ + ‖(1-ω)A†ω‖₁; for those A the two terms are
    equal (for unitary A both carry sqrt(1 - s_k²), s_k the singular
    values of the N×N matrix <f_i, A f_j>).  ‖(1-ω)Aω‖₁ is the sum of
    singular values of the residual block g_j = A f_j - Σ_k f_k <f_k, A f_j>,
    scaled by sqrt(cell volume).  For any other A use
    `trace_norm(commutator_with_*)`.  For a set that is only nearly
    orthonormal the result is off by about its Gram deviation.
    """
    n_part = orbs.n_particles
    if a_fields.shape != orbs.orbitals.shape:
        raise ValueError(f"fields of shape {a_fields.shape} do not match the "
                         f"orbital block {orbs.orbitals.shape}")
    flat = orbs.orbitals.reshape(n_part, -1)
    return 2.0 * _one_sided_norm(orbs, flat, a_fields.reshape(n_part, -1))


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
    df = np.fft.ifftn(mult * np.fft.fftn(orbs.orbitals, axes=range(1, grid.dim + 1)),
                      axes=range(1, grid.dim + 1))
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
    return f / grid.norm(f)


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


def seam_mass(orbs: OrbitalSet, band: float = 0.05) -> float:
    """Mass of ρ within a band·L-wide neighborhood of the position seam at ±L/2."""
    grid = orbs.grid
    cut = 0.5 * grid.box_length * (1.0 - band)
    mask = np.zeros(grid.shape, dtype=bool)
    for xm in grid.x_mesh:
        mask = mask | (np.abs(xm) >= cut)
    rho = reduced_density(orbs)
    return float(np.sum(rho[mask]) * grid.cell_volume)
