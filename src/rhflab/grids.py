"""Periodic spatial grids and Fourier-multiplier operators.

All operators act on complex fields sampled on a d-dimensional torus
(d = 1, 2, 3) with n points per axis.  Position nodes are the centered
coordinates x_k = (k - n/2)·L/n in [-L/2, L/2); dual momenta are
p = 2π·m/L with the integer frequencies in FFT layout
{0, 1, ..., n/2-1, -n/2, ..., -1}, i.e. the unmatched Nyquist mode sits
on the negative side.  Multiplier application is exact for trigonometric
interpolants regardless of the node offset.

The dense rule lives here because both users of the exchange operator
X(ω)f = N⁻¹Σ_j f_j·V*(conj(f_j)f) pick its form by it: an evolution's
mean field (`scf.MeanField.for_evolution`) and the exchange check
(`orbitals.apply_exchange`).  X runs as one dense n^d×n^d matrix
(`orbitals._exchange_matrix`, built from ω/N at cost ~N·n^{2d} and applied
to B rows at ~B·n^{2d}) or in FFTs (`orbitals._fft_exchange`, ~B·N·n^d·log2(n^d)
per apply).  With k applies per build, `dense_pays(grid, N, B, k)` holds iff
n^d <= DENSE_SIZE_CAP and (N + k·B)·n^d <= DENSE_COST[d-1]·k·B·N·log2(n^d).
The evolution passes B = N and k = `scf.MATVECS_PER_SOLVE`, the check
B = (d+1)·N and k = 1.  DENSE_COST holds one constant per dimension, fitted
to the evolution's step times and the check's times on both forms at one
BLAS thread.  `scripts/bench_trajectory.py --fit` prints, from the layer
runs in the committed BENCH_*.json files, the least-loss constants and
the time DENSE_COST loses over them.  The forms agree to rounding.  One cap serves
both callers: at 64² the check holds one complex X (256 MiB), half what a
dense evolution on that grid holds (K and V(x_i - x_j), real, and a
complex h).
`_circulant` builds the dense kernels: K from the kinetic symbol and
V(x_i - x_j) from `PotentialSpec.lag_values`; `_circulant_view` is the same
matrix as a strided view, for one elementwise product without the copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Dispersion",
    "PotentialSpec",
    "convolve_potential",
    "potential_moment",
    "potential_moment_refinement_check",
    "gaussian_vhat",
    "harmonic_trap",
    "plane_wave",
    "dense_pays",
    "DENSE_SIZE_CAP",
    "DENSE_COST",
]

# a moment that moves by more than this fraction under dual refinement is unstable
MOMENT_REFINEMENT_RTOL = 0.1
# at the cap one real dense matrix is 128 MiB; a dense MeanField holds two (K and
# V(x_i - x_j)), and each leg of a pair evolution holds its own
DENSE_SIZE_CAP = 4096
# per dimension d = 1, 2, 3: the fitted constant of the dense rule (module docstring)
DENSE_COST = (7.75, 12.5, 15.0)


class Grid:
    """Periodic grid with its Fourier dual.

    Attributes:
        dim: spatial dimension (1, 2 or 3).
        n: points per axis (power of two).
        box_length: torus circumference L.
        epsilon: semiclassical parameter.
        shape: field shape, (n,)*dim.
        dx: node spacing L/n.
        cell_volume: position quadrature weight dx**dim.
        dual_cell_volume: momentum quadrature weight (2π/L)**dim.
        x_axis: 1D node coordinates in [-L/2, L/2).
        p_axis: 1D dual momenta in FFT layout.
    """

    def __init__(self, dim: int, points_per_dim: int, box_length: float, epsilon: float):
        self.check_args(dim, points_per_dim, box_length, epsilon)
        n = int(points_per_dim)
        self.dim = dim
        self.n = n
        self.box_length = float(box_length)
        self.epsilon = float(epsilon)
        self.shape = (n,) * dim
        self.size = n**dim
        self.dx = self.box_length / n
        self.cell_volume = self.dx**dim
        self.dual_cell_volume = (2.0 * np.pi / self.box_length) ** dim
        self.x_axis = (np.arange(n) - n // 2) * self.dx
        self.freq_axis = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies
        self.p_axis = 2.0 * np.pi * self.freq_axis / self.box_length
        # broadcastable per-axis meshes
        self.x_mesh = [self._along_axis(self.x_axis, a) for a in range(dim)]
        self.p_mesh = [self._along_axis(self.p_axis, a) for a in range(dim)]
        self.p_squared = sum(pm**2 for pm in self.p_mesh) + np.zeros(self.shape)
        self.p_abs = np.sqrt(self.p_squared)
        self._axes = tuple(range(-dim, 0))

    @staticmethod
    def check_args(dim: int, points_per_dim: int, box_length: float, epsilon: float) -> None:
        """The constructor's argument checks, without building any n^d array."""
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        n = int(points_per_dim)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_dim must be a power of two >= 2, got {points_per_dim}")
        if not 0 < box_length < np.inf:  # refuses nan too
            raise ValueError(f"box_length must be a finite positive number, got {box_length}")
        if not 0 < epsilon < np.inf:
            raise ValueError(f"epsilon must be a finite positive number, got {epsilon}")

    def _along_axis(self, v: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = self.n
        return v.reshape(shape)

    def check_field(self, f: np.ndarray) -> None:
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match grid shape {self.shape}")

    def fft(self, f: np.ndarray) -> np.ndarray:
        """FFT over the last dim axes: one field or a (..., *shape) stack of them.

        On 1D grids this is np.fft.fft on the last axis, the same transform as
        fftn without the cost of numpy's n-d wrapper.
        """
        return np.fft.fft(f) if self.dim == 1 else np.fft.fftn(f, axes=self._axes)

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        """Inverse of `fft`, over the same axes."""
        return np.fft.ifft(fh) if self.dim == 1 else np.fft.ifftn(fh, axes=self._axes)

    def _key(self) -> tuple:
        return (self.dim, self.n, self.box_length, self.epsilon)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Grid(dim={self.dim}, n={self.n}, L={self.box_length:g}, "
            f"epsilon={self.epsilon:g})"
        )


@dataclass(frozen=True)
class Dispersion:
    """Kinetic symbol selector, both laws massive (the kinetic check divides by m0).

    variant "relativistic": sqrt(eps^2 |p|^2 + m0^2)
    variant "nonrelativistic": m0 + eps^2 |p|^2 / (2 m0)  (constant kept so the
        two variants stay phase-aligned at the orbital level)
    """

    variant: str
    m0: float

    VARIANTS = ("relativistic", "nonrelativistic")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ValueError(f"dispersion must be one of {self.VARIANTS}, got {self.variant!r}")
        if self.m0 is None or not 0 < self.m0 < np.inf:
            raise ValueError(f"m0 must be a finite positive number for the {self.variant} "
                             f"dispersion, got {self.m0}")

    @classmethod
    def relativistic(cls, m0: float) -> "Dispersion":
        return cls("relativistic", float(m0))

    @classmethod
    def nonrelativistic(cls, m0: float) -> "Dispersion":
        return cls("nonrelativistic", float(m0))

    def symbol(self, grid: Grid) -> np.ndarray:
        """Kinetic symbol evaluated on the dual grid."""
        return self.symbol_values(grid.epsilon * grid.p_abs)

    def symbol_values(self, eps_p_abs) -> np.ndarray:
        """Kinetic symbol as a function of ε|p|."""
        eps_p_abs = np.asarray(eps_p_abs, dtype=float)
        if self.variant == "relativistic":
            return np.sqrt(eps_p_abs**2 + self.m0**2)
        return self.m0 + eps_p_abs**2 / (2.0 * self.m0)


def _reverse_dual(a: np.ndarray) -> np.ndarray:
    """Map an array over the dual grid to its values at -p."""
    out = a
    for axis in range(a.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


class PotentialSpec:
    """Interaction given by dual-grid Fourier coefficients plus an external trap.

    vhat holds V̂(p) = ∫_torus V(x) e^{-ipx} dx on the dual grid (FFT layout),
    real and even so that V is real and even; coupling is a scalar prefactor.
    The regularity moment Σ|coupling·V̂(p)|(1+|p|)^2 (2π/L)^d and the discrete
    Σ|coupling·V̂(p)|/L^d (the exchange-bound constant) are computed at
    construction.
    """

    def __init__(self, grid: Grid, vhat: np.ndarray, vext: np.ndarray | None = None,
                 coupling: float = 1.0):
        grid.check_field(np.asarray(vhat))
        vhat = np.asarray(vhat, dtype=float)
        scale = max(1.0, float(np.max(np.abs(vhat))))
        if np.max(np.abs(vhat - _reverse_dual(vhat))) > 1e-12 * scale:
            raise ValueError("vhat must be even: vhat(p) == vhat(-p)")
        self.grid = grid
        self.vhat = vhat
        self.coupling = float(coupling)
        if vext is None:
            vext = np.zeros(grid.shape)
        else:
            vext = np.asarray(vext)
            grid.check_field(vext)
            if np.iscomplexobj(vext) and np.max(np.abs(vext.imag)) > 1e-12:
                raise ValueError("vext must be real-valued")
            vext = vext.real.astype(float)
        self.vext = vext
        self.moment = potential_moment(self, grid)
        # Σ_q |V̂(q)|/L^d: constant of the discrete exchange commutator bound
        self.vhat_l1 = float(np.sum(np.abs(self.vhat_eff))) / grid.box_length**grid.dim

    @property
    def vhat_eff(self) -> np.ndarray:
        return self.coupling * self.vhat

    def has_interaction(self) -> bool:
        return bool(np.any(self.vhat_eff != 0.0))

    def lag_values(self) -> np.ndarray:
        """V at the lags k·dx per axis (FFT layout), the entries of V(x_i - x_j)."""
        grid = self.grid
        return np.fft.ifftn(self.vhat_eff).real * (grid.size / grid.box_length**grid.dim)


def dense_pays(grid: Grid, n_particles: int, rows: int, applies: int) -> bool:
    """The dense rule for X(ω) of N orbitals applied `applies` times to `rows` fields.

    Dense iff n^d <= DENSE_SIZE_CAP and
    (N + applies·rows)·n^d <= DENSE_COST[d-1]·applies·rows·N·log2(n^d).
    """
    return grid.size <= DENSE_SIZE_CAP and (n_particles + applies * rows) * grid.size <= (
        DENSE_COST[grid.dim - 1] * applies * rows * n_particles * np.log2(grid.size))


def _circulant_view(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """M[i, j] = coeffs[(i - j) mod n] as a read-only (n,)*2d view, index differences per axis.

    coeffs padded by n - 1 wrapped entries before each axis holds every
    difference i - j at offset n - 1 + i - j, so M is a strided view of it
    (stride +1 in i, -1 in j per axis) over (2n - 1)^d entries.
    """
    n = grid.n
    padded = np.pad(coeffs, [(n - 1, 0)] * grid.dim, mode="wrap")
    origin = padded[(slice(n - 1, None),) * grid.dim]
    return np.lib.stride_tricks.as_strided(
        origin, shape=(n,) * (2 * grid.dim),
        strides=origin.strides + tuple(-s for s in origin.strides), writeable=False)


def _circulant(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The read-only n^d×n^d matrix of `_circulant_view`, copied once."""
    matrix = _circulant_view(grid, coeffs).copy().reshape(grid.size, grid.size)
    matrix.flags.writeable = False
    return matrix


def gaussian_vhat(grid: Grid, width: float = 1.0) -> np.ndarray:
    """Gaussian interaction coefficients V̂(p) = exp(-width^2 |p|^2 / 2)."""
    return np.exp(-0.5 * width**2 * grid.p_squared)


def harmonic_trap(grid: Grid, strength: float) -> np.ndarray:
    """Periodized harmonic well w·Σ_a (1 - cos(2π x_a/L))·(L/2π)^2, ≈ w|x|^2/2 near 0."""
    l_over = (grid.box_length / (2.0 * np.pi)) ** 2
    out = np.zeros(grid.shape)
    for xm in grid.x_mesh:
        out = out + strength * (1.0 - np.cos(2.0 * np.pi * xm / grid.box_length)) * l_over
    return out


def plane_wave(grid: Grid, freqs) -> np.ndarray:
    """L2-normalized plane wave e^{ip·x}/L^{d/2} for integer frequencies."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if freqs.size != grid.dim:
        raise ValueError("one integer frequency per axis required")
    phase = np.zeros(grid.shape)
    for a in range(grid.dim):
        phase = phase + (2.0 * np.pi * freqs[a] / grid.box_length) * grid.x_mesh[a]
    return np.exp(1j * phase) / grid.box_length ** (grid.dim / 2.0)


def convolve_potential(density: np.ndarray, grid: Grid, potential: PotentialSpec) -> np.ndarray:
    """Convolution (V * ρ)(x), returned as a real field.

    On the torus (V*ρ)(x_j) = ifft(V̂ ⊙ fft(ρ))_j exactly, with V̂ in the
    ∫ V e^{-ipx} dx normalization.
    """
    density = np.asarray(density)
    grid.check_field(density)
    if np.iscomplexobj(density) and np.max(np.abs(density.imag)) > 1e-12:
        raise ValueError("density has an imaginary part beyond tolerance 1e-12")
    out = grid.ifft(potential.vhat_eff * grid.fft(density.real.astype(float)))
    return out.real


def _moment(vhat_eff: np.ndarray, grid: Grid) -> float:
    """Discrete Σ|vhat_eff(p)|(1+|p|)^2 (2π/L)^d over the dual grid."""
    return float(np.sum(np.abs(vhat_eff) * (1.0 + grid.p_abs) ** 2) * grid.dual_cell_volume)


def potential_moment(potential: PotentialSpec, grid: Grid) -> float:
    """Discrete Σ|coupling·V̂(p)|(1+|p|)^2 (2π/L)^d, the regularity moment."""
    return _moment(potential.vhat_eff, grid)


def potential_moment_refinement_check(vhat_fn, grid: Grid,
                                      coupling: float = 1.0) -> tuple[bool, float, float]:
    """Compare the moment on `grid` against a dual-refined grid (2n points).

    vhat_fn maps |p| -> V̂ coefficient.  Returns (stable, moment, moment_refined);
    stable is False when the refined value moved by more than
    MOMENT_REFINEMENT_RTOL, the sign of a moment that does not converge as the
    dual range grows.
    """
    fine = Grid(grid.dim, 2 * grid.n, grid.box_length, grid.epsilon)
    m_coarse, m_fine = (_moment(coupling * vhat_fn(g.p_abs), g) for g in (grid, fine))
    stable = abs(m_fine - m_coarse) <= MOMENT_REFINEMENT_RTOL * max(abs(m_coarse), 1e-300)
    return stable, m_coarse, m_fine
