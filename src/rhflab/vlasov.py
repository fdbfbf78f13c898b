"""Relativistic Vlasov solver on 1D×1D phase space.

∂_t W + v/sqrt(v²+m0²)·∂_x W - ∂_v W·∂_x(V*ρ) = 0 with ρ(x) = ∫W dv,
integrated by Strang splitting with spectral (semi-Lagrangian) shifts:
half transport in x per v-row, full force advection in v per x-column,
half transport in x.  Shifts are exact for band-limited data and conserve
total mass to rounding.  The external trap on the PotentialSpec is not part
of the phase-space flow (the force is the self-consistent -∂_x(V*ρ) only).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import PotentialSpec, convolve_potential
from .diagnostics import WignerField
from .propagate import step_count

__all__ = ["PhaseSpaceField", "vlasov_step", "vlasov_run", "vlasov_energy",
           "compare_to_wigner"]


@dataclass
class PhaseSpaceField:
    """Real phase-space density over x (periodic) × v nodes."""

    values: np.ndarray
    x_grid: np.ndarray
    v_grid: np.ndarray
    box_length: float
    epsilon: float

    @classmethod
    def from_wigner(cls, w: WignerField) -> "PhaseSpaceField":
        return cls(values=w.values.copy(), x_grid=w.x_grid.copy(),
                   v_grid=w.v_grid.copy(), box_length=w.box_length, epsilon=w.epsilon)

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def dv(self) -> float:
        return float(self.v_grid[1] - self.v_grid[0])

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dv)

    def density(self) -> np.ndarray:
        return np.sum(self.values, axis=1) * self.dv

    def position_marginal(self) -> np.ndarray:
        return self.density()


@functools.lru_cache(maxsize=1)
def _x_phase(n: int, dx: float, displacement: bytes) -> np.ndarray:
    """exp(-i k⊗displacement) over the rfft bins k, read-only.

    Keyed by bytes, so both half x-shifts of a Strang step share one table.
    """
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    phase = np.exp(-1j * np.outer(k, np.frombuffer(displacement)))
    phase.flags.writeable = False
    return phase


def _shift_x(values: np.ndarray, displacement: np.ndarray, dx: float) -> np.ndarray:
    """values(x - displacement(v), v) by spectral shift per v-row.

    Real transforms: the Nyquist bin keeps only its real part, as the real
    part of a full complex shift would.
    """
    n = values.shape[0]
    vhat = np.fft.rfft(values, axis=0)
    vhat *= _x_phase(n, dx, np.asarray(displacement, dtype=float).tobytes())
    return np.fft.irfft(vhat, n=n, axis=0)


def _shift_v(values: np.ndarray, displacement: np.ndarray, dv: float) -> np.ndarray:
    """values(x, v - displacement(x)) by spectral shift per x-column (real transforms)."""
    n = values.shape[1]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dv)
    vhat = np.fft.rfft(values, axis=1)
    vhat *= np.exp(-1j * np.outer(displacement, k))
    return np.fft.irfft(vhat, n=n, axis=1)


def _force(field: PhaseSpaceField, potential: PotentialSpec) -> np.ndarray:
    """-∂_x(V*ρ) on the x nodes, spectrally."""
    rho = field.density()
    grid = potential.grid
    if grid.n != len(rho) or grid.dim != 1:
        raise ValueError("potential grid does not match the phase-space x grid")
    conv_hat = potential.vhat_eff * np.fft.fft(rho)
    return -np.fft.ifft(1j * grid.p_axis * conv_hat).real


def vlasov_step(field: PhaseSpaceField, potential: PotentialSpec, m0: float,
                dt: float) -> PhaseSpaceField:
    """One Strang step; warns on CFL-style displacement above one cell."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = field.v_grid
    u = v / np.sqrt(v**2 + m0**2)
    if dt * np.max(np.abs(u)) > field.dx:
        warnings.warn(
            f"transport displacement {dt * np.max(np.abs(u)):.3e} exceeds dx={field.dx:.3e}",
            stacklevel=2,
        )
    half = _shift_x(field.values, 0.5 * dt * u, field.dx)
    work = PhaseSpaceField(half, field.x_grid, field.v_grid, field.box_length,
                           field.epsilon)
    force = _force(work, potential)
    if dt * np.max(np.abs(force)) > field.dv:
        warnings.warn(
            f"force displacement {dt * np.max(np.abs(force)):.3e} exceeds dv={field.dv:.3e}",
            stacklevel=2,
        )
    kicked = _shift_v(half, dt * force, field.dv)
    out = _shift_x(kicked, 0.5 * dt * u, field.dx)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("Vlasov step produced non-finite values; aborting")
    return PhaseSpaceField(out, field.x_grid, field.v_grid, field.box_length,
                           field.epsilon)


def vlasov_run(field: PhaseSpaceField, potential: PotentialSpec, m0: float,
               dt: float, t_final: float) -> PhaseSpaceField:
    """Strang steps of dt from 0 to t_final; refuses a span dt does not divide."""
    for _ in range(step_count(0.0, t_final, dt)):
        field = vlasov_step(field, potential, m0, dt)
    return field


def vlasov_energy(field: PhaseSpaceField, potential: PotentialSpec, m0: float) -> float:
    """∫∫ sqrt(v²+m0²) W dx dv + ½ ∫ (V*ρ) ρ dx."""
    cell = field.dx * field.dv
    kinetic = float(np.sum(np.sqrt(field.v_grid**2 + m0**2) * field.values) * cell)
    rho = field.density()
    conv = convolve_potential(rho, potential.grid, potential)
    return kinetic + 0.5 * float(np.sum(conv * rho) * field.dx)


def compare_to_wigner(vlasov_field: PhaseSpaceField, wigner_field: WignerField) -> dict:
    """L² phase-space distance and position-marginal distance on matched grids."""
    if vlasov_field.values.shape != wigner_field.values.shape:
        raise ValueError("phase-space grids differ in shape")
    if (np.max(np.abs(vlasov_field.x_grid - wigner_field.x_grid)) > 1e-12
            or np.max(np.abs(vlasov_field.v_grid - wigner_field.v_grid)) > 1e-12):
        raise ValueError("phase-space grids differ in nodes")
    cell = vlasov_field.dx * vlasov_field.dv
    diff = vlasov_field.values - wigner_field.values
    l2 = float(np.sqrt(np.sum(diff**2) * cell))
    rho_diff = vlasov_field.density() - wigner_field.position_marginal()
    marginal = float(np.sqrt(np.sum(rho_diff**2) * vlasov_field.dx))
    return {"l2": l2, "marginal_l2": marginal}
