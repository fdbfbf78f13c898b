"""Relativistic Vlasov solver on 1D×1D phase space.

∂_t W + v/sqrt(v²+m0²)·∂_x W - ∂_v W·∂_x(V*ρ) = 0 with ρ(x) = ∫W dv,
integrated by Strang splitting with spectral (semi-Lagrangian) shifts:
half transport in x per v-row, full force advection in v per x-column,
half transport in x.  Shifts are exact for band-limited data and conserve
total mass to rounding.

The closing half x-shift of one step and the opening half x-shift of the
next multiply the same x-Fourier coefficients, so a run fuses them into one
full x-shift (Cheng & Knorr, J. Comput. Phys. 22, 330, 1976): n steps are a
half x-shift, n kicks in v with a full x-shift between each two, and a
closing half x-shift, 2n+1 shifts in place of 3n.  The full shift composes
the two halves as they act on real data.  irfft keeps only the real part of
the Nyquist bin (even n), so the full-step table is the half-step table with
its Nyquist row replaced by its real part, squared elementwise.
`vlasov_step` is the one-step case of the same loop.  The CFL-style warnings
and the non-finite abort are evaluated at every step.

The external trap on the PotentialSpec is not part of the phase-space flow
(the force is the self-consistent -∂_x(V*ρ) only).
"""

from __future__ import annotations

import warnings

import numpy as np

from .grids import PotentialSpec
from .diagnostics import PhaseSpaceField
from .propagate import step_count

__all__ = ["PhaseSpaceField", "vlasov_step", "vlasov_run", "compare_to_wigner"]


def _x_phase(n: int, dx: float, displacement: np.ndarray) -> np.ndarray:
    """exp(-i k⊗displacement) over the rfft bins k."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    return np.exp(-1j * np.outer(k, displacement))


def _shift_x(values: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """values(x - displacement(v), v) by spectral shift per v-row, phase from _x_phase.

    Real transforms: the Nyquist bin keeps only its real part, as the real
    part of a full complex shift would.
    """
    vhat = np.fft.rfft(values, axis=0)
    vhat *= phase
    return np.fft.irfft(vhat, n=values.shape[0], axis=0)


def _shift_v(values: np.ndarray, displacement: np.ndarray, dv: float) -> np.ndarray:
    """values(x, v - displacement(x)) by spectral shift per x-column (real transforms).

    The phase exp(-iθ), θ = displacement⊗k, is written as cos θ and -sin θ
    into the two halves of one complex buffer, without a complex exp; θ is
    formed in the imaginary half, so no separate θ array is held.
    """
    n = values.shape[1]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dv)
    phase = np.empty((len(displacement), len(k)), dtype=complex)
    theta = np.multiply.outer(displacement, k, out=phase.imag)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=theta)
    np.negative(theta, out=theta)
    vhat = np.fft.rfft(values, axis=1)
    vhat *= phase
    return np.fft.irfft(vhat, n=n, axis=1)


def _force(field: PhaseSpaceField, potential: PotentialSpec) -> np.ndarray:
    """-∂_x(V*ρ) on the x nodes, spectrally."""
    rho = field.position_marginal()
    grid = potential.grid
    if grid.n != len(rho) or grid.dim != 1 or grid.box_length != field.box_length:
        raise ValueError("potential grid does not match the phase-space x grid")
    conv_hat = potential.vhat_eff * np.fft.fft(rho)
    return -np.fft.ifft(1j * grid.p_axis * conv_hat).real


def _strang_steps(field: PhaseSpaceField, potential: PotentialSpec, m0: float,
                  dt: float, steps: int) -> PhaseSpaceField:
    """`steps` Strang steps of dt with adjacent half x-shifts fused (module docstring).

    Warns on CFL-style displacement above one cell; stacklevel 3 points the
    warnings at the caller of vlasov_step or vlasov_run.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps == 0:
        return field
    dx, dv = field.dx, field.dv
    v = field.v_grid
    u = v / np.sqrt(v**2 + m0**2)
    drift = dt * np.max(np.abs(u))
    n = len(field.x_grid)
    phase = _x_phase(n, dx, 0.5 * dt * u)
    values = _shift_x(field.values, phase)
    if steps > 1:  # the full-step table, squared in place: one table is held at a time
        if n % 2 == 0:
            phase[-1] = phase[-1].real
        phase *= phase
    for k in range(steps):
        if drift > dx:
            warnings.warn(f"transport displacement {drift:.3e} exceeds dx={dx:.3e}",
                          stacklevel=3)
        work = PhaseSpaceField(values, field.x_grid, v, field.box_length, field.epsilon)
        force = _force(work, potential)
        if dt * np.max(np.abs(force)) > dv:
            warnings.warn(
                f"force displacement {dt * np.max(np.abs(force)):.3e} exceeds dv={dv:.3e}",
                stacklevel=3,
            )
        if 0 < k == steps - 1:  # the closing half shift
            phase = _x_phase(n, dx, 0.5 * dt * u)
        values = _shift_x(_shift_v(values, dt * force, dv), phase)
        if not np.all(np.isfinite(values)):
            raise RuntimeError("Vlasov step produced non-finite values; aborting")
    return PhaseSpaceField(values, field.x_grid, v, field.box_length, field.epsilon)


def vlasov_step(field: PhaseSpaceField, potential: PotentialSpec, m0: float,
                dt: float) -> PhaseSpaceField:
    """One Strang step; warns on CFL-style displacement above one cell."""
    return _strang_steps(field, potential, m0, dt, 1)


def vlasov_run(field: PhaseSpaceField, potential: PotentialSpec, m0: float,
               dt: float, t_final: float) -> PhaseSpaceField:
    """Strang steps of dt from 0 to t_final; refuses a span dt does not divide."""
    return _strang_steps(field, potential, m0, dt, step_count(0.0, t_final, dt))


def compare_to_wigner(vlasov_field: PhaseSpaceField, wigner_field: PhaseSpaceField) -> dict:
    """L² phase-space distance and position-marginal distance on matched grids."""
    if vlasov_field.values.shape != wigner_field.values.shape:
        raise ValueError("phase-space grids differ in shape")
    if (np.max(np.abs(vlasov_field.x_grid - wigner_field.x_grid)) > 1e-12
            or np.max(np.abs(vlasov_field.v_grid - wigner_field.v_grid)) > 1e-12):
        raise ValueError("phase-space grids differ in nodes")
    cell = vlasov_field.dx * vlasov_field.dv
    diff = vlasov_field.values - wigner_field.values
    l2 = float(np.sqrt(np.sum(diff**2) * cell))
    rho_diff = vlasov_field.position_marginal() - wigner_field.position_marginal()
    marginal = float(np.sqrt(np.sum(rho_diff**2) * vlasov_field.dx))
    return {"l2": l2, "marginal_l2": marginal}
