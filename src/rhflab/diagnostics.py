"""Commutator diagnostics, proof-chain inequality checks and the Wigner transform.

Every inequality from the propagation argument becomes a runtime check on
commutator trace norms:

  phase bound        tr|[e^{ip·x}, ω]| <= (1 + |p|) Σ_a tr|[x_a, ω]|
  exchange bound     tr|[ω, [X, x_a]]| <= (2 ‖V̂‖₁/N) tr|[ω, x_a]|
  kinetic ratio      tr|[ω, [sqrt(-ε²Δ+m0²), x_a]]| / (ε m0^{-1} Σ_b tr|[ε∂_b, ω]|)

plus integrated Gronwall-style audits of the commutator growth and a
least-squares exponential envelope fit C·N·ε·exp(c|t|).

Each tr|[A, ω]| is taken one-sided, from the fields A f_j, as
2‖(1-ω)Aω‖₁ (`orbitals.commutator_trace_norm`).  That identity needs ω to
be a projection, i.e. orthonormal orbitals, and A = ±A† or A unitary: x_a
and the plane-wave phase are, ε∂_a and the double commutators
[X, x_a], [sqrt(-ε²Δ+m0²), x_a] are skew-adjoint.  The propagator hands
every observer a Löwdin-reorthonormalized state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Grid, PotentialSpec, plane_wave
from .orbitals import OrbitalSet, apply_exchange, commutator_trace_norm, seam_mass

__all__ = [
    "GrowthFit",
    "WignerField",
    "commutator_channels",
    "comm_x_total",
    "comm_grad_total",
    "exp_bound_check",
    "exchange_double_commutator_check",
    "kinetic_double_commutator_check",
    "growth_fit",
    "integrated_growth_audit",
    "wigner_transform",
    "momentum_density",
    "default_phase_samples",
    "MARGIN_TOL",
    "SEAM_MASS_WARN",
]

MARGIN_TOL = -1e-9       # inequality margins must stay above this
SEAM_MASS_WARN = 1e-3    # position-seam validity threshold
GROWTH_FLOOR = 1e-14     # log-fit floor for degenerate (symmetric) channels


def _warn_seam(orbs: OrbitalSet) -> float:
    mass = seam_mass(orbs)
    if mass > SEAM_MASS_WARN:
        warnings.warn(
            f"state carries mass {mass:.3e} within 5% of the position seam; "
            "position-commutator channels are unreliable",
            stacklevel=3,
        )
    return mass


def _multiplier_fields(orbs: OrbitalSet, mult: np.ndarray) -> np.ndarray:
    """A Fourier multiplier applied to every orbital in one batched FFT pair."""
    axes = tuple(range(1, orbs.grid.dim + 1))
    return np.fft.ifftn(mult * np.fft.fftn(orbs.orbitals, axes=axes), axes=axes)


def _comm_x(orbs: OrbitalSet, axis: int) -> float:
    """tr|[x_a, ω]|; x_a is self-adjoint."""
    return commutator_trace_norm(orbs, orbs.grid.x_mesh[axis] * orbs.orbitals)


def _comm_grad(orbs: OrbitalSet, axis: int) -> float:
    """tr|[ε∂_a, ω]|; ε∂_a is skew-adjoint."""
    grid = orbs.grid
    return commutator_trace_norm(
        orbs, _multiplier_fields(orbs, 1j * grid.epsilon * grid.p_mesh[axis]))


def commutator_channels(orbs: OrbitalSet) -> dict:
    """Per-axis tr|[x_a, ω]| and tr|[ε∂_a, ω]| plus the seam validity metric."""
    mass = _warn_seam(orbs)
    out = {"seam_mass": mass}
    for a in range(orbs.grid.dim):
        out[f"comm_x_{a}"] = _comm_x(orbs, a)
        out[f"comm_grad_{a}"] = _comm_grad(orbs, a)
    return out


def comm_x_total(orbs: OrbitalSet) -> float:
    return sum(_comm_x(orbs, a) for a in range(orbs.grid.dim))


def comm_grad_total(orbs: OrbitalSet) -> float:
    return sum(_comm_grad(orbs, a) for a in range(orbs.grid.dim))


def default_phase_samples(grid: Grid, count: int = 16) -> list[tuple]:
    """Deterministic dual-grid momenta for the phase bound: ±1..±count/2 on axis 0."""
    half = count // 2
    if half >= grid.n // 2:
        raise ValueError("not enough dual modes for the requested sample count")
    samples = []
    for k in range(1, half + 1):
        for sign in (1, -1):
            freq = [0] * grid.dim
            freq[0] = sign * k
            samples.append(tuple(freq))
    return samples


def exp_bound_check(orbs: OrbitalSet, p_samples: list) -> dict:
    """Phase-commutator bound at each sampled dual momentum p.

    lhs = tr|[e^{ip·x}, ω]|, rhs = (1 + |p|)·Σ_a tr|[x_a, ω]|; the margin
    rhs - lhs must not drop below -1e-9.
    """
    grid = orbs.grid
    base = comm_x_total(orbs)
    samples = []
    for freq in p_samples:
        freq = tuple(freq)
        p_abs = 2.0 * np.pi * float(np.linalg.norm(freq)) / grid.box_length
        # u = e^{ip·x} is unitary, so both sides have singular values
        # sqrt(1 - s_k²), s_k those of <f_i, u f_j>: tr|[u, ω]| is twice one side
        wave = plane_wave(grid, freq) * grid.box_length ** (grid.dim / 2.0)
        lhs = commutator_trace_norm(orbs, wave * orbs.orbitals)
        rhs = (1.0 + p_abs) * base
        samples.append({"freq": list(freq), "p_abs": p_abs, "lhs": lhs, "rhs": rhs,
                        "margin": rhs - lhs})
    min_margin = min(s["margin"] for s in samples) if samples else 0.0
    return {"check": "exp_bound", "samples": samples, "min_margin": min_margin,
            "passed": bool(min_margin >= MARGIN_TOL)}


def exchange_double_commutator_check(orbs: OrbitalSet, potential: PotentialSpec) -> dict:
    """Pauli-principle exchange bound tr|[ω,[X,x_a]]| <= (2‖V̂‖₁/N)·tr|[ω,x_a]|."""
    grid = orbs.grid
    factor = 2.0 * potential.vhat_l1 / orbs.n_particles
    samples = []
    for a in range(grid.dim):
        x = grid.x_mesh[a]

        # [X, x] f_j orbital by orbital; X and x are self-adjoint, so [X, x]
        # is skew-adjoint and tr|[ω, [X, x]]| is twice one side
        xmx = np.stack([apply_exchange(orbs, potential, x * f)
                        - x * apply_exchange(orbs, potential, f) for f in orbs.orbitals])
        lhs = commutator_trace_norm(orbs, xmx)
        rhs = factor * _comm_x(orbs, a)
        samples.append({"axis": a, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
    min_margin = min(s["margin"] for s in samples)
    return {"check": "exchange_bound", "samples": samples, "min_margin": min_margin,
            "passed": bool(min_margin >= MARGIN_TOL)}


def kinetic_double_commutator_check(orbs: OrbitalSet, m0: float) -> dict:
    """Ratio tr|[ω,[sqrt(-ε²Δ+m0²), x_a]]| / (ε m0^{-1} Σ_b tr|[ε∂_b, ω]|).

    [sqrt(-ε²Δ+m0²), x_a] = -ε (ε∂_a)(-ε²Δ+m0²)^{-1/2} exactly on the grid
    (Fourier multiplier).  The ratio is the observed constant of the resolvent
    estimate; the argument proves it bounded, not its value, so the report
    records the maximum instead of asserting one.
    """
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    grid = orbs.grid
    eps = grid.epsilon
    rhs_core = eps / m0 * comm_grad_total(orbs)
    samples = []
    for a in range(grid.dim):
        mult = -eps * (1j * eps * grid.p_mesh[a]) / np.sqrt(
            eps**2 * grid.p_squared + m0**2
        )
        # a skew-adjoint multiplier: tr|[ω, B]| is twice one side
        lhs = commutator_trace_norm(orbs, _multiplier_fields(orbs, mult))
        if lhs <= GROWTH_FLOOR:
            ratio = 0.0
        elif rhs_core <= GROWTH_FLOOR:
            ratio = float("inf")
        else:
            ratio = lhs / rhs_core
        samples.append({"axis": a, "lhs": lhs, "rhs_core": rhs_core, "ratio": ratio})
    max_ratio = max(s["ratio"] for s in samples)
    return {"check": "kinetic_ratio", "samples": samples, "max_ratio": max_ratio,
            "passed": bool(np.isfinite(max_ratio))}


@dataclass
class GrowthFit:
    C: float
    c: float
    residual: float

    def envelope(self, n_particles: int, epsilon: float, t) -> np.ndarray:
        return self.C * n_particles * epsilon * np.exp(self.c * np.abs(t))


def growth_fit(times, channel, n_particles: int, epsilon: float) -> GrowthFit:
    """Least-squares exponential envelope C·N·ε·exp(c|t|) for a commutator series.

    Fits log(channel/(Nε)) against |t|; C is then raised (by at most the fit
    residual, with 5% headroom) so channel <= 1.1·C·N·ε·exp(c|t|) holds at
    every sample.  Exact exponentials reproduce (C, c) unchanged.
    """
    times = np.asarray(times, dtype=float)
    channel = np.asarray(channel, dtype=float)
    if times.size < 8:
        raise ValueError("growth fit needs at least 8 samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("growth fit needs strictly increasing times")
    scaled = np.maximum(channel / (n_particles * epsilon), GROWTH_FLOOR)
    y = np.log(scaled)
    a = np.vstack([np.abs(times), np.ones_like(times)]).T
    slope, intercept = np.linalg.lstsq(a, y, rcond=None)[0]
    c_fit = float(slope)
    c_big = float(np.exp(intercept))
    peak = float(np.max(scaled / np.exp(c_fit * np.abs(times))))
    c_big = max(c_big, peak / 1.05)
    fit_vals = c_big * np.exp(c_fit * np.abs(times))
    residual = float(np.max(np.abs(scaled - fit_vals) / fit_vals))
    return GrowthFit(C=c_big, c=c_fit, residual=residual)


def integrated_growth_audit(times, comm_x, comm_grad, n_particles: int, m0: float) -> dict:
    """Smallest K making the integrated growth inequalities hold at every sample.

    Position channel:  comm_x(t) <= comm_x(0) + (K/m0)∫comm_grad + K·N^{-2/3}∫comm_x
    Momentum channel:  comm_grad(t) <= comm_grad(0) + K∫comm_x + K·N^{-2/3}∫comm_grad

    Trapezoid quadrature on the emitted series; one deterministic constant per
    channel is recorded (observed, never asserted against a reference value).
    """
    times = np.asarray(times, dtype=float)
    comm_x = np.asarray(comm_x, dtype=float)
    comm_grad = np.asarray(comm_grad, dtype=float)
    if times.size < 2:
        raise ValueError("audit needs at least two samples")
    nf = float(n_particles) ** (-2.0 / 3.0)

    def cumtrapz(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(times))
        return out

    ix = cumtrapz(comm_x)
    ig = cumtrapz(comm_grad)

    def min_constant(channel, first, second):
        growth = channel - channel[0]
        denom = first + second
        mask = (growth > 0) & (denom > GROWTH_FLOOR)
        if not np.any(mask):
            return 0.0
        return float(np.max(growth[mask] / denom[mask]))

    k_x = min_constant(comm_x, ig / m0, nf * ix)
    k_grad = min_constant(comm_grad, ix, nf * ig)
    return {
        "check": "integrated_growth",
        "K_position": k_x,
        "K_momentum": k_grad,
        "passed": bool(np.isfinite(k_x) and np.isfinite(k_grad)),
    }


@dataclass
class WignerField:
    """Phase-space density on position × velocity nodes (1D)."""

    values: np.ndarray       # (n_x, n_v), real
    x_grid: np.ndarray
    v_grid: np.ndarray       # ascending, nodes at ε·(dual momenta)
    box_length: float
    epsilon: float

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def dv(self) -> float:
        return float(self.v_grid[1] - self.v_grid[0])

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dv)

    def position_marginal(self) -> np.ndarray:
        return np.sum(self.values, axis=1) * self.dv

    def velocity_marginal(self) -> np.ndarray:
        return np.sum(self.values, axis=0) * self.dx


def momentum_density(orbs: OrbitalSet) -> np.ndarray:
    """Momentum occupation as a density over the v = ε·p nodes (ascending).

    Normalized so Σ n(v_k) Δv = 1; this is the position marginal of the
    Wigner transform.
    """
    grid = orbs.grid
    if grid.dim != 1:
        raise ValueError("momentum density implemented for dim=1")
    occ = np.zeros(grid.n)
    for f in orbs.orbitals:
        fh = grid.fft(f)
        occ += np.abs(fh) ** 2 * grid.cell_volume**2
    order = np.argsort(grid.p_axis)
    return occ[order] / (2.0 * np.pi * grid.epsilon * orbs.n_particles)


def wigner_transform(orbs: OrbitalSet, v_grid: np.ndarray | None = None) -> WignerField:
    """W(x,v) = N^{-1}(2π)^{-1} ∫ ω(x+εy/2, x-εy/2) e^{-ivy} dy, FFT-discretized.

    The relative coordinate y runs over the torus with spacing Δy = Δx/ε
    (half-lag shifts applied spectrally, exact for the trigonometric
    interpolant), which places the v-nodes exactly at ε·(dual momenta).
    Marginal identities of this discretization: Σ_v W Δv = ρ(x) and
    Σ_x W Δx = momentum occupation density, both exact in exact arithmetic.

    The lag coordinate is L-periodic while the exact correlation satisfies
    G(x, s+L) = G(x+L/2, s), so states must be supported well inside half
    the box for an artifact-free field (same locality caveat as the position
    seam); the residual scales with the orbital correlation at lag L/2.
    """
    grid = orbs.grid
    if grid.dim != 1:
        raise ValueError("wigner transform implemented for dim=1")
    n = grid.n
    eps = grid.epsilon
    order = np.argsort(grid.p_axis)
    v_nodes = eps * grid.p_axis[order]
    if v_grid is not None:
        v_grid = np.asarray(v_grid, dtype=float)
        if v_grid.shape != (n,) or np.max(np.abs(v_grid - v_nodes)) > 1e-12:
            raise ValueError("v_grid must be the ε-scaled dual momenta of the grid")
    # lag values s_k = freq_k·dx in FFT-index order; shifts by ±s_k/2
    s_vals = grid.freq_axis * grid.dx
    phase = np.exp(0.5j * np.outer(grid.p_axis, s_vals))  # (p index, lag index)
    corr = np.zeros((n, n), dtype=complex)  # (x, lag)
    for f in orbs.orbitals:
        fh = grid.fft(f)
        f_plus = np.fft.ifft(fh[:, None] * phase, axis=0)
        f_minus = np.fft.ifft(fh[:, None] * np.conj(phase), axis=0)
        corr += f_plus * np.conj(f_minus)
    dy = grid.dx / eps
    w = np.fft.fft(corr, axis=1) * (dy / (2.0 * np.pi * orbs.n_particles))
    imag_peak = float(np.max(np.abs(w.imag)))
    w = w.real[:, order]
    peak = max(float(np.max(np.abs(w))), 1e-300)
    if imag_peak > 1e-8 * peak:
        warnings.warn(
            f"Wigner transform imaginary residual {imag_peak:.3e} "
            "(unmatched Nyquist lag); check resolution",
            stacklevel=2,
        )
    return WignerField(values=w, x_grid=grid.x_axis.copy(), v_grid=v_nodes,
                       box_length=grid.box_length, epsilon=eps)
