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

The base channels tr|[x_a, ω]| and tr|[ε∂_a, ω]| are computed once per
sampled state: every check reads them from `OrbitalSet.base_channels`, so
the commutator series, the phase bound's right-hand side, the exchange
bound's and the kinetic ratio's denominator share one evaluation, and the
first check to read them pays for it.  The phase bound stacks only its
phase blocks, from a plane-wave table kept per (grid, samples).  The
exchange double commutator applies X to the (d+1)·N fields x_a f_j and f_j
in one call, in the form `orbitals.apply_exchange` picks.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Grid, PotentialSpec, plane_wave
from .orbitals import OrbitalSet, _one_sided_norm, apply_exchange, commutator_trace_norm, seam_mass

__all__ = [
    "GrowthFit",
    "PhaseSpaceField",
    "commutator_channels",
    "comm_x_total",
    "comm_grad_total",
    "exp_bound_check",
    "exchange_double_commutator_check",
    "kinetic_double_commutator_check",
    "growth_fit",
    "integrated_growth_audit",
    "wigner_transform",
    "default_phase_samples",
    "MARGIN_TOL",
    "SEAM_MASS_WARN",
    "PHASE_SAMPLE_COUNT",
]

MARGIN_TOL = -1e-9       # inequality margins must stay above this
SEAM_MASS_WARN = 1e-3    # position-seam validity threshold
GROWTH_FLOOR = 1e-14     # log-fit floor for degenerate (symmetric) channels
PHASE_SAMPLE_COUNT = 16  # default_phase_samples' count; needs more than that many points


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
    return orbs.grid.ifft(mult * orbs.grid.fft(orbs.orbitals))


def commutator_channels(orbs: OrbitalSet) -> dict:
    """Per-axis tr|[x_a, ω]| and tr|[ε∂_a, ω]| plus the seam validity metric."""
    mass = _warn_seam(orbs)
    out = {"seam_mass": mass}
    comm_x, comm_grad = orbs.base_channels
    for a in range(orbs.grid.dim):
        out[f"comm_x_{a}"] = comm_x[a]
        out[f"comm_grad_{a}"] = comm_grad[a]
    return out


def comm_x_total(orbs: OrbitalSet) -> float:
    return sum(orbs.base_channels[0])


def comm_grad_total(orbs: OrbitalSet) -> float:
    return sum(orbs.base_channels[1])


def default_phase_samples(grid: Grid, count: int = PHASE_SAMPLE_COUNT) -> list[tuple]:
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


@functools.lru_cache(maxsize=1)
def _phase_table(grid: Grid, freqs: tuple) -> np.ndarray:
    """The unitary phases e^{ip·x} of the sampled momenta, (K, *grid.shape), read-only."""
    scale = grid.box_length ** (grid.dim / 2.0)
    table = np.empty((len(freqs), *grid.shape), dtype=complex)
    for k, freq in enumerate(freqs):
        table[k] = plane_wave(grid, freq) * scale
    table.flags.writeable = False
    return table


def exp_bound_check(orbs: OrbitalSet, p_samples: list) -> dict:
    """Phase-commutator bound at each sampled dual momentum p.

    lhs = tr|[e^{ip·x}, ω]|, rhs = (1 + |p|)·Σ_a tr|[x_a, ω]|; the margin
    rhs - lhs must not drop below -1e-9.  One block per sample goes through
    one stacked norm kernel; the position channels are the set's own.
    """
    grid = orbs.grid
    freqs = tuple(tuple(freq) for freq in p_samples)
    samples = []
    if freqs:
        # u = e^{ip·x} is unitary, so both sides have singular values
        # sqrt(1 - s_k²), s_k those of <f_i, u f_j>: tr|[u, ω]| is twice one side
        stack = np.multiply(_phase_table(grid, freqs)[:, None], orbs.orbitals)
        norms = 2.0 * _one_sided_norm(orbs, stack.reshape(len(freqs), orbs.n_particles, -1))
        base = comm_x_total(orbs)
        for freq, lhs in zip(freqs, norms.tolist()):
            p_abs = 2.0 * np.pi * float(np.linalg.norm(freq)) / grid.box_length
            rhs = (1.0 + p_abs) * base
            samples.append({"freq": list(freq), "p_abs": p_abs, "lhs": lhs, "rhs": rhs,
                            "margin": rhs - lhs})
    min_margin = min(s["margin"] for s in samples) if samples else 0.0
    return {"check": "exp_bound", "samples": samples, "min_margin": min_margin,
            "passed": bool(min_margin >= MARGIN_TOL)}


def exchange_double_commutator_check(orbs: OrbitalSet, potential: PotentialSpec) -> dict:
    """Pauli-principle exchange bound tr|[ω,[X,x_a]]| <= (2‖V̂‖₁/N)·tr|[ω,x_a]|."""
    grid = orbs.grid
    dim = grid.dim
    factor = 2.0 * potential.vhat_l1 / orbs.n_particles
    # X x_a f_j for every axis and X f_j in one block
    fields = np.concatenate([x * orbs.orbitals for x in grid.x_mesh] + [orbs.orbitals])
    exch = apply_exchange(orbs, potential, fields).reshape(dim + 1, *orbs.orbitals.shape)
    # [X, x_a] f_j in place; X and x are self-adjoint, so [X, x] is
    # skew-adjoint and tr|[ω, [X, x]]| is twice one side
    for a, x in enumerate(grid.x_mesh):
        exch[a] -= x * exch[-1]
    lhs = 2.0 * _one_sided_norm(orbs, exch[:dim].reshape(dim, orbs.n_particles, -1))
    samples = []
    for a, (left, comm_x) in enumerate(zip(lhs.tolist(), orbs.base_channels[0])):
        rhs = factor * comm_x
        samples.append({"axis": a, "lhs": left, "rhs": rhs, "margin": rhs - left})
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
class PhaseSpaceField:
    """Real phase-space density on position (periodic) × velocity nodes (1D).

    The Wigner transform of an orbital set and the state of the Vlasov flow.
    """

    values: np.ndarray       # (n_x, n_v), real
    x_grid: np.ndarray
    v_grid: np.ndarray       # ascending; a Wigner transform's at ε·(dual momenta)
    box_length: float
    epsilon: float

    @classmethod
    def from_wigner(cls, w: "PhaseSpaceField") -> "PhaseSpaceField":
        """An independent copy of a Wigner transform, as a Vlasov initial state."""
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

    def position_marginal(self) -> np.ndarray:
        """ρ(x) = ∫ W(x, v) dv."""
        return np.sum(self.values, axis=1) * self.dv

    def velocity_marginal(self) -> np.ndarray:
        """∫ W(x, v) dx, for a Wigner transform the momentum density."""
        return np.sum(self.values, axis=0) * self.dx


def wigner_transform(orbs: OrbitalSet, v_grid: np.ndarray | None = None) -> PhaseSpaceField:
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
    # lag values s_k = freq_k·dx in FFT-index order; row k shifts by +s_k/2
    s_vals = grid.freq_axis * grid.dx
    phase = np.exp(0.5j * np.outer(s_vals, grid.p_axis))  # (lag index, p index)
    # f(x - s/2) is row -s of the f(x + s'/2) table; the unmatched Nyquist
    # lag -n/2 has no row +n/2 and gets its own n-point transform
    reverse = -np.arange(n) % n
    nyquist = n // 2
    corr = np.zeros((n, n), dtype=complex)  # (lag, x)
    for f in orbs.orbitals:
        fh = grid.fft(f)
        f_plus = np.fft.ifft(phase * fh)
        f_minus = f_plus[reverse]
        f_minus[nyquist] = np.fft.ifft(fh * np.conj(phase[nyquist]))
        np.conjugate(f_minus, out=f_minus)
        f_minus *= f_plus
        corr += f_minus
    dy = grid.dx / eps
    w = np.fft.fft(corr.T) * (dy / (2.0 * np.pi * orbs.n_particles))
    imag_peak = float(np.max(np.abs(w.imag)))
    w = w.real[:, order]
    peak = max(float(np.max(np.abs(w))), 1e-300)
    if imag_peak > 1e-8 * peak:
        warnings.warn(
            f"Wigner transform imaginary residual {imag_peak:.3e} "
            "(unmatched Nyquist lag); check resolution",
            stacklevel=2,
        )
    return PhaseSpaceField(values=w, x_grid=grid.x_axis.copy(), v_grid=v_nodes,
                           box_length=grid.box_length, epsilon=eps)
