"""Time evolution of orbital sets under the selected mean-field equation.

The density-matrix equation iε ∂_t ω = [h(t), ω] is realized on orbitals as
iε ∂_t f_j = h(t) f_j, which preserves the projection property exactly and
is equivalent for ω = Σ|f_j><f_j|.  Two schemes:

  exponential_midpoint  exp(-i dt h(t+dt/2)/ε) applied to the N-orbital block
                        through one Lanczos recurrence on I_N ⊗ h, the
                        half-step mean field obtained by one fixed-point
                        pass: 2 mean-field builds and 2 Krylov solves a step
                        (default scheme).
  rk4_frozen_field      classical RK4 on the coupled orbital system with the
                        mean field re-evaluated at every stage (cross-check).

One midpoint stepper, `_exponential_midpoint`, serves the grid step (Krylov
propagator) and `ed.ModeMeanField.step` (the spectral exponential of the
Hermitian mode-space mean field, one eigh per call).  One time loop,
`_time_loop`, serves `evolve`, `pair_evolve` and `ed.hf_mode_evolution`: at
k = 0, every multiple of an observer's cadence and the last step it repairs
the state (Löwdin, nothing for a pair, the polar factor in `ed`) and samples
the due observers at t0 + k·dt.

h(ω) comes from one `scf.MeanField` per evolution, which picks its path
once: the dense Fock matrix, or the FFT path with the exchange by
`orbitals._fft_exchange`; the rule and the forms are in the `scf` module
docstring.  `_mean_field` builds it from the state's grid, potential,
config (dispersion, scheme, exchange_on, keep_trap) and N, and the state
carries it.  `evolve` seeds its initial state with it before the t = 0
samples, so that every sample and step reads the same MeanField; `step`
builds it on first use, so a bare SimState steps as well, and carries it on
the state it returns.  A state whose potential or those config fields
differ from the MeanField's inputs gets a fresh one.  On the dense
path the MeanField owns K and V(x_i - x_j), so they live as long as the
states that carry it; a flow on the FFT path holds neither.  Each leg of a
`pair_evolve` builds its own at its first step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grids import Dispersion, Grid, PotentialSpec
from .krylov import expm_apply_block
from .orbitals import OrbitalSet, hs_distance_squared, reorthonormalize
from .scf import MeanField

__all__ = [
    "EvolutionConfig",
    "SimState",
    "Observer",
    "DiagnosticsSeries",
    "EvolveResult",
    "StepRejected",
    "step",
    "evolve",
    "pair_evolve",
    "step_count",
    "suggested_dt_cap",
]

SCHEMES = ("exponential_midpoint", "rk4_frozen_field")
GRAM_STEP_TOL = 1e-6
# t_final - t0 must be a whole number of steps to this relative tolerance, so
# a run has at most 1/STEP_COUNT_RTOL steps: beyond that the tolerance
# exceeds one step
STEP_COUNT_RTOL = 1e-9


class StepRejected(RuntimeError):
    """Raised when a step degrades orthonormality beyond tolerance (dt too large)."""


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_final: float
    scheme: str = "exponential_midpoint"
    exchange_on: bool = True
    dispersion: Dispersion = None
    reortho_every: int = 10
    keep_trap: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be a finite positive number, got {self.dt}")
        if self.reortho_every < 1:
            raise ValueError(f"reortho_every must be >= 1, got {self.reortho_every}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.dispersion is None:
            raise ValueError("dispersion must be set")


@dataclass
class SimState:
    time: float
    orbitals: OrbitalSet
    potential: PotentialSpec
    config: EvolutionConfig
    step_index: int = 0
    # pre-reorthonormalization audit values of the most recent step
    last_gram_deviation: float = 0.0
    last_projection_residual: float = 0.0
    # the evolution's mean field, seeded by evolve or built by the first step
    # (module docstring)
    mean_field: MeanField | None = field(default=None, repr=False, compare=False)


@dataclass
class Observer:
    """Named diagnostic sampled every `cadence` steps (and at t=0 and t_final)."""

    name: str
    cadence: int
    fn: object  # SimState -> dict[str, float]


@dataclass
class DiagnosticsSeries:
    times: list = field(default_factory=list)
    channels: dict = field(default_factory=dict)

    def append(self, t: float, values: dict) -> None:
        if self.channels and set(values) != set(self.channels):
            raise ValueError("observer returned inconsistent channel names")
        self.times.append(t)
        for k, v in values.items():
            self.channels.setdefault(k, []).append(v)


@dataclass
class EvolveResult:
    state: SimState  # the (a, b) pair of states for pair_evolve
    series: dict
    aborted: bool = False
    abort_reason: str = ""


def suggested_dt_cap(grid: Grid, dispersion: Dispersion) -> float:
    """dt <= 0.1 ε / ||symbol||_inf, the step-size rule for the ε-scaled generator."""
    return 0.1 * grid.epsilon / float(np.max(dispersion.symbol(grid)))


def _mean_field(state: SimState) -> MeanField:
    """The MeanField the state carries, or a fresh one where it serves other inputs."""
    cfg = state.config
    inputs = (state.orbitals.grid, state.potential, cfg.dispersion, cfg.scheme,
              cfg.exchange_on, cfg.keep_trap, state.orbitals.n_particles)
    if state.mean_field is not None and state.mean_field.inputs == inputs:
        return state.mean_field
    return MeanField.for_evolution(*inputs)


def _propagate_all(apply_h_block, orbs_arr: np.ndarray, tau: float,
                   grid: Grid) -> np.ndarray:
    flat = orbs_arr.reshape(orbs_arr.shape[0], -1)

    def matvec(rows: np.ndarray) -> np.ndarray:
        shaped = rows.reshape(rows.shape[0], *grid.shape)
        return apply_h_block(shaped).reshape(rows.shape[0], -1)

    out = expm_apply_block(matvec, flat, tau, weight=grid.cell_volume)
    return out.reshape(orbs_arr.shape)


def _exponential_midpoint(phi: np.ndarray, mean_field, propagate, dt: float) -> np.ndarray:
    """One exponential-midpoint step of the orbital rows phi.

    mean_field(orbitals) gives the generator h of their projection and
    propagate(h, phi, tau) applies exp(-i tau h / ε) to phi.  The half-step
    orbitals come from one fixed-point pass, exp(-i (dt/2) h(phi) / ε) phi,
    which is off by O(dt²) and so keeps the step second order: two builds
    of h and two propagations a step.
    """
    half = propagate(mean_field(phi), phi, 0.5 * dt)
    return propagate(mean_field(half), phi, dt)


def _step_exponential_midpoint(state: SimState, mean_field: MeanField) -> np.ndarray:
    grid = state.orbitals.grid
    return _exponential_midpoint(
        state.orbitals.orbitals, mean_field.closure,
        lambda apply_h, phi, tau: _propagate_all(apply_h, phi, tau / grid.epsilon, grid),
        state.config.dt)


def _step_rk4(state: SimState, mean_field: MeanField) -> np.ndarray:
    cfg = state.config
    grid = state.orbitals.grid
    eps = grid.epsilon
    phi = state.orbitals.orbitals

    def rhs(arr: np.ndarray) -> np.ndarray:
        return mean_field.closure(arr)(arr) * (-1j / eps)

    k1 = rhs(phi)
    k2 = rhs(phi + 0.5 * cfg.dt * k1)
    k3 = rhs(phi + 0.5 * cfg.dt * k2)
    k4 = rhs(phi + cfg.dt * k3)
    return phi + (cfg.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: SimState) -> SimState:
    """Advance one dt; raises StepRejected when orthonormality degrades."""
    mean_field = _mean_field(state)
    if state.config.scheme == "exponential_midpoint":
        new_phi = _step_exponential_midpoint(state, mean_field)
    else:
        new_phi = _step_rk4(state, mean_field)
    new_orbs = OrbitalSet(new_phi, state.orbitals.grid, validate=False)
    gram = new_orbs.gram()
    eye = np.eye(new_orbs.n_particles)
    dev = float(np.max(np.abs(gram - eye)))
    if not np.isfinite(dev) or dev > GRAM_STEP_TOL:
        raise StepRejected(
            f"post-step Gram deviation {dev:.3e} exceeds {GRAM_STEP_TOL:g}; reduce dt"
        )
    # ||ω²-ω||_HS from the Gram alone: tr(A† G A G) with A = G - I
    a = gram - eye
    proj = float(np.sqrt(max(np.trace(a.conj().T @ gram @ a @ gram).real, 0.0)))
    idx = state.step_index + 1
    if idx % state.config.reortho_every == 0:
        new_orbs = reorthonormalize(new_orbs)
    return replace(state, time=state.time + state.config.dt, orbitals=new_orbs,
                   step_index=idx, last_gram_deviation=dev,
                   last_projection_residual=proj, mean_field=mean_field)


def _time_loop(state, n_steps: int, t0: float, dt: float, advance, repair,
               observers) -> EvolveResult:
    """Step state = advance(state, t0 + k·dt) for k = 1..n_steps (module docstring).

    A StepRejected from advance ends the run with the last accepted state.
    """
    series = {obs.name: DiagnosticsSeries() for obs in observers}
    for k in range(n_steps + 1):
        t = t0 + k * dt
        if k:
            try:
                state = advance(state, t)
            except StepRejected as exc:
                return EvolveResult(state, series, aborted=True, abort_reason=str(exc))
        due = [obs for obs in observers if k % obs.cadence == 0 or k == n_steps]
        if due and repair is not None:
            state = repair(state)
        for obs in due:
            series[obs.name].append(t, obs.fn(state))
    return EvolveResult(state, series)


def step_count(t0: float, t_final: float, dt: float) -> int:
    """Steps of dt from t0 to t_final; refuses a span that dt does not divide.

    A count above 1/STEP_COUNT_RTOL is refused too: there the whole-number
    tolerance exceeds one step, so divisibility can no longer be told.
    """
    if t_final < t0:
        raise ValueError("t_final precedes current time")
    steps = (t_final - t0) / dt
    if not steps * STEP_COUNT_RTOL <= 1.0:
        raise ValueError(f"(t_final - t0)/dt = {steps!r} is not a finite step count of at "
                         f"most {1 / STEP_COUNT_RTOL:.0e}")
    n_steps = int(round(steps))
    if abs(steps - n_steps) > STEP_COUNT_RTOL * max(n_steps, 1):
        raise ValueError(
            f"t_final - t0 = {t_final - t0!r} is not a whole number of steps dt = {dt!r}"
        )
    return n_steps


def evolve(state: SimState, observers: list | None = None) -> EvolveResult:
    """Run to t_final, sampling each observer at its cadence (plus t=0 and the end).

    Sampled states are reorthonormalized first, so observers see the
    orbital-set invariants at full precision.  The state is seeded with its
    MeanField first, so the t = 0 samples read the one the steps use.
    """
    cfg = state.config
    n_steps = step_count(state.time, cfg.t_final, cfg.dt)
    cap = suggested_dt_cap(state.orbitals.grid, cfg.dispersion)
    if cfg.dt > cap:
        warnings.warn(
            f"dt={cfg.dt:g} exceeds the suggested cap 0.1*eps/max(symbol)={cap:g}",
            stacklevel=2,
        )
    return _time_loop(replace(state, mean_field=_mean_field(state)), n_steps, state.time,
                      cfg.dt, lambda s, t: replace(step(s), time=t),
                      lambda s: replace(s, orbitals=reorthonormalize(s.orbitals)),
                      observers or [])


def pair_evolve(state_a: SimState, state_b: SimState, comparator: str,
                cadence: int = 1) -> EvolveResult:
    """Evolve two states from identical initial data, recording tr|ω_a - ω_b|^2.

    comparator names the single config axis allowed to differ
    ("exchange_on", "dispersion" or "scheme"); anything else mismatched is
    rejected.  The distances, taken without repair, are
    series["hs_distance_squared"]; the result's state is the (a, b) pair, and
    a step rejected on either leg ends the run as in `evolve`.
    """
    allowed = {"exchange_on", "dispersion", "scheme"}
    if comparator not in allowed:
        raise ValueError(f"comparator must be one of {sorted(allowed)}")
    if state_a.orbitals.grid != state_b.orbitals.grid:
        raise ValueError("pair evolution requires identical grids")
    if np.max(np.abs(state_a.orbitals.orbitals - state_b.orbitals.orbitals)) > 1e-12:
        raise ValueError("pair evolution requires identical initial orbitals")
    for name in (f.name for f in fields(EvolutionConfig) if f.name != comparator):
        if getattr(state_a.config, name) != getattr(state_b.config, name):
            raise ValueError(f"configs differ on {name!r}, not on the comparator axis")

    dt = state_a.config.dt
    n_steps = step_count(state_a.time, state_a.config.t_final, dt)
    distance = Observer("hs_distance_squared", cadence, lambda pair: {
        "hs_distance_squared": hs_distance_squared(pair[0].orbitals, pair[1].orbitals)})
    return _time_loop((state_a, state_b), n_steps, state_a.time, dt,
                      lambda pair, t: tuple(replace(step(s), time=t) for s in pair),
                      None, [distance])
