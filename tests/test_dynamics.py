import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhflab import ed, propagate, scf
from rhflab.ed import FockBasis, ModeMeanField, fermi_sea_modes, hf_mode_evolution
from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
    convolve_potential,
    dense_pays,
    gaussian_vhat,
    harmonic_trap,
    plane_wave,
)
from rhflab import krylov
from rhflab import orbitals as orbitals_module
from rhflab.krylov import expm_apply_block
from rhflab.orbitals import (
    OrbitalSet,
    apply_exchange,
    fermi_sea,
    hs_distance_squared,
    reduced_density,
    reorthonormalize,
)
from rhflab.propagate import (
    DiagnosticsSeries,
    EvolutionConfig,
    EvolveResult,
    Observer,
    SimState,
    StepRejected,
    evolve,
    pair_evolve,
    step,
    suggested_dt_cap,
)
from rhflab.scf import DENSE_SIZE_CAP, MeanField, ScfConfig, hf_energy, scf_minimize

from reference_orbitals import gaussian_orbital, gram_deviation


def make_state(grid, orbs, potential, **cfg):
    defaults = dict(dt=1e-2, t_final=0.1, dispersion=Dispersion.relativistic(1.0))
    defaults.update(cfg)
    return SimState(time=0.0, orbitals=orbs, potential=potential,
                    config=EvolutionConfig(**defaults))


def expm_apply_row(h, v, tau, **kwargs):
    """exp(-i·tau·h) v through the block propagator on a one-row block."""
    return expm_apply_block(lambda rows: rows @ h.T, v[None, :], tau, **kwargs)[0]


class TestKrylov:
    def test_matches_dense_expm(self):
        import scipy.linalg

        rng = np.random.default_rng(50)
        h = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        h = 0.5 * (h + h.conj().T)
        v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        tau = 0.7
        ref = scipy.linalg.expm(-1j * tau * h) @ v
        out = expm_apply_row(h, v, tau, tol=1e-13)
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_norm_preserved(self):
        rng = np.random.default_rng(51)
        h = rng.standard_normal((40, 40))
        h = 0.5 * (h + h.T) + 0j
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        out = expm_apply_row(h, v, 2.5, tol=1e-12)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)

    def test_zero_vector(self):
        out = expm_apply_row(np.eye(5), np.zeros(5, dtype=complex), 1.0)
        assert np.all(out == 0)

    def test_unreachable_tolerance_raises(self):
        # a spectrum of width 1e6 at tau = 1 outruns 64 halvings of the step
        spectrum = np.linspace(0.0, 1e6, 64)
        calls = []

        def matvec(rows):
            calls.append(rows.shape[0])
            return rows * spectrum

        with pytest.raises(krylov.KrylovError,
                           match="did not reach tolerance 1e-12 within 64 substeps"):
            expm_apply_block(matvec, np.ones((1, 64), dtype=complex), 1.0)
        assert len(calls) == 280


def reference_lanczos_block(matvec, v, tau, weight, tol_rows, m_max):
    """The slab-major Lanczos solve with a zeroed (m_max+1, b, n) basis."""
    b, n = v.shape
    beta0 = krylov._row_norms(v, weight)
    live = beta0 > 0.0
    safe0 = np.where(live, beta0, 1.0)
    basis = np.zeros((m_max + 1, b, n), dtype=complex)
    basis[0] = v / safe0[:, None]
    alphas = np.zeros((m_max, b))
    betas = np.zeros((m_max, b))
    for m in range(1, m_max + 1):
        w = matvec(basis[m - 1])
        alpha = (np.sum(np.conj(basis[m - 1]) * w, axis=1) * weight).real
        alphas[m - 1] = alpha
        w = w - alpha[:, None] * basis[m - 1]
        if m > 1:
            w = w - betas[m - 2][:, None] * basis[m - 2]
        dots = np.einsum("mbn,bn->mb", np.conj(basis[:m]), w) * weight
        w = w - np.einsum("mb,mbn->bn", dots, basis[:m])
        beta = krylov._row_norms(w, weight)
        t_mat = np.zeros((b, m, m))
        idx = np.arange(m)
        t_mat[:, idx, idx] = alphas[:m].T
        if m > 1:
            off = np.arange(m - 1)
            t_mat[:, off, off + 1] = betas[: m - 1].T
            t_mat[:, off + 1, off] = betas[: m - 1].T
        lam, q = np.linalg.eigh(t_mat)
        phases = np.einsum(
            "bij,bj,bj->bi", q, np.exp(-1j * tau * lam), np.conj(q[:, 0, :])
        )
        err = np.abs(beta * phases[:, -1] * tau)
        err = np.where(live, err, 0.0)
        degenerate = beta <= 1e-14 * (np.abs(alpha) + 1.0)
        if np.all(err <= tol_rows) or m == m_max:
            out = np.einsum("bm,mbn->bn", phases, basis[:m]) * beta0[:, None]
            return out, err
        betas[m - 1] = np.where(degenerate, 0.0, beta)
        safe = np.where(degenerate, 1.0, beta)
        basis[m] = np.where(degenerate[:, None], 0.0, w / safe[:, None])
    raise AssertionError("unreachable")


def eigh_each_iteration_lanczos_block(matvec, v, tau, weight, tol_rows, m_max):
    """The row-major solve that assembles T_m and runs eigh at every iteration.

    Inner products and norms are sums of complex products, and the three-term
    and reorthogonalization updates allocate a new array each.
    """
    def row_norms(w):
        return np.sqrt(np.sum(np.abs(w) ** 2, axis=1).real * weight)

    b, n = v.shape
    beta0 = row_norms(v)
    live = beta0 > 0.0
    safe0 = np.where(live, beta0, 1.0)
    basis = np.empty((b, m_max + 1, n), dtype=complex)
    basis[:, 0] = v / safe0[:, None]
    alphas = np.zeros((m_max, b))
    betas = np.zeros((m_max, b))
    for m in range(1, m_max + 1):
        q = basis[:, m - 1]
        w = matvec(q)
        alpha = (np.sum(np.conj(q) * w, axis=1) * weight).real
        alphas[m - 1] = alpha
        w = w - alpha[:, None] * q
        if m > 1:
            w = w - betas[m - 2][:, None] * basis[:, m - 2]
        live_basis = basis[:, :m]
        dots = np.conj(np.matmul(np.conj(w)[:, None, :],
                                 live_basis.transpose(0, 2, 1))) * weight
        w = w - np.matmul(dots, live_basis)[:, 0]
        beta = row_norms(w)
        t_mat = np.zeros((b, m, m))
        idx = np.arange(m)
        t_mat[:, idx, idx] = alphas[:m].T
        if m > 1:
            off = np.arange(m - 1)
            t_mat[:, off, off + 1] = betas[: m - 1].T
            t_mat[:, off + 1, off] = betas[: m - 1].T
        lam, q_t = np.linalg.eigh(t_mat)
        phases = np.einsum(
            "bij,bj,bj->bi", q_t, np.exp(-1j * tau * lam), np.conj(q_t[:, 0, :])
        )
        err = np.abs(beta * phases[:, -1] * tau)
        err = np.where(live, err, 0.0)
        degenerate = beta <= 1e-14 * (np.abs(alpha) + 1.0)
        if np.all(err <= tol_rows) or m == m_max:
            out = np.matmul(phases[:, None, :], live_basis)[:, 0] * beta0[:, None]
            return out, err
        betas[m - 1] = np.where(degenerate, 0.0, beta)
        safe = np.where(degenerate, 1.0, beta)
        basis[:, m] = np.where(degenerate[:, None], 0.0, w / safe[:, None])
    raise AssertionError("unreachable")


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts np.linalg.eigh calls."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestLanczosAgainstReference:
    """The row-major Lanczos solve against the slab-major reference above."""

    n = 48

    def _problem(self, b, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        h = 0.25 * (h + h.conj().T)
        # the first three coordinates span an invariant subspace
        h[:3, 3:] = 0.0
        h[3:, :3] = 0.0
        v = rng.standard_normal((b, self.n)) + 1j * rng.standard_normal((b, self.n))
        if b > 1:
            v[1] = 0.0
            # a row inside the invariant subspace: beta vanishes at m = 3
            v[2, 3:] = 0.0
        return h, v

    @staticmethod
    def _counting(h):
        calls = []

        def matvec(rows):
            calls.append(rows.shape[0])
            return rows @ h.T

        return matvec, calls

    @pytest.mark.parametrize("b", [1, 16])
    @pytest.mark.parametrize("tau", [0.05, 0.6])
    def test_single_solve_matches(self, b, tau):
        h, v = self._problem(b, seed=60 + b)
        weight = 0.3
        tol_rows = 1e-12 * np.maximum(krylov._row_norms(v, weight), 1.0)
        mv_new, calls_new = self._counting(h)
        mv_ref, calls_ref = self._counting(h)
        for m_max in (4, 40):
            out, err = krylov._lanczos_block(mv_new, v, tau, weight, tol_rows, m_max)
            ref, ref_err = reference_lanczos_block(mv_ref, v, tau, weight, tol_rows, m_max)
            assert calls_new == calls_ref
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.allclose(err, ref_err, rtol=1e-6, atol=1e-13)
        if b > 1:
            assert np.all(out[1] == 0.0)

    @pytest.mark.parametrize("b", [1, 16])
    def test_substepped_propagation_matches(self, b, monkeypatch):
        # tau large enough that m_max = 40 forces substep halving
        h, v = self._problem(b, seed=70 + b)
        mv_new, calls_new = self._counting(h)
        out = expm_apply_block(mv_new, v, 30.0, weight=0.5)
        monkeypatch.setattr(krylov, "_lanczos_block", reference_lanczos_block)
        mv_ref, calls_ref = self._counting(h)
        ref = expm_apply_block(mv_ref, v, 30.0, weight=0.5)
        assert len(calls_ref) > 40
        assert calls_new == calls_ref
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def _dense_problem(self, b, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        h = 0.25 * (h + h.conj().T)
        v = rng.standard_normal((b, self.n)) + 1j * rng.standard_normal((b, self.n))
        return h, v

    def _against_eigh_each_iteration(self, h, v, tau, m_max, eigh_calls):
        weight = 0.3
        tol_rows = 1e-12 * np.maximum(krylov._row_norms(v, weight), 1.0)
        mv_new, calls_new = self._counting(h)
        mv_ref, calls_ref = self._counting(h)
        out, err = krylov._lanczos_block(mv_new, v, tau, weight, tol_rows, m_max)
        solved = len(eigh_calls)
        ref, ref_err = eigh_each_iteration_lanczos_block(mv_ref, v, tau, weight,
                                                         tol_rows, m_max)
        assert calls_new == calls_ref
        assert len(eigh_calls) - solved == len(calls_ref)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.allclose(err, ref_err, rtol=1e-6, atol=1e-13)
        return solved, len(calls_new)

    @pytest.mark.parametrize("tau", [0.002, 0.05])
    @pytest.mark.parametrize("m_max", [4, 40])
    def test_dense_block_matches_eigh_each_iteration(self, tau, m_max, eigh_calls):
        h, v = self._dense_problem(32, seed=80)
        solved, matvecs = self._against_eigh_each_iteration(h, v, tau, m_max, eigh_calls)
        if m_max == 40:
            assert solved < matvecs

    @pytest.mark.parametrize("m_max", [1, 4, 40])
    def test_large_tau_solves_every_iteration(self, m_max, eigh_calls):
        # τ‖T_m‖ is large, so the bound is vacuous from m = 2 on; at m = 1 the
        # entry is a pure phase and the bound is exact
        h, v = self._dense_problem(32, seed=81)
        solved, matvecs = self._against_eigh_each_iteration(h, v, 30.0, m_max, eigh_calls)
        assert matvecs == m_max
        assert solved == max(m_max - 1, 1)

    @pytest.mark.parametrize("b, tau", [(16, 0.05), (32, 0.002), (32, 30.0)])
    def test_skipped_eigensolves_change_no_bit(self, b, tau, monkeypatch, eigh_calls):
        h, v = self._problem(b, seed=82)
        weight = 0.3
        tol_rows = 1e-12 * np.maximum(krylov._row_norms(v, weight), 1.0)
        mv, calls = self._counting(h)
        out, err = krylov._lanczos_block(mv, v, tau, weight, tol_rows, 40)
        skipping = len(eigh_calls)
        # an infinite allowance makes the bound vacuous: eigh at every iteration
        monkeypatch.setattr(krylov, "EIGH_ALLOWANCE", np.inf)
        every, every_err = krylov._lanczos_block(mv, v, tau, weight, tol_rows, 40)
        assert len(eigh_calls) - skipping == len(calls) // 2
        assert skipping < len(calls) // 2
        assert out.tobytes() == every.tobytes()
        assert err.tobytes() == every_err.tobytes()


def basis_overlap(matvec, v, tau, weight):
    """Per row, weight·max|Q^H Q - I| over the nonzero Krylov vectors of one solve.

    The basis is read off the matvec inputs, which are its vectors in order.
    """
    seen = []

    def recording(rows):
        seen.append(np.array(rows))
        return matvec(rows)

    tol_rows = 1e-12 * np.maximum(krylov._row_norms(v, weight), 1.0)
    krylov._lanczos_block(recording, v, tau, weight, tol_rows, 40)
    q = np.stack(seen, axis=1)
    overlaps = []
    for row in q:
        live = row[np.any(row != 0.0, axis=1)]
        gram = weight * (live.conj() @ live.T)
        overlaps.append(np.max(np.abs(gram - np.eye(len(live))), initial=0.0))
    return np.array(overlaps), q.shape[1]


@pytest.fixture(scope="module")
def stationary_state():
    """A trapped HF ground state kept in its trap: each orbital is an
    eigenvector of h(ω) up to the SCF residual, so β_1 ≪ α_1."""
    grid = Grid(1, 128, 4.0 * np.pi, 1.0 / 16.0)
    disp = Dispersion.relativistic(1.0)
    pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                        coupling=0.5)
    orbs = scf_minimize(grid, pot, 8, disp, ScfConfig(max_iterations=200)).orbitals
    state = make_state(grid, orbs, pot, dt=suggested_dt_cap(grid, disp), t_final=1.0,
                       dispersion=disp, keep_trap=True)
    apply_h = propagate._mean_field(state).closure(orbs.orbitals)

    def matvec(rows):
        return apply_h(rows.reshape(rows.shape[0], *grid.shape)).reshape(rows.shape)

    return matvec, orbs.orbitals.reshape(8, -1), grid


class TestLanczosBasis:
    """Orthogonality of the Krylov basis a solve builds."""

    @pytest.mark.parametrize("tau", [0.05, 0.6, 30.0])
    def test_orthonormal_on_reference_problem(self, tau):
        # row 1 is zero and row 2 lies in an invariant subspace (β_3 = 0)
        problem = TestLanczosAgainstReference()
        h, v = problem._problem(16, seed=90)
        overlaps, _ = basis_overlap(lambda rows: rows @ h.T, v, tau, 0.3)
        assert np.max(overlaps) <= 1e-13

    def test_orthonormal_on_stationary_state(self, stationary_state):
        matvec, phi, grid = stationary_state
        dv = grid.cell_volume
        w = matvec(phi)
        alpha = np.sum(phi.conj() * w, axis=1).real * dv
        beta = np.sqrt(np.sum(np.abs(w - alpha[:, None] * phi) ** 2, axis=1) * dv)
        assert np.all(beta <= 1e-5 * alpha)
        tau = suggested_dt_cap(grid, Dispersion.relativistic(1.0)) / grid.epsilon
        overlaps, m = basis_overlap(matvec, phi, tau, dv)
        assert m >= 3
        assert np.max(overlaps) <= 1e-13


class TestEntryFloor:
    """The lower bound that lets a Lanczos iteration skip its eigensolve."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1),
           tau_norm=st.floats(1e-4, 5.0),
           shift=st.floats(-50.0, 50.0))
    def test_floor_below_eigensolved_entry(self, m, seed, tau_norm, shift):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(-1.0, 1.0, m)
        betas = rng.uniform(0.0, 1.0, m - 1) ** rng.uniform(0.5, 3.0)
        t_mat = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        norm = np.max(np.abs(np.linalg.eigvalsh(t_mat)))
        tau = tau_norm / norm if norm > 0 else tau_norm
        # shift·tau up to 50: a shift changes the entry by a global phase only
        alphas = alphas + shift / tau
        lead = min(1.0, np.prod(tau * betas) / math.factorial(m - 1))
        floor = krylov._entry_floor(np.array([lead]), alphas.max(keepdims=True),
                                    alphas.min(keepdims=True),
                                    np.array([betas.max() if m > 1 else 0.0]), tau, m)[0]
        entry = abs(krylov._exp_first_column(alphas[None], betas[None], tau)[0, -1])
        assert floor <= entry
        if m == 1:
            assert floor > 0.99

    def test_floor_is_tight_for_small_tau(self):
        alphas = np.array([[0.3, -0.2, 0.5, 0.1]])
        betas = np.array([[0.7, 0.4, 0.9]])
        tau = 1e-3
        lead = np.prod(tau * betas) / math.factorial(3)
        floor = krylov._entry_floor(np.array([lead]), alphas.max(axis=1), alphas.min(axis=1),
                                    betas.max(axis=1), tau, 4)[0]
        entry = abs(krylov._exp_first_column(alphas, betas, tau)[0, -1])
        assert 0.995 * entry <= floor <= entry


class TestEigensolvesPerSolve:
    @pytest.mark.parametrize("dt, keep_trap", [(1e-3, False), (None, True)],
                             ids=["released", "trapped-at-cap"])
    def test_one_eigensolve_per_converged_solve(self, dt, keep_trap, monkeypatch,
                                                eigh_calls):
        # a trapped ground state under the Hartree flow (exchange off), released
        # at dt = 1e-3 or kept in the trap at the suggested dt cap: every solve
        # stops before m_max, and only its last iteration runs an eigensolve
        grid = Grid(1, 128, 4.0 * np.pi, 1.0 / 16.0)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        orbs = scf_minimize(grid, pot, 8, disp, ScfConfig(max_iterations=200)).orbitals
        state = make_state(grid, orbs, pot, dt=dt or suggested_dt_cap(grid, disp),
                           t_final=1.0, dispersion=disp, exchange_on=False,
                           keep_trap=keep_trap)
        solves = []
        lanczos_block = krylov._lanczos_block

        def counting(matvec, v, *args):
            def counted(rows):
                solves[-1] += 1
                return matvec(rows)

            solves.append(0)
            return lanczos_block(counted, v, *args)

        monkeypatch.setattr(krylov, "_lanczos_block", counting)
        eigh_calls.clear()
        new = step(state)
        assert len(eigh_calls) == len(solves) == 2  # one half-step and one full-step solve
        assert all(1 < m < 40 for m in solves), solves
        monkeypatch.setattr(krylov, "_lanczos_block", eigh_each_iteration_lanczos_block)
        ref = step(state)
        assert len(eigh_calls) - len(solves) == sum(solves)
        assert hs_distance_squared(new.orbitals, ref.orbitals) <= 1e-26


class TestStep:
    def test_free_plane_wave_projector_invariant(self, grid64):
        pot = PotentialSpec(grid64, np.zeros(grid64.shape))
        orbs = OrbitalSet(plane_wave(grid64, [3])[None, :], grid64)
        state = make_state(grid64, orbs, pot, dt=5e-3, t_final=0.05)
        for _ in range(5):
            state = step(state)
        assert hs_distance_squared(state.orbitals, orbs) <= 1e-12

    def test_interacting_fermi_sea_stationary(self):
        grid = Grid(1, 64, 2.0 * np.pi, 0.25)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), coupling=0.5)
        disp = Dispersion.relativistic(1.0)
        orbs = fermi_sea(grid, 4, disp)
        # 333 whole steps: the span must be a multiple of dt
        state = make_state(grid, orbs, pot, dt=3e-3, t_final=0.999, dispersion=disp)
        result = evolve(state)
        assert not result.aborted
        assert hs_distance_squared(result.state.orbitals, orbs) <= 1e-8

    def test_wavepacket_group_velocity(self):
        # relativistic packet: d<x>/dt = eps p0 / sqrt(eps^2 p0^2 + m0^2).
        # The center moves at the momentum-averaged group velocity, so the
        # dispersion curvature demands a narrow spread: (eps sigma_p)^2 << 1e-3.
        grid = Grid(1, 256, 8.0 * np.pi, 1.0 / 16.0)
        pot = PotentialSpec(grid, np.zeros(grid.shape))
        m0 = 1.0
        k0 = 64  # integer mode; p0 = 2*pi*k0/L = 16, so eps*p0 = 1
        g = gaussian_orbital(grid, center=-4.0, sigma=1.0, momentum_freqs=[k0])
        orbs = OrbitalSet(g[None, :], grid)
        disp = Dispersion.relativistic(m0)
        state = make_state(grid, orbs, pot, dt=2e-3, t_final=1.0, dispersion=disp)
        x = grid.x_mesh[0]

        def center(s):
            rho = reduced_density(s.orbitals)
            return float(np.sum(x * rho) * grid.cell_volume)

        c0 = center(state)
        result = evolve(state)
        c1 = center(result.state)
        p0 = 2.0 * np.pi * k0 / grid.box_length
        v_expected = grid.epsilon * p0 / np.sqrt(grid.epsilon**2 * p0**2 + m0**2)
        v_observed = (c1 - c0) / 1.0
        assert abs(v_observed - v_expected) <= 1e-3 * abs(v_expected)

    def test_rk4_large_step_rejected(self):
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), coupling=0.5)
        disp = Dispersion.relativistic(1.0)
        g = gaussian_orbital(grid, sigma=0.4)
        orbs = OrbitalSet(g[None, :], grid)
        state = make_state(grid, orbs, pot, dt=5.0, t_final=10.0,
                           scheme="rk4_frozen_field", dispersion=disp)
        with pytest.raises(StepRejected):
            step(state)


def reference_evolve(state, observers=None):
    """The evolve loop before the shared time loop, with its own `_emit`."""

    def emit(state, due):
        if not due:
            return state
        state = replace(state, orbitals=reorthonormalize(state.orbitals))
        for obs in due:
            series[obs.name].append(state.time, obs.fn(state))
        return state

    observers = observers or []
    cfg = state.config
    n_steps = propagate.step_count(state.time, cfg.t_final, cfg.dt)
    series = {obs.name: DiagnosticsSeries() for obs in observers}
    state = emit(state, observers)
    t0 = state.time
    for k in range(1, n_steps + 1):
        try:
            state = replace(step(state), time=t0 + k * cfg.dt)
        except StepRejected as exc:
            return EvolveResult(state, series, aborted=True, abort_reason=str(exc))
        state = emit(state, [obs for obs in observers if k % obs.cadence == 0 or k == n_steps])
    return EvolveResult(state, series)


class TestTimeLoop:
    """evolve on the shared time loop against the loop it replaced."""

    def _hf_state(self, t_final, dt=2e-3, **cfg):
        grid = Grid(1, 64, 4.0 * np.pi, 0.25)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.8)
        base = np.stack([gaussian_orbital(grid, center=c, sigma=0.5, momentum_freqs=[k])
                         for c, k in ((-0.8, 1), (0.8, -1), (0.0, 2))])
        orbs = reorthonormalize(OrbitalSet(base, grid, validate=False))
        return make_state(grid, orbs, pot, dt=dt, t_final=t_final, reortho_every=4, **cfg)

    def _observers(self):
        return [
            Observer("energy", 1, lambda s: {
                "energy": hf_energy(s.orbitals, s.potential, s.config.dispersion),
                "gram": s.last_gram_deviation}),
            Observer("density", 3, lambda s: {"rho": reduced_density(s.orbitals)}),
            Observer("snapshot", 7, lambda s: {"orbitals": s.orbitals.orbitals.copy(),
                                               "step": s.step_index}),
        ]

    @pytest.mark.parametrize("t_final, cfg", [
        (0.04, {}),
        (0.0, {}),
        (10.0, {"dt": 5.0, "scheme": "rk4_frozen_field"}),
    ], ids=["hf-20-steps", "zero-steps", "rejected"])
    @pytest.mark.filterwarnings("ignore:dt=5 exceeds the suggested cap")
    def test_bit_identical_to_reference(self, t_final, cfg):
        state = self._hf_state(t_final, **cfg)
        new = evolve(state, self._observers())
        ref = reference_evolve(state, self._observers())
        assert (new.aborted, new.abort_reason) == (ref.aborted, ref.abort_reason)
        assert new.aborted == ("dt" in cfg)
        assert new.state.time == ref.state.time
        assert new.state.step_index == ref.state.step_index
        assert np.array_equal(new.state.orbitals.orbitals, ref.state.orbitals.orbitals)
        assert list(new.series) == list(ref.series)
        for name, series in new.series.items():
            assert series.times == ref.series[name].times
            for channel, values in series.channels.items():
                ref_values = ref.series[name].channels[channel]
                assert len(values) == len(ref_values)
                assert all(np.array_equal(a, b) for a, b in zip(values, ref_values))
        if t_final == 0.04:
            assert len(new.series["snapshot"].times) == 4  # k = 0, 7, 14 and 20


class TestEvolve:
    def test_zero_steps_returns_input(self, grid64):
        pot = PotentialSpec(grid64, np.zeros(grid64.shape))
        orbs = OrbitalSet(plane_wave(grid64, [1])[None, :], grid64)
        state = make_state(grid64, orbs, pot, dt=1e-3, t_final=0.0)
        result = evolve(state)
        assert result.state.time == 0.0
        assert np.array_equal(result.state.orbitals.orbitals, orbs.orbitals)

    def test_conservation_short_run(self):
        grid = Grid(1, 128, 4.0 * np.pi, 1.0 / 8.0)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        rng = np.random.default_rng(52)
        base = np.stack(
            [gaussian_orbital(grid, center=c, sigma=0.5, momentum_freqs=[k])
             for c, k in ((-1.0, 2), (0.5, -1), (1.2, 0), (0.0, 4))]
        )
        from rhflab.orbitals import reorthonormalize

        orbs = reorthonormalize(OrbitalSet(base, grid, validate=False))
        state = make_state(grid, orbs, pot, dt=1e-3, t_final=0.25, dispersion=disp)

        energies = []
        gram_devs = []

        def watch(s):
            energies.append(hf_energy(s.orbitals, s.potential, disp))
            gram_devs.append(gram_deviation(s.orbitals))
            return {"energy": energies[-1]}

        result = evolve(state, [Observer("energy", 50, watch)])
        assert not result.aborted
        drift = max(abs(e - energies[0]) for e in energies) / max(1.0, abs(energies[0]))
        assert drift <= 1e-6
        assert max(gram_devs) <= 1e-10  # emitted states are reorthonormalized

    def test_projection_and_energy_both_schemes(self):
        grid = Grid(1, 64, 4.0 * np.pi, 0.25)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        from rhflab.orbitals import reorthonormalize

        base = np.stack(
            [gaussian_orbital(grid, center=c, sigma=0.5) * plane_wave(grid, [k])
             * grid.box_length**0.5 for c, k in ((-0.8, 1), (0.8, -2))]
        )
        orbs = reorthonormalize(OrbitalSet(base, grid, validate=False))
        e0 = hf_energy(orbs, pot, disp)
        for scheme in ("exponential_midpoint", "rk4_frozen_field"):
            state = make_state(grid, orbs, pot, dt=1e-3, t_final=0.1,
                               scheme=scheme, dispersion=disp)
            result = evolve(state)
            assert not result.aborted
            assert gram_deviation(result.state.orbitals) <= 1e-10
            assert result.state.orbitals.n_particles == 2  # trace = N structural
            e1 = hf_energy(result.state.orbitals, pot, disp)
            # drift per unit time at reference-quality resolution
            assert abs(e1 - e0) / max(1.0, abs(e0)) <= 1e-6 * 0.1

    def test_massless_runs_and_conserves(self):
        grid = Grid(1, 64, 4.0 * np.pi, 0.25)
        disp = Dispersion.massless()
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.3)
        g = gaussian_orbital(grid, sigma=0.6)
        orbs = OrbitalSet(g[None, :], grid)
        state = make_state(grid, orbs, pot, dt=2e-3, t_final=0.2, dispersion=disp)
        e0 = hf_energy(orbs, pot, disp)
        result = evolve(state)
        e1 = hf_energy(result.state.orbitals, pot, disp)
        assert not result.aborted
        assert abs(e1 - e0) <= 1e-6 * max(1.0, abs(e0))

    def test_dt_cap_warning(self):
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, np.zeros(grid.shape))
        orbs = OrbitalSet(plane_wave(grid, [0])[None, :], grid)
        cap = suggested_dt_cap(grid, disp)
        state = make_state(grid, orbs, pot, dt=2.0 * cap, t_final=4.0 * cap)
        with pytest.warns(UserWarning, match="suggested cap"):
            evolve(state)


class TestPairEvolve:
    def _orbs(self, grid):
        from rhflab.orbitals import reorthonormalize

        base = np.stack(
            [gaussian_orbital(grid, center=c, sigma=0.5, momentum_freqs=[k])
             for c, k in ((-0.8, 1), (0.8, -1))]
        )
        return reorthonormalize(OrbitalSet(base, grid, validate=False))

    def test_identical_configs_zero_series(self):
        grid = Grid(1, 64, 4.0 * np.pi, 0.25)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        orbs = self._orbs(grid)
        sa = make_state(grid, orbs, pot, dt=2e-3, t_final=0.02, dispersion=disp)
        sb = make_state(grid, orbs, pot, dt=2e-3, t_final=0.02, dispersion=disp)
        series = pair_evolve(sa, sb, "exchange_on").series["hs_distance_squared"]
        assert max(series.channels["hs_distance_squared"]) <= 1e-12

    def test_rejects_mismatch_off_axis(self):
        grid = Grid(1, 64, 4.0 * np.pi, 0.25)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        orbs = self._orbs(grid)
        sa = make_state(grid, orbs, pot, dt=2e-3, t_final=0.02, dispersion=disp)
        sb = make_state(grid, orbs, pot, dt=1e-3, t_final=0.02, dispersion=disp)
        with pytest.raises(ValueError, match="dt"):
            pair_evolve(sa, sb, "exchange_on")

    def test_hartree_leg_differs(self):
        grid = Grid(1, 64, 4.0 * np.pi, 0.25)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=1.0)
        orbs = self._orbs(grid)
        sa = make_state(grid, orbs, pot, dt=2e-3, t_final=0.1, dispersion=disp,
                        exchange_on=True)
        sb = make_state(grid, orbs, pot, dt=2e-3, t_final=0.1, dispersion=disp,
                        exchange_on=False)
        series = pair_evolve(sa, sb, "exchange_on").series["hs_distance_squared"]
        assert series.channels["hs_distance_squared"][-1] > 1e-8

    def test_rejected_leg_ends_the_run(self):
        # leg b is RK4 at the dt test_rk4_large_step_rejected rejects
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), coupling=0.5)
        orbs = OrbitalSet(gaussian_orbital(grid, sigma=0.4)[None, :], grid)
        sa = make_state(grid, orbs, pot, dt=5.0, t_final=10.0)
        sb = make_state(grid, orbs, pot, dt=5.0, t_final=10.0, scheme="rk4_frozen_field")
        result = pair_evolve(sa, sb, "scheme")
        assert result.aborted
        assert "Gram deviation" in result.abort_reason
        series = result.series["hs_distance_squared"]
        assert series.times == [0.0]
        assert series.channels["hs_distance_squared"][0] <= 1e-24
        assert [s.time for s in result.state] == [0.0, 0.0]


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0, t_final=1.0, dispersion=Dispersion.massless())

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, t_final=1.0, scheme="verlet",
                            dispersion=Dispersion.massless())

    def test_missing_dispersion(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, t_final=1.0)


class TestStepCount:
    def test_span_not_a_multiple_of_dt_rejected(self, grid64):
        pot = PotentialSpec(grid64, np.zeros(grid64.shape))
        orbs = OrbitalSet(plane_wave(grid64, [1])[None, :], grid64)
        state = make_state(grid64, orbs, pot, dt=1e-3, t_final=0.0015)
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve(state)
        with pytest.raises(ValueError, match="whole number of steps"):
            pair_evolve(state, state, "scheme")

    @pytest.mark.parametrize("dt, t_final, n_steps", [(5e-3, 0.05, 10), (3e-3, 0.009, 3)])
    def test_multiple_accepted(self, grid32, dt, t_final, n_steps):
        # 0.009 / 3e-3 is 2.9999999999999996: a multiple up to rounding
        pot = PotentialSpec(grid32, np.zeros(grid32.shape))
        orbs = OrbitalSet(plane_wave(grid32, [1])[None, :], grid32)
        result = evolve(make_state(grid32, orbs, pot, dt=dt, t_final=t_final))
        assert result.state.step_index == n_steps
        assert abs(result.state.time - t_final) <= 1e-12

    def test_time_is_t0_plus_k_dt(self, grid32):
        # summing dt a thousand times gives 1.0000000000000007
        pot = PotentialSpec(grid32, np.zeros(grid32.shape))
        orbs = OrbitalSet(plane_wave(grid32, [1])[None, :], grid32)
        state = make_state(grid32, orbs, pot, dt=1e-3, t_final=1.0)
        probe = Observer("probe", 250, lambda s: {"t": s.time})
        result = evolve(state, [probe])
        assert result.state.time == 1.0
        assert list(result.series["probe"].times) == [0.0, 0.25, 0.5, 0.75, 1.0]
        result = pair_evolve(state, state, "scheme", cadence=500)
        series = result.series["hs_distance_squared"]
        assert list(series.times) == [0.0, 0.5, 1.0]


DENSE_CASES = [
    (Grid(1, 64, 4.0 * np.pi, 1.0 / 8.0), 8),
    (Grid(2, 8, 4.0 * np.pi, 0.25), 8),
    (Grid(1, 128, 4.0 * np.pi, 1.0 / 8.0), 8),  # criterion 6's size
]


def reference_fft_closure(source, state):
    """h(ω_source) with K and the N² exchange convolutions applied by FFT.

    The FFT closure the propagator built per mean field before `MeanField`
    (the pair form on every grid).
    """
    grid = state.orbitals.grid
    cfg = state.config
    pot = state.potential
    n_part = source.shape[0]
    rho = np.sum(np.abs(source) ** 2, axis=0) / n_part
    local = convolve_potential(rho, grid, pot)
    if cfg.keep_trap:
        local = local + pot.vext
    symbol = cfg.dispersion.symbol(grid)

    def apply_h_block(fields):
        out = grid.ifft(symbol * grid.fft(fields))
        out += local * fields
        return out

    if not (cfg.exchange_on and pot.has_interaction()):
        return apply_h_block
    vhat = pot.vhat_eff
    src_conj = np.conj(source)

    def apply_hf_block(fields):
        out = apply_h_block(fields)
        pair = src_conj[None, ...] * fields[:, None, ...]
        conv = grid.ifft(vhat * grid.fft(pair))
        out -= np.sum(source[None, ...] * conv, axis=1) / n_part
        return out

    return apply_hf_block


def kicked_scf_state(grid, n_part, keep_trap=False, **cfg):
    """Trapped SCF ground state, kicked by one momentum unit along every axis."""
    disp = Dispersion.relativistic(1.0)
    pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0),
                        vext=harmonic_trap(grid, 1.0), coupling=0.5)
    res = scf_minimize(grid, pot, n_part, disp, ScfConfig(max_iterations=200))
    kick = plane_wave(grid, [1] * grid.dim) * grid.box_length ** (grid.dim / 2.0)
    orbs = OrbitalSet(res.orbitals.orbitals * kick, grid, validate=False)
    defaults = dict(dt=2e-3, t_final=0.02, dispersion=disp, keep_trap=keep_trap)
    defaults.update(cfg)
    return make_state(grid, orbs, pot, **defaults)


def forced_path(state, path):
    """The state carrying a MeanField on the given path in place of the rule's."""
    cfg = state.config
    mean_field = MeanField.for_evolution(
        state.orbitals.grid, state.potential, cfg.dispersion, cfg.scheme, cfg.exchange_on,
        cfg.keep_trap, state.orbitals.n_particles, path=path)
    return replace(state, mean_field=mean_field)


def random_block(grid, rows, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, *grid.shape))
            + 1j * rng.standard_normal((rows, *grid.shape)))


def large_blocks(size):
    """Live traced allocations that can hold a real size×size matrix."""
    import tracemalloc

    snapshot = tracemalloc.take_snapshot()
    return [trace.size for trace in snapshot.traces if trace.size >= 8 * size * size]


class TestDenseFock:
    """The dense Fock path against the FFT reference path."""

    @pytest.mark.parametrize("keep_trap", [False, True])
    @pytest.mark.parametrize("grid, n_part", DENSE_CASES)
    def test_block_apply_matches_fft(self, grid, n_part, keep_trap):
        state = kicked_scf_state(grid, n_part, keep_trap)
        source = state.orbitals.orbitals
        dense = forced_path(state, "dense").mean_field.closure(source)
        for block in (source, random_block(grid, 5, 11)):
            ref = reference_fft_closure(source, state)(block)
            assert np.max(np.abs(dense(block) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("keep_trap", [False, True])
    @pytest.mark.parametrize("grid, n_part", DENSE_CASES)
    def test_evolve_matches_fft(self, grid, n_part, keep_trap):
        # the two paths agree to rounding: measured after 10 steps 2e-29 to
        # 5e-29; the bound is the 2N eps_machine (3.6e-15 at N=8) cancellation
        # floor of the former 2N - 2‖<F_a, F_b>‖² form of hs_distance_squared
        state = kicked_scf_state(grid, n_part, keep_trap)
        dense = evolve(state)
        assert dense.state.mean_field.path == "dense"
        fft = evolve(forced_path(state, "pair"))
        assert not dense.aborted and not fft.aborted
        moved = hs_distance_squared(fft.state.orbitals, state.orbitals)
        assert moved > 1e-6
        floor = 2 * n_part * np.finfo(float).eps
        assert hs_distance_squared(dense.state.orbitals, fft.state.orbitals) <= 2 * floor

    @pytest.mark.parametrize("keep_trap", [False, True])
    def test_scf_and_propagation_build_static_matrices_once(self, keep_trap, monkeypatch):
        # the SCF builds K and V(x_i - x_j) once for its own MeanField, the
        # evolution once for the one MeanField its first step builds
        grid, n_part = DENSE_CASES[0]
        built = []
        circulant = scf._circulant
        monkeypatch.setattr(scf, "_circulant", lambda *args: built.append(1) or circulant(*args))
        state = kicked_scf_state(grid, n_part, keep_trap)
        assert len(built) == 2
        result = evolve(state)
        assert not result.aborted
        assert result.state.mean_field.path == "dense"
        assert len(built) == 4

    def test_selection(self):
        # (dim, n, N, config, interacting) -> path; DENSE_COST = 0.75
        table = [
            ((1, 256, 32, {}, True), "dense"),
            ((1, 256, 16, {}, True), "dense"),
            ((1, 256, 8, {}, True), "dense"),      # 192 <= 64·8
            ((1, 256, 4, {}, True), "pair"),       # 192 > 16·8
            ((1, 128, 8, {}, True), "dense"),      # criterion 6
            ((1, 128, 4, {}, True), "dense"),      # 96 <= 16·7
            ((1, 128, 2, {}, True), "pair"),
            ((1, 64, 4, {}, True), "dense"),
            ((1, 256, 32, {"exchange_on": False}, True), "pair"),
            ((1, 256, 32, {"scheme": "rk4_frozen_field"}, True), "pair"),
            ((1, 256, 32, {}, False), "pair"),
            ((2, 32, 8, {}, True), "pair"),        # 768 > 64·10
            ((2, 32, 16, {}, True), "dense"),
            ((2, 32, 16, {"exchange_on": False}, True), "pair"),
            ((2, 64, 8, {}, True), "pair"),
            # above the dense cap the FFT path runs even where the cost rule favours dense
            ((2, 128, 80, {}, True), "pair"),
            ((1, 8192, 64, {}, True), "pair"),
            ((3, 8, 16, {}, True), "dense"),
            ((3, 32, 256, {}, True), "pair"),
        ]
        disp = Dispersion.relativistic(1.0)
        for (dim, n, n_part, cfg, interacting), path in table:
            grid = Grid(dim, n, 4.0 * np.pi, 0.1)
            vhat = gaussian_vhat(grid, 1.0) if interacting else np.zeros(grid.shape)
            config = EvolutionConfig(dt=1e-3, t_final=1e-3, dispersion=disp, **cfg)
            got = MeanField.for_evolution(grid, PotentialSpec(grid, vhat, coupling=0.5), disp,
                                          config.scheme, config.exchange_on, config.keep_trap,
                                          n_part).path
            assert got == path, (dim, n, n_part, cfg, interacting)
            if grid.size > DENSE_SIZE_CAP:
                assert scf.DENSE_COST * grid.size <= n_part**2 * np.log2(grid.size)

    def test_evolution_path_and_exchange_form_rules(self, monkeypatch):
        # MeanField.for_evolution's path and apply_exchange's form come from
        # one rule, grids.dense_pays, with their own caps and costs; neither
        # side builds a matrix or applies a form here
        class Picked(Exception):
            pass

        def dense_form(*args):
            raise Picked("dense")

        def loop_form(*args):
            raise Picked("loop")

        def record_path(self, grid, potential, dispersion, path="dense", *args):
            self.path = path

        monkeypatch.setattr(MeanField, "__init__", record_path)
        monkeypatch.setattr(orbitals_module, "_dense_exchange", dense_form)
        monkeypatch.setattr(orbitals_module, "_loop_exchange", loop_form)
        disp = Dispersion.relativistic(1.0)
        grids = [(1, n) for n in (64, 256, 512, 1024, 2048, 4096, 8192)]
        grids += [(2, n) for n in (16, 32, 64, 128)] + [(3, n) for n in (8, 16, 32)]
        picked = {"dense": 0, "loop": 0}
        for dim, n in grids:
            grid = Grid(dim, n, 4.0 * np.pi, 0.1)
            pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
            check_cost = orbitals_module.EXCHANGE_DENSE_COST[dim - 1]
            for n_part in (2, 4, 5, 8, 16, 32, 64, 128):
                path = MeanField.for_evolution(grid, pot, disp, "exponential_midpoint", True,
                                               False, n_part).path
                assert path == ("dense" if dense_pays(grid.size, n_part) else "pair")
                # apply_exchange reads only the grid and N before it picks a form
                orbs = SimpleNamespace(grid=grid, n_particles=n_part)
                with pytest.raises(Picked) as form:
                    apply_exchange(orbs, pot, np.zeros(grid.shape, dtype=complex))
                dense = (grid.size <= orbitals_module.EXCHANGE_DENSE_CAP
                         and check_cost * grid.size <= n_part**2 * math.log2(grid.size))
                assert str(form.value) == ("dense" if dense else "loop"), (dim, n, n_part)
                picked[str(form.value)] += 1
                if grid.size > DENSE_SIZE_CAP:
                    assert path == "pair"
                if grid.size > orbitals_module.EXCHANGE_DENSE_CAP:  # X would pass 16 MiB
                    assert str(form.value) == "loop"
        assert picked["dense"] > 10 and picked["loop"] > 10
        # the measured sides at the workloads' n = 256 (the --layers exchange slice)
        for n_part, form in ((4, "loop"), (5, "loop"), (16, "dense"), (32, "dense")):
            grid = Grid(1, 256, 4.0 * np.pi, 0.1)
            with pytest.raises(Picked, match=form):
                apply_exchange(SimpleNamespace(grid=grid, n_particles=n_part),
                               PotentialSpec(grid, gaussian_vhat(grid, 1.0)),
                               np.zeros(grid.shape, dtype=complex))

    def test_diagnostics_imports_no_scf(self):
        code = ("import sys\n"
                "import rhflab.diagnostics\n"
                "print('rhflab.scf' in sys.modules)\n")
        src = str(Path(propagate.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestMeanField:
    """One MeanField per evolution: its paths, its lifetime and its reuse."""

    def test_pair_matches_loop(self):
        # the 2D pair array against the per-orbital loop of apply_exchange
        state = kicked_scf_state(Grid(2, 16, 4.0 * np.pi, 0.25), 4)
        source = state.orbitals.orbitals
        pair = forced_path(state, "pair").mean_field.closure(source)
        hartree = propagate._mean_field(
            replace(state, config=replace(state.config, exchange_on=False))).closure(source)
        for block in (source, random_block(state.orbitals.grid, 5, 13)):
            ref = hartree(block) - apply_exchange(state.orbitals, state.potential, block)
            assert np.max(np.abs(pair(block) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("keep_trap", [False, True])
    def test_hartree_closure_bit_identical_to_reference(self, keep_trap):
        state = kicked_scf_state(Grid(1, 64, 4.0 * np.pi, 1.0 / 8.0), 8, keep_trap,
                                 exchange_on=False)
        source = state.orbitals.orbitals
        got = propagate._mean_field(state)
        assert got.path == "pair"
        for block in (source, random_block(state.orbitals.grid, 5, 14)):
            ref = reference_fft_closure(source, state)(block)
            assert got.closure(source)(block).tobytes() == ref.tobytes()

    def test_bare_state_steps_and_carries_its_mean_field(self):
        state = kicked_scf_state(Grid(1, 64, 4.0 * np.pi, 1.0 / 8.0), 8)
        assert state.mean_field is None
        first = step(state)
        assert first.mean_field is not None
        assert step(first).mean_field is first.mean_field
        assert replace(first, time=1.0).mean_field is first.mean_field

    def test_replaced_config_or_potential_gets_a_fresh_mean_field(self):
        state = step(kicked_scf_state(Grid(1, 64, 4.0 * np.pi, 1.0 / 8.0), 8))
        held = state.mean_field
        # a field the MeanField does not read keeps it
        assert step(replace(state, config=replace(state.config, dt=1e-3))).mean_field is held
        for changed in (
            replace(state, config=replace(state.config, dispersion=Dispersion.relativistic(2.0))),
            replace(state, config=replace(state.config, keep_trap=True)),
            replace(state, config=replace(state.config, exchange_on=False)),
            replace(state, config=replace(state.config, scheme="rk4_frozen_field")),
            replace(state, potential=PotentialSpec(state.orbitals.grid,
                                                   state.potential.vhat, coupling=0.7)),
        ):
            fresh = step(changed).mean_field
            cfg = changed.config
            assert fresh is not held
            assert fresh.potential is changed.potential
            assert fresh.inputs[2:6] == (cfg.dispersion, cfg.scheme, cfg.exchange_on,
                                         cfg.keep_trap)

    def test_pair_legs_carry_their_own_mean_fields(self):
        state = kicked_scf_state(Grid(1, 64, 4.0 * np.pi, 1.0 / 8.0), 8, t_final=4e-3)
        other = replace(state, config=replace(state.config,
                                              dispersion=Dispersion.nonrelativistic(1.0)))
        result = pair_evolve(state, other, "dispersion")
        leg_a, leg_b = (s.mean_field for s in result.state)
        assert leg_a.path == leg_b.path == "dense"
        assert (leg_a.dispersion, leg_b.dispersion) == (state.config.dispersion,
                                                        other.config.dispersion)
        result = pair_evolve(state, replace(state, config=replace(
            state.config, scheme="rk4_frozen_field")), "scheme")
        assert result.state[1].mean_field.path == "pair"

    def test_no_dense_matrix_outlives_its_user(self):
        # after an SCF, and through flows on the FFT path, no n^d×n^d array
        # is alive: K and V(x_i - x_j) live only with a dense MeanField
        import tracemalloc

        grid = Grid(1, 256, 4.0 * np.pi, 1.0 / 4.0)
        seen = []
        probe = Observer("probe", 2, lambda s: seen.append(large_blocks(grid.size)) or {})
        tracemalloc.start()
        try:
            state = kicked_scf_state(grid, 4, dt=1e-3, t_final=3e-3)
            assert large_blocks(grid.size) == []
            for exchange_on in (False, True):
                flow = replace(state, config=replace(state.config, exchange_on=exchange_on))
                result = evolve(flow, [probe])
                assert not result.aborted
                assert result.state.mean_field.path == "pair"
            held = forced_path(state, "dense")
            assert len(large_blocks(grid.size)) == 2  # its K and V(x_i - x_j)
        finally:
            tracemalloc.stop()
        assert held.mean_field.path == "dense"
        assert len(seen) == 6 and all(found == [] for found in seen)


def two_pass_midpoint(phi, mean_field, propagate_fn, dt):
    """The exponential-midpoint step with two fixed-point passes for the half step.

    The form the one-pass `propagate._exponential_midpoint` replaced, kept as
    its reference: three builds of h and three propagations a step.
    """
    half = phi
    for _ in range(2):
        half = propagate_fn(mean_field(half), phi, 0.5 * dt)
    return propagate_fn(mean_field(half), phi, dt)


class TestOnePassMidpoint:
    """One fixed-point pass per midpoint step against the two-pass reference.

    A trapped HF ground state (n = 128, N = 8, dense path) released, and the
    mode-space mean field of `ed`, which shares the stepper.
    """

    @pytest.fixture(scope="class")
    def released(self):
        grid = Grid(1, 128, 4.0 * np.pi, 1.0 / 16.0)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        return scf_minimize(grid, pot, 8, disp, ScfConfig()).orbitals, pot, disp

    @staticmethod
    def run(released, dt, t_final, monkeypatch, stepper=None):
        orbs, pot, disp = released
        with monkeypatch.context() as patch:
            if stepper is not None:
                patch.setattr(propagate, "_exponential_midpoint", stepper)
            state = make_state(orbs.grid, orbs, pot, dt=dt, t_final=t_final, dispersion=disp)
            for _ in range(propagate.step_count(0.0, t_final, dt)):
                state = step(state)
        assert state.mean_field.path == "dense"
        return state.orbitals

    def test_released_quench_agrees(self, released, monkeypatch):
        # measured tr|ω₁ - ω₂|² = 4.0e-16 at t = 0.2
        one = self.run(released, 1e-3, 0.2, monkeypatch)
        two = self.run(released, 1e-3, 0.2, monkeypatch, two_pass_midpoint)
        assert 0.0 < hs_distance_squared(one, two) <= 4e-15

    def test_both_second_order(self, released, monkeypatch):
        # HS errors at t = 0.4 against the two-pass step at dt = 0.00125;
        # measured orders 2.01/2.04 (one pass) and 2.02/2.07 (two passes), and
        # one pass's error 1.37-1.40 times the two-pass error
        ref = self.run(released, 0.00125, 0.4, monkeypatch, two_pass_midpoint)
        errors = {}
        for name, stepper in (("one", None), ("two", two_pass_midpoint)):
            errors[name] = np.sqrt([
                hs_distance_squared(self.run(released, dt, 0.4, monkeypatch, stepper), ref)
                for dt in (0.02, 0.01, 0.005)])
            orders = np.log2(errors[name][:-1] / errors[name][1:])
            assert np.all((1.8 <= orders) & (orders <= 2.3)), (name, orders)
        assert np.all(errors["one"] <= 2.0 * errors["two"])

    def test_mode_evolution_at_criterion_8(self, monkeypatch):
        # criterion 8's Fermi seas keep h diagonal: measured bit-identical
        disp = Dispersion.relativistic(1.0)
        vh = lambda q: np.exp(-0.5 * q**2)
        for n_part in (2, 3):
            basis = FockBasis(12, n_part, 2.0 * np.pi)
            modes = fermi_sea_modes(basis, disp, 1.0)
            args = (basis, disp, 1.0, vh, 0.2, modes, 1.0, 0.02)
            _, one = hf_mode_evolution(*args, sample_every=5)
            with monkeypatch.context() as patch:
                patch.setattr(ed, "_exponential_midpoint", two_pass_midpoint)
                _, two = hf_mode_evolution(*args, sample_every=5)
            assert len(one) == len(two) == 11
            assert max(np.sum(np.abs(a - b) ** 2) for a, b in zip(one, two)) <= 1e-26

    def test_mode_step_on_superposed_state(self, monkeypatch):
        # a superposed determinant makes h dense: tr|γ₁ - γ₂|² at t = 1 measured
        # 1.27e-8 at dt = 0.02 and 7.9e-10 at dt = 0.01, falling as dt⁴
        basis = FockBasis(16, 3, 2.0 * np.pi)
        mf = ModeMeanField(basis, Dispersion.relativistic(1.0), 0.5,
                           lambda q: np.exp(-0.5 * q**2), 4.0)
        rng = np.random.default_rng(97)
        q, _ = np.linalg.qr(rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3)))
        gaps = []
        for dt in (0.02, 0.01):
            gammas = []
            for stepper in (None, two_pass_midpoint):
                with monkeypatch.context() as patch:
                    if stepper is not None:
                        patch.setattr(ed, "_exponential_midpoint", stepper)
                    rows = q.T.copy()
                    for _ in range(round(1.0 / dt)):
                        rows = mf.step(rows, dt)
                gammas.append(mf.gamma_of(rows))
            gaps.append(np.sum(np.abs(gammas[0] - gammas[1]) ** 2))
        assert 0.0 < gaps[0] <= 5e-8
        assert gaps[1] <= gaps[0] / 10.0
