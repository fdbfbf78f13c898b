from dataclasses import replace

import numpy as np
import pytest

from rhflab import propagate
from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
    gaussian_vhat,
    harmonic_trap,
    plane_wave,
)
from rhflab import krylov
from rhflab.krylov import expm_apply, expm_apply_block
from rhflab.orbitals import (
    OrbitalSet,
    fermi_sea,
    gaussian_orbital,
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
from rhflab.scf import DENSE_SIZE_CAP, ScfConfig, hf_energy, scf_minimize


def make_state(grid, orbs, potential, **cfg):
    defaults = dict(dt=1e-2, t_final=0.1, dispersion=Dispersion.relativistic(1.0))
    defaults.update(cfg)
    return SimState(time=0.0, orbitals=orbs, potential=potential,
                    config=EvolutionConfig(**defaults))


class TestKrylov:
    def test_matches_dense_expm(self):
        import scipy.linalg

        rng = np.random.default_rng(50)
        h = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        h = 0.5 * (h + h.conj().T)
        v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        tau = 0.7
        ref = scipy.linalg.expm(-1j * tau * h) @ v
        out = expm_apply(lambda x: h @ x, v, tau, tol=1e-13)
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_norm_preserved(self):
        rng = np.random.default_rng(51)
        h = rng.standard_normal((40, 40))
        h = 0.5 * (h + h.T) + 0j
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        out = expm_apply(lambda x: h @ x, v, 2.5, tol=1e-12)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)

    def test_zero_vector(self):
        out = expm_apply(lambda x: x, np.zeros(5, dtype=complex), 1.0)
        assert np.all(out == 0)


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
            gram_devs.append(s.orbitals.gram_deviation())
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
            assert result.state.orbitals.gram_deviation() <= 1e-10
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
]


class TestDenseFock:
    """The dense Fock path against the FFT reference path."""

    def _setup(self, grid, n_part, keep_trap):
        """Trapped SCF ground state, kicked by one momentum unit along every axis."""
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0),
                            vext=harmonic_trap(grid, 1.0), coupling=0.5)
        res = scf_minimize(grid, pot, n_part, disp, ScfConfig(max_iterations=200))
        kick = plane_wave(grid, [1] * grid.dim) * grid.box_length ** (grid.dim / 2.0)
        orbs = OrbitalSet(res.orbitals.orbitals * kick, grid, validate=False)
        return make_state(grid, orbs, pot, dt=2e-3, t_final=0.02, dispersion=disp,
                          keep_trap=keep_trap)

    @pytest.mark.parametrize("keep_trap", [False, True])
    @pytest.mark.parametrize("grid, n_part", DENSE_CASES)
    def test_block_apply_matches_fft(self, grid, n_part, keep_trap):
        state = self._setup(grid, n_part, keep_trap)
        source = state.orbitals.orbitals
        rng = np.random.default_rng(11)
        fields = (rng.standard_normal((5, *grid.shape))
                  + 1j * rng.standard_normal((5, *grid.shape)))
        for block in (source, fields):
            ref = propagate._fft_closure(source, state)(block)
            dense = propagate._fock_closure(source, state)(block)
            assert np.max(np.abs(dense - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("keep_trap", [False, True])
    @pytest.mark.parametrize("grid, n_part", DENSE_CASES)
    def test_evolve_matches_fft(self, grid, n_part, keep_trap, monkeypatch):
        # the two paths agree to rounding: measured after 10 steps 2e-29 to
        # 5e-29; the bound is the 2N eps_machine (3.6e-15 at N=8) cancellation
        # floor of the former 2N - 2‖<F_a, F_b>‖² form of hs_distance_squared
        state = self._setup(grid, n_part, keep_trap)
        assert propagate._dense_fock_pays(state.config, state.potential, grid, n_part)
        dense = evolve(state)
        monkeypatch.setattr(propagate, "_dense_fock_pays", lambda *args: False)
        fft = evolve(state)
        assert not dense.aborted and not fft.aborted
        moved = hs_distance_squared(fft.state.orbitals, state.orbitals)
        assert moved > 1e-6
        floor = 2 * n_part * np.finfo(float).eps
        assert hs_distance_squared(dense.state.orbitals, fft.state.orbitals) <= 2 * floor

    def test_selection(self):
        grid = Grid(1, 256, 4.0 * np.pi, 1.0 / 32.0)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        free = PotentialSpec(grid, np.zeros(grid.shape))
        rng = np.random.default_rng(5)

        def closure(n_part, potential=pot, **cfg):
            source = rng.standard_normal((n_part, *grid.shape)) + 0j
            state = make_state(grid, OrbitalSet(source, grid, validate=False), potential,
                               dt=1e-3, t_final=1e-3, dispersion=disp, **cfg)
            return propagate._mean_field_closure(source, state).__qualname__.split(".")[0]

        assert closure(32) == "_fock_closure"
        assert closure(16) == "_fock_closure"
        assert closure(8) == "_fft_closure"
        assert closure(32, exchange_on=False) == "_fft_closure"
        assert closure(32, scheme="rk4_frozen_field") == "_fft_closure"
        assert closure(32, potential=free) == "_fft_closure"
        # above the dense cap the FFT path runs even where the cost rule favours dense
        config = EvolutionConfig(dt=1e-3, t_final=1e-3, dispersion=disp)
        for big, n_part in ((Grid(1, 8192, 4.0 * np.pi, 0.1), 64),
                            (Grid(2, 128, 4.0 * np.pi, 0.1), 80)):
            assert big.size > DENSE_SIZE_CAP
            assert 4 * big.size <= n_part**2 * np.log2(big.size)
            big_pot = PotentialSpec(big, gaussian_vhat(big, 1.0), coupling=0.5)
            assert not propagate._dense_fock_pays(config, big_pot, big, n_part)
