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
from rhflab.krylov import expm_apply
from rhflab.orbitals import (
    OrbitalSet,
    fermi_sea,
    gaussian_orbital,
    hs_distance_squared,
    reduced_density,
)
from rhflab.propagate import (
    EvolutionConfig,
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
        series = pair_evolve(sa, sb, "exchange_on")
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
        series = pair_evolve(sa, sb, "exchange_on")
        assert series.channels["hs_distance_squared"][-1] > 1e-8


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
        series = pair_evolve(state, state, "scheme", cadence=500)
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
        # tr|w_dense - w_fft|^2 = 2N - 2 sum |<f_i, g_j>|^2 cancels down to
        # about 2N eps_machine (3.6e-15 at N=8); measured after 10 steps: 0 in
        # three cases, 1.8e-15 in 1D with the trap kept
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
