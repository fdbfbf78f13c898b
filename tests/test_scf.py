import numpy as np
import pytest

from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
    apply_kinetic,
    convolve_potential,
    gaussian_vhat,
    harmonic_trap,
    plane_wave,
)
from rhflab.orbitals import (
    OrbitalSet,
    apply_exchange,
    fermi_sea,
    fermi_sea_freqs,
    hs_distance_squared,
    random_orbital_set,
    reduced_density,
)
from rhflab.scf import (
    ScfConfig,
    dense_one_body_matrix,
    hf_energy,
    scf_minimize,
)


def mean_field_apply(orbs: OrbitalSet, potential: PotentialSpec, dispersion: Dispersion,
                     field: np.ndarray, include_vext: bool = True,
                     exchange_on: bool = True) -> np.ndarray:
    """h(ω) field with h = K + V_ext + V*ρ - X (trap and exchange optional)."""
    grid = orbs.grid
    grid.check_field(field)
    out = apply_kinetic(field, grid, dispersion)
    local = convolve_potential(reduced_density(orbs), grid, potential)
    if include_vext:
        local = local + potential.vext
    out = out + local * field
    if exchange_on and potential.has_interaction():
        out = out - apply_exchange(orbs, potential, field)
    return out


def dense_hf_energy(orbs, potential, dispersion):
    """Quadrature evaluation of the energy functional from dense kernels."""
    grid = orbs.grid
    dv = grid.cell_volume
    n, L = grid.n, grid.box_length
    lags = np.arange(n) * grid.dx
    v_lag = np.zeros(n)
    for m, coeff in zip(grid.p_axis, potential.vhat_eff):
        v_lag += coeff * np.cos(m * lags) / L
    one_body = 0.0
    for f in orbs.orbitals:
        one_body += np.vdot(f, apply_kinetic(f, grid, dispersion)).real * dv
        one_body += np.vdot(f, potential.vext * f).real * dv
    omega = np.einsum("ai,aj->ij", orbs.orbitals, orbs.orbitals.conj())
    two_body = 0.0
    for i in range(n):
        for j in range(n):
            v = v_lag[(i - j) % n]
            two_body += v * (omega[i, i].real * omega[j, j].real - abs(omega[i, j]) ** 2)
    two_body *= dv * dv / (2.0 * orbs.n_particles)
    return one_body + two_body


class TestHfEnergy:
    def test_free_fermi_sea(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, np.zeros(grid64.shape))
        orbs = fermi_sea(grid64, 8, disp)
        freqs = fermi_sea_freqs(grid64, 8, disp)
        expected = sum(
            np.sqrt(grid64.epsilon**2 * (2 * np.pi * f[0] / grid64.box_length) ** 2 + 1.0)
            for f in freqs
        )
        assert abs(hf_energy(orbs, pot, disp) - expected) <= 1e-12 * expected

    def test_rank_one_self_interaction_cancels(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, gaussian_vhat(grid64, 0.8), coupling=2.0)
        free = PotentialSpec(grid64, np.zeros(grid64.shape))
        orbs = OrbitalSet(plane_wave(grid64, [3])[None, :], grid64)
        with_v = hf_energy(orbs, pot, disp)
        without = hf_energy(orbs, free, disp)
        assert abs(with_v - without) <= 1e-12 * max(1.0, abs(without))

    def test_against_dense_quadrature(self):
        grid = Grid(1, 16, 2.0 * np.pi, 0.3)
        disp = Dispersion.relativistic(1.2)
        pot = PotentialSpec(
            grid, gaussian_vhat(grid, 0.6), vext=harmonic_trap(grid, 0.5), coupling=0.8
        )
        orbs = random_orbital_set(grid, 2, seed=40)
        ref = dense_hf_energy(orbs, pot, disp)
        val = hf_energy(orbs, pot, disp)
        assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))

    @pytest.mark.parametrize("grid", [Grid(1, 64, 2.0 * np.pi, 0.1),
                                      Grid(2, 16, 2.0 * np.pi, 0.25)])
    def test_exchange_matches_per_orbital_loop(self, grid):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), vext=harmonic_trap(grid, 1.0),
                            coupling=0.7)
        orbs = random_orbital_set(grid, 6, seed=44)
        loop = 0.0
        for f in orbs.orbitals:
            loop += 0.5 * np.vdot(f, apply_exchange(orbs, pot, f)).real * grid.cell_volume
        with_x = hf_energy(orbs, pot, disp)
        without_x = hf_energy(orbs, pot, disp, exchange_on=False)
        assert loop > 0.0
        assert abs((without_x - with_x) - loop) <= 1e-13 * abs(with_x)

    def test_positive_kernel_lower_bound(self, grid64):
        # with vhat >= 0 the exchange never beats the direct term: E >= N m0
        disp = Dispersion.relativistic(1.5)
        pot = PotentialSpec(grid64, gaussian_vhat(grid64, 0.5), coupling=1.0)
        orbs = random_orbital_set(grid64, 4, seed=41)
        assert hf_energy(orbs, pot, disp) >= 4 * 1.5


class TestMeanFieldApply:
    def test_reduces_to_kinetic(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, np.zeros(grid64.shape))
        orbs = random_orbital_set(grid64, 3, seed=42)
        rng = np.random.default_rng(43)
        f = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
        a = mean_field_apply(orbs, pot, disp, f)
        b = apply_kinetic(f, grid64, disp)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_self_adjoint(self, grid64, trapped_potential):
        disp = Dispersion.relativistic(1.0)
        orbs = random_orbital_set(grid64, 3, seed=44)
        rng = np.random.default_rng(45)
        f = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
        g = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
        lhs = grid64.inner(f, mean_field_apply(orbs, trapped_potential, disp, g))
        rhs = grid64.inner(mean_field_apply(orbs, trapped_potential, disp, f), g)
        assert abs(lhs - rhs) <= 1e-10 * grid64.norm(f) * grid64.norm(g)

    def test_fermi_sea_plane_waves_are_eigenvectors(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, gaussian_vhat(grid64, 0.8), coupling=0.7)
        orbs = fermi_sea(grid64, 6, disp)
        for k in (0, 1, -2):
            w = plane_wave(grid64, [k])
            hw = mean_field_apply(orbs, pot, disp, w)
            lam = grid64.inner(w, hw)
            resid = grid64.norm(hw - lam * w)
            assert resid <= 1e-10


class TestScfMinimize:
    def test_free_gas_converges_immediately(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, np.zeros(grid64.shape))
        res = scf_minimize(grid64, pot, 8, disp, ScfConfig())
        freqs = fermi_sea_freqs(grid64, 8, disp)
        expected = sum(
            np.sqrt(grid64.epsilon**2 * (2 * np.pi * f[0] / grid64.box_length) ** 2 + 1.0)
            for f in freqs
        )
        assert res.converged
        assert res.iterations == 1
        assert abs(res.energy - expected) <= 1e-10 * expected
        assert res.stationarity <= 1e-10

    def test_trap_matches_dense_eigensolver(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, np.zeros(grid64.shape), vext=harmonic_trap(grid64, 1.0))
        n_part = 4
        res = scf_minimize(grid64, pot, n_part, disp, ScfConfig())
        h = dense_one_body_matrix(grid64, disp, pot.vext)
        evals, evecs = np.linalg.eigh(h)
        expected_energy = float(np.sum(evals[:n_part]))
        assert abs(res.energy - expected_energy) <= 1e-8 * abs(expected_energy)
        ref = OrbitalSet(
            (evecs[:, :n_part] / np.sqrt(grid64.cell_volume)).T.reshape(
                n_part, *grid64.shape
            ),
            grid64,
        )
        assert hs_distance_squared(res.orbitals, ref) <= 1e-8

    def test_weak_interaction_energy_monotone(self):
        grid = Grid(1, 128, 4.0 * np.pi, 1.0 / 8.0)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(
            grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0), coupling=0.1
        )
        res = scf_minimize(grid, pot, 8, disp, ScfConfig(mixing=0.5, convergence_tol=1e-11))
        assert res.converged
        es = res.energies
        for k in range(1, len(es) - 1):
            assert es[k + 1] <= es[k] + 1e-12 * max(1.0, abs(es[k]))

    def test_iterates_are_projections(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(
            grid64, gaussian_vhat(grid64, 0.8), vext=harmonic_trap(grid64, 1.0), coupling=0.5
        )
        res = scf_minimize(grid64, pot, 4, disp, ScfConfig(max_iterations=30))
        assert res.orbitals.gram_deviation() <= 1e-10

    def test_stationarity_of_converged_state(self):
        grid = Grid(1, 128, 4.0 * np.pi, 1.0 / 8.0)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(
            grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0), coupling=0.5
        )
        res = scf_minimize(grid, pot, 8, disp, ScfConfig(convergence_tol=1e-11))
        assert res.converged
        # near the minimum the energy change scales like the residual squared
        assert res.stationarity <= 10.0 * np.sqrt(1e-11 * max(1.0, abs(res.energy)))

    def test_non_convergence_flagged(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(
            grid64, gaussian_vhat(grid64, 0.8), vext=harmonic_trap(grid64, 1.0), coupling=0.5
        )
        res = scf_minimize(grid64, pot, 4, disp, ScfConfig(max_iterations=2))
        assert not res.converged
        assert res.iterations == 2

    def test_scaling_audit_commutators_bounded(self):
        # eq-semi structure at the minimizer: tr|[x,ω]|/(Nε), tr|[ε∇,ω]|/(Nε) <= 10
        for n_part in (8, 16, 32, 64):
            grid = Grid(1, 256, 4.0 * np.pi, 1.0 / n_part)
            disp = Dispersion.relativistic(1.0)
            pot = PotentialSpec(
                grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0), coupling=0.5
            )
            res = scf_minimize(grid, pot, n_part, disp,
                               ScfConfig(max_iterations=80, convergence_tol=1e-9))
            assert res.comm_x_over_neps <= 10.0
            assert res.comm_grad_over_neps <= 10.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScfConfig(mixing=0.0)
        with pytest.raises(ValueError):
            ScfConfig(convergence_tol=-1.0)
