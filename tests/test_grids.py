import numpy as np
import pytest

from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
    apply_inverse_sqrt_kinetic,
    apply_kinetic,
    convolve_potential,
    gaussian_vhat,
    harmonic_trap,
    plane_wave,
    potential_moment,
    potential_moment_refinement_check,
)


class TestMakeGrid:
    def test_dual_grid_integers_on_2pi_box(self):
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        assert np.allclose(sorted(grid.p_axis), np.arange(-32, 32), atol=1e-12)

    def test_minimal_grid_nyquist_on_negative_side(self):
        grid = Grid(1, 2, 1.0, 1.0)
        assert set(np.round(grid.p_axis, 12)) == {0.0, np.round(-2.0 * np.pi, 12)}

    def test_3d_round_trip(self):
        grid = Grid(3, 16, 10.0, 0.25)
        assert grid.size == 4096
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        back = grid.ifft(grid.fft(f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_parseval(self):
        grid = Grid(1, 64, 3.0, 0.5)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        fh = grid.fft(f)
        lhs = np.vdot(f, f).real * grid.cell_volume
        rhs = np.vdot(fh, fh).real * grid.cell_volume / grid.size
        assert abs(lhs - rhs) <= 1e-12 * lhs

    @pytest.mark.parametrize("n", [12, 17, 0, 1])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            Grid(1, n, 1.0, 1.0)

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            Grid(1, 16, -1.0, 1.0)
        with pytest.raises(ValueError):
            Grid(1, 16, 1.0, 0.0)
        with pytest.raises(ValueError):
            Grid(4, 16, 1.0, 1.0)

    def test_hash_consistent_with_eq(self):
        a = Grid(2, 16, 3.0, 0.25)
        b = Grid(2, 16, 3.0, 0.25)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        table = {a: "first"}
        assert table[b] == "first"
        for other in (Grid(1, 16, 3.0, 0.25), Grid(2, 32, 3.0, 0.25),
                      Grid(2, 16, 4.0, 0.25), Grid(2, 16, 3.0, 0.5)):
            assert other != a and other not in table


class TestApplyKinetic:
    def test_plane_wave_eigenvalue(self, grid64):
        disp = Dispersion.relativistic(1.0)
        wave = np.exp(1j * 5.0 * grid64.x_axis)
        out = apply_kinetic(wave, grid64, disp)
        expected = np.sqrt(0.1**2 * 25.0 + 1.0)
        assert np.max(np.abs(out - expected * wave)) <= 1e-12 * expected
        assert abs(expected - 1.118034) < 1e-6

    def test_constant_field_gives_m0(self, grid64):
        disp = Dispersion.relativistic(3.0)
        f = np.ones(grid64.shape, dtype=complex)
        out = apply_kinetic(f, grid64, disp)
        assert np.max(np.abs(out - 3.0 * f)) <= 1e-12

    def test_dispersion_expansion_difference(self):
        # mode with eps|p| = 1, m0 = 10: difference ~ 1/(8 m0^3)
        rel = np.sqrt(1.0 + 100.0)
        nonrel = 10.0 + 1.0 / 20.0
        diff = nonrel - rel
        assert abs(diff - 1.243e-4) < 2e-7
        assert 0.0 < diff <= 1.0 / (8.0 * 10.0**3)

    def test_self_adjoint(self, grid64, rel_dispersion):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
            g = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
            lhs = grid64.inner(f, apply_kinetic(g, grid64, rel_dispersion))
            rhs = grid64.inner(apply_kinetic(f, grid64, rel_dispersion), g)
            assert abs(lhs - rhs) <= 1e-10 * grid64.norm(f) * grid64.norm(g)

    def test_shape_mismatch(self, grid64, rel_dispersion):
        with pytest.raises(ValueError):
            apply_kinetic(np.zeros(32), grid64, rel_dispersion)

    def test_symbol_domination(self, grid64):
        m0 = 0.7
        sym = Dispersion.relativistic(m0).symbol(grid64)
        floor = np.maximum(m0, grid64.epsilon * grid64.p_abs)
        assert np.all(sym >= floor - 1e-14)

    def test_taylor_remainder_bound(self, grid64):
        m0 = 2.0
        rel = Dispersion.relativistic(m0).symbol(grid64)
        nonrel = Dispersion.nonrelativistic(m0).symbol(grid64)
        diff = nonrel - rel
        bound = (grid64.epsilon * grid64.p_abs) ** 4 / (8.0 * m0**3)
        assert np.all(diff >= -1e-14)
        assert np.all(diff <= bound + 1e-14)

    def test_massless_symbol(self, grid64):
        sym = Dispersion.massless().symbol(grid64)
        assert np.allclose(sym, grid64.epsilon * grid64.p_abs)

    def test_dispersion_validation(self):
        with pytest.raises(ValueError):
            Dispersion.relativistic(-1.0)
        with pytest.raises(ValueError):
            Dispersion("nonrelativistic", None)
        with pytest.raises(ValueError):
            Dispersion("quartic", 1.0)


class TestInverseSqrtKinetic:
    def test_plane_wave(self, grid64):
        wave = np.exp(1j * 5.0 * grid64.x_axis)
        out = apply_inverse_sqrt_kinetic(wave, grid64, 1.0)
        assert np.max(np.abs(out - wave / np.sqrt(1.25))) <= 1e-12

    def test_constant(self, grid64):
        f = np.ones(grid64.shape, dtype=complex)
        out = apply_inverse_sqrt_kinetic(f, grid64, 2.0)
        assert np.max(np.abs(out - 0.5 * f)) <= 1e-12

    def test_norm_bound(self, grid64):
        rng = np.random.default_rng(5)
        m0 = 1.7
        for _ in range(100):
            f = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
            out = apply_inverse_sqrt_kinetic(f, grid64, m0)
            assert grid64.norm(out) <= grid64.norm(f) / m0 + 1e-12

    def test_rejects_bad_mass(self, grid64):
        with pytest.raises(ValueError):
            apply_inverse_sqrt_kinetic(np.zeros(grid64.shape), grid64, 0.0)


class TestConvolvePotential:
    def test_uniform_density(self, grid64, gaussian_potential):
        L = grid64.box_length
        rho = np.full(grid64.shape, 1.0 / L)
        out = convolve_potential(rho, grid64, gaussian_potential)
        expected = gaussian_potential.vhat_eff[0] / L
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_single_mode(self, grid64, gaussian_potential):
        L = grid64.box_length
        rho = np.cos(2.0 * np.pi * grid64.x_axis / L) / L
        out = convolve_potential(rho, grid64, gaussian_potential)
        vh = gaussian_potential.vhat_eff[1]  # coefficient at p = 2π/L
        assert np.max(np.abs(out - vh * rho)) <= 1e-12

    def test_against_dense_quadrature(self, grid64, gaussian_potential):
        # independent oracle: V on the lag grid by direct mode summation,
        # then O(n^2) quadrature convolution
        rng = np.random.default_rng(2)
        rho = rng.standard_normal(grid64.shape)
        n, L = grid64.n, grid64.box_length
        lags = np.arange(n) * grid64.dx
        v_lag = np.zeros(n)
        for m, coeff in zip(grid64.p_axis, gaussian_potential.vhat_eff):
            v_lag += coeff * np.cos(m * lags) / L  # V real even
        direct = np.array(
            [np.sum(v_lag[(i - np.arange(n)) % n] * rho) * grid64.dx for i in range(n)]
        )
        out = convolve_potential(rho, grid64, gaussian_potential)
        assert np.max(np.abs(out - direct)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))

    def test_real_output(self, grid64, gaussian_potential):
        rng = np.random.default_rng(9)
        rho = rng.standard_normal(grid64.shape)
        out = convolve_potential(rho, grid64, gaussian_potential)
        assert np.isrealobj(out)

    def test_rejects_complex_density(self, grid64, gaussian_potential):
        rho = np.full(grid64.shape, 1.0 + 1e-6j)
        with pytest.raises(ValueError):
            convolve_potential(rho, grid64, gaussian_potential)

    def test_rejects_odd_vhat(self, grid64):
        vhat = np.zeros(grid64.shape)
        vhat[1] = 1.0  # mode +1 without its mirror
        with pytest.raises(ValueError):
            PotentialSpec(grid64, vhat)


class TestPotentialMoment:
    def test_zero_potential(self, grid64):
        spec = PotentialSpec(grid64, np.zeros(grid64.shape))
        assert spec.moment == 0.0

    def test_gaussian_closed_form(self):
        # ∫ e^{-p^2/2} (1 + |p|)^2 dp = 2 sqrt(2π) + 4; the |p| term has a kink
        # at p = 0, so the lattice sum converges at O(Δp^2)
        grid = Grid(1, 2048, 160.0, 1.0)
        spec = PotentialSpec(grid, gaussian_vhat(grid, width=1.0))
        expected = 2.0 * np.sqrt(2.0 * np.pi) + 4.0
        assert abs(spec.moment - expected) <= 1e-3 * expected
        assert abs(expected - 9.0133) < 1e-4

    def test_lorentzian_does_not_stabilize(self):
        grid = Grid(1, 256, 40.0, 1.0)
        lorentz = lambda p: 1.0 / (1.0 + p**2)
        stable, coarse, fine = potential_moment_refinement_check(lorentz, grid)
        assert not stable
        assert fine > coarse

    def test_gaussian_stabilizes(self):
        grid = Grid(1, 256, 40.0, 1.0)
        stable, coarse, fine = potential_moment_refinement_check(
            lambda p: np.exp(-0.5 * p**2), grid
        )
        assert stable
        assert abs(fine - coarse) <= 1e-8 * coarse

    def test_moment_matches_function(self, grid64, gaussian_potential):
        assert gaussian_potential.moment == potential_moment(gaussian_potential, grid64)


class TestHelpers:
    def test_plane_wave_normalized(self, grid64):
        w = plane_wave(grid64, [3])
        assert abs(grid64.norm(w) - 1.0) <= 1e-12

    def test_harmonic_trap_quadratic_near_center(self):
        grid = Grid(1, 256, 2.0 * np.pi, 0.1)
        trap = harmonic_trap(grid, 2.0)
        i = grid.n // 2 + 3  # node near x=0
        x = grid.x_axis[i]
        assert abs(trap[i] - 2.0 * x**2 / 2.0) <= 1e-3 * max(trap)
        assert trap[grid.n // 2] == 0.0
