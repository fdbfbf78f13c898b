import numpy as np
import pytest

from rhflab.diagnostics import (
    commutator_channels,
    default_phase_samples,
    exchange_double_commutator_check,
    exp_bound_check,
    growth_fit,
    integrated_growth_audit,
    kinetic_double_commutator_check,
    wigner_transform,
)
from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
    gaussian_vhat,
    harmonic_trap,
    plane_wave,
)
from rhflab.orbitals import (
    OrbitalSet,
    apply_exchange,
    boosted_fermi_sea,
    commutator_trace_norm,
    fermi_sea,
    trace_norm,
)
from rhflab.scf import ScfConfig, scf_minimize

from reference_orbitals import (
    LowRankOperator,
    commutator_with_momentum,
    commutator_with_phase,
    commutator_with_position,
    gaussian_orbital,
    random_orbital_set,
)


def momentum_density(orbs: OrbitalSet) -> np.ndarray:
    """Momentum occupation as a density over the v = ε·p nodes (ascending).

    Normalized so Σ n(v_k) Δv = 1; this is the velocity marginal of the
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


class TestCommutatorChannels:
    def test_fermi_sea_momentum_channel_vanishes(self, grid64):
        orbs = fermi_sea(grid64, 6, Dispersion.relativistic(1.0))
        # a uniform density genuinely carries ~5% mass in the seam band,
        # so the validity warning is expected here
        with pytest.warns(UserWarning, match="seam"):
            ch = commutator_channels(orbs)
        assert ch["comm_grad_0"] <= 1e-10
        assert ch["comm_x_0"] > 0.1
        assert abs(ch["seam_mass"] - 0.05) <= 0.02

    def test_gaussian_channel_value(self):
        # box large enough that periodization images stay below 1e-10
        grid = Grid(1, 256, 4.0 * np.pi, 0.125)
        orbs = OrbitalSet(gaussian_orbital(grid, sigma=0.5)[None, :], grid)
        ch = commutator_channels(orbs)
        assert abs(ch["comm_x_0"] - 1.0) <= 1e-8

    def test_seam_warning(self, grid64):
        shifted = OrbitalSet(
            gaussian_orbital(grid64, center=grid64.box_length / 2, sigma=0.3)[None, :],
            grid64,
        )
        with pytest.warns(UserWarning, match="seam"):
            commutator_channels(shifted)


class TestExpBound:
    def test_zero_momentum_trivial(self, grid64):
        orbs = OrbitalSet(gaussian_orbital(grid64, sigma=0.5)[None, :], grid64)
        report = exp_bound_check(orbs, [(0,)])
        s = report["samples"][0]
        assert s["lhs"] <= 1e-10
        assert report["passed"]

    def test_gaussian_analytic_value(self):
        grid = Grid(1, 256, 4.0 * np.pi, 0.125)
        sigma = 0.5
        orbs = OrbitalSet(gaussian_orbital(grid, sigma=sigma)[None, :], grid)
        for k in (1, 2, 5):
            p = 2.0 * np.pi * k / grid.box_length
            report = exp_bound_check(orbs, [(k,)])
            s = report["samples"][0]
            expected = 2.0 * np.sqrt(1.0 - np.exp(-(sigma**2) * p**2))
            assert abs(s["lhs"] - expected) <= 1e-8
            assert s["margin"] > 0.0  # strict for p != 0

    def test_random_state_margins(self, grid32):
        orbs = random_orbital_set(grid32, 3, seed=60)
        report = exp_bound_check(orbs, default_phase_samples(grid32, 8))
        assert report["passed"]
        assert len(report["samples"]) == 8

    def test_sample_count_guard(self, grid32):
        with pytest.raises(ValueError):
            default_phase_samples(grid32, 64)


class TestExchangeBound:
    def test_zero_potential(self, grid32):
        pot = PotentialSpec(grid32, np.zeros(grid32.shape))
        orbs = random_orbital_set(grid32, 2, seed=61)
        report = exchange_double_commutator_check(orbs, pot)
        assert report["samples"][0]["lhs"] <= 1e-12
        assert report["passed"]

    def test_position_diagonal_state_both_sides_vanish(self, grid32):
        pot = PotentialSpec(grid32, gaussian_vhat(grid32, 0.6), coupling=1.0)
        arr = np.zeros((3, grid32.n), dtype=complex)
        for k, i in enumerate((4, 12, 25)):
            arr[k, i] = 1.0 / np.sqrt(grid32.cell_volume)
        orbs = OrbitalSet(arr, grid32)
        report = exchange_double_commutator_check(orbs, pot)
        s = report["samples"][0]
        assert s["lhs"] <= 1e-9
        assert s["rhs"] <= 1e-9

    def test_random_states_obey_bound(self, grid32):
        pot = PotentialSpec(grid32, gaussian_vhat(grid32, 0.6), coupling=0.8)
        for seed in range(5):
            orbs = random_orbital_set(grid32, 3, seed=62 + seed)
            report = exchange_double_commutator_check(orbs, pot)
            assert report["passed"], report


class TestKineticRatio:
    def test_fermi_sea_vanishes(self, grid64):
        orbs = fermi_sea(grid64, 4, Dispersion.relativistic(1.0))
        report = kinetic_double_commutator_check(orbs, 1.0)
        assert report["samples"][0]["lhs"] <= 1e-10
        assert report["max_ratio"] == 0.0

    def test_mass_scaling_within_factor_four(self, grid64):
        orbs = OrbitalSet(gaussian_orbital(grid64, sigma=0.5)[None, :], grid64)
        r1 = kinetic_double_commutator_check(orbs, 1.0)["max_ratio"]
        r2 = kinetic_double_commutator_check(orbs, 2.0)["max_ratio"]
        assert r1 > 0 and r2 > 0
        assert 0.25 <= r1 / r2 <= 4.0

    def test_ratio_bounded_for_random_states(self, grid32):
        for seed in range(3):
            orbs = random_orbital_set(grid32, 2, seed=70 + seed)
            report = kinetic_double_commutator_check(orbs, 1.0)
            assert report["passed"]
            assert report["max_ratio"] <= 10.0

    def test_bad_mass(self, grid32):
        orbs = random_orbital_set(grid32, 2, seed=73)
        with pytest.raises(ValueError):
            kinetic_double_commutator_check(orbs, -1.0)


class TestGrowthFit:
    def test_constant_series(self):
        n_part, eps = 4, 0.25
        t = np.linspace(0.0, 2.0, 12)
        v = np.full_like(t, 2.0 * n_part * eps)
        fit = growth_fit(t, v, n_part, eps)
        assert abs(fit.C - 2.0) <= 1e-9
        assert abs(fit.c) <= 1e-9
        assert fit.residual <= 1e-9

    def test_exact_exponential(self):
        n_part, eps = 8, 0.125
        t = np.linspace(0.0, 2.0, 16)
        v = 3.0 * n_part * eps * np.exp(0.5 * t)
        fit = growth_fit(t, v, n_part, eps)
        assert abs(fit.C - 3.0) <= 1e-6
        assert abs(fit.c - 0.5) <= 1e-6

    def test_envelope_property_on_noisy_data(self):
        rng = np.random.default_rng(80)
        n_part, eps = 8, 0.125
        t = np.linspace(0.0, 2.0, 20)
        v = 2.0 * n_part * eps * np.exp(0.4 * t) * (1.0 + 0.05 * rng.standard_normal(20))
        fit = growth_fit(t, v, n_part, eps)
        assert np.all(v <= 1.1 * fit.envelope(n_part, eps, t))

    def test_errors(self):
        with pytest.raises(ValueError):
            growth_fit([0, 1, 2], [1, 1, 1], 2, 0.5)
        t = np.array([0.0, 1.0, 0.5, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValueError):
            growth_fit(t, np.ones(8), 2, 0.5)


class TestIntegratedAudit:
    def test_constant_channels_zero_constants(self):
        t = np.linspace(0.0, 1.0, 9)
        report = integrated_growth_audit(t, np.ones(9), np.ones(9), 8, 1.0)
        assert report["K_position"] == 0.0
        assert report["K_momentum"] == 0.0
        assert report["passed"]

    def test_linear_growth_finite_constant(self):
        t = np.linspace(0.0, 2.0, 21)
        comm_x = 1.0 + 0.5 * t
        comm_grad = np.ones_like(t)
        report = integrated_growth_audit(t, comm_x, comm_grad, 8, 2.0)
        assert 0.0 < report["K_position"] < np.inf
        # inequality holds with the recorded constant by construction
        k = report["K_position"]
        ig = np.concatenate([[0.0], np.cumsum(0.5 * (comm_grad[1:] + comm_grad[:-1]) * np.diff(t))])
        ix = np.concatenate([[0.0], np.cumsum(0.5 * (comm_x[1:] + comm_x[:-1]) * np.diff(t))])
        lhs = comm_x - comm_x[0]
        rhs = (k / 2.0) * ig + k * 8.0 ** (-2.0 / 3.0) * ix
        assert np.all(lhs <= rhs + 1e-12)


class TestWigner:
    def test_plane_wave_concentrated(self, grid64):
        k0 = 4
        orbs = OrbitalSet(plane_wave(grid64, [k0])[None, :], grid64)
        w = wigner_transform(orbs)
        v0 = grid64.epsilon * 2.0 * np.pi * k0 / grid64.box_length
        col = int(np.argmin(np.abs(w.v_grid - v0)))
        # all mass on one v column, uniform in x
        expected = 1.0 / (grid64.box_length * w.dv)
        assert np.max(np.abs(w.values[:, col] - expected)) <= 1e-10 * expected
        others = np.delete(w.values, col, axis=1)
        assert np.max(np.abs(others)) <= 1e-10 * expected

    def test_total_mass_one(self, grid32):
        # white-noise states trip the locality warning, but the mass and
        # marginal identities are exact regardless
        orbs = random_orbital_set(grid32, 3, seed=81)
        with pytest.warns(UserWarning, match="Nyquist"):
            w = wigner_transform(orbs)
        assert abs(w.mass() - 1.0) <= 1e-8

    def test_marginals(self, grid32):
        from rhflab.orbitals import reduced_density

        orbs = random_orbital_set(grid32, 3, seed=82)
        with pytest.warns(UserWarning, match="Nyquist"):
            w = wigner_transform(orbs)
        rho = reduced_density(orbs)
        assert np.max(np.abs(w.position_marginal() - rho)) <= 1e-8
        assert np.max(np.abs(w.velocity_marginal() - momentum_density(orbs))) <= 1e-8

    def test_gaussian_wigner_variances(self):
        grid = Grid(1, 256, 4.0 * np.pi, 0.125)
        sigma = 0.45
        orbs = OrbitalSet(gaussian_orbital(grid, sigma=sigma)[None, :], grid)
        w = wigner_transform(orbs)
        peak = float(np.max(w.values))
        assert np.min(w.values) >= -1e-8 * peak  # pure Gaussians stay nonnegative
        xm = np.sum(w.values, axis=1) * w.dv
        var_x = np.sum(w.x_grid**2 * xm) * w.dx
        vm = np.sum(w.values, axis=0) * w.dx
        var_v = np.sum(w.v_grid**2 * vm) * w.dv
        sigma_v = grid.epsilon / (2.0 * sigma)  # minimum-uncertainty packet
        assert abs(var_x - sigma**2) <= 1e-6
        assert abs(var_v - sigma_v**2) <= 1e-6

    def test_rejects_wrong_v_grid(self, grid32):
        orbs = random_orbital_set(grid32, 2, seed=83)
        with pytest.raises(ValueError):
            wigner_transform(orbs, v_grid=np.linspace(-1, 1, grid32.n))

    def test_rejects_2d(self):
        grid = Grid(2, 8, 2.0 * np.pi, 0.5)
        orbs = random_orbital_set(grid, 2, seed=84)
        with pytest.raises(ValueError):
            wigner_transform(orbs)


def factored_skew_commutator(orbs, fields):
    """[ω, M] for skew-adjoint M as a rank-2N factored operator from M f_j."""
    left = np.concatenate([orbs.orbitals, -fields])
    right = np.concatenate([-fields, orbs.orbitals])
    return LowRankOperator(left, right, orbs.grid)


def per_orbital_exchange_commutator(orbs, potential, x):
    """[X, x] f_j one orbital at a time."""
    return np.stack([apply_exchange(orbs, potential, x * f) - x * apply_exchange(orbs, potential, f)
                     for f in orbs.orbitals])


ONE_SIDED_GRIDS = {1: Grid(1, 64, 4.0 * np.pi, 0.125), 2: Grid(2, 16, 4.0 * np.pi, 0.25)}


@pytest.fixture(scope="module", params=[(dim, kind) for dim in (1, 2)
                                        for kind in ("scf", "boosted", "random")],
                ids=lambda p: f"{p[1]}-{p[0]}d")
def one_sided_case(request):
    dim, kind = request.param
    grid = ONE_SIDED_GRIDS[dim]
    disp = Dispersion.relativistic(1.0)
    pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                        coupling=0.5)
    scf = None
    if kind == "scf":
        scf = scf_minimize(grid, pot, 5, disp, ScfConfig())
        orbs = scf.orbitals
    elif kind == "boosted":
        orbs = boosted_fermi_sea(grid, 5, disp, amplitude=0.5)
    else:
        orbs = random_orbital_set(grid, 5, seed=80 + dim)
    return orbs, pot, scf


@pytest.mark.filterwarnings("ignore:state carries mass")
class TestOneSidedAgainstFactored:
    """One-sided commutator norms against trace_norm of the factored commutators."""

    rtol = 1e-12

    def close(self, value, ref):
        assert ref > 1e-6
        assert abs(value - ref) <= self.rtol * ref

    def test_position_and_momentum_channels(self, one_sided_case):
        orbs, _, scf = one_sided_case
        channels = commutator_channels(orbs)
        neps = orbs.n_particles * orbs.grid.epsilon
        comm_x = comm_grad = 0.0
        for a in range(orbs.grid.dim):
            ref_x = trace_norm(commutator_with_position(orbs, a))
            ref_grad = trace_norm(commutator_with_momentum(orbs, a))
            self.close(channels[f"comm_x_{a}"], ref_x)
            self.close(channels[f"comm_grad_{a}"], ref_grad)
            comm_x += ref_x
            comm_grad += ref_grad
        if scf is not None:
            self.close(scf.comm_x_over_neps, comm_x / neps)
            self.close(scf.comm_grad_over_neps, comm_grad / neps)

    def test_phase_samples(self, one_sided_case):
        orbs, _, _ = one_sided_case
        grid = orbs.grid
        samples = default_phase_samples(grid, 16 if grid.dim == 1 else 8)
        if grid.dim == 2:
            samples += [(1, 1), (-2, 3)]
        report = exp_bound_check(orbs, samples)
        assert len(report["samples"]) == len(samples)
        for sample in report["samples"]:
            ref = trace_norm(commutator_with_phase(orbs, sample["freq"]))
            self.close(sample["lhs"], ref)

    def test_exchange_double_commutator(self, one_sided_case):
        orbs, pot, _ = one_sided_case
        report = exchange_double_commutator_check(orbs, pot)
        for a, sample in enumerate(report["samples"]):
            fields = per_orbital_exchange_commutator(orbs, pot, orbs.grid.x_mesh[a])
            self.close(sample["lhs"], trace_norm(factored_skew_commutator(orbs, fields)))
            self.close(sample["lhs"], commutator_trace_norm(orbs, fields))

    def test_block_exchange_matches_per_orbital(self, one_sided_case):
        orbs, pot, _ = one_sided_case
        rng = np.random.default_rng(85)
        extra = (rng.standard_normal((3, *orbs.grid.shape))
                 + 1j * rng.standard_normal((3, *orbs.grid.shape)))
        for block in (orbs.orbitals, extra):
            ref = np.stack([apply_exchange(orbs, pot, f) for f in block])
            got = apply_exchange(orbs, pot, block)
            assert got.shape == block.shape
            assert np.max(np.abs(got - ref)) <= self.rtol * np.max(np.abs(ref))
        for a in range(orbs.grid.dim):
            x = orbs.grid.x_mesh[a]
            ref = per_orbital_exchange_commutator(orbs, pot, x)
            got = apply_exchange(orbs, pot, x * orbs.orbitals) - x * apply_exchange(
                orbs, pot, orbs.orbitals)
            assert np.max(np.abs(got - ref)) <= self.rtol * np.max(np.abs(ref))

    def test_kinetic_double_commutator(self, one_sided_case):
        orbs, _, _ = one_sided_case
        grid, eps, m0 = orbs.grid, orbs.grid.epsilon, 1.3
        report = kinetic_double_commutator_check(orbs, m0)
        for a, sample in enumerate(report["samples"]):
            mult = -eps * (1j * eps * grid.p_mesh[a]) / np.sqrt(eps**2 * grid.p_squared + m0**2)
            fields = np.stack([grid.ifft(mult * grid.fft(f)) for f in orbs.orbitals])
            self.close(sample["lhs"], trace_norm(factored_skew_commutator(orbs, fields)))
