import numpy as np
import pytest

from rhflab import orbitals as orbitals_module
from rhflab.grids import (Dispersion, Grid, PotentialSpec, _circulant, _circulant_view,
                          gaussian_vhat, plane_wave)
from rhflab.orbitals import (
    OrbitalSet,
    _density_matrix_per_particle,
    _exchange_matrix,
    _fft_exchange,
    apply_exchange,
    fermi_sea,
    hs_distance_squared,
    reduced_density,
    reorthonormalize,
    seam_mass,
    trace_norm,
)

from reference_orbitals import (
    LowRankOperator,
    apply_density_matrix,
    commutator_trace_norm,
    commutator_with_momentum,
    commutator_with_phase,
    commutator_with_position,
    gaussian_orbital,
    gram_deviation,
    grid_inner,
    grid_norm,
    hs_norm,
    random_orbital_set,
    reference_dense_exchange,
    reference_loop_exchange,
    reference_pair_exchange,
)


def apply_exchange_momentum_average(orbs: OrbitalSet, potential: PotentialSpec,
                                    field: np.ndarray) -> np.ndarray:
    """X via the momentum-average form N^{-1} Σ_q V̂(q)/L^d e^{iqx} ω e^{-iqx}.

    Direct summation over dual modes; O(n^d) applications of ω, used as a
    cross-check of apply_exchange on small instances.
    """
    grid = orbs.grid
    grid.check_field(field)
    vhat = potential.vhat_eff
    out = np.zeros(grid.shape, dtype=complex)
    it = np.ndindex(*grid.shape)
    for idx in it:
        coeff = vhat[idx]
        if coeff == 0.0:
            continue
        freqs = [grid.freq_axis[idx[a]] for a in range(grid.dim)]
        wave = plane_wave(grid, freqs) * grid.box_length ** (grid.dim / 2.0)
        out += coeff * wave * apply_density_matrix(orbs, np.conj(wave) * field)
    return out / (orbs.n_particles * grid.box_length**grid.dim)


def dense_kernel(orbs):
    """ω(x_i, x_j)·dV: the projection matrix in the orthonormal grid basis."""
    flat = orbs.orbitals.reshape(orbs.n_particles, -1)
    return np.einsum("ai,aj->ij", flat, flat.conj()) * orbs.grid.cell_volume


def lag_potential(grid, potential):
    """V(x) on the lag grid by direct mode summation (independent of the FFT path)."""
    n, L = grid.n, grid.box_length
    lags = np.arange(n) * grid.dx
    v = np.zeros(n)
    for m, coeff in zip(grid.p_axis, potential.vhat_eff):
        v += coeff * np.cos(m * lags) / L
    return v


class TestReducedDensity:
    def test_single_plane_wave(self, grid64):
        orbs = OrbitalSet(plane_wave(grid64, [5])[None, :], grid64)
        rho = reduced_density(orbs)
        assert np.max(np.abs(rho - 1.0 / grid64.box_length)) <= 1e-14

    def test_fermi_sea_uniform(self, grid64):
        orbs = fermi_sea(grid64, 8, Dispersion.relativistic(1.0))
        rho = reduced_density(orbs)
        assert np.max(np.abs(rho - 1.0 / grid64.box_length)) <= 1e-13

    def test_random_set_normalized(self, grid32):
        orbs = random_orbital_set(grid32, 4, seed=1)
        rho = reduced_density(orbs)
        assert rho.min() >= 0.0
        assert abs(np.sum(rho) * grid32.cell_volume - 1.0) <= 1e-12


class TestApplyDensityMatrix:
    def test_range_fixed(self, grid32):
        orbs = random_orbital_set(grid32, 3, seed=2)
        f1 = orbs.orbitals[0]
        out = apply_density_matrix(orbs, f1)
        assert np.max(np.abs(out - f1)) <= 1e-12

    def test_orthogonal_killed(self, grid64):
        orbs = fermi_sea(grid64, 4, Dispersion.relativistic(1.0))
        other = plane_wave(grid64, [17])
        out = apply_density_matrix(orbs, other)
        assert np.max(np.abs(out)) <= 1e-13

    def test_idempotent(self, grid32):
        orbs = random_orbital_set(grid32, 5, seed=3)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
        once = apply_density_matrix(orbs, f)
        twice = apply_density_matrix(orbs, once)
        assert np.max(np.abs(twice - once)) <= 1e-12 * max(1.0, np.max(np.abs(once)))

    def test_grid_mismatch(self, grid32, grid64):
        orbs = random_orbital_set(grid32, 2, seed=5)
        with pytest.raises(ValueError):
            apply_density_matrix(orbs, np.zeros(grid64.shape))


class TestApplyExchange:
    def test_zero_potential(self, grid32):
        orbs = random_orbital_set(grid32, 2, seed=6)
        pot = PotentialSpec(grid32, np.zeros(grid32.shape))
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid32.shape) + 0j
        assert np.max(np.abs(apply_exchange(orbs, pot, f))) == 0.0

    def test_zero_mode_potential_reduces_to_projection(self, grid32):
        vhat = np.zeros(grid32.shape)
        vhat[0] = 2.5
        pot = PotentialSpec(grid32, vhat)
        orbs = OrbitalSet(plane_wave(grid32, [2])[None, :], grid32)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
        out = apply_exchange(orbs, pot, f)
        expected = (2.5 / (1 * grid32.box_length)) * apply_density_matrix(orbs, f)
        assert np.max(np.abs(out - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_against_dense_kernel(self):
        grid = Grid(1, 16, 2.0 * np.pi, 0.2)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.7), coupling=0.9)
        orbs = random_orbital_set(grid, 2, seed=9)
        v_lag = lag_potential(grid, pot)
        n = grid.n
        kernel = np.zeros((n, n), dtype=complex)
        flat = orbs.orbitals
        for i in range(n):
            for j in range(n):
                om = sum(flat[a, i] * np.conj(flat[a, j]) for a in range(2))
                kernel[i, j] = v_lag[(i - j) % n] * om / orbs.n_particles
        rng = np.random.default_rng(10)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        direct = kernel @ f * grid.cell_volume
        out = apply_exchange(orbs, pot, f)
        assert np.max(np.abs(out - direct)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))

    def test_self_adjoint(self, grid32):
        pot = PotentialSpec(grid32, gaussian_vhat(grid32, 0.5), coupling=1.3)
        orbs = random_orbital_set(grid32, 3, seed=11)
        rng = np.random.default_rng(12)
        f = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
        g = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
        lhs = grid_inner(grid32, f, apply_exchange(orbs, pot, g))
        rhs = grid_inner(grid32, apply_exchange(orbs, pot, f), g)
        assert abs(lhs - rhs) <= 1e-10 * grid_norm(grid32, f) * grid_norm(grid32, g)

    def test_momentum_average_representation(self):
        grid = Grid(1, 16, 2.0 * np.pi, 0.2)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.7), coupling=0.8)
        orbs = random_orbital_set(grid, 2, seed=13)
        rng = np.random.default_rng(14)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        a = apply_exchange(orbs, pot, f)
        b = apply_exchange_momentum_average(orbs, pot, f)
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))


EXCHANGE_FORM_CASES = [(Grid(1, 64, 4.0 * np.pi, 0.2), 5), (Grid(2, 16, 4.0 * np.pi, 0.3), 4)]


class TestExchangeForms:
    """The one dense X and the one FFT form against the forms they replaced."""

    rtol = 1e-13

    @staticmethod
    def setup(grid, n_part, rows=3):
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        orbs = random_orbital_set(grid, n_part, seed=21)
        rng = np.random.default_rng(22)
        fields = (rng.standard_normal((rows, *grid.shape))
                  + 1j * rng.standard_normal((rows, *grid.shape)))
        return pot, orbs, fields

    @pytest.mark.parametrize("grid, n_part", EXCHANGE_FORM_CASES,
                             ids=lambda c: f"{c.n}^{c.dim}" if isinstance(c, Grid) else f"N{c}")
    def test_fft_form_agrees_with_pair_array_and_loop(self, grid, n_part):
        pot, orbs, fields = self.setup(grid, n_part)
        pair = reference_pair_exchange(grid, orbs.orbitals, pot.vhat_eff, fields)
        loop = reference_loop_exchange(orbs, pot, fields)
        scale = np.max(np.abs(pair))
        per_orbital = 16 * fields.shape[0] * grid.size  # bytes of one orbital's pair rows
        for chunk in (1, 2, n_part):
            got = _fft_exchange(grid, orbs.orbitals, pot.vhat_eff, fields, chunk * per_orbital)
            for ref in (pair, loop):
                assert np.max(np.abs(got - ref)) <= self.rtol * scale, chunk
        # each end keeps the bytes of the form it generalizes
        whole = _fft_exchange(grid, orbs.orbitals, pot.vhat_eff, fields, 10**9)
        assert whole.tobytes() == pair.tobytes()
        one = _fft_exchange(grid, orbs.orbitals, pot.vhat_eff, fields, 0)
        assert one.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("grid, n_part", EXCHANGE_FORM_CASES,
                             ids=lambda c: f"{c.n}^{c.dim}" if isinstance(c, Grid) else f"N{c}")
    def test_dense_builder_keeps_the_bytes_of_both_dense_forms(self, grid, n_part, monkeypatch):
        pot, orbs, fields = self.setup(grid, n_part)
        # from the strided view, as the check builds X
        monkeypatch.setattr(orbitals_module, "dense_pays", lambda *args: True)
        for block in (fields, fields[0]):
            got = apply_exchange(orbs, pot, block)
            assert got.tobytes() == reference_dense_exchange(orbs, pot, block).tobytes()
        # from a held V(x_i - x_j), as MeanField.fock builds X
        omega_n = _density_matrix_per_particle(orbs.orbitals, grid)
        held = _exchange_matrix(omega_n.copy(), _circulant(grid, pot.lag_values()))
        view = _exchange_matrix(omega_n.copy(), _circulant_view(grid, pot.lag_values()))
        ref = omega_n * _circulant(grid, pot.lag_values())
        assert held.tobytes() == view.tobytes() == ref.tobytes()

    def test_apply_exchange_asks_the_rule_for_its_rows_and_one_apply(self, monkeypatch):
        grid, n_part = EXCHANGE_FORM_CASES[0]
        pot, orbs, fields = self.setup(grid, n_part)
        asked = []
        for dense in (True, False):
            monkeypatch.setattr(orbitals_module, "dense_pays",
                                lambda *args, dense=dense: asked.append(args) or dense)
            for block in (fields, fields[0]):
                got = apply_exchange(orbs, pot, block)
                ref = (reference_dense_exchange(orbs, pot, block) if dense
                       else _fft_exchange(grid, orbs.orbitals, pot.vhat_eff,
                                          block.reshape(-1, *grid.shape)).reshape(block.shape))
                assert got.shape == block.shape
                assert got.tobytes() == ref.tobytes()
        assert asked == [(grid, n_part, 3, 1), (grid, n_part, 1, 1)] * 2


class TestCommutators:
    def test_position_diagonal_projection_commutes(self, grid32):
        # indicator orbitals: multiplication operators commute with x
        orbs_arr = np.zeros((3, grid32.n), dtype=complex)
        for k, i in enumerate((3, 10, 20)):
            orbs_arr[k, i] = 1.0 / np.sqrt(grid32.cell_volume)
        orbs = OrbitalSet(orbs_arr, grid32)
        assert trace_norm(commutator_with_position(orbs, 0)) <= 1e-12
        assert trace_norm(commutator_with_momentum(orbs, 0)) > 1e-3

    def test_gaussian_trace_norm_is_twice_sigma(self, grid64):
        g = gaussian_orbital(grid64, sigma=0.4)
        orbs = OrbitalSet(g[None, :], grid64)
        x = grid64.x_mesh[0]
        mean = np.sum(x * np.abs(g) ** 2) * grid64.cell_volume
        var = np.sum(x**2 * np.abs(g) ** 2) * grid64.cell_volume - mean**2
        tn = trace_norm(commutator_with_position(orbs, 0))
        assert abs(tn - 2.0 * np.sqrt(var)) <= 1e-10

    def test_gaussian_momentum_trace_norm(self, grid64):
        g = gaussian_orbital(grid64, sigma=0.4)
        orbs = OrbitalSet(g[None, :], grid64)
        gh = grid64.fft(g)
        w = np.abs(gh) ** 2
        w /= w.sum()
        p = grid64.p_axis
        var_p = np.sum(p**2 * w) - np.sum(p * w) ** 2
        tn = trace_norm(commutator_with_momentum(orbs, 0))
        assert abs(tn - 2.0 * grid64.epsilon * np.sqrt(var_p)) <= 1e-10

    def test_fermi_sea_momentum_commutator_vanishes(self, grid64):
        orbs = fermi_sea(grid64, 6, Dispersion.relativistic(1.0))
        assert trace_norm(commutator_with_momentum(orbs, 0)) <= 1e-10
        assert trace_norm(commutator_with_position(orbs, 0)) > 1e-3

    def test_gauge_invariance(self, grid32):
        orbs = random_orbital_set(grid32, 3, seed=15)
        tn = trace_norm(commutator_with_position(orbs, 0))
        phased = orbs.orbitals.copy()
        phased[1] = phased[1] * np.exp(1j * 0.7)
        tn2 = trace_norm(commutator_with_position(OrbitalSet(phased, grid32), 0))
        assert abs(tn - tn2) <= 1e-10 * max(1.0, tn)

    def test_unitary_conjugation_invariance(self, grid32):
        orbs = random_orbital_set(grid32, 2, seed=16)
        comm = commutator_with_position(orbs, 0)
        tn = trace_norm(comm)
        for q in (1, 3, 7):
            wave = plane_wave(grid32, [q]) * grid32.box_length**0.5
            conj_op = LowRankOperator(wave * comm.left, wave * comm.right, grid32)
            assert abs(trace_norm(conj_op) - tn) <= 1e-10 * max(1.0, tn)

    def test_phase_commutator_rank(self, grid32):
        orbs = random_orbital_set(grid32, 3, seed=17)
        op = commutator_with_phase(orbs, [2])
        assert op.rank == 6

    def test_axis_out_of_range(self, grid32):
        orbs = random_orbital_set(grid32, 2, seed=18)
        with pytest.raises(ValueError):
            commutator_with_position(orbs, 1)


class TestTraceNorm:
    def test_zero_operator(self, grid32):
        op = LowRankOperator(
            np.zeros((1, grid32.n), dtype=complex),
            np.zeros((1, grid32.n), dtype=complex),
            grid32,
        )
        assert trace_norm(op) == 0.0

    def test_rank_one_norms_multiply(self, grid32):
        a = 2.0 * plane_wave(grid32, [1])
        b = 3.0 * plane_wave(grid32, [4])
        op = LowRankOperator(a[None, :], b[None, :], grid32)
        assert abs(trace_norm(op) - 6.0) <= 1e-12

    def test_random_rank6_matches_dense_svd(self):
        grid = Grid(1, 32, 2.0 * np.pi, 0.3)
        rng = np.random.default_rng(19)
        left = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
        right = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
        op = LowRankOperator(left, right, grid)
        tn = trace_norm(op)
        dense = op.dense()
        ref = np.sum(np.linalg.svd(dense, compute_uv=False))
        assert abs(tn - ref) <= 1e-10 * ref

    def test_triangle_inequality(self, grid32):
        rng = np.random.default_rng(20)
        for trial in range(5):
            mk = lambda: LowRankOperator(
                rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32)),
                rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32)),
                grid32,
            )
            a, b = mk(), mk()
            a_plus_b = LowRankOperator(np.concatenate([a.left, b.left]),
                                       np.concatenate([a.right, b.right]), grid32)
            assert trace_norm(a_plus_b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_rank_cap(self, grid32):
        rng = np.random.default_rng(21)
        op = LowRankOperator(
            rng.standard_normal((5, 32)) + 0j, rng.standard_normal((5, 32)) + 0j, grid32
        )
        with pytest.raises(ValueError):
            trace_norm(op, rank_cap=4)

    def test_hs_norm_matches_dense(self, grid32):
        rng = np.random.default_rng(22)
        op = LowRankOperator(
            rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32)),
            rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32)),
            grid32,
        )
        ref = np.linalg.norm(op.dense(), "fro")
        assert abs(hs_norm(op) - ref) <= 1e-10 * ref


class TestCommutatorTraceNorm:
    def test_general_operator_needs_factored_form(self, grid32):
        # a random matrix on grid values: A† = A^H, neither ±A nor unitary,
        # so the two sides differ and only trace_norm on the factored
        # commutator is right
        orbs = random_orbital_set(grid32, 3, seed=90)
        rng = np.random.default_rng(91)
        mat = rng.standard_normal((grid32.n, grid32.n)) + 1j * rng.standard_normal(
            (grid32.n, grid32.n))
        a_f = orbs.orbitals @ mat.T
        adj_f = orbs.orbitals @ mat.conj()
        factored = LowRankOperator(np.concatenate([a_f, -orbs.orbitals]),
                                   np.concatenate([orbs.orbitals, adj_f]), grid32)
        ref = trace_norm(factored)
        dense = np.sum(np.linalg.svd(factored.dense(), compute_uv=False))
        assert abs(ref - dense) <= 1e-12 * dense
        assert abs(commutator_trace_norm(orbs, a_f) - ref) > 1e-3 * ref

    def test_unitary_sides_equal(self, grid32):
        # for unitary U both sides carry sqrt(1 - s_k²), s_k the singular
        # values of <f_i, U f_j>, so twice one side is the whole norm
        orbs = random_orbital_set(grid32, 3, seed=93)
        rng = np.random.default_rng(94)
        unitary, _ = np.linalg.qr(rng.standard_normal((grid32.n, grid32.n))
                                  + 1j * rng.standard_normal((grid32.n, grid32.n)))
        a_f = orbs.orbitals @ unitary.T
        adj_f = orbs.orbitals @ unitary.conj()
        factored = LowRankOperator(np.concatenate([a_f, -orbs.orbitals]),
                                   np.concatenate([orbs.orbitals, adj_f]), grid32)
        ref = trace_norm(factored)
        assert abs(commutator_trace_norm(orbs, a_f) - ref) <= 1e-12 * ref

    def test_shape_mismatch(self, grid32):
        orbs = random_orbital_set(grid32, 3, seed=92)
        with pytest.raises(ValueError):
            commutator_trace_norm(orbs, orbs.orbitals[:2])
        with pytest.raises(ValueError):
            commutator_trace_norm(orbs, orbs.orbitals[:, :4])


class TestReorthonormalize:
    def test_fixed_point(self, grid32):
        orbs = random_orbital_set(grid32, 4, seed=23)
        orbs = reorthonormalize(orbs)
        again = reorthonormalize(orbs)
        assert np.max(np.abs(again.orbitals - orbs.orbitals)) <= 1e-12

    def test_overlapping_pair(self, grid64):
        f = plane_wave(grid64, [0])
        g = (plane_wave(grid64, [1]) + 0.1 * f) / np.sqrt(1.01)
        orbs = OrbitalSet(np.stack([f, g]), grid64, validate=False)
        out = reorthonormalize(orbs)
        assert gram_deviation(out) <= 1e-12

    def test_span_preserved(self, grid32):
        rng = np.random.default_rng(24)
        base = random_orbital_set(grid32, 3, seed=25)
        mixed = base.orbitals.copy()
        mixed[0] = mixed[0] + 0.2 * mixed[1]
        skewed = OrbitalSet(mixed, grid32, validate=False)
        fixed = reorthonormalize(skewed)
        # same span <=> zero HS distance between the projections
        assert hs_distance_squared(fixed, base) <= 1e-12

    def test_near_dependent_pair_raises(self, grid64):
        f = plane_wave(grid64, [0])
        g = f * np.sqrt(1.0 - 1e-12) + plane_wave(grid64, [1]) * 1e-6
        orbs = OrbitalSet(np.stack([f, g / grid_norm(grid64, g)]), grid64, validate=False)
        with pytest.raises(ValueError):
            reorthonormalize(orbs)


class TestHsDistance:
    def test_identical_sets(self, grid32):
        orbs = random_orbital_set(grid32, 4, seed=26)
        assert hs_distance_squared(orbs, orbs) <= 1e-12

    def test_orthogonal_ranges(self, grid64):
        a = OrbitalSet(np.stack([plane_wave(grid64, [k]) for k in (0, 1)]), grid64)
        b = OrbitalSet(np.stack([plane_wave(grid64, [k]) for k in (5, 9)]), grid64)
        assert abs(hs_distance_squared(a, b) - 4.0) <= 1e-12

    def test_matches_dense_kernel(self):
        grid = Grid(1, 32, 2.0 * np.pi, 0.3)
        a = random_orbital_set(grid, 4, seed=27)
        b = random_orbital_set(grid, 4, seed=28)
        val = hs_distance_squared(a, b)
        diff = dense_kernel(a) - dense_kernel(b)
        ref = float(np.sum(np.abs(diff) ** 2))
        assert abs(val - ref) <= 1e-10 * max(1.0, ref)

    def test_matches_dense_to_rounding(self):
        grid = Grid(1, 32, 2.0 * np.pi, 0.3)
        a = random_orbital_set(grid, 4, seed=27)
        for b in (random_orbital_set(grid, 4, seed=28), random_orbital_set(grid, 6, seed=29)):
            ref = float(np.sum(np.abs(dense_kernel(a) - dense_kernel(b)) ** 2))
            assert abs(hs_distance_squared(a, b) - ref) <= 1e-14 * ref
            # the overlap form agrees where it does not cancel
            overlap = (a.orbitals.conj() @ b.orbitals.T) * grid.cell_volume
            gram_form = a.n_particles + b.n_particles - 2.0 * np.sum(np.abs(overlap) ** 2)
            assert abs(hs_distance_squared(a, b) - gram_form) <= 1e-13 * ref

    def test_small_rotation_resolved(self):
        # rotating one orbital by theta out of the span gives 2 sin^2(theta),
        # far below the 2N eps_machine floor of 2N - 2‖<F_a, F_b>‖²
        grid = Grid(1, 32, 2.0 * np.pi, 0.3)
        base = random_orbital_set(grid, 5, seed=31)
        theta = 1e-6
        rotated = base.orbitals[:4].copy()
        rotated[0] = np.cos(theta) * base.orbitals[0] + np.sin(theta) * base.orbitals[4]
        a = OrbitalSet(base.orbitals[:4], grid)
        b = OrbitalSet(rotated, grid)
        expected = 2.0 * np.sin(theta) ** 2
        assert abs(hs_distance_squared(a, b) - expected) <= 1e-8 * expected

    def test_grid_mismatch(self, grid32, grid64):
        with pytest.raises(ValueError):
            hs_distance_squared(
                random_orbital_set(grid32, 2, seed=29), random_orbital_set(grid64, 2, seed=30)
            )


class TestOrbitalSetInvariants:
    def test_gram_orthonormal(self, grid32):
        orbs = random_orbital_set(grid32, 6, seed=31)
        assert gram_deviation(orbs) <= 1e-10

    def test_rejects_non_orthonormal(self, grid32):
        arr = np.ones((2, grid32.n), dtype=complex)
        with pytest.raises(ValueError):
            OrbitalSet(arr, grid32)

    def test_immutable(self, grid32):
        orbs = random_orbital_set(grid32, 2, seed=32)
        with pytest.raises(ValueError):
            orbs.orbitals[0, 0] = 1.0

    def test_boosted_fermi_sea_orthonormal_with_velocity_field(self, grid64):
        from rhflab.orbitals import boosted_fermi_sea
        from rhflab.grids import Dispersion

        disp = Dispersion.relativistic(1.0)
        n_part = 5  # odd: the sea is momentum-symmetric, no net current offset
        orbs = boosted_fermi_sea(grid64, n_part, disp, amplitude=0.5, mode=1)
        assert gram_deviation(orbs) <= 1e-12  # unit phase keeps exact orthonormality
        rho = reduced_density(orbs)
        assert np.max(np.abs(rho - 1.0 / grid64.box_length)) <= 1e-12
        # the boost shows up as a current: velocity density follows the field
        eps = grid64.epsilon
        current = np.zeros(grid64.shape)
        for f in orbs.orbitals:
            df = grid64.ifft(1j * grid64.p_axis * grid64.fft(f))
            current += (np.conj(f) * eps * df).imag / n_part
        u_expected = 0.5 * np.sin(grid64.x_axis) * rho
        assert np.max(np.abs(current - u_expected)) <= 1e-10

    def test_seam_mass_centered_vs_shifted(self, grid64):
        centered = OrbitalSet(gaussian_orbital(grid64, sigma=0.3)[None, :], grid64)
        assert seam_mass(centered) <= 1e-10
        shifted = OrbitalSet(
            gaussian_orbital(grid64, center=grid64.box_length / 2 - 0.1, sigma=0.3)[None, :],
            grid64,
        )
        assert seam_mass(shifted) > 0.3
