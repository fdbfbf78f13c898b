import numpy as np
import pytest
from scipy.linalg import hadamard

from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
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
    reduced_density,
)
from rhflab import scf
from rhflab.scf import (
    MeanField,
    ScfConfig,
    ScfResult,
    hf_energy,
    scf_minimize,
)
from rhflab.diagnostics import comm_grad_total, comm_x_total
from reference_orbitals import (
    apply_kinetic,
    gram_deviation,
    grid_inner,
    grid_norm,
    random_orbital_set,
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


def reference_fock_matrix(h0, v_lag_mat, omega_n, grid, potential):
    """h0 + diag(V*ρ) - X(ω) from a copy of h0 and a separate exchange array.

    omega_n is ω/N.
    """
    rho = omega_n.diagonal().real / grid.cell_volume
    v_rho = convolve_potential(rho.reshape(grid.shape), grid, potential).reshape(-1)
    h = h0.copy()
    h[np.diag_indices(grid.size)] += v_rho
    if v_lag_mat is not None:
        h = h - v_lag_mat * omega_n  # a real h0 takes a complex ω
    return h


def dense_one_body_matrix(grid, dispersion):
    """K as a real matrix, K[i, j] = c[(i - j) mod n] with c = ifftn(symbol).

    The former memoised builder of the SCF's K.
    """
    return scf._circulant(grid, np.fft.ifftn(dispersion.symbol(grid)).real).copy()


def lag_matrix(grid, potential):
    """V(x_i - x_j) from the interaction coefficients.

    The former memoised builder of the SCF's V(x_i - x_j).
    """
    return scf._circulant(grid, np.fft.ifftn(potential.vhat_eff).real
                          * (grid.size / grid.box_length**grid.dim)).copy()


def reference_density_matrix(phi, grid):
    """ω = Σ_j f_j(x) conj(f_j(y)) dv on value vectors, dv applied to the product."""
    flat = phi.reshape(phi.shape[0], -1)
    return (flat.T @ flat.conj()) * grid.cell_volume


def reference_dense_one_body_matrix(grid, dispersion, vext=None):
    """K + V_ext as a complex matrix: K applied by FFT to every unit vector."""
    eye = np.eye(grid.size, dtype=complex).reshape(grid.size, *grid.shape)
    axes = tuple(range(1, grid.dim + 1))
    sym = dispersion.symbol(grid)
    k_cols = np.fft.ifftn(sym * np.fft.fftn(eye, axes=axes), axes=axes)
    h = k_cols.reshape(grid.size, grid.size).T.copy()
    if vext is not None:
        h[np.diag_indices(grid.size)] += vext.reshape(-1)
    return h


def reference_one_body(orbs, potential, dispersion, include_vext=True):
    """tr[(K [+ V_ext]) ω] as a loop of per-orbital kinetic applies."""
    grid = orbs.grid
    dv = grid.cell_volume
    one_body = 0.0
    for f in orbs.orbitals:
        one_body += np.vdot(f, apply_kinetic(f, grid, dispersion)).real * dv
        if include_vext:
            one_body += np.vdot(f, potential.vext * f).real * dv
    return one_body


def reference_scf_minimize(grid, potential, n_particles, dispersion, config):
    """The SCF loop in complex arithmetic with the dense ‖hω - ωh‖_F residual.

    Residual k pairs iterate k with the next mean field, the last row with
    the last iterate's own mean field.
    """
    h0 = reference_dense_one_body_matrix(grid, dispersion, potential.vext)
    v_lag_mat = lag_matrix(grid, potential) if potential.has_interaction() else None

    def commutator_norm(h, dmat):
        return float(np.linalg.norm(h @ dmat - dmat @ h, "fro"))

    phi = scf._occupy(h0, n_particles, grid)
    orbs = OrbitalSet(phi, grid, validate=False)
    energy = hf_energy(orbs, potential, dispersion)
    dmat = reference_density_matrix(phi, grid)
    d_mix = dmat.copy()
    energies = [energy]
    residuals = []
    best = (energy, orbs)
    converged = oscillation = halved = False
    mixing = config.mixing
    iterations = 0
    alpha = 1.0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        h = reference_fock_matrix(h0, v_lag_mat, d_mix / n_particles, grid, potential)
        residuals.append(commutator_norm(h, dmat))
        phi = scf._occupy(h, n_particles, grid)
        orbs = OrbitalSet(phi, grid, validate=False)
        new_energy = hf_energy(orbs, potential, dispersion)
        dmat = reference_density_matrix(phi, grid)
        energies.append(new_energy)
        if new_energy < best[0]:
            best = (new_energy, orbs)
        slack = 1e-12 * max(1.0, abs(energy))
        if new_energy > energy + slack and it > 1:
            if not halved:
                mixing = 0.5 * mixing
                halved = True
            else:
                oscillation = True
        if abs(new_energy - energy) < config.convergence_tol:
            energy = new_energy
            converged = True
            break
        energy = new_energy
        d_mix = (1.0 - alpha) * d_mix + alpha * dmat
        alpha = mixing
    h_last = reference_fock_matrix(h0, v_lag_mat, dmat / n_particles, grid, potential)
    residuals.append(commutator_norm(h_last, dmat))
    energy, orbs = best
    dmat = reference_density_matrix(orbs.orbitals, grid)
    h_final = reference_fock_matrix(h0, v_lag_mat, dmat / n_particles, grid, potential)
    neps = n_particles * grid.epsilon
    return ScfResult(orbitals=orbs, energy=energy, energies=energies, residuals=residuals,
                     iterations=iterations, converged=converged, oscillation=oscillation,
                     stationarity=commutator_norm(h_final, dmat),
                     comm_x_over_neps=comm_x_total(orbs) / neps,
                     comm_grad_over_neps=comm_grad_total(orbs) / neps)


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

    @pytest.mark.parametrize("grid", [Grid(1, 64, 2.0 * np.pi, 0.1),
                                      Grid(2, 16, 2.0 * np.pi, 0.25)])
    @pytest.mark.parametrize("include_vext", [False, True])
    def test_one_body_matches_per_orbital_loop(self, grid, include_vext):
        disp = Dispersion.relativistic(1.0)
        free = PotentialSpec(grid, np.zeros(grid.shape), vext=harmonic_trap(grid, 1.0))
        for seed in (47, 48):
            orbs = random_orbital_set(grid, 6, seed=seed)
            ref = reference_one_body(orbs, free, disp, include_vext)
            val = hf_energy(orbs, free, disp, include_vext=include_vext)
            assert abs(val - ref) <= 1e-14 * abs(ref)

    def test_positive_kernel_lower_bound(self, grid64):
        # with vhat >= 0 the exchange never beats the direct term: E >= N m0
        disp = Dispersion.relativistic(1.5)
        pot = PotentialSpec(grid64, gaussian_vhat(grid64, 0.5), coupling=1.0)
        orbs = random_orbital_set(grid64, 4, seed=41)
        assert hf_energy(orbs, pot, disp) >= 4 * 1.5


class TestFockMatrix:
    """MeanField's one-buffer Fock build against the copy-and-subtract reference."""

    @pytest.mark.parametrize("grid", [Grid(1, 64, 2.0 * np.pi, 0.1),
                                      Grid(2, 16, 2.0 * np.pi, 0.25)])
    @pytest.mark.parametrize("include_vext", [False, True])
    @pytest.mark.parametrize("coupling", [0.0, 0.7])
    def test_bit_identical_to_reference(self, grid, include_vext, coupling):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), vext=harmonic_trap(grid, 1.0),
                            coupling=coupling)
        h0 = dense_one_body_matrix(grid, disp)
        if include_vext:
            h0[np.diag_indices(grid.size)] += pot.vext.reshape(-1)
        v_lag = lag_matrix(grid, pot) if coupling else None
        mean_field = MeanField(grid, pot, disp, keep_trap=include_vext)
        for seed in (45, 46):
            orbs = random_orbital_set(grid, 5, seed=seed)
            omega_n = scf._density_matrix_per_particle(orbs.orbitals, grid)
            # a complex ω is the propagation's case, a real one the SCF's
            for omega in (omega_n, omega_n.real.copy()):
                ref = reference_fock_matrix(h0, v_lag, omega, grid, pot)
                got = mean_field.fock(omega.copy())
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid", [Grid(1, 64, 2.0 * np.pi, 0.1),
                                      Grid(2, 16, 2.0 * np.pi, 0.25)])
    @pytest.mark.parametrize("include_vext", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_one_buffer_build_matches_composition(self, grid, include_vext, complex_):
        # complex orbitals are the propagation's case, real ones the SCF's
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), vext=harmonic_trap(grid, 1.0),
                            coupling=0.7)
        h0 = dense_one_body_matrix(grid, disp)
        if include_vext:
            h0[np.diag_indices(grid.size)] += pot.vext.reshape(-1)
        v_lag = lag_matrix(grid, pot)
        mean_field = MeanField(grid, pot, disp, keep_trap=include_vext)
        for n_part, seed in ((5, 48), (8, 49)):
            phi = random_orbital_set(grid, n_part, seed=seed).orbitals
            if not complex_:
                phi = np.linalg.qr(phi.real.reshape(n_part, -1).T)[0].T.reshape(phi.shape)
                phi = phi / np.sqrt(grid.cell_volume)
            omega_n = scf._density_matrix_per_particle(phi, grid)
            assert np.iscomplexobj(omega_n) == complex_
            got = mean_field.fock(omega_n)
            ref = reference_fock_matrix(h0, v_lag, reference_density_matrix(phi, grid) / n_part,
                                        grid, pot)
            assert got is omega_n
            assert got.dtype == ref.dtype
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_potentials_differing_in_coupling_get_their_own(self):
        # each MeanField builds V(x_i - x_j) from its own potential: two
        # potentials used alternately, or a coupling changed before a new
        # MeanField, never read another's matrix
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        disp = Dispersion.relativistic(1.0)
        pots = [PotentialSpec(grid, gaussian_vhat(grid, 0.8), coupling=c) for c in (0.5, 0.7)]
        orbs = random_orbital_set(grid, 5, seed=47)
        omega_n = scf._density_matrix_per_particle(orbs.orbitals, grid)
        lags = (np.arange(grid.n)[:, None] - np.arange(grid.n)[None, :]) * grid.dx
        k = dense_one_body_matrix(grid, disp)

        def reference(pot):
            v_lag = np.cos(np.multiply.outer(lags, grid.p_axis)) @ pot.vhat_eff
            return reference_fock_matrix(k, v_lag / grid.box_length, omega_n, grid, pot)

        fock = {}
        for pot in pots + pots:
            got = MeanField(grid, pot, disp, keep_trap=False).fock(omega_n.copy())
            assert np.max(np.abs(got - reference(pot))) <= 1e-13 * np.max(np.abs(got))
            fock.setdefault(pot.coupling, got)
        assert np.max(np.abs(fock[0.5] - fock[0.7])) > 1e-3
        pots[0].coupling = 0.9
        got = MeanField(grid, pots[0], disp, keep_trap=False).fock(omega_n.copy())
        assert np.max(np.abs(got - reference(pots[0]))) <= 1e-13 * np.max(np.abs(got))
        assert np.max(np.abs(got - fock[0.5])) > 1e-3

    def test_held_matrices_are_read_only(self):
        grid = Grid(2, 16, 2.0 * np.pi, 0.25)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), coupling=0.7)
        mean_field = MeanField(grid, pot, disp)
        for held in (mean_field._k, mean_field._v_lag):
            assert held.dtype == np.float64
            assert not held.flags.writeable
            with pytest.raises(ValueError):
                held[0, 0] = 1.0
        # the Fock matrix handed out is the caller's own
        h = mean_field.fock(np.eye(grid.size))
        assert h.flags.writeable


class TestMeanFieldEnergy:
    """MeanField.energy on each path against hf_energy with the MeanField's flags."""

    GRIDS = [(Grid(1, 64, 4.0 * np.pi, 1.0 / 6.0), 6), (Grid(1, 256, 4.0 * np.pi, 1.0 / 8.0), 8),
             (Grid(2, 16, 4.0 * np.pi, 0.2), 5)]

    @staticmethod
    def states(grid, n_part):
        """A real SCF state (the SCF's ω) and the same state kicked (a complex ω)."""
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        phi = scf_minimize(grid, pot, n_part, disp, ScfConfig(max_iterations=40)).orbitals
        kick = plane_wave(grid, [1] * grid.dim) * grid.box_length ** (grid.dim / 2.0)
        real = phi.orbitals.real.copy()
        assert np.array_equal(real, phi.orbitals)
        return real, phi.orbitals * kick

    @pytest.mark.parametrize("grid, n_part", GRIDS)
    @pytest.mark.parametrize("coupling", [0.0, 0.5])
    def test_dense_matches_hf_energy(self, grid, n_part, coupling):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=coupling)
        for phi in self.states(grid, n_part):
            orbs = OrbitalSet(phi, grid, validate=False)
            omega_n = scf._density_matrix_per_particle(phi, grid)
            held = omega_n.copy()
            for keep_trap in (False, True):
                for exchange_on in (False, True):
                    mean_field = MeanField(grid, pot, disp, exchange_on=exchange_on,
                                           keep_trap=keep_trap)
                    ref = hf_energy(orbs, pot, disp, include_vext=keep_trap,
                                    exchange_on=exchange_on)
                    for got in (mean_field.energy(phi), mean_field.energy(phi, omega_n)):
                        assert abs(got - ref) <= 1e-13 * abs(ref)
            # ω/N is read, never written
            assert np.array_equal(omega_n, held)

    @pytest.mark.parametrize("grid, n_part", GRIDS[::2])
    def test_pair_path_is_hf_energy(self, grid, n_part):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        for phi in self.states(grid, n_part):
            orbs = OrbitalSet(phi, grid, validate=False)
            for keep_trap in (False, True):
                for exchange_on in (False, True):
                    mean_field = MeanField(grid, pot, disp, path="pair",
                                           exchange_on=exchange_on, keep_trap=keep_trap)
                    assert mean_field.energy(phi) == hf_energy(
                        orbs, pot, disp, include_vext=keep_trap, exchange_on=exchange_on)

    def test_allocates_no_further_dense_matrix(self):
        # beyond the ω/N it forms, the dense energy holds no n^d×n^d array
        import tracemalloc

        grid, n_part = self.GRIDS[1]
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        mean_field = MeanField(grid, pot, disp)
        for phi in self.states(grid, n_part):
            omega_n = scf._density_matrix_per_particle(phi, grid)
            for given, allowed in ((omega_n, 0), (None, omega_n.nbytes)):
                tracemalloc.start()
                try:
                    mean_field.energy(phi, given)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < allowed + 4 * grid.size * 8 * n_part


class TestDenseOneBodyMatrix:
    """The real circulant K against K applied by FFT to every unit vector."""

    @pytest.mark.parametrize("grid", [Grid(1, 64, 2.0 * np.pi, 0.1),
                                      Grid(2, 16, 2.0 * np.pi, 0.25),
                                      Grid(3, 8, 2.0 * np.pi, 0.5)])
    @pytest.mark.parametrize("disp", [Dispersion.relativistic(1.3),
                                      Dispersion.nonrelativistic(0.8)])
    def test_matches_fft_built_matrix(self, grid, disp):
        # K [+ V_ext] is the Fock matrix of ω = 0, the SCF's start
        pot = PotentialSpec(grid, gaussian_vhat(grid, 0.8), vext=harmonic_trap(grid, 1.0))
        for keep_trap in (False, True):
            got = MeanField(grid, pot, disp, keep_trap=keep_trap).fock(
                np.zeros((grid.size, grid.size)))
            ref = reference_dense_one_body_matrix(grid, disp, pot.vext if keep_trap else None)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCommutatorNorm:
    """√2‖hU - U(U†hU)‖_F against ‖hP - Ph‖_F for P = UU†."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n_part", [1, 5, 20])
    def test_matches_dense_commutator(self, complex_, n_part):
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        rng = np.random.default_rng(50 + n_part)
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, n_part))
        if complex_:
            a = a + 1j * rng.standard_normal((64, 64))
            b = b + 1j * rng.standard_normal((64, n_part))
        h = a + a.conj().T
        u = np.linalg.qr(b)[0]
        p = u @ u.conj().T
        ref = np.linalg.norm(h @ p - p @ h)
        got = scf._commutator_norm(h, (u / np.sqrt(grid.cell_volume)).T, grid)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n_part", [2, 8, 32])
    def test_near_stationary_exact_values(self, n_part):
        # U: Hadamard columns / 16, exactly orthonormal; h = PAP + QBQ + 2^-k C with
        # small-integer A, B, C is exact in float64, so ‖[h, P]‖ = 2^-k ‖[C, P]‖ exactly
        n = 256
        grid = Grid(1, n, 2.0 * np.pi, 0.1)
        rng = np.random.default_rng(n_part)
        u = hadamard(n)[:, :n_part] / 16.0
        p = u @ u.T
        q = np.eye(n) - p
        a, b, c = (np.triu(m) + np.triu(m, 1).T
                   for m in rng.integers(-1, 2, (3, n, n)).astype(float))
        base = p @ a @ p + q @ b @ q
        assert np.array_equal(base @ p, p @ base)
        phi = (u / np.sqrt(grid.cell_volume)).T
        floor = np.finfo(float).eps * np.linalg.norm(base, 2) * np.sqrt(n_part)
        for k in (None, 47, 40):
            delta = 0.0 if k is None else 2.0**-k
            h = base + delta * c
            assert np.array_equal(h - base, delta * c)
            exact = delta * np.linalg.norm(c @ p - p @ c)
            got = scf._commutator_norm(h, phi, grid)
            assert abs(got - exact) <= floor
            assert floor < 0.1 * exact or k is None


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
        lhs = grid_inner(grid64, f, mean_field_apply(orbs, trapped_potential, disp, g))
        rhs = grid_inner(grid64, mean_field_apply(orbs, trapped_potential, disp, f), g)
        assert abs(lhs - rhs) <= 1e-10 * grid_norm(grid64, f) * grid_norm(grid64, g)

    def test_fermi_sea_plane_waves_are_eigenvectors(self, grid64):
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid64, gaussian_vhat(grid64, 0.8), coupling=0.7)
        orbs = fermi_sea(grid64, 6, disp)
        for k in (0, 1, -2):
            w = plane_wave(grid64, [k])
            hw = mean_field_apply(orbs, pot, disp, w)
            lam = grid_inner(grid64, w, hw)
            resid = grid_norm(grid64, hw - lam * w)
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
        h = MeanField(grid64, pot, disp).fock(np.zeros((grid64.size, grid64.size)))
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
        assert gram_deviation(res.orbitals) <= 1e-10

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

    @pytest.mark.parametrize("n, n_part", [(256, 8), (256, 16), (256, 32), (64, 6)])
    def test_matches_complex_reference_loop(self, n, n_part):
        grid = Grid(1, n, 4.0 * np.pi, 1.0 / n_part)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        config = ScfConfig(max_iterations=120, convergence_tol=1e-10)
        res = scf_minimize(grid, pot, n_part, disp, config)
        ref = reference_scf_minimize(grid, pot, n_part, disp, config)
        assert res.converged and ref.converged
        assert res.iterations == ref.iterations
        assert len(res.energies) == len(ref.energies)
        for got, want in zip(res.energies, ref.energies):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(res.energy - ref.energy) <= 1e-12 * abs(ref.energy)
        assert hs_distance_squared(res.orbitals, ref.orbitals) <= 1e-20
        assert abs(res.stationarity - ref.stationarity) <= 1e-6 * ref.stationarity
        assert len(res.residuals) == len(ref.residuals) == len(ref.energies)
        for got, want in zip(res.residuals, ref.residuals):
            assert abs(got - want) <= 1e-6 * want
        assert abs(res.comm_x_over_neps - ref.comm_x_over_neps) <= 1e-12 * ref.comm_x_over_neps
        assert (abs(res.comm_grad_over_neps - ref.comm_grad_over_neps)
                <= 1e-12 * ref.comm_grad_over_neps)

    @pytest.mark.parametrize("n_part", [16, 32])
    def test_residual_tracks_convergence(self, n_part):
        # the quench setup: residual k is ‖[h_{k+1}, ω_k]‖, which falls with the
        # energy change instead of sitting at eigensolver rounding
        grid = Grid(1, 256, 4.0 * np.pi, 1.0 / n_part)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        res = scf_minimize(grid, pot, n_part, disp, ScfConfig(convergence_tol=1e-10))
        assert res.converged
        assert len(res.residuals) == len(res.energies) == res.iterations + 1
        assert res.residuals[-1] <= 1e-3 * res.residuals[0]
        assert res.residuals[-1] > 1e-10
        assert res.energy == res.energies[-1]  # the best iterate is the last
        assert res.residuals[-1] == res.stationarity

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScfConfig(mixing=0.0)
        with pytest.raises(ValueError):
            ScfConfig(convergence_tol=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="convergence_tol"):
                ScfConfig(convergence_tol=value)
