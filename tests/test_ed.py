import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import rhflab
from rhflab.ed import (
    FockBasis,
    ModeMeanField,
    _hermitian_exponential,
    _interaction_table,
    build_hamiltonian,
    evolve_exact,
    fermi_sea_modes,
    hf_mode_evolution,
    reduced_density_1,
    slater_vector,
    mean_field_gap,
)
from rhflab.grids import Dispersion
from rhflab.orbitals import _lowdin
from rhflab.propagate import _exponential_midpoint

L = 2.0 * np.pi


def gauss_vhat(width=1.0, amp=1.0):
    return lambda q: amp * np.exp(-0.5 * width**2 * q**2)


# ---- loop references: the element-by-element forms the array code replaced ----

def _parity_below(mask: int, mode: int) -> int:
    """+1/-1 sign from the occupied modes below `mode`."""
    below = mask & ((1 << mode) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def total_frequency(basis, state_index):
    return int(sum(basis.freqs[m] for m in basis.subsets[state_index]))


def _state_index(basis):
    return {int(mask): i for i, mask in enumerate(basis.masks)}


def reference_terms(basis, vhat, coupling):
    """(a, b, c, d, coef) for coef·a†_c a†_d a_b a_a, all modes retained."""
    freq_to_mode = {int(f): i for i, f in enumerate(basis.freqs)}
    prefactor = coupling / (2.0 * basis.n_particles * basis.box_length)
    terms = []
    for a in range(basis.n_modes):
        for b in range(basis.n_modes):
            if a == b:
                continue
            fab = basis.freqs[a] + basis.freqs[b]
            for c in range(basis.n_modes):
                d = freq_to_mode.get(int(fab - basis.freqs[c]))
                if d is None or c == d:
                    continue
                q = basis.momenta[c] - basis.momenta[a]
                coef = prefactor * float(vhat(abs(q)))
                if coef != 0.0:
                    terms.append((a, b, c, d, coef))
    return terms


def reference_hamiltonian(basis, dispersion, epsilon, vhat, coupling=1.0):
    index = _state_index(basis)
    masks = [int(m) for m in basis.masks]
    sym = dispersion.symbol_values(epsilon * np.abs(basis.momenta))
    entries = {}
    for i in range(basis.size):
        entries[i, i] = float(sum(sym[m] for m in basis.subsets[i]))
    for a, b, c, d, coef in reference_terms(basis, vhat, coupling):
        bit_a, bit_b, bit_c, bit_d = 1 << a, 1 << b, 1 << c, 1 << d
        for i, mask in enumerate(masks):
            if not (mask & bit_a):
                continue
            m1 = mask ^ bit_a
            if not (m1 & bit_b):
                continue
            sign = _parity_below(mask, a) * _parity_below(m1, b)
            m2 = m1 ^ bit_b
            if m2 & bit_d:
                continue
            sign *= _parity_below(m2, d)
            m3 = m2 | bit_d
            if m3 & bit_c:
                continue
            sign *= _parity_below(m3, c)
            key = (index[m3 | bit_c], i)
            entries[key] = entries.get(key, 0.0) + coef * sign
    rows, cols = np.array(list(entries)).T
    h = scipy.sparse.csr_matrix((list(entries.values()), (rows, cols)),
                                shape=(basis.size,) * 2, dtype=complex)
    h.eliminate_zeros()
    return h


def termwise_build_hamiltonian(basis, dispersion, epsilon, vhat, coupling=1.0):
    """The per-term form build_hamiltonian replaced: one pass per (a, b, c) mode triple.

    For each a < b and c < d it moves the states holding a and b with c, d
    empty onto their targets in order (module docstring), with about ten
    numpy calls on D-length occupation rows per term.
    """
    occ, below = basis.occupied, basis.below
    sym = dispersion.symbol_values(epsilon * np.abs(basis.momenta))
    partner, coef = _interaction_table(basis, vhat, coupling)
    diagonal = sym @ occ
    rows, cols, vals = [], [], []
    for a in range(basis.n_modes):
        for b in range(a + 1, basis.n_modes):
            held = occ[a] & occ[b]
            for c in np.flatnonzero(partner[a, b] > np.arange(basis.n_modes)).tolist():
                d = int(partner[a, b, c])
                # summed in the order the four orderings are enumerated
                w = ((coef[a, b, c] - coef[a, b, d]) - coef[b, a, c]) + coef[b, a, d]
                if w == 0.0:
                    continue
                if (c, d) == (a, b):
                    diagonal[held] += w
                    continue
                src = np.flatnonzero(held & ~(occ[c] | occ[d]))
                parity = (below[a, src] ^ below[b, src] ^ below[c, src] ^ below[d, src]
                          ^ (1 + (a < c) + (a < d) + (b < c) + (b < d))) & 1
                # the targets, in the order of their sources (module docstring)
                rows.append(np.flatnonzero(occ[c] & occ[d] & ~(occ[a] | occ[b])))
                cols.append(src)
                vals.append(np.where(parity, -w, w))
    states = np.arange(basis.size)
    ij = (np.concatenate(rows + [states]).astype(np.int32),
          np.concatenate(cols + [states]).astype(np.int32))
    h = scipy.sparse.coo_matrix((np.concatenate(vals + [diagonal]), ij),
                                shape=(basis.size,) * 2, dtype=complex).tocsr()
    h.eliminate_zeros()
    return h


def to_csr(h):
    """The operator's entries as the complex CSR matrix build_hamiltonian returned before."""
    return scipy.sparse.coo_matrix((h.values.astype(complex), (h.rows, h.cols)),
                                   shape=h.shape).tocsr()


def svd_polar_factor(orbitals):
    """The polar factor U·V† of the orbital rows by one SVD, ED's former repair."""
    u, _, vt = np.linalg.svd(orbitals, full_matrices=False)
    return u @ vt


def sparse_interaction(basis, vhat, coupling):
    """The sparse M²×M² form ModeMeanField.interaction replaced."""
    m = basis.n_modes
    partner, coef = _interaction_table(basis, vhat, coupling)
    a, b, c = np.nonzero(coef)
    d = partner[a, b, c]
    w = coef[a, b, c]
    rows = np.concatenate([c * m + a, d * m + b, c * m + b, d * m + a])
    cols = np.concatenate([b * m + d, a * m + c, a * m + d, b * m + c])
    return scipy.sparse.csr_matrix((np.concatenate([w, w, -w, -w]), (rows, cols)),
                                   shape=(m * m, m * m))


def assert_same_csr(h, ref):
    """Bit-equal CSR: dtypes, indptr, indices and data bytes."""
    assert h.format == ref.format == "csr"
    assert h.dtype == ref.dtype
    for name in ("indptr", "indices", "data"):
        x, y = getattr(h, name), getattr(ref, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def reference_reduced_density_1(vector, basis):
    index = _state_index(basis)
    gamma = np.zeros((basis.n_modes, basis.n_modes), dtype=complex)
    for i, mask in enumerate(int(m) for m in basis.masks):
        c = vector[i]
        if c == 0.0:
            continue
        for p in basis.subsets[i]:
            sign_p = _parity_below(mask, p)
            m1 = mask ^ (1 << p)
            for q in range(basis.n_modes):
                bit_q = 1 << q
                if m1 & bit_q:
                    continue
                sign = sign_p * _parity_below(m1, q)
                gamma[p, q] += sign * c * np.conj(vector[index[m1 | bit_q]])
    return gamma


def pairwise_reduced_density_1(vector, basis):
    """The per-pair form reduced_density_1 replaced: one pass per mode pair p < q.

    Each pair p < q pairs the states holding p but not q with their targets
    in order (module docstring); the lower triangle is the conjugate.
    """
    vector = np.asarray(vector, dtype=complex)
    occ, below = basis.occupied, basis.below
    gamma = np.diag(occ @ np.abs(vector) ** 2).astype(complex)
    for p in range(basis.n_modes):
        for q in range(p + 1, basis.n_modes):
            src = np.flatnonzero(occ[p] & ~occ[q])
            sign = 1 - 2 * ((below[p, src] ^ below[q, src] ^ 1) & 1)
            dst = np.flatnonzero(occ[q] & ~occ[p])
            gamma[p, q] = np.dot(sign * vector[src], vector[dst].conj())
    return gamma + np.triu(gamma, 1).conj().T


def reference_mean_field(mf, terms, gamma):
    h = np.diag(mf.kinetic).astype(complex)
    for a, b, c, d, coef in terms:
        h[c, a] += coef * gamma[b, d]
        h[d, b] += coef * gamma[a, c]
        h[c, b] -= coef * gamma[a, d]
        h[d, a] -= coef * gamma[b, c]
    return h


def reference_energy(mf, terms, gamma):
    e = float(np.sum(mf.kinetic * gamma.diagonal().real))
    for a, b, c, d, coef in terms:
        e += coef * (gamma[a, c] * gamma[b, d] - gamma[b, c] * gamma[a, d]).real
    return e


def dump_instance(path, basis, hamiltonian=None, max_size: int = 4096) -> None:
    """JSON dump of a basis (and optionally the Hamiltonian); small instances only."""
    import json
    from pathlib import Path

    if basis.size > max_size:
        raise ValueError(f"instance too large to dump ({basis.size} > {max_size})")
    payload = {
        "n_modes": basis.n_modes,
        "n_particles": basis.n_particles,
        "box_length": basis.box_length,
        "frequencies": [int(f) for f in basis.freqs],
        "states": [list(s) for s in basis.subsets],
    }
    if hamiltonian is not None:
        coo = to_csr(hamiltonian).tocoo()
        payload["hamiltonian"] = {
            "rows": [int(i) for i in coo.row],
            "cols": [int(j) for j in coo.col],
            "re": [float(v.real) for v in coo.data],
            "im": [float(v.imag) for v in coo.data],
        }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return v / np.linalg.norm(v)


class TestBasis:
    def test_lexicographic_enumeration(self):
        basis = FockBasis(4, 2, L)
        assert basis.size == 6
        assert basis.subsets[0] == (0, 1)
        assert basis.subsets[-1] == (2, 3)

    def test_cap(self):
        with pytest.raises(ValueError):
            FockBasis(40, 20, L)

    def test_bad_particle_count(self):
        with pytest.raises(ValueError):
            FockBasis(4, 5, L)

    def test_too_many_modes_for_int64_masks(self):
        with pytest.raises(ValueError):
            FockBasis(63, 1, L)


SIZES = [(m, n) for m in (6, 8, 12, 16) for n in range(1, 6)]


class TestAgainstLoopReference:
    """The array kernels against the loop forms they replaced (relative 1e-13)."""

    # N = M is a single state
    @pytest.mark.parametrize("n_modes,n_particles", SIZES + [(6, 6), (12, 12)])
    def test_hamiltonian(self, n_modes, n_particles):
        basis = FockBasis(n_modes, n_particles, L)
        args = (basis, Dispersion.relativistic(1.0), 0.9, gauss_vhat(), 0.3)
        op = build_hamiltonian(*args)
        h, termwise = to_csr(op), termwise_build_hamiltonian(*args)
        assert_same_csr(h, termwise)
        v = random_state(basis, n_modes * 10 + n_particles)
        assert np.max(np.abs(op @ v - termwise @ v)) <= 1e-13 * np.max(np.abs(termwise @ v))
        ref = reference_hamiltonian(*args)
        assert h.nnz == ref.nnz
        scale = np.max(np.abs(ref.data))
        assert np.max(np.abs((h - ref).data), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("n_modes,n_particles", [(20, 5)])
    def test_hamiltonian_across_chunks(self, n_modes, n_particles):
        # the terms span 27 chunks here; the per-state reference would
        # take 20 s, so the termwise form (checked against it above) stands in
        basis = FockBasis(n_modes, n_particles, L)
        args = (basis, Dispersion.relativistic(1.0), 0.9, gauss_vhat(), 0.3)
        op = build_hamiltonian(*args)
        termwise = termwise_build_hamiltonian(*args)
        assert_same_csr(to_csr(op), termwise)
        v = random_state(basis, 7)
        assert np.max(np.abs(op @ v - termwise @ v)) <= 1e-13 * np.max(np.abs(termwise @ v))

    @pytest.mark.parametrize("n_modes,n_particles", SIZES)
    def test_reduced_density(self, n_modes, n_particles):
        basis = FockBasis(n_modes, n_particles, L)
        v = random_state(basis, n_modes * 10 + n_particles)
        gamma = reduced_density_1(v, basis)
        ref = reference_reduced_density_1(v, basis)
        assert np.max(np.abs(gamma - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_modes,n_particles", SIZES)
    def test_mean_field_and_energy(self, n_modes, n_particles):
        basis = FockBasis(n_modes, n_particles, L)
        mf = ModeMeanField(basis, Dispersion.relativistic(1.0), 0.9, gauss_vhat(), 0.3)
        terms = reference_terms(basis, gauss_vhat(), 0.3)
        rng = np.random.default_rng(n_modes * 10 + n_particles)
        a = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
        gamma = a + a.conj().T
        ref = reference_mean_field(mf, terms, gamma)
        assert np.max(np.abs(mf.mean_field(gamma) - ref)) <= 1e-13 * np.max(np.abs(ref))
        e_ref = reference_energy(mf, terms, gamma)
        assert abs(mf.energy(gamma) - e_ref) <= 1e-13 * abs(e_ref)

    @pytest.mark.parametrize("n_modes,n_particles", [(8, 3), (12, 4)])
    def test_interaction_with_zero_coefficients(self, n_modes, n_particles):
        # V̂ vanishes from |q| = 3 on, so some orderings of a term drop out
        vhat = lambda q: max(0.0, 1.0 - abs(q) / 3.0)
        basis = FockBasis(n_modes, n_particles, L)
        args = (basis, Dispersion.relativistic(1.0), 1.0, vhat, 0.5)
        h, ref = to_csr(build_hamiltonian(*args)), reference_hamiltonian(*args)
        assert_same_csr(h, termwise_build_hamiltonian(*args))
        assert h.nnz == ref.nnz
        assert np.max(np.abs((h - ref).data), initial=0.0) <= 1e-13 * np.max(np.abs(ref.data))
        mf = ModeMeanField(*args)
        gamma = reduced_density_1(slater_vector(basis, range(n_particles)), basis)
        ref_h = reference_mean_field(mf, reference_terms(basis, vhat, 0.5), gamma)
        assert np.max(np.abs(mf.mean_field(gamma) - ref_h)) <= 1e-13 * np.max(np.abs(ref_h))


class TestHamiltonian:
    def test_free_case_diagonal(self):
        basis = FockBasis(6, 2, L)
        disp = Dispersion.relativistic(1.0)
        eps = 0.5
        h = build_hamiltonian(basis, disp, eps, lambda q: 0.0)
        dense = to_csr(h).toarray()
        off = dense - np.diag(dense.diagonal())
        assert np.max(np.abs(off)) == 0.0
        sym = np.sqrt(eps**2 * basis.momenta**2 + 1.0)
        for i, subset in enumerate(basis.subsets):
            assert abs(dense[i, i].real - sum(sym[m] for m in subset)) <= 1e-12

    def test_hermitian(self):
        basis = FockBasis(8, 2, L)
        h = to_csr(build_hamiltonian(basis, Dispersion.relativistic(1.0), 0.5,
                                     gauss_vhat(), coupling=0.7)).toarray()
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_total_momentum_block_structure(self):
        basis = FockBasis(8, 2, L)
        h = to_csr(build_hamiltonian(basis, Dispersion.relativistic(1.0), 0.5,
                                     gauss_vhat(), coupling=0.7)).tocoo()
        for i, j, v in zip(h.row, h.col, h.data):
            if abs(v) > 1e-12:
                assert total_frequency(basis, i) == total_frequency(basis, j)

    @pytest.mark.parametrize("n_modes,n_particles", [(8, 2), (12, 4), (16, 5)])
    def test_sector_slices_and_blocks(self, n_modes, n_particles):
        basis = FockBasis(n_modes, n_particles, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 0.9, gauss_vhat(), 0.3)
        dense = to_csr(h).toarray()
        totals = [total_frequency(basis, i) for i in range(basis.size)]
        assert np.array_equal(np.sort(h.states), np.arange(basis.size))
        assert h.rows.dtype == h.cols.dtype == np.int32 and h.values.dtype == np.float64
        for k in range(h.n_sectors):
            states = h.sector_states(k)
            assert np.all(np.diff(states) > 0)
            assert {totals[i] for i in states} == {min(totals) + k}
            entries = slice(h.entry_bounds[k], h.entry_bounds[k + 1])
            assert {totals[i] for i in h.rows[entries]} <= {min(totals) + k}
            assert {totals[i] for i in h.cols[entries]} <= {min(totals) + k}
            block = h.block(k)
            assert block.dtype == np.float64
            assert np.array_equal(block, dense[np.ix_(states, states)].real)
        assert h.entry_bounds[-1] == h.nnz

    @pytest.mark.parametrize("n_modes,n_particles", [(8, 3), (16, 5)])
    def test_product_matches_csr(self, n_modes, n_particles):
        # a random vector occupies every sector, so `@` runs every block
        basis = FockBasis(n_modes, n_particles, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 0.9, gauss_vhat(), 0.3)
        v = random_state(basis, n_modes)
        assert len(h.occupied(v)) == h.n_sectors
        ref = to_csr(h) @ v
        assert np.max(np.abs(h @ v - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_fermi_sea_occupies_one_sector(self):
        basis = FockBasis(16, 5, L)
        disp = Dispersion.relativistic(1.0)
        h = build_hamiltonian(basis, disp, 1.0, gauss_vhat(), 0.2)
        occupied = h.occupied(slater_vector(basis, fermi_sea_modes(basis, disp, 1.0)))
        assert len(occupied) == 1
        assert len(h.sector_states(occupied[0])) == 184
        assert basis.size == 4368


class TestSlaterVector:
    def test_unit_and_orthogonal(self):
        basis = FockBasis(6, 3, L)
        v1 = slater_vector(basis, (0, 1, 2))
        v2 = slater_vector(basis, (0, 1, 3))
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-14
        assert abs(np.vdot(v1, v2)) == 0.0

    def test_reduced_density_is_projection(self):
        basis = FockBasis(6, 3, L)
        v = slater_vector(basis, (0, 2, 4))
        gamma = reduced_density_1(v, basis)
        expected = np.zeros((6, 6))
        expected[0, 0] = expected[2, 2] = expected[4, 4] = 1.0
        assert np.max(np.abs(gamma - expected)) <= 1e-14

    def test_wrong_size_rejected(self):
        basis = FockBasis(6, 3, L)
        with pytest.raises(ValueError):
            slater_vector(basis, (0, 1))


class TestReducedDensity:
    def test_superposition_half_occupations(self):
        basis = FockBasis(6, 2, L)
        v = (slater_vector(basis, (0, 1)) + slater_vector(basis, (0, 2))) / np.sqrt(2.0)
        gamma = reduced_density_1(v, basis)
        assert abs(gamma[0, 0] - 1.0) <= 1e-14
        assert abs(gamma[1, 1] - 0.5) <= 1e-14
        assert abs(gamma[2, 2] - 0.5) <= 1e-14
        # hand computation: <a†_2 a_1> moves mode 1 -> 2, sign +1 through mode 0
        assert abs(gamma[1, 2] - 0.5) <= 1e-14

    def test_trace_rule_random_vectors(self):
        basis = FockBasis(7, 3, L)
        rng = np.random.default_rng(90)
        for _ in range(3):
            v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            v /= np.linalg.norm(v)
            gamma = reduced_density_1(v, basis)
            assert abs(np.trace(gamma).real - 3.0) <= 1e-10
            assert np.max(np.abs(gamma - gamma.conj().T)) <= 1e-12
            evals = np.linalg.eigvalsh(gamma)
            assert evals.min() >= -1e-10
            assert evals.max() <= 1.0 + 1e-10


class TestAnnihilationDensity:
    """γ = ΦΦ^† from the annihilation table against the per-pair loop it replaced."""

    @pytest.mark.parametrize("n_modes,n_particles", SIZES + [(20, 6)])
    def test_matches_pairwise_loop(self, n_modes, n_particles):
        basis = FockBasis(n_modes, n_particles, L)
        v = random_state(basis, n_modes * 10 + n_particles)
        ref = pairwise_reduced_density_1(v, basis)
        gamma = reduced_density_1(v, basis)
        assert np.max(np.abs(gamma - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_modes,n_particles", [(8, 3), (12, 5), (16, 4)])
    def test_exactly_hermitian_with_real_diagonal(self, n_modes, n_particles):
        basis = FockBasis(n_modes, n_particles, L)
        gamma = reduced_density_1(random_state(basis, 7), basis)
        assert np.array_equal(gamma, gamma.conj().T)
        assert np.all(gamma.diagonal().imag == 0.0)

    def test_single_particle_is_outer_product(self):
        # N=1: Φ has one column (the vacuum) and γ[p, q] = ψ(p) conj(ψ(q))
        basis = FockBasis(7, 1, L)
        assert basis.annihilation_table[3] == 1
        v = random_state(basis, 3)
        gamma = reduced_density_1(v, basis)
        assert np.max(np.abs(gamma - np.outer(v, v.conj()))) <= 1e-15

    def test_filled_mode_set(self):
        # N=M: the one state occupies every mode, γ = |ψ|² times the identity
        basis = FockBasis(6, 6, L)
        v = np.array([0.6 - 0.8j])
        assert np.array_equal(reduced_density_1(v, basis), np.eye(6))
        assert np.array_equal(pairwise_reduced_density_1(v, basis), np.eye(6))

    def test_zero_vector(self):
        basis = FockBasis(8, 3, L)
        gamma = reduced_density_1(np.zeros(basis.size), basis)
        assert gamma.shape == (8, 8)
        assert not np.any(gamma)

    def test_table_built_once_and_only_when_used(self):
        basis = FockBasis(10, 3, L)
        build_hamiltonian(basis, Dispersion.relativistic(1.0), 1.0, gauss_vhat(), 0.3)
        assert "annihilation_table" not in vars(basis)
        v = random_state(basis, 5)
        first = reduced_density_1(v, basis)
        table = vars(basis)["annihilation_table"]
        assert np.array_equal(reduced_density_1(v, basis), first)
        assert basis.annihilation_table is table
        target, state, odd, n_cols = table
        assert target.dtype == state.dtype == np.int32 and odd.dtype == bool
        assert len(target) == basis.size * basis.n_particles
        assert n_cols == 45  # C(10, 2)
        assert len(np.unique(target)) == len(target)


class TestEvolveExact:
    def test_free_evolution_preserves_occupation(self):
        basis = FockBasis(8, 2, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 0.5, lambda q: 0.0)
        v0 = slater_vector(basis, (0, 1))
        v1 = evolve_exact(v0, h, 1.0, 0.5)
        g0 = reduced_density_1(v0, basis)
        g1 = reduced_density_1(v1, basis)
        assert np.max(np.abs(g1 - g0)) <= 1e-12

    def test_unitarity_and_energy(self):
        basis = FockBasis(10, 2, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 1.0,
                              gauss_vhat(), coupling=0.2)
        v0 = slater_vector(basis, fermi_sea_modes(basis, Dispersion.relativistic(1.0), 1.0))
        v1 = evolve_exact(v0, h, 1.0, 1.0)
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-9
        e0 = np.vdot(v0, h @ v0).real
        e1 = np.vdot(v1, h @ v1).real
        assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))

    def test_matches_dense_expm(self):
        basis = FockBasis(6, 2, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 1.0,
                              gauss_vhat(), coupling=0.5)
        v0 = slater_vector(basis, (0, 1))
        ref = scipy.linalg.expm(-1j * 0.8 * to_csr(h).toarray()) @ v0
        out = evolve_exact(v0, h, 0.8, 1.0)
        assert np.max(np.abs(out - ref)) <= 1e-9

    def test_several_sectors_match_dense_expm(self):
        # a random vector on three sectors: one solve per sector, the rest stays 0
        basis = FockBasis(8, 3, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 1.0,
                              gauss_vhat(), coupling=0.5)
        held = np.concatenate([h.sector_states(k) for k in (2, 5, 6)])
        v0 = np.zeros(basis.size, dtype=complex)
        v0[held] = random_state(basis, 11)[held]
        v0 /= np.linalg.norm(v0)
        assert len(h.occupied(v0)) == 3
        ref = scipy.linalg.expm(-1j * 0.8 * to_csr(h).toarray()) @ v0
        out = evolve_exact(v0, h, 0.8, 1.0)
        assert np.max(np.abs(out - ref)) <= 1e-9
        outside = np.setdiff1d(np.arange(basis.size), held)
        assert np.all(out[outside] == 0.0)
        assert np.all((h @ v0)[outside] == 0.0)


class TestModeEvolutionStepCount:
    def _evolve(self, t_final, dt):
        basis = FockBasis(6, 2, L)
        disp = Dispersion.relativistic(1.0)
        modes = fermi_sea_modes(basis, disp, 1.0)
        return hf_mode_evolution(basis, disp, 1.0, gauss_vhat(), 0.2, modes, t_final, dt,
                                 sample_every=5)

    def test_span_not_a_multiple_of_dt_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            self._evolve(1.0, 0.03)

    @pytest.mark.parametrize("t_final, dt, n_steps",
                             [(1.0, 0.02, 50), (0.3, 0.0025, 120), (1.0, 0.01, 100)])
    def test_spans_in_use_run(self, t_final, dt, n_steps):
        times, gammas = self._evolve(t_final, dt)
        assert len(times) == len(gammas) == n_steps // 5 + 1
        assert times[-1] == n_steps * dt
        assert abs(times[-1] - t_final) <= 1e-12


class TestLowdinRepair:
    def test_matches_svd_polar_factor(self):
        # orthonormal ED orbital rows, skewed off orthonormality
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)))
        skew = np.eye(5) + 0.2 * (rng.standard_normal((5, 5))
                                  + 1j * rng.standard_normal((5, 5)))
        rows = skew @ q.T
        assert np.linalg.cond(rows) > 1.5
        repaired = _lowdin(rows, 1.0)
        assert np.max(np.abs(repaired - svd_polar_factor(rows))) <= 1e-13
        assert np.max(np.abs(repaired.conj() @ repaired.T - np.eye(5))) <= 1e-13


class TestMeanFieldGap:
    def test_zero_at_t0_and_free(self):
        basis = FockBasis(8, 2, L)
        disp = Dispersion.relativistic(1.0)
        eps = 1.0
        modes = fermi_sea_modes(basis, disp, eps)
        h = build_hamiltonian(basis, disp, eps, lambda q: 0.0)
        times = np.linspace(0.0, 1.0, 5)
        gammas = [reduced_density_1(evolve_exact(slater_vector(basis, modes), h, t, eps),
                                    basis) for t in times]
        hf_times, hf_gammas = hf_mode_evolution(basis, disp, eps, lambda q: 0.0, 0.0,
                                                modes, 1.0, 0.25)
        assert np.allclose(hf_times, times)
        gaps = mean_field_gap(gammas, hf_gammas)
        assert np.max(gaps) <= 1e-12

    def test_single_particle_hf_exact(self):
        # at N=1 the interaction annihilates the sector and the mean-field
        # direct and exchange terms cancel identically
        basis = FockBasis(8, 1, L)
        disp = Dispersion.relativistic(1.0)
        eps = 1.0
        vh = gauss_vhat()
        h = build_hamiltonian(basis, disp, eps, vh, coupling=0.5)
        modes = (0,)
        v0 = slater_vector(basis, modes)
        # superpose two modes so the evolution is nontrivial
        v0 = (v0 + slater_vector(basis, (1,))) / np.sqrt(2.0)
        gamma0 = reduced_density_1(v0, basis)
        t = 1.0
        gamma_ed = reduced_density_1(evolve_exact(v0, h, t, eps), basis)

        mf = ModeMeanField(basis, disp, eps, vh, 0.5)
        orb = np.zeros((1, 8), dtype=complex)
        orb[0, 0] = orb[0, 1] = 1.0 / np.sqrt(2.0)
        n_steps = 1000
        for _ in range(n_steps):
            orb = mf.step(orb, t / n_steps)
        gamma_hf = orb.T @ orb.conj()
        assert np.max(np.abs(gamma_ed - gamma_hf)) <= 1e-9

    def test_weak_coupling_gap_bounded(self):
        basis = FockBasis(10, 2, L)
        disp = Dispersion.relativistic(1.0)
        eps = 1.0
        vh = gauss_vhat()
        coupling = 0.2
        modes = fermi_sea_modes(basis, disp, eps)
        h = build_hamiltonian(basis, disp, eps, vh, coupling=coupling)
        dt, t_final = 0.02, 0.5
        times = np.arange(0.0, t_final + dt / 2, 5 * dt)
        psi = slater_vector(basis, modes)
        gammas = [reduced_density_1(psi, basis)]
        for k in range(1, len(times)):
            psi = evolve_exact(psi, h, times[k] - times[k - 1], eps)
            gammas.append(reduced_density_1(psi, basis))
        hf_times, hf_gammas = hf_mode_evolution(basis, disp, eps, vh, coupling, modes,
                                                t_final, dt, sample_every=5)
        assert np.allclose(hf_times, times)
        gaps = mean_field_gap(gammas, hf_gammas)
        assert gaps[0] == 0.0
        assert np.max(gaps) <= 0.5

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            mean_field_gap([np.eye(4)], [np.eye(5)])

    def test_instance_dump(self, tmp_path):
        import json

        basis = FockBasis(6, 2, L)
        h = build_hamiltonian(basis, Dispersion.relativistic(1.0), 0.5,
                              gauss_vhat(), coupling=0.3)
        path = tmp_path / "instance.json"
        dump_instance(path, basis, h)
        data = json.loads(path.read_text())
        assert data["n_modes"] == 6
        assert len(data["states"]) == 15
        assert len(data["hamiltonian"]["rows"]) == h.nnz
        with pytest.raises(ValueError):
            dump_instance(path, FockBasis(16, 8, L))


def oracle_gaps(n_modes, n_part, eps, coupling):
    """Gap series tr|γ(t) - ω(t)|²_HS of a Fermi-sea start to t=1, sampled every 0.1.

    The mean-field leg steps dt=0.02; asserts that the exact leg keeps its
    norm and energy to 1e-9.
    """
    dt, t_final, sample_every = 0.02, 1.0, 5
    disp = Dispersion.relativistic(1.0)
    vh = gauss_vhat()
    basis = FockBasis(n_modes, n_part, L)
    modes = fermi_sea_modes(basis, disp, eps)
    h = build_hamiltonian(basis, disp, eps, vh, coupling=coupling)
    psi = slater_vector(basis, modes)
    e0 = np.vdot(psi, h @ psi).real
    gammas = [reduced_density_1(psi, basis)]
    step_t = dt * sample_every
    for _ in range(int(round(t_final / step_t))):
        psi = evolve_exact(psi, h, step_t, eps)
        gammas.append(reduced_density_1(psi, basis))
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9
    assert abs(np.vdot(psi, h @ psi).real - e0) <= 1e-9 * max(1.0, abs(e0))
    _, hf_gammas = hf_mode_evolution(basis, disp, eps, vh, coupling, modes,
                                     t_final, dt, sample_every=sample_every)
    return mean_field_gap(gammas, hf_gammas)


class TestExtendedOracle:
    def test_gap_bounded_over_particle_numbers(self):
        # criterion 8's gap series on 16 modes at N = 2..5: the mean-field gap
        # must not grow with N beyond its N=2 value
        max_gap = {}
        for n_part in (2, 3, 4, 5):
            gaps = oracle_gaps(16, n_part, eps=1.0, coupling=0.2)
            assert gaps[0] == 0.0
            assert np.max(gaps) <= 0.5
            max_gap[n_part] = np.max(gaps)
        for n_part, gap in max_gap.items():
            assert gap / max_gap[2] <= 1.5, max_gap

    def test_resolved_gap_falls_with_particle_number(self):
        # at coupling 2, ε=0.25 the gaps are 1e-3 to 1e-2, far above rounding;
        # M=18 and M=20 agree, so mode truncation does not set the N trend
        n_parts = np.arange(2, 8)
        max_gap = {m: np.array([np.max(oracle_gaps(m, n, eps=0.25, coupling=2.0))
                                for n in n_parts]) for m in (18, 20)}
        for gaps in max_gap.values():
            assert np.all(np.diff(gaps) <= 0.0), gaps
        assert np.max(np.abs(max_gap[18] - max_gap[20]) / max_gap[20]) <= 1e-4
        exponent = np.polyfit(np.log(n_parts), np.log(max_gap[20]), 1)[0]
        print("resolved gap, M=20, N=2..7: "
              + ", ".join(f"{g:.4e}" for g in max_gap[20])
              + f"; fitted exponent {exponent:.2f}")


class TestHfModeEnergy:
    def test_energy_conserved(self):
        basis = FockBasis(8, 2, L)
        disp = Dispersion.relativistic(1.0)
        mf = ModeMeanField(basis, disp, 1.0, gauss_vhat(), 0.4)
        orb = np.zeros((2, 8), dtype=complex)
        orb[0, 0] = 1.0
        orb[1, 1] = 1.0
        e0 = mf.energy(mf.gamma_of(orb))
        for _ in range(200):
            orb = mf.step(orb, 0.005)
        e1 = mf.energy(mf.gamma_of(orb))
        assert abs(e1 - e0) <= 1e-8 * max(1.0, abs(e0))

    def test_mean_field_hermitian(self):
        basis = FockBasis(8, 3, L)
        mf = ModeMeanField(basis, Dispersion.relativistic(1.0), 1.0, gauss_vhat(), 0.7)
        rng = np.random.default_rng(91)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        gamma = a @ a.conj().T
        gamma /= np.trace(gamma).real / 3.0
        h = mf.mean_field(gamma)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


class TestModeExponential:
    """The spectral step of ModeMeanField against the Padé exponential (expm).

    A plane-wave Fermi sea keeps h diagonal to rounding; superposed modes
    make it dense, the case criterion 8 never reaches.
    """

    dt = 0.05

    @pytest.fixture
    def case(self):
        basis = FockBasis(16, 3, L)
        mf = ModeMeanField(basis, Dispersion.relativistic(1.0), 0.5, gauss_vhat(), 4.0)
        rng = np.random.default_rng(97)
        q, _ = np.linalg.qr(rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3)))
        orbitals = q.T.copy()
        h = mf.mean_field(mf.gamma_of(orbitals))
        assert np.max(np.abs(h - np.diag(h.diagonal()))) > 1e-2
        return mf, orbitals, h

    def test_step_matches_expm(self, case):
        mf, orbitals, _ = case
        eps = mf.epsilon
        ref = _exponential_midpoint(
            orbitals, lambda rows: mf.mean_field(mf.gamma_of(rows)),
            lambda h, phi, tau: phi @ scipy.linalg.expm(-1j * tau * h / eps).T, self.dt)
        assert np.max(np.abs(mf.step(orbitals, self.dt) - ref)) <= 1e-13

    def test_steps_match_sparse_interaction(self, case):
        # the dense interaction against the sparse form it replaced, along 20
        # steps from a determinant that is not a plane wave
        mf, orbitals, _ = case
        sparse = sparse_interaction(mf.basis, mf.vhat, mf.coupling)
        assert np.max(np.abs(mf.interaction - sparse.toarray())) <= 1e-13
        m, eps = mf.basis.n_modes, mf.epsilon

        def sparse_mean_field(rows):
            return np.diag(mf.kinetic) + (sparse @ mf.gamma_of(rows).ravel()).reshape(m, m)

        dense_rows, sparse_rows = orbitals, orbitals
        for _ in range(20):
            dense_rows = mf.step(dense_rows, self.dt)
            sparse_rows = _exponential_midpoint(
                sparse_rows, sparse_mean_field,
                lambda h, phi, tau: phi @ _hermitian_exponential(h, tau / eps).T, self.dt)
            h = mf.mean_field(mf.gamma_of(dense_rows))
            assert np.max(np.abs(h - sparse_mean_field(dense_rows))) <= 1e-13
            assert np.max(np.abs(dense_rows - sparse_rows)) <= 1e-13
        assert np.max(np.abs(h - np.diag(h.diagonal()))) > 1e-2

    def test_propagator_unitary(self, case):
        mf, _, h = case
        u = _hermitian_exponential(h, self.dt / mf.epsilon)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-14
        assert np.max(np.abs(u - scipy.linalg.expm(-1j * self.dt * h / mf.epsilon))) <= 1e-13


class TestImports:
    def test_ed_pass_loads_no_numpy_ma(self):
        # a fresh interpreter: np.unique loads numpy.ma on its first call, and
        # this suite's own imports would hide that load
        code = ("import sys\n"
                "import numpy as np\n"
                "from rhflab.ed import FockBasis, reduced_density_1\n"
                "loaded = 'numpy.ma' in sys.modules\n"
                "basis = FockBasis(8, 3, 1.0)\n"
                "basis.annihilation_table\n"
                "reduced_density_1(np.ones(basis.size), basis)\n"
                "print(loaded, 'numpy.ma' in sys.modules)\n")
        src = str(Path(rhflab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["False", "False"]
