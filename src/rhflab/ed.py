"""Exact many-body evolution of a few fermions on a small plane-wave mode set.

Momentum-space second quantization: the kinetic part is diagonal in the
occupation basis, the translation-invariant interaction is

    (2N)^{-1} Σ_{p,p',q} V̂(q)/L · a†_{p+q} a†_{p'-q} a_{p'} a_p

with terms leaving the retained mode set dropped (the model Hamiltonian is
exact for both legs of the comparison).  The mean-field reference evolution
runs natively in the same mode space from the identical coefficients, so the
gap series tr|γ(t) - ω(t)|²_HS carries no discretization mismatch.

The mean-field leg runs on propagate's time loop and midpoint stepper, with
the spectral exponential of the Hermitian M×M mean field (one eigh: h = VλV†,
e^{-iτh/ε} = V e^{-iτλ/ε} V†, unitary to rounding) and, as repair, the
Löwdin kernel of the grid propagator (`orbitals._lowdin`) on the orbital
rows at weight 1, which is their polar factor.

ε is an independent dial here (never tied to a particle-number rule): the
joint semiclassical scaling is out of reach at 2-3 particles, so N-scans and
ε-scans are run separately.

FockBasis tables, built once: int64 occupation masks in lexicographic subset
order (bit m = mode m), the occupations occupied[m, i] and the int8 prefix
counts below[m, i], the number of occupied modes below m in state i.  Each
operator on mode m, applied right to left, gives (-1)^(occupied modes below m),
so from state i's own counts a†_q a_p gives (-1)^(below[p,i] + below[q,i] +
[p<q]), and a†_c a†_d a_b a_a with a<b, c<d gives (-1)^(below[a,i] +
below[b,i] + below[c,i] + below[d,i] + 1 + [a<c] + [a<d] + [b<c] + [b<d]),
the brackets correcting for the modes already moved.  No state lookup is
needed: two equal-size subsets compare as their smallest differing element,
so R ∪ S -> R ∪ S' (R disjoint from S and S') preserves the order, and the
states holding S but not S' map in enumeration order onto those holding S'
but not S.

The Hamiltonian comes from a held-pair table, made per build: one row per
mode pair a < b listing, ascending, the states holding both.  Each pair is
held by exactly C(M-2, N-2) states, so the table is rectangular, and each
state holds C(N, 2) pairs, so it has D·C(N, 2) entries.  A term a†_c a†_d a_b
a_a with {c, d} disjoint from {a, b} takes as sources the entries of row
(a, b) whose masks have c and d empty, and as targets the entries of row
(c, d) whose masks have a and b empty.  These are R ∪ {a, b} and R ∪ {c, d}
over the same (N-2)-subsets R of the other modes, each list ascending, so by
the order argument above (S = {a, b}, S' = {c, d}) the k-th source maps onto
the k-th target.  With low_m = 2^m - 1, below[m, i] = popcount(mask_i &
low_m), and popcount(x & A) + popcount(x & B) has the parity of popcount(x &
(A ^ B)); so the term's sign is the parity of popcount(mask_i & (low_a ^ low_b
^ low_c ^ low_d)) plus the bracket constant above, from the source masks the
selection has already read.  The terms run in chunks, so the (terms × held
states) work arrays hold at most CHUNK entries whatever the basis size.

The Hamiltonian conserves the total frequency Σf of the occupied modes, as an
integer: a term is kept only when f_d = f_a + f_b - f_c is itself a retained
frequency (terms leaving the mode set are dropped, nothing wraps around), so
f_a + f_b = f_c + f_d holds exactly and every entry joins two states of one
sector.  build_hamiltonian therefore orders its entries by the sector of
their row (ascending Σf, a stable sort, so the build order holds within a
sector): each sector is one contiguous slice, and its dense real block is one
scatter of that slice.  H applies to a vector in one form: sector by
sector over the sectors the vector occupies, each block as one real product
(`_block_apply`).  `@` makes one such pass, and evolve_exact runs one
Krylov solve per occupied sector on that product; a Fermi-sea determinant
occupies one sector (184 of the 4368 states at M=16, N=5).

The one-body density comes from the annihilation table, built once per basis
on first use.  a_p on a state S holding p gives (-1)^below[p, S] |S ∖ {p}>,
so (a_p ψ)(S') = (-1)^below[p, S' ∪ {p}] ψ(S' ∪ {p}) for every (N-1)-subset
S' not holding p, and zero otherwise.  These amplitudes form the M × C(M, N-1)
matrix Φ[p, S'], and γ[p, q] = <a†_q a_p> = <a_q ψ, a_p ψ> makes γ = ΦΦ^†.
Each occupied pair (mode m, state i) contributes one entry: its column is the
rank of masks[i] ^ (1 << m) among the distinct (N-1)-masks (from an argsort
and a diff: np.unique loads numpy.ma on its first call), its sign the parity
of below[m, i].  The table holds these D·N entries as flat targets
m·C(M, N-1) + column, source states and parities, so a density is one
scatter and one matrix product, again without an N-state lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import comb

import numpy as np

from .grids import Dispersion
from .krylov import expm_apply_block
from .orbitals import _lowdin
from .propagate import Observer, _exponential_midpoint, _time_loop, step_count

__all__ = [
    "FockBasis",
    "SectorHamiltonian",
    "build_hamiltonian",
    "slater_vector",
    "evolve_exact",
    "reduced_density_1",
    "fermi_sea_modes",
    "hf_mode_evolution",
    "mean_field_gap",
    "BASIS_CAP",
]

BASIS_CAP = 1_000_000
# entries of the (terms × held states) work arrays of one build_hamiltonian chunk
CHUNK = 1 << 15
# int64 occupation masks, one bit per mode, the sign bit untouched
MAX_MODES = 62


class FockBasis:
    """N-particle occupation basis over M plane-wave modes (1D box of length L).

    Modes are indexed in FFT layout; states enumerate the N-subsets of mode
    indices in lexicographic order.
    """

    def __init__(self, n_modes: int, n_particles: int, box_length: float):
        if n_particles < 1 or n_particles > n_modes:
            raise ValueError("need 1 <= n_particles <= n_modes")
        if n_modes > MAX_MODES:
            raise ValueError(f"n_modes={n_modes} exceeds {MAX_MODES} (int64 occupation masks)")
        if comb(n_modes, n_particles) > BASIS_CAP:
            raise ValueError(f"basis size C({n_modes},{n_particles}) exceeds cap {BASIS_CAP}")
        self.n_modes = n_modes
        self.n_particles = n_particles
        self.box_length = float(box_length)
        self.freqs = np.fft.fftfreq(n_modes, d=1.0 / n_modes).astype(int)
        self.momenta = 2.0 * np.pi * self.freqs / box_length
        self.subsets = list(itertools.combinations(range(n_modes), n_particles))
        modes = np.array(self.subsets, dtype=np.int64)
        self.masks = np.bitwise_or.reduce(np.int64(1) << modes, axis=1)
        self.occupied = ((self.masks >> np.arange(n_modes)[:, None]) & 1).astype(bool)
        self.below = np.cumsum(self.occupied, axis=0, dtype=np.int8) - self.occupied

    @property
    def size(self) -> int:
        return len(self.subsets)

    @cached_property
    def annihilation_table(self) -> tuple:
        """(target, state, odd, n_cols) with Φ.flat[target] = (-1)^odd ψ[state].

        Φ is M × n_cols with n_cols = C(M, N-1) (module docstring).  Under
        BASIS_CAP every flat target stays below 2^31.
        """
        mode, state = np.nonzero(self.occupied)
        rest = self.masks[state] ^ (np.int64(1) << mode)
        order = np.argsort(rest, kind="stable")
        ranked = rest[order]
        column = np.empty(len(rest), dtype=np.int64)
        column[order] = np.cumsum(np.diff(ranked, prepend=ranked[0]) != 0)
        n_cols = int(column[order[-1]]) + 1
        target = (mode * n_cols + column).astype(np.int32)
        odd = (self.below[mode, state] & 1).astype(bool)
        return target, state.astype(np.int32), odd, n_cols


def _interaction_table(basis: FockBasis, vhat, coupling: float):
    """(partner, coef) over [a, b, c] for the terms coef·a†_c a†_d a_b a_a.

    partner[a, b, c] is the mode d with f_a + f_b = f_c + f_d, or -1 when d is
    not retained, a == b or c == d; coef is 0 wherever partner is -1.
    """
    m = basis.n_modes
    f = basis.freqs
    modes = np.arange(m)
    fd = f[:, None, None] + f[None, :, None] - f[None, None, :]
    d = fd % m  # FFT layout: frequency f sits at mode f mod M
    retained = ((fd >= f.min()) & (fd <= f.max())
                & (modes[:, None, None] != modes[None, :, None]) & (d != modes))
    partner = np.where(retained, d, -1)
    prefactor = coupling / (2.0 * basis.n_particles * basis.box_length)
    q = basis.momenta[None, :] - basis.momenta[:, None]
    vq = np.array([[float(vhat(abs(x))) for x in row] for row in q])
    coef = np.where(retained, prefactor * vq[:, None, :], 0.0)
    return partner, coef


def _held_pairs(basis: FockBasis) -> tuple:
    """(pair, held): pair[a, b] is the row of the mode pair a < b (-1 elsewhere),
    held[row] the C(M-2, N-2) states holding that pair, ascending."""
    m, n = basis.n_modes, basis.n_particles
    first, second = np.triu_indices(m, 1)
    pair = np.full((m, m), -1, dtype=np.intp)
    pair[first, second] = np.arange(len(first))
    occ = basis.occupied
    held = np.empty((len(first), comb(m - 2, n - 2) if n >= 2 else 0), dtype=np.int32)
    for row, (p, q) in enumerate(zip(first, second)):
        held[row] = np.flatnonzero(occ[p] & occ[q])
    return pair, held


def _parity(x: np.ndarray, n_bits: int) -> np.ndarray:
    """Parity of the set bits of each x < 2^n_bits (x is overwritten)."""
    shift = 1 << (n_bits - 1).bit_length()
    while shift > 1:
        shift //= 2
        x ^= x >> shift
    return x & 1


def _held_without(rows: np.ndarray, held: np.ndarray, held_masks: np.ndarray,
                  bits: np.ndarray) -> tuple:
    """The states of held[rows[k]] with bits[k] empty, row by row, and their masks."""
    masks = held_masks[rows]
    keep = (masks & bits[:, None]) == 0
    return held[rows][keep], masks[keep]


def _bounds(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Slice bounds of the keys 0..n_keys-1 in a stable sort of keys."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_keys))))


def _block_apply(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The real block applied to each complex row, read as a (size, 2) real
    matrix of (re, im) pairs: one real product, no complex copy of the block."""
    pairs = rows.view(float).reshape(len(rows), -1, 2)
    return np.matmul(block, pairs).view(complex)[..., 0]


class SectorHamiltonian:
    """The Hamiltonian's nonzero entries, real, grouped by total-frequency sector.

    rows and cols (int32 state indices) and values (float64) hold each entry
    once; sector[i] is the sector of state i, its total frequency Σf less the
    least in the basis (every value between occurs).  The entries of sector k
    are the slice entry_bounds[k]:entry_bounds[k + 1], its states, ascending,
    those of sector_states(k) (module docstring).  `@` applies H to a whole
    vector through the blocks of its occupied sectors; `block(k)` is the
    dense real block of sector k, rebuilt on each call.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                 sector: np.ndarray):
        # sector holds small ints: their stable argsort is a radix sort
        self.sector = sector
        self.n_sectors = int(sector.max()) + 1
        self.shape = (len(sector),) * 2
        self.states = np.argsort(sector, kind="stable")
        self.state_bounds = _bounds(sector, self.n_sectors)
        # the position of each state among the states of its sector
        self.local = np.empty(len(sector), dtype=np.intp)
        self.local[self.states] = np.arange(len(sector)) - self.state_bounds[sector[self.states]]
        row_sector = sector[rows]
        order = np.argsort(row_sector, kind="stable")
        self.rows, self.cols, self.values = rows[order], cols[order], values[order]
        self.entry_bounds = _bounds(row_sector, self.n_sectors)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def sector_states(self, k: int) -> np.ndarray:
        return self.states[self.state_bounds[k]:self.state_bounds[k + 1]]

    def occupied(self, vector: np.ndarray) -> np.ndarray:
        """The sectors in which vector has a nonzero amplitude, ascending."""
        held = np.bincount(self.sector[np.flatnonzero(vector)], minlength=self.n_sectors)
        return np.flatnonzero(held)

    def block(self, k: int) -> np.ndarray:
        """The dense real block of sector k over sector_states(k)."""
        size = self.state_bounds[k + 1] - self.state_bounds[k]
        entries = slice(self.entry_bounds[k], self.entry_bounds[k + 1])
        out = np.zeros((size, size))
        out[self.local[self.rows[entries]], self.local[self.cols[entries]]] = self.values[entries]
        return out

    def dot(self, vector: np.ndarray) -> np.ndarray:
        """H·vector, complex, run on the occupied sectors only (the others stay 0).

        Each occupied sector's block applies as in `evolve_exact` (`_block_apply`).
        """
        vector = np.asarray(vector, dtype=complex)
        out = np.zeros(self.shape[0], dtype=complex)
        for k in self.occupied(vector):
            states = self.sector_states(k)
            out[states] = _block_apply(self.block(k), vector[states][None, :])[0]
        return out

    __matmul__ = dot


def build_hamiltonian(basis: FockBasis, dispersion: Dispersion, epsilon: float,
                      vhat, coupling: float = 1.0) -> SectorHamiltonian:
    """Hamiltonian on the N-particle sector, its entries grouped by sector.

    vhat maps |q| -> V̂(q) (real, even); the kinetic symbol is evaluated at
    ε·|p| per mode.  The four orderings of each term are summed onto a < b,
    c < d.  A term with (c, d) = (a, b) adds to the diagonal of the states
    holding a and b, pair by pair in lexicographic order.  Every other term
    has {c, d} disjoint from {a, b} (f_a + f_b = f_c + f_d, so c = a forces
    d = b) and moves the states holding a and b with c, d empty onto those
    holding c and d with a, b empty, the k-th source onto the k-th target,
    with the sign parity(mask & (low_a ^ low_b ^ low_c ^ low_d)) plus the
    bracket constant (module docstring).  Both lists are read from the
    held-pair table (D·C(N, 2) entries, made per call), a chunk of terms at
    a time, so the work arrays hold at most CHUNK entries.  No two terms
    reach the same entry, so the entries are fixed by the terms alone; they
    are ordered by the total frequency of their row (module docstring).
    """
    m, n = basis.n_modes, basis.n_particles
    sym = dispersion.symbol_values(epsilon * np.abs(basis.momenta))
    partner, coef = _interaction_table(basis, vhat, coupling)
    modes = np.arange(m)
    a, b, c = np.nonzero((partner > modes) & (modes[:, None, None] < modes[None, :, None]))
    d = partner[a, b, c]
    # summed in the order the four orderings are enumerated
    w = ((coef[a, b, c] - coef[a, b, d]) - coef[b, a, c]) + coef[b, a, d]
    pair, held = _held_pairs(basis)
    diagonal = sym @ basis.occupied
    for row, weight in zip(pair[a[c == a], b[c == a]], w[c == a]):
        diagonal[held[row]] += weight
    # zero diagonal entries are left out; the moved terms below have w != 0
    states = np.flatnonzero(diagonal).astype(np.int32)
    rows, cols, vals = [states], [states], [diagonal[states]]
    moved = (c != a) & (w != 0.0)
    n_moved = comb(m - 4, n - 2) if m >= 4 and n >= 2 else 0
    if n_moved:
        a, b, c, d, w = (x[moved] for x in (a, b, c, d, w))
        # masks below 2^31 are read as int32: half the memory traffic
        dtype = np.int32 if m < 32 else np.int64
        bit = (np.int64(1) << modes).astype(dtype)
        held_masks = basis.masks.astype(dtype)[held]
        source, target = pair[a, b], pair[c, d]
        # below[m, i] = popcount(mask_i & (bit_m - 1)); only its parity enters
        flip = (bit[a] - 1) ^ (bit[b] - 1) ^ (bit[c] - 1) ^ (bit[d] - 1)
        odd_bracket = ((1 + (a < c) + (a < d) + (b < c) + (b < d)) & 1).astype(dtype)
        step = max(1, CHUNK // held.shape[1])
        for t in (slice(lo, lo + step) for lo in range(0, len(w), step)):
            src, src_masks = _held_without(source[t], held, held_masks, bit[c[t]] | bit[d[t]])
            # the targets, in the order of their sources (module docstring)
            dst, _ = _held_without(target[t], held, held_masks, bit[a[t]] | bit[b[t]])
            odd = _parity(src_masks.reshape(-1, n_moved) & flip[t, None], m)
            odd ^= odd_bracket[t, None]
            rows.append(dst)
            cols.append(src)
            vals.append(np.where(odd, -w[t, None], w[t, None]).ravel())
    # the pieces are let go before the sort
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    total = basis.freqs @ basis.occupied
    return SectorHamiltonian(rows, cols, vals, (total - total.min()).astype(np.int16))


def slater_vector(basis: FockBasis, mode_subset) -> np.ndarray:
    """Unit amplitude on the determinant occupying the given mode indices."""
    subset = tuple(sorted(int(m) for m in mode_subset))
    if len(subset) != basis.n_particles or len(set(subset)) != len(subset):
        raise ValueError(f"mode subset must contain {basis.n_particles} distinct modes")
    if subset[0] < 0 or subset[-1] >= basis.n_modes:
        raise ValueError("mode subset outside the basis")
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.masks == sum(1 << m for m in subset)] = 1.0
    return vec


def fermi_sea_modes(basis: FockBasis, dispersion: Dispersion, epsilon: float) -> tuple:
    """The N lowest-symbol modes, ties broken by dual-grid (FFT-layout) order."""
    sym = dispersion.symbol_values(epsilon * np.abs(basis.momenta))
    ranked = sorted(range(basis.n_modes), key=lambda m: (sym[m], m))
    return tuple(sorted(ranked[: basis.n_particles]))


def evolve_exact(vector: np.ndarray, hamiltonian: SectorHamiltonian, t: float,
                 epsilon: float, tol: float = 1e-10) -> np.ndarray:
    """e^{-i H t / ε} vector by adaptive Lanczos; unitary to the tolerance.

    One solve per sector the vector occupies, on that sector's dense real
    block; amplitudes outside those sectors stay exactly 0.
    """
    vector = np.asarray(vector, dtype=complex)
    out = np.zeros_like(vector)
    for k in hamiltonian.occupied(vector):
        states = hamiltonian.sector_states(k)
        out[states] = expm_apply_block(partial(_block_apply, hamiltonian.block(k)),
                                       vector[states][None, :], t / epsilon,
                                       weight=1.0, tol=tol)[0]
    return out


def reduced_density_1(vector: np.ndarray, basis: FockBasis) -> np.ndarray:
    """One-particle reduced density γ[p, q] = <a†_q a_p>; Hermitian, tr = N.

    γ = ΦΦ^† with Φ[p, S'] = (a_p ψ)(S') scattered from the basis's
    annihilation table (module docstring); the strict upper triangle of the
    product is mirrored and the diagonal taken real, so γ is exactly Hermitian.
    """
    target, state, odd, n_cols = basis.annihilation_table
    amplitudes = np.asarray(vector, dtype=complex)[state]
    np.negative(amplitudes, out=amplitudes, where=odd)
    phi = np.zeros((basis.n_modes, n_cols), dtype=complex)
    phi.ravel()[target] = amplitudes
    product = phi @ phi.conj().T
    upper = np.triu(product, 1)
    return upper + upper.conj().T + np.diag(product.diagonal().real)


def _hermitian_exponential(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-i t h} for Hermitian h from one eigh: V e^{-i t λ} V†."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * lam)) @ v.conj().T


@dataclass
class ModeMeanField:
    """Dense mean-field machinery on the mode set (the HF comparison leg).

    `interaction` is the real dense M²×M² matrix taking γ.ravel() to the
    direct-minus-exchange part of h(γ).ravel(), applied to the (re, im) pairs
    of γ; `energy` uses the same matrix.
    """

    basis: FockBasis
    dispersion: Dispersion
    epsilon: float
    vhat: object
    coupling: float = 1.0
    interaction: np.ndarray = field(init=False)
    kinetic: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.basis.n_modes
        partner, coef = _interaction_table(self.basis, self.vhat, self.coupling)
        a, b, c = np.nonzero(coef)
        d = partner[a, b, c]
        w = coef[a, b, c]
        # h[c,a] += w γ[b,d];  h[d,b] += w γ[a,c];  h[c,b] -= w γ[a,d];  h[d,a] -= w γ[b,c]
        rows = np.concatenate([c * m + a, d * m + b, c * m + b, d * m + a])
        cols = np.concatenate([b * m + d, a * m + c, a * m + d, b * m + c])
        self.interaction = np.zeros((m * m, m * m))
        np.add.at(self.interaction, (rows, cols), np.concatenate([w, w, -w, -w]))
        self.kinetic = self.dispersion.symbol_values(
            self.epsilon * np.abs(self.basis.momenta)
        )

    def gamma_of(self, orbitals: np.ndarray) -> np.ndarray:
        return orbitals.T @ orbitals.conj()

    def _interact(self, gamma: np.ndarray) -> np.ndarray:
        """h_int(γ) as M²×1: the real interaction on the (re, im) pairs of γ.ravel()."""
        pairs = np.asarray(gamma, dtype=complex).reshape(-1, 1).view(float)
        return np.dot(self.interaction, pairs).view(complex)

    def mean_field(self, gamma: np.ndarray) -> np.ndarray:
        m = self.basis.n_modes
        h = self._interact(gamma).reshape(m, m)
        h.flat[::m + 1] += self.kinetic
        return h

    def energy(self, gamma: np.ndarray) -> float:
        """Σ kinetic·γ_pp + ½ tr(h_int(γ) γ), real part."""
        e = float(np.sum(self.kinetic * gamma.diagonal().real))
        return e + 0.5 * float(np.real(self._interact(gamma)[:, 0] @ gamma.T.ravel()))

    def step(self, orbitals: np.ndarray, dt: float) -> np.ndarray:
        """Exponential midpoint (the grid propagator's stepper), spectral exponential."""
        eps = self.epsilon
        return _exponential_midpoint(
            orbitals, lambda rows: self.mean_field(self.gamma_of(rows)),
            lambda h, phi, tau: phi @ _hermitian_exponential(h, tau / eps).T, dt,
        )


def hf_mode_evolution(basis: FockBasis, dispersion: Dispersion, epsilon: float,
                      vhat, coupling: float, initial_modes, t_final: float,
                      dt: float, sample_every: int = 1):
    """Mean-field evolution of a Fermi-sea determinant on the mode set.

    Returns (times, gammas): the sampled one-particle density matrices of the
    time-dependent mean-field state, aligned with evolve_exact sampling.
    Raises ValueError when t_final is not a whole number of steps dt.
    """
    mf = ModeMeanField(basis, dispersion, epsilon, vhat, coupling)
    orbitals = np.zeros((basis.n_particles, basis.n_modes), dtype=complex)
    for row, m in enumerate(sorted(initial_modes)):
        orbitals[row, m] = 1.0
    sample = Observer("gamma", sample_every, lambda rows: {"gamma": mf.gamma_of(rows)})
    series = _time_loop(orbitals, step_count(0.0, t_final, dt), 0.0, dt,
                        lambda rows, t: mf.step(rows, dt), partial(_lowdin, weight=1.0),
                        [sample]).series
    return np.asarray(series["gamma"].times), series["gamma"].channels["gamma"]


def mean_field_gap(gamma_series, hf_series) -> np.ndarray:
    """tr|γ(t) - ω(t)|²_HS per sample (squared Hilbert-Schmidt distance)."""
    if len(gamma_series) != len(hf_series):
        raise ValueError("series lengths differ")
    out = []
    for g, w in zip(gamma_series, hf_series):
        g = np.asarray(g)
        w = np.asarray(w)
        if g.shape != w.shape:
            raise ValueError("mode counts differ between the two legs")
        out.append(float(np.sum(np.abs(g - w) ** 2)))
    return np.asarray(out)
