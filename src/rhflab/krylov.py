"""Lanczos approximation of exp(-i·tau·H)v for Hermitian H, on a block of rows.

Every caller applies one H to all b rows of its (b, n) block: the dense Fock
matrix, the Hartree FFT closure, the pair-exchange closure, ed's sector
block (b = 1).  So the block is one vector of I_b ⊗ H, and a solve runs one
Lanczos recurrence on the flattened block: one α and one β per iteration,
one (m_max+1, b·n) basis, and one m×m eigensolve per check.  The three-term
step, the Gram-Schmidt projection and the final combination are single
BLAS products over the whole block.  There are no per-row recurrences (one
α, β, T_m and eigensolve per row), whose small-array bookkeeping cost more
than the matvecs on the Hartree flow: one polynomial p(H) serves every
row.  On the benchmark's three workloads a solve takes as many matvecs as
per-row solves (5.0, 5.5 and 5.75 per solve).

Tolerance: a solve stops once the weighted error estimate of the whole
block is at most tol × the RMS row norm.  For orthonormal orbitals that
bounds every orbital's error by tol, as per-row solves do; for ed's single
row it is the per-row tolerance itself.  Held as a whole, the block can
take one matvec more than per-row solves (released N = 4 blocks and 64²
at N = 8: 4.5 against 4 per solve).  The larger cost is on stationary
states: per-row solves have one Krylov space per eigenvector, invariant
after one matvec, where the block is a sum of N eigenvectors of distinct
energies and needs about as many matvecs as a moving state (a trapped HF
ground state at N = 32 takes 5.5-6 per solve instead of 3; the
propagation slice of `scripts/bench_trajectory.py --layers`).  Every
eigenvalue of I_b ⊗ H is b-fold, so once the Ritz values converge,
rounding seeds directions in the other copies that reorthogonalization
keeps: a solve that reaches m_max that way, short of its tolerance, is not
reproducible to rounding, and the substep halving rejects it.

Iteration m takes w = Hq_{m-1} through two reductions.  The three-term
step subtracts α q_{m-1} + β_{m-1} q_{m-2} as one product; one classical
Gram-Schmidt pass then projects the remainder onto the whole live basis.
A single projection of w itself is not enough: its coefficients carry
rounding of order u·‖Hq‖ (u the unit roundoff), so the new vector keeps an
overlap of about u·‖Hq‖/β with the basis, and the large coefficient α
times the overlaps already there feeds the next iteration's, so the loss
compounds by ‖Hq‖/β per iteration (the tests check
weight·max|Q^H Q - I| ≤ 1e-13, also on a stationary state).  After the
three-term step the remainder is of size β, so the projection's own
rounding is of order u·β and the overlaps stay of order u ("twice is
enough").  A β that is rounding, β ≤ 1e-14·(|α| + 1),
is a happy breakdown: the Krylov space is invariant to working precision,
so exp(-iτT_m) on it is exact and the solve returns with error 0.

The solve stops after m matvecs once the Hochbruck & Lubich estimate
err = β_0·|β_m · τ · [exp(-iτT_m)]_{m,1}| is at most its tolerance, T_m
the real symmetric tridiagonal of the α_k and β_1..β_{m-1} ≥ 0 and β_0
the block's weighted norm.  That entry needs an eigensolve of T_m, so it
runs only at an m where the solve can return.  The (m,1) entry of
(zI - T_m)^{-1} is Πβ_k/Π(z - λ_i), so [f(T_m)]_{m,1} = Πβ_k ·
f[λ_1..λ_m] (a divided difference), which the Hermite-Genocchi formula
writes as an integral of f^{(m-1)} over a simplex of volume 1/(m-1)!.
For f = exp(-iτ·) and any shift c,

    |[exp(-iτT_m)]_{m,1}| = τ^{m-1}·Πβ_k · |∫ exp(-iτ(<t, λ> - c)) dt|
                          ≥ τ^{m-1}·Πβ_k/(m-1)! · cos(x)   for x ≤ π,
    x = τ·(½(max α - min α) + 2·max β) ≥ τ·max|λ_i - c|,

c the midpoint of the α (Gershgorin).  Less the allowance
EIGH_ALLOWANCE·m·u·(1 + τ(max|α| + 2·max β) + the bound), u the unit
roundoff, this bounds the eigensolved entry from below through the
rounding of the eigensolve and of the bound itself.  While it puts err
above the tolerance the solve cannot return, so T_m, its eigensolve and
the combination are skipped: the result is the one an eigensolve at every
iteration gives.  For x near π/2 and beyond the bound is vacuous and every
iteration solves.  Substeps are halved until the estimate clears the
tolerance.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm_apply_block", "KrylovError"]


class KrylovError(RuntimeError):
    pass


# rounding allowance of the skip bound, in units of m·u (module docstring)
EIGH_ALLOWANCE = 64.0
_UNIT_ROUNDOFF = np.finfo(float).eps


def _exp_first_column(alphas: np.ndarray, betas: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i·tau·T) e_1, T from the m diagonals alphas and m-1 off-diagonals betas."""
    m = len(alphas)
    t_mat = np.zeros((m, m))
    flat = t_mat.reshape(m * m)
    flat[:: m + 1] = alphas
    flat[1 :: m + 1] = betas
    flat[m :: m + 1] = betas
    lam, q_t = np.linalg.eigh(t_mat)
    return q_t @ (np.exp(-1j * tau * lam) * q_t[0])


def _entry_floor(lead: float, a_hi: float, a_lo: float, b_hi: float,
                 tau: float, m: int) -> float:
    """A lower bound on the eigensolved |[exp(-iτT_m)]_{m,1}|, at least 0.

    lead is at most τ^{m-1}·Πβ_k/(m-1)!; a_hi, a_lo, b_hi are the largest and
    smallest α and the largest β of T_m.
    """
    x = tau * (0.5 * (a_hi - a_lo) + 2.0 * b_hi)
    norm_t = tau * (max(a_hi, -a_lo) + 2.0 * b_hi)
    bound = lead * math.cos(min(x, math.pi))
    allowance = EIGH_ALLOWANCE * m * _UNIT_ROUNDOFF * (1.0 + norm_t + lead)
    return max(bound - allowance, 0.0)


def _weighted_norm(v: np.ndarray, weight: float) -> float:
    """sqrt(weight·Σ|v|²) of a contiguous complex array, as one real dot product."""
    flat = v.reshape(-1).view(float)
    return math.sqrt(weight * float(flat @ flat))


def _lanczos_block(matvec, v: np.ndarray, tau: float, weight: float,
                   tol: float, m_max: int):
    """One Krylov solve of I_b⊗H on the block v; returns (result, err)."""
    shape = v.shape
    beta0 = _weighted_norm(v, weight)
    # row m is written before it is first read, so it needs no zeroing
    basis = np.empty((m_max + 1, v.size), dtype=complex)
    reals = basis.view(float)
    np.divide(v.reshape(-1).view(float), beta0, out=reals[0])
    alphas = np.zeros(m_max)
    betas = np.zeros(m_max)
    # running pieces of the lower bound on |[exp(-iτT_m)]_{m,1}|; the entry
    # is at most 1, so capping lead at 1 keeps the bound and avoids overflow
    lead = 1.0                          # min(1, τ^{m-1}·Πβ_k/(m-1)!)
    a_hi, a_lo, b_hi = -math.inf, math.inf, 0.0
    for m in range(1, m_max + 1):
        live = basis[:m]
        w = np.ascontiguousarray(matvec(live[m - 1].reshape(shape)), dtype=complex)
        w = w.reshape(-1)
        alpha = weight * float(reals[m - 1] @ w.view(float))
        alphas[m - 1] = alpha
        # the three-term step w - β_{m-1} q_{m-2} - α q_{m-1} as one real
        # product on the float views, out of place, so a matvec that returns
        # its input is safe
        lo = max(m - 2, 0)
        coef = np.array((betas[m - 2], alpha)) if m > 1 else np.array((alpha,))
        w = (w.view(float) - coef @ reals[lo:m]).view(complex)
        # one classical Gram-Schmidt pass against the live basis:
        # conj(<w, q_k>) avoids conjugating the basis
        dots = np.conj(np.conj(w) @ live.T)
        dots *= weight
        w -= dots @ live
        beta = _weighted_norm(w, weight)
        a_hi, a_lo = max(a_hi, alpha), min(a_lo, alpha)
        breakdown = beta <= 1e-14 * (abs(alpha) + 1.0)
        if (breakdown or m == m_max
                or beta0 * beta * tau * _entry_floor(lead, a_hi, a_lo, b_hi, tau, m) <= tol):
            phases = _exp_first_column(alphas[:m], betas[: m - 1], tau)
            err = 0.0 if breakdown else beta0 * beta * tau * abs(phases[-1])
            if breakdown or m == m_max or err <= tol:
                return ((phases * beta0) @ live).reshape(shape), err
        # w·(1/β) on the float views, a real multiply
        np.multiply(w.view(float), 1.0 / beta, out=reals[m])
        betas[m - 1] = beta
        b_hi = max(b_hi, beta)
        lead = min(lead * beta * tau / m, 1.0)
    raise KrylovError("unreachable")


def expm_apply_block(matvec, v: np.ndarray, tau: float, weight: float = 1.0,
                     tol: float = 1e-12, m_max: int = 40,
                     max_substeps: int = 64) -> np.ndarray:
    """exp(-i·tau·H) applied to every row of v (H Hermitian via block matvec).

    The weighted error of the block is at most tol × its RMS row norm.
    """
    v = np.ascontiguousarray(v, dtype=complex)
    norm = _weighted_norm(v, weight)
    if norm == 0.0:
        return v.copy()
    tol_block = tol * norm / math.sqrt(v.shape[0])
    n_sub = 1
    while n_sub <= max_substeps:
        sub_tau = tau / n_sub
        out = v
        ok = True
        for _ in range(n_sub):
            out, err = _lanczos_block(matvec, out, sub_tau, weight, tol_block / n_sub, m_max)
            if err > tol_block / n_sub:
                ok = False
                break
        if ok:
            return out
        n_sub *= 2
    raise KrylovError(
        f"Krylov propagator did not reach tolerance {tol:g} within {max_substeps} substeps"
    )
