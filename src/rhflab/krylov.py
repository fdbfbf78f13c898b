"""Lanczos approximation of exp(-i·tau·H)v for Hermitian H.

Operates on a block of vectors at once: the Krylov recurrences are
independent per vector but every matvec, inner product and small-matrix
exponential runs batched, which is what makes propagating N orbitals
through a shared mean field affordable.  Substeps are halved adaptively
until the a-posteriori residual estimate clears the tolerance.

The basis of a block solve is row-major, shape (b, m_max+1, n): row r's
Krylov vectors are contiguous, so the projections against the live slice
basis[:, :m] and the final combination are batched matmuls.  It comes from
np.empty and each slab is written when the recurrence reaches it; a solve
typically stops after about five of the m_max+1.

Iteration m takes w = Hq_{m-1} through two reductions.  The three-term
step subtracts α q_{m-1} + β_{m-1} q_{m-2} (α from one row dot, β known) as
one product; one classical Gram-Schmidt pass then projects the remainder
onto the whole live basis.  A single projection of w itself is not enough: its
coefficients carry rounding of order u·‖Hq‖ (u the unit roundoff), so the
new vector keeps an overlap of about u·‖Hq‖/β with the basis, and the
large coefficient α times the overlaps already there feeds the next
iteration's, so the loss compounds by ‖Hq‖/β per iteration.  That ratio is
about 9 in the median on the quench's solves (α carries the rest mass) and
reaches 3e7 on a stationary state, where β_1 is the SCF residual; one pass
then left overlaps of 2e-8 and 2e-4 where two keep them at 2e-15 (the
tests check weight·max|Q^H Q - I| ≤ 1e-13).  After the three-term step
the remainder is of size β, so the projection's own rounding is of order
u·β and the overlaps stay of order u ("twice is enough").  The degenerate
guard covers a β that is rounding, β ≤ 1e-14·(|α| + 1): the Krylov space is
invariant to working precision, so the row's next vector is set to zero
rather than normalized noise, and its recurrence stays exact.  The new
vector is w·(1/β), which is what numpy's complex-by-real division computes.

Row r stops after m matvecs once the Hochbruck & Lubich estimate
err_r = |β_m · τ · [exp(-iτT_m)]_{m,1}| is at most its tolerance, T_m the
real symmetric tridiagonal of the α_k and β_1..β_{m-1} ≥ 0.  That entry
needs an eigensolve of every row's T_m, so it runs only at an m where the
solve can return.  The (m,1) entry of (zI - T_m)^{-1} is Πβ_k/Π(z - λ_i),
so [f(T_m)]_{m,1} = Πβ_k · f[λ_1..λ_m] (a divided difference), which the
Hermite-Genocchi formula writes as an integral of f^{(m-1)} over a simplex
of volume 1/(m-1)!.  For f = exp(-iτ·) and any shift c,

    |[exp(-iτT_m)]_{m,1}| = τ^{m-1}·Πβ_k · |∫ exp(-iτ(<t, λ> - c)) dt|
                          ≥ τ^{m-1}·Πβ_k/(m-1)! · cos(x)   for x ≤ π,
    x = τ·(½(max α - min α) + 2·max β) ≥ τ·max|λ_i - c|,

c the midpoint of the α (Gershgorin).  Less the allowance
EIGH_ALLOWANCE·m·u·(1 + τ(max|α| + 2·max β) + the bound), u the unit
roundoff, this bounds the eigensolved entry from below through the
rounding of the eigensolve and of the bound itself.  While it puts some
row's err above that row's tolerance the solve cannot return, so T_m, its
eigensolve and the combination are skipped: the result is the one an
eigensolve at every iteration gives.  For x near π/2 and beyond the bound
is vacuous and every iteration solves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expm_apply_block", "KrylovError"]


class KrylovError(RuntimeError):
    pass


# rounding allowance of the skip bound, in units of m·u (module docstring)
EIGH_ALLOWANCE = 64.0
_UNIT_ROUNDOFF = np.finfo(float).eps


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_r, b_r> per row, as real dot products of the float views."""
    return np.matmul(a.view(float)[:, None, :], b.view(float)[:, :, None])[:, 0, 0]


def _row_norms(w: np.ndarray, weight: float) -> np.ndarray:
    return np.sqrt(_row_dots(w, w) * weight)


def _exp_first_column(alphas: np.ndarray, betas: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i·tau·T) e_1 per row, T from the (b, m) diagonals and (b, m-1) off-diagonals."""
    b, m = alphas.shape
    t_mat = np.zeros((b, m, m))
    flat = t_mat.reshape(b, m * m)
    flat[:, :: m + 1] = alphas
    flat[:, 1 :: m + 1] = betas
    flat[:, m :: m + 1] = betas
    lam, q_t = np.linalg.eigh(t_mat)
    return np.einsum(
        "bij,bj,bj->bi", q_t, np.exp(-1j * tau * lam), np.conj(q_t[:, 0, :])
    )


def _entry_floor(lead: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
                 tau: float, m: int) -> np.ndarray:
    """Per-row lower bound on the eigensolved |[exp(-iτT_m)]_{m,1}|, at least 0.

    lead is at most τ^{m-1}·Πβ_k/(m-1)!; a_hi, a_lo, b_hi are the largest and
    smallest α and the largest β of each row's T_m.
    """
    x = tau * (0.5 * (a_hi - a_lo) + 2.0 * b_hi)
    norm_t = tau * (np.maximum(a_hi, -a_lo) + 2.0 * b_hi)
    bound = lead * np.cos(np.minimum(x, np.pi))
    allowance = EIGH_ALLOWANCE * m * _UNIT_ROUNDOFF * (1.0 + norm_t + lead)
    return np.maximum(bound - allowance, 0.0)


def _lanczos_block(matvec, v: np.ndarray, tau: float, weight: float,
                   tol_rows: np.ndarray, m_max: int):
    """One Krylov solve per row of v; returns (result, err_rows)."""
    b, n = v.shape
    beta0 = _row_norms(v, weight)
    # slab m is written before it is first read, so it needs no zeroing
    basis = np.empty((b, m_max + 1, n), dtype=complex)
    np.divide(v, np.where(beta0 > 0.0, beta0, 1.0)[:, None], out=basis[:, 0])
    alphas = np.zeros((b, m_max))
    betas = np.zeros((b, m_max))
    # running pieces of the lower bound on |[exp(-iτT_m)]_{m,1}|; the entry
    # is at most 1, so capping lead at 1 keeps the bound and avoids overflow
    lead = np.ones(b)                   # min(1, τ^{m-1}·Πβ_k/(m-1)!)
    a_hi = np.full(b, -np.inf)
    a_lo = np.full(b, np.inf)
    b_hi = np.zeros(b)
    for m in range(1, m_max + 1):
        live_basis = basis[:, :m]
        q = live_basis[:, m - 1]
        # _row_dots reads rows through float views, which need them contiguous
        w = np.ascontiguousarray(matvec(q), dtype=complex)
        alpha = _row_dots(q, w) * weight
        alphas[:, m - 1] = alpha
        # the three-term step w - β_{m-1} q_{m-2} - α q_{m-1} as one product,
        # out of place, so a matvec that returns its input is safe
        lo = max(m - 2, 0)
        coef = np.concatenate((betas[:, lo:m - 1], alpha[:, None]), axis=1)
        w = w - np.matmul(coef[:, None, :], live_basis[:, lo:])[:, 0]
        # one classical Gram-Schmidt pass against the row's live basis:
        # conj(<w, q_k>) avoids conjugating the basis
        dots = np.conj(np.matmul(np.conj(w)[:, None, :], live_basis.transpose(0, 2, 1)))
        dots *= weight
        w -= np.matmul(dots, live_basis)[:, 0]
        beta = _row_norms(w, weight)
        np.maximum(a_hi, alpha, out=a_hi)
        np.minimum(a_lo, alpha, out=a_lo)
        if m == m_max or not np.any(
                beta * tau * _entry_floor(lead, a_hi, a_lo, b_hi, tau, m) > tol_rows):
            phases = _exp_first_column(alphas[:, :m], betas[:, : m - 1], tau)
            # rows with beta0 == 0 have beta == 0, so err == 0
            err = np.abs(beta * phases[:, -1] * tau)
            if m == m_max or np.all(err <= tol_rows):
                # rows with beta0 == 0 come back as zero rows, i.e. unchanged
                out = np.matmul(phases[:, None, :], live_basis)[:, 0] * beta0[:, None]
                return out, err
        degenerate = beta <= 1e-14 * (np.abs(alpha) + 1.0)
        if degenerate.any():
            beta[degenerate] = 0.0
            w[degenerate] = 0.0
        # w·(1/β) on the float views: the bits of numpy's complex-by-real
        # division (it multiplies by the reciprocal), at a real multiply's cost
        scale = 1.0 / np.where(degenerate, 1.0, beta)
        np.multiply(w.view(float), scale[:, None], out=basis[:, m].view(float))
        betas[:, m - 1] = beta
        np.maximum(b_hi, beta, out=b_hi)
        lead *= beta
        lead *= tau / m
        np.minimum(lead, 1.0, out=lead)
    raise KrylovError("unreachable")


def expm_apply_block(matvec, v: np.ndarray, tau: float, weight: float = 1.0,
                     tol: float = 1e-12, m_max: int = 40,
                     max_substeps: int = 64) -> np.ndarray:
    """exp(-i·tau·H) applied to every row of v (H Hermitian via block matvec)."""
    v = np.ascontiguousarray(v, dtype=complex)
    scale = _row_norms(v, weight)
    if np.all(scale == 0.0):
        return v.copy()
    tol_rows = tol * np.where(scale > 0, scale, 1.0)
    n_sub = 1
    while n_sub <= max_substeps:
        sub_tau = tau / n_sub
        out = v
        ok = True
        for _ in range(n_sub):
            out, err = _lanczos_block(matvec, out, sub_tau, weight,
                                      tol_rows / n_sub, m_max)
            if np.any(err > tol_rows / n_sub):
                ok = False
                break
        if ok:
            return out
        n_sub *= 2
    raise KrylovError(
        f"Krylov propagator did not reach tolerance {tol:g} within {max_substeps} substeps"
    )
