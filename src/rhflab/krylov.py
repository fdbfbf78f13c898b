"""Lanczos approximation of exp(-i·tau·H)v for Hermitian H.

Operates on a block of vectors at once: the Krylov recurrences are
independent per vector but every matvec, inner product and small-matrix
exponential runs batched, which is what makes propagating N orbitals
through a shared mean field affordable.  Substeps are halved adaptively
until the a-posteriori residual estimate clears the tolerance.

The basis of a block solve is row-major, shape (b, m_max+1, n): row r's
Krylov vectors are contiguous, so full reorthogonalization against the
live slice basis[:, :m] and the final combination are batched matmuls.
It comes from np.empty and each slab is written when the recurrence
reaches it; a solve typically stops after about five of the m_max+1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expm_apply", "expm_apply_block", "KrylovError"]


class KrylovError(RuntimeError):
    pass


def _row_norms(w: np.ndarray, weight: float) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(w) ** 2, axis=1).real * weight)


def _lanczos_block(matvec, v: np.ndarray, tau: float, weight: float,
                   tol_rows: np.ndarray, m_max: int):
    """One Krylov solve per row of v; returns (result, err_rows)."""
    b, n = v.shape
    beta0 = _row_norms(v, weight)
    live = beta0 > 0.0
    safe0 = np.where(live, beta0, 1.0)
    # slab m is written before it is first read, so it needs no zeroing
    basis = np.empty((b, m_max + 1, n), dtype=complex)
    basis[:, 0] = v / safe0[:, None]
    alphas = np.zeros((m_max, b))
    betas = np.zeros((m_max, b))
    phases = None
    for m in range(1, m_max + 1):
        q = basis[:, m - 1]
        w = matvec(q)
        alpha = (np.sum(np.conj(q) * w, axis=1) * weight).real
        alphas[m - 1] = alpha
        w = w - alpha[:, None] * q
        if m > 1:
            w = w - betas[m - 2][:, None] * basis[:, m - 2]
        # full reorthogonalization against the row's history: conj(<w, q_k>)
        # avoids conjugating the basis
        live_basis = basis[:, :m]
        dots = np.conj(np.matmul(np.conj(w)[:, None, :],
                                 live_basis.transpose(0, 2, 1))) * weight
        w = w - np.matmul(dots, live_basis)[:, 0]
        beta = _row_norms(w, weight)
        # assemble the per-row tridiagonals and their exp(-i tau T) e1 columns
        t_mat = np.zeros((b, m, m))
        idx = np.arange(m)
        t_mat[:, idx, idx] = alphas[:m].T
        if m > 1:
            off = np.arange(m - 1)
            t_mat[:, off, off + 1] = betas[: m - 1].T
            t_mat[:, off + 1, off] = betas[: m - 1].T
        lam, q_t = np.linalg.eigh(t_mat)
        phases = np.einsum(
            "bij,bj,bj->bi", q_t, np.exp(-1j * tau * lam), np.conj(q_t[:, 0, :])
        )
        err = np.abs(beta * phases[:, -1] * tau)
        err = np.where(live, err, 0.0)
        degenerate = beta <= 1e-14 * (np.abs(alpha) + 1.0)
        if np.all(err <= tol_rows) or m == m_max:
            # rows with beta0 == 0 come back as zero rows, i.e. unchanged
            out = np.matmul(phases[:, None, :], live_basis)[:, 0] * beta0[:, None]
            return out, err
        betas[m - 1] = np.where(degenerate, 0.0, beta)
        safe = np.where(degenerate, 1.0, beta)
        basis[:, m] = np.where(degenerate[:, None], 0.0, w / safe[:, None])
    raise KrylovError("unreachable")


def expm_apply_block(matvec, v: np.ndarray, tau: float, weight: float = 1.0,
                     tol: float = 1e-12, m_max: int = 40,
                     max_substeps: int = 64) -> np.ndarray:
    """exp(-i·tau·H) applied to every row of v (H Hermitian via block matvec)."""
    v = np.asarray(v, dtype=complex)
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


def expm_apply(matvec, v: np.ndarray, tau: float, weight: float = 1.0,
               tol: float = 1e-12, m_max: int = 40,
               max_substeps: int = 64) -> np.ndarray:
    """Single-vector convenience wrapper around the block propagator."""
    v = np.asarray(v, dtype=complex)

    def block_matvec(rows):
        return matvec(rows[0])[None, :]

    out = expm_apply_block(block_matvec, v[None, :], tau, weight=weight, tol=tol,
                           m_max=m_max, max_substeps=max_substeps)
    return out[0]
