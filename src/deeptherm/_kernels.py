"""Hot numeric kernels, one numpy implementation each.

accumulate_blocks is the one moment kernel of the exact and Monte Carlo
routes.  It is handed one array of unnormalized states, cuts it into blocks,
takes their Born weights p = |psi|^2 itself (zero below P_FLOOR), and
returns sum_b p_b^exponent (psi_b psi_b^+)^{(x)k} as its Sym^k block (basis in
linalg.sym_basis), never the dA^k x dA^k operator.  It grows the Sym^k rows
of a block of states one level j at a time and adds them to the sum with one
GEMM at level k.  A lower order is the partial trace of a higher one
(linalg.sym_partial_trace), so one order per pass is all a caller needs.
Results are deterministic for a given numpy/BLAS build.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import _parent_rows, sym_basis

P_FLOOR = 1e-14  # states below this Born weight get weight zero
ROW_BLOCK = 1024  # states per GEMM; a block's Sym^3 rows take 1.3 MB at N_A = 2
BLOCK_ENTRIES = 2**22  # Sym^k row entries per block (64 MiB complex); fewer states at large D


# ---------------------------------------------------------------------------
# Born-weighted sums of k-fold projector powers, in Sym^k:
#   sum_b p_b^exponent (psi_b psi_b^+)^{(x)k}  as its D x D Sym^k block


def block_rows(d: int) -> int:
    """States per block of accumulate_blocks when its top level has d Sym^k rows:
    ROW_BLOCK, or fewer when the block would exceed BLOCK_ENTRIES entries (any d
    above 4096)."""
    return min(ROW_BLOCK, max(1, BLOCK_ENTRIES // d))


def accumulate_bytes(da: int, k: int, n: int) -> int:
    """Bytes accumulate_blocks holds for n states, rows = min(block_rows(D), n)
    of them per block: the scaled slot and the work arrays, counted as four
    D x rows complex arrays; two D x D ones, the sum and the GEMM's product;
    three float rows, the Born weights, their mask and the scales; the
    casting buffers of the scaling multiply (the scales cast to complex over
    the block), two dA x rows complex arrays; the D x D float outer product of
    the coefficients; and 4 KiB for the call's Python objects and small arrays
    (tracemalloc read at most 3.6 KB beyond the other terms for 1 to 20 states)."""
    D = math.comb(da + k - 1, k)
    rows = min(block_rows(D), n)
    return 16 * (4 * D * rows + 2 * D * D) + 8 * (3 + 4 * da) * rows + 8 * D * D + 4096


def accumulate_blocks(states: np.ndarray, k: int, exponent: float) -> np.ndarray:
    """Sym^k block (linalg.sym_basis) of sum_b p_b^exponent (|psi_b><psi_b|)^{(x)k},
    p_b = |psi_b|^2, over the unnormalized states psi_b of states, in column order.

    states is a (dA, n) or (dA, A, B) array of columns, B the fastest; it may
    be a strided view and is never written.  Its blocks are views of a slabs
    of b columns, rows = min(block_rows(D), A B), a = max(1, rows // B) and
    b = min(rows, B).  A state with p_b < P_FLOOR gets weight zero, and no
    power of it is taken.  psi_b^{(x)k} lies in Sym^k, where its coordinates
    are the rows v_b[alpha] = coef_alpha prod_i psi_b[idx[alpha, i]],
    D = C(dA+k-1, k) of them instead of dA^k.  Each psi_b is scaled by
    p_b^(exponent/2k) into a reused dA x ab slot, the only copy of a block, so
    the weight rides in the products.  The products grow one level at a time:
    a sorted multiset's product is its parent's (the multiset without its last
    digit) times psi_b at the last digit, so level j costs D_j multiplies per
    state.  They are held D-major, in min(k, 3) reused D x ab work arrays: one
    for the gathered last digits and then the conjugated top level, and a pair
    that takes the level products in turn (one at k = 2, none at k = 1).
    Level k adds one GEMM, u @ u^+, per block; the coefficients are applied
    once, as coef coef^T on the D x D sum.
    """
    states = states[:, None] if states.ndim == 2 else states
    da, A, B = states.shape
    basis = sym_basis(da, k)
    D = len(basis.coef)
    rows = min(block_rows(D), A * B)
    a, b = max(1, rows // B), min(rows, B)
    out = np.zeros((D, D), dtype=np.complex128)
    work = np.empty((min(k, 3), D * a * b), dtype=np.complex128)
    scaled = np.empty(da * a * b, dtype=np.complex128)

    def slot(i, d, n):
        return work[i, : d * n].reshape(d, n)

    blocks = (states[:, z1 : z1 + a, c : c + b] for z1 in range(0, A, a) for c in range(0, B, b))
    for blk in blocks:
        p = np.einsum("s...,s...->...", blk.real, blk.real)
        p += np.einsum("s...,s...->...", blk.imag, blk.imag)
        kept = p >= P_FLOOR
        scale = np.zeros(p.shape)
        scale[kept] = p[kept] ** (exponent / (2 * k))
        n = scale.size
        prod = level1 = np.multiply(blk, scale, out=scaled[: da * n].reshape(blk.shape)).reshape(da, n)
        for j in range(2, k + 1):
            last = sym_basis(da, j).idx[:, -1]
            # mode="clip" lets take write straight into out, with no buffered copy
            nxt = np.take(prod, _parent_rows(da, j), axis=0, out=slot(1 + j % 2, len(last), n), mode="clip")
            nxt *= np.take(level1, last, axis=0, out=slot(0, len(last), n), mode="clip")
            prod = nxt
        out += np.dot(prod, np.conj(prod, out=slot(0, D, n)).T)  # np.dot releases the GIL; a 2-D @ keeps it
    out *= np.outer(basis.coef, basis.coef)
    return out


# ---------------------------------------------------------------------------
# Haar unitaries from Ginibre draws (QR with the R-diagonal phases divided out)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Map a batch of complex Gaussian matrices to Haar unitaries."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    ph = diag / np.abs(diag)
    return q * ph[..., None, :]
