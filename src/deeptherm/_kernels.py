"""Hot numeric kernels, one numpy implementation each.

moment_accumulate works in the symmetric subspace: it returns the k-th
moment as its Sym^k block (basis in linalg.sym_basis), never the dA^k x dA^k
operator.  It grows the Sym^k rows of a batch of states one level j at a
time and adds them to the sum with one GEMM at level k.  A lower order is
the partial trace of a higher one (linalg.sym_partial_trace), so one order
per pass is all a caller needs.  Its loop, accumulate_blocks, also takes
blocks of rows produced one at a time (the exact route copies them out of
the statevector) and reuses its work arrays across them.  Results are
deterministic for a given numpy/BLAS build.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import sym_basis, sym_index

ROW_BLOCK = 1024  # rows per GEMM in moment_accumulate; a block's rows take 1.3 MB at k = 3, N_A = 2
BLOCK_ENTRIES = 2**22  # Sym^k row entries per block (64 MiB complex); fewer rows at large D


# ---------------------------------------------------------------------------
# weighted sums of k-fold projector powers, in Sym^k:
#   sum_b w_b (psi_b psi_b^+)^{(x)k}  as its D x D Sym^k block


@lru_cache(maxsize=None)
def _parent_rows(d: int, k: int) -> np.ndarray:
    """Row in sym_basis(d, k - 1) of each level-k multiset without its last digit."""
    out = sym_index(sym_basis(d, k).idx[:, :-1], d)
    out.setflags(write=False)
    return out


def block_rows(d: int) -> int:
    """Rows per block of moment_accumulate when its top level has d Sym^k rows:
    ROW_BLOCK, or fewer when the block would exceed BLOCK_ENTRIES entries (any d
    above 4096)."""
    return min(ROW_BLOCK, max(1, BLOCK_ENTRIES // d))


def moment_accumulate(psi: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Sym^k block (linalg.sym_basis) of sum_b w_b (|psi_b><psi_b|)^{(x)k}.

    psi_b^{(x)k} lies in Sym^k, where its coordinates are the rows
    v_b[alpha] = coef_alpha prod_i psi_b[idx[alpha, i]], D = C(dA+k-1, k) of
    them instead of dA^k.  Each psi_b is first scaled by w_b^(1/2k), so the
    weight rides in the products.  The products grow one level at a time: a
    sorted multiset's product is its parent's (the multiset without its last
    digit) times psi_b at the last digit, so level j costs D_j multiplies per
    row.  Rows are held D-major, (D_j, rows) per block of psi rows gathered
    from psi^T, and level k adds one GEMM, u @ u^+, per block.  The
    coefficients are applied once, as coef coef^T on the D x D sum.  Rows
    are taken block_rows(D) at a time, through accumulate_blocks.
    """
    psi_t = np.ascontiguousarray(np.asarray(psi, dtype=np.complex128).T)
    weights = np.asarray(weights, dtype=np.float64)
    da, b = psi_t.shape
    rows = block_rows(math.comb(da + k - 1, k))
    blocks = ((psi_t[:, lo : lo + rows], weights[lo : lo + rows]) for lo in range(0, b, rows))
    return accumulate_blocks(blocks, da, k)


def accumulate_blocks(blocks, da: int, k: int) -> np.ndarray:
    """moment_accumulate over blocks of rows given in turn, in their order.

    blocks yields (cols, w): cols the (dA, n) transpose of n rows of psi, w
    their (n,) weights; neither is written.  Work arrays are allocated at the
    first block, the largest, and reused: a dA x n slot for the scaled
    columns, and min(k, 3) D x n ones, one for the gathered last digits and
    then the conjugated top level, and a pair that takes the level products
    in turn (one slot at k = 2, none at k = 1).  A pass over many blocks so
    allocates only the D x D product per block, and each block's arithmetic
    is that of one call on it alone.
    """
    basis = sym_basis(da, k)
    D = len(basis.coef)
    out = np.zeros((D, D), dtype=np.complex128)
    work = None

    def slot(i, d, n):
        return work[i, : d * n].reshape(d, n)

    for cols, w in blocks:
        n = cols.shape[1]
        if work is None:
            work = np.empty((min(k, 3), D * n), dtype=np.complex128)
            scaled = np.empty(da * n, dtype=np.complex128)
        prod = level1 = np.multiply(cols, np.power(w, 0.5 / k), out=scaled[: da * n].reshape(da, n))
        for j in range(2, k + 1):
            last = sym_basis(da, j).idx[:, -1]
            # mode="clip" lets take write straight into out, with no buffered copy
            nxt = np.take(prod, _parent_rows(da, j), axis=0, out=slot(1 + j % 2, len(last), n), mode="clip")
            nxt *= np.take(level1, last, axis=0, out=slot(0, len(last), n), mode="clip")
            prod = nxt
        out += prod @ np.conj(prod, out=slot(0, D, n)).T
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
