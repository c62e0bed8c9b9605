"""Hot numeric kernels, one numpy implementation each.

moment_accumulate works in the symmetric subspace: it returns moments as
their Sym^j blocks (basis in linalg.sym_basis), never the dA^j x dA^j
operators.  It grows the Sym^j rows of a batch of states one level j at a
time, so one call gives every order up to k from the same rows.  Its loop,
accumulate_blocks, also takes blocks of rows produced one at a time (the
exact route copies them out of the statevector) and reuses its work arrays
across them.  Results are deterministic for a given numpy/BLAS build.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import sym_basis, sym_index

ROW_BLOCK = 1024  # rows per GEMM in moment_accumulate; a block's rows take 1.3 MB at k = 3, N_A = 2
BLOCK_ENTRIES = 2**22  # Sym^k row entries per block (64 MiB complex); fewer rows at large D


# ---------------------------------------------------------------------------
# weighted sums of j-fold projector powers, in Sym^j:
#   sum_b w_b (psi_b psi_b^+)^{(x)j}  as its D_j x D_j Sym^j block


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


def moment_accumulate(psi: np.ndarray, weights: np.ndarray, k: int):
    """Sym^j blocks (linalg.sym_basis) of sum_b w_b (|psi_b><psi_b|)^{(x)j}.

    psi_b^{(x)j} lies in Sym^j, where its coordinates are the rows
    v_b[alpha] = coef_alpha prod_i psi_b[idx[alpha, i]], D_j = C(dA+j-1, j) of
    them instead of dA^j.  The products grow one level at a time: a sorted
    multiset's product is its parent's (the multiset without its last digit)
    times psi_b at the last digit, so level j costs D_j multiplies per row.
    Rows are held D-major, (D_j, rows) per block of psi rows gathered from
    psi^T, and each weighted level adds one GEMM, (v * w) @ v^+, per block.

    weights of shape (b,) weight level k alone, and the D_k x D_k block is
    returned.  Weights of shape (k, b) weight level j by weights[j - 1], and
    the list of the k blocks, levels 1..k, is returned.  Rows are taken
    block_rows(D_k) at a time, through accumulate_blocks.
    """
    psi_t = np.ascontiguousarray(np.asarray(psi, dtype=np.complex128).T)
    weights = np.asarray(weights, dtype=np.float64)
    da, b = psi_t.shape
    rows = block_rows(math.comb(da + k - 1, k))
    blocks = ((psi_t[:, lo : lo + rows], weights[..., lo : lo + rows]) for lo in range(0, b, rows))
    return accumulate_blocks(blocks, da, k, top_only=weights.ndim == 1)


def accumulate_blocks(blocks, da: int, k: int, top_only: bool = False):
    """moment_accumulate over blocks of rows given in turn, in their order.

    blocks yields (cols, w): cols the (dA, n) transpose of n rows of psi, w
    their weights, (k, n), or (n,) when top_only.  Three D_k x n work arrays
    are allocated at the first block, the largest, and reused: a pair that
    takes the level products in turn (the one a level does not write then
    takes its weighted rows), and one for the gathered last digits and then
    the scaled rows, conjugated in place.  A pass over many blocks so
    allocates only the D_j x D_j products per block, and each block's
    arithmetic is that of one call on it alone.
    """
    coefs = [sym_basis(da, j).coef[:, None] for j in range(1, k + 1)]
    out = {j: np.zeros((len(coefs[j - 1]),) * 2, dtype=np.complex128)
           for j in ([k] if top_only else range(1, k + 1))}
    work = None

    def slot(i, d, n):
        return work[i, : d * n].reshape(d, n)

    for cols, w in blocks:
        n = cols.shape[1]
        if work is None:
            work = np.empty((3, len(coefs[-1]) * n), dtype=np.complex128)
        level_weights = {k: w} if top_only else dict(enumerate(w, start=1))
        prod = cols  # level 1: one row per digit
        for j in range(1, k + 1):
            d = len(coefs[j - 1])
            if j > 1:
                # mode="clip" lets take write straight into out, with no buffered copy
                nxt = np.take(prod, _parent_rows(da, j), axis=0, out=slot(j % 2, d, n), mode="clip")
                nxt *= np.take(cols, sym_basis(da, j).idx[:, -1], axis=0, out=slot(2, d, n), mode="clip")
                prod = nxt
            if j in out:
                v = np.multiply(prod, coefs[j - 1], out=slot(2, d, n))
                # level j - 1's products, in the other slot of the pair, are done with
                vw = np.multiply(v, level_weights[j], out=slot((j + 1) % 2, d, n))
                out[j] += vw @ np.conj(v, out=v).T
    return out[k] if top_only else list(out.values())


# ---------------------------------------------------------------------------
# Haar unitaries from Ginibre draws (QR with the R-diagonal phases divided out)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Map a batch of complex Gaussian matrices to Haar unitaries."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    ph = diag / np.abs(diag)
    return q * ph[..., None, :]
