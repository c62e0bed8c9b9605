"""Hot numeric kernels, one numpy implementation each.

moment_accumulate works in the symmetric subspace: it returns moments as
their Sym^j blocks (basis in linalg.sym_basis), never the dA^j x dA^j
operators.  It grows the Sym^j rows of a batch of states one level j at a
time, so one call gives every order up to k from the same rows.
Results are deterministic for a given numpy/BLAS build.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import sym_basis, sym_index

ROW_BLOCK = 4096  # rows per GEMM in moment_accumulate
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
    above 1024)."""
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
    block_rows(D_k) at a time.
    """
    psi_t = np.ascontiguousarray(np.asarray(psi, dtype=np.complex128).T)
    weights = np.asarray(weights, dtype=np.float64)
    da, b = psi_t.shape
    level_weights = {k: weights} if weights.ndim == 1 else dict(enumerate(weights, start=1))
    coefs = [sym_basis(da, j).coef[:, None] for j in range(1, k + 1)]
    out = {j: np.zeros((len(coefs[j - 1]),) * 2, dtype=np.complex128) for j in level_weights}
    rows = block_rows(len(coefs[-1]))
    for lo in range(0, b, rows):
        col = psi_t[:, lo : lo + rows]
        prod = col  # level 1: one row per digit
        for j in range(1, k + 1):
            if j > 1:
                prod = prod[_parent_rows(da, j)]
                prod *= col[sym_basis(da, j).idx[:, -1]]
            if j in out:
                v = prod * coefs[j - 1]
                out[j] += (v * level_weights[j][lo : lo + rows]) @ v.conj().T
    return out[k] if weights.ndim == 1 else list(out.values())


# ---------------------------------------------------------------------------
# Haar unitaries from Ginibre draws (QR with the R-diagonal phases divided out)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Map a batch of complex Gaussian matrices to Haar unitaries."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    ph = diag / np.abs(diag)
    return q * ph[..., None, :]
