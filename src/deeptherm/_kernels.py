"""Hot numeric kernels, one numpy implementation each.

moment_accumulate works in the symmetric subspace: it returns a moment's
Sym^k block (basis in linalg.sym_basis), never the dA^k x dA^k operator.
Results are deterministic for a given numpy/BLAS build.
"""
from __future__ import annotations

import numpy as np

from .linalg import sym_basis

ROW_BLOCK = 4096  # rows per GEMM in moment_accumulate
BLOCK_ENTRIES = 2**22  # Sym^k row entries per block (64 MiB complex); fewer rows at large D


# ---------------------------------------------------------------------------
# weighted sum of k-fold projector powers, in Sym^k:
#   sum_b w_b (psi_b psi_b^+)^{(x)k}  as its D x D Sym^k block


def moment_accumulate(psi: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Return the Sym^k block (linalg.sym_basis) of sum_b weights[b] (|psi_b><psi_b|)^{(x)k}.

    psi_b^{(x)k} lies in Sym^k, where its coordinates are the rows
    v_b[alpha] = coef_alpha prod_j psi_b[idx[alpha, j]], D = C(dA+k-1, k) of
    them instead of dA^k.  Per block of rows, build v and add one GEMM,
    (v * w).T @ v.conj().  A block holds ROW_BLOCK rows, or fewer when its
    rows would exceed BLOCK_ENTRIES entries (any D above 1024).
    """
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    b, da = psi.shape
    basis = sym_basis(da, k)
    D = len(basis.coef)
    out = np.zeros((D, D), dtype=np.complex128)
    rows = min(ROW_BLOCK, max(1, BLOCK_ENTRIES // D))
    for lo in range(0, b, rows):
        blk = psi[lo : lo + rows]
        v = blk[:, basis.idx[:, 0]]
        for j in range(1, k):
            v *= blk[:, basis.idx[:, j]]
        v *= basis.coef
        out += (v * weights[lo : lo + rows, None]).T @ v.conj()
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
