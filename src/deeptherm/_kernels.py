"""Hot numeric kernels, one numpy implementation each.

Results are deterministic for a given numpy/BLAS build.
"""
from __future__ import annotations

import numpy as np

ROW_BLOCK = 4096  # rows per GEMM in moment_accumulate
BLOCK_ENTRIES = 2**22  # k-fold entries per block (64 MiB complex); fewer rows at large dim


# ---------------------------------------------------------------------------
# weighted sum of k-fold projector powers:  sum_b w_b (psi_b psi_b^+)^{(x)k}


def moment_accumulate(psi: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Return sum_b weights[b] * (|psi_b><psi_b|)^{(x)k}.

    Per block of rows, build the k-fold product rows v_b = psi_b^{(x)k} and add
    one GEMM, (v * w).T @ v.conj().  A block holds ROW_BLOCK rows, or fewer when
    its k-fold rows would exceed BLOCK_ENTRIES entries (any dim above 1024).
    """
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    b, da = psi.shape
    dim = da**k
    out = np.zeros((dim, dim), dtype=np.complex128)
    rows = min(ROW_BLOCK, max(1, BLOCK_ENTRIES // dim))
    for lo in range(0, b, rows):
        blk = psi[lo : lo + rows]
        v = blk
        for _ in range(k - 1):
            v = (v[:, :, None] * blk[:, None, :]).reshape(len(blk), -1)
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
