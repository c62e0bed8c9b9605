"""Test helpers: the full replicated space (C^d)^{(x)k} and its Sym^k blocks.

The package keeps every moment as its D x D block in the multiset basis of
linalg.sym_basis and never indexes the d^k replica codes.  The tests' dense
oracles live in the full space: the digit permutations P(s), the Haar
moment built from them, and the maps between a Sym^k block and the full
operator.
"""
from __future__ import annotations

import numpy as np

from deeptherm.linalg import sym_basis, sym_index
from deeptherm.permgroup import Permutation, enumerate_sym

SYM_LEAK_TOL = 1e-12  # sym_compress raises when max|embed(r) - rho| > SYM_LEAK_TOL * max|rho|


def digit_permute_codes(images, base: int) -> np.ndarray:
    """Index map for permuting base-`base` digit strings.

    Returns IDX with IDX[code] = code', where digit j of code' equals digit
    images[j] of code (digit 0 most significant).
    """
    m = len(images)
    codes = np.arange(base**m)
    out = np.zeros_like(codes)
    for j, src in enumerate(images):
        dig = (codes // base ** (m - 1 - src)) % base
        out += dig * base ** (m - 1 - j)
    return out


def permutation_operator(p: Permutation, d: int) -> np.ndarray:
    """P(p) on m copies of C^d: P(p)|y_1..y_m> = |y_{p(1)}..y_{p(m)}>."""
    dim = d ** p.degree
    rows = digit_permute_codes(p.images, d)
    P = np.zeros((dim, dim))
    P[rows, np.arange(dim)] = 1.0
    return P


def haar_moment_operator(n_a: int, k: int) -> np.ndarray:
    """k-th moment of Haar-random pure states on n_a qubits.

    Equals sum_{s in S_k} P(s) / (d (d+1) ... (d+k-1)) with d = 2^n_a;
    unit trace, supported on the symmetric subspace.  The package's routes
    use its Sym^k block, the identity over D (linalg.sym_haar_distance).
    """
    if n_a * k > 14:
        raise ValueError("2^(n_a*k) too large for dense construction")
    d = 2**n_a
    denom = 1.0
    for j in range(k):
        denom *= d + j
    out = np.zeros((d**k, d**k))
    for p in enumerate_sym(k):
        out += permutation_operator(p, d)
    return (out / denom).astype(complex)


def sym_orbit(d: int, k: int) -> np.ndarray:
    """(d^k,) multiset id of every replica code (digit 0 most significant)."""
    place = d ** np.arange(k - 1, -1, -1)
    return sym_index((np.arange(d**k)[:, None] // place) % d, d)


def sym_rep(d: int, k: int) -> np.ndarray:
    """(D,) the code of each multiset's sorted digits."""
    return sym_basis(d, k).idx @ (d ** np.arange(k - 1, -1, -1))


def sym_embed(r: np.ndarray, d: int, k: int) -> np.ndarray:
    """The operator on (C^d)^{(x)k} whose Sym^k block is r; zero off Sym^k.

    A gather, full[i, j] = r[orbit i, orbit j] / (coef coef); it also maps an
    entrywise statistic of r (a standard error, say) to the full entries.
    """
    coef, orbit = sym_basis(d, k).coef, sym_orbit(d, k)
    scaled = r / (coef[:, None] * coef)
    return scaled.take(orbit, axis=0).take(orbit, axis=1)


def sym_compress(rho: np.ndarray, d: int, k: int) -> np.ndarray:
    """The Sym^k block r = coef coef rho[rep, rep] of rho.

    Raises ValueError when rho is not supported on, and symmetric within,
    Sym^k: max|sym_embed(r) - rho| above SYM_LEAK_TOL * max|rho|.
    """
    coef, rep = sym_basis(d, k).coef, sym_rep(d, k)
    r = (coef[:, None] * coef) * rho.take(rep, axis=0).take(rep, axis=1)
    diff = sym_embed(r, d, k)
    diff -= rho
    leak, scale = np.abs(diff).max(), np.abs(rho).max()
    if not leak <= SYM_LEAK_TOL * scale:
        raise ValueError(f"operator leaks out of Sym^{k}(C^{d}) "
                         f"(max|embed - rho| = {leak:.2e}, max|rho| = {scale:.2e})")
    return r
