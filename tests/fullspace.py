"""Test helpers: Sym^k blocks in the full replicated space (C^d)^{(x)k}.

The package keeps every moment as its D x D block in the multiset basis of
linalg.sym_basis and never indexes the d^k replica codes.  The tests' dense
oracles live in the full space; these helpers map between the two.
"""
from __future__ import annotations

import numpy as np

from deeptherm.linalg import sym_basis, sym_index

SYM_LEAK_TOL = 1e-12  # sym_compress raises when max|embed(r) - rho| > SYM_LEAK_TOL * max|rho|


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
