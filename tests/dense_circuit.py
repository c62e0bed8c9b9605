"""Test helpers: the kicked Ising circuit on a table of spins and per-site kicks.

The package reads the Ising phases from the bits of the basis index, kicks
groups of sites with one GEMM each, and builds W and the bath's temporal maps
from the dual site layers.  The tests' dense oracles keep the plain forms: an
n x 2^n table of spins and one 2x2 kick per site axis.
"""
from __future__ import annotations

import numpy as np


def spin_table(n: int) -> np.ndarray:
    """spins[i, x] = 1 - 2*bit_i(x) over x in 0..2^n-1, bit 0 most significant."""
    x = np.arange(2**n)
    spins = np.empty((n, 2**n))
    for i in range(n):
        spins[i] = 1.0 - 2.0 * ((x >> (n - 1 - i)) & 1)
    return spins


def kick_all(S: np.ndarray, n_sites: int, K: np.ndarray) -> np.ndarray:
    """Kick every site axis of S, whose leading axes are n_sites qubit axes."""
    for i in range(n_sites):
        S = np.moveaxis(S, i, -1)
        S = S @ K.T
        S = np.moveaxis(S, -1, i)
    return S
