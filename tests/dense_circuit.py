"""Test helpers: the kicked Ising circuit on a table of spins and per-site kicks.

The package reads the Ising phases from the bits of the basis index, kicks
groups of sites with one GEMM each, and builds W and the bath's transfer operator
from the dual site layers.  The tests' dense oracles keep the plain forms: an
n x 2^n table of spins and one 2x2 kick per site axis, the finite bath's
moment as a sum over its 2^L outcomes, and the Haar unitary moment as a sum
over pairs of permutations.
"""
from __future__ import annotations

import itertools

import numpy as np

from deeptherm.dual_tensors import dual_site_layer
from deeptherm.linalg import kron_all, permutation_vector_state
from deeptherm.permgroup import enumerate_sym, weingarten_table


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


def bath_moment_by_outcomes(t: int, k: int, g: float, L: int) -> np.ndarray:
    """2^-L sum_z (U(z) (x) U(z)*)^{(x)k} with U(z) = T(z_{L-1}) ... T(z_0), one
    temporal map and one k-fold Kronecker product per outcome z."""
    layers = [dual_site_layer(b, t, g) for b in (0, 1)]
    acc = 0
    for z in itertools.product((0, 1), repeat=L):
        U = np.eye(2**t, dtype=complex)
        for b in z:
            U = layers[b] @ U
        acc = acc + kron_all([np.kron(U, U.conj())] * k)
    return acc / 2**L


def haar_unitary_moment_by_pairs(t: int, k: int) -> np.ndarray:
    """int dU (U (x) U*)^{(x)k} on t qubits as
    sum_{sigma, tau} Wg(sigma tau^-1) |P_t(tau)><P_t(sigma)|, one outer product
    per tau with the Wg-weighted bras of every sigma."""
    table = weingarten_table(k, 2**t)
    perms = enumerate_sym(k)
    states = [permutation_vector_state(p, t) for p in perms]
    dim = (2**t) ** (2 * k)
    out = np.zeros((dim, dim), dtype=complex)
    for tau, ket in zip(perms, states):
        bra = sum(table.value(sig.compose(tau.inverse())) * v.conj() for sig, v in zip(perms, states))
        out += np.outer(ket, bra)
    return out
