"""Test oracle: the replica bundle as orbit sums over the conjugacy classes of S_m.

This is the engine that replica._sagg_bundle replaced.  It keeps one
(orbit x class x orbit) tensor P per m, built from the orbit sums of the
conjugated m-fold W product and one member of each class, and it is slow:
about 2.7 s at N_A = 2, m = 7 and 5 s at N_A = 3, m = 4.
"""
from __future__ import annotations

import math
from itertools import chain

import numpy as np

from deeptherm.dual_tensors import build_w
from deeptherm.linalg import _trace_maps, multiset_factorials, sym_basis
from deeptherm.permgroup import class_size, conjugacy_classes, irrep_dimension
from test_permgroup import character


def _orbit_contract(T: np.ndarray, mat: np.ndarray, m: int) -> np.ndarray:
    """X[o, l] = sum_{M in o} sum_i prod_j mat[M_j, i_j] T[l, i_1..i_m] for mat (d x r),
    T with L rows of r^m entries (C order of its shape) and o in sym_basis(d, m) order.

    Each step is one GEMM on the last mode that writes its digit first, and the
    digit joins the multiset of those contracted before it.
    """
    L, (d, r) = len(T), mat.shape
    T = T.reshape(1, -1)
    for j in range(m):
        Y = (mat @ T.reshape(-1, r).T).reshape(d, len(T), -1)
        T = np.zeros((math.comb(d + j, j + 1), Y.shape[2]), dtype=Y.dtype)
        for mu, rows in enumerate(_trace_maps(d, j + 1, 1)[0]):
            T[rows] += Y[mu]
    return T.reshape(-1, L)


def orbit_bundle(n_a: int, m: int):
    """(order, P) with P[r, c, o] = sum_s K[rep_r, s] * sum_{gamma in c} O[o, gamma(a), b]:
    K the m-fold W product, O the sum of conj(K) over the codes of multiset o,
    gamma(a) the a-legs permuted by gamma, order the class order along c."""
    w = build_w(n_a)
    dA, q = 2**n_a, 2 ** w.t_legs
    wm = w.data.reshape(dA, q * q)
    O = np.ones((1, 1), dtype=np.complex128)
    for j in range(m):
        grown = np.zeros((math.comb(dA + j, j + 1), O.shape[1] * q * q), dtype=np.complex128)
        for mu, rows in enumerate(_trace_maps(dA, j + 1, 1)[0]):
            grown[rows] += (O[:, :, None] * wm[mu].conj()).reshape(len(O), -1)
        O = grown
    R = len(O)
    legs = O.reshape((R,) + (q,) * (2 * m))
    scale = multiset_factorials(sym_basis(dA, m).idx, dA) / math.factorial(m)
    classes = conjugacy_classes(m)
    P = np.empty((R, len(classes), R), dtype=np.complex128)
    for i, members in enumerate(classes.values()):
        axes = chain.from_iterable((1 + 2 * g, 2 + 2 * j) for j, g in enumerate(members[0].images))
        P[:, i] = (len(members) * scale)[:, None] * _orbit_contract(legs.transpose(0, *axes), wm, m)
    return tuple(classes), P


def per_class(blocks: dict, mu: tuple):
    """A class's block from the isotypic ones: sum_lam |c| chi_lam(c) / f_lam block_lam."""
    return sum(class_size(mu) * character(lam, mu) / irrep_dimension(lam) * blocks[lam]
               for lam in sorted(blocks))
