"""Dense complex linear algebra with fixed index conventions.

Conventions used across the package:
  * register/qubit 0 is the most significant bit of a flattened index;
  * replica (copy) index varies slower than the intra-replica index;
  * vectorization interleaves (ket, bra) per copy, so the vectorized
    permutation state on m copies of a q-qubit space reads
    |P_q(s)> = sum |i_1, i_{s(1)}, i_2, i_{s(2)}, ..., i_m, i_{s(m)}>;
  * the symmetric subspace Sym^k(C^d) has the orthonormal basis
    |alpha> = coef_alpha^-1 sum_{codes in alpha} |code>, one vector per
    multiset alpha of k digits, in itertools.combinations_with_replacement
    order, with coef_alpha = sqrt(k!/alpha!) (alpha! = product of the
    factorials of the digit multiplicities; coef_alpha^2 codes share alpha).
    An operator rho on (C^d)^{(x)k} supported on Sym^k is held as its
    D x D block r = <alpha|rho|beta>, D = C(d+k-1, k).  Every moment of the
    package lives there, and the Haar moment is the identity over D.  The
    basis is built from the multisets alone (sym_index, multiset_factorials);
    no array over the d^k replica codes is formed.

Every index map between Sym levels lives here: _parent_rows drops a last digit,
_trace_maps adds n.  sym_partial_trace, the trace over the last n copies, gives
the exact route its lower orders and the replica route its capped diagrams.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .permgroup import Permutation

MEM_BUDGET_BYTES = 3_500_000_000  # largest working set a route may allocate; checked up front
CHECK_ENTRIES = 2**16  # entries per row block of trace_norm's finiteness scan


def permutation_vector_state(p: Permutation, q: int) -> np.ndarray:
    """Vectorized permutation operator on m = p.degree copies of a q-qubit space.

    Unnormalized; inner products satisfy <P_q(t)|P_q(s)> = (2^q)^{#(s t^-1)}.
    One identity per copy ties subscript j to m + j, and the output reads
    the interleaved subscripts (j, m + p(j)).
    """
    m, eye = p.degree, np.eye(2**q, dtype=complex)
    ops = [x for j in range(m) for x in (eye, [j, m + j])]
    return np.einsum(*ops, [x for j in range(m) for x in (j, m + p.images[j])]).ravel()


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values.

    The finiteness test reads a in blocks of rows, so it holds no dim x dim
    temporary.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    rows = max(1, CHECK_ENTRIES // max(len(a), 1))
    if not all(np.isfinite(a[lo : lo + rows]).all() for lo in range(0, len(a), rows)):
        raise ValueError("non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False).sum())


class SymBasis(NamedTuple):
    idx: np.ndarray  # (D, k) digits of each multiset, nondecreasing
    coef: np.ndarray  # (D,) sqrt(k!/alpha!)


def multiset_factorials(digits: np.ndarray, d: int) -> np.ndarray:
    """alpha! = prod_v (multiplicity of digit v)! for each row of digits (..., k).

    alpha! counts the position permutations that fix a code of the multiset.
    """
    counts = (digits[..., None] == np.arange(d)).sum(axis=-2)
    fact = np.array([math.factorial(i) for i in range(digits.shape[-1] + 1)])
    return fact[counts].prod(axis=-1)


def sym_index(digits: np.ndarray, d: int) -> np.ndarray:
    """Position in sym_basis(d, k) of the multiset of each row of digits (..., k)."""
    place = d ** np.arange(digits.shape[-1] - 1, -1, -1)
    # sorted digit tuples in lexicographic order have increasing codes
    return np.searchsorted(sym_basis(d, digits.shape[-1]).idx @ place, np.sort(digits, axis=-1) @ place)


@lru_cache(maxsize=None)
def sym_basis(d: int, k: int) -> SymBasis:
    """The multiset basis of Sym^k(C^d) (see the module docstring)."""
    idx = np.array(list(itertools.combinations_with_replacement(range(d), k)), dtype=np.intp)
    coef = np.sqrt(math.factorial(k) // multiset_factorials(idx, d))  # k!/alpha! codes per multiset
    for a in (idx, coef):
        a.setflags(write=False)
    return SymBasis(idx, coef)


@lru_cache(maxsize=None)
def _parent_rows(d: int, k: int) -> np.ndarray:
    """Row in sym_basis(d, k - 1) of each level-k multiset without its last digit."""
    out = sym_index(sym_basis(d, k).idx[:, :-1], d)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _trace_maps(d: int, k: int, n: int) -> tuple:
    """(rows, weights), two (D_n, D') arrays over the n-digit multisets delta
    (sym_basis(d, n) order) and the Sym^(k-n) multisets beta: the row in
    sym_basis(d, k) of beta with delta added, and coef_delta coef_beta / coef_(beta+delta).
    They are filled one delta at a time, so no temporary outgrows a row."""
    low, top, caps = sym_basis(d, k - n), sym_basis(d, k), sym_basis(d, n)
    rows = np.empty((len(caps.idx), len(low.idx)), dtype=np.intp)
    weights = np.empty(rows.shape)
    for j, (digits, c) in enumerate(zip(*caps)):
        rows[j] = sym_index(np.column_stack([low.idx, np.broadcast_to(digits, (len(low.idx), n))]), d)
        weights[j] = c * low.coef / top.coef[rows[j]]
    for a in (rows, weights):
        a.setflags(write=False)
    return rows, weights


def sym_partial_trace(r: np.ndarray, d: int, k: int, n: int = 1) -> np.ndarray:
    """Sym^(k-n) block of the trace over the last n copies of the operator rho
    on (C^d)^{(x)k} whose Sym^k block is r; r may be a (..., D, D) stack of blocks:

        r'[beta, gamma] = sum_delta w_beta,delta r[beta+delta, gamma+delta] w_gamma,delta,

    delta over the n-digit multisets, beta+delta the union, and
    w_beta,delta = coef_delta coef_beta / coef_(beta+delta) (coef_delta^2 codes
    of the traced copies share delta).  Each term gathers one D' x D' block of
    each r, D' = C(d+k-n-1, k-n), so the sum holds one temporary of that size
    per block beside the result.
    """
    maps = _trace_maps(d, k, n)
    out = np.zeros(r.shape[:-2] + (maps[0].shape[1],) * 2, dtype=r.dtype)
    for rows, ratio in zip(*maps):
        g = r[..., rows[:, None], rows]
        g *= ratio[:, None]
        g *= ratio
        out += g
        del g  # before the next gather
    return out


def sym_haar_distance(r: np.ndarray):
    """||rho - rho_Haar||_1 for the k-th moment rho with Sym^k block r: a float,
    or an array of them for a (..., D, D) stack of blocks.

    rho_Haar is the projector onto Sym^k over D, so the distance is
    sum_i |lambda_i(r) - 1/D|: one D x D eigvalsh, no Haar operator.  The
    difference r - I/D is diagonalized, so each term keeps its relative
    accuracy when lambda_i is close to 1/D.
    """
    D = r.shape[-1]
    dev = (r + r.conj().swapaxes(-1, -2)) / 2
    np.einsum("...ii->...i", dev)[...] -= 1.0 / D  # a writeable view of each diagonal
    dist = np.abs(np.linalg.eigvalsh(dev)).sum(axis=-1)
    return float(dist) if r.ndim == 2 else dist


def partial_trace(a: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out the factors of a = op on (x) H_i not listed in `keep`."""
    dims = list(dims)
    keep = sorted(keep)
    n = len(dims)
    if a.shape != (int(np.prod(dims)), int(np.prod(dims))):
        raise ValueError(f"shape {a.shape} does not factor as {dims}")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep indices out of range")
    T = a.reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for count, i in enumerate(drop):
        ax = i - sum(1 for j in drop[:count] if j < i)
        T = np.trace(T, axis1=ax, axis2=ax + T.ndim // 2)
    dkeep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return T.reshape(dkeep, dkeep)


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out
