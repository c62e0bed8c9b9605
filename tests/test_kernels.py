from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

import deeptherm._kernels as kernels
from deeptherm.linalg import sym_basis
from fullspace import sym_compress, sym_embed


def _kron_moment(psi, w, k):
    """Oracle: sum_b w_b (|psi_b><psi_b|)^{(x)k}, one explicit outer product per row."""
    dim = psi.shape[1] ** k
    out = np.zeros((dim, dim), dtype=complex)
    for row, wb in zip(psi, w):
        v = np.ones(1, dtype=complex)
        for _ in range(k):
            v = np.kron(v, row)
        out += wb * np.outer(v, v.conj())
    return out


def _born_weights(psi, exponent):
    """p_b^exponent for the Born weights p_b = |psi_b|^2 of the rows, zero below P_FLOOR."""
    p = np.einsum("bs,bs->b", psi, psi.conj()).real
    kept = p >= kernels.P_FLOOR
    w = np.zeros(len(p))
    w[kept] = p[kept] ** exponent
    return w


def _accumulate(psi, k, exponent):
    """One kernel call on all the rows of psi, handed as the columns of a view."""
    return kernels.accumulate_blocks(psi.T, k, exponent)


def test_moment_accumulate_matches_kron_oracle(rng):
    # a row count past one block and not a multiple of it exercises both block edges
    b = kernels.ROW_BLOCK + 17
    psi = rng.standard_normal((b, 2)) + 1j * rng.standard_normal((b, 2))
    psi[[0, kernels.ROW_BLOCK - 1, kernels.ROW_BLOCK, b - 1]] = 0.0
    for k in (1, 2, 3):
        for exponent in (1 - k, 0.5):
            ref = _kron_moment(psi, _born_weights(psi, exponent), k)
            out = sym_embed(_accumulate(psi, k, exponent), 2, k)
            assert out.shape == ref.shape
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def _direct_sym_blocks(psi, w, k):
    """sum_b w_b v_b v_b^+ per block_rows(D) rows, v_b[alpha] = coef_alpha prod_i psi_b[idx[alpha, i]]
    built row by row from the digits, D-major, with the coefficients and weights on the rows."""
    basis = sym_basis(psi.shape[1], k)
    D = len(basis.coef)
    out = np.zeros((D, D), dtype=complex)
    rows = kernels.block_rows(D)
    for lo in range(0, len(psi), rows):
        blk = psi[lo : lo + rows].T
        v = blk[basis.idx[:, 0]]
        for j in range(1, k):
            v *= blk[basis.idx[:, j]]
        v *= basis.coef[:, None]
        out += (v * w[lo : lo + rows]) @ v.conj().T
    return out


def test_level_grown_rows_match_direct_products(rng):
    b = 2 * kernels.ROW_BLOCK + 5
    psi = rng.standard_normal((b, 3)) + 1j * rng.standard_normal((b, 3))
    psi[[0, 7, b - 1]] = 0.0
    for k in (1, 2, 3, 4):
        ref = _direct_sym_blocks(psi, _born_weights(psi, 1 - k), k)
        out = _accumulate(psi, k, 1 - k)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_ragged_blocks_of_a_strided_view_match_kron_oracle(rng, monkeypatch):
    # a (dA, A, B) = (3, 5, 7) view with a column stride of two; rows = 3 cuts
    # each slab into 3 + 3 + 1 columns, rows = 16 into runs of 2, 2 and 1 slabs
    base = rng.standard_normal((5, 3, 14)) + 1j * rng.standard_normal((5, 3, 14))
    view = base.transpose(1, 0, 2)[:, :, ::2]
    view[:, 1, 3] = 0.0
    before = view.copy()
    psi = view.reshape(3, -1).T  # the columns in B-fastest order
    for k in (1, 2, 3):
        D = len(sym_basis(3, k).coef)
        for rows in (3, 16):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows * D)
            assert kernels.block_rows(D) == rows
            ref = _kron_moment(psi, _born_weights(psi, 1 - k), k)
            out = sym_embed(kernels.accumulate_blocks(view, k, 1 - k), 3, k)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
            assert view.tobytes() == before.tobytes()


# the ids name k at dA = 4, and dA and k elsewhere; at dA = 2 and at k = 1,
# D is close to dA and the float rows and casting buffers weigh most
_BYTE_CASES = [(4, 2), (4, 3), (4, 5), (2, 1), (2, 2), (2, 3), (2, 5), (4, 1), (8, 1)]
_BYTE_IDS = ["2", "3", "5", "da2-1", "da2-2", "da2-3", "da2-5", "da4-1", "da8-1"]


# 3000 states are more than one block, so the count's min(block_rows(D), n) is
# block_rows(D); at 10 states the call's fixed objects weigh most
@pytest.mark.parametrize("da,k,n", [c + (3000,) for c in _BYTE_CASES] + [c + (10,) for c in _BYTE_CASES],
                         ids=_BYTE_IDS + [f"n10-{i}" for i in _BYTE_IDS])
def test_accumulate_bytes_bounds_traced_peak(rng, da, k, n):
    psi = rng.standard_normal((da, n)) + 1j * rng.standard_normal((da, n))
    kernels.accumulate_blocks(psi[:, :10], k, 1 - k)  # the basis caches are built once per process
    tracemalloc.start()
    try:
        kernels.accumulate_blocks(psi, k, 1 - k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernels.accumulate_bytes(da, k, psi.shape[1]) <= 2 * peak


def test_strided_views_match_contiguous_copies_bitwise(rng):
    # kim hands views of the state: a column block of one z1 slab, or whole
    # (dA, slabs, z2) slabs; MC hands column slices of its (dA, S) states
    state = rng.standard_normal(2 * 4 * 64 * 8).view(complex)
    amps = state.reshape(64, 4, 8).transpose(1, 0, 2)  # (sigma, z1, z2)
    psi = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
    psi[:, 100] = 0.0
    for view in (amps[:, 3, 2:6], amps[:, 16:48], psi[:, 40:290], amps.transpose(0, 2, 1)[:, :, 1:9]):
        before = view.copy()
        copy = np.ascontiguousarray(view)
        for k in (1, 2, 3):
            got = kernels.accumulate_blocks(view, k, 1 - k)
            ref = kernels.accumulate_blocks(copy.reshape(4, -1), k, 1 - k)
            assert got.tobytes() == ref.tobytes()
        assert view.tobytes() == before.tobytes()


def test_moment_accumulate_small_block_cap_matches_kron_oracle(rng, monkeypatch):
    # a cap of 8 Sym^k entries gives blocks of 4, 2 and 2 rows for k = 1, 2, 3 (D = 2, 3, 4)
    b = 37
    psi = rng.standard_normal((b, 2)) + 1j * rng.standard_normal((b, 2))
    psi[[0, 3, 4, b - 1]] = 0.0
    full = [sym_embed(_accumulate(psi, k, 1 - k), 2, k) for k in (1, 2, 3)]
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 8)
    for k, ref_full in zip((1, 2, 3), full):
        ref = _kron_moment(psi, _born_weights(psi, 1 - k), k)
        out = sym_embed(_accumulate(psi, k, 1 - k), 2, k)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(out - ref_full).max() <= 1e-12 * np.abs(ref).max()


def test_moment_accumulate_returns_sym_block(rng):
    # the D x D block of the k-fold sum, D = C(dA+k-1, k)
    psi = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    for k, D in ((1, 4), (2, 10), (3, 20)):
        out = _accumulate(psi, k, 1 - k)
        assert out.shape == (D, D) == (len(sym_basis(4, k).coef),) * 2
        ref = sym_compress(_kron_moment(psi, _born_weights(psi, 1 - k), k), 4, k)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_moment_accumulate_skips_zero_weights():
    # at exponent -k every kept state adds its unit-trace projector; the zero
    # state and the one at P_FLOOR / 2 add nothing, with no warning
    psi = np.array([[1.0, 0.0], [0.0, 0.0], [np.sqrt(kernels.P_FLOOR / 2), 0.0],
                    [0.0, 2 * np.sqrt(kernels.P_FLOOR)]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = kernels.accumulate_blocks(psi.T, 1, -1)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-14)


def test_haar_from_ginibre_unitary_canonical_phase(rng):
    z = (rng.standard_normal((50, 8, 8)) + 1j * rng.standard_normal((50, 8, 8))) / np.sqrt(2)
    q = kernels.haar_from_ginibre(z)
    assert np.abs(np.einsum("bji,bjk->bik", q.conj(), q) - np.eye(8)).max() <= 1e-12
    # canonical factor: the R diagonal is real positive, so the map is a
    # deterministic function of the Ginibre draw
    r = np.einsum("bji,bjk->bik", q.conj(), z)
    diags = np.einsum("bii->bi", r)
    assert np.abs(diags.imag).max() <= 1e-10
    assert diags.real.min() > 0
