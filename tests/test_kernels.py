from __future__ import annotations

import numpy as np

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


def test_moment_accumulate_matches_kron_oracle(rng):
    # a row count past one block and not a multiple of it exercises both block edges
    b = kernels.ROW_BLOCK + 17
    psi = rng.standard_normal((b, 2)) + 1j * rng.standard_normal((b, 2))
    w = rng.random(b)
    w[[0, kernels.ROW_BLOCK - 1, kernels.ROW_BLOCK, b - 1]] = 0.0
    for k in (1, 2, 3):
        ref = _kron_moment(psi, w, k)
        out = sym_embed(kernels.moment_accumulate(psi, w, k), 2, k)
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
    w = rng.random((4, b))
    w[:, [0, 7, b - 1]] = 0.0
    for k in (1, 2, 3, 4):
        ref = _direct_sym_blocks(psi, w[k - 1], k)
        out = kernels.moment_accumulate(psi, w[k - 1], k)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_blocks_refilled_into_one_buffer_match_one_call_bitwise(rng):
    # kim.moments_from_state copies each block of outcomes into the same buffer
    b = 2 * kernels.ROW_BLOCK + 5
    psi = rng.standard_normal((b, 4)) + 1j * rng.standard_normal((b, 4))
    w = rng.random(b)
    rows = kernels.block_rows(20)
    seen = []

    def refilled():
        buf = np.empty((4, rows), dtype=complex)
        for lo in range(0, b, rows):
            n = min(rows, b - lo)
            buf[:, :n] = psi[lo : lo + n].T
            seen.append(buf[:, :n].copy())
            yield buf[:, :n], w[lo : lo + n]
            # the kernel scales a copy: the caller's block is left as it was given
            assert buf[:, :n].tobytes() == seen[-1].tobytes()

    for k in (1, 2, 3):
        got = kernels.accumulate_blocks(refilled(), 4, k)
        assert got.tobytes() == kernels.moment_accumulate(psi, w, k).tobytes()
    # psi whose transpose is C-contiguous is used without a copy, and is not written either
    fortran = np.asfortranarray(psi)
    kernels.moment_accumulate(fortran, w, 3)
    assert fortran.tobytes(order="A") == np.asfortranarray(psi).tobytes(order="A")


def test_moment_accumulate_small_block_cap_matches_kron_oracle(rng, monkeypatch):
    # a cap of 8 Sym^k entries gives blocks of 4, 2 and 2 rows for k = 1, 2, 3 (D = 2, 3, 4)
    b = 37
    psi = rng.standard_normal((b, 2)) + 1j * rng.standard_normal((b, 2))
    w = rng.random(b)
    w[[0, 3, 4, b - 1]] = 0.0
    full = [sym_embed(kernels.moment_accumulate(psi, w, k), 2, k) for k in (1, 2, 3)]
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 8)
    for k, ref_full in zip((1, 2, 3), full):
        ref = _kron_moment(psi, w, k)
        out = sym_embed(kernels.moment_accumulate(psi, w, k), 2, k)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(out - ref_full).max() <= 1e-12 * np.abs(ref).max()


def test_moment_accumulate_returns_sym_block(rng):
    # the D x D block of the k-fold sum, D = C(dA+k-1, k)
    psi = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w = rng.random(50)
    for k, D in ((1, 4), (2, 10), (3, 20)):
        out = kernels.moment_accumulate(psi, w, k)
        assert out.shape == (D, D) == (len(sym_basis(4, k).coef),) * 2
        ref = sym_compress(_kron_moment(psi, w, k), 4, k)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_moment_accumulate_skips_zero_weights(rng):
    psi = np.ones((3, 2), dtype=complex)
    w = np.array([1.0, 0.0, 2.0])
    out = kernels.moment_accumulate(psi, w, 1)
    np.testing.assert_allclose(out, 3.0 * np.ones((2, 2)), atol=1e-14)


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
