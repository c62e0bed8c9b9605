from __future__ import annotations

import warnings

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


def _born_weights(psi, exponent):
    """p_b^exponent for the Born weights p_b = |psi_b|^2 of the rows, zero below P_FLOOR."""
    p = np.einsum("bs,bs->b", psi, psi.conj()).real
    kept = p >= kernels.P_FLOOR
    w = np.zeros(len(p))
    w[kept] = p[kept] ** exponent
    return w


def _accumulate(psi, k, exponent):
    """One kernel call on all the rows of psi, as columns block_rows(D) at a time."""
    da = psi.shape[1]
    rows = kernels.block_rows(len(sym_basis(da, k).coef))
    cols = psi.T
    return kernels.accumulate_blocks((cols[:, lo : lo + rows] for lo in range(0, len(psi), rows)), da, k, exponent)


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


def test_blocks_refilled_into_one_buffer_match_one_call_bitwise(rng):
    # blocks copied in turn into one buffer give one call on all the columns
    b = 2 * kernels.ROW_BLOCK + 5
    psi = rng.standard_normal((b, 4)) + 1j * rng.standard_normal((b, 4))
    seen = []

    def refilled(rows):
        buf = np.empty((4, rows), dtype=complex)
        for lo in range(0, b, rows):
            n = min(rows, b - lo)
            buf[:, :n] = psi[lo : lo + n].T
            seen.append(buf[:, :n].copy())
            yield buf[:, :n]
            # the kernel scales a copy: the caller's block is left as it was given
            assert buf[:, :n].tobytes() == seen[-1].tobytes()

    for k in (1, 2, 3):
        rows = kernels.block_rows(len(sym_basis(4, k).coef))
        got = kernels.accumulate_blocks(refilled(rows), 4, k, 1 - k)
        assert got.tobytes() == _accumulate(psi, k, 1 - k).tobytes()


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
            got = kernels.accumulate_blocks([view], 4, k, 1 - k)
            ref = kernels.accumulate_blocks([copy.reshape(4, -1)], 4, k, 1 - k)
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
        out = kernels.accumulate_blocks([psi.T], 2, 1, -1)
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
