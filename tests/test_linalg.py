from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from deeptherm._kernels import haar_from_ginibre
from deeptherm.linalg import (
    kron_all,
    multiset_factorials,
    partial_trace,
    permutation_vector_state,
    sym_basis,
    sym_haar_distance,
    sym_index,
    sym_partial_trace,
    trace_norm,
)
from deeptherm.permgroup import Permutation, enumerate_sym
from fullspace import (
    digit_permute_codes,
    haar_moment_operator,
    permutation_operator,
    sym_compress,
    sym_embed,
    sym_orbit,
    sym_rep,
)


def test_trace_norm_basics():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    assert trace_norm(np.eye(5)) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        trace_norm(np.array([[np.inf, 0], [0, 1.0]]))


def test_trace_norm_adjoint_and_triangle(rng):
    for _ in range(5):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert trace_norm(a) == pytest.approx(trace_norm(a.conj().T), rel=1e-10)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_norm_checks_hold_no_dim_squared_temporary(rng):
    # a non-Hermitian input goes to the SVD; the finiteness test before it
    # may add row blocks, not a dim x dim conjugate or difference
    dim = 512
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    trace_norm(a[:8, :8])  # first-use imports
    svd_peak = _traced_peak(np.linalg.svd, a, False, False)
    assert _traced_peak(trace_norm, a) <= svd_peak + 16 * dim * dim


def test_partial_trace_bell_and_product(rng):
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, [2, 2], keep=[0]), np.eye(2) / 2, atol=1e-14)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(
        partial_trace(np.kron(a, b), [2, 3], keep=[0]), a * np.trace(b), atol=1e-12
    )
    full = np.kron(a, b)
    assert np.trace(partial_trace(full, [2, 3], keep=[1])) == pytest.approx(
        np.trace(full), rel=1e-12
    )
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), [2, 2], keep=[0])


def test_permutation_vector_state_examples():
    e1 = Permutation((0,))
    np.testing.assert_array_equal(
        permutation_vector_state(e1, 1).real, np.array([1.0, 0.0, 0.0, 1.0])
    )
    e2, swap = enumerate_sym(2)
    v_e = permutation_vector_state(e2, 1)
    v_sw = permutation_vector_state(swap, 1)
    assert np.vdot(v_e, v_sw).real == pytest.approx(2.0)
    cyc = Permutation((1, 2, 0))
    assert np.vdot(
        permutation_vector_state(Permutation((0, 1, 2)), 2), permutation_vector_state(cyc, 2)
    ).real == pytest.approx(4.0)


@pytest.mark.parametrize("q", [1, 2])
def test_permutation_vector_gram(q):
    from deeptherm.permgroup import cycle_count

    for s in enumerate_sym(3):
        for t in enumerate_sym(3):
            val = np.vdot(permutation_vector_state(t, q), permutation_vector_state(s, q)).real
            assert val == pytest.approx((2.0**q) ** cycle_count(s.compose(t.inverse())))


def test_permutation_vector_ket_side_composition():
    # permuting the ket-side registers (even tensor slots) is closed on the
    # permutation states; under this package's conventions the realized law
    # is |P(s)> -> |P(pi^-1 s)| when out-slot j reads in-slot pi(j)
    q = 1
    d = 2**q
    for s in enumerate_sym(3):
        for pi in enumerate_sym(3):
            v = permutation_vector_state(s, q)
            V = v.reshape([d] * 6)
            perm_axes = [0] * 6
            for j in range(3):
                perm_axes[2 * j] = 2 * pi.images[j]
                perm_axes[2 * j + 1] = 2 * j + 1
            moved = np.transpose(V, perm_axes).reshape(-1)
            target = pi.inverse().compose(s)
            np.testing.assert_array_equal(
                moved, permutation_vector_state(target, q).real
            )


def test_haar_moment_small():
    np.testing.assert_allclose(haar_moment_operator(2, 1), np.eye(4) / 4, atol=1e-14)
    swap = permutation_operator(Permutation((1, 0)), 2)
    np.testing.assert_allclose(haar_moment_operator(1, 2), (np.eye(4) + swap) / 6, atol=1e-14)
    h22 = haar_moment_operator(2, 2)
    assert np.trace(h22).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(h22)
    assert int((evals > 1e-12).sum()) == 10  # dim of the symmetric subspace


def test_haar_moment_vs_sampling(rng):
    # second moment against 1e5 Haar single-qubit states, within 4 standard errors
    m = 100_000
    z = (rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))) / np.sqrt(2)
    states = haar_from_ginibre(z)[:, :, 0]
    v = np.einsum("bi,bj->bij", states, states).reshape(m, 4)
    est = np.einsum("bi,bj->ij", v, v.conj()) / m
    target = haar_moment_operator(1, 2)
    se = 4 / np.sqrt(m)
    assert np.abs(est - target).max() < 4 * se


def test_haar_moment_first_twirl(rng):
    m = 100_000
    z = (rng.standard_normal((m, 4, 4)) + 1j * rng.standard_normal((m, 4, 4))) / np.sqrt(2)
    u = haar_from_ginibre(z)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    twirl = np.einsum("bij,jk,blk->il", u, a, u.conj()) / m
    target = np.trace(a) * np.eye(4) / 4
    assert np.abs(twirl - target).max() < 4 * (np.abs(a).max() / np.sqrt(m)) * 4


def test_haar_moment_partial_trace_reduction():
    for n_a, k in [(1, 3), (2, 2)]:
        d = 2**n_a
        hk = haar_moment_operator(n_a, k)
        reduced = partial_trace(hk, [d] * k, keep=list(range(k - 1)))
        np.testing.assert_allclose(reduced, haar_moment_operator(n_a, k - 1), atol=1e-12)


def test_unitary_invariance_identity_grounds_gauge_freedom(rng):
    # (V x V*)^{(x)m}|P(s)> = |P(s)> for every s simultaneously
    z = (rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))) / np.sqrt(2)
    v = haar_from_ginibre(z)[0]
    op = kron_all([np.kron(v, v.conj())] * 3)
    for s in enumerate_sym(3):
        vec = permutation_vector_state(s, 1)
        assert np.linalg.norm(op @ vec - vec) <= 1e-12


def test_digit_permute_codes_roundtrip():
    perm = (2, 0, 1)
    idx = digit_permute_codes(perm, 3)
    inv = (1, 2, 0)
    idx_inv = digit_permute_codes(inv, 3)
    assert np.array_equal(idx[idx_inv], np.arange(27))


def test_haar_moment_commutes_with_tensor_power_unitaries(rng):
    # [rho_Haar^(k), V^{(x)k}] = 0 for any unitary V on one copy
    for n_a, k in [(1, 3), (2, 2)]:
        d = 2**n_a
        h = haar_moment_operator(n_a, k)
        z = (rng.standard_normal((1, d, d)) + 1j * rng.standard_normal((1, d, d))) / np.sqrt(2)
        v = haar_from_ginibre(z)[0]
        vk = kron_all([v] * k)
        assert np.abs(vk @ h - h @ vk).max() <= 1e-12


SYM_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (4, 2), (4, 3), (4, 4), (8, 2)]


def _random_sym_block(rng, D):
    """A random unit-trace PSD D x D block."""
    g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    r = g @ g.conj().T
    return r / np.trace(r).real


def _multinomials(idx, k):
    """k!/alpha! for each multiset row of idx, from Python's integer factorials."""
    return [math.factorial(k) // math.prod(math.factorial(row.count(c)) for c in set(row))
            for row in map(list, idx)]


@pytest.mark.parametrize("d,k", SYM_CASES)
def test_sym_basis_orbits(d, k):
    basis = sym_basis(d, k)
    orbit, rep = sym_orbit(d, k), sym_rep(d, k)
    D = math.comb(d + k - 1, k)
    assert basis.idx.shape == (D, k) and basis.coef.shape == rep.shape == (D,)
    assert np.all(np.diff(basis.idx, axis=1) >= 0)
    # the orbit of alpha holds k!/alpha! = coef^2 codes, d^k in all
    multinomial = _multinomials(basis.idx, k)
    np.testing.assert_array_equal(np.bincount(orbit, minlength=D), multinomial)
    np.testing.assert_allclose(basis.coef**2, multinomial, rtol=1e-15)
    assert sum(multinomial) == d**k
    assert np.array_equal(orbit[rep], np.arange(D))
    # every code of an orbit is a digit permutation of its representative
    place = d ** np.arange(k - 1, -1, -1)
    digits = (np.arange(d**k)[:, None] // place) % d
    np.testing.assert_array_equal(np.sort(digits, axis=1), basis.idx[orbit])


@pytest.mark.parametrize("d,k", SYM_CASES)
def test_sym_basis_coef_is_sqrt_multinomial(d, k):
    # coef comes from the multiplicities in idx alone, with no replica code indexed
    np.testing.assert_array_equal(sym_basis(d, k).coef, np.sqrt(_multinomials(sym_basis(d, k).idx, k)))
    # and the multiset factorials give alpha! = k!/multinomial
    assert multiset_factorials(sym_basis(d, k).idx, d).tolist() == [
        math.factorial(k) // c for c in _multinomials(sym_basis(d, k).idx, k)]


@pytest.mark.parametrize("d,k", SYM_CASES)
def test_sym_embed_compress_round_trip(d, k, rng):
    D = len(sym_basis(d, k).coef)
    r = _random_sym_block(rng, D)
    full = sym_embed(r, d, k)
    # a unit-trace isometric image, symmetric under every copy permutation
    assert np.trace(full).real == pytest.approx(1.0, abs=1e-14)
    for p in enumerate_sym(k):
        P = permutation_operator(p, d)
        assert np.abs(P @ full - full).max() <= 1e-15
    back = sym_compress(full, d, k)
    assert np.abs(back - r).max() <= 1e-15 * np.abs(r).max()


@pytest.mark.parametrize("d,k", SYM_CASES)
def test_sym_haar_distance_matches_dense_trace_norm(d, k, rng):
    haar = haar_moment_operator(int(np.log2(d)), k)
    D = len(sym_basis(d, k).coef)
    np.testing.assert_allclose(sym_embed(np.eye(D) / D, d, k), haar, atol=1e-15)
    rs = (_random_sym_block(rng, D), 0.7 * np.eye(D) / D + 0.3 * _random_sym_block(rng, D))
    for r in rs:
        dense = trace_norm(sym_embed(r, d, k) - haar)
        assert abs(sym_haar_distance(r) - dense) <= 1e-12
    # a stack gives each block's distance, bit for bit
    assert sym_haar_distance(np.array(rs)).tolist() == [sym_haar_distance(r) for r in rs]


def _one_copy_trace(r, d, k):
    """The exact route's trace over one copy, one gather per digit i: at n = 1
    sym_partial_trace must take these operations, so the exact route's moments
    keep their bytes."""
    low, high = sym_basis(d, k - 1), sym_basis(d, k)
    out = np.zeros((len(low.coef),) * 2, dtype=r.dtype)
    for i in range(d):
        rows = sym_index(np.column_stack([low.idx, np.full(len(low.idx), i)]), d)
        ratio = low.coef / high.coef[rows]
        g = r[np.ix_(rows, rows)]
        g *= ratio[:, None]
        g *= ratio
        out += g
    return out


@pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3, 4) for k in (2, 3, 4)])
def test_sym_partial_trace_matches_dense_partial_trace(d, k, rng):
    D = len(sym_basis(d, k).coef)
    r = _random_sym_block(rng, D)
    blocks = (r, r + 1j * rng.standard_normal((D, D)))  # Hermitian or not
    for n in range(k):
        refs = [sym_compress(partial_trace(sym_embed(block, d, k), [d] * k, keep=range(k - n)), d, k - n)
                for block in blocks]
        for block, ref in zip(blocks, refs):
            got = sym_partial_trace(block, d, k, n)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        stacked = sym_partial_trace(np.array(blocks), d, k, n)
        assert stacked.shape == (2,) + refs[0].shape
        assert max(np.abs(g - ref).max() / np.abs(ref).max() for g, ref in zip(stacked, refs)) <= 1e-13
    for block in blocks:
        assert np.array_equal(sym_partial_trace(block, d, k), _one_copy_trace(block, d, k))


def test_sym_compress_refuses_antisymmetric_part():
    # (I - SWAP)/2 projects onto the antisymmetric square of C^4
    swap = permutation_operator(Permutation((1, 0)), 4)
    anti = (np.eye(16) - swap) / 2
    haar = haar_moment_operator(2, 2)
    sym_compress(haar, 4, 2)
    for eps in (0.1, 1e-9):
        with pytest.raises(ValueError, match="Sym"):
            sym_compress((1 - eps) * haar + eps * anti / 6, 4, 2)
    # weight outside the symmetric subspace that is not antisymmetric either
    leak = np.zeros((16, 16))
    leak[1, 1] = 1.0  # |01><01| alone, without |10><10|
    with pytest.raises(ValueError, match="Sym"):
        sym_compress(0.9 * haar + 0.1 * leak, 4, 2)
