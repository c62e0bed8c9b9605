from __future__ import annotations

import itertools as it

import numpy as np
import pytest

from deeptherm.dual_tensors import (
    PI4,
    TensorConventionError,
    bond_phases,
    build_w,
    build_wprime,
    dual_site_layer,
    dump_wtensor,
    kick_matrix,
    load_wtensor,
    min_depth,
    reduce_temporal_operator,
)
from deeptherm.kim import KimConfig, evolve
from deeptherm.permgroup import cycle_count, enumerate_sym
from dense_circuit import kick_all, spin_table

G = 0.3


def test_kick_matrix_self_dual_form():
    K = kick_matrix(np.pi / 4)
    X = np.array([[0, 1], [1, 0]])
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(K, X @ H, atol=1e-15)


@pytest.mark.parametrize("n_a", [1, 2, 3, 4])
def test_w_isometry(n_a):
    w = build_w(n_a)
    assert w.data.shape == (2**n_a, 2 ** min_depth(n_a), 2 ** min_depth(n_a))
    assert w.isometry_defect() <= 1e-10


def test_wprime_shape_and_isometry_any_depth():
    w = build_wprime(2, 3, G)
    assert w.data.shape == (4, 8, 8)
    assert w.isometry_defect() <= 1e-10
    with pytest.raises(ValueError):
        build_wprime(2, 0, G)


def _dense_wprime(n_a: int, t: int, g: float) -> np.ndarray:
    """The subsystem columns contracted for t steps on a table of spins,
    bond legs open, rescaled to isometry constant 1; oracle for build_wprime.

    Bottom legs are fixed to |+>^n_a, top legs read out <sigma|; the left and
    right straddling gates enter as phases of the bond spins.
    """
    j = np.pi / 4
    dA, T = 2**n_a, 2**t
    S = np.full((dA, T, T), 2.0 ** (-n_a / 2), dtype=complex)
    spins = spin_table(n_a)
    energy = g * spins.sum(axis=0)
    for i in range(n_a - 1):
        energy = energy + j * spins[i] * spins[i + 1]
    interior_phase = np.exp(-1j * energy)
    K = kick_matrix(np.pi / 4)
    tau = np.arange(T)
    for step in range(t):
        bond_spin = 1.0 - 2.0 * ((tau >> (t - 1 - step)) & 1)  # step 0 = MSB of tau
        S *= interior_phase[:, None, None]
        S *= np.exp(-1j * j * spins[0][:, None, None] * bond_spin[None, :, None])
        S *= np.exp(-1j * j * spins[n_a - 1][:, None, None] * bond_spin[None, None, :])
        S = kick_all(S.reshape((2,) * n_a + (T, T)), n_a, K).reshape(dA, T, T)
    M = S.reshape(dA, -1)
    return S / np.sqrt(np.mean(np.einsum("ij,ij->i", M, M.conj()).real))


@pytest.mark.parametrize("g", [0.3, 0.7])
@pytest.mark.parametrize("n_a", [1, 2, 3, 4])
def test_wprime_matches_dense_contraction(n_a, g):
    # W from the dual site layers closed by the right bond's phases F; an F
    # computed as t - 2 popcount in the popcount's uint8 wraps and fails here
    for t in range(min_depth(n_a), 7):
        assert np.abs(build_wprime(n_a, t, g).data - _dense_wprime(n_a, t, g)).max() <= 1e-15


@pytest.mark.parametrize("n_a", [1, 2, 3, 4])
def test_w_slices_proportional_to_unitaries(n_a):
    # each W[sigma] is a product of dual layers and F, all unitary up to scale
    for t in range(min_depth(n_a), min_depth(n_a) + 3):
        T = 2**t
        for ws in build_wprime(n_a, t, G).data:
            assert np.abs(ws @ ws.conj().T - np.eye(T) / T).max() <= 1e-14


def test_spin_table_matches_stacked_rows():
    for n in range(1, 13):
        x = np.arange(2**n)
        ref = np.stack([1.0 - 2.0 * ((x >> (n - 1 - i)) & 1) for i in range(n)])
        got = spin_table(n)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _bath_tensor(cfg: KimConfig, t: int):
    """Bath-region network with bond projectors; oracle helper for W'.

    Returns B[z, tau, tau'] with z ordered as (left-bath bits, right-bath bits).
    """
    n, n_a, off = cfg.n, cfg.n_a, cfg.offset
    nb = n - n_a
    T = 2**t
    if cfg.bc == "pbc":
        sites = list(range(off + n_a, n)) + list(range(off))
        bonds = [(i, i + 1) for i in range(nb - 1)]
        left_col, right_col = nb - 1, 0
    else:
        sites = list(range(off)) + list(range(off + n_a, n))
        bonds = [(i, i + 1) for i in range(off - 1)] + [
            (off + j, off + j + 1) for j in range(nb - off - 1)
        ]
        left_col, right_col = off - 1, off
    pos = {s: i for i, s in enumerate(sites)}
    x = np.arange(2**nb)
    spins = spin_table(nb)
    energy = cfg.g * spins.sum(axis=0)
    for (i, j) in bonds:
        energy = energy + cfg.j * spins[i] * spins[j]
    if cfg.bc == "obc":
        energy = energy + cfg.b1 * spins[pos[0]] + cfg.bn * spins[pos[n - 1]]
    phases = np.exp(-1j * energy)
    K = kick_matrix(cfg.h)
    B = np.full((2**nb, T, T), 2.0 ** (-nb / 2), dtype=complex)
    bits_left = (x >> (nb - 1 - left_col)) & 1
    bits_right = (x >> (nb - 1 - right_col)) & 1
    tau = np.arange(T)
    for step in range(t):
        tl = (tau >> (t - 1 - step)) & 1
        B *= phases[:, None, None]
        B *= bits_left[:, None, None] == tl[None, :, None]
        B *= bits_right[:, None, None] == tl[None, None, :]
        B = kick_all(B.reshape((2,) * nb + (T, T)), nb, K).reshape(2**nb, T, T)
    # outcome bits back to physical (z1, z2) ordering
    phys = list(range(off)) + list(range(off + n_a, n))
    codes = np.zeros(2**nb, dtype=np.int64)
    for jt, site in enumerate(phys):
        codes |= (((x >> (nb - 1 - pos[site])) & 1) << (nb - 1 - jt))
    out = np.empty_like(B)
    out[codes] = B
    return out


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_wprime_reproduces_exact_amplitudes(bc):
    cfg = KimConfig(n=8, n_a=2, t=2, bc=bc, g=G)
    w = build_wprime(2, 2, G)
    bath = _bath_tensor(cfg, 2)
    pred = np.einsum("stu,ztu->zs", w.data, bath)
    state = evolve(cfg)
    off = cfg.offset
    direct = state.reshape(2**off, 4, 2 ** (cfg.n - 2 - off))
    direct = np.transpose(direct, (0, 2, 1)).reshape(-1, 4)
    lam = np.vdot(pred, direct) / np.vdot(pred, pred)
    assert np.abs(lam * pred - direct).max() / np.abs(direct).max() <= 1e-8


def _sandwich(wdata, sigma, tau, m):
    """Uncapped permutation sandwich <P(tau)|(W x W*)^m|P(sigma)> as a matrix."""
    import string

    k = m
    letters = string.ascii_letters
    row, col = letters[:k], letters[k : 2 * k]
    al = letters[2 * k : 2 * k + m]
    bl = letters[2 * k + m : 2 * k + 2 * m]
    ops, subs = [], []
    for j in range(m):
        subs.append(row[j] + al[j] + bl[j])
        ops.append(wdata)
    for j in range(m):
        subs.append(col[j] + al[sigma(j)] + bl[tau(j)])
        ops.append(wdata.conj())
    dA = wdata.shape[0]
    return np.einsum(",".join(subs) + "->" + row + col, *ops, optimize="greedy").reshape(
        dA**m, dA**m
    )


@pytest.mark.parametrize("n_a,m", [(1, 2), (2, 2), (1, 3)])
def test_wprime_time_factorization(n_a, m):
    # diagram values of W'(t), in the unit-isometry gauge, factor as
    # (2^(t-t0))^(#(s t^-1) - m) times the W(t0) values
    t0 = min_depth(n_a)
    wb = build_w(n_a)
    for t in (t0, t0 + 1, t0 + 2):
        wt = build_wprime(n_a, t, G)
        for sigma in enumerate_sym(m):
            for tau in enumerate_sym(m):
                nc = cycle_count(sigma.compose(tau.inverse()))
                scale = (2.0 ** (t - t0)) ** (nc - m)
                vt = _sandwich(wt.data, sigma, tau, m)
                vb = _sandwich(wb.data, sigma, tau, m)
                assert np.abs(vt / scale - vb).max() <= 1e-8


def test_wprime_association_order_independent():
    # batched tensor contraction vs per-bond-configuration scalar evolution,
    # rescaled to isometry constant 1
    n_a, t = 2, 2
    w = build_wprime(n_a, t, G)
    K = kick_matrix(np.pi / 4)
    scalar = np.empty_like(w.data)
    for tl, tr in it.product(range(2**t), repeat=2):
        v = np.full(4, 0.5, dtype=complex)
        spins = np.array([[1, 1, -1, -1], [1, -1, 1, -1]], dtype=float)
        for step in range(t):
            sl = 1.0 - 2.0 * ((tl >> (t - 1 - step)) & 1)
            sr = 1.0 - 2.0 * ((tr >> (t - 1 - step)) & 1)
            phase = np.exp(
                -1j
                * (
                    np.pi / 4 * spins[0] * spins[1]
                    + G * (spins[0] + spins[1])
                    + np.pi / 4 * sl * spins[0]
                    + np.pi / 4 * sr * spins[1]
                )
            )
            v = v * phase
            v = (np.kron(K, K) @ v.reshape(4, 1)).ravel()
        scalar[:, tl, tr] = v
    scalar /= np.sqrt(np.sum(np.abs(scalar) ** 2) / 2**n_a)
    assert np.abs(scalar - w.data).max() <= 1e-12


def test_reduce_temporal_operator(rng):
    u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    np.testing.assert_allclose(reduce_temporal_operator(u, 3), u, atol=1e-15)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        reduce_temporal_operator(np.kron(a, b), 1), a * np.trace(b), atol=1e-12
    )
    np.testing.assert_allclose(reduce_temporal_operator(np.eye(8), 1), 4 * np.eye(2), atol=1e-15)
    # Tr(W reduce(U)) equals the padded contraction Tr((W x I) U)
    w = build_w(2)
    t = 3
    u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    red = reduce_temporal_operator(u, w.t_legs)
    for s in range(4):
        lhs = np.einsum("xy,yx->", w.data[s], red)
        rhs = np.einsum("xy,yx->", np.kron(w.data[s], np.eye(4)), u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    with pytest.raises(ValueError):
        reduce_temporal_operator(u, 4)
    # a (b, d, d) stack, as the MC reduces its Haar batches, is reduced matrix by matrix, bit for bit
    for t, t0 in ((3, 1), (5, 2), (6, 1)):
        us = rng.standard_normal((3, 2**t, 2**t)) + 1j * rng.standard_normal((3, 2**t, 2**t))
        assert np.array_equal(reduce_temporal_operator(us, t0), [reduce_temporal_operator(x, t0) for x in us])
    with pytest.raises(ValueError):
        reduce_temporal_operator(us[:, :, :-1], 1)


def test_downstream_gauge_invariance_under_scaling(w2):
    from deeptherm.dual_tensors import WTensor
    from deeptherm.replica import ReplicaSpec, direct_double_sum

    spec = ReplicaSpec(k=2, n=0, t=2, n_a=2, bc="pbc")
    base = direct_double_sum(spec, w2)
    scaled = WTensor(n_a=2, t_legs=1, data=2.7 * w2.data)
    np.testing.assert_allclose(direct_double_sum(spec, scaled), base, atol=1e-12)


@pytest.mark.parametrize("n_a", [1, 2, 4])
def test_w_frames_at_two_couplings_related_by_a_unitary(n_a):
    # W(g') = V W(g) with V unitary: every moment at g' is V^(x)k rho V^(x)k+
    # of the one at g, so its distance to the invariant Haar moment is the same
    t0 = min_depth(n_a)
    dA = 2**n_a
    w, w_other = (build_wprime(n_a, t0, g).data.reshape(dA, -1) for g in (0.3, 0.9))
    v = w_other @ np.linalg.pinv(w)
    assert np.abs(v @ w - w_other).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(dA)).max() <= 1e-12


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("n", [0, 1])
def test_replica_distance_equal_at_two_couplings_na3(n, bc):
    # at n_a = 3, W is 8 x 16 and no V relates the two couplings; the
    # distances still agree
    from deeptherm.linalg import sym_haar_distance
    from fullspace import sym_compress
    from deeptherm.replica import ReplicaSpec, direct_double_sum

    spec = ReplicaSpec(k=2, n=n, t=3, n_a=3, bc=bc)
    d = [sym_haar_distance(sym_compress(direct_double_sum(spec, build_wprime(3, 2, g)), 8, 2))
         for g in (0.3, 0.9)]
    assert abs(d[1] - d[0]) <= 1e-12 * d[0]


def test_dual_site_layer_unitary():
    for t in (1, 2, 3):
        for z in (0, 1):
            u = dual_site_layer(z, t, G)
            assert np.abs(u.conj().T @ u - np.eye(2**t)).max() <= 1e-12


@pytest.mark.parametrize("bc,b1,bn", [("pbc", PI4, PI4), ("obc", PI4, PI4), ("obc", 0.2, 0.7)])
@pytest.mark.parametrize("n,t", [(6, 2), (8, 3), (9, 2)])
def test_chain_amplitudes_are_products_of_dual_layers(n, t, bc, b1, bn):
    # psi(z), site 0 the most significant bit of z, is up to a constant
    #   obc: B_t(bn)[0, :] T(z_(n-1)) ... T(z_1) T(z_0) B_t(j)^-1 B_t(b1)[:, 0]
    #   pbc: Tr T(z_(n-1)) ... T(z_0)
    # so each end field is a ZZ bond to a frozen |0> neighbour (pbc has no ends)
    cfg = KimConfig(n=n, n_a=2, t=t, bc=bc, g=G, b1=b1, bn=bn)
    layers = np.stack([dual_site_layer(b, t, G) for b in (0, 1)])
    if bc == "pbc":
        prods = layers
        for _ in range(n - 1):  # prods[z] for the prefixes z, the newest site least significant
            prods = np.einsum("bij,zjk->zbik", layers, prods).reshape(-1, 2**t, 2**t)
        pred = np.trace(prods, axis1=1, axis2=2)
    else:
        vecs = layers @ np.linalg.inv(bond_phases(t, PI4)) @ bond_phases(t, b1)[:, 0]
        for _ in range(n - 1):
            vecs = np.einsum("bij,zj->zbi", layers, vecs).reshape(-1, 2**t)
        pred = vecs @ bond_phases(t, bn)[0]
    state = evolve(cfg)
    overlap = abs(np.vdot(pred, state)) / (np.linalg.norm(pred) * np.linalg.norm(state))
    assert 1 - overlap <= 1e-12


@pytest.mark.parametrize("coupling", [{"j": 0.5}, {"h": 0.5}])
def test_wprime_refused_off_self_dual_point(coupling):
    # away from |j| = |h| = pi/4 the dual layers are not unitary
    with pytest.raises(TensorConventionError, match="dual site layer"):
        build_wprime(2, 2, G, **coupling)


def test_wtensor_dump_roundtrip(tmp_path, w2):
    path = tmp_path / "w.bin"
    dump_wtensor(w2, path)
    back = load_wtensor(path)
    assert back.n_a == w2.n_a and back.t_legs == w2.t_legs
    assert np.abs(back.data - w2.data).max() < 1e-6  # complex64 storage


def test_build_w_flags_convention_bugs(monkeypatch):
    import deeptherm.dual_tensors as dtmod

    orig = dtmod.build_wprime

    def broken(n_a, t, g, j=np.pi / 4, h=np.pi / 4):
        w = orig(n_a, t, g, j=j, h=h)
        bad = w.data.copy()
        bad[0] *= 1.05  # breaks the isometry
        return dtmod.WTensor(n_a=w.n_a, t_legs=w.t_legs, data=bad)

    monkeypatch.setattr(dtmod, "build_wprime", broken)
    with pytest.raises(TensorConventionError):
        dtmod.build_w(2)
