from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

import deeptherm.linalg as linalg
import deeptherm.permgroup as permgroup
import deeptherm.replica as replica
from deeptherm.dual_tensors import build_w, min_depth
from deeptherm.linalg import (
    kron_all,
    multiset_factorials,
    partial_trace,
    sym_basis,
    sym_index,
    trace_norm,
)
from deeptherm.permgroup import (
    Permutation,
    class_size,
    conjugacy_classes,
    enumerate_sym,
    irrep_dimension,
    partitions,
    weingarten_table,
)
from deeptherm.replica import (
    ReplicaError,
    ReplicaSpec,
    class_diagram_terms,
    deviation_series,
    diagram_term,
    direct_double_sum,
    extrapolate_to_physical,
    prefactor_obc,
    prefactor_pbc,
    rate_estimate,
    replica_moment,
)
from fullspace import (
    digit_permute_codes,
    haar_moment_operator,
    permutation_operator,
    sym_compress,
    sym_embed,
)
from orbit_bundle import orbit_bundle, per_class
from test_permgroup import character


def spec(k, n, t, bc="pbc", n_a=2):
    return ReplicaSpec(k=k, n=n, t=t, n_a=n_a, bc=bc)


def test_spec_validation():
    with pytest.raises(ReplicaError):
        ReplicaSpec(k=0, n=1, t=2, n_a=2)
    with pytest.raises(ReplicaError):
        ReplicaSpec(k=5, n=10, t=2, n_a=2)  # above hard cap
    with pytest.raises(ReplicaError):
        ReplicaSpec(k=2, n=0, t=1, n_a=3)  # t below ceil(n_a/2)


def test_prefactor_pbc_values():
    e, swap = enumerate_sym(2)
    sp = spec(2, 0, 2)
    assert prefactor_pbc(e, e, sp) == pytest.approx(4 / 15)
    assert prefactor_pbc(swap, e, sp) == pytest.approx(-1 / 30)
    assert abs(prefactor_pbc(swap, e, sp) / prefactor_pbc(e, e, sp)) == pytest.approx(1 / 8)
    # off/diagonal ratio suppressed as 2^-2t (constant ~2 from the loop factor)
    for t in (4, 6, 8):
        sp_t = spec(2, 0, t)
        r = abs(prefactor_pbc(swap, e, sp_t) / prefactor_pbc(e, e, sp_t))
        assert r <= 2.0 ** (-2 * t) * 2.5


def test_prefactor_obc_values():
    e, swap = enumerate_sym(2)
    sp = spec(2, 0, 2, bc="obc")
    assert prefactor_obc(e, e, sp) == pytest.approx(1 / 100)
    assert prefactor_obc(swap, e, sp) == pytest.approx(1 / 200)
    assert prefactor_obc(swap, e, sp) > 0
    # exact off/diagonal ratio (2^(t-t0))^(# - m) = 2^(1-t) at n_a=2, m=2
    for t in (4, 6, 8):
        sp_t = spec(2, 0, t, bc="obc")
        r = prefactor_obc(swap, e, sp_t) / prefactor_obc(e, e, sp_t)
        assert r == pytest.approx(2.0 ** (1 - t))


def test_diagram_term_identity_direction(w2):
    # k=1, n=0, sigma=tau=e: proportional to vec of the identity
    sp = spec(1, 0, 2)
    e1 = Permutation((0,))
    val = diagram_term(e1, e1, sp, w2)
    np.testing.assert_allclose(val, np.eye(4), atol=1e-12)


def test_diagram_term_diagonal_sums_to_haar(w2):
    # sum over sigma of the capped diagonal diagrams is proportional to the
    # Haar moment on the open replicas
    for (k, n) in [(1, 1), (2, 0), (2, 1)]:
        sp = spec(k, n, 2)
        acc = np.zeros((4**k, 4**k), dtype=complex)
        for s in enumerate_sym(k + n):
            acc += diagram_term(s, s, sp, w2)
        acc /= np.trace(acc)
        np.testing.assert_allclose(acc, haar_moment_operator(2, k), atol=1e-12)


def test_diagram_term_time_independent(w2):
    e, swap = enumerate_sym(2)
    v1 = diagram_term(swap, e, spec(1, 1, 1), w2)
    v2 = diagram_term(swap, e, spec(1, 1, 3), w2)
    np.testing.assert_array_equal(v1, v2)


@pytest.mark.parametrize("k,n,t,bc", [(2, 1, 2, "pbc"), (2, 1, 2, "obc"), (3, 0, 3, "pbc"),
                                      (1, 2, 2, "obc"), (2, 2, 2, "pbc")])
def test_engine_matches_direct_double_sum(k, n, t, bc, w2):
    sp = spec(k, n, t, bc=bc)
    engine = sym_embed(replica_moment(sp), 4, k)
    direct = direct_double_sum(sp, w2)
    assert np.abs(engine - direct).max() <= 1e-12


def _build_kfold(wdata, m):
    """K[mu_vec, a_vec, b_vec] = prod_j W[mu_j, a_j, b_j], replica 0 slowest."""
    dA, q = wdata.shape[0], wdata.shape[1]
    K = wdata
    for jj in range(1, m):
        K = np.einsum("Mab,nxy->Mnaxby", K, wdata).reshape(
            dA ** (jj + 1), q ** (jj + 1), q ** (jj + 1)
        )
    return K


def _orbit_structure(base, m):
    """Orbit ids (linalg.sym_basis order) and weights of digit strings under position
    permutations, over all base^m codes.

    weight[code] = prod_v (multiplicity of digit v)!  =  #{p in S_m : p fixes code}.
    """
    codes = np.arange(base**m)
    digits = np.stack([(codes // base ** (m - 1 - j)) % base for j in range(m)])
    sorted_digits = np.sort(digits, axis=0)
    key = np.zeros(base**m, dtype=np.int64)
    for j in range(m):
        key = key * base + sorted_digits[j]
    uniq, orb = np.unique(key, return_inverse=True)
    counts = np.zeros((base**m, base), dtype=np.int64)
    for v in range(base):
        counts[:, v] = (digits == v).sum(axis=0)
    fact = np.array([math.factorial(i) for i in range(m + 1)])
    weight = fact[counts].prod(axis=1).astype(np.float64)
    return orb, weight, len(uniq)


def _class_gather(members, q, m):
    """B[y, a] = #{gamma in the class : y = gamma(a)} on the a-legs, one member at a time."""
    ar = np.arange(q**m)
    B = np.zeros((q**m, q**m))
    for gamma in members:
        B[digit_permute_codes(gamma.images, q)[ar], ar] += 1.0
    return B


def _dense_class_diagrams(w, m, splits):
    """Per-class dense evaluation: gather conj K per class, orbit-sum it, build Z, contract."""
    dA, q = w.data.shape[0], w.data.shape[1]
    K = _build_kfold(w.data, m)
    Kc = K.conj()
    orb, weight, n_orbits = _orbit_structure(dA, m)
    out = {split: {} for split in splits}
    for ct, members in conjugacy_classes(m).items():
        Kb = np.einsum("Myb,ya->Mab", Kc, _class_gather(members, q, m)).reshape(dA**m, -1)
        sagg = np.zeros((n_orbits, Kb.shape[1]), dtype=complex)
        np.add.at(sagg, orb, Kb)
        Z = sagg[orb] * weight[:, None]
        for k, n in splits:
            shape = (dA**k, dA**n, -1)
            out[(k, n)][ct] = np.einsum("mcs,ncs->mn", K.reshape(shape), Z.reshape(shape))
    return out


def test_class_diagrams_match_dense_per_class_oracle(w2):
    splits = [(2, 3), (3, 2), (4, 1)]
    dense = _dense_class_diagrams(w2, 5, splits)
    for k, n in splits:
        engine = {lam: math.factorial(k + n) * r for lam, r in class_diagram_terms(2, k, n).items()}
        for ct, ref in dense[(k, n)].items():
            # each dense diagram lies in Sym^k, or sym_compress raises
            ref = sym_compress(ref, 4, k)
            assert np.abs(per_class(engine, ct) - ref).max() <= 1e-12 * np.abs(ref).max()


def _union_gather(n_a, k, n):
    """(k+n)! times class_diagram_terms, as a gather of the bundle in the orbit
    convention (sqrt(|o| / |r|) X_lam[r, o], |r| = m!/r! codes of r) through the
    multiset of each k-digit row joined with each n-digit cap gamma:

        r_lam[alpha, beta] = coef_alpha coef_beta sum_gamma (n!/gamma!) (beta u gamma)!
                             X_lam[orb(alpha u gamma), orb(beta u gamma)]."""
    order, X = replica._sagg_bundle(n_a, k + n)
    dA = 2**n_a
    coef = sym_basis(dA, k + n).coef
    X = X * (coef / coef[:, None])
    rows, caps = sym_basis(dA, k), sym_basis(dA, n).idx
    shape = (len(rows.idx), len(caps))
    joint = np.concatenate([np.broadcast_to(rows.idx[:, None], shape + (k,)),
                            np.broadcast_to(caps[None], shape + (n,))], axis=2)
    orb = sym_index(joint, dA)
    col = (rows.coef[:, None] * multiset_factorials(joint, dA)
           * (math.factorial(n) // multiset_factorials(caps, dA)))
    return {lam: rows.coef[:, None] * np.einsum("abg,bg->ab", X[i][orb[:, None], orb[None]], col)
            for i, lam in enumerate(order)}


@pytest.mark.parametrize("n_a,splits", [(1, [(1, 0), (2, 3), (1, 6)]),
                                         (2, [(2, 0), (2, 3), (4, 2), (1, 5)]),
                                         (3, [(2, 0), (2, 3), (4, 1)])])
def test_class_diagrams_equal_union_gather(n_a, splits):
    # the trace over the capped replicas is the union gather of the orbit engine
    for k, n in splits:
        ref = _union_gather(n_a, k, n)
        got = class_diagram_terms(n_a, k, n)
        assert list(got) == list(ref)
        for lam, r in ref.items():
            err = np.abs(math.factorial(k + n) * got[lam] - r).max()
            assert err <= 1e-13 * np.abs(r).max(), (k, n, lam)


@pytest.mark.parametrize("k,n", [(2, 3), (4, 1), (1, 4)])
def test_check_size_bounds_class_diagram_peak(k, n, monkeypatch):
    # above the cached bundle, _check_size counts at least the traced peak of the
    # partial trace over the caps, its maps built afresh
    replica._sagg_bundle(3, k + n)
    linalg._trace_maps.cache_clear()
    tracemalloc.start()
    try:
        class_diagram_terms.__wrapped__(3, k, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(replica, "MEM_BUDGET_BYTES", replica._estimate_engine_bytes(3, k + n) + peak - 1)
    with pytest.raises(ReplicaError, match="above budget"):
        replica._check_size(3, k, (n,))


@pytest.mark.parametrize("n_a,m", [(1, 5), (2, 4)])
def test_orbit_row_bundle_matches_full_rows(n_a, m):
    # P from the dense m-fold K, on every replica code M and with each class's full
    # gather, equals the class's block rebuilt from the isotypic blocks at the row of
    # M's multiset: P is the same at every digit permutation of M
    w = build_w(n_a)
    dA, q = w.data.shape[0], w.data.shape[1]
    K = _build_kfold(w.data, m)
    orb, _, n_orbits = _orbit_structure(dA, m)
    O = np.zeros((n_orbits, q**m, q**m), dtype=complex)
    np.add.at(O, orb, K.conj())
    order, X = replica._sagg_bundle(n_a, m)
    assert X.shape == (len(order), n_orbits, n_orbits)
    coef = sym_basis(dA, m).coef
    blocks = dict(zip(order, X * (coef / coef[:, None])))  # the orbit engine's convention
    for ct, members in conjugacy_classes(m).items():
        S = np.einsum("oyb,ya->oab", O, _class_gather(members, q, m))
        full = K.reshape(dA**m, -1) @ S.reshape(n_orbits, -1).T
        assert np.abs(per_class(blocks, ct)[orb] - full).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("n_a,m", [(1, m) for m in range(1, 8)] + [(2, m) for m in range(1, 8)] + [(3, 4)])
def test_isotypic_bundle_matches_orbit_engine(n_a, m):
    # the Fock-space blocks, rebuilt per class, give the orbit engine's P
    order, X = replica._sagg_bundle(n_a, m)
    classes, P = orbit_bundle(n_a, m)
    coef = sym_basis(2**n_a, m).coef
    blocks = dict(zip(order, X * (coef / coef[:, None])))  # the orbit engine's convention
    for i, ct in enumerate(classes):
        assert np.abs(per_class(blocks, ct) - P[:, i]).max() <= 1e-13 * np.abs(P).max()


def _dense_casimir(q, m):
    """sum_xy E_xy E_yx on (C^q x C^q)^(x)m, mode a q + b, E_xy = e_xy on every a-leg."""
    one = np.eye(q * q)

    def on_a_legs(x, y):
        e = np.zeros((q, q))
        e[x, y] = 1.0
        site = np.kron(e, np.eye(q))
        return sum(kron_all([site if j == i else one for j in range(m)]).real for i in range(m))

    return sum(on_a_legs(x, y) @ on_a_legs(y, x) for x in range(q) for y in range(q))


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 4), (4, 2)])
def test_a_leg_casimir_matches_dense_first_quantized(q, m):
    rows, cols, vals = replica._a_leg_casimir(q, m)
    D = len(sym_basis(q * q, m).idx)
    C = np.zeros((D, D))
    np.add.at(C, (rows, cols), vals)
    # C commutes with the symmetrizer, so its Sym^m block is that of sym C sym
    sym = sum(permutation_operator(p, q * q) for p in enumerate_sym(m)) / math.factorial(m)
    ref = sym_compress(sym @ _dense_casimir(q, m) @ sym, q * q, m)
    assert np.abs(C - ref).max() <= 1e-12 * np.abs(ref).max()
    # the blocks hold every entry, and each eigenvalue is a lam's
    blocks = np.zeros((D, D))
    for idx, Cb in replica._casimir_blocks(q, m):
        blocks[idx[:, :, None], idx[:, None, :]] = Cb
        ev = np.linalg.eigvalsh(Cb).ravel()
        assert set(np.rint(ev).astype(int)) <= set(replica._isotypic_labels(q, m))
    assert np.array_equal(blocks, C)


@pytest.mark.parametrize("m,t", [(2, 2), (3, 3), (4, 2), (5, 4), (6, 3)])
def test_obc_isotypic_weight_is_hook_content(m, t):
    # sum_c Q^#c |c| chi_lam(c) / f_lam = m! s_lam(1^Q) / f_lam = prod_cells (Q + content)
    sp = spec(1, m - 1, t, bc="obc")
    Q, den = 2 ** (t - 1), np.prod([2.0**t + j for j in range(m)])
    nums, den_sq = replica._isotypic_weights(m, t, sp.t0, "obc")
    for lam in replica._isotypic_labels(2, m).values():
        hook = np.prod([Q + j - i for i in range(len(lam)) for j in range(lam[i])]) / den**2
        assert nums[lam] / den_sq == pytest.approx(hook, rel=1e-13)


def _cell_product(lam, d):
    return math.prod(d + j - i for i, row in enumerate(lam) for j in range(row))


@cache
def _fraction_class_prefactors(m, t, t0, bc):
    """f_bc per class of S_m as exact Fractions, Wg(mu, 2^t) summed over the irreps
    (Collins & Sniady) from the characters, one Fraction per (lam, mu) term."""
    table = permgroup.character_table(m)
    d, Q = 2**t, 2 ** (t - t0)
    if bc == "obc":
        den = math.prod(range(d, d + m)) ** 2
        return [Fraction(Q ** len(mu), den) for mu in table.partitions]
    terms = [(f, row, math.factorial(m) * e) for lam, f, row in zip(table.partitions, table.dims, table.chi)
             if (e := _cell_product(lam, d))]
    return [sum(Fraction(f * row[j], e) for f, row, e in terms) * Q ** len(mu)
            for j, mu in enumerate(table.partitions)]


@cache
def _fraction_weights(m, t, t0, bc):
    """w_lam = sum over classes c of f_bc(c) |c| chi_lam(c) / f_lam, exactly, per lam of m
    with at most 2^t0 rows."""
    table = permgroup.character_table(m)
    pref = _fraction_class_prefactors(m, t, t0, bc)
    return {lam: sum(p * Fraction(c * x, f) for p, c, x in zip(pref, table.class_sizes, chi))
            for lam, f, chi in zip(table.partitions, table.dims, table.chi) if len(lam) <= 2**t0}


def _fraction_norm(n_a, k, n, t, bc):
    """The even-N_A norm sum_mu |p_mu / sum p - haar_mu| in exact Fractions, rounded once:
    p_mu = sum_lam w_lam s_lam(1^q)^2 f_mu g_lam,mu / f_lam, with the multiplicity g of mu
    in lam restricted to S_k read off the characters."""
    t0 = min_depth(n_a)
    q = 2**t0
    w = _fraction_weights(k + n, t, t0, bc)

    def s(lam):
        return irrep_dimension(lam) * _cell_product(lam, q) // math.factorial(sum(lam))

    def g(lam, mu):
        return sum(class_size(a) * character(mu, a) * character(lam, a + (1,) * n)
                   for a in partitions(k)) // math.factorial(k)

    mus = [mu for mu in partitions(k) if len(mu) <= q]
    p = [sum(w[lam] * Fraction(s(lam) ** 2 * irrep_dimension(mu) * g(lam, mu), irrep_dimension(lam))
             for lam in w) for mu in mus]
    D = math.comb(q * q + k - 1, k)
    return float(sum(abs(x / sum(p) - Fraction(s(mu) ** 2, D)) for x, mu in zip(p, mus)))


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("n_a,m_max", [(2, 14), (4, 8)])
def test_deviation_series_equals_fraction_oracle(n_a, m_max, bc):
    # the closed form is the exact rational norm, rounded once, at every t: float
    # weights lose it to the cancelling p_mu / sum p - haar_mu as 2^(r t) grows
    for k in (2, 3, 4):
        for t in (*range(2, 9), 20, 40):
            assert deviation_series(spec(k, 0, t, bc=bc, n_a=n_a), m_max - k) == [
                (n, _fraction_norm(n_a, k, n, t, bc)) for n in range(m_max - k + 1)], (k, t)


@pytest.mark.parametrize("bc,r,ts", [("pbc", 2, (20, 30, 40)), ("obc", 1, (40, 60, 80))])
def test_norm_times_decay_reaches_leading_constant(bc, r, ts):
    # k = 2, n = 0: norm 2^(r t) -> (3/175)(n + 6)(n + 7) = 0.72 at large t
    for t in ts:
        assert abs(deviation_series(spec(2, 0, t, bc=bc), 0)[0][1] * 2.0 ** (r * t) - 0.72) <= 1e-9, t


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("m", range(1, 9))
def test_isotypic_weights_equal_per_class_fsum(m, bc):
    # each weight nums[lam] / den is the exact sum of f_bc(c) |c| chi_lam(c) / f_lam over
    # the classes (_fraction_weights), for every lam with at most q rows, so its float is
    # that sum correctly rounded.  The float fsum over the classes, with f_bc the prefactor
    # of one cycle type, stays within 1e-13 of it; at obc it leaves a ~1e-20 residue where
    # the weight is exactly 0 (past Q rows)
    for n_a in range(1, 5):
        t0 = min_depth(n_a)
        for t in range(2, 6):
            den = 1.0
            for j in range(m):
                den *= 2**t + j
            wg = weingarten_table(m, 2**t)

            def pref(mu):
                loop = (2.0 ** (t - t0)) ** len(mu)
                return wg.value_of_type(mu) * loop if bc == "pbc" else loop / den**2

            ref = {lam: math.fsum(pref(mu) * (class_size(mu) * character(lam, mu) / irrep_dimension(lam))
                                  for mu in partitions(m))
                   for lam in partitions(m) if len(lam) <= 2**t0}
            nums, den = replica._isotypic_weights(m, t, t0, bc)
            exact = _fraction_weights(m, t, t0, bc)
            assert {lam: Fraction(x, den) for lam, x in nums.items()} == exact, (n_a, t)
            got = {lam: x / den for lam, x in nums.items()}
            scale = max(map(abs, ref.values()))
            assert all(got[lam] == pytest.approx(ref[lam], rel=1e-13, abs=1e-13 * scale) for lam in ref), (n_a, t)


@pytest.mark.parametrize("n_a,k,t,bc,n_max", [(2, 2, 3, "pbc", 6), (2, 3, 5, "obc", 4),
                                              (3, 2, 3, "obc", 2), (3, 2, 2, "pbc", 2)])
def test_deviation_series_equals_single_moment_path(n_a, k, t, bc, n_max):
    # the engine's stacked deviations and eigensolve give every block, eigenvalue and
    # moment bit for bit; at odd N_A their norms are deviation_series (even N_A takes
    # the closed form)
    sp = spec(k, 0, t, bc=bc, n_a=n_a)
    dev, ev = replica._deviations(sp, range(n_max + 1))
    for n in range(n_max + 1):
        one = spec(k, n, t, bc=bc, n_a=n_a)
        dev_n, ev_n = replica._deviations(one, (n,))
        assert np.array_equal(dev_n[0], dev[n]) and np.array_equal(ev_n[0], ev[n])
        assert np.array_equal(replica_moment(one), np.eye(len(dev[n])) / len(dev[n]) + dev[n])
    if n_a % 2:
        assert deviation_series(sp, n_max) == list(enumerate(np.abs(ev).sum(axis=-1).tolist()))


def _clear_group_caches():
    for fn in (replica._isotypic_weights, replica._branching_table, permgroup._weingarten_cached,
               permgroup.character_table):
        fn.cache_clear()


def test_obc_closed_form_builds_no_group_table():
    # the even-N_A closed form reads obc weights and branching numbers off the shapes:
    # an obc sweep (k = 2..4, t = 2..5, m <= 6) builds no character or Weingarten table
    _clear_group_caches()
    for k in range(2, 5):
        for t in range(2, 6):
            deviation_series(spec(k, 0, t, bc="obc"), 6 - k)
    assert permgroup.character_table.cache_info().misses == 0
    assert permgroup._weingarten_cached.cache_info().misses == 0
    # nor do branching tables past MAX_DEGREE (m = 20): each lam's mu parts add up to
    # m!^2 tr Pi_lam = (m! s_lam(1^q))^2, and the Haar numerators to D
    for q, k, n in ((2, 2, 18), (4, 3, 17)):
        lams, cols, haar, D = replica._branching_table(q, k, n)
        for i, lam in enumerate(lams):
            assert sum(col[i] for col in cols) == (irrep_dimension(lam) * permgroup.content_product(lam, q)) ** 2
        assert sum(haar) == D
    assert permgroup.character_table.cache_info().misses == 0


def test_figure3_sweep_builds_each_group_table_once():
    # k = 2..4, t = 2..5, both bc, m <= 6: one Weingarten table per pbc (m, t), none
    # for obc, and one character table per m = 1..6, all for the pbc weights (m = 1
    # for the Murnaghan-Nakayama recursion of the larger tables)
    _clear_group_caches()
    for bc in ("pbc", "obc"):
        for k in range(2, 5):
            for t in range(2, 6):
                deviation_series(spec(k, 0, t, bc=bc), 6 - k)
    wg = permgroup._weingarten_cached.cache_info()
    assert (wg.misses, wg.hits) == (20, 0)
    assert permgroup.character_table.cache_info().misses == 6


def _engine_series(sp, n_max):
    return np.abs(replica._deviations(sp, range(n_max + 1))[1]).sum(axis=-1).tolist()


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_closed_form_equals_engine_at_na2(k, bc):
    # m <= 10: the engine's weight differences are exact, so it keeps the closed form's
    # relative accuracy at any t, down to norms of ~1e-25 (pbc, t = 40)
    for t in (*range(2, 9), 14, 20, 40):
        sp = spec(k, 0, t, bc=bc)
        for (n, norm), ref in zip(deviation_series(sp, 10 - k), _engine_series(sp, 10 - k)):
            assert abs(norm - ref) <= 1e-13 * ref, (t, n, norm, ref)


# k = 2, n = 0, 1, ...: the limits of norm 2^(r t), r = 2 at pbc and 1 at obc, the same
# at both bc, read off the engine at large t (exact to ~1e-15 there)
ODD_NA_LIMITS = {1: (Fraction(8, 9), Fraction(4, 3), Fraction(28, 15), Fraction(112, 45)),
                 3: (Fraction(20, 9), Fraction(8, 3), Fraction(104, 33))}


@pytest.mark.parametrize("n_a", [1, 3])
@pytest.mark.parametrize("bc,ts", [("pbc", (20, 30, 40)), ("obc", (40, 60, 80))])
def test_odd_na_norms_reach_their_large_t_limits(n_a, bc, ts):
    # the next order is 2^(-r t) relative, ~1e-12 at the smallest t
    limits, r = ODD_NA_LIMITS[n_a], 2 if bc == "pbc" else 1
    for t in ts:
        series = deviation_series(spec(2, 0, t, bc=bc, n_a=n_a), len(limits) - 1)
        for (n, norm), limit in zip(series, limits):
            assert norm * 2.0 ** (r * t) == pytest.approx(float(limit), rel=1e-9, abs=0), (t, n)


def test_odd_na_weights_stay_in_float_range_at_large_t_m():
    # obc, m = 14, t = 80: each weight nums / den is about 2^-1134, below the smallest
    # float; over the largest numerator the weights stay in range, and norm 2^t holds
    # its limit from t = 60 on
    at60, at80 = (deviation_series(spec(2, 0, t, bc="obc", n_a=1), 12) for t in (60, 80))
    for (n, a), (_, b) in zip(at60, at80):
        assert b * 2.0**80 == pytest.approx(a * 2.0**60, rel=1e-9, abs=0), n


@pytest.mark.parametrize("n_a,k,n", [(1, 2, 0), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 4, 1),
                                     (3, 2, 0), (3, 2, 2), (3, 3, 1)])
def test_isotypic_diagrams_sum_to_a_multiple_of_identity(n_a, k, n):
    # the Pi_lam resolve Sym^m and F is an isometry, so sum_lam X_lam = Sym^m(F^T conj F)
    # is the identity, and so is its partial trace up to a factor: the identity that lets
    # _deviations weight the traceless parts by weight differences
    total = sum(class_diagram_terms(n_a, k, n).values())
    c = np.trace(total).real / len(total)
    assert c > 0
    assert np.abs(total - c * np.eye(len(total))).max() <= 1e-13 * c


def test_closed_form_equals_engine_at_m14():
    sp = spec(2, 0, 4, bc="pbc")
    norm, ref = deviation_series(sp, 12)[-1][1], _engine_series(sp, 12)[-1]
    assert abs(norm - ref) <= 1e-12 * ref + 2e-16


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_closed_form_equals_engine_at_na4(bc):
    # q = 4, m <= 3: the engine's F is a 16 x 16 unitary
    for k in (2, 3):
        for t in (2, 3):
            sp = spec(k, 0, t, bc=bc, n_a=4)
            for (n, norm), ref in zip(deviation_series(sp, 3 - k), _engine_series(sp, 3 - k)):
                assert norm == pytest.approx(ref, rel=1e-12), (k, t, n)


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_k3_norm_is_twice_k2_norm_one_replica_on(bc):
    # at N_A = 2, rho^(3,n) carries the one scalar p_(2,1) = 2 p_(1,1) of rho^(2,n+1),
    # and each norm is its exact value rounded once
    for t in range(2, 41):
        k2, k3 = deviation_series(spec(2, 0, t, bc=bc), 11), deviation_series(spec(3, 0, t, bc=bc), 10)
        for (n, v3), (_, v2) in zip(k3, k2[1:]):
            assert v3 == 2 * v2, (t, n)


@pytest.mark.parametrize("q,m", [(2, 4), (2, 6), (2, 8), (4, 5), (4, 7)])
def test_branching_table_equals_littlewood_richardson_sum(q, m):
    # cols[mu][lam] = m!^2 s_lam(1^q)^2 f_mu sum_nu c^lam_mu,nu f_nu / f_lam, with each
    # c^lam_mu,nu = (1/k! n!) sum_alpha,beta |c_alpha| |c_beta| chi^mu chi^nu chi^lam(alpha u beta)
    def s(lam):
        cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
        return irrep_dimension(lam) * math.prod(q + j - i for i, j in cells) // math.factorial(sum(lam))

    def lr(lam, mu, nu):
        total = sum(class_size(a) * class_size(b) * character(mu, a) * character(nu, b)
                    * character(lam, tuple(sorted(a + b, reverse=True)))
                    for a in partitions(sum(mu)) for b in partitions(sum(nu)))
        return total // (math.factorial(sum(mu)) * math.factorial(sum(nu)))

    for k in range(1, m):
        n = m - k
        lams, cols, haar, D = replica._branching_table(q, k, n)
        mus = [mu for mu in partitions(k) if len(mu) <= q]
        assert lams == tuple(lam for lam in partitions(m) if len(lam) <= q)
        for mu, col in zip(mus, cols):
            assert col == tuple(math.factorial(m) ** 2 * s(lam) ** 2 * irrep_dimension(mu)
                                * sum(lr(lam, mu, nu) * irrep_dimension(nu) for nu in partitions(n))
                                // irrep_dimension(lam) for lam in lams)
        # the mu parts of Tr_n Pi_lam add up to tr Pi_lam, and the Haar numerators to D
        for i, lam in enumerate(lams):
            assert sum(col[i] for col in cols) == math.factorial(m) ** 2 * s(lam) ** 2
        assert haar == tuple(s(mu) ** 2 for mu in mus) and sum(haar) == D == math.comb(q * q + k - 1, k)


def _scaled_weights(by, true=replica._isotypic_weights):
    def weights(m, t, t0, bc):
        nums, den = true(m, t, t0, bc)
        return {lam: by(lam) * x for lam, x in nums.items()}, den
    return weights


def test_closed_form_refuses_degenerate_and_negative_weights(monkeypatch):
    # a zero total, and a weight of (1,1) that turns p_(1,1) negative at a positive total
    for by, match in ((lambda lam: 0, "degenerate"), (lambda lam: -5 if lam == (1, 1) else 1, "not PSD")):
        monkeypatch.setattr(replica, "_isotypic_weights", _scaled_weights(by))
        with pytest.raises(ReplicaError, match=match):
            deviation_series(spec(2, 0, 3), 0)


def test_engine_refuses_degenerate_and_negative_weights(monkeypatch):
    # the odd-N_A engine checks its one eigensolve: a zero total trace, and a weight of
    # (1,1) flipped in sign, which leaves the trace positive but 1/D + min ev < 0
    sp = spec(2, 0, 3, n_a=1)
    for by, match in ((lambda lam: 0, "degenerate"), (lambda lam: -1 if lam == (1, 1) else 1, "not PSD")):
        monkeypatch.setattr(replica, "_isotypic_weights", _scaled_weights(by))
        with pytest.raises(ReplicaError, match=match):
            deviation_series(sp, 0)
        with pytest.raises(ReplicaError, match=match):
            replica_moment(sp)


def test_ambiguous_casimir_refused_before_building(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("engine ran for a refused size")

    monkeypatch.setattr(replica, "build_w", fail)
    monkeypatch.setattr(replica, "_sym_power", fail)
    # q = 4 (N_A = 3), m = 6: (3,1,1,1) and (2,2,2) share the Casimir eigenvalue 30
    with pytest.raises(ReplicaError, match="cannot separate"):
        replica._sagg_bundle.__wrapped__(3, 6)
    assert len(replica._isotypic_labels(4, 5)) == 6
    assert len(replica._isotypic_labels(2, 14)) == 8


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("k,n,t", [(1, 3, 3), (2, 1, 2), (2, 2, 3), (3, 1, 2)])
def test_marginal_of_one_more_open_replica(k, n, t, bc):
    # rho^(k+1, n) traced over its last replica is rho^(k, n+1): both are the same
    # (k+n+1)-replica sum with one more replica capped
    wide = sym_embed(replica_moment(spec(k + 1, n, t, bc=bc)), 4, k + 1)
    traced = sym_compress(partial_trace(wide, [4] * (k + 1), range(k)), 4, k)
    assert np.abs(traced - replica_moment(spec(k, n + 1, t, bc=bc))).max() <= 1e-12


def test_engine_refuses_oversized_m_before_building(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("engine ran for a refused size")

    monkeypatch.setattr(replica, "build_w", fail)
    # m = 14 at N_A = 2 passes: Sym^14(F) is 680 x 680, with 8 isotypic blocks of 680 x 680
    assert replica._estimate_engine_bytes(2, 14) <= replica.MEM_BUDGET_BYTES
    replica._check_size(2, 4, (10,))
    # m = 5 at N_A = 3 passes (15504 Fock rows x 792 orbits, ~0.9 GB)
    replica._check_size(3, 2, (3,))
    # m = 6 at N_A = 3: 54264 Fock rows x 1716 orbits per array, ~6 GB
    with pytest.raises(ReplicaError, match="above budget"):
        class_diagram_terms(3, 2, 4)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_engine_estimate_bounds_traced_peak(m):
    tracemalloc.start()
    try:
        replica._sagg_bundle.__wrapped__(2, m)  # cold, uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replica._estimate_engine_bytes(2, m) >= peak


def test_class_diagrams_at_large_k_refused_before_building(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("engine ran for a refused size")

    monkeypatch.setattr(replica, "_sagg_bundle", fail)
    # k = 6, n = 0 at N_A = 2 passes: 4 isotypic blocks of 84 x 84
    replica._check_size(2, 6, (0,))
    # k = 5, n = 0 at N_A = 3 passes
    replica._check_size(3, 5, (0,))
    # k = 6, n = 0 at N_A = 3: the m = 6 engine alone needs ~6 GB
    with pytest.raises(ReplicaError, match="above budget"):
        deviation_series(ReplicaSpec(k=6, n=0, t=2, n_a=3), 0)
    with pytest.raises(ReplicaError, match="above budget"):
        replica_moment(ReplicaSpec(k=6, n=0, t=2, n_a=3))


def test_k4_fit_over_four_points_reaches_m7():
    # n = 0..3 reaches m = 7, so the k = 4 fit is overdetermined and its residual is real
    series = deviation_series(spec(4, 0, 3, bc="obc"), 3)
    assert [n for n, _ in series] == [0, 1, 2, 3]
    fit = extrapolate_to_physical(series, 4)
    assert fit.residual > 0 and not fit.flagged
    three = extrapolate_to_physical(series[:3], 4)
    assert fit.estimate == pytest.approx(three.estimate, rel=0.01)


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_k1_exact_for_all_n(bc):
    for n in (0, 1, 2):
        for t in (2, 3):
            rho = replica_moment(spec(1, n, t, bc=bc))
            assert np.abs(rho - np.eye(4) / 4).max() <= 1e-10


def test_moment_contract_properties():
    rho = sym_embed(replica_moment(spec(2, 1, 3, bc="obc")), 4, 2)
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-8
    for p in enumerate_sym(2):
        P = permutation_operator(p, 4)
        assert np.abs(P @ rho @ P.T - rho).max() <= 1e-11


def test_deviation_ratio_trends():
    # successive-t deviation ratios approach 1/4 (pbc) and 1/2 (obc)
    for bc, target in (("pbc", 0.25), ("obc", 0.5)):
        devs = {}
        for t in (3, 4, 5):
            rho = sym_embed(replica_moment(spec(2, 0, t, bc=bc)), 4, 2)
            devs[t] = trace_norm(rho - haar_moment_operator(2, 2))
        r45 = devs[5] / devs[4]
        assert r45 == pytest.approx(target, rel=0.1)


def test_deviation_series_k1_flat_k2_positive():
    s1 = deviation_series(spec(1, 0, 2), 2)
    assert all(v <= 1e-10 for _, v in s1)
    s2 = deviation_series(spec(2, 0, 4), 4)
    vals = [v for _, v in s2]
    assert all(v > 0 for v in vals)
    # verified behavior: the series rises monotonically toward its asymptote
    assert all(b > a for a, b in zip(vals, vals[1:]))
    fit = extrapolate_to_physical(s2, 2)
    assert not fit.flagged
    assert fit.residual <= 0.01
    assert 0 < fit.estimate < vals[0]


def test_extrapolation_recovers_synthetic():
    ns = range(6)
    series = [(n, 2.0 ** (1 + 2 * np.exp(-0.5 * n))) for n in ns]
    fit = extrapolate_to_physical(series, 2)
    assert fit.a == pytest.approx(1.0, abs=1e-6)
    assert fit.b == pytest.approx(2.0, abs=1e-6)
    assert fit.c == pytest.approx(0.5, abs=1e-6)
    assert fit.estimate == pytest.approx(2.0 ** (1 + 2 * np.exp(0.5)), rel=1e-6)
    assert not fit.flagged


def test_extrapolation_solved_to_rounding():
    # a 1e-14 change of one point moves the estimate by rounding, not by solver tolerance
    series = deviation_series(spec(2, 0, 3), 4)
    base = extrapolate_to_physical(series, 2).estimate
    for i in range(len(series)):
        moved = list(series)
        moved[i] = (moved[i][0], moved[i][1] * (1 + 1e-14))
        est = extrapolate_to_physical(moved, 2).estimate
        assert abs(est - base) < 1e-11 * base, i


def test_extrapolation_three_points_interpolate():
    series = deviation_series(spec(4, 0, 3), 2)
    fit = extrapolate_to_physical(series, 4)
    y = np.log2([v for _, v in series])
    assert fit.residual < 1e-14
    assert fit.c == pytest.approx(-np.log((y[2] - y[1]) / (y[1] - y[0])), abs=1e-12)
    assert not fit.flagged


def test_extrapolation_constant_series():
    series = [(n, 0.125) for n in range(4)]
    fit = extrapolate_to_physical(series, 3)
    assert fit.estimate == pytest.approx(0.125, rel=1e-9)
    assert not fit.flagged


def test_extrapolation_flags_degenerate():
    # growing-with-n series fits only with c < 0: flagged
    series = [(n, 2.0 ** (1 + 2 * np.exp(+0.4 * n))) for n in range(5)]
    fit = extrapolate_to_physical(series, 2)
    assert fit.flagged
    with pytest.raises(ReplicaError):
        extrapolate_to_physical([(0, 1.0), (1, 0.5)], 2)
    with pytest.raises(ReplicaError):
        extrapolate_to_physical([(0, 1.0), (1, 0.5), (2, -0.1)], 2)


def test_extrapolation_drops_a_root_that_leaves_the_window():
    # a series rising to a plateau: a Newton step drove one root to c << 0, where
    # exp(-c) overflowed; the root is dropped and the fit flagged
    series = [(4, 0.05621383854282884), (5, 0.05761647152941057), (10, 0.05922431535272677),
              (11, 0.059260081761593295), (12, 0.05927960676668869)]
    fit = extrapolate_to_physical(series, 2)
    assert fit.flagged
    assert 1e-3 < fit.c < 100 and 0.0 < fit.estimate < math.inf


def test_extrapolation_refuses_non_integer_n():
    # the fit's polynomial in x = exp(-c) needs integer n in 0..MAX_DEGREE
    for bad in (0.5, -1, 15):
        series = [(0, 1.0), (1, 0.5), (2, 0.3), (bad, 0.2)]
        with pytest.raises(ReplicaError, match="integer n"):
            extrapolate_to_physical(series, 2)


def test_extrapolation_refuses_fewer_than_three_distinct_n():
    # three points, but one or two distinct n: no three-parameter fit exists
    for series in ([(0, 1.0), (0, 2.0), (0, 3.0)], [(0, 1.0), (1, 2.0), (1, 3.0)]):
        with pytest.raises(ReplicaError, match="got [12] distinct n"):
            extrapolate_to_physical(series, 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_extrapolation_flags_estimate_out_of_float_range(sign):
    # an exact series with c = 9.06: b e^(c (k-1)) puts the estimate at 2^(+-14886)
    series = [(n, 2.0 ** (-3 + sign * 1.73 * np.exp(-9.06 * n))) for n in range(5)]
    with np.errstate(over="ignore"):
        fit = extrapolate_to_physical(series, 2)
    assert fit.residual <= 1e-12
    assert fit.estimate == (math.inf if sign > 0 else 0.0)
    assert fit.flagged


def _sse_on(series, cs):
    """Least-squares residual of log2(norm) = a + b exp(-c n) at each c in cs."""
    ns = np.array([float(n) for n, _ in series])
    y = np.log2([v for _, v in series])
    y_c = y - y.mean()
    phi = np.exp(-np.outer(cs, ns))
    phi_c = phi - phi.mean(axis=1, keepdims=True)
    b = (phi_c @ y_c) / np.einsum("ij,ij->i", phi_c, phi_c)
    r = y_c - b[:, None] * phi_c
    return np.einsum("ij,ij->i", r, r), y_c @ y_c


def test_extrapolation_reaches_least_minimum():
    # every unflagged fit sits at a minimum, and no dip of the residual on a dense
    # c grid over the fit's window is lower, so no minimum is lost (say, to a
    # near-double root of the fit's polynomial that comes out complex).  A dip is
    # a grid minimum that lies clearly below the points ten steps to either side:
    # far out in c the residual flattens toward that of fitting n = 0 alone, and
    # its rounding makes minima there that no fit may take
    grid = np.geomspace(1e-3, 1e2, 20001)
    cases = [(k, deviation_series(spec(k, 0, t, bc=bc), 6 - k))
             for bc in ("pbc", "obc") for k in (2, 3, 4) for t in (2, 3, 4, 5)]
    # noisy synthetic series, fitted at k = 1 so the estimate stays finite at any c
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        ns = np.arange(rng.integers(2, 8) + 1)
        c = np.exp(rng.uniform(np.log(0.02), np.log(20)))
        b = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-3, 2))
        noise = 10 ** rng.uniform(-6, -0.5)
        y = rng.normal(0, 3) + b * np.exp(-c * ns) + rng.normal(0, noise, ns.size)
        cases.append((1, [(int(n), float(2.0**v)) for n, v in zip(ns, y)]))
    unflagged = 0
    for k, series in cases:
        fit = extrapolate_to_physical(series, k)
        if fit.flagged:
            continue
        unflagged += 1
        sse, scale = _sse_on(series, grid)
        at_fit, *beside = _sse_on(series, [fit.c, fit.c * (1 - 1e-3), fit.c * (1 + 1e-3)])[0]
        mid, lo, hi = sse[10:-10], sse[:-20], sse[20:]
        dips = mid[(mid <= sse[9:-11]) & (mid <= sse[11:-9]) & (mid < np.minimum(lo, hi) - 1e-12 * scale)]
        assert at_fit <= min(beside) + 1e-15 * scale, (series, fit.c)
        assert at_fit <= dips.min(initial=np.inf) * (1 + 1e-9) + 1e-15 * scale, (series, fit.c)
    assert unflagged > 800


def test_rate_estimate():
    assert rate_estimate({t: 2.0 ** (-2 * t) for t in range(2, 6)}) == pytest.approx(2.0)
    assert rate_estimate({t: 2.0**-t for t in range(2, 6)}) == pytest.approx(1.0)
    with pytest.raises(ReplicaError):
        rate_estimate({2: 1.0, 3: 0.5})
    with pytest.raises(ReplicaError):
        rate_estimate({2: 1.0, 3: 0.0, 4: 1.0})

