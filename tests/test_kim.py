from __future__ import annotations

import math
import tracemalloc
import warnings
from itertools import chain

import numpy as np
import pytest

import deeptherm.cli as cli
import deeptherm.kim as kim
from deeptherm._kernels import P_FLOOR, accumulate_blocks
from deeptherm.dual_tensors import build_w, kick_matrix
from deeptherm.kim import (
    ConfigError,
    KimConfig,
    apply_floquet,
    bath_transfer_operator,
    build_floquet,
    delta_k,
    design_time,
    design_times,
    dual_unitary_ensemble_check,
    entropy_bits,
    evolve,
    exact_bytes,
    haar_unitary_moment,
    ising_phase_vector,
    moment_from_state,
    moments_from_state,
    plus_state,
    reduced_density_matrix,
)
from deeptherm.linalg import partial_trace, sym_partial_trace, trace_norm
from deeptherm.montecarlo import McConfig, _run_states, batch_plan, mc_moment
from deeptherm.permgroup import enumerate_sym
from deeptherm.records import read_csv
from deeptherm.replica import ReplicaSpec, direct_double_sum, replica_moment
from dense_circuit import bath_moment_by_outcomes, haar_unitary_moment_by_pairs, kick_all, spin_table
from fullspace import haar_moment_operator, permutation_operator, sym_compress, sym_embed

G = 0.3


def test_config_validation():
    with pytest.raises(ConfigError):
        KimConfig(n=4, n_a=2, t=1, bc="periodic")
    with pytest.raises(ConfigError):
        KimConfig(n=4, n_a=4, t=1)
    with pytest.raises(ConfigError):
        KimConfig(n=4, n_a=2, t=1, g=0.0)  # on the excluded lattice
    with pytest.raises(ConfigError):
        KimConfig(n=4, n_a=2, t=1, g=np.pi / 8 + 1e-5)
    with pytest.raises(ConfigError):
        KimConfig(n=4, n_a=2, t=1, j=0.5)  # violates self-dual mode
    cfg = KimConfig(n=10, n_a=2, t=1, g=G)
    assert cfg.offset == 4
    assert not cfg.wraparound()
    assert KimConfig(n=10, n_a=2, t=4, g=G).wraparound()


def test_build_floquet_unitary_and_special_cases():
    cfg = KimConfig(n=4, n_a=2, t=1, g=G)
    U = build_floquet(cfg)
    assert np.abs(U.conj().T @ U - np.eye(16)).max() <= 1e-12
    # h=0 leaves a diagonal operator
    cfg0 = KimConfig(n=3, n_a=1, t=1, g=G, h=0.0, self_dual=False)
    U0 = build_floquet(cfg0)
    assert np.abs(U0 - np.diag(np.diag(U0))).max() <= 1e-14
    # decoupled kicks at n=2, obc, j=g=b=0 (guard band lifted for the degenerate point)
    cfgk = KimConfig(
        n=2, n_a=1, t=1, bc="obc", g=0.0, j=0.0, b1=0.0, bn=0.0,
        self_dual=False, g_guard=0.0,
    )
    np.testing.assert_allclose(
        build_floquet(cfgk),
        np.kron(kick_matrix(np.pi / 4), kick_matrix(np.pi / 4)),
        atol=1e-12,
    )


def _per_site_floquet(state, cfg):
    """Reference Floquet step, into a new array: the dense Ising phases, then
    the kick as one strided 2x2 matmul per site."""
    state = state * ising_phase_vector(cfg)
    return kick_all(state.reshape((2,) * cfg.n), cfg.n, kick_matrix(cfg.h)).reshape(-1)


# below, at and past the kick group width, with and without a remainder;
# n=13 is the smallest chain with a middle group
@pytest.mark.parametrize("n", [2, 3, 6, 7, 12, 13])
@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("h", [np.pi / 4, 0.37], ids=["h_pi4", "h_0.37"])
def test_grouped_kick_matches_dense_floquet(n, bc, h):
    cfg = KimConfig(n=n, n_a=1, t=1, bc=bc, g=G, h=h, self_dual=False)
    rng = np.random.default_rng(n)
    state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    state /= np.linalg.norm(state)
    got = apply_floquet(state.copy(), cfg)
    assert got.shape == (2**n,)
    assert np.abs(got - build_floquet(cfg) @ state).max() <= 1e-12


def test_exact_cli_matches_per_site_kick(tmp_path, monkeypatch):
    args = ["exact", "--n", "14", "--na", "2", "--t", "4", "--k", "3"]
    grouped, per_site = str(tmp_path / "grouped.csv"), str(tmp_path / "per_site.csv")
    assert cli.main(args + ["--out", grouped]) == 0
    monkeypatch.setattr(cli, "apply_floquet", _per_site_floquet)
    assert cli.main(args + ["--out", per_site]) == 0
    cols, rows_g = read_csv(grouped)
    _, rows_p = read_csv(per_site)
    t, k, dk = (cols.index(c) for c in ("t", "k", "delta_k"))
    keys = [(int(r[t]), int(r[k])) for r in rows_g]
    assert keys == [(int(r[t]), int(r[k])) for r in rows_p]
    assert keys == [(tt, kk) for tt in range(5) for kk in (1, 2, 3)]
    for rg, rp in zip(rows_g, rows_p):
        assert abs(float(rg[dk]) - float(rp[dk])) <= 1e-13


def _spin_table_phases(cfg):
    """exp(-i H_Ising) from the n x 2^n table of spins, summed in the route's order:
    the field and the bonds as integer counts times g and j."""
    spins = spin_table(cfg.n)
    energy = cfg.g * spins.sum(axis=0)
    n_bonds = cfg.n if cfg.bc == "pbc" else cfg.n - 1
    bonds = sum(spins[i] * spins[(i + 1) % cfg.n] for i in range(n_bonds))
    energy = energy + cfg.j * bonds
    if cfg.bc == "obc":
        energy = energy + cfg.b1 * spins[0] + cfg.bn * spins[cfg.n - 1]
    return np.exp(-1j * energy)


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_ising_phases_from_bits_match_spin_table_bitwise(bc):
    for n in range(2, 13):
        for cfg in (KimConfig(n=n, n_a=1, t=1, bc=bc, g=G),
                    KimConfig(n=n, n_a=1, t=1, bc=bc, g=0.7, j=0.41, h=0.2, b1=-0.33, bn=1.1,
                              self_dual=False)):
            assert ising_phase_vector(cfg).tobytes() == _spin_table_phases(cfg).tobytes(), (n, cfg)


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_chunk_loops_match_references_at_n16(bc):
    # at n=16 the phase build and each kick group run over several chunks
    n = 16
    cfg = KimConfig(n=n, n_a=2, t=1, bc=bc, g=0.7, j=0.41, h=0.37, b1=-0.33, bn=1.1, self_dual=False)
    phases = ising_phase_vector(cfg)
    assert phases.tobytes() == _spin_table_phases(cfg).tobytes()
    rng = np.random.default_rng(16)
    state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    state /= np.linalg.norm(state)
    before = state.copy()
    got = apply_floquet(state, cfg)
    assert got is state
    assert np.abs(got - _per_site_floquet(before, cfg)).max() <= 1e-12
    for start, length in ((0, 2), (7, 2), (0, 14), (3, 12)):
        ref = _svd_entropy(got, n, start, length)
        assert abs(_block_entropy(got, n, start, length) - ref) <= 1e-12


def test_evolve_basics():
    cfg = KimConfig(n=6, n_a=2, t=0, g=G)
    np.testing.assert_allclose(evolve(cfg), np.full(64, 2.0 ** (-3)), atol=1e-14)
    state = plus_state(6)
    for _ in range(10):
        state = apply_floquet(state, KimConfig(n=6, n_a=2, t=1, g=G))
        assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-10)
    # diagonal evolution at h=0 only rephases the plus state
    cfgd = KimConfig(n=4, n_a=2, t=3, g=G, h=0.0, self_dual=False)
    amp = np.abs(evolve(cfgd))
    np.testing.assert_allclose(amp, 0.25 * np.ones(16), atol=1e-12)


def _outcomes(state, cfg):
    """Brute-force projected ensemble: (p_z, |psi_z>) for every bath outcome z = (z1, z2)."""
    A = state.reshape(2**cfg.offset, 2**cfg.n_a, 2 ** (cfg.n - cfg.n_a - cfg.offset))
    out = []
    for z1 in range(A.shape[0]):
        for z2 in range(A.shape[2]):
            amp = A[z1, :, z2]
            p = float(np.vdot(amp, amp).real)
            out.append((p, amp / np.sqrt(p) if p >= P_FLOOR else None))
    return out


def _kron_moment(state, cfg, k):
    """sum_z p_z (|psi_z><psi_z|)^{(x)k}, one explicit k-fold np.kron per outcome."""
    dim = 2 ** (cfg.n_a * k)
    rho = np.zeros((dim, dim), dtype=complex)
    for p, psi in _outcomes(state, cfg):
        if psi is not None:
            v = np.ones(1, dtype=complex)
            for _ in range(k):
                v = np.kron(v, psi)
            rho += p * np.outer(v, v.conj())
    return rho


def test_projected_ensemble_product_and_bell():
    # product state: every projected state is the same, so rho_2 is rank 1
    cfg = KimConfig(n=4, n_a=2, t=0, g=G)
    evals = np.linalg.eigvalsh(moment_from_state(evolve(cfg), cfg, 2))
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(evals[:-1]).max() <= 1e-12
    # Bell pair: outcomes 0/1 with p=1/2 and states |0>, |1>
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    cfgb = KimConfig(n=2, n_a=1, t=0, g=G, a_offset=0)
    np.testing.assert_allclose(moment_from_state(bell, cfgb, 1), np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(
        sym_embed(moment_from_state(bell, cfgb, 2), 2, 2), np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15
    )


def test_projected_ensemble_completeness_and_mean():
    cfg = KimConfig(n=10, n_a=2, t=3, g=G)
    state = evolve(cfg)
    outcomes = _outcomes(state, cfg)
    assert sum(p for p, _ in outcomes) == pytest.approx(1.0, abs=1e-10)
    rdm = reduced_density_matrix(state, cfg)
    np.testing.assert_allclose(_kron_moment(state, cfg, 1), rdm, atol=1e-12)
    np.testing.assert_allclose(moment_from_state(state, cfg, 1), rdm, atol=1e-12)


def test_moment_operator_identities():
    cfg = KimConfig(n=8, n_a=2, t=2, g=G)
    state = evolve(cfg)
    rho1 = moment_from_state(state, cfg, 1)
    np.testing.assert_allclose(rho1, reduced_density_matrix(state, cfg), atol=1e-12)
    # the streaming GEMM accumulation agrees with one explicit k-fold kron per outcome
    for k in (1, 2, 3):
        np.testing.assert_allclose(
            sym_embed(moment_from_state(state, cfg, k), 4, k), _kron_moment(state, cfg, k), atol=1e-12
        )


def test_one_pass_gives_each_order_of_moment_from_state():
    cfg = KimConfig(n=10, n_a=2, t=3, bc="obc", g=G)
    state = evolve(cfg)
    blocks = moments_from_state(state, cfg, 4)
    assert [b.shape for b in blocks] == [(4, 4), (10, 10), (20, 20), (35, 35)]
    # order j is the normalized partial trace of order j + 1, bit for bit
    for j in (3, 2, 1):
        ref = sym_partial_trace(blocks[j], 4, j + 1)
        ref /= np.trace(ref)
        assert blocks[j - 1].tobytes() == ref.tobytes()
    # and a pass of order j alone gives the same block up to rounding
    for j, block in enumerate(blocks, start=1):
        alone = moment_from_state(state, cfg, j)
        assert np.abs(block - alone).max() <= 1e-13 * np.abs(alone).max()


def test_moments_from_state_match_kron_oracle_below_p_floor():
    # outcomes under P_FLOOR get weight zero in every order, one exactly zero among them
    cfg = KimConfig(n=8, n_a=2, t=2, bc="obc", g=G)
    state = evolve(cfg)
    A = state.reshape(2**cfg.offset, 4, -1)
    A[0, :, 0] = 0.0
    A[1, :, 2] *= 1e-8  # p ~ 1e-18
    A[3, :, 1] *= np.sqrt(P_FLOOR / 2) / np.linalg.norm(A[3, :, 1])  # p = P_FLOOR / 2, dropped
    A[2, :, 3] *= 2 * np.sqrt(P_FLOOR) / np.linalg.norm(A[2, :, 3])  # p = 4 P_FLOOR, kept
    assert sum(psi is None for _, psi in _outcomes(state, cfg)) == 3
    blocks = moments_from_state(state, cfg, 4)
    for k, block in enumerate(blocks, start=1):
        ref = _kron_moment(state, cfg, k)
        ref /= np.trace(ref)
        assert np.abs(sym_embed(block, 4, k) - ref).max() <= 1e-12


@pytest.mark.parametrize("offset", [0, 6, 12])  # 4096, 64 and 1 outcomes z2 per value of z1
def test_blockwise_moments_match_one_pass_over_all_outcomes_bitwise(offset):
    cfg = KimConfig(n=14, n_a=2, t=3, bc="obc", g=G, a_offset=offset)
    state = evolve(cfg)
    amps = state.reshape(2**offset, 4, -1).transpose(1, 0, 2).reshape(4, -1)  # (sigma, z)
    ref = [accumulate_blocks(amps, 3, -2)]
    ref[0] /= np.trace(ref[0])
    for j in (3, 2):
        r = sym_partial_trace(ref[-1], 4, j)
        r /= np.trace(r)
        ref.append(r)
    got = moments_from_state(state, cfg, 3)
    for r, g in zip(ref[::-1], got):
        assert r.tobytes() == g.tobytes()


def _mirrored(state, n):
    """The state with site i moved to site n - 1 - i: every index's n bits reversed."""
    return state.reshape((2,) * n).transpose(range(n - 1, -1, -1)).ravel()


# pbc with even n - n_a, and obc with equal end fields (the default pi/4, and 0.4)
_MIRROR_CHAINS = [dict(bc="pbc"), dict(bc="obc"), dict(bc="obc", b1=0.4, bn=0.4)]


@pytest.mark.parametrize("chain", _MIRROR_CHAINS, ids=["pbc", "obc", "obc_b0.4"])
@pytest.mark.parametrize("n_a", [1, 2, 3, 4])
def test_evolved_states_are_mirror_invariant(chain, n_a):
    n = 10 + n_a % 2
    base = KimConfig(n=n, n_a=n_a, t=0, g=G, **chain)
    assert base.mirror_symmetric
    state = plus_state(n)
    for _ in range(6):
        apply_floquet(state, base)
        scale = np.abs(state).max()
        assert np.abs(_mirrored(state, n) - state).max() <= 1e-13 * scale
    assert np.abs(_mirrored(np.arange(2**n), n) - np.arange(2**n)).max() > 0  # the reflection moves indices


def test_unequal_end_fields_break_the_mirror_symmetry():
    cfg = KimConfig(n=10, n_a=2, t=3, bc="obc", g=G, b1=0.4)
    assert not cfg.mirror_symmetric
    state = evolve(cfg)
    assert np.abs(_mirrored(state, 10) - state).max() > 1e-3 * np.abs(state).max()


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("n_a", [1, 2, 3, 4])
def test_mirror_paired_pass_matches_general_pass(bc, n_a):
    # k = 4 at n_a = 4 is left out: its 3876 x 3876 sums take 240 MB each
    n = 10 + n_a % 2
    state = plus_state(n)
    cfg = KimConfig(n=n, n_a=n_a, t=0, bc=bc, g=G)
    for t in range(5):
        if t:
            apply_floquet(state, cfg)
        for k in range(1, 4 if n_a == 4 else 5):
            ref = moments_from_state(state, cfg, k)
            got = moments_from_state(state, cfg, k, chain=True)
            for r, g in zip(ref, got):
                assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()


@pytest.mark.parametrize("kw", [dict(n=11, n_a=2), dict(n=12, n_a=2, a_offset=3),
                                dict(n=12, n_a=2, bc="obc", b1=0.4), dict(n=9, n_a=3, bc="obc", a_offset=2)],
                         ids=["odd_bath", "offset3", "obc_b1_ne_bn", "obc_offset2"])
def test_chain_pass_on_asymmetric_chain_is_the_general_pass(kw):
    cfg = KimConfig(t=3, g=G, **kw)
    assert not cfg.mirror_symmetric
    state = evolve(cfg)
    for r, g in zip(moments_from_state(state, cfg, 3), moments_from_state(state, cfg, 3, chain=True)):
        assert r.tobytes() == g.tobytes()


def test_zero_probability_outcomes_raise_no_warning():
    # |0...0>: every bath outcome but one has Born weight exactly 0
    cfg = KimConfig(n=6, n_a=2, t=0, g=G)
    state = np.zeros(2**6, dtype=complex)
    state[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (2, 3):
            rho = moment_from_state(state, cfg, k)
            assert rho[0, 0] == pytest.approx(1.0) and np.abs(rho).sum() == pytest.approx(1.0)
        moments_from_state(state, cfg, 3)


def test_exact_bytes_bounds_traced_peak(tmp_path):
    def run(n):
        args = cli.build_parser().parse_args(
            ["exact", "--n", str(n), "--na", "2", "--t", "2", "--k", "3", "--out", str(tmp_path / "x.csv")])
        tracemalloc.start()
        try:
            assert args.func(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(6)  # first-use caches and imports stay out of the measured run
    peak = run(16)
    assert peak <= exact_bytes(16, 2, 3) <= 1.5 * peak


def test_exact_bytes_bounds_traced_peak_at_large_k(tmp_path):
    # k=16 at n=8: the Sym^16 sums (969 x 969) and the partial traces, not the
    # 4 KiB state, set the peak
    args = cli.build_parser().parse_args(
        ["exact", "--n", "8", "--na", "2", "--t", "1", "--k", "16", "--out", str(tmp_path / "x.csv")])
    assert args.func(args) == 0  # first-use caches
    peak = _traced_peak(args.func, args)
    assert peak <= exact_bytes(8, 2, 16) <= 1.5 * peak


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# at n=16 a state is 1 MiB: beside the state, already live, a stage may hold
# what it returns and about one chunk or block of outcomes more; a Floquet
# step returns the state it was given
@pytest.mark.parametrize("stage", ["phases", "floquet", "moments"])
def test_exact_stage_holds_no_state_sized_temporary(stage):
    n, mib = 16, 2**20
    small = KimConfig(n=8, n_a=2, t=1, g=G)
    moments_from_state(evolve(small), small, 3)  # first-use caches
    cfg = KimConfig(n=n, n_a=2, t=2, g=G)
    phases = ising_phase_vector(cfg)
    state = apply_floquet(apply_floquet(plus_state(n), cfg), cfg)
    f, args, bound = {
        "phases": (ising_phase_vector, (cfg,), phases.nbytes + mib),
        "floquet": (apply_floquet, (state, cfg), mib),
        "moments": (moments_from_state, (state, cfg, 3), 1.5 * mib),
    }[stage]
    assert _traced_peak(f, *args) <= bound


def test_rdm_maximally_mixed_at_t1():
    cfg = KimConfig(n=10, n_a=2, t=1, g=G)
    rho = moment_from_state(evolve(cfg), cfg, 1)
    assert np.abs(rho - np.eye(4) / 4).max() <= 1e-10


def test_moment_reduction_across_replicas():
    cfg = KimConfig(n=8, n_a=2, t=2, g=G)
    state = evolve(cfg)
    rho2 = moment_from_state(state, cfg, 2)
    rho1 = moment_from_state(state, cfg, 1)
    np.testing.assert_allclose(partial_trace(sym_embed(rho2, 4, 2), [4, 4], keep=[0]), rho1, atol=1e-12)


def test_moment_replica_permutation_symmetry():
    cfg = KimConfig(n=8, n_a=2, t=2, g=G)
    rho3 = sym_embed(moment_from_state(evolve(cfg), cfg, 3), 4, 3)
    for p in enumerate_sym(3):
        P = permutation_operator(p, 4)
        assert np.abs(P @ rho3 @ P.T - rho3).max() <= 1e-12


def test_delta_k_and_monotonicity():
    assert delta_k(sym_compress(haar_moment_operator(2, 2), 4, 2)) <= 1e-12
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert delta_k(rho) == pytest.approx(0.5)
    cfg = KimConfig(n=10, n_a=2, t=2, g=G)
    state = evolve(cfg)
    deltas = [delta_k(moment_from_state(state, cfg, k)) for k in (1, 2, 3)]
    assert deltas[0] <= deltas[1] <= deltas[2]
    assert deltas[0] <= 1e-10


def test_delta_invariant_under_outcome_relabeling():
    cfg = KimConfig(n=8, n_a=2, t=2, g=G)
    state = evolve(cfg)
    # flipping every bath bit reverses the order of the bath outcomes z
    A = state.reshape(2**cfg.offset, 2**cfg.n_a, -1)
    flipped = A[::-1, :, ::-1].reshape(-1)
    np.testing.assert_allclose(
        moment_from_state(flipped, cfg, 2), moment_from_state(state, cfg, 2), atol=1e-13
    )


def test_design_time():
    assert design_time({0: 0.5, 1: 0.0}, 1e-8) == 1
    assert design_time({0: 0.5, 1: 0.2}, 1e-8) is None
    series = {}
    for t in range(4):
        cfg = KimConfig(n=10, n_a=2, t=t, g=G)
        series[t] = delta_k(moment_from_state(evolve(cfg), cfg, 1))
    assert design_time(series, 1e-8) == 1  # ceil(n_a/2)
    with pytest.raises(AssertionError):
        design_times({1: {0: 1.0, 1: 0.0}, 2: {0: 0.0, 1: 0.0}}, 1e-8)


def _block_entropy(state, n, block_start, block_len):
    """entropy_bits of the order-1 moment of the block's bath outcomes.

    A pure state's block and its complement have the same entropy, so a block
    of more than 10 qubits, whose 2^len x 2^len moment would be too large, is
    replaced by its complement: the sites are rotated to put it first.
    """
    if block_len > 10:
        shift = block_start + block_len
        state = state.reshape([2] * n).transpose([(i + shift) % n for i in range(n)]).reshape(-1)
        block_start, block_len = 0, n - block_len
    cfg = KimConfig(n=n, n_a=block_len, t=0, a_offset=block_start, g=G)
    return entropy_bits(moment_from_state(state, cfg, 1))


def test_entanglement_entropy():
    prod = plus_state(4)
    assert _block_entropy(prod, 4, 1, 2) <= 1e-12
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert _block_entropy(bell, 2, 0, 1) == pytest.approx(1.0)


def _svd_entropy(state, n, block_start, block_len):
    M = state.reshape(2**block_start, 2**block_len, -1).transpose(1, 0, 2).reshape(2**block_len, -1)
    p = np.linalg.svd(M, compute_uv=False) ** 2
    p = p[p > 1e-14]
    return float(-(p * np.log2(p)).sum())


def test_entanglement_entropy_from_gram_matches_svd():
    rng = np.random.default_rng(5)
    for n, start, length in ((8, 3, 2), (8, 0, 5), (9, 2, 6), (10, 4, 1), (10, 0, 9)):
        state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state /= np.linalg.norm(state)
        ref = _svd_entropy(state, n, start, length)
        assert abs(_block_entropy(state, n, start, length) - ref) <= 1e-12


def test_entanglement_growth_and_saturation():
    # slope of 2 bits per step, saturating at n_a
    cfg1 = KimConfig(n=12, n_a=4, t=1, g=G)
    s1 = entropy_bits(moment_from_state(evolve(cfg1), cfg1, 1))
    cfg2 = KimConfig(n=12, n_a=4, t=2, g=G)
    s2 = entropy_bits(moment_from_state(evolve(cfg2), cfg2, 1))
    assert s1 == pytest.approx(2.0, abs=1e-8)
    assert s2 == pytest.approx(4.0, abs=1e-8)


def test_dual_unitary_ensemble_check():
    assert dual_unitary_ensemble_check(2, 0, G, [4]) == [0.0]
    d2, d6 = dual_unitary_ensemble_check(2, 1, G, [2, 6])
    assert d6 < d2
    with pytest.raises(ConfigError, match="bath side length"):
        dual_unitary_ensemble_check(2, 1, G, [2, 0])


@pytest.mark.parametrize("t,k", [(2, 1), (2, 2), (1, 3)])  # (1, 3): 2^t < k, pseudo-inverse Wg
def test_ensemble_check_matches_outcome_enumeration(t, k):
    lengths = range(1, 7)
    dists = dual_unitary_ensemble_check(t, k, G, lengths)
    haar = haar_unitary_moment_by_pairs(t, k)
    for L, d in zip(lengths, dists):
        ref = trace_norm(bath_moment_by_outcomes(t, k, G, L) - haar)
        assert abs(d - ref) <= max(1e-12 * abs(ref), 1e-13), (L, d, ref)


@pytest.mark.parametrize("t,k", [(1, 2), (2, 2), (1, 3)])
def test_haar_unitary_moment_is_the_transfer_operators_fixed_projector(t, k):
    phi = haar_unitary_moment(t, k)
    assert np.abs(phi - haar_unitary_moment_by_pairs(t, k)).max() <= 1e-13
    S = bath_transfer_operator(t, k, G)
    for lhs in (phi @ phi, S @ phi, phi @ S):
        assert np.abs(lhs - phi).max() <= 1e-12


def test_ensemble_check_reaches_long_baths_in_one_call():
    # 2^24 outcomes at L = 24, out of the enumeration's reach; here 23 GEMMs by S - Phi
    d = dual_unitary_ensemble_check(2, 2, G, range(1, 25))
    assert all(b <= a + 1e-9 for a, b in zip(d, d[1:]))
    assert d[23] < d[5] / 10


# the peak is about four dim x dim arrays, while S is built or in a trace norm; k=2 adds V
@pytest.mark.parametrize("t,k", [(2, 2), (5, 1)])
def test_designcheck_byte_count_bounds_traced_peak(t, k, monkeypatch):
    dual_unitary_ensemble_check(1, k, G, [2])  # first-use caches
    tracemalloc.start()
    try:
        dual_unitary_ensemble_check(t, k, G, [4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the count is at least the peak: a budget one byte below it refuses the run
    monkeypatch.setattr(kim, "MEM_BUDGET_BYTES", peak - 1)
    with pytest.raises(ConfigError, match="above budget"):
        dual_unitary_ensemble_check(t, k, G, [4])


def test_rdm_exactness_boundary_field_independent():
    # within the pre-recurrence window the chain ends sit outside the block's
    # light cone, so delta_1 exactness cannot depend on the boundary fields;
    # higher moments do feel them at finite N
    d2 = {}
    for b in (np.pi / 4, 0.0, 0.5):
        cfg = KimConfig(n=10, n_a=2, t=2, bc="obc", g=G, b1=b, bn=b)
        state = evolve(cfg)
        assert delta_k(moment_from_state(state, cfg, 1)) <= 1e-10
        d2[b] = delta_k(moment_from_state(state, cfg, 2))
    assert abs(d2[0.0] - d2[np.pi / 4]) > 1e-3


def _exact_route(k):
    cfg = KimConfig(n=8, n_a=2, t=2, g=G)
    state = evolve(cfg)
    return moment_from_state(state, cfg, k), _kron_moment(state, cfg, k)


def _replica_route(k):
    spec = ReplicaSpec(k=k, n=3 - k, t=2, n_a=2, bc="obc")  # m = 3
    return replica_moment(spec), direct_double_sum(spec, build_w(2))


def _mc_route(k):
    """The estimate against a full-space sum over the same sampled states."""
    cfg = McConfig(k=k, t=2, n_a=2, bc="pbc", samples=2500, seed=21)
    w = build_w(2)
    num = 0
    for i, b in enumerate(chain.from_iterable(batch_plan(cfg.resolved_checkpoints()))):
        psi = _run_states(cfg, w, i, (b,)).T
        nrm = np.einsum("bs,bs->b", psi, psi.conj()).real
        v = psi
        for _ in range(k - 1):
            v = np.einsum("bi,bj->bij", v, psi).reshape(b, -1)
        num = num + (v * nrm[:, None] ** (1 - k)).T @ v.conj()
    return mc_moment(cfg).rho, num / np.trace(num)


@pytest.mark.parametrize("route,k", [("exact", 1), ("exact", 2), ("exact", 3),
                                     ("replica", 1), ("replica", 2), ("replica", 3),
                                     ("mc", 1), ("mc", 2)])
def test_routes_return_sym_blocks(route, k):
    # every route returns its moment as the D x D Sym^k block of the full-space oracle
    block, oracle = {"exact": _exact_route, "replica": _replica_route, "mc": _mc_route}[route](k)
    D = math.comb(4 + k - 1, k)
    assert block.shape == (D, D)
    ref = sym_compress(oracle, 4, k)
    assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()
