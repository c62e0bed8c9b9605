from __future__ import annotations

import json
import os
import sys
import threading
import time
import tracemalloc
import warnings
from itertools import chain

import numpy as np
import pytest

import deeptherm.montecarlo as montecarlo
from deeptherm._kernels import P_FLOOR
from deeptherm.cli import main
from deeptherm.dual_tensors import build_w, min_depth, reduce_temporal_operator
from deeptherm.linalg import kron_all, sym_haar_distance, trace_norm
from deeptherm.montecarlo import (
    BATCH,
    JACKKNIFE_BLOCKS,
    McConfig,
    McError,
    _batch_rng,
    _delta_stderr,
    _haar_batch,
    _obc_factors,
    _restart,
    _run_estimator,
    _run_states,
    _run_sums,
    batch_plan,
    mc_moment,
    mc_projected_state,
    mc_replica_check,
)
from deeptherm.permgroup import enumerate_sym
from deeptherm.records import read_csv
from deeptherm.replica import ReplicaSpec, replica_moment
from fullspace import haar_moment_operator, permutation_operator, sym_embed

G = 0.3


def _haar_states(rng: np.random.Generator, d: int, b: int) -> np.ndarray:
    """b Haar-random unit vectors in C^d: normalized complex Gaussian draws."""
    z = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _explicit_kets_and_bras(cfg, L, G, gamma, rng):
    """The normalized kets K / |K| and bras B / |B| of a factored obc draw, (S, d) each.

    K = L Q and B = G Q + B_perp, with Q (r x N) a Haar isometry from rng and
    B_perp (p x N) orthogonal to Q's rows, |B_perp|^2 = gamma: a state's
    (kept, traced) reshape is its p x N matrix, so K B^+ = L G^+."""
    p, r, S = L.shape
    n = 2**cfg.t // p
    q = np.linalg.qr(rng.standard_normal((S, n, r)) + 1j * rng.standard_normal((S, n, r)))[0]
    Q = q.conj().transpose(0, 2, 1)  # orthonormal rows
    y = rng.standard_normal((S, p, n)) + 1j * rng.standard_normal((S, p, n))
    y -= y @ q @ Q  # B_perp's direction, orthogonal to Q's rows
    if n > r:
        y *= np.sqrt(gamma / np.einsum("sij,sij->s", y, y.conj()).real)[:, None, None]
    else:  # Q's rows span C^N, and gamma = Gamma(0) = 0
        assert np.all(gamma == 0)
        y[...] = 0
    K = L.transpose(2, 0, 1) @ Q
    B = G.transpose(2, 0, 1) @ Q + y
    for M, N2 in ((K, np.einsum("ijs,ijs->s", L, L.conj()).real),
                  (B, np.einsum("ijs,ijs->s", G, G.conj()).real + gamma)):
        assert np.allclose(np.einsum("sij,sij->s", M, M.conj()).real, N2, rtol=1e-12, atol=0)
    kets, bras = K.reshape(S, -1), B.reshape(S, -1)
    return (kets / np.linalg.norm(kets, axis=1, keepdims=True),
            bras / np.linalg.norm(bras, axis=1, keepdims=True))


def _normalized_obc_run_states(cfg, w, first, sizes):
    """obc projected states of a run, as columns, from normalized copies of explicit kets and bras."""
    out = []
    for i, b in enumerate(sizes, start=first):
        L, G, gamma = _obc_factors(cfg, i, (b,))
        kets, bras = _explicit_kets_and_bras(cfg, L, G, gamma, np.random.default_rng(i))
        kets, bras = (x.reshape(b, 2**w.t_legs, -1) for x in (kets, bras))
        R = np.einsum("bir,bcr->bic", kets, bras.conj())
        out.append(np.einsum("sxy,byx->bs", w.data, R))
    return np.concatenate(out).T


def test_config_validation():
    with pytest.raises(McError):
        McConfig(k=2, t=2, n_a=2, samples=100, checkpoints=(200,))
    with pytest.raises(McError):
        McConfig(k=2, t=2, n_a=2, samples=1000, checkpoints=(100, 100, 1000))
    with pytest.raises(McError):
        McConfig(k=2, t=2, n_a=2, samples=1000, checkpoints=(0, 1000))
    with pytest.raises(McError):
        McConfig(k=2, t=0, n_a=2, samples=1000)
    with pytest.raises(McError):
        McConfig(k=2, t=11, n_a=2, samples=1000)  # pbc's temporal register capped at 10 qubits
    with pytest.raises(McError):
        McConfig(k=2, t=31, n_a=2, bc="obc", samples=1000)  # obc's at 30
    McConfig(k=2, t=30, n_a=2, bc="obc", samples=1000)
    McConfig(k=7, t=2, n_a=2, samples=1000)  # Sym^7 sums of 120 x 120; no replica codes
    McConfig(k=16, t=2, n_a=2, samples=1_000_000)  # 64 Sym^16 block sums of 969 x 969, 1 GB
    with pytest.raises(McError, match="above budget"):
        McConfig(k=21, t=2, n_a=2, samples=1000)  # 64 Sym^21 block sums of 2024 x 2024, 4.4 GB
    McConfig(k=6, t=2, n_a=2, samples=20000)  # 21 Sym^6 batch sums of 84 x 84
    McConfig(k=4, t=2, n_a=2, samples=500_000)  # 64 Sym^4 block sums of 35 x 35
    cfg = McConfig(k=2, t=2, n_a=2, samples=250_000)
    assert cfg.checkpoints == (1000, 10_000, 100_000, 250_000)
    assert BATCH == 1000


def test_preflight_counts_sym_block_batch_sums(monkeypatch):
    # 64 Sym^5 block sums of 56 x 56, the total and the jackknife's two buffers,
    # beside one pbc batch of 1000 8 x 8 unitaries, its 56 x 1000 accumulation
    # rows, the kernel's float rows and casting buffers (3 + 4 dA floats per
    # state), its float coefficient product and 4 KiB of call objects, and the
    # batch sums of IN_FLIGHT one-batch tasks held for the reduction: ~12 MB,
    # where 67 full 1024 x 1024 sums would be ~1.1 GB
    assert McConfig(k=5, t=3, n_a=2, samples=300_000).task_batches() == 1
    need = (16 * 56**2 * (JACKKNIFE_BLOCKS + 3) + 5 * 16 * 1000 * 8**2 + 4 * 16 * 56 * 1000 + 2 * 16 * 56**2
            + 8 * (3 + 4 * 4) * 1000 + 8 * 56**2 + 4096 + montecarlo.IN_FLIGHT * 16 * 56**2)
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", need - 1)
    with pytest.raises(McError, match="above budget"):
        McConfig(k=5, t=3, n_a=2, samples=300_000)
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", need)
    McConfig(k=5, t=3, n_a=2, samples=300_000)


def test_one_batch_plan_for_preflight_and_estimator(monkeypatch):
    # checkpoints off the BATCH grid: each ends a short batch
    cps = (1500, 2300, 5000)
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=5000, checkpoints=cps, seed=3)
    plan = list(batch_plan(cps))
    assert plan == [(1000, None), (500, 1500), (800, 2300), (1000, None), (1000, None), (700, 5000)]
    sizes = []
    real = montecarlo._run_states

    def recording(cfg, w, first, run):
        sizes.extend(enumerate(run, start=first))
        return real(cfg, w, first, run)

    monkeypatch.setattr(montecarlo, "_run_states", recording)
    est = mc_moment(cfg)
    assert sorted(sizes) == list(enumerate([1000, 500, 800, 1000, 1000, 700]))
    assert len(est.block_nums) == 6 and est.checkpoint_batches == [2, 3, 6]
    # the preflight counts JACKKNIFE_BLOCKS block sums, whatever the batch count
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", 0)
    with pytest.raises(McError, match="keeps 64 jackknife block sums of 10 x 10"):
        McConfig(k=2, t=2, n_a=2, bc="obc", samples=5000, checkpoints=cps, seed=3)


def test_mc_moment_takes_its_batches_from_batch_plan(monkeypatch):
    # the estimator's one plan: the sizes _run_sums receives, in stream order,
    # are those batch_plan yields, and each row is taken where an entry names it
    cps = (1500, 2300, 2301, 5000)
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=5000, checkpoints=cps, seed=3)
    planned, runs = [], []
    real_plan, real_sums = montecarlo.batch_plan, montecarlo._run_sums

    def recording_plan(checkpoints):
        for entry in real_plan(checkpoints):
            planned.append(entry)
            yield entry

    def recording_sums(cfg, w, exponent, first, sizes):
        runs.append((first, sizes))
        return real_sums(cfg, w, exponent, first, sizes)

    monkeypatch.setattr(montecarlo, "batch_plan", recording_plan)
    monkeypatch.setattr(montecarlo, "_run_sums", recording_sums)
    est = mc_moment(cfg)
    assert planned == [(1000, None), (500, 1500), (800, 2300), (1, 2301), (1000, None), (1000, None), (699, 5000)]
    assert [b for _, sizes in sorted(runs) for b in sizes] == [b for b, _ in planned]
    assert [cp for cp, _ in est.series.points] == list(cps)
    assert est.checkpoint_batches == [2, 3, 4, 7]


def test_checkpoints_resolved_once():
    # the default schedule, 1000, 10^4, ... below samples, then samples, is
    # resolved in the config, and a list of checkpoints becomes a tuple
    for samples, cps in ((500, (500,)), (1000, (1000,)), (10**4, (1000, 10**4)),
                         (250_000, (1000, 10**4, 10**5, 250_000))):
        cfg = McConfig(k=2, t=2, n_a=2, samples=samples)
        assert cfg.checkpoints == cps
        assert cfg == McConfig(k=2, t=2, n_a=2, samples=samples, checkpoints=cps)
    cfg = McConfig(k=2, t=2, n_a=2, samples=5000, checkpoints=[1500, 5000])
    assert type(cfg.checkpoints) is tuple and cfg.checkpoints == (1500, 5000)


def test_pool_width_counts_batch_sums_held_in_flight(monkeypatch):
    # IN_FLIGHT tasks a worker are submitted ahead of the reduction, and a
    # finished one holds its task_batches() D x D sums until it is reduced.  At
    # Sym^19 (D = 1540), four working sets fit 3.5 GB beside the 64 kept block
    # sums (3.318 GB), but not with the (IN_FLIGHT - 1) * 4 + 1 finished sums
    # they may hold (3.508 GB): three workers.  Only the config is built.
    monkeypatch.setattr(montecarlo, "WORKERS", 8)
    cfg = McConfig(k=19, t=2, n_a=2, bc="obc", samples=10**6)
    D, run = cfg.sym_dim, cfg.task_batches()
    assert (D, run) == (1540, 1)

    def worst(width):  # the working sets and the most finished sums held at once
        return (cfg.kept_bytes() + width * cfg.batch_bytes()
                + ((montecarlo.IN_FLIGHT - 1) * width + 1) * run * 16 * D**2)

    assert worst(4) > montecarlo.MEM_BUDGET_BYTES >= worst(3)
    assert montecarlo.pool_width(cfg) == 3
    # the preflight counts one worker's IN_FLIGHT tasks of sums beside its working set
    one = cfg.kept_bytes() + cfg.batch_bytes() + montecarlo.IN_FLIGHT * run * 16 * D**2
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", one - 1)
    with pytest.raises(McError, match="above budget"):
        McConfig(k=19, t=2, n_a=2, bc="obc", samples=10**6)
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", one)
    McConfig(k=19, t=2, n_a=2, bc="obc", samples=10**6)


def _widths(monkeypatch, run):
    # width 3 is more threads than a 2-core host has; a short switch interval
    # interleaves them as often as it can
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for width in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "WORKERS", width)
            out.append(run())
    finally:
        sys.setswitchinterval(interval)
    return out


@pytest.mark.parametrize("route", ["pbc", "obc", "replica_n1"])
def test_result_independent_of_pool_width(monkeypatch, route):
    # 21 batches: more than any width's window, so batches finish out of order
    bc = "obc" if route == "obc" else "pbc"
    cfg = McConfig(k=2, t=2, n_a=2, bc=bc, samples=20_500, seed=17)
    estimator = (lambda: mc_replica_check(cfg, 1)) if route == "replica_n1" else (lambda: mc_moment(cfg))
    ref, *others = _widths(monkeypatch, estimator)
    assert len(ref.block_nums) == 21
    for est in others:
        assert len(est.block_nums) == len(ref.block_nums)
        for a, b in zip(est.block_nums, ref.block_nums):
            np.testing.assert_array_equal(a, b)
        assert est.block_dens == ref.block_dens
        assert est.series.points == ref.series.points
        np.testing.assert_array_equal(est.checkpoint_stderrs, ref.checkpoint_stderrs)
        np.testing.assert_array_equal(est.entry_stderr(), ref.entry_stderr())
        np.testing.assert_array_equal(est.rho, ref.rho)


def test_pool_width_capped_by_memory_budget(monkeypatch):
    # every worker holds one batch: counted as 5 complex 1000 x d x d arrays
    # for pbc, so 3.5 GB fits ten pbc batches at t=6 but two at t=7; an obc
    # batch is O(p^2) numbers per sample at any t and never caps the pool
    monkeypatch.setattr(montecarlo, "WORKERS", 8)
    assert montecarlo.pool_width(McConfig(k=1, t=6, n_a=1, samples=1000)) == 8
    assert montecarlo.pool_width(McConfig(k=1, t=7, n_a=1, samples=1000)) == 2
    assert montecarlo.pool_width(McConfig(k=1, t=10, n_a=1, bc="obc", samples=1000)) == 8
    with pytest.raises(McError, match="above budget"):  # one pbc batch at t=9 is 21 GB
        McConfig(k=1, t=9, n_a=1, samples=1000)
    cfg = McConfig(k=1, t=6, n_a=1, samples=1000)
    # and beside the states, the accumulation rows and sums of Sym^1, D = 2,
    # the kernel's float rows and casting buffers, 3 + 4 dA floats per state,
    # its float coefficient product and 4 KiB of call objects; and the batch
    # sums of IN_FLIGHT one-batch tasks, held until the reduction reaches them
    assert cfg.task_batches() == 1
    per_batch = (5 * 16 * montecarlo.BATCH * 4**6 + 4 * 16 * 2 * montecarlo.BATCH + 2 * 16 * 2**2
                 + 8 * (3 + 4 * 2) * montecarlo.BATCH + 8 * 2**2 + 4096 + montecarlo.IN_FLIGHT * 16 * 2**2)
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", cfg.kept_bytes() + 3 * per_batch)
    assert montecarlo.pool_width(cfg) == 3
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", cfg.kept_bytes() + per_batch - 1)
    assert montecarlo.pool_width(cfg) == 1
    monkeypatch.undo()

    # a budget of one batch runs the batches on one thread, with the same result
    small = McConfig(k=2, t=2, n_a=2, bc="pbc", samples=6000, seed=9)
    threads = set()
    real = montecarlo._run_states

    def recording(cfg, w, first, sizes):
        threads.add(threading.get_ident())
        return real(cfg, w, first, sizes)

    monkeypatch.setattr(montecarlo, "_run_states", recording)
    monkeypatch.setattr(montecarlo, "WORKERS", 3)
    wide = mc_moment(small)
    assert montecarlo.pool_width(small) == 3
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", small.kept_bytes() + 5 * 16 * 1000 * 16)
    assert montecarlo.pool_width(small) == 1
    threads.clear()
    narrow = mc_moment(small)
    assert len(threads) == 1
    for a, b in zip(narrow.block_nums, wide.block_nums, strict=True):
        np.testing.assert_array_equal(a, b)
    assert narrow.series.points == wide.series.points
    np.testing.assert_array_equal(narrow.rho, wide.rho)


@pytest.mark.parametrize("n_a,k,t,bc", [(3, 4, 2, "obc"), (2, 8, 1, "obc"), (2, 8, 2, "pbc"),
                                        (2, 2, 3, "obc"), (2, 2, 3, "pbc"), (2, 2, 10, "obc"),
                                        (2, 2, 20, "obc"), (1, 1, 1, "obc"), (1, 2, 1, "obc"),
                                        (1, 3, 2, "obc"), (1, 5, 3, "obc"), (1, 2, 2, "pbc"),
                                        (2, 1, 3, "obc")])
def test_batch_bytes_bounds_traced_batch_peak(n_a, k, t, bc):
    # batch_bytes counts one pool task, a run of task_batches() batches; at
    # large D the accumulation rows, not the states, dominate it, and the
    # states and the rows, never live together, are added
    cfg = McConfig(k=k, t=t, n_a=n_a, bc=bc, samples=10 * BATCH, seed=3)
    w = build_w(n_a)
    run = [BATCH] * cfg.task_batches()
    _run_sums(cfg, w, 1 - k, 0, run)  # the basis caches are built once per process
    tracemalloc.start()
    try:
        _run_sums(cfg, w, 1 - k, len(run), run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cfg.batch_bytes() <= 2 * peak


def test_obc_batch_bytes_independent_of_depth():
    # an obc sample is O(p^2) numbers at any t: no 2^t term is counted
    short, deep = (McConfig(k=2, t=t, n_a=2, bc="obc", samples=100_000) for t in (3, 20))
    assert short.batch_bytes() == deep.batch_bytes() < 4 * 2**20


def test_cli_mc_obc_runs_deep_circuits(tmp_path):
    out = str(tmp_path / "mc.csv")
    assert main(["mc", "--k", "2", "--bc", "obc", "--t", "20", "--samples", "2000", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert [int(r[cols.index("t")]) for r in rows] == [20, 20]
    assert all(np.isfinite(float(r[cols.index("delta_k")])) for r in rows)


def test_restart_draws_a_fresh_batch_stream():
    rng = _batch_rng(5, 1)
    rng.standard_normal(7)
    rng.standard_gamma(3.0, size=5)
    again = _restart(rng, 5, 9)
    assert again is rng
    np.testing.assert_array_equal(rng.standard_normal(20), _batch_rng(5, 9).standard_normal(20))


@pytest.mark.parametrize("n_a,t,bc", [(2, 3, "obc"), (3, 4, "obc"), (1, 1, "obc"), (2, 1, "pbc")])
def test_batch_sum_independent_of_its_run(n_a, t, bc):
    # a pool task forms its batches' states and weights together; a batch's
    # sum must be bit for bit the one it gets alone, short batches at
    # checkpoints (of 500, 800, 1 and 699 samples) included
    k = 1 if n_a == 3 else 2
    cps = (1500, 2300, 2301, 5000)
    cfg = McConfig(k=k, t=t, n_a=n_a, bc=bc, samples=5000, checkpoints=cps, seed=23)
    w = build_w(n_a)
    sizes = [b for b, _ in batch_plan(cps)]
    assert sizes == [1000, 500, 800, 1, 1000, 1000, 699]
    alone = [_run_sums(cfg, w, 1 - k, i, [b])[0] for i, b in enumerate(sizes)]
    runs = (_run_sums(cfg, w, 1 - k, 0, sizes),
            [None] + _run_sums(cfg, w, 1 - k, 1, sizes[1:4]) + [None] * 3,
            mc_moment(cfg).block_nums)
    for run in runs:
        for got, ref in zip(run, alone, strict=True):
            if got is not None:
                np.testing.assert_array_equal(got, ref)


def test_states_below_p_floor_get_weight_zero(monkeypatch):
    # the exact route's floor: a zero state and one at P_FLOOR / 2 add nothing
    # (with no warning), one at 4 P_FLOOR is kept; at exponent -k each kept
    # state adds its unit-trace projector
    cfg = McConfig(k=2, t=2, n_a=2, bc="pbc", samples=1000, seed=4)
    w = build_w(2)
    psi = _run_states(cfg, w, 0, (40,))
    psi[:, 0] = 0.0
    psi[:, 7] *= np.sqrt(P_FLOOR / 2) / np.linalg.norm(psi[:, 7])
    psi[:, 9] *= 2 * np.sqrt(P_FLOOR) / np.linalg.norm(psi[:, 9])
    monkeypatch.setattr(montecarlo, "_run_states", lambda *args: psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (got,) = _run_sums(cfg, w, -2.0, 0, [40])
    kept = [i for i in range(40) if i not in (0, 7)]
    ref = 0
    for i in kept:
        v = np.kron(psi[:, i], psi[:, i]) / np.vdot(psi[:, i], psi[:, i]).real
        ref = ref + np.outer(v, v.conj())
    assert np.trace(got).real == pytest.approx(len(kept), rel=1e-12)
    assert np.abs(sym_embed(got, 4, 2) - ref).max() <= 1e-12


def test_batch_above_budget_refused_before_sampling(tmp_path, capsys, monkeypatch):
    # one pbc batch at t=8 is counted as 5 complex 1000 x 256 x 256 arrays,
    # ~5.2 GB: above the 3.5 GB budget alone, so no pool width could run it
    def fail(*args, **kwargs):
        raise AssertionError("sampled for a refused size")

    monkeypatch.setattr(montecarlo, "_run_states", fail)
    out = str(tmp_path / "mc.csv")
    assert main(["mc", "--k", "2", "--t", "8", "--bc", "pbc", "--samples", "1000",
                 "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "McError" and "above budget" in rec["error"]
    assert not os.path.exists(out)
    # an obc batch is counted as a few complex numbers per sample at any t,
    # and fits: obc forms no d x d operator and no d-vector
    McConfig(k=1, t=10, n_a=1, bc="obc", samples=1000)


def test_batch_error_stops_the_pool_promptly(tmp_path, capsys, monkeypatch):
    started = []
    real = montecarlo._run_states

    def failing(cfg, w, first, sizes):
        started.append(first)
        if first == 3:
            time.sleep(0.2)  # time for the other worker to run ahead, were it let
            raise McError("batch 3 failed")
        return real(cfg, w, first, sizes)

    # one task per batch, so a task's first batch is its index
    assert McConfig(k=2, t=2, n_a=2, samples=200_000).task_batches() == 1
    monkeypatch.setattr(montecarlo, "WORKERS", 2)
    monkeypatch.setattr(montecarlo, "_run_states", failing)
    out = str(tmp_path / "mc.csv")
    assert main(["mc", "--k", "2", "--t", "2", "--samples", "200000", "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec == {"error": "batch 3 failed", "type": "McError"}
    assert not os.path.exists(out)
    # batches 0-2 were reduced, each submitting one more: no batch past
    # 3 + the window ever started
    window = montecarlo.IN_FLIGHT * montecarlo.WORKERS
    assert 3 in started and max(started) <= 3 + window - 1


def test_checkpoints_must_end_at_samples():
    # samples after the last checkpoint would get no row; one past samples, no samples
    for samples, cps in ((1000, (500,)), (2000, (1000, 1500)), (1000, (500, 2000))):
        with pytest.raises(McError, match="last checkpoint"):
            McConfig(k=2, t=2, n_a=2, samples=samples, checkpoints=cps)


def test_mc_projected_state_basics(w2, rng):
    u, u2 = _haar_batch(rng, 8, 2)
    psi, nrm = mc_projected_state(u, None, "pbc", w2)
    assert nrm >= 0
    assert nrm == pytest.approx(np.vdot(psi, psi).real)
    # a global phase on U changes the state only by a phase
    psi2, nrm2 = mc_projected_state(np.exp(0.7j) * u, None, "pbc", w2)
    assert nrm2 == pytest.approx(nrm, rel=1e-12)
    assert abs(abs(np.vdot(psi, psi2)) - nrm) <= 1e-12 * max(nrm, 1.0)
    psi_o, nrm_o = mc_projected_state(u, u2, "obc", w2)
    assert nrm_o >= 0
    with pytest.raises(McError):
        mc_projected_state(u, None, "obc", w2)


def test_single_sample_matches_batch_path(w2):
    cfg = McConfig(k=2, t=3, n_a=2, bc="pbc", samples=4, checkpoints=(4,), seed=77)
    batch = _run_states(cfg, w2, 0, (4,))
    U = _haar_batch(_batch_rng(77, 0), 8, 4)
    for i in range(4):
        psi, _ = mc_projected_state(U[i], None, "pbc", w2)
        np.testing.assert_allclose(psi, batch[:, i], atol=1e-13)


def _unitary_with_first_column(v, rng):
    """A unitary whose column 0 is the unit vector v: QR of [v | Gaussian], phase fixed."""
    d = len(v)
    z = np.column_stack([v, rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))])
    q, r = np.linalg.qr(z)
    q[:, 0] *= r[0, 0]  # q[:, 0] r00 = v and |r00| = |v| = 1
    return q


def test_obc_batch_matches_single_sample_oracle(w2, rng):
    # the obc batch path draws the Bartlett factors L, G and gamma; explicit
    # kets K = L Q and bras B = G Q + B_perp, completed to unitaries U', U,
    # must reproduce the single-sample path row by row
    t, b, seed = 3, 6, 77
    d = 2**t
    cfg = McConfig(k=2, t=t, n_a=2, bc="obc", samples=b, checkpoints=(b,), seed=seed)
    batch = _run_states(cfg, w2, 0, (b,))
    ket, bra = _explicit_kets_and_bras(cfg, *_obc_factors(cfg, 0, (b,)), rng)
    hadamard = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)] * t)
    plus = np.full(d, 2.0 ** (-t / 2))
    for i in range(b):
        u_prime = _unitary_with_first_column(ket[i], rng)
        u = _unitary_with_first_column(bra[i], rng) @ hadamard  # H^t |+> = |0>
        for m in (u_prime, u):
            assert np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-13
        assert np.abs(u_prime[:, 0] - ket[i]).max() <= 1e-14
        assert np.abs(u @ plus - bra[i]).max() <= 1e-14
        psi, _ = mc_projected_state(u, u_prime, "obc", w2)
        np.testing.assert_allclose(psi, batch[:, i], atol=1e-13)


@pytest.mark.parametrize("n_a", [1, 2, 3, 4])
def test_obc_batch_matches_normalized_state_oracle(n_a, rng):
    # t from t0 to 8 spans N < p (t = t0 at n_a = 3, 4), N = p and N > p:
    # the batch rows equal psi~ of the unitaries that complete explicit kets
    # and bras of the same draw to unitaries
    w = build_w(n_a)
    for t in range(min_depth(n_a), 9):
        d = 2**t
        cfg = McConfig(k=2, t=t, n_a=n_a, bc="obc", samples=300, seed=41)
        psi = _run_states(cfg, w, 2, (3,)).T
        ket, bra = _explicit_kets_and_bras(cfg, *_obc_factors(cfg, 2, (3,)), rng)
        hadamard = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)] * t)
        ref = np.array([mc_projected_state(_unitary_with_first_column(bra[i], rng) @ hadamard,
                                           _unitary_with_first_column(ket[i], rng), "obc", w)[0]
                        for i in range(3)])
        assert psi.shape == ref.shape == (3, 2**n_a)
        err = np.linalg.norm(psi - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert err.max() <= 1e-13, (t, d, err.max())


def test_obc_csv_matches_normalized_state_reference(tmp_path, monkeypatch):
    # the run path (factored draw, states, norms and weights over runs of
    # batches) against explicit normalized kets and bras of the same draws,
    # reduced batch by batch: only rounding differs
    args = ["mc", "--k", "2", "--t", "3", "--bc", "obc", "--na", "2",
            "--samples", "12000", "--seed", "5"]
    out, ref = str(tmp_path / "out.csv"), str(tmp_path / "ref.csv")
    assert main(args + ["--out", out]) == 0
    monkeypatch.setattr(montecarlo, "_run_states", _normalized_obc_run_states)
    assert main(args + ["--out", ref]) == 0
    cols, rows = read_csv(out)
    ref_cols, ref_rows = read_csv(ref)
    assert cols == ref_cols and len(rows) == len(ref_rows) == 3
    for row, ref_row in zip(rows, ref_rows):
        for c in ("k", "t", "bc", "M_checkpoint", "converged_flag"):
            assert row[cols.index(c)] == ref_row[cols.index(c)]
        for c, rel in (("delta_k", 1e-12), ("stderr", 1e-9)):
            a, b = (float(r[cols.index(c)]) for r in (row, ref_row))
            assert a == pytest.approx(b, rel=rel, nan_ok=True), c


def _overlap_statistics(R):
    """Per sample, the second and fourth moments of R's entries: each |R_ij|^2
    and |R_ij|^4, and the sums of |R_ij|^2 |R_kl|^2 over the pairs of entries
    in one row, in one column and in neither."""
    x = np.abs(R) ** 2
    x2 = x * x
    pairs = [(x.sum(axis=a) ** 2 - x2.sum(axis=a)).sum(axis=1) / 2 for a in (2, 1)]
    everywhere = (x.sum(axis=(1, 2)) ** 2 - x2.sum(axis=(1, 2))) / 2
    flat = x.reshape(len(x), -1)
    return np.column_stack([flat, flat**2, *pairs, everywhere - pairs[0] - pairs[1]])


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 4), (4, 2), (4, 4), (2, 16)])
def test_obc_factored_draw_has_the_haar_state_law(p, n):
    # R = L G^+ / (|L| sqrt(|G|^2 + gamma)) from the factored draw against
    # R = K B^+ / (|K| |B|) from two Haar states drawn directly: the second and
    # fourth moments of its entries agree within 4 standard errors
    n_a, samples = {2: 2, 4: 3}[p], 100_000
    cfg = McConfig(k=1, t=min_depth(n_a) + int(np.log2(n)), n_a=n_a, bc="obc", samples=samples)
    L, G, gamma = _obc_factors(cfg, 0, (BATCH,) * (samples // BATCH))
    nrm2 = np.einsum("ijs,ijs->s", L, L.conj()).real * (np.einsum("ijs,ijs->s", G, G.conj()).real + gamma)
    factored = np.einsum("ijs,cjs->sic", L, G.conj()) / np.sqrt(nrm2)[:, None, None]
    rng = np.random.default_rng(2025)
    direct = []
    for _ in range(samples // 20_000):
        kets, bras = _haar_states(rng, p * n, 40_000).reshape(2, 20_000, p, n)
        direct.append(np.einsum("bir,bcr->bic", kets, bras.conj()))
    stats = [_overlap_statistics(R) for R in (factored, np.concatenate(direct))]
    mean = [s.mean(axis=0) for s in stats]
    se = np.sqrt(sum(s.var(axis=0) for s in stats) / samples)
    z = np.abs(mean[0] - mean[1]) / se
    assert z.max() <= 4.0, (p, n, z.max())


def test_haar_states_unit_norm_and_moments():
    # first and second moments of Haar states: I/d and (I + SWAP)/(d(d+1))
    n, q = 40_000, 3
    v = _haar_states(_batch_rng(2024, 0), 2**q, n)
    assert np.abs(np.linalg.norm(v, axis=1) - 1).max() <= 1e-14
    for k in (1, 2):
        x = v if k == 1 else np.einsum("bi,bj->bij", v, v).reshape(n, -1)
        mean = x.T @ x.conj() / n
        var = (np.abs(x) ** 2).T @ (np.abs(x) ** 2) / n - np.abs(mean) ** 2
        z = np.abs(mean - haar_moment_operator(q, k)) / np.sqrt(var / n)
        assert z.max() <= 5.0, (k, z.max())


def test_pbc_csv_matches_haar_batch_reference(tmp_path, monkeypatch):
    # pbc keeps its stream: one Haar unitary batch per Philox batch stream,
    # reduced as a whole
    def reference_run_states(cfg, w, first, sizes):
        return np.concatenate([
            np.einsum("sxy,byx->bs", w.data, reduce_temporal_operator(
                _haar_batch(_batch_rng(cfg.seed, i), 2**cfg.t, b), w.t_legs))
            for i, b in enumerate(sizes, start=first)]).T

    args = ["mc", "--k", "2", "--t", "3", "--bc", "pbc", "--na", "2",
            "--samples", "12000", "--seed", "5"]
    out, ref = str(tmp_path / "out.csv"), str(tmp_path / "ref.csv")
    assert main(args + ["--out", out]) == 0
    monkeypatch.setattr(montecarlo, "_run_states", reference_run_states)
    assert main(args + ["--out", ref]) == 0
    assert open(out, "rb").read() == open(ref, "rb").read()


def test_mc_k1_converges_to_maximally_mixed():
    cfg = McConfig(k=1, t=2, n_a=2, bc="pbc", samples=200_000, seed=5)
    est = mc_moment(cfg)
    assert np.abs(est.rho - np.eye(4) / 4).max() <= 5e-3
    deltas = [d for _, d in est.series.points]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))  # no floor for k=1


def test_mc_seed_determinism():
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=30_000, seed=123)
    e1 = mc_moment(cfg)
    e2 = mc_moment(cfg)
    assert e1.series.points == e2.series.points
    assert np.array_equal(e1.rho, e2.rho)


def test_checkpoint_stderrs_end_at_jackknife():
    # the last SE is the leave-one-batch-out jackknife over every batch;
    # 30_500 samples leave a partial last batch
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=30_500, seed=123)
    est = mc_moment(cfg)
    ses = est.checkpoint_stderrs
    assert len(ses) == len(est.series.points)
    assert est.checkpoint_batches == [1, 10, 31]
    assert np.isnan(ses[0])  # one batch at the first checkpoint
    assert est.series.points[-1][0] == cfg.samples
    nums, dens = np.asarray(est.block_nums), np.asarray(est.block_dens)
    B = len(nums)
    assert nums.shape == (B, 10, 10)  # Sym^2 blocks, D = 10
    deltas = np.array([0.5 * sym_haar_distance((nums.sum(axis=0) - nums[i]) / (dens.sum() - dens[i]))
                       for i in range(B)])
    assert ses[-1] == np.sqrt((B - 1) / B * ((deltas - deltas.mean()) ** 2).sum())
    # the same jackknife on the embedded sums against the dense Haar moment
    full = np.array([sym_embed(x, 4, 2) for x in nums])
    haar = haar_moment_operator(2, 2)
    dense = np.array([0.5 * trace_norm((full.sum(axis=0) - full[i]) / (dens.sum() - dens[i]) - haar)
                      for i in range(B)])
    assert ses[-1] == pytest.approx(np.sqrt((B - 1) / B * ((dense - dense.mean()) ** 2).sum()), rel=1e-9)
    # the jackknife over the 31 stored blocks makes no stacked copy of them
    tracemalloc.start()
    try:
        assert _delta_stderr(est.block_nums, est.block_dens) == ses[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * nums[0].nbytes


def _stacked_entry_stderr(nums, dens):
    """The jackknife entrywise SE with every leave-one-out moment stacked at once."""
    B = len(nums)
    rhos = (nums.sum(axis=0) - nums) / (dens.sum() - dens)[:, None, None]
    return np.sqrt((B - 1) / B * (np.abs(rhos - rhos.mean(axis=0)) ** 2).sum(axis=0))


def test_entry_stderr_matches_stacked_jackknife_in_bounded_memory():
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=30_500, seed=123)
    est = mc_moment(cfg)
    assert len(est.block_nums) == 31
    se = est.entry_stderr()
    full = np.array([sym_embed(x, 4, 2) for x in est.block_nums])
    ref = _stacked_entry_stderr(full, np.asarray(est.block_dens))
    assert se.shape == (10, 10)  # the Sym^2 block, like rho
    assert np.abs(sym_embed(se, 4, 2) - ref).max() <= 1e-12 * ref.max()
    # a running sum and one leave-one-out moment at a time: a few batch sums,
    # not a stack of them
    tracemalloc.start()
    try:
        est.entry_stderr()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * est.block_nums[0].nbytes


def test_checkpoint_row_equals_run_ending_there():
    # no batch crosses a checkpoint: the M=1500 row holds exactly the first
    # 1500 samples, bit for bit the final point of a 1500-sample run
    base = dict(k=2, t=2, n_a=2, bc="obc", seed=5)
    long = mc_moment(McConfig(samples=3000, checkpoints=(1000, 1500, 3000), **base))
    short = mc_moment(McConfig(samples=1500, **base))
    assert short.series.points[-1][0] == 1500
    assert long.series.points[1] == short.series.points[-1]
    np.testing.assert_array_equal(long.checkpoint_stderrs[:2], short.checkpoint_stderrs)
    assert long.checkpoint_batches == [1, 2, 4]


def test_jackknife_blocks_group_batches_by_index(monkeypatch):
    # 130 batches: batch i is added into block i % 64, so blocks 0 and 1 hold
    # three batches and the others two; each checkpoint's SE is the jackknife
    # over the blocks filled by then, rebuilt here from the batch sums
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=130_000, seed=29)
    solves = []
    real = montecarlo.sym_haar_distance
    monkeypatch.setattr(montecarlo, "sym_haar_distance", lambda rho: solves.append(1) or real(rho))
    est = mc_moment(cfg)
    assert est.checkpoint_batches == [1, 10, 100, 130]
    # one eigensolve per checkpoint's delta, one per block left out: at most 64 a checkpoint
    assert len(solves) == 4 + 0 + 10 + JACKKNIFE_BLOCKS + JACKKNIFE_BLOCKS
    sums = _run_sums(cfg, build_w(2), 1 - cfg.k, 0, [b for b, _ in batch_plan(cfg.checkpoints)])
    for B, se in zip(est.checkpoint_batches, est.checkpoint_stderrs):
        groups = [sums[j:B:JACKKNIFE_BLOCKS] for j in range(min(B, JACKKNIFE_BLOCKS))]
        nums = np.array([sum(g) for g in groups])
        dens = np.array([sum(float(np.trace(x).real) for x in g) for g in groups])
        if B == 1:
            assert np.isnan(se)
            continue
        n = len(nums)
        deltas = np.array([0.5 * sym_haar_distance((nums.sum(axis=0) - nums[i]) / (dens.sum() - dens[i]))
                           for i in range(n)])
        assert se == np.sqrt((n - 1) / n * ((deltas - deltas.mean()) ** 2).sum())
    for a, b in zip(est.block_nums, nums, strict=True):
        np.testing.assert_array_equal(a, b)
    assert est.block_dens == list(dens)
    ref = _stacked_entry_stderr(np.array([sym_embed(x, 4, 2) for x in nums]), dens)
    assert np.abs(sym_embed(est.entry_stderr(), 4, 2) - ref).max() <= 1e-12 * ref.max()


def test_checkpoint_row_past_64_batches_equals_run_ending_there():
    # at 70 batches blocks 0..5 hold two: the 70k row is still, bit for bit,
    # the last row of a 70k-sample run
    base = dict(k=2, t=2, n_a=2, bc="obc", seed=13)
    long = mc_moment(McConfig(samples=100_000, checkpoints=(70_000, 100_000), **base))
    short = mc_moment(McConfig(samples=70_000, **base))
    assert short.checkpoint_batches[-1] == 70
    assert long.series.points[0] == short.series.points[-1]
    assert long.checkpoint_stderrs[0] == short.checkpoint_stderrs[-1]
    # and off the BATCH grid, each checkpoint ending a short batch (of 500, 800,
    # 1 and 699 samples): each row is the last of the run on the prefix ending there
    cps = (1500, 2300, 2301, 5000)
    long = mc_moment(McConfig(samples=cps[-1], checkpoints=cps, **base))
    assert long.checkpoint_batches == [2, 3, 4, 7]
    for i, cp in enumerate(cps):
        short = mc_moment(McConfig(samples=cp, checkpoints=cps[: i + 1], **base))
        assert long.series.points[i] == short.series.points[-1]
        assert long.checkpoint_stderrs[i] == short.checkpoint_stderrs[-1]
        assert long.checkpoint_batches[i] == short.checkpoint_batches[-1]


def test_kept_bytes_independent_of_samples():
    # 64 block sums and the total, and the jackknife's two buffers, at any sample count
    small, large = (McConfig(k=2, t=3, n_a=2, bc="obc", samples=s) for s in (10**5, 10**8))
    assert small.kept_bytes() == large.kept_bytes() == 16 * 10**2 * (JACKKNIFE_BLOCKS + 3)
    # one 816 x 816 sum per batch would be 10.7 GB here
    cfg = McConfig(k=3, t=4, n_a=4, bc="obc", samples=10**6)
    assert cfg.kept_bytes() == 16 * 816**2 * (JACKKNIFE_BLOCKS + 3)


def test_preflight_counts_batches_without_building_the_plan():
    # 10^12 batches at 10^15 samples: a plan of one entry each would take terabytes
    # before the size check.  10^8 samples goes first, so a plan that is built
    # fails there, at about 2 MB
    McConfig(k=2, t=3, n_a=2, bc="obc", samples=10**5)  # first-use caches
    for samples in (10**8, 10**15):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            McConfig(k=2, t=3, n_a=2, bc="obc", samples=samples)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20, (samples, elapsed, peak)


@pytest.mark.parametrize("cps", [(1,), (1500, 2300, 5000), (999, 1000, 1001, 3500), (2000, 4000)])
@pytest.mark.parametrize("task_bytes", [1, 2**20, 2**40])  # one batch a task, up to 3, the whole plan
def test_task_runs_are_the_flattened_batch_plan(cps, task_bytes, monkeypatch):
    monkeypatch.setattr(montecarlo, "TASK_BYTES", task_bytes)
    cfg = McConfig(k=1, t=1, n_a=1, bc="obc", samples=cps[-1], checkpoints=cps)
    flat = [b for b, _ in batch_plan(cps)]
    run = cfg.task_batches()
    if task_bytes == 2**40:
        assert run == len(flat)  # the batch count, from the checkpoints alone
    assert cfg._task_bytes()[0] == montecarlo._kernels.accumulate_bytes(2, 1, max(flat))
    runs = []
    real = montecarlo._run_sums

    def recording(cfg, w, exponent, first, sizes):
        runs.append((first, sizes))
        return real(cfg, w, exponent, first, sizes)

    monkeypatch.setattr(montecarlo, "_run_sums", recording)
    mc_moment(cfg)
    runs.sort()
    assert [first for first, _ in runs] == list(range(0, len(flat), run))
    assert all(len(sizes) == run for _, sizes in runs[:-1])
    assert list(chain.from_iterable(sizes for _, sizes in runs)) == flat


def test_mc_estimate_symmetric_under_replica_permutation():
    cfg = McConfig(k=2, t=2, n_a=2, bc="pbc", samples=50_000, seed=11)
    rho = sym_embed(mc_moment(cfg).rho, 4, 2)
    sym = np.zeros_like(rho)
    for p in enumerate_sym(2):
        P = permutation_operator(p, 4)
        sym += P @ rho @ P.T
    sym /= 2
    assert trace_norm(sym - rho) <= 1e-12


def test_mc_replica_check_n0_identity(w2):
    cfg = McConfig(k=2, t=2, n_a=2, bc="pbc", samples=20_000, seed=9)
    a = mc_replica_check(cfg, 0)
    b = _run_estimator(cfg, w2, 0.0)
    assert np.array_equal(a.rho, b.rho)
    # independent accumulation from the same sampled states
    num = np.zeros((16, 16), dtype=complex)
    den = 0.0
    done, bi = 0, 0
    while done < cfg.samples:
        b_sz = min(BATCH, cfg.samples - done)
        psi = _run_states(cfg, w2, bi, (b_sz,)).T
        nrm = np.einsum("bs,bs->b", psi, psi.conj()).real
        v = np.einsum("bi,bj->bij", psi, psi).reshape(b_sz, -1)
        num += np.einsum("bi,bj->ij", v, v.conj())
        den += (nrm**2).sum()
        done += b_sz
        bi += 1
    np.testing.assert_allclose(sym_embed(a.rho, 4, 2), num / den, atol=1e-12)


def test_mc_replica_check_k1_n1_maximally_mixed():
    cfg = McConfig(k=1, t=2, n_a=2, bc="obc", samples=200_000, seed=31)
    est = mc_replica_check(cfg, 1)
    se_entry = est.entry_stderr()
    assert np.abs(est.rho - np.eye(4) / 4).max() <= 6 * max(se_entry.max(), 1e-4)


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_mc_replica_agreement_small(bc):
    # quick integer-n oracle: full grid lives in the acceptance suite
    cfg = McConfig(k=2, t=2, n_a=2, bc=bc, samples=150_000, seed=42)
    est = mc_replica_check(cfg, 1)
    # compared in the full replicated space, where the bound was set
    rho_mc = sym_embed(est.rho, 4, 2)
    rho_rep = sym_embed(replica_moment(ReplicaSpec(k=2, n=1, t=2, n_a=2, bc=bc)), 4, 2)
    se_entry = sym_embed(est.entry_stderr(), 4, 2)
    bound = 3 * 0.5 * np.sqrt(16) * np.sqrt((se_entry**2).sum())
    assert 0.5 * trace_norm(rho_mc - rho_rep) <= bound


def test_mc_k2_plateau_flag():
    cfg = McConfig(k=2, t=2, n_a=2, bc="obc", samples=400_000, seed=8,
                   checkpoints=(1000, 10_000, 50_000, 100_000, 200_000, 400_000))
    est = mc_moment(cfg)
    assert est.series.converged
    assert est.series.converged_value > 0


def test_mc_matches_exact_chain_as_bath_grows():
    # the exact finite-chain k=2 moment approaches the limiting MC moment as
    # the bath grows; k=1 agrees at the sampling-noise level outright
    from deeptherm.kim import KimConfig, evolve, moment_from_state

    mc2 = mc_moment(McConfig(k=2, t=2, n_a=2, bc="pbc", samples=400_000, seed=3))
    mc1 = mc_moment(McConfig(k=1, t=2, n_a=2, bc="pbc", samples=400_000, seed=3))
    dists = {}
    for n in (8, 10, 12):
        cfg = KimConfig(n=n, n_a=2, t=2, bc="pbc", g=G)
        state = evolve(cfg)
        dists[n] = trace_norm(moment_from_state(state, cfg, 2) - mc2.rho)
        assert trace_norm(moment_from_state(state, cfg, 1) - mc1.rho) <= 0.01
    assert dists[12] < dists[10] < dists[8]
