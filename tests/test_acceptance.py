"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo sample
counts are fixed (with seeds) at values where the convergence flags hold;
they stay below the stated ceilings.
"""
from __future__ import annotations

import string
from functools import lru_cache

import numpy as np
import pytest

from deeptherm.cli import main
from deeptherm.dual_tensors import build_w, build_wprime, min_depth
from deeptherm.kim import KimConfig, delta_k, dual_unitary_ensemble_check, evolve, moment_from_state
from deeptherm.linalg import trace_norm
from deeptherm.montecarlo import McConfig, mc_moment, mc_replica_check
from deeptherm.permgroup import (
    conjugacy_classes,
    enumerate_sym,
    gram_matrix,
    weingarten_table,
)
from deeptherm.replica import (
    ReplicaSpec,
    deviation_series,
    extrapolate_to_physical,
    rate_estimate,
    replica_moment,
)
from fullspace import haar_moment_operator, sym_embed

G = 0.3


def _report(num, text):
    print(f"PASS criterion-{num}: {text}")


# -- 1 ------------------------------------------------------------------


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_criterion_1_regular_thermalization_exact(n, bc):
    worst = 0.0
    t_max = int((n - 2) / 2 - 1)
    for t in range(1, t_max + 1):
        cfg = KimConfig(n=n, n_a=2, t=t, bc=bc, g=G)
        assert not cfg.wraparound()
        rho = moment_from_state(evolve(cfg), cfg, 1)
        worst = max(worst, delta_k(rho))
    assert worst <= 1e-8
    _report(1, f"delta_1 <= 1e-8 in the pre-recurrence window (n={n}, {bc}, "
               f"t=1..{t_max}; worst {worst:.2e})")


# -- 2 ------------------------------------------------------------------


@lru_cache(maxsize=8)
def _class_id_table(m):
    perms = enumerate_sym(m)
    type_ids = {}
    for p in perms:
        type_ids.setdefault(p.cycle_type(), len(type_ids))
    tab = np.empty((len(perms), len(perms)), dtype=np.int16)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            tab[a, b] = type_ids[p.compose(q.inverse()).cycle_type()]
    order = [ct for ct, _ in sorted(type_ids.items(), key=lambda kv: kv[1])]
    return tab, order


def test_criterion_2_weingarten_orthogonality():
    checked, singular = [], []
    for m in range(1, 7):
        tab, type_order = _class_id_table(m)
        for d in (4, 16, 64, 256):
            G_mat = gram_matrix(m, d)
            if d >= m:
                table = weingarten_table(m, d)
                vals = np.array([table.value_of_type(ct) for ct in type_order])
                W = vals[tab]
                defect = np.abs(W @ G_mat - np.eye(len(W))).max()
                assert defect <= 1e-10, (m, d, defect)
                checked.append((m, d))
            else:
                # Gram matrix provably singular (m > d): the identity
                # Wg*G = I is unattainable; assert the generalized-inverse
                # identities the pseudo table satisfies instead
                rank = np.linalg.matrix_rank(G_mat)
                assert rank < len(G_mat)
                table = weingarten_table(m, d)
                vals = np.array([table.value_of_type(ct) for ct in type_order])
                W = vals[tab]
                assert np.abs(G_mat @ W @ G_mat - G_mat).max() <= 1e-8 * np.abs(G_mat).max()
                assert np.abs(W @ G_mat @ W - W).max() <= 1e-10
                singular.append((m, d))
    assert singular == [(5, 4), (6, 4)]
    _report(2, f"orthogonality to 1e-10 on {len(checked)} invertible (m,d) pairs; "
               f"generalized-inverse identities on singular {singular}")


# -- 3 ------------------------------------------------------------------


def test_criterion_3_w_isometry():
    defects = {}
    for n_a in (1, 2, 3, 4):
        defects[n_a] = build_w(n_a).isometry_defect()
        assert defects[n_a] <= 1e-10
    _report(3, "W isometry defect <= 1e-10 for n_a=1..4 "
               f"(worst {max(defects.values()):.2e})")


# -- 4 ------------------------------------------------------------------


def _sandwich(wdata, sigma, tau, m):
    letters = string.ascii_letters
    row, col = letters[:m], letters[m : 2 * m]
    al = letters[2 * m : 3 * m]
    bl = letters[3 * m : 4 * m]
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


def test_criterion_4_wprime_w_diagram_equivalence():
    from deeptherm.permgroup import cycle_count

    n_a = 2
    t0 = min_depth(n_a)
    wb = build_w(n_a)
    worst = 0.0
    for m in (2, 3, 4):
        perms = enumerate_sym(m)
        base = {}
        for s in perms:
            for t_ in perms:
                base[(s.images, t_.images)] = _sandwich(wb.data, s, t_, m)
        for t in (t0, t0 + 1, t0 + 2):
            wt = build_wprime(n_a, t, G)
            for s in perms:
                for t_ in perms:
                    nc = cycle_count(s.compose(t_.inverse()))
                    scale = (2.0 ** (t - t0)) ** (nc - m)
                    err = np.abs(
                        _sandwich(wt.data, s, t_, m) / scale - base[(s.images, t_.images)]
                    ).max()
                    worst = max(worst, err)
    assert worst <= 1e-8
    _report(4, f"W'(t) diagrams match W(t0) after loop-factor division, m<=4, "
               f"t in {{t0..t0+2}} (worst {worst:.2e})")


# -- 5 ------------------------------------------------------------------


@lru_cache(maxsize=4)
def _replica_extrapolations(bc, n_a):
    out = {}
    for k in (2, 3, 4):
        nmax = 6 - k
        for t in (2, 3, 4, 5):
            spec = ReplicaSpec(k=k, n=0, t=t, n_a=n_a, bc=bc)
            fit = extrapolate_to_physical(deviation_series(spec, nmax), k)
            assert not fit.flagged
            out[(k, t)] = fit.estimate
    return out


def test_criterion_5_decay_rates():
    lines = []
    for n_a in (2, 1):
        for bc, v_target, ratio_target in (("pbc", 2.0, 0.25), ("obc", 1.0, 0.5)):
            ex = _replica_extrapolations(bc, n_a)
            for k in (2, 3, 4):
                series = {t: ex[(k, t)] for t in (2, 3, 4, 5)}
                v = rate_estimate(series)
                assert abs(v - v_target) <= 0.25, (n_a, bc, k, v)
                r = series[5] / series[4]
                assert abs(r - ratio_target) <= 0.25 * ratio_target, (n_a, bc, k, r)
                lines.append(f"n_a={n_a} {bc} k={k}: v={v:.3f} ratio(t4->t5)={r:.3f}")
    _report(5, "; ".join(lines))


# -- 6 ------------------------------------------------------------------

_MC6 = {
    ("pbc", 2): dict(samples=2_000_000,
                     checkpoints=(1000, 10_000, 100_000, 500_000, 1_000_000, 2_000_000)),
    ("pbc", 3): dict(samples=8_000_000,
                     checkpoints=(1000, 10_000, 100_000, 1_000_000, 2_000_000,
                                  4_000_000, 8_000_000)),
    ("obc", 2): dict(samples=1_000_000,
                     checkpoints=(1000, 10_000, 100_000, 300_000, 600_000, 1_000_000)),
    ("obc", 3): dict(samples=2_000_000,
                     checkpoints=(1000, 10_000, 100_000, 500_000, 1_000_000, 2_000_000)),
}


@pytest.mark.parametrize("bc,t", [("pbc", 2), ("pbc", 3), ("obc", 2), ("obc", 3)])
def test_criterion_6_replica_mc_agreement(bc, t):
    target = 0.5 * _replica_extrapolations(bc, 2)[(2, t)]
    cfg = McConfig(k=2, t=t, n_a=2, bc=bc, seed=20240811, **_MC6[(bc, t)])
    est = mc_moment(cfg)
    assert est.series.converged, est.series.points
    rel = abs(est.series.converged_value - target) / target
    assert rel <= 0.15
    _report(6, f"{bc} t={t}: converged MC delta_2 {est.series.converged_value:.5f} "
               f"vs extrapolated {target:.5f} (rel {rel:.3f}, M={cfg.samples})")


# -- 7 ------------------------------------------------------------------


@pytest.mark.parametrize("k,n", [(1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_criterion_7_integer_n_oracle(k, n, bc):
    for t in (2, 3):
        # compared in the full replicated space, where the bound was set
        rho_rep = sym_embed(replica_moment(ReplicaSpec(k=k, n=n, t=t, n_a=2, bc=bc)), 4, k)
        cfg = McConfig(k=k, t=t, n_a=2, bc=bc, samples=500_000, seed=99)
        est = mc_replica_check(cfg, n)
        est.rho = sym_embed(est.rho, 4, k)
        se_entry = sym_embed(est.entry_stderr(), 4, k)
        dist = 0.5 * trace_norm(est.rho - rho_rep)
        bound = 3 * 0.5 * np.sqrt(est.rho.shape[0]) * np.sqrt((se_entry**2).sum())
        assert dist <= bound, (k, n, bc, t, dist, bound)
        if (k, n) != (1, 1):
            haar = haar_moment_operator(2, k)
            d_mc = 0.5 * trace_norm(est.rho - haar)
            d_rep = 0.5 * trace_norm(rho_rep - haar)
            se_delta = est.checkpoint_stderrs[-1]
            assert abs(d_mc - d_rep) <= 3 * se_delta + 0.02 * d_rep
    _report(7, f"(k,n)=({k},{n}) {bc}: MC within 3 jackknife SE of replica at t=2,3")


# -- 8 ------------------------------------------------------------------


def test_criterion_8_finite_bath_haar_emergence():
    lengths = (2, 3, 4, 5, 6)
    dists = dict(zip(lengths, dual_unitary_ensemble_check(2, 1, G, lengths)))
    assert dists[6] < dists[2]
    assert all(dists[b] <= dists[a] + 1e-9 for a, b in zip((2, 3, 4, 5), (3, 4, 5, 6)))
    _report(8, f"k=1 t=2 ensemble distance decreases: L=2 {dists[2]:.3e} -> "
               f"L=6 {dists[6]:.3e}")


# -- 9 ------------------------------------------------------------------


def test_criterion_9_mc_convergence_behavior():
    cfg1 = McConfig(k=1, t=2, n_a=2, bc="pbc", samples=1_000_000, seed=4,
                    checkpoints=(1000, 10_000, 100_000, 1_000_000))
    est1 = mc_moment(cfg1)
    deltas = [d for _, d in est1.series.points]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert not est1.series.converged  # no plateau for k=1
    cfg2 = McConfig(k=2, t=2, n_a=2, bc="obc", samples=1_000_000, seed=4,
                    checkpoints=(1000, 10_000, 100_000, 300_000, 600_000, 1_000_000))
    est2 = mc_moment(cfg2)
    assert est2.series.converged
    _report(9, f"k=1 decades strictly decreasing {['%.4f' % d for d in deltas]}; "
               f"k=2 plateaus at {est2.series.converged_value:.4f}")


# -- 10 -----------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for name, args in (
        ("mc", ["mc", "--k", "2", "--t", "2", "--na", "2", "--samples", "20000",
                "--seed", "7"]),
        ("replica", ["replica", "--k", "2", "--nmax", "2", "--t", "2", "--na", "2"]),
        ("exact", ["exact", "--n", "8", "--na", "2", "--t", "2", "--k", "2"]),
    ):
        a = str(tmp_path / f"{name}_a.csv")
        b = str(tmp_path / f"{name}_b.csv")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        same = open(a, "rb").read() == open(b, "rb").read()
        assert same, name
        pairs.append(name)
    _report(10, f"byte-identical CSVs on repeated runs: {pairs}")
