"""Unbiased Monte Carlo estimators of the limiting projected-ensemble moments.

Each sample forms a projected state from Haar-random objects on the t
temporal qubits,

    pbc:  psi~[s] = Tr(W^s . reduce(U)),                U Haar unitary,
    obc:  psi~[s] = Tr(W^s . reduce(|u'><u|)),          |u'> = U'|0..0>, |u> = U|+..+>,

and accumulates weighted k-fold projector powers.  For obc, U and U' are
independent Haar unitaries, so |u'> and |u> are two independent Haar-random
states: complex Gaussian vectors, normalized.  They are drawn as Gaussian
vectors and left unnormalized; reduce(|u'><u|) is the product of their
(kept x traced) reshapes, and psi~ is scaled by the inverse of their norms
afterwards, so no normalized copy and no d x d operator is formed and a
sample costs O(d).
The physical moment uses weight <psi~|psi~>^(1-k); the integer-n replica
surrogate uses weight <psi~|psi~>^n, whose trace normalization is exactly
the ratio-estimator denominator mean <psi~|psi~>^(k+n).  W is built at
dual_tensors.W_COUPLING; no distance to Haar depends on the coupling.

Moments are accumulated, compared with Haar, jackknifed and returned as
their D x D Sym^k blocks (linalg.sym_basis); only the tests embed them in
the full replicated space.

Samples are drawn in batches of at most BATCH; a batch ends early at a
checkpoint, so no batch crosses one (batch_plan).  Random numbers come from
counter-based Philox streams keyed by (seed, batch index).  The batches run
on a pool of threads, one per available CPU (WORKERS; numpy's random fills,
LAPACK's QR and the GEMMs release the GIL), fewer when their working sets
would not fit in MEM_BUDGET_BYTES beside the kept batch sums (pool_width),
and their sums are added in batch order.  So a result is a deterministic
function of the seed, `samples` and the checkpoints, whatever the pool's
width; the pool adds no option.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import _kernels
from .dual_tensors import WTensor, build_w, min_depth, reduce_temporal_operator
from .linalg import MEM_BUDGET_BYTES, sym_haar_distance

BATCH = 1000
# batch threads: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
IN_FLIGHT = 2  # batches submitted per worker ahead of the in-order reduction
DEFAULT_CHECKPOINT_START = 1000
PLATEAU_SPREAD = 0.10


class McError(ValueError):
    pass


@dataclass(frozen=True)
class McConfig:
    k: int
    t: int
    n_a: int
    bc: str = "pbc"
    samples: int = 100_000
    seed: int = 12345
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.bc not in ("pbc", "obc"):
            raise McError("bc must be 'pbc' or 'obc'")
        if self.k < 1 or self.samples < 1:
            raise McError("need k >= 1 and samples >= 1")
        if not 0 <= self.seed < 2**64:  # a Philox key word is 64 bits
            raise McError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.t < min_depth(self.n_a) or self.t > 10:
            raise McError("need ceil(n_a/2) <= t <= 10")
        cps = self.resolved_checkpoints()
        if cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
            raise McError("checkpoints must be positive and strictly increasing")
        if cps[-1] != self.samples:
            raise McError("the last checkpoint must equal samples")
        need = self.kept_bytes() + self.batch_bytes()
        if need > MEM_BUDGET_BYTES:
            D = math.comb(2**self.n_a + self.k - 1, self.k)
            batches = sum(map(len, batch_plan(cps)))
            raise McError(f"mc at k={self.k}, n_a={self.n_a}, t={self.t} keeps {batches} batch "
                          f"sums of {D} x {D} beside a batch working set of "
                          f"{self.batch_bytes() / 1e9:.2g} GB: ~{need / 1e9:.1f} GB, above budget")

    def kept_bytes(self) -> int:
        """Bytes _run_estimator keeps: one D x D complex Sym^k sum per batch, plus the total."""
        D = math.comb(2**self.n_a + self.k - 1, self.k)
        batches = sum(map(len, batch_plan(self.resolved_checkpoints())))
        return 16 * D**2 * (batches + 1)

    def batch_bytes(self) -> int:
        """Working set of the plan's largest batch of b samples, d = 2^t.

        Drawing the states: about 4 complex b x d x d arrays for pbc (the
        Ginibre draw, its QR factors, the phased unitaries), counted as 5.
        For obc, the larger of two phases: filling z (the two real 2b x d
        Gaussian draws and their complex copy z), then reducing it once the
        draws are freed (z, the conjugated bra half of z (b x d), R
        (b x 4^t0) and psi~ (b x dA), all complex).  Accumulating them:
        moment_accumulate's three D x rows complex work arrays, rows =
        min(block_rows(D), b), counted as four, and two D x D ones, the
        batch's sum (kept_bytes counts it too) and the GEMM's product.
        """
        b = max(chain.from_iterable(batch_plan(self.resolved_checkpoints())))
        d, da = 2**self.t, 2**self.n_a
        D = math.comb(da + self.k - 1, self.k)
        if self.bc == "pbc":
            states = 5 * d * d
        else:  # fill: the draws and z, 2d each; reduce: z, the conjugated bras, R and psi~
            states = max(4 * d, 3 * d + 4 ** min_depth(self.n_a) + da)
        return 16 * b * states + 4 * 16 * D * min(_kernels.block_rows(D), b) + 2 * 16 * D * D

    def resolved_checkpoints(self) -> tuple:
        if self.checkpoints:
            return tuple(self.checkpoints)
        cps = []
        c = min(DEFAULT_CHECKPOINT_START, self.samples)
        while c < self.samples:
            cps.append(c)
            c *= 10
        cps.append(self.samples)
        return tuple(cps)


def batch_plan(checkpoints: tuple) -> list:
    """Sizes of the batches done by each checkpoint, one list per checkpoint.

    Batches hold BATCH samples and end early at a checkpoint, so no batch
    crosses one.  Batch i of the flattened plan draws from Philox stream i.
    """
    return [[min(BATCH, b - s) for s in range(a, b, BATCH)]
            for a, b in zip((0,) + tuple(checkpoints), checkpoints)]


def pool_width(cfg: McConfig) -> int:
    """Threads for cfg's batches: WORKERS, fewer if their working sets
    (McConfig.batch_bytes) beside the kept batch sums would exceed
    MEM_BUDGET_BYTES, and never fewer than one."""
    return min(WORKERS, max(1, (MEM_BUDGET_BYTES - cfg.kept_bytes()) // cfg.batch_bytes()))


@dataclass
class ConvergenceSeries:
    points: list = field(default_factory=list)  # (M_i, delta)
    converged_value: float = float("nan")
    converged: bool = False

    def finalize(self):
        tail = [d for _, d in self.points[-3:]]
        self.converged_value = float(np.mean(tail))
        if len(tail) == 3 and self.converged_value > 0:
            spread = (max(tail) - min(tail)) / self.converged_value
            self.converged = bool(spread <= PLATEAU_SPREAD)
        return self


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _haar_batch(rng: np.random.Generator, d: int, b: int) -> np.ndarray:
    z = (rng.standard_normal((b, d, d)) + 1j * rng.standard_normal((b, d, d))) / np.sqrt(2)
    return _kernels.haar_from_ginibre(z)


def _reduce_batch(mats: np.ndarray, t: int, t0: int) -> np.ndarray:
    d0, dr = 2**t0, 2 ** (t - t0)
    b = mats.shape[0]
    return np.einsum("bircr->bic", mats.reshape(b, d0, dr, d0, dr))


def mc_projected_state(u: np.ndarray, u_prime: np.ndarray | None, bc: str, w: WTensor):
    """Unnormalized projected state for one sampled unitary (pair)."""
    t = int(round(np.log2(u.shape[0])))
    if bc == "pbc":
        R = reduce_temporal_operator(u, w.t_legs)
    else:
        if u_prime is None:
            raise McError("obc needs a second unitary")
        ket = u_prime[:, 0]  # U'|0>
        bra = u @ np.full(2**t, 2.0 ** (-t / 2))  # U|+>; conjugated below
        R = reduce_temporal_operator(np.outer(ket, bra.conj()), w.t_legs)
    psi = np.einsum("sxy,yx->s", w.data, R)
    return psi, float(np.vdot(psi, psi).real)


def _batch_states(cfg: McConfig, w: WTensor, batch_index: int, b: int) -> np.ndarray:
    """The b projected states psi~ of batch batch_index, shape (b, dA).

    obc draws 2b complex Gaussian vectors in C^d, the kets U'|0> then the
    bras U|+>, real parts first; they are Haar states once normalized.  They
    are kept unnormalized, batch last, and psi~ is scaled by 1/(|ket||bra|)
    instead, which matters: a sample's weighted contribution scales as
    <psi~|psi~>.  The result is a view of a (dA, b) array, the layout
    moment_accumulate reads.
    """
    rng = _batch_rng(cfg.seed, batch_index)
    d = 2**cfg.t
    if cfg.bc == "pbc":
        U = _haar_batch(rng, d, b)
        return np.einsum("sxy,byx->bs", w.data, _reduce_batch(U, cfg.t, w.t_legs))
    re = rng.standard_normal((2 * b, d))
    im = rng.standard_normal((2 * b, d))
    nrm2 = np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)
    z = np.empty((d, 2 * b), dtype=complex)
    z.real = re.T
    z.imag = im.T
    del re, im
    p = 2**w.t_legs
    # kets and bras as (kept, traced, sample): R = Tr_traced |ket><bra|
    kb = z.reshape(p, d // p, 2 * b)
    R = np.einsum("irb,crb->icb", kb[:, :, :b], kb[:, :, b:].conj())
    psi = w.data.transpose(0, 2, 1).reshape(len(w.data), p * p) @ R.reshape(p * p, b)
    psi /= np.sqrt(nrm2[:b] * nrm2[b:])
    return psi.T


def _leave_one_out(nums: list, dens: list):
    """Yield rho_(i), the moment without batch i, for each batch i in turn.

    From one running sum, each in one reused buffer: a few batch sums are
    held, not a stack of them (McConfig's preflight counts the sums once).
    """
    num = nums[0].copy()
    for x in nums[1:]:
        num += x
    den = float(np.sum(dens))
    loo = np.empty_like(num)
    for x, d in zip(nums, dens):
        np.subtract(num, x, out=loo)
        yield np.divide(loo, den - d, out=loo)


def _leave_one_out_spread(nums: list, dens: list) -> np.ndarray:
    """sum_i |rho_(i) - mean_j rho_(j)|^2 entrywise: two passes, the mean, then the spread."""
    mean = np.zeros_like(nums[0])
    for rho in _leave_one_out(nums, dens):
        mean += rho
    mean /= len(nums)
    spread, sq = np.zeros(mean.shape), np.empty(mean.shape)
    for rho in _leave_one_out(nums, dens):
        np.abs(np.subtract(rho, mean, out=rho), out=sq)
        sq *= sq
        spread += sq
    return spread


@dataclass
class McEstimate:
    rho: np.ndarray  # D x D Sym^k block of the estimate
    series: ConvergenceSeries
    batch_nums: list  # D x D Sym^k block of each batch's weighted sum
    batch_dens: list
    checkpoint_batches: list  # batches done at each checkpoint

    def entry_stderr(self) -> np.ndarray:
        """Leave-one-batch-out jackknife SE of every entry of rho."""
        B = len(self.batch_nums)
        if B < 2:
            raise McError("jackknife needs at least 2 batches")
        var = _leave_one_out_spread(self.batch_nums, self.batch_dens)
        var *= (B - 1) / B
        return np.sqrt(var, out=var)

    def checkpoint_stderrs(self) -> list:
        """Leave-one-batch-out jackknife SE of delta at each checkpoint, over the
        batches done by then (nan while only one batch is done)."""
        out = []
        for B in self.checkpoint_batches:
            if B < 2:
                out.append(float("nan"))
                continue
            deltas = np.array([0.5 * sym_haar_distance(rho) for rho in
                               _leave_one_out(self.batch_nums[:B], self.batch_dens[:B])])
            out.append(float(np.sqrt((B - 1) / B * ((deltas - deltas.mean()) ** 2).sum())))
        return out


def _batch_sum(cfg: McConfig, w: WTensor, weight_exponent: float, batch_index: int,
               b: int) -> np.ndarray:
    """D x D Sym^k block of one batch's weighted sum."""
    psi = _batch_states(cfg, w, batch_index, b)
    nrm = np.einsum("bs,bs->b", psi, psi.conj()).real
    ok = nrm > 1e-280
    wgt = np.where(ok, nrm, 1.0) ** weight_exponent * ok
    return _kernels.moment_accumulate(psi, wgt, cfg.k)


def _run_estimator(cfg: McConfig, w: WTensor, weight_exponent: float) -> McEstimate:
    """Shared accumulation path: weights <psi~|psi~>^weight_exponent.

    Batch sums come from a pool of pool_width(cfg) threads, at most IN_FLIGHT
    per worker ahead of the reduction, and are added here in batch order.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: cli loads this module

    cps = cfg.resolved_checkpoints()
    plan = batch_plan(cps)
    batches = enumerate(chain.from_iterable(plan))
    D = math.comb(2**cfg.n_a + cfg.k - 1, cfg.k)
    num = np.zeros((D, D), dtype=complex)
    den = 0.0
    batch_nums, batch_dens, checkpoint_batches = [], [], []
    series = ConvergenceSeries()
    # glibc's malloc raises its mmap and heap-trim thresholds to the size of a freed
    # mapped block up to 32 MB (twice it for trimming).  Freeing one batch-sized block
    # here keeps each batch's temporaries on the heap, where they would otherwise be
    # trimmed and faulted back in batch after batch: 5e5 obc samples at t = 3 took
    # 41k minor page faults without it and 1.4k with it; 3e5 pbc ones 346k and 3.3k.
    np.empty(min(cfg.batch_bytes(), 2**24), dtype=np.uint8)
    width = pool_width(cfg)
    pool = ThreadPoolExecutor(max_workers=width)
    pending = deque()

    def submit():
        nxt = next(batches, None)
        if nxt is not None:
            pending.append(pool.submit(_batch_sum, cfg, w, weight_exponent, *nxt))

    try:
        for _ in range(IN_FLIGHT * width):
            submit()
        for cp, sizes in zip(cps, plan):
            for _ in sizes:
                bnum = pending.popleft().result()
                submit()
                num += bnum
                bden = float(np.trace(bnum).real)
                den += bden
                batch_nums.append(bnum)
                batch_dens.append(bden)
            if den <= 0:
                raise McError("all sampled norms vanished; aborting")
            rho = num / den
            series.points.append((cp, 0.5 * sym_haar_distance(rho)))
            checkpoint_batches.append(len(batch_nums))
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, batches not yet started never run
    rho = (rho + rho.conj().T) / 2  # the last checkpoint is at cfg.samples
    return McEstimate(rho=rho, series=series.finalize(), batch_nums=batch_nums,
                      batch_dens=batch_dens, checkpoint_batches=checkpoint_batches)


def mc_moment(cfg: McConfig) -> McEstimate:
    """Physical k-th moment estimator (weight exponent 1 - k)."""
    return _run_estimator(cfg, build_w(cfg.n_a), 1 - cfg.k)


def mc_replica_check(cfg: McConfig, n: int) -> McEstimate:
    """Integer-n replica surrogate estimator (weight exponent n)."""
    if n < 0:
        raise McError("replica exponent n must be a non-negative integer")
    return _run_estimator(cfg, build_w(cfg.n_a), float(n))
