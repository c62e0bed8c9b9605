"""Unbiased Monte Carlo estimators of the limiting projected-ensemble moments.

Each sample forms a projected state from Haar-random objects on the t
temporal qubits,

    pbc:  psi~[s] = Tr(W^s . reduce(U)),                U Haar unitary,
    obc:  psi~[s] = Tr(W^s . reduce(|u'><u|)),          |u'> = U'|0..0>, |u> = U|+..+>,

and accumulates weighted k-fold projector powers.  For obc, U and U' are
independent Haar unitaries, so |u'> and |u> are independent Haar-random
states, normalized complex Gaussian vectors.  Reshaped as p x N matrices,
p = 2^t0 kept and N = 2^(t - t0) traced, their Gaussian matrices K (the
ket) and B (the bra) give reduce(|u'><u|) = R = K B^+ / (|K| |B|).  R's law
needs O(p^2) numbers at any t (Zyczkowski & Sommers, J. Phys. A 33, 2045,
2000).  With r = min(p, N):

  - K = L Q (LQ): L is p x r lower trapezoidal with |L_ii|^2 ~ Gamma(N - i)
    and CN(0, 1) entries below the diagonal (Bartlett), independent of the
    r x N isometry Q, and |K| = |L|;
  - given Q, G = B Q^+ is a p x r Ginibre matrix and the rest of B,
    B (1 - Q^+ Q), is independent of it with |.|^2 = gamma ~ Gamma(p (N - r));
  - so K B^+ = L G^+ and R = L G^+ / (|L| sqrt(|G|^2 + gamma)).

One formula covers N < p, N = p and N > p.  A sample draws 2 p r - r(r+1)/2
complex normals and r + 1 gammas (10 normals and 3 gammas at p = 2, N >= 2)
and forms no d-vector, so obc runs to t = 30.  pbc reduces whole unitaries,
O(d^2) per sample, and stops at t = 10.
The physical moment uses weight <psi~|psi~>^(1-k); the integer-n replica
surrogate uses weight <psi~|psi~>^n, whose trace normalization is exactly
the ratio-estimator denominator mean <psi~|psi~>^(k+n).  W is built at
dual_tensors.W_COUPLING; no distance to Haar depends on the coupling.

Moments are accumulated, compared with Haar, jackknifed and returned as
their D x D Sym^k blocks (linalg.sym_basis); only the tests embed them in
the full replicated space.

Samples are drawn in batches of at most BATCH; a batch ends early at a
checkpoint, so no batch crosses one (batch_plan).  Random numbers come from
counter-based Philox streams keyed by (seed, batch index).  Batch i's D x D
sum is added into jackknife block i mod JACKKNIFE_BLOCKS, so the kept sums
do not grow with `samples`, and a block's contents depend only on the batch
index: a checkpoint's row is the one of a run that ends there.  A pool task
takes a run of consecutive batches of the plan, as many as fit TASK_BYTES of
working set (McConfig.task_batches), and forms their states in one pass, as
the columns of one array: numpy calls on one 1000-sample batch hold the GIL
for much of their time, and the threads overlap better when each call
covers several batches.  Each batch still draws its own stream, and its
columns are handed alone to _kernels.accumulate_blocks, which takes their
Born weights (zero below _kernels.P_FLOOR, as on the exact route) and their
weighted Sym^k sum, so the run changes no bit of a batch's sum.  The tasks
run on a pool of threads, one per available CPU (WORKERS; numpy's random
fills, LAPACK's QR and the np.dot GEMMs release the GIL), fewer when their
working sets would not fit in MEM_BUDGET_BYTES beside the kept block sums
(pool_width), and their batch sums are added in batch order.  So a result
is a deterministic function of the seed, `samples` and the checkpoints,
whatever the pool's width; the pool adds no option.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, count, islice

import numpy as np

from . import _kernels
from .dual_tensors import WTensor, build_w, min_depth, reduce_temporal_operator
from .linalg import MEM_BUDGET_BYTES, sym_haar_distance

BATCH = 1000
JACKKNIFE_BLOCKS = 64  # batch i is added into jackknife block i % JACKKNIFE_BLOCKS
# batch threads: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
IN_FLIGHT = 2  # tasks submitted per worker ahead of the in-order reduction
TASK_BYTES = 2**21  # working set of one pool task: one core's L2 cache
MAX_DEPTH = {"pbc": 10, "obc": 30}  # pbc's batch holds b unitaries of 4^t entries
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
        if self.n_a < 1:
            raise McError(f"need n_a >= 1, got {self.n_a}")
        if not 0 <= self.seed < 2**64:  # a Philox key word is 64 bits
            raise McError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.t < min_depth(self.n_a) or self.t > MAX_DEPTH[self.bc]:
            raise McError("need ceil(n_a/2) <= t <= 10 for pbc, t <= 30 for obc")
        cps = self.resolved_checkpoints()
        if cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
            raise McError("checkpoints must be positive and strictly increasing")
        if cps[-1] != self.samples:
            raise McError("the last checkpoint must equal samples")
        need = self.kept_bytes() + self.batch_bytes()
        if need > MEM_BUDGET_BYTES:
            D = self.sym_dim
            raise McError(f"mc at k={self.k}, n_a={self.n_a}, t={self.t} keeps {JACKKNIFE_BLOCKS} jackknife "
                          f"block sums of {D} x {D} beside a task working set of "
                          f"{self.batch_bytes() / 1e9:.2g} GB: ~{need / 1e9:.1f} GB, above budget")

    @cached_property
    def sym_dim(self) -> int:
        """D = C(2^n_a + k - 1, k), the side of a Sym^k block."""
        return math.comb(2**self.n_a + self.k - 1, self.k)

    @cached_property
    def batch_sizes(self) -> tuple:
        """The flattened batch plan: each batch's size, batch i drawing stream i."""
        return tuple(chain.from_iterable(batch_plan(self.resolved_checkpoints())))

    def kept_bytes(self) -> int:
        """Bytes _run_estimator keeps, whatever `samples`: JACKKNIFE_BLOCKS D x D complex
        Sym^k block sums and the total, and _leave_one_out's two buffers."""
        return 16 * self.sym_dim**2 * (JACKKNIFE_BLOCKS + 3)

    def task_batches(self) -> int:
        """Batches per pool task: as many as fit in TASK_BYTES of working set
        (batch_bytes), at least one and at most the plan's, counted per
        checkpoint interval without building the plan."""
        fixed, per_batch = self._task_bytes()
        cps = self.resolved_checkpoints()
        batches = sum(len(range(a, b, BATCH)) for a, b in zip((0,) + cps, cps))
        return max(1, min(batches, (TASK_BYTES - fixed) // per_batch))

    def batch_bytes(self) -> int:
        """Working set of one pool task: task_batches() of the plan's largest batch."""
        fixed, per_batch = self._task_bytes()
        return fixed + self.task_batches() * per_batch

    def _task_bytes(self) -> tuple:
        """A task's working set as (fixed bytes, bytes per batch of b samples), b the
        plan's largest batch, min(BATCH, the longest checkpoint interval), d = 2^t,
        p = 2^t0, r = min(p, d / p).

        Per batch, drawing and reducing the states: about 4 complex b x d x d
        arrays for pbc (the Ginibre draw, its QR factors, the phased unitaries),
        counted as 5.  For obc, per sample at _run_states' product loop, the
        2 p r - r (r + 1) / 2 complex normals, L (p r), R and one product
        (p^2 each), the r + 1 gammas and the norms.  Fixed: one batch's
        _kernels.accumulate_bytes, its sum included.
        """
        cps = self.resolved_checkpoints()
        b = max(min(BATCH, hi - lo) for lo, hi in zip((0,) + cps, cps))
        if self.bc == "pbc":
            per_sample = 16 * 5 * 4**self.t
        else:
            p = 2 ** min_depth(self.n_a)
            r = min(p, 2**self.t // p)
            per_sample = 16 * (2 * p * r - r * (r + 1) // 2 + p * r + 2 * p * p) + 8 * (r + 2)
        return _kernels.accumulate_bytes(2**self.n_a, self.k, b), b * per_sample

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
    (McConfig.batch_bytes) beside the kept block sums would exceed
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


def _restart(rng: np.random.Generator, seed: int, batch_index: int) -> np.random.Generator:
    """rng, a _batch_rng generator, set to the start of stream (seed, batch_index):
    the draws of _batch_rng(seed, batch_index), without the OS entropy read that
    every new Philox makes for a seed sequence it does not use."""
    zero = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        "state": {"counter": zero, "key": np.array([seed, batch_index], dtype=np.uint64)}}
    return rng


def _haar_batch(rng: np.random.Generator, d: int, b: int) -> np.ndarray:
    z = (rng.standard_normal((b, d, d)) + 1j * rng.standard_normal((b, d, d))) / np.sqrt(2)
    return _kernels.haar_from_ginibre(z)


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


@lru_cache(maxsize=None)
def _below_diagonal(p: int, r: int) -> tuple:
    """Indices of the entries strictly below the diagonal of a p x r matrix, row by row."""
    below = np.tril_indices(p, -1, r)
    for a in below:
        a.setflags(write=False)
    return below


def _obc_factors(cfg: McConfig, first: int, sizes) -> tuple:
    """L, G and gamma of the obc batches first, first + 1, ... of the given sizes.

    L (p, r, S) is the Bartlett factor: the square roots of Gamma(N), ...,
    Gamma(N - r + 1) on its diagonal, complex normals strictly below it and
    zeros above it.  G (p, r, S) holds complex normals and gamma (S,) is
    Gamma(p (N - r)).  S = sum(sizes), samples last.  Batch i draws its
    samples from its own Philox stream: first all the normals, component by
    component (L's below its diagonal row by row, then G's), each sample's
    real and imaginary parts side by side, then each of the r + 1 gammas in
    the order above.  The normals have E|z|^2 = 2, so the gammas are doubled
    into the same units.
    """
    p = 2 ** min_depth(cfg.n_a)
    n = 2**cfg.t // p
    r = min(p, n)
    below = _below_diagonal(p, r)
    S = sum(sizes)
    z = np.empty((len(below[0]) + p * r, S), dtype=complex)
    g = np.empty((r + 1, S))
    shapes = [n - j for j in range(r)] + [p * (n - r)]
    zf, lo = z.view(float), 0
    rng = _batch_rng(cfg.seed, first)
    for i, b in enumerate(sizes, start=first):
        _restart(rng, cfg.seed, i)
        zf[:, 2 * lo : 2 * (lo + b)] = rng.standard_normal((len(z), 2 * b))
        for row, shape in zip(g, shapes):
            rng.standard_gamma(shape, out=row[lo : lo + b])
        lo += b
    g *= 2
    L = np.zeros((p, r, S), dtype=complex)
    L[below] = z[: len(below[0])]
    np.sqrt(g[:r], out=L.reshape(p * r, S)[: r * r : r + 1].real)  # L[j, j], j < r
    return L, z[len(below[0]) :].reshape(p, r, S), g[r]


def _run_states(cfg: McConfig, w: WTensor, first: int, sizes) -> np.ndarray:
    """The projected states psi~ of the batches first, first + 1, ... of the
    given sizes, as the columns of a (dA, sum(sizes)) array in batch order.

    pbc draws each batch's b Haar unitaries (QR of Ginibre matrices) from its
    own stream and reduces them alone.  obc forms every step once over the
    run: R = L G^+ / (|L| sqrt(|G|^2 + gamma)) from _obc_factors, then
    psi~ = W . R, one small GEMM per batch; its b samples cost O(p^2) each at
    any depth t.  Each sample's arithmetic is the same whatever run holds it,
    so the run changes no bit of a batch's states.
    """
    if cfg.bc == "pbc":
        psi = np.empty((len(w.data), sum(sizes)), dtype=complex)
        lo, rng = 0, _batch_rng(cfg.seed, first)
        for i, b in enumerate(sizes, start=first):
            U = _haar_batch(_restart(rng, cfg.seed, i), 2**cfg.t, b)
            np.einsum("sxy,byx->sb", w.data, reduce_temporal_operator(U, w.t_legs), out=psi[:, lo : lo + b])
            lo += b
        return psi
    L, G, gamma = _obc_factors(cfg, first, sizes)
    p, r, S = L.shape
    # |L|^2 (|G|^2 + gamma); einsum sums each sample's squares in one order for any S
    nrm2 = gamma + np.einsum("ijs,ijs->s", G.real, G.real) + np.einsum("ijs,ijs->s", G.imag, G.imag)
    nrm2 *= np.einsum("ijs,ijs->s", L.real, L.real) + np.einsum("ijs,ijs->s", L.imag, L.imag)
    np.conjugate(G, out=G)
    R = L[:, 0, None, :] * G[None, :, 0, :]  # R[i, c] = sum_j L[i, j] conj(G[c, j])
    for j in range(1, r):
        R += L[:, j, None, :] * G[None, :, j, :]
    del L, G, gamma
    R = R.reshape(p * p, S)
    # psi~[s] = sum_(i, c) W[s, c, i] R[i, c], one GEMM per batch: a GEMM's
    # rounding may depend on its width, so the run's width must not reach it
    wr = w.data.transpose(0, 2, 1).reshape(len(w.data), p * p)
    psi = np.empty((len(w.data), S), dtype=complex)  # after L and G are freed
    lo = 0
    for b in sizes:
        psi[:, lo : lo + b] = np.dot(wr, R[:, lo : lo + b])  # np.dot releases the GIL; a 2-D matmul keeps it
        lo += b
    psi *= np.divide(1.0, np.sqrt(nrm2, out=nrm2), out=nrm2)
    return psi


def _leave_one_out(nums: list, dens: list):
    """Yield rho_(i), the moment without block i, for each jackknife block i in turn.

    From one running sum, each in one reused buffer: two D x D buffers beside
    the block sums, not a stack of moments (McConfig.kept_bytes counts them).
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


def _delta_stderr(nums: list, dens: list) -> float:
    """Leave-one-block-out jackknife SE of delta over the given block sums,
    one eigensolve per block (nan at one block)."""
    B = len(nums)
    if B < 2:
        return float("nan")
    deltas = np.array([0.5 * sym_haar_distance(rho) for rho in _leave_one_out(nums, dens)])
    return float(np.sqrt((B - 1) / B * ((deltas - deltas.mean()) ** 2).sum()))


@dataclass
class McEstimate:
    rho: np.ndarray  # D x D Sym^k block of the estimate
    series: ConvergenceSeries
    block_nums: list  # D x D Sym^k block of each jackknife block's weighted sum
    block_dens: list
    checkpoint_batches: list  # batches done at each checkpoint
    checkpoint_stderrs: list  # jackknife SE of delta at each checkpoint, over the blocks filled by then

    def entry_stderr(self) -> np.ndarray:
        """Leave-one-block-out jackknife SE of every entry of rho."""
        B = len(self.block_nums)
        if B < 2:
            raise McError("jackknife needs at least 2 blocks")
        var = _leave_one_out_spread(self.block_nums, self.block_dens)
        var *= (B - 1) / B
        return np.sqrt(var, out=var)


def _run_sums(cfg: McConfig, w: WTensor, weight_exponent: float, first: int, sizes) -> list:
    """D x D Sym^k blocks of the weighted sums of the batches first, first + 1,
    ... of the given sizes, one per batch in batch order: one pool task.

    The states are formed once over the run; each batch's columns are then
    handed to _kernels.accumulate_blocks alone and weighted there by their
    Born weights to weight_exponent.
    """
    psi = _run_states(cfg, w, first, sizes)
    return [_kernels.accumulate_blocks(psi[:, lo : lo + b], cfg.k, weight_exponent)
            for lo, b in zip(accumulate(sizes, initial=0), sizes)]


def _run_estimator(cfg: McConfig, w: WTensor, weight_exponent: float) -> McEstimate:
    """Shared accumulation path: weights <psi~|psi~>^weight_exponent.

    The flattened batch plan is generated lazily and cut into runs of
    cfg.task_batches() consecutive batches, one pool task each (_run_sums).
    The tasks run on a pool of pool_width(cfg) threads, at most IN_FLIGHT per
    worker ahead of the reduction, and their batch sums are added here in
    batch order, into the total and into jackknife block i % JACKKNIFE_BLOCKS.
    A checkpoint's SE is taken from the blocks filled by then as soon as it is
    reached, while the pool keeps sampling.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: cli loads this module

    cps = cfg.resolved_checkpoints()
    run = cfg.task_batches()
    # the flattened batch_plan, generated lazily: its length grows with samples
    sizes = (min(BATCH, b - s) for a, b in zip((0,) + cps, cps) for s in range(a, b, BATCH))
    tasks = zip(count(0, run), iter(lambda: tuple(islice(sizes, run)), ()))
    num = np.zeros((cfg.sym_dim,) * 2, dtype=complex)
    den = 0.0
    block_nums, block_dens, checkpoint_batches, stderrs = [], [], [], []
    batches_done = 0
    series = ConvergenceSeries()
    # glibc's malloc raises its mmap and heap-trim thresholds to the size of a freed
    # mapped block up to 32 MB (twice it for trimming).  Freeing one task-sized block
    # here keeps each task's temporaries on the heap, where they would otherwise be
    # trimmed and faulted back in task after task: 5e5 obc samples at t = 3 took
    # 24k minor page faults without it and 1.7k with it; 3e5 pbc ones 311k and 3.3k.
    np.empty(min(cfg.batch_bytes(), 2**24), dtype=np.uint8)
    width = pool_width(cfg)
    pool = ThreadPoolExecutor(max_workers=width)
    pending = deque()  # tasks submitted, in batch order
    done = deque()  # batch sums of the oldest task not yet reduced

    def submit():
        nxt = next(tasks, None)
        if nxt is not None:
            pending.append(pool.submit(_run_sums, cfg, w, weight_exponent, *nxt))

    try:
        for _ in range(IN_FLIGHT * width):
            submit()
        for lo, cp in zip((0,) + cps, cps):
            for _ in range(lo, cp, BATCH):
                if not done:
                    done.extend(pending.popleft().result())
                    submit()
                bnum = done.popleft()
                num += bnum
                bden = float(np.trace(bnum).real)
                den += bden
                if batches_done < JACKKNIFE_BLOCKS:
                    block_nums.append(bnum)
                    block_dens.append(bden)
                else:
                    block_nums[batches_done % JACKKNIFE_BLOCKS] += bnum
                    block_dens[batches_done % JACKKNIFE_BLOCKS] += bden
                batches_done += 1
            if den <= 0:
                raise McError("all sampled norms vanished; aborting")
            rho = num / den
            series.points.append((cp, 0.5 * sym_haar_distance(rho)))
            checkpoint_batches.append(batches_done)
            stderrs.append(_delta_stderr(block_nums, block_dens))
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, tasks not yet started never run
    rho = (rho + rho.conj().T) / 2  # the last checkpoint is at cfg.samples
    return McEstimate(rho=rho, series=series.finalize(), block_nums=block_nums, block_dens=block_dens,
                      checkpoint_batches=checkpoint_batches, checkpoint_stderrs=stderrs)


def mc_moment(cfg: McConfig) -> McEstimate:
    """Physical k-th moment estimator (weight exponent 1 - k)."""
    return _run_estimator(cfg, build_w(cfg.n_a), 1 - cfg.k)


def mc_replica_check(cfg: McConfig, n: int) -> McEstimate:
    """Integer-n replica surrogate estimator (weight exponent n)."""
    if n < 0:
        raise McError("replica exponent n must be a non-negative integer")
    return _run_estimator(cfg, build_w(cfg.n_a), float(n))
