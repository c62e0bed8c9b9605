"""Exact statevector simulation of the kicked Ising chain and its projected ensemble.

The Floquet step is U_F = U_h exp(-i H_Ising) with U_h = exp(-i h sum_i Y_i)
and H_Ising the nearest-neighbour ZZ chain plus longitudinal field (plus
boundary fields for open boundaries).  All Ising terms commute, so the
Ising factor is an exact diagonal phase, multiplied into the state in place
one chunk of CHUNK amplitudes at a time.  The kick is the same 2x2 matrix K
on every site, so U_h = K^{(x)n} factors over groups of up to KICK_GROUP
neighbouring qubits, the remainder group first.  Each group's K^{(x)w} (at
most 64 x 64) is applied in place on the fixed (pre, 2^w, post) view of the
state, one chunk of about CHUNK entries at a time through a reused buffer;
no bits are rotated between groups.

At the self-dual point |j| = |h| = pi/4 the reduced state of a bulk block
of n_a qubits is exactly maximally mixed for every ceil(n_a/2) <= t below
the finite-size wrap-around window, for any boundary fields (the chain ends
stay outside the block's light cone there).  Higher moments of the
projected ensemble do feel the boundary fields at finite N; the defaults
b1 = bn = pi/4 complete the end sites' gate structure (a pi/4 field is a
ZZ coupling to a frozen |0> neighbour) and are the values under which the
finite chain tracks the thermodynamic-limit ensemble most closely.

The Ising energy of a basis index depends only on its popcount (the field
term), the popcount of the XOR of neighbouring bits (the broken bonds) and,
at obc, its two end bits.  So exp(-i E) is a table of (n+1)(n_bonds+1)
entries, four times that at obc (_phase_table), and each chunk's phases are
gathered from it by a code read from the bits (_ising_phases).  No n x 2^n
spin table and no 2^n phase vector is formed; ising_phase_vector, the dense
reference, gathers from the same table.

After each step one pass over the bath outcomes gives the moments of every
order 1..K (moments_from_state).  It hands a view of the state to
_kernels.accumulate_blocks, with no copy: the kernel takes each outcome's
Born weight, grows its Sym^K rows in reused work arrays and adds them to
the running sum with one GEMM per block.  On a mirror-symmetric chain
(KimConfig.mirror_symmetric: the block centred, so n - n_a even at the
default offset, and at obc b1 == bn) the reflection i <-> n-1-i leaves the
kicks, the Ising phases and |+...+> unchanged, hence every chain state.
There, given chain=True (the caller's word that the state is the chain's
own), the pass sums each mirror pair of outcomes once (_mirror_paired_sum).
Nothing checks the symmetry at run time: a check would cost about what the
pairing saves.  Each lower order is the partial
trace of the next (linalg.sym_partial_trace), taken once per step on the
D x D sums.  The moments are returned as their
D x D Sym^k blocks (linalg.sym_basis); delta_k reads the distance to Haar
from the block.  Only the tests embed a block in the replicated space.  The
order-1 block is the subsystem's reduced state, so the entanglement entropy
is read from its eigenvalues (entropy_bits) and the reduced state is formed
nowhere else.  So the exact route's only state-sized array is the state.

The finite-bath check (dual_unitary_ensemble_check), a function of t, k, g
and the bath lengths alone, compares the k-th moment of a bath segment's
temporal maps U(z) = T(z_{L-1}) ... T(z_0) over its 2^L outcomes with the
Haar moment Phi.  The bits z_i are independent, so that moment is S^L with
S = 1/2 sum_b (T_b (x) T_b*)^{(x)k}.  Phi = V Wg V^+, with the k! permutation
states as the columns of V and Wg[tau, sigma] = Wg(sigma tau^-1)
(Moore-Penrose values when 2^t < k; Phi is still the projector onto their
span).  Each layer fixes every permutation state, so S Phi = Phi S = Phi^2 =
Phi and S^L - Phi = (S - Phi)^L: one GEMM and one trace norm per length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .dual_tensors import PI4, dual_site_layer, kick_matrix
from .linalg import (
    MEM_BUDGET_BYTES,
    kron_all,
    partial_trace,
    permutation_vector_state,
    sym_basis,
    sym_haar_distance,
    sym_index,
    sym_partial_trace,
    trace_norm,
)
from .permgroup import enumerate_sym, weingarten_table

KICK_GROUP = 6  # qubits per kick GEMM; K^{(x)6} is 64 x 64
CHUNK = 2**14  # entries per chunk of the phase build and the kicks (256 KiB complex)
MIRROR_BITS = 3  # bath bits next to the block fixed on each side per tile of the mirror-paired pass
G_GUARD_BAND = 1e-3


class ConfigError(ValueError):
    pass


def check_coupling(g: float, guard: float = G_GUARD_BAND) -> None:
    """Raise ConfigError when g is not finite or lies within guard of a multiple of pi/8."""
    if not math.isfinite(g):
        raise ConfigError(f"g must be finite, got {g}")
    r = g % (np.pi / 8)
    if min(r, np.pi / 8 - r) < guard:
        raise ConfigError(f"g={g} within guard band {guard} of a multiple of pi/8")


@dataclass(frozen=True)
class KimConfig:
    n: int
    n_a: int
    t: int
    bc: str = "pbc"
    g: float = 0.3
    j: float = PI4
    h: float = PI4
    b1: float = PI4
    bn: float = PI4
    a_offset: int | None = None
    self_dual: bool = True
    g_guard: float = G_GUARD_BAND

    def __post_init__(self):
        if self.bc not in ("pbc", "obc"):
            raise ConfigError(f"bc must be 'pbc' or 'obc', got {self.bc!r}")
        if not 1 <= self.n_a < self.n:
            raise ConfigError("need 1 <= n_a < n")
        if self.t < 0:
            raise ConfigError("t must be non-negative")
        off = self.offset
        if not 0 <= off <= self.n - self.n_a:
            raise ConfigError(f"subsystem [{off}, {off + self.n_a}) falls off the chain")
        if self.self_dual and not (
            np.isclose(abs(self.j), PI4) and np.isclose(abs(self.h), PI4)
        ):
            raise ConfigError("self-dual mode requires |j| = |h| = pi/4")
        check_coupling(self.g, self.g_guard)

    @property
    def offset(self) -> int:
        if self.a_offset is not None:
            return self.a_offset
        return self.n // 2 - self.n_a // 2  # block centered on site n//2

    @property
    def n_bonds(self) -> int:
        return self.n if self.bc == "pbc" else self.n - 1

    @property
    def mirror_symmetric(self) -> bool:
        """True when the reflection i <-> n-1-i maps the chain onto itself and the
        block onto itself: the block is centred (offset == n - offset - n_a) and
        the chain is a ring or has equal end fields (b1 == bn)."""
        centred = self.offset == self.n - self.offset - self.n_a
        return centred and (self.bc == "pbc" or self.b1 == self.bn)

    def wraparound(self, t: int | None = None) -> bool:
        """True when t exceeds the pre-recurrence window: (n - n_a)/2 - 1 on the
        ring, and at obc min(offset, n - offset - n_a) - 1, the distance to the
        nearer chain end, whose boundary enters the block's light cone after it."""
        tt = self.t if t is None else t
        if self.bc == "obc":
            return tt > min(self.offset, self.n - self.offset - self.n_a) - 1
        return tt > (self.n - self.n_a) / 2 - 1


def exact_bytes(n: int, n_a: int, k: int) -> int:
    """Bytes the exact route holds at once, summed over its largest arrays.

    The state (complex, 2^n) lives throughout; it is the only state-sized
    array.  Beside it, a Floquet step holds its chunk buffer (CHUNK complex
    entries), the phase codes' integer temporaries (24 bytes per entry: the
    int32 indices, the intp codes and three int32 temporaries) and two kick
    matrices of at most 2^KICK_GROUP x 2^KICK_GROUP.  The moment pass holds
    instead _kernels.accumulate_bytes over the 2^(n - n_a) outcomes (its sum
    is the block at D_k), the D_j x D_j block of every lower order j,
    D_j = C(2^n_a + j - 1, j), delta_k's Hermitian part and eigvalsh copy at
    D_k (entropy_bits takes the same at D_1), sym_partial_trace's gathered
    block at D_(k-1), and the mirror-paired pass's extra D_k x D_k sum: the
    paired tiles' sum, held through the second kernel call and beside its
    mirror image, which takes the place of the kernel's freed work arrays.
    No moment is embedded in the 2^(n_a k)-dimensional replicated space, and
    no spin table is formed.
    """
    step = 40 * CHUNK + 2 * 16 * 4**KICK_GROUP
    dims = [math.comb(2**n_a + j - 1, j) for j in range(1, k + 1)]
    moments = _kernels.accumulate_bytes(2**n_a, k, 2 ** (n - n_a)) + 16 * (
        sum(d * d for d in dims[:-1]) + 3 * dims[-1] ** 2 + math.comb(2**n_a + k - 2, k - 1) ** 2)
    return 16 * 2**n + max(step, moments)


def check_exact_size(n: int, n_a: int, k: int) -> None:
    """Raise ConfigError, before anything is allocated, when k < 1 or exact_bytes
    exceeds the memory budget; it bounds both the chain length n and the Sym^k
    dimension D."""
    if k < 1:
        raise ConfigError(f"moment order k must be >= 1, got {k}")
    need = exact_bytes(n, n_a, k)
    if need > MEM_BUDGET_BYTES:
        raise ConfigError(
            f"exact run at n={n}, n_a={n_a}, k={k} needs ~{need / 1e9:.1f} GB, above budget"
        )


def _phase_table(cfg: KimConfig) -> np.ndarray:
    """exp(-i E) over every energy of the chain, at the codes of _ising_phases.

    E depends on a basis index only through a = popcount(x), b = the number of
    broken bonds and, at obc, the two end bits e1 and en.  Each entry is summed
    in one fixed order: g (n - 2a), then j (n_bonds - 2b), then -+b1, then -+bn.
    """
    n, n_bonds = cfg.n, cfg.n_bonds
    ends = (2, 2) if cfg.bc == "obc" else ()
    idx = np.indices((n + 1, n_bonds + 1) + ends).reshape(2 + len(ends), -1)
    energy = cfg.g * (n - 2 * idx[0])
    energy += cfg.j * (n_bonds - 2 * idx[1])
    if cfg.bc == "obc":
        energy += np.where(idx[2], -cfg.b1, cfg.b1)
        energy += np.where(idx[3], -cfg.bn, cfg.bn)
    return np.exp(energy * -1j)


def _ising_phases(cfg: KimConfig, table: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Write the Ising phases of the basis indices lo .. lo + len(out) into out.

    The spins are read from the bits of x (site 0 the most significant).  Bit
    n-1-(i+1)%n of differ is set when sites i and i+1 disagree; differ is then
    masked to the chain's bonds (obc drops bond (n-1, 0), the top bit).  The
    code of x is a (n_bonds + 1) + b, times 4 plus 2 e1 + en at obc: its index
    in table.
    """
    n, n_bonds = cfg.n, cfg.n_bonds
    x = np.arange(lo, lo + len(out), dtype=np.int32)  # every index: 2^31 amplitudes take 32 GiB
    code = np.bitwise_count(x).astype(np.intp)
    code *= n_bonds + 1
    differ = (x >> 1) | ((x & 1) << (n - 1))
    differ ^= x
    differ &= (1 << n_bonds) - 1
    code += np.bitwise_count(differ)
    if cfg.bc == "obc":
        code *= 4
        code += (x >> (n - 1)) << 1
        code += x & 1
    # mode="clip" lets take write straight into out, with no buffered copy
    return np.take(table, code, out=out, mode="clip")


def ising_phase_vector(cfg: KimConfig) -> np.ndarray:
    """Diagonal of exp(-i H_Ising) in the computational basis: the dense
    reference for build_floquet and the tests, gathered CHUNK indices at a time
    from the table that apply_floquet reads."""
    table = _phase_table(cfg)
    out = np.empty(2**cfg.n, dtype=complex)
    for lo in range(0, len(out), CHUNK):
        _ising_phases(cfg, table, lo, out[lo : lo + CHUNK])
    return out


def _kick_group(view: np.ndarray, kw: np.ndarray, buf: np.ndarray) -> None:
    """Apply kw on the middle axis of view (pre, m, post), in place, one chunk
    of at most len(buf) entries at a time: each chunk's product goes to buf and
    is copied back.  The group of the last sites (post == 1) is a product of
    row blocks with kw^T."""
    pre, m, post = view.shape
    if post == 1:
        rows, step = view.reshape(pre, m), len(buf) // m
        for r in range(0, pre, step):
            blk = rows[r : r + step]
            blk[...] = np.matmul(blk, kw.T, out=buf[: blk.size].reshape(blk.shape))
        return
    cols = min(post, len(buf) // m)
    step = max(1, len(buf) // (m * post))
    for p in range(0, pre, step):
        for c in range(0, post, cols):
            blk = view[p : p + step, :, c : c + cols]
            blk[...] = np.matmul(kw, blk, out=buf[: blk.size].reshape(blk.shape))


def apply_floquet(state: np.ndarray, cfg: KimConfig) -> np.ndarray:
    """One Floquet step U_h exp(-i H_Ising) on the 2^n statevector state, in
    place; returns state.

    Each chunk of CHUNK amplitudes is multiplied by its Ising phases, gathered
    from the phase table into one reused buffer.  The kick K^{(x)n} is then
    applied one group of up to KICK_GROUP sites at a time (the remainder group
    first, so every other group has at least 2^6 indices after it), through
    the same buffer.
    """
    table = _phase_table(cfg)
    buf = np.empty(CHUNK, dtype=complex)
    for lo in range(0, len(state), CHUNK):
        seg = state[lo : lo + CHUNK]
        seg *= _ising_phases(cfg, table, lo, buf[: len(seg)])
    K = kick_matrix(cfg.h)
    lo = 0
    for w in [cfg.n % KICK_GROUP] + [KICK_GROUP] * (cfg.n // KICK_GROUP):
        if w:
            _kick_group(state.reshape(2**lo, 2**w, -1), kron_all([K] * w), buf)
            lo += w
    return state


def build_floquet(cfg: KimConfig) -> np.ndarray:
    """Dense 2^n x 2^n Floquet matrix (small n only)."""
    if cfg.n > 14:
        raise ConfigError(
            f"dense Floquet matrix at n={cfg.n} needs "
            f"~{(2**cfg.n)**2 * 16 / 1e9:.1f} GB; capped at n=14"
        )
    U = kron_all([kick_matrix(cfg.h)] * cfg.n)
    U *= ising_phase_vector(cfg)[None, :]
    return U


def plus_state(n: int) -> np.ndarray:
    return np.full(2**n, 2.0 ** (-n / 2), dtype=complex)


def evolve(cfg: KimConfig) -> np.ndarray:
    """|Psi(t)> after t Floquet steps from the x-polarized product state.

    The exact route's test reference, like build_floquet.  It holds one
    statevector, stepped in place.  cli.cmd_exact keeps its own loop, because
    it reads the state at every step and calls plus_state, apply_floquet,
    moments_from_state and entropy_bits through the cli module, where they can
    be timed or replaced per step.  Its states are what moments_from_state's
    chain=True stands for: on a mirror_symmetric cfg they are invariant under
    i <-> n-1-i, so the moment pass may pair mirror outcomes.
    """
    state = plus_state(cfg.n)
    for _ in range(cfg.t):
        apply_floquet(state, cfg)
    return state


def _bit_reversal(bits: int) -> np.ndarray:
    """rev x for every bits-bit integer x: its bits in reverse order."""
    return np.array([int(f"{x:0{bits}b}"[::-1], 2) for x in range(2**bits)])


@lru_cache(maxsize=None)
def _mirror_rows(n_a: int, k: int) -> np.ndarray:
    """Pi, the Sym^k row map of sigma -> rev sigma on n_a qubits: the row in
    sym_basis(2^n_a, k) of each multiset with its digits bit-reversed.  The
    map keeps every digit's multiplicity, so it commutes with the coefficients."""
    da = 2**n_a
    out = sym_index(_bit_reversal(n_a)[sym_basis(da, k).idx], da)
    out.setflags(write=False)
    return out


def _mirror_paired_sum(state: np.ndarray, cfg: KimConfig, k: int) -> np.ndarray:
    """The unnormalized Sym^k sum of moments_from_state on a mirror-symmetric
    chain state, from 9/16 of the bath outcomes.

    The state is viewed as (2^(off-s), 2^s, dA, 2^s, 2^(off-s)), s =
    min(MIRROR_BITS, offset): tile (P, Q) fixes the s bath bits on each side
    next to the block, and each tile is a (sigma, z1, z2) view with unit-stride
    last axis.  The reflection maps outcome (z1, sigma, z2) to (rev z2,
    rev sigma, rev z1) with the same amplitude, so tile (P, Q) mirrors tile
    (rev Q, rev P) with its Sym^k rows permuted by Pi (_mirror_rows).  The
    tiles with P < rev Q are summed once, as U, and enter as U + Pi U Pi^T; the
    2^s tiles with P = rev Q are their own mirrors and are summed in full.
    """
    s = min(MIRROR_BITS, cfg.offset)
    m, rev = 2**s, _bit_reversal(s)
    tiles = state.reshape(2 ** (cfg.offset - s), m, 2**cfg.n_a, m, -1).transpose(1, 3, 2, 0, 4)  # (P, Q, sigma, z1, z2)
    paired = _kernels.accumulate_blocks([tiles[p, q] for p in range(m) for q in range(m) if p < rev[q]], k, 1 - k)
    out = _kernels.accumulate_blocks([tiles[p, rev[p]] for p in range(m)], k, 1 - k)
    out += paired
    rows = _mirror_rows(cfg.n_a, k)
    out += paired[rows[:, None], rows]
    return out


def moments_from_state(state: np.ndarray, cfg: KimConfig, k: int, chain: bool = False) -> list:
    """The moments of orders 1..k as their Sym^j blocks (linalg.sym_basis),
    each normalized to unit trace, from one pass over the bath outcomes.

    Outcome z = (z1, z2), z1 the bits before the subsystem, leads with z1.
    _kernels.accumulate_blocks reads the view amps[sigma, z1, z2] =
    <z1 sigma z2|Psi> and sums the outcomes' Sym^k rows, weighted by p_z^(1-k)
    from their Born weights p_z.  Each lower order j is then the normalized
    partial trace of order j + 1 (linalg.sym_partial_trace): a projected state
    has unit trace, and p_z^(1-j) p_z = p_z^(1-(j-1)).

    chain=True guarantees that state is cfg's own chain state (plus_state
    stepped by apply_floquet); on a mirror_symmetric cfg the pass then sums
    each mirror pair of outcomes once (_mirror_paired_sum).  Any other state
    or chain takes the general pass.
    """
    da = 2**cfg.n_a
    if chain and cfg.mirror_symmetric:
        blocks = [_mirror_paired_sum(state, cfg, k)]
    else:
        amps = state.reshape(2**cfg.offset, da, -1).transpose(1, 0, 2)  # (sigma, z1, z2), a view
        blocks = [_kernels.accumulate_blocks(amps, k, 1 - k)]
    blocks[0] /= np.trace(blocks[0])
    for j in range(k, 1, -1):
        r = sym_partial_trace(blocks[-1], da, j)
        r /= np.trace(r)
        blocks.append(r)
    return blocks[::-1]


def moment_from_state(state: np.ndarray, cfg: KimConfig, k: int) -> np.ndarray:
    """The k-th moment's D x D Sym^k block: the last block of moments_from_state."""
    return moments_from_state(state, cfg, k)[-1]


def delta_k(r: np.ndarray) -> float:
    """Half trace distance to the Haar moment of matching order, from the Sym^k block r."""
    return 0.5 * sym_haar_distance(r)


def design_time(series: dict, eps: float):
    """Smallest t with Delta(t) <= eps, or None when never reached."""
    for t in sorted(series):
        if series[t] <= eps:
            return t
    return None


def design_times(series_by_k: dict, eps: float) -> dict:
    """Design times per k; asserts the monotonicity t_{k+1} >= t_k."""
    out = {}
    prev = None
    for k in sorted(series_by_k):
        tk = design_time(series_by_k[k], eps)
        if prev is not None and tk is not None and prev[1] is not None and tk < prev[1]:
            raise AssertionError(f"design times not monotone: t_{k} < t_{prev[0]}")
        out[k] = tk
        prev = (k, tk)
    return out


def entropy_bits(r: np.ndarray) -> float:
    """Von Neumann entropy (bits) of the reduced state whose Sym^1 block is r,
    the first block of moments_from_state; eigenvalues <= 1e-14 are dropped."""
    p = np.linalg.eigvalsh((r + r.conj().T) / 2)
    p = p[p > 1e-14]
    return float(-(p * np.log2(p)).sum())


def reduced_density_matrix(state: np.ndarray, cfg: KimConfig) -> np.ndarray:
    off = cfg.offset
    dims = [2**off, 2**cfg.n_a, 2 ** (cfg.n - cfg.n_a - off)]
    return partial_trace(np.outer(state, state.conj()), dims, keep=[1])


def haar_unitary_moment(t: int, k: int) -> np.ndarray:
    """Phi = int dU (U (x) U*)^{(x)k} on t qubits as V Wg V^+ (module docstring)."""
    perms = enumerate_sym(k)
    table = weingarten_table(k, 2**t)
    V = np.stack([permutation_vector_state(p, t) for p in perms], axis=1)
    wg = np.array([[table.value(sig.compose(tau.inverse())) for sig in perms] for tau in perms])
    return (V @ wg) @ V.conj().T


def bath_transfer_operator(t: int, k: int, g: float) -> np.ndarray:
    """S = 1/2 sum_b (T_b (x) T_b*)^{(x)k} over the dual site layers T_b (module docstring)."""
    layers = [dual_site_layer(b, t, g) for b in (0, 1)]
    return sum(kron_all([np.kron(T, T.conj())] * k) for T in layers) / 2


def dual_unitary_ensemble_check(t: int, k: int, g: float, lengths) -> list[float]:
    """|| S^L - Phi ||_1 = || (S - Phi)^L ||_1 per bath length L, in lengths order
    (module docstring), at t >= 1, k >= 0 and g outside the guard band.  A run
    above the memory budget raises ConfigError before allocating."""
    lengths = list(lengths)
    if t < 1 or k < 0:
        raise ConfigError(f"designcheck needs t >= 1 and k >= 0, got t={t}, k={k}")
    if any(L < 1 for L in lengths):
        raise ConfigError("bath side length must be >= 1")
    check_coupling(g)
    if k == 0 or not lengths:
        return [0.0] * len(lengths)
    # dim = 4^(t k): -Phi, S's two Kronecker terms and their running sum while S
    # is built; then S - Phi, the power and its successor, or the power and
    # trace_norm's LAPACK copy and SVD work; V, V Wg, V^+ are dim x k!
    dim = 4 ** (t * k)
    need = 16 * (4 * dim**2 + 3 * math.factorial(k) * dim) + 2**20
    if need > MEM_BUDGET_BYTES:
        raise ConfigError(
            f"designcheck at t={t}, k={k} needs ~{need / 1e9:.1f} GB, above budget"
        )
    D = -haar_unitary_moment(t, k)
    D += bath_transfer_operator(t, k, g)
    A, power, dist = D, 1, {}
    for L in sorted(set(lengths)):
        for _ in range(L - power):
            A = D @ A
        power = L
        dist[L] = trace_norm(A)
    return [dist[L] for L in lengths]
