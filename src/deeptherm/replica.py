"""Thermodynamic-limit replica moments as permutation sums over S_{k+n}.

The moment surrogate of order (k, n) is a double sum over S_m, m = k + n,

    rho ~ sum_{s,t} f_bc(s t^-1) * D(s, t),

where the prefactor carries all time dependence,

    f_pbc = Wg(s t^-1, 2^t) * (2^(t - t0))^{#(s t^-1)},
    f_obc = (2^(t - t0))^{#(s t^-1)} / (2^t (2^t+1) ... (2^t+m-1))^2,

and D(s, t) is a t-independent diagram: m copies of (W (x) W*) contracted
between vectorized permutation states on the temporal legs, with the last n
replica (ket, bra) pairs closed by maximally-entangled caps.

The engine works in the boson Fock space of the q^2 temporal modes
(q = 2^t0; mode v = a q + b pairs one a-leg with one b-leg).  Writing
s = c t, the sum over t of the diagrams with s t^-1 in the class c is a
class sum of a-leg permutations between the m-fold W product and its
conjugate, both symmetric under permuting whole replicas.  On the symmetric
subspace Sym^m(C^q (x) C^q) that class sum acts on the lam-isotypic part,
lam a partition of m with at most q rows, as |c| chi_lam(c) / f_lam
(Schur-Weyl duality; Collins & Sniady, CMP 264, 2006).  So the engine keeps
one block per lam, floor(m/2) + 1 of them at N_A <= 2, not one per class.
Sym^m(F), with F the (q^2 x dA) matrix of W, grows one digit at a time; the
a-leg U(q) Casimir, block-diagonal in the a- and b-weights, gives the
isotypic projectors Pi_lam by its eigenvalues; and the Sym^m blocks
X_lam = Sym^m(F)^T Pi_lam Sym^m(conj F) serve every split m = k + n.  The
caps trace out the last n replicas, so the diagrams at (k, n) are the Sym^k
blocks (linalg.sym_basis) of that trace: one linalg.sym_partial_trace call,
the exact route's, on the stack of X_lam, up to a factor m! that the unit
trace of the moment drops.  They are cached and weighted per (t, bc) by
w_lam = sum_c f_bc(c) |c| chi_lam(c) / f_lam; their sum is the moment's
block.  No element of S_m is enumerated, except by the oracle
direct_double_sum.  W is built at dual_tensors.W_COUPLING; no distance to
Haar depends on the coupling (see there).

At even N_A, F is a q^2 x q^2 unitary and drops out of every distance to
Haar, so deviation_series takes each norm in closed form: one weight per mu
of k, p_mu = sum_lam w_lam tr[(Pi_mu (x) 1) Pi_lam], from Schur-Weyl
branching numbers, skew tableau counts (_branching_table), all integers over
common denominators, so each norm is an exact rational rounded once: no W,
block, eigensolve or, at obc, character table.  m is bounded by MAX_DEGREE.
The engine serves odd N_A, where W matters, and replica_moment at every N_A, from
exact weight differences (_deviations), so its norms stay accurate at any t.
"""
from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .dual_tensors import WTensor, build_w, min_depth
from .linalg import (MEM_BUDGET_BYTES, _parent_rows, _trace_maps, multiset_factorials, sym_basis,
                     sym_index, sym_partial_trace)
from .permgroup import (
    MAX_DEGREE,
    Permutation,
    character_table,
    content_product,
    cycle_count,
    enumerate_sym,
    irrep_dimension,
    partitions,
    skew_dimension,
    weingarten_table,
)

class ReplicaError(ValueError):
    pass


@dataclass(frozen=True)
class ReplicaSpec:
    k: int
    n: int
    t: int
    n_a: int
    bc: str = "pbc"

    def __post_init__(self):
        if self.k < 1 or self.n < 0:
            raise ReplicaError("need k >= 1 and n >= 0")
        if self.n_a < 1:
            raise ReplicaError(f"need n_a >= 1, got {self.n_a}")
        if self.m > MAX_DEGREE:
            raise ReplicaError(f"m = k+n = {self.m} above hard cap {MAX_DEGREE}")
        if self.bc not in ("pbc", "obc"):
            raise ReplicaError("bc must be 'pbc' or 'obc'")
        if self.t < min_depth(self.n_a):
            raise ReplicaError(f"need t >= ceil(n_a/2) = {min_depth(self.n_a)}")

    @property
    def m(self) -> int:
        return self.k + self.n

    @property
    def t0(self) -> int:
        return min_depth(self.n_a)


def prefactor_pbc(sigma: Permutation, tau: Permutation, spec: ReplicaSpec) -> float:
    """Wg(s t^-1, 2^t) * (2^(t-t0))^{#(s t^-1)}."""
    gamma = sigma.compose(tau.inverse())
    table = weingarten_table(spec.m, 2**spec.t)
    return table.value(gamma) * (2.0 ** (spec.t - spec.t0)) ** cycle_count(gamma)


def prefactor_obc(sigma: Permutation, tau: Permutation, spec: ReplicaSpec) -> float:
    """(2^(t-t0))^{#(s t^-1)} / (2^t (2^t+1)...(2^t+m-1))^2."""
    gamma = sigma.compose(tau.inverse())
    den = math.prod(range(2**spec.t, 2**spec.t + spec.m))
    return (2.0 ** (spec.t - spec.t0)) ** cycle_count(gamma) / den**2


def diagram_term(sigma: Permutation, tau: Permutation, spec: ReplicaSpec, w: WTensor) -> np.ndarray:
    """Direct contraction of one (sigma, tau) diagram (costly beyond m ~ 4).

    Returns the capped operator on the k-replica space,
    D[mu_vec, nu_vec] = sum over temporal legs and capped replicas of
    prod_j W[mu_j, a_j, b_j] * conj(W[nu_j, a_sigma(j), b_tau(j)]),
    with replicas j >= k sharing mu_j = nu_j.  No t enters: the diagram is
    time-independent by construction.
    """
    if w.t_legs != spec.t0:
        raise ReplicaError("diagram tensor must have t_legs = ceil(n_a/2)")
    k, n, m = spec.k, spec.n, spec.m
    letters = string.ascii_letters
    row = letters[:k]
    col = letters[k : 2 * k]
    cap = letters[2 * k : 2 * k + n]
    alegs = letters[2 * k + n : 2 * k + n + m]
    blegs = letters[2 * k + n + m : 2 * k + n + 2 * m]
    ops, subs = [], []
    for j in range(m):
        spat = row[j] if j < k else cap[j - k]
        subs.append(spat + alegs[j] + blegs[j])
        ops.append(w.data)
    for j in range(m):
        spat = col[j] if j < k else cap[j - k]
        subs.append(spat + alegs[sigma(j)] + blegs[tau(j)])
        ops.append(w.data.conj())
    spec_str = ",".join(subs) + "->" + row + col
    dA = 2**spec.n_a
    return np.einsum(spec_str, *ops, optimize="greedy").reshape(dA**k, dA**k)


def _isotypic_labels(q: int, m: int) -> dict:
    """Casimir eigenvalue -> lam for the partitions lam of m with at most q rows.

    The a-leg U(q) Casimir is sum_i lam_i (lam_i + q + 1 - 2i) on the lam
    isotypic part; two lam with one value cannot be told apart by it, so
    that (q, m) is refused (first at q = 4, m = 6: (3,1,1,1) and (2,2,2)).
    """
    out = {}
    for lam in partitions(m):
        if len(lam) > q:
            continue
        val = sum(p * (p + q + 1 - 2 * i) for i, p in enumerate(lam, start=1))
        if val in out:
            raise ReplicaError(f"at q={q}, m={m} the a-leg Casimir cannot separate "
                               f"{out[val]} and {lam}: both have eigenvalue {val}")
        out[val] = lam
    return out


def _n_isotypic(q: int, m: int) -> int:
    return sum(len(lam) <= q for lam in partitions(m))


def _estimate_engine_bytes(n_a: int, m: int) -> int:
    """Peak bytes of _sagg_bundle: about four Fock rows x orbits arrays (Sym^m(F)
    while it grows, then with one size group's gather, eigenbasis rows and their
    rows of one lam) and one orbits x orbits block per lam, plus the Casimir's
    index arrays, about 8 m^2 integers per Fock row."""
    q, R = 2 ** min_depth(n_a), math.comb(2**n_a + m - 1, m)
    fock = math.comb(q * q + m - 1, m)
    return 16 * (4 * fock * R + _n_isotypic(q, m) * R * R) + 64 * fock * m * m


def _check_size(n_a: int, k: int, ns) -> None:
    """Refuse, before allocating, the moments at k and every n in ns with all results
    cached: per n the engine (its peak bounds the cached blocks), one D x D block per
    lam and one more for the partial trace's gather, its maps (a row and a weight per
    Sym^k multiset and cap multiset) and casting buffer (8192 complex entries at most),
    and about eight blocks for the sum, the checks and the eigensolve, which
    _deviations holds for all n at once."""
    dA, q = 2**n_a, 2 ** min_depth(n_a)
    D = math.comb(dA + k - 1, k)
    need = sum(_estimate_engine_bytes(n_a, k + n) + 2**17
               + 16 * D * (D * (8 + 2 * _n_isotypic(q, k + n)) + math.comb(dA + n - 1, n))
               for n in ns)
    if need > MEM_BUDGET_BYTES:
        m = k + max(ns, default=0)
        raise ReplicaError(f"replica sums at n_a={n_a}, k={k}, m up to {m} "
                           f"need ~{need / 1e9:.1f} GB, above budget")


def _sym_power(F: np.ndarray, m: int) -> np.ndarray:
    """Sym^m(F)[beta, alpha] = perm(F[beta, alpha]) / sqrt(alpha! beta!) for F (v x d),
    rows sym_basis(v, m), columns sym_basis(d, m): F^(x)m in the orthonormal
    multiset bases.

    Column alpha holds the coefficients of the polynomial prod_i L_{alpha_i}(x),
    L_mu(x) = sum_v F[v, mu] x_v, whose x^beta coefficient is perm / beta!.  A
    column is its parent's (alpha without its last digit, linalg._parent_rows)
    times the linear form of the last digit: x^beta times x_v lands on beta + v
    (linalg._trace_maps at n = 1).
    """
    v, d = F.shape
    S = np.ones((1, 1), dtype=np.complex128)
    for j in range(1, m + 1):
        par = S[:, _parent_rows(d, j)]
        del S
        last = sym_basis(d, j).idx[:, -1]
        S = np.zeros((math.comb(v + j - 1, j), len(last)), dtype=np.complex128)
        buf = np.empty_like(par)
        for mode, rows in enumerate(_trace_maps(v, j, 1)[0]):
            S[rows] += np.multiply(par, F[mode, last], out=buf)
        del par, buf
    return S * np.sqrt(multiset_factorials(sym_basis(v, m).idx, v)[:, None]
                       / multiset_factorials(sym_basis(d, m).idx, d))


def _a_leg_casimir(q: int, m: int):
    """Entries (rows, cols, vals) of C = q m 1 + 2 T on sym_basis(q*q, m), mode
    v = a q + b, where T is the sum over position pairs of the a-leg transposition.

    C is the U(q) Casimir sum_xy E_xy E_yx with E_xy = sum_b a+_(x,b) a_(y,b).
    T commutes with the symmetrizer, so T|beta> = sum_{i<j} coef_beta / coef_gamma
    |gamma>, gamma the multiset of beta's sorted code with the a-legs of positions
    i and j swapped.  Entries of one (gamma, beta) add up.
    """
    basis = sym_basis(q * q, m)
    a, b = np.divmod(basis.idx, q)
    ar = np.arange(len(a))
    rows, cols, vals = [ar], [ar], [np.full(len(a), float(q * m))]
    for i, j in combinations(range(m), 2):
        swapped = basis.idx.copy()
        swapped[:, i], swapped[:, j] = a[:, j] * q + b[:, i], a[:, i] * q + b[:, j]
        gamma = sym_index(swapped, q * q)
        rows.append(gamma)
        cols.append(ar)
        vals.append(2 * basis.coef / basis.coef[gamma])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _casimir_blocks(q: int, m: int):
    """C's blocks: the rows of sym_basis(q*q, m) with one multiset of a digits and
    one of b digits, which C preserves.

    Yields (rows, C_b) per block size s: rows (n_s, s) and the (n_s, s, s) blocks.
    """
    a, b = np.divmod(sym_basis(q * q, m).idx, q)
    key = sym_index(a, q) * math.comb(q + m - 1, m) + sym_index(b, q)
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(order)))
    block, local = np.empty_like(order), np.empty_like(order)
    block[order] = np.cumsum(new) - 1
    local[order] = np.arange(len(order)) - starts[block[order]]
    rows, cols, vals = _a_leg_casimir(q, m)
    for s in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == s)
        slot = np.full(len(sizes), -1)
        slot[members] = np.arange(len(members))
        at = slot[block[cols]]
        keep = at >= 0
        flat = (at[keep] * s + local[rows[keep]]) * s + local[cols[keep]]
        C = np.bincount(flat, vals[keep], minlength=len(members) * s * s).reshape(-1, s, s)
        yield order[starts[members][:, None] + np.arange(s)], C


@lru_cache(maxsize=8)
def _sagg_bundle(n_a: int, m: int):
    """Diagram halves for every isotypic part and every k split of one m, in the
    boson Fock space of the q^2 temporal modes.

    Returns (order, X), X[l] the Sym^m block (linalg.sym_basis(dA, m)) of lam =
    order[l]:

        X_lam = Sym^m(F)^T Pi_lam Sym^m(conj F),

    with F = W reshaped to (q^2 modes v = a q + b) x dA and Pi_lam the spectral
    projector of the a-leg Casimir (_a_leg_casimir) at lam's eigenvalue.  A
    class sum c of a-leg permutations acts on lam's part as |c| chi_lam(c) / f_lam,
    so the class-resolved halves of the permutation sum are the Sym^m blocks

        P[c] = sum_lam |c| chi_lam(c) / f_lam X_lam,

    and _isotypic_weights folds the class sum into one weight per lam.  C is
    diagonalized block by block; its eigenvectors are real.
    """
    q = 2 ** min_depth(n_a)
    labels = _isotypic_labels(q, m)  # refuses an ambiguous Casimir before anything is built
    order = tuple(sorted(labels.values()))
    position = {val: order.index(lam) for val, lam in labels.items()}
    w = build_w(n_a)
    dA = 2**n_a
    G = _sym_power(w.data.reshape(dA, q * q).T, m)
    R = G.shape[1]
    X = np.zeros((len(order), R, R), dtype=np.complex128)
    for rows, C in _casimir_blocks(q, m):
        ev, V = np.linalg.eigh(C)
        val = np.rint(ev)
        if np.abs(ev - val).max() > 1e-6:
            raise ReplicaError(f"a-leg Casimir at q={q}, m={m} has a non-integer eigenvalue")
        lab = np.array([position[int(x)] for x in val.ravel()])
        Y = (V.transpose(0, 2, 1) @ G[rows]).reshape(rows.size, -1)  # eigenbasis rows
        for l in set(lab.tolist()):
            part = Y[lab == l]
            X[l] += part.T @ part.conj()
    return order, X


@lru_cache(maxsize=32)
def class_diagram_terms(n_a: int, k: int, n: int):
    """D x D Sym^k blocks of the capped diagram per isotypic part lam of the
    bundle (t-independent): X_lam with its last n replicas traced out, which is
    what the n caps close (linalg.sym_partial_trace, on the stack of X_lam).

    They are the diagrams over (k+n)!, a factor the moment's unit trace drops.
    """
    _check_size(n_a, k, (n,))
    order, X = _sagg_bundle(n_a, k + n)
    return dict(zip(order, sym_partial_trace(X, 2**n_a, k + n, n)))


@lru_cache(maxsize=256)
def _isotypic_weights(m: int, t: int, t0: int, bc: str):
    """(nums, den), integers, with w_lam = nums[lam] / den = sum over classes c of f_bc(c)
    |c| chi_lam(c) / f_lam (f_bc as in the module docstring) per lam of m with at most 2^t0
    rows; |c| chi_lam(c) / f_lam, the class sum of c on lam's isotypic part, is a central
    character, an integer.  obc: the sum is m! s_lam(1^Q) / f_lam = P_lam(Q), Q = 2^(t - t0)
    (hook content), over den = (2^t ... (2^t+m-1))^2.  pbc: Wg(c, 2^t) = N_c / den with
    den = m! L (weingarten_table), so nums[lam] = sum_c N_c Q^#c |c| chi_lam(c) / f_lam."""
    if bc == "obc":
        return ({lam: content_product(lam, 2 ** (t - t0)) for lam in partitions(m) if len(lam) <= 2**t0},
                math.prod(range(2**t, 2**t + m)) ** 2)
    table = character_table(m)
    wg = weingarten_table(m, 2**t)
    pref = [wg.numerators[mu] * 2 ** ((t - t0) * len(mu)) for mu in table.partitions]
    return ({lam: sum(p * (c * x // f) for p, c, x in zip(pref, table.class_sizes, chi))
             for lam, f, chi in zip(table.partitions, table.dims, table.chi) if len(lam) <= 2**t0}, wg.den)


@lru_cache(maxsize=256)
def _branching_table(q: int, k: int, n: int):
    """(lams, cols, haar, D), integers, of the norms at even N_A, q = 2^(N_A/2) (t-independent):
    the lam of m = k + n with at most q rows, and per mu of k with at most q rows

        cols[mu][lam] = m!^2 tr[(Pi_mu (x) 1) Pi_lam] = f_lam P_lam(q)^2 f_mu f^{lam/mu},
        haar[mu] / D = s_mu(1^q)^2 / C(q^2 + k - 1, k), the Haar weight of mu,

    Pi_lam the projector onto V_lam (x) V_lam in Sym^m(C^q (x) C^q), Pi_mu likewise
    in Sym^k (Schur-Weyl duality; Harrow, arXiv:1308.6595, sec. 2).  The lam part
    is V_lam (x) V_lam times the S_m-invariant vector of S_lam (x) S_lam, maximally
    entangled, so Pi_mu (x) 1 acts on it as the mu-isotypic projector of S_lam
    restricted to S_k, whose trace f_mu f^{lam/mu} is read over f_lam: the skew
    tableau count f^{lam/mu} (permgroup.skew_dimension) is the multiplicity of mu in
    that restriction (Stanley, EC2, sec. 7.16), so f_mu f^{lam/mu} / f_lam is the
    chance that the entries 1..k of a uniformly random standard tableau of shape lam
    fill mu.  s_lam(1^q) = f_lam P_lam(q) / m! (permgroup.content_product).
    """
    lams, mus = (tuple(lam for lam in partitions(m) if len(lam) <= q) for m in (k + n, k))
    cols = tuple(tuple(irrep_dimension(lam) * content_product(lam, q) ** 2 * irrep_dimension(mu)
                       * skew_dimension(lam, mu) for lam in lams) for mu in mus)
    haar = tuple((irrep_dimension(mu) * content_product(mu, q) // math.factorial(k)) ** 2 for mu in mus)
    return lams, cols, haar, math.comb(q * q + k - 1, k)


def _branching_norm(spec: ReplicaSpec, n: int) -> float:
    """||rho^(k,n) - rho_Haar||_1 at even N_A, with no W, bundle or eigensolve.

    F (q^2 x dA) is then unitary, so the capped diagrams are those of the Pi_lam
    rotated by F^(x)k, and rho_Haar is invariant under that rotation.  rho is
    U(q) x U(q)-invariant on Sym^k, sum_mu p_mu Pi_mu / s_mu(1^q)^2 over S = sum p,
    with p_mu = sum_lam nums[lam] cols[mu][lam] (_isotypic_weights, _branching_table)
    an integer, so the norm is sum_mu |p_mu D - haar[mu] S| / (S D), rounded once.
    """
    lams, cols, haar, D = _branching_table(2**spec.t0, spec.k, n)
    nums, _ = _isotypic_weights(spec.k + n, spec.t, spec.t0, spec.bc)
    p = [sum(nums[lam] * a for lam, a in zip(lams, col)) for col in cols]
    total = sum(p)
    if total <= 0:
        raise ReplicaError("replica sum degenerate (trace <= 0)")
    if min(p) < 0:
        raise ReplicaError(f"replica moment not PSD (isotypic weight {min(p) / total:.2e})")
    return sum(abs(x * D - h * total) for x, h in zip(p, haar)) / (total * D)


def _deviations(spec: ReplicaSpec, ns):
    """(dev, ev): the D x D Sym^k blocks of rho^(k,n) - I/D for n in ns and their
    eigenvalues, from one stacked eigvalsh, on which the trace, Hermitian and PSD
    checks act.  The Pi_lam resolve Sym^m and F is an isometry, so the diagrams X_lam
    sum to a multiple of I and their traceless parts T_lam to 0: rho - I/D =
    sum_lam (w_lam - w_lam0) T_lam / sum_lam w_lam tr X_lam.  Each weight difference
    is one int/int division, so the weight all lam share cancels exactly."""
    devs = []
    for n in ns:
        diagrams = sorted(class_diagram_terms(spec.n_a, spec.k, n).items())
        nums, _ = _isotypic_weights(spec.k + n, spec.t, spec.t0, spec.bc)
        top = max(map(abs, nums.values())) or 1  # not den, which cancels and underflows at large t m
        tr = sum(nums[lam] / top * np.trace(X).real for lam, X in diagrams)
        if tr <= 0:
            raise ReplicaError(f"replica sum numerically degenerate (trace {tr:.3e})")
        dev = sum((nums[lam] - nums[diagrams[0][0]]) / top * X for lam, X in diagrams) / tr
        np.einsum("ii->i", dev)[...] -= np.trace(dev).real / len(dev)  # sum of the T_lam parts
        devs.append(dev)
    dev = np.array(devs)
    herm_defect = np.abs(dev - dev.conj().swapaxes(1, 2)).max()
    if herm_defect > 1e-9:
        raise ReplicaError(f"replica moment not Hermitian (defect {herm_defect:.2e})")
    ev = np.linalg.eigvalsh(dev)
    wmin = 1 / dev.shape[-1] + ev.min()
    if wmin < -1e-8:
        raise ReplicaError(f"replica moment not PSD (min eig {wmin:.2e})")
    return dev, ev


def replica_moment(spec: ReplicaSpec) -> np.ndarray:
    """The D x D Sym^k block of rho^(k,n), normalized to unit trace: I/D + dev."""
    dev = _deviations(spec, (spec.n,))[0][0]
    return np.eye(len(dev)) / len(dev) + dev


def deviation_series(spec: ReplicaSpec, n_max: int):
    """[(n, ||rho^(k,n) - rho_Haar^(k)||_1) for n = 0..n_max], taken in Sym^k: in
    closed form at even N_A (_branching_norm), else the sum of |ev| of the Fock
    engine's deviations (_deviations)."""
    if spec.k + n_max > MAX_DEGREE:
        raise ReplicaError("k + n_max above the replica cap")
    if spec.n_a % 2 == 0:
        return [(n, _branching_norm(spec, n)) for n in range(n_max + 1)]
    _check_size(spec.n_a, spec.k, range(n_max + 1))
    return list(enumerate(np.abs(_deviations(spec, range(n_max + 1))[1]).sum(axis=-1).tolist()))


@dataclass(frozen=True)
class ExtrapolationResult:
    estimate: float  # ||drho^(k)||_1 at n = 1-k
    a: float
    b: float
    c: float
    residual: float
    flagged: bool


RESIDUAL_THRESHOLD = 0.05  # log2 units


def check_fit_points(n_points: int) -> None:
    """Refuse a series with too few distinct n for the three-parameter fit of
    extrapolate_to_physical."""
    if n_points < 3:
        raise ReplicaError(f"extrapolation needs at least 3 points in n, got {n_points} distinct n")


def extrapolate_to_physical(series, k: int) -> ExtrapolationResult:
    """Fit log2(norm) = a + b exp(-c n) and evaluate at n = 1 - k.

    Variable projection (Golub & Pereyra, Inverse Problems 19, 2003): for a
    fixed c, (a, b) is a linear least squares, solved in closed form with the
    constant column projected out.  The n are integers in 0..MAX_DEGREE, so
    with x = exp(-c), y_c the centred log2 values and N points,

        A(x) = sum_i y_c,i x^n_i,   B(x) = sum_i x^(2 n_i) - (sum_i x^n_i)^2 / N,

    the projected sum of squares is |y_c|^2 - A^2 / B, and its stationary
    points are the roots of the polynomial Q = 2 A' B - A B' (A and B taken
    with their zeros at x = 1 divided out).  A real root with
    exp(-100) < x < exp(-0.001) is a minimum when A Q' < 0.  np.roots fixes
    a root to about 1e-12; two Newton steps on `slope`, which equals
    x A Q / (2 B^2), fix c to a few ulps, and the minimum with the least
    residual wins.  At three points it is the exact interpolant.

    Flagged when no minimum exists (a series that needs c <= 0, growing with
    n, has none), when a Newton step takes a root out of the window (the root
    is dropped), when the RMS residual exceeds RESIDUAL_THRESHOLD, or when the
    estimate leaves float range (0.0 or inf).
    """
    ns = np.array([float(n) for n, _ in series])
    vals = np.array([v for _, v in series])
    check_fit_points(len(set(ns.tolist())))
    if np.any(ns != np.round(ns)) or ns.min() < 0 or ns.max() > MAX_DEGREE:
        raise ReplicaError(f"extrapolation needs integer n in 0..{MAX_DEGREE}")
    if np.any(vals <= 0):
        raise ReplicaError("deviation series must be positive")
    y = np.log2(vals)
    target = float(1 - k)
    if np.ptp(y) < 1e-9:
        a = float(y.mean())
        return ExtrapolationResult(2.0**a, a, 0.0, 1.0, 0.0, False)
    # centred, so rounding in r scales with the spread of y, not with its size
    y_c = y - y.mean()

    def project(c):
        phi = np.exp(-c * ns)
        phi_c = phi - phi.mean()
        b = (phi_c @ y_c) / (phi_c @ phi_c)
        return y.mean() - b * phi.mean(), b, y_c - b * phi_c

    def slope(c):
        # r is orthogonal to 1 and phi, so only the part of n phi outside
        # their span counts; dropping the rest keeps r's rounding out of it
        _, b, r = project(c)
        phi = np.exp(-c * ns)
        phi_c = phi - phi.mean()
        q = ns * phi
        q_c = q - q.mean()
        q_c -= (q_c @ phi_c) / (phi_c @ phi_c) * phi_c
        return b * (r @ q_c)

    def sse(c):
        r = project(c)[2]
        return r @ r

    # A, the sums of x^n and x^2n, B and Q in the power basis, highest power first
    deg, pos = int(ns.max()), ns.astype(int)
    A, S1, S2 = np.zeros(deg + 1), np.zeros(deg + 1), np.zeros(2 * deg + 1)
    np.add.at(A, deg - pos, y_c)
    np.add.at(S1, deg - pos, 1.0)
    np.add.at(S2, 2 * (deg - pos), 1.0)
    B = S2 - np.convolve(S1, S1) / len(ns)
    # A has a zero at x = 1 and B a double one.  Dividing them out leaves A^2 / B
    # as it is and keeps a triple root at 1 out of Q, whose rounding would spread
    # it into the window; p(x) / (x - 1) is the running sum of p's coefficients
    A, B = np.cumsum(A)[:-1], np.cumsum(np.cumsum(B)[:-1])[:-1]
    Q = 2 * np.convolve(np.polyder(A), B) - np.convolve(A, np.polyder(B))
    dQ = np.polyder(Q)

    def horner(p, x):  # np.polyval's operations, on Python floats
        return reduce(lambda acc, coef: acc * x + coef, p.tolist(), 0.0)

    def polish(c):
        for _ in range(2):
            x = math.exp(-c)
            c += 2 * horner(B, x) ** 2 * slope(c) / (x * x * horner(A, x) * horner(dQ, x))
            if not 1e-3 < c < 100:
                return None  # the step left the window, where exp(-c) may overflow
        return c

    xs = np.roots(Q)
    xs = xs[xs.imag == 0].real
    xs = xs[(math.exp(-100) < xs) & (xs < math.exp(-1e-3))]
    polished = [polish(-math.log(x)) for x in xs[np.polyval(A, xs) * np.polyval(dQ, xs) < 0]]
    roots = [c for c in polished if c is not None]
    c = float(min(roots or np.geomspace(1e-3, 1e2, 51), key=sse))
    a, b, r = project(c)
    residual = float(np.sqrt(np.mean(r**2)))
    estimate = float(2.0 ** (a + b * np.exp(-c * target)))
    flagged = (not roots or None in polished or residual > RESIDUAL_THRESHOLD
               or not 0.0 < estimate < math.inf)
    return ExtrapolationResult(estimate, float(a), float(b), c, residual, flagged)


def rate_estimate(values: dict) -> float:
    """Decay rate v: slope of -log2(norm) vs t over the largest-t half."""
    ts = sorted(values)
    if len(ts) < 3:
        raise ReplicaError("rate fit needs at least 3 times")
    vals = np.array([values[t] for t in ts], dtype=float)
    if np.any(vals <= 0):
        raise ReplicaError("rate fit needs positive values")
    half = max(2, (len(ts) + 1) // 2)
    tt = np.array(ts[-half:], dtype=float)
    yy = -np.log2(vals[-half:])
    slope = np.polyfit(tt, yy, 1)[0]
    return float(slope)


def direct_double_sum(spec: ReplicaSpec, w: WTensor) -> np.ndarray:
    """Brute-force sum over all (sigma, tau) pairs; oracle for the engine."""
    perms = enumerate_sym(spec.m)
    pref = prefactor_pbc if spec.bc == "pbc" else prefactor_obc
    acc = np.zeros((2 ** (spec.n_a * spec.k),) * 2, dtype=complex)
    for sig in perms:
        for tau in perms:
            acc += pref(sig, tau, spec) * diagram_term(sig, tau, spec, w)
    return acc / np.trace(acc)
