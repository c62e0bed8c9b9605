"""Thermodynamic-limit replica moments as permutation sums over S_{k+n}.

The moment surrogate of order (k, n) is a double sum over S_m, m = k + n,

    rho ~ sum_{s,t} f_bc(s t^-1) * D(s, t),

where the prefactor carries all time dependence,

    f_pbc = Wg(s t^-1, 2^t) * (2^(t - t0))^{#(s t^-1)},
    f_obc = (2^(t - t0))^{#(s t^-1)} / (2^t (2^t+1) ... (2^t+m-1))^2,

and D(s, t) is a t-independent diagram: m copies of (W (x) W*) contracted
between vectorized permutation states on the temporal legs, with the last n
replica (ket, bra) pairs closed by maximally-entangled caps.

The evaluation engine groups the double sum by the conjugacy class of
s t^-1.  Writing s = c t and using the relabeling identities of the W-fold
tensor, the inner sum over t collapses onto digit-multiset orbits of the
replica index.  The engine works in orbit space, once per m, and never
forms the m-fold W product K or indexes its dA^m replica codes: the orbit
sums O of conj(K) grow one replica at a time over digit multisets; one
member of each class permutes their a-legs; and W contracted mode by mode
into multiset rows gives an (orbit x class x orbit) tensor P that serves
every split m = k + n.  A class diagram at (k, n) is a D x D Sym^k block
(linalg.sym_basis) gathered from P through the orbit of each row and
column multiset joined with the caps'.  Class-resolved diagrams are cached
and reweighted per (t, bc); their sum is the moment's block.
W is built at dual_tensors.W_COUPLING; no distance to Haar depends on the
coupling (see there).
"""
from __future__ import annotations

import math
import string
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from .dual_tensors import WTensor, build_w, min_depth
from .linalg import MEM_BUDGET_BYTES, multiset_factorials, sym_basis, sym_haar_distance, sym_index
from .permgroup import (
    MAX_DEGREE,
    Permutation,
    conjugacy_classes,
    cycle_count,
    enumerate_sym,
    partitions,
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


def _haar_denominator(d: int, m: int) -> float:
    out = 1.0
    for j in range(m):
        out *= d + j
    return out


def prefactor_pbc(sigma: Permutation, tau: Permutation, spec: ReplicaSpec) -> float:
    """Wg(s t^-1, 2^t) * (2^(t-t0))^{#(s t^-1)}."""
    gamma = sigma.compose(tau.inverse())
    table = weingarten_table(spec.m, 2**spec.t)
    return table.value(gamma) * (2.0 ** (spec.t - spec.t0)) ** cycle_count(gamma)


def prefactor_obc(sigma: Permutation, tau: Permutation, spec: ReplicaSpec) -> float:
    """(2^(t-t0))^{#(s t^-1)} / (2^t (2^t+1)...(2^t+m-1))^2."""
    gamma = sigma.compose(tau.inverse())
    den = _haar_denominator(2**spec.t, spec.m)
    return (2.0 ** (spec.t - spec.t0)) ** cycle_count(gamma) / den**2


def _prefactor_of_type(cycle_type: tuple, spec: ReplicaSpec) -> float:
    n_cycles = len(cycle_type)
    loop = (2.0 ** (spec.t - spec.t0)) ** n_cycles
    if spec.bc == "pbc":
        table = weingarten_table(spec.m, 2**spec.t)
        return table.value_of_type(cycle_type) * loop
    return loop / _haar_denominator(2**spec.t, spec.m) ** 2


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


def _estimate_engine_bytes(n_a: int, m: int) -> int:
    """Peak bytes of _sagg_bundle: P (orbits x classes x orbits), and while one
    class is contracted about four orbits x q^{2m} arrays (O, its permuted copy
    or a mode product, that product's orbit sums, the merge's slices)."""
    R, q2m = math.comb(2**n_a + m - 1, m), 2 ** (2 * m * min_depth(n_a))
    return 16 * R * (len(partitions(m)) * R + 4 * q2m)


def _check_size(n_a: int, k: int, ns) -> None:
    """Refuse, before allocating, the moments at k and every n in ns with all results
    cached: per n the engine (its peak bounds the cached P), one D x D block per class
    and the D x D x D_n gather that makes it, then about eight blocks for the sum and checks."""
    dA = 2**n_a
    block = 16 * math.comb(dA + k - 1, k) ** 2
    need = 8 * block + sum(_estimate_engine_bytes(n_a, k + n)
                           + block * (len(partitions(k + n)) + 2 * math.comb(dA + n - 1, n))
                           for n in ns)
    if need > MEM_BUDGET_BYTES:
        m = k + max(ns, default=0)
        raise ReplicaError(f"replica sums at n_a={n_a}, k={k}, m up to {m} "
                           f"need ~{need / 1e9:.1f} GB, above budget")


def _unions(d: int, a: int, b: int) -> np.ndarray:
    """(D_a, D_b, a + b) digits of each a-digit multiset joined with each b-digit one."""
    x, y = sym_basis(d, a).idx, sym_basis(d, b).idx
    shape = (len(x), len(y))
    return np.concatenate([np.broadcast_to(x[:, None], shape + (a,)),
                           np.broadcast_to(y[None], shape + (b,))], axis=2)


def _orbit_contract(T: np.ndarray, mat: np.ndarray, m: int) -> np.ndarray:
    """X[o, l] = sum_{M in o} sum_i prod_j mat[M_j, i_j] T[l, i_1..i_m] for mat (d x r),
    T with L rows of r^m entries (C order of its shape) and o in sym_basis(d, m) order.

    Each step is one GEMM on the last mode that writes its digit first (Kolda &
    Bader, SIAM Rev. 51, 2009, sec. 2.5), and the digit joins the multiset of
    those contracted before it, so there are never more rows than multisets.
    """
    L, (d, r) = len(T), mat.shape
    T = T.reshape(1, -1)  # a copy when T is a permuted view, released after one step
    for j in range(m):
        Y = (mat @ T.reshape(-1, r).T).reshape(d, len(T), -1)
        del T
        T = np.zeros((math.comb(d + j, j + 1), Y.shape[2]), dtype=Y.dtype)
        for mu, rows in enumerate(sym_index(_unions(d, j, 1), d).T):
            T[rows] += Y[mu]
        del Y
    return T.reshape(-1, L)


@lru_cache(maxsize=8)
def _sagg_bundle(n_a: int, m: int):
    """Orbit-space diagram halves for every class and every k split of one m.

    Returns (order, P) with

        P[r, c, o] = sum_s K[rep_r, s] * S_c[o, s],
        S_c[o, (a, b)] = sum_{gamma in c} O[o, gamma(a), b],

    where K[M, (a, b)] = prod_j W[M_j, a_j, b_j] is the m-fold W product, O
    the sum of conj(K) over the codes M of the digit multiset o, gamma(a) the
    a-legs permuted by gamma, rep_r the sorted code of multiset r (r and o in
    linalg.sym_basis(dA, m) order) and `order` the class order along c.
    O does not change when its (a_j, b_j) pairs are permuted, so conjugating
    gamma by pi moves a row M to pi(M); with c closed under conjugation, P's
    row does not change when the digits of M are permuted, and

        P[r, c, o] = |c| r! / m! * sum_{M in r} sum_s K[M, s] O[o, gamma_c(a), b]

    for any one gamma_c in c (r! the multiset's factorials).  Neither K nor a
    dA^m index is formed: O grows one replica at a time over digit multisets,
    and the sum over M is _orbit_contract with W.
    """
    w = build_w(n_a)
    dA, q = 2**n_a, 2 ** w.t_legs
    wm = w.data.reshape(dA, q * q)
    O = np.ones((1, 1), dtype=np.complex128)  # O[beta, (a_1 b_1 .. a_j b_j)], j = 0
    for j in range(m):
        grown = np.zeros((math.comb(dA + j, j + 1), O.shape[1] * q * q), dtype=np.complex128)
        for mu, rows in enumerate(sym_index(_unions(dA, j, 1), dA).T):
            grown[rows] += (O[:, :, None] * wm[mu].conj()).reshape(len(O), -1)
        O = grown
    R = len(O)
    legs = O.reshape((R,) + (q,) * (2 * m))
    scale = multiset_factorials(sym_basis(dA, m).idx, dA) / math.factorial(m)
    classes = conjugacy_classes(m)
    P = np.empty((R, len(classes), R), dtype=np.complex128)
    for i, members in enumerate(classes.values()):
        axes = chain.from_iterable((1 + 2 * g, 2 + 2 * j) for j, g in enumerate(members[0].images))
        P[:, i] = (len(members) * scale)[:, None] * _orbit_contract(legs.transpose(0, *axes), wm, m)
    return tuple(classes), P


@lru_cache(maxsize=32)
def class_diagram_terms(n_a: int, k: int, n: int):
    """D x D Sym^k blocks of the capped diagram per conjugacy class of s t^-1
    (t-independent), gathered from the bundle's P.

    With alpha, beta k-digit and gamma n-digit multisets (the caps, n!/gamma!
    codes each) and orb the multiset of a union,

        r_c[alpha, beta] = coef_alpha coef_beta sum_gamma (n!/gamma!) (beta u gamma)!
                           P[orb(alpha u gamma), c, orb(beta u gamma)].
    """
    _check_size(n_a, k, (n,))
    order, P = _sagg_bundle(n_a, k + n)
    dA = 2**n_a
    rows, joint = sym_basis(dA, k), _unions(dA, k, n)
    orb = sym_index(joint, dA)
    col = (rows.coef[:, None] * multiset_factorials(joint, dA)
           * (math.factorial(n) // multiset_factorials(sym_basis(dA, n).idx, dA)))
    return {
        ct: rows.coef[:, None] * np.einsum("abg,bg->ab", P[orb[:, None], i, orb[None]], col)
        for i, ct in enumerate(order)
    }


def replica_moment(spec: ReplicaSpec) -> np.ndarray:
    """The D x D Sym^k block of rho^(k,n), normalized to unit trace.

    The class diagrams are Sym^k blocks, so their sum is one too; the trace,
    Hermitian and PSD checks act on it.
    """
    diagrams = class_diagram_terms(spec.n_a, spec.k, spec.n)
    ident = tuple([1] * spec.m)
    # off-diagonal classes first (fixed order), identity class last
    order = sorted((ct for ct in diagrams if ct != ident)) + [ident]
    raw = sum(_prefactor_of_type(ct, spec) * diagrams[ct] for ct in order)
    tr = np.trace(raw).real
    if tr <= 0:
        raise ReplicaError(f"replica sum numerically degenerate (trace {tr:.3e})")
    rho = raw / tr
    herm_defect = np.abs(rho - rho.conj().T).max()
    if herm_defect > 1e-9:
        raise ReplicaError(f"replica moment not Hermitian (defect {herm_defect:.2e})")
    block = (rho + rho.conj().T) / 2
    wmin = np.linalg.eigvalsh(block).min()
    if wmin < -1e-8:
        raise ReplicaError(f"replica moment not PSD (min eig {wmin:.2e})")
    return block


def deviation_series(spec: ReplicaSpec, n_max: int):
    """[(n, ||rho^(k,n) - rho_Haar^(k)||_1) for n = 0..n_max], taken in Sym^k."""
    if spec.k + n_max > MAX_DEGREE:
        raise ReplicaError("k + n_max above the replica cap")
    _check_size(spec.n_a, spec.k, range(n_max + 1))
    return [(n, sym_haar_distance(replica_moment(replace(spec, n=n))))
            for n in range(n_max + 1)]


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
    n, has none), when the RMS residual exceeds RESIDUAL_THRESHOLD, or when
    the estimate leaves float range (0.0 or inf).
    """
    ns = np.array([float(n) for n, _ in series])
    vals = np.array([v for _, v in series])
    check_fit_points(len(np.unique(ns)))
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
    B = S2 - np.polymul(S1, S1) / len(ns)
    # A has a zero at x = 1 and B a double one.  Dividing them out leaves A^2 / B
    # as it is and keeps a triple root at 1 out of Q, whose rounding would spread
    # it into the window; p(x) / (x - 1) is the running sum of p's coefficients
    A, B = np.cumsum(A)[:-1], np.cumsum(np.cumsum(B)[:-1])[:-1]
    Q = 2 * np.polymul(np.polyder(A), B) - np.polymul(A, np.polyder(B))
    dQ = np.polyder(Q)

    def polish(c):
        for _ in range(2):
            x = math.exp(-c)
            c += 2 * np.polyval(B, x) ** 2 * slope(c) / (x * x * np.polyval(A, x) * np.polyval(dQ, x))
        return c

    xs = np.roots(Q)
    xs = xs[xs.imag == 0].real
    xs = xs[(math.exp(-100) < xs) & (xs < math.exp(-1e-3))]
    roots = [polish(-math.log(x)) for x in xs[np.polyval(A, xs) * np.polyval(dQ, xs) < 0]]
    c = float(min(roots or np.geomspace(1e-3, 1e2, 51), key=sse))
    a, b, r = project(c)
    residual = float(np.sqrt(np.mean(r**2)))
    estimate = float(2.0 ** (a + b * np.exp(-c * target)))
    flagged = not roots or residual > RESIDUAL_THRESHOLD or not 0.0 < estimate < math.inf
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
