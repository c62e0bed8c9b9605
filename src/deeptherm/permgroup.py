"""Symmetric group enumeration, cycle structure and Weingarten tables.

Weingarten values come in closed form from the characters of S_m (Collins &
Sniady, CMP 264, 2006): chi^lam by the Murnaghan-Nakayama rule, a whole table
at a time, f_lam by the hook-length formula and s_lam(1^d) by the hook-content
formula, as integer numerators over one denominator per table.  They are the
row of the inverse of the Gram matrix G[s,t] = d^{#(s t^-1)} of vectorized
permutation operators.  For d < m that matrix is singular (the states are
linearly dependent) and the values are its Moore-Penrose row instead; this
keeps the unitary-group integration formula exact, at the price of the plain
orthogonality identity Wg*G = I, which only holds in the invertible regime.
`gram_matrix` itself is kept as the oracle the tests check the values against.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

MAX_DEGREE = 14  # largest m of the replica sums and the Weingarten tables (135 classes at m = 14)
MAX_ENUM_DEGREE = 8  # factorial growth: enumerate_sym lists m! = 40320 permutations at m = 8


class DegreeError(ValueError):
    pass


class WeingartenConditioningError(ValueError):
    """Gram matrix singular (d < m); carries its condition number, inf."""

    def __init__(self, m, d, cond):
        self.m, self.d, self.cond = m, d, cond
        super().__init__(
            f"Gram matrix for S_{m} at d={d} is singular (d < m); pass "
            f"--allow-singular to use the pseudo-inverse Weingarten values"
        )


@dataclass(frozen=True)
class Permutation:
    """Element of S_m in one-line form: images[i] is the image of i."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on 0..{len(self.images)-1}: {self.images}")

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (p.compose(q))(i) = p(q(i))."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def cycles(self):
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Cycle lengths, longest first (conjugacy-class label)."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))


def enumerate_sym(m: int) -> list:
    """All m! elements of S_m in lexicographic order of one-line form."""
    if not 1 <= m <= MAX_ENUM_DEGREE:
        raise DegreeError(f"degree {m} outside supported range 1..{MAX_ENUM_DEGREE}")
    return [Permutation(p) for p in itertools.permutations(range(m))]


def cycle_count(p: Permutation) -> int:
    """Number of disjoint cycles, fixed points included."""
    return len(p.cycles())


def conjugacy_classes(m: int) -> dict:
    """Map cycle type -> list of permutations of that type."""
    out: dict = {}
    for p in enumerate_sym(m):
        out.setdefault(p.cycle_type(), []).append(p)
    return out


_CYCLE_BLOCK = 256  # rows of the table composed at once; bounds the (block, m!, m) arrays


@lru_cache(maxsize=32)
def _product_cycle_counts(m: int) -> np.ndarray:
    """C[a, b] = #cycles(p_a p_b^{-1}) over the lexicographic enumeration.

    Each cycle has one smallest element: following every position m-1 steps
    along the composed permutation and keeping the running minimum, the
    positions that are their own minimum count the cycles.
    """
    perms = np.array([p.images for p in enumerate_sym(m)], dtype=np.int8)
    inv = np.argsort(perms, axis=1)
    pos = np.arange(m, dtype=np.int8)
    C = np.empty((len(perms), len(perms)), dtype=np.int8)
    for lo in range(0, len(perms), _CYCLE_BLOCK):
        comp = perms[lo : lo + _CYCLE_BLOCK, inv]  # comp[a, b, i] = p_a(p_b^{-1}(i))
        low = np.broadcast_to(pos, comp.shape)
        walk = low
        for _ in range(m - 1):
            walk = np.take_along_axis(comp, walk, axis=-1)
            low = np.minimum(low, walk)
        C[lo : lo + _CYCLE_BLOCK] = (low == pos).sum(axis=-1)
    return C


def gram_matrix(m: int, d: int) -> np.ndarray:
    """G[s,t] = d^{#(s t^-1)}; symmetric, diagonal d^m.

    The oracle the Weingarten values are tested against; no production path
    builds it.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.power(float(d), _product_cycle_counts(m), dtype=np.float64)


@dataclass(frozen=True)
class WeingartenTable:
    """Wg(., d) on S_m, stored per conjugacy class (Wg is a class function)."""

    m: int
    d: int
    class_values: dict  # cycle type -> float, numerators[mu] / den correctly rounded
    numerators: dict    # cycle type -> int
    den: int
    pseudo: bool        # True when d < m: the Moore-Penrose values of a singular Gram matrix
    cond: float         # Gram condition number, inf when pseudo

    def value(self, p: Permutation) -> float:
        return self.class_values[p.cycle_type()]

    def value_of_type(self, cycle_type: tuple) -> float:
        return self.class_values[cycle_type]


@lru_cache(maxsize=None)
def partitions(m: int) -> tuple:
    """Partitions of m as descending tuples (the cycle types of S_m), largest first."""

    def below(n, top):
        if n == 0:
            yield ()
        for part in range(min(n, top), 0, -1):
            for rest in below(n - part, part):
                yield (part,) + rest

    return tuple(below(m, m))


@lru_cache(maxsize=None)
def _cells(lam: tuple) -> tuple:
    """(hook length, content) of every cell of the Young diagram of lam."""
    cols = [sum(row > j for row in lam) for j in range(lam[0])]
    return tuple((lam[i] - j + cols[j] - i - 1, j - i) for i in range(len(lam)) for j in range(lam[i]))


def class_size(mu: tuple) -> int:
    """|c| = m! / z_mu, the number of permutations of cycle type mu, with
    z_mu = prod_i i^{a_i} a_i! over the multiplicities a_i of mu."""
    z = math.prod(i ** mu.count(i) * math.factorial(mu.count(i)) for i in set(mu))
    return math.factorial(sum(mu)) // z


@lru_cache(maxsize=None)
def irrep_dimension(lam: tuple) -> int:
    """f_lam = m! / prod(hook lengths), the dimension of the S_m irrep lam."""
    return math.factorial(sum(lam)) // math.prod(h for h, _ in _cells(lam))


@lru_cache(maxsize=None)
def skew_dimension(lam: tuple, mu: tuple) -> int:
    """f^{lam/mu}, the number of standard tableaux of the skew shape lam/mu (0 unless
    mu is inside lam): the largest entry sits in an outer corner of lam outside mu."""
    if lam == mu:
        return 1
    inner = mu + (0,) * (len(lam) - len(mu))
    return sum(skew_dimension(lam[:i] + (row - 1,) * (row > 1) + lam[i + 1:], mu)
               for i, row in enumerate(lam) if row > inner[i] and (i + 1 == len(lam) or lam[i + 1] < row))


def content_product(lam: tuple, d: int) -> int:
    """P_lam(d) = prod over the cells of lam of (d + content) = m! s_lam(1^d) / f_lam by
    the hook-content formula; 0 when lam has more than d rows."""
    return math.prod(d + c for _, c in _cells(lam))


@lru_cache(maxsize=None)
def _strips(lam: tuple, r: int) -> tuple:
    """(sign, lam less the strip) per border strip of length r in lam: on the beta-set
    of lam a bead moves from b down to a free b - r, with sign (-1)^(beads strictly between)."""
    beads = {p + len(lam) - 1 - i for i, p in enumerate(lam)}
    out = []
    for b in beads:
        if b >= r and b - r not in beads:
            parts = (x - i for i, x in enumerate(sorted(beads - {b} | {b - r})))
            out.append(((-1) ** sum(b - r < x < b for x in beads), tuple(p for p in parts if p)[::-1]))
    return tuple(out)


class CharacterTable(NamedTuple):
    """The characters of S_m with what the Weingarten and isotypic sums read."""
    partitions: tuple  # partitions(m): the irreps lam, and in the same order the classes mu
    dims: tuple        # f_lam
    class_sizes: tuple  # |c_mu|
    chi: tuple         # chi[i][j] = chi^lam_i(mu_j)


@lru_cache(maxsize=None)
def character_table(m: int) -> CharacterTable:
    """The CharacterTable of S_m, built once per m a column at a time: chi^lam(mu) sums, signed,
    over the border strips of length mu_1 in lam (_strips), S_{m - mu_1}'s column of mu less mu_1."""
    lams = partitions(m)
    cols = []
    for mu in lams:
        below = {(): 1}  # S_0's table, when mu is one cycle
        if len(mu) > 1:
            lower = character_table(m - mu[0])
            j = lower.partitions.index(mu[1:])
            below = {nu: row[j] for nu, row in zip(lower.partitions, lower.chi)}
        cols.append([sum(sign * below[nu] for sign, nu in _strips(lam, mu[0])) for lam in lams])
    return CharacterTable(lams, tuple(map(irrep_dimension, lams)), tuple(map(class_size, lams)),
                          tuple(zip(*cols)))


@lru_cache(maxsize=64)
def _weingarten_cached(m: int, d: int):
    """Wg(mu, d) = sum over lam with at most d rows of f_lam^2 chi^lam(mu) / (m!^2 s_lam(1^d)).

    By the hook-content formula f_lam / s_lam(1^d) = m! / P(d) with P(d) the
    product over cells of (d + content), so each term is f_lam chi^lam(mu) /
    (m! P(d)): an integer numerator over m! L, L the lcm of the P(d), and one
    correctly rounded division per class.  The P(d) are the Gram eigenvalues;
    they vanish exactly for the lam with more than d rows, and dropping those
    terms gives the Moore-Penrose row (Collins & Matsumoto, ALEA 14, 2017).
    """
    table = character_table(m)
    eig = [content_product(lam, d) for lam in table.partitions]
    L = math.lcm(*(e for e in eig if e))
    terms = [(f * (L // e), row) for f, e, row in zip(table.dims, eig, table.chi) if e]
    pseudo = d < m
    cond = math.inf if pseudo else max(eig) / min(eig)
    den = math.factorial(m) * L
    nums = {mu: sum(s * row[j] for s, row in terms) for j, mu in enumerate(table.partitions)}
    return WeingartenTable(m, d, {mu: x / den for mu, x in nums.items()}, nums, den, pseudo, cond)


def weingarten_table(m: int, d: int) -> WeingartenTable:
    """Weingarten table for S_m at dimension d; pseudo-inverse values (table.pseudo) when d < m."""
    if not 1 <= m <= MAX_DEGREE:
        raise DegreeError(f"degree {m} outside supported range 1..{MAX_DEGREE}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _weingarten_cached(m, d)

