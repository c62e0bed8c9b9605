"""Symmetric group enumeration, cycle structure and Weingarten tables.

Weingarten values are obtained numerically by inverting the Gram matrix
G[s,t] = d^{#(s t^-1)} of vectorized permutation operators.  For d < m the
Gram matrix is singular (the states are linearly dependent) and the
pseudo-inverse is used instead; this keeps the unitary-group integration
formula exact, at the price of the plain orthogonality identity Wg*G = I,
which only holds in the invertible regime.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DEGREE = 8  # factorial growth; m! = 40320 already stretches dense inversion


class DegreeError(ValueError):
    pass


class WeingartenConditioningError(ValueError):
    """Gram matrix singular or ill-conditioned; carries the condition estimate."""

    def __init__(self, m, d, cond):
        self.m, self.d, self.cond = m, d, cond
        super().__init__(
            f"Gram matrix for S_{m} at d={d} is singular/ill-conditioned "
            f"(cond ~ {cond:.3e}); pass on_singular='pseudo' to use the "
            f"pseudo-inverse Weingarten values"
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

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.images))

    @staticmethod
    def identity(m):
        return Permutation(tuple(range(m)))


def enumerate_sym(m: int) -> list:
    """All m! elements of S_m in lexicographic order of one-line form."""
    if not 1 <= m <= MAX_DEGREE:
        raise DegreeError(f"degree {m} outside supported range 1..{MAX_DEGREE}")
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
    """G[s,t] = d^{#(s t^-1)}; symmetric, diagonal d^m."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.power(float(d), _product_cycle_counts(m), dtype=np.float64)


@dataclass(frozen=True)
class WeingartenTable:
    """Wg(., d) on S_m, stored per conjugacy class (Wg is a class function)."""

    m: int
    d: int
    class_values: dict  # cycle type -> float
    pseudo: bool        # True when the Gram matrix was pseudo-inverted
    cond: float

    def value(self, p: Permutation) -> float:
        return self.class_values[p.cycle_type()]

    def value_of_type(self, cycle_type: tuple) -> float:
        return self.class_values[cycle_type]

    def as_array(self) -> np.ndarray:
        """Values over the lexicographic enumeration of S_m."""
        return np.array([self.value(p) for p in enumerate_sym(self.m)])


_COND_LIMIT = 1e12


@lru_cache(maxsize=64)
def _weingarten_cached(m: int, d: int, on_singular: str):
    G = gram_matrix(m, d)
    cond = np.linalg.cond(G)
    pseudo = not (cond < _COND_LIMIT)
    if pseudo:
        if on_singular == "error":
            raise WeingartenConditioningError(m, d, cond)
        Ginv = np.linalg.pinv(G, rcond=1e-10)
    else:
        Ginv = np.linalg.inv(G)
    row = Ginv[0]  # Wg(p) = (G^-1)[identity, p]; identity is rank 0 lexicographically
    perms = enumerate_sym(m)
    class_values: dict = {}
    for p, v in zip(perms, row):
        ct = p.cycle_type()
        if ct in class_values:
            # class-function invariant; inversion noise stays near machine precision
            if abs(class_values[ct] - v) > 1e-12 * max(1.0, abs(v)):
                raise AssertionError(f"Weingarten not constant on class {ct}")
        else:
            class_values[ct] = float(v)
    return WeingartenTable(m=m, d=d, class_values=class_values, pseudo=pseudo, cond=float(cond))


def weingarten_table(m: int, d: int, on_singular: str = "error") -> WeingartenTable:
    """Weingarten table for S_m at dimension d.

    on_singular: "error" raises WeingartenConditioningError when the Gram
    matrix is singular (d < m); "pseudo" falls back to the pseudo-inverse.
    """
    if not 1 <= m <= MAX_DEGREE:
        raise DegreeError(f"degree {m} outside supported range 1..{MAX_DEGREE}")
    if on_singular not in ("error", "pseudo"):
        raise ValueError("on_singular must be 'error' or 'pseudo'")
    return _weingarten_cached(m, d, on_singular)


def wg_asymptotic_ratio(p: Permutation, d: int) -> float:
    """Leading-order d^{#(p) - 2m} asymptote of Wg(p, d); diagnostics only."""
    m = p.degree
    return float(d) ** (cycle_count(p) - 2 * m)
