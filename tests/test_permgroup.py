from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeptherm.permgroup import (
    DegreeError,
    Permutation,
    _product_cycle_counts,
    character_table,
    class_size,
    conjugacy_classes,
    content_product,
    cycle_count,
    enumerate_sym,
    gram_matrix,
    irrep_dimension,
    partitions,
    skew_dimension,
    weingarten_table,
)


def test_enumerate_sizes_and_order():
    assert [p.images for p in enumerate_sym(1)] == [(0,)]
    assert [p.images for p in enumerate_sym(2)] == [(0, 1), (1, 0)]
    s3 = enumerate_sym(3)
    assert len(s3) == 6
    assert [p.images for p in s3] == sorted(p.images for p in s3)  # lexicographic
    assert all(sorted(p.images) == [0, 1, 2] for p in s3)


def test_enumerate_degree_bounds():
    with pytest.raises(DegreeError):
        enumerate_sym(0)
    with pytest.raises(DegreeError):
        enumerate_sym(9)


@given(st.permutations(list(range(5))))
def test_inverse_composition(images):
    p = Permutation(tuple(images))
    assert p.compose(p.inverse()) == Permutation(tuple(range(5)))
    assert p.inverse().compose(p) == Permutation(tuple(range(5)))


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
@settings(max_examples=40)
def test_composition_associative_with_third(im1, im2):
    p, q = Permutation(tuple(im1)), Permutation(tuple(im2))
    r = Permutation(tuple(reversed(range(4))))
    lhs = p.compose(q).compose(r)
    rhs = p.compose(q.compose(r))
    assert lhs == rhs


def test_cycle_count_examples():
    assert cycle_count(Permutation((0, 1, 2))) == 3
    assert cycle_count(Permutation((1, 0, 2))) == 2
    assert cycle_count(Permutation((1, 2, 0))) == 1


def test_cycle_count_product_bound():
    # nontrivial s t^-1 has strictly fewer cycles than the identity
    for m in (2, 3, 4):
        perms = enumerate_sym(m)
        for s in perms:
            for t in perms:
                if s != t:
                    assert cycle_count(s.compose(t.inverse())) <= m - 1


def test_product_cycle_count_table_matches_cycle_count():
    for m in (1, 2, 3, 4):
        perms = enumerate_sym(m)
        C = _product_cycle_counts(m)
        assert C.dtype == np.int8 and C.shape == (len(perms), len(perms))
        ref = [[cycle_count(p.compose(q.inverse())) for q in perms] for p in perms]
        assert np.array_equal(C, ref)


def test_gram_matrix_examples():
    assert np.array_equal(gram_matrix(1, 7), [[7.0]])
    assert np.array_equal(gram_matrix(2, 2), [[4.0, 2.0], [2.0, 4.0]])
    assert np.array_equal(gram_matrix(2, 4), [[16.0, 4.0], [4.0, 16.0]])
    G = gram_matrix(3, 8)
    assert np.array_equal(G, G.T)
    assert np.all(np.diag(G) == 8.0**3)


def test_weingarten_small_exact():
    t1 = weingarten_table(1, 5)
    assert t1.value(Permutation((0,))) == pytest.approx(1 / 5)
    t2 = weingarten_table(2, 4)
    assert t2.value_of_type((1, 1)) == pytest.approx(1 / 15)
    assert t2.value_of_type((2,)) == pytest.approx(-1 / 60)


@pytest.mark.parametrize("m,d", [(2, 4), (3, 8), (4, 4), (4, 16), (5, 16), (6, 16)])
def test_weingarten_orthogonality(m, d):
    G = gram_matrix(m, d)
    table = weingarten_table(m, d)
    perms = enumerate_sym(m)
    vals = [table.value(p) for p in perms]
    # sum_t Wg(p t^-1) d^{#(t s^-1)} = delta_{ps}; rows of Wg-matrix times G
    idx = {p.images: i for i, p in enumerate(perms)}
    W = np.empty_like(G)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            W[a, b] = vals[idx[p.compose(q.inverse()).images]]
    prod = W @ G
    assert np.abs(prod - np.eye(len(perms))).max() < 1e-10


def test_weingarten_class_function():
    table = weingarten_table(4, 8)
    for ct, members in conjugacy_classes(4).items():
        vals = [table.value(p) for p in members]
        assert max(vals) - min(vals) <= 1e-14 * max(1.0, abs(vals[0]))


def test_weingarten_singular_pseudo_inverse():
    table = weingarten_table(3, 2)
    assert table.pseudo
    G = gram_matrix(3, 2)
    perms = enumerate_sym(3)
    vals = [table.value(p) for p in perms]
    idx = {p.images: i for i, p in enumerate(perms)}
    W = np.empty_like(G)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            W[a, b] = vals[idx[p.compose(q.inverse()).images]]
    # generalized-inverse identities in the singular regime
    assert np.abs(G @ W @ G - G).max() < 1e-8
    assert np.abs(W @ G @ W - W).max() < 1e-10


def test_offdiagonal_suppression_in_dimension():
    # |Wg(nontrivial, 2^t)| <= c 2^-t |Wg(e, 2^t)| with c independent of t
    for m in (2, 3, 4):
        ratios = []
        for t in range(4, 11):
            table = weingarten_table(m, 2**t)
            wg_e = table.value_of_type(tuple([1] * m))
            worst = max(
                abs(table.value_of_type(ct)) for ct in table.class_values if ct != tuple([1] * m)
            )
            ratios.append(worst / abs(wg_e) * 2**t)
        assert max(ratios) < 4.0


def test_wg_asymptotic_ratio():
    # leading order Wg(p, d) ~ d^(#p - 2m)
    p_id = Permutation((0,))
    assert 16.0 ** (cycle_count(p_id) - 2) == pytest.approx(1 / 16)
    assert weingarten_table(1, 16).value(p_id) == pytest.approx(1 / 16)
    # m=2: asymptote 1/16 vs exact 1/15 at d=4 agrees to leading order
    e2 = Permutation((0, 1))
    assert 4.0 ** (cycle_count(e2) - 4) == pytest.approx(1 / 16)
    assert weingarten_table(2, 4).value(e2) == pytest.approx(1 / 15)
    # |Wg(swap,d)| / |Wg(e,d)| -> 1/d
    for t in (4, 6, 8):
        d = 2**t
        table = weingarten_table(2, d)
        ratio = abs(table.value_of_type((2,))) / table.value_of_type((1, 1))
        assert ratio == pytest.approx(1 / d, rel=2 / d)


def test_conjugacy_class_sizes():
    sizes = {ct: len(v) for ct, v in conjugacy_classes(4).items()}
    assert sizes == {(1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3, (3, 1): 8, (4,): 6}
    assert sum(sizes.values()) == math.factorial(4)


def test_partitions_are_the_cycle_types():
    for m in range(1, 7):
        assert set(partitions(m)) == set(conjugacy_classes(m))
        assert {mu: class_size(mu) for mu in partitions(m)} == {
            ct: len(members) for ct, members in conjugacy_classes(m).items()}
    assert [len(partitions(m)) for m in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


@lru_cache(maxsize=None)
def _border_strips(beads: frozenset, mu: tuple) -> int:
    """Murnaghan-Nakayama on the beta-set of a partition: removing a border strip
    of length r moves a bead from b down to a free b - r, with sign
    (-1)^(beads strictly between)."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beads:
        if b >= r and b - r not in beads:
            sign = -1 if sum(b - r < x < b for x in beads) % 2 else 1
            total += sign * _border_strips(beads - {b} | {b - r}, rest)
    return total


def character(lam: tuple, mu: tuple) -> int:
    """chi^lam on the class of cycle type mu, one entry at a time: the oracle of
    character_table, which strips whole columns."""
    return _border_strips(frozenset(p + len(lam) - 1 - i for i, p in enumerate(lam)), mu)


@pytest.mark.parametrize("m", range(1, 13))
def test_character_table_sanity(m):
    lams = partitions(m)
    ident = tuple([1] * m)
    # chi^lam(e) = f_lam, and the regular representation holds each irrep f_lam times
    assert all(character(lam, ident) == irrep_dimension(lam) for lam in lams)
    assert sum(irrep_dimension(lam) ** 2 for lam in lams) == math.factorial(m)
    # column orthogonality: sum_lam chi^lam(mu) chi^lam(nu) = delta_{mu nu} z_mu
    chi = np.array([[character(lam, mu) for mu in lams] for lam in lams], dtype=np.int64)
    z = [math.factorial(m) // class_size(mu) for mu in lams]
    assert np.array_equal(chi.T @ chi, np.diag(z))
    # the cached table, built a column at a time, holds the oracle's ints; the identity
    # class (1^m) is its last column
    table = character_table(m)
    assert table.partitions == lams
    assert np.array_equal(np.array(table.chi, dtype=np.int64), chi)
    assert table.dims == tuple(chi[:, -1]) == tuple(irrep_dimension(lam) for lam in lams)
    assert table.class_sizes == tuple(class_size(mu) for mu in lams)
    # P_lam(d) is the product of d + content over the cells, and sum_lam f_lam s_lam(1^d)
    # = sum_lam f_lam^2 P_lam(d) / m! = d^m, the dimension of (C^d)^(x)m (Schur-Weyl)
    for d in range(m + 2):
        assert [content_product(lam, d) for lam in lams] == [
            math.prod(d + j - i for i, row in enumerate(lam) for j in range(row)) for lam in lams]
        assert sum(irrep_dimension(lam) ** 2 * content_product(lam, d) for lam in lams) == math.factorial(m) * d**m
    # row orthogonality: sum_mu |c_mu| chi^lam(mu) chi^nu(mu) = m! delta_{lam nu}
    assert np.array_equal(chi @ np.diag(table.class_sizes) @ chi.T,
                          math.factorial(m) * np.eye(len(lams), dtype=np.int64))


@pytest.mark.parametrize("m", range(1, 11))
def test_skew_dimension_counts_standard_tableaux(m):
    # f^{lam/()} = f_lam, and splitting a standard tableau of lam at its entry k
    # gives sum over mu of k inside lam of f_mu f^{lam/mu} = f_lam
    for lam in partitions(m):
        assert skew_dimension(lam, ()) == irrep_dimension(lam)
        for k in range(1, m):
            assert sum(irrep_dimension(mu) * skew_dimension(lam, mu) for mu in partitions(k)
                       if len(mu) <= len(lam) and all(a <= b for a, b in zip(mu, lam))) == irrep_dimension(lam)
    # three disconnected cells fill in 3! ways; mu outside lam gives none
    assert skew_dimension((3, 2, 1), (2, 1)) == 6
    assert skew_dimension((2, 1), (1, 1, 1)) == skew_dimension((2,), (1, 1)) == 0


def test_characters_small_examples():
    # S_3: trivial, sign and the 2-dimensional standard representation
    assert [character((3,), mu) for mu in ((1, 1, 1), (2, 1), (3,))] == [1, 1, 1]
    assert [character((1, 1, 1), mu) for mu in ((1, 1, 1), (2, 1), (3,))] == [1, -1, 1]
    assert [character((2, 1), mu) for mu in ((1, 1, 1), (2, 1), (3,))] == [2, 0, -1]


def _weingarten_fraction_sum(m, d):
    """Wg(mu, d) as one exact Fraction per (lam, mu) term, summed, then rounded."""
    lams = partitions(m)
    eig = {lam: math.prod(d + j - i for i, row in enumerate(lam) for j in range(row)) for lam in lams}
    return {mu: float(sum(Fraction(irrep_dimension(lam) * character(lam, mu), math.factorial(m) * eig[lam])
                          for lam in lams if eig[lam]))
            for mu in lams}


@pytest.mark.parametrize("m", range(1, 9))
def test_weingarten_equals_per_term_fraction_sum(m):
    # the integer numerators over the lcm are the same rational, so every float is
    # the same, pseudo rows (d < m) included
    for d in (*range(1, 10), 16, 32):
        table = weingarten_table(m, d)
        assert table.class_values == _weingarten_fraction_sum(m, d), (m, d)


@pytest.mark.parametrize("m", range(1, 7))
def test_weingarten_matches_gram_inverse_oracle(m):
    # the Gram route: inv, or pinv when singular (d < m), read off the identity's row
    perms = enumerate_sym(m)
    for d in (2, 4, 8, 16, 32):
        G = gram_matrix(m, d)
        row = (np.linalg.pinv(G, rcond=1e-10) if d < m else np.linalg.inv(G))[0]
        ref = {p.cycle_type(): v for p, v in zip(perms, row)}
        table = weingarten_table(m, d)
        assert table.pseudo == (d < m)
        scale = max(abs(v) for v in ref.values())
        for ct, v in ref.items():
            assert abs(table.value_of_type(ct) - v) <= 1e-12 * scale, (m, d, ct)
        if d >= m:
            assert table.cond == pytest.approx(np.linalg.cond(G), rel=1e-12)


def test_weingarten_pseudo_exactly_when_singular():
    for m in range(1, 9):
        for d in range(1, 10):
            table = weingarten_table(m, d)
            assert table.pseudo == (d < m)
            if d < m:
                assert table.cond == math.inf
            else:
                assert 1 <= table.cond < math.inf
    with pytest.raises(ValueError):
        weingarten_table(2, 0)


@pytest.mark.parametrize("m", [7, 8])
@pytest.mark.parametrize("d", [8, 16])
def test_weingarten_sum_over_group(m, d):
    # sum_s Wg(s, d) = 1 / (d (d+1) ... (d+m-1)): the identity row of G^-1 against
    # the all-ones vector, which G maps to d (d+1) ... (d+m-1) times itself
    table = weingarten_table(m, d)
    total = sum(class_size(mu) * table.value_of_type(mu) for mu in partitions(m))
    assert total == pytest.approx(1 / math.prod(range(d, d + m)), rel=1e-12)
