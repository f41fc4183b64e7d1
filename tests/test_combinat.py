"""Tests for partitions, subgroup counts, and admissible shuffles."""

from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from nilzeta.arith import LaurentPolynomial
from nilzeta.combinat import (
    admissible_shuffles,
    alpha_count,
    ascent_set,
    conjugate_partition,
    corresponding_tuple,
    dyck_of_sigma,
    gaussian_binomial,
    gaussian_multinomial,
    index_b,
    index_b_inv,
    j_set,
    lm_sigma,
    mu_of_lambda,
    omega_of_pair,
    partitions_upto,
    sigma_of_pair,
    trivial_dyck_word,
)
from reference_impls import (
    alpha_alt,
    coordinates_of_pair,
    coxeter_length,
    descent_set,
    enumerate_script_S,
    is_admissible_shuffle,
    lm_profile,
    pair_from_coordinates,
)


def qpoly_value(p, q):
    """Evaluate a polynomial in the single variable of its arena."""
    return p.evaluate((Fraction(q),))


def test_gaussian_binomial_small():
    # binom(4, 2)_u = 1 + u + 2u^2 + u^3 + u^4
    p = gaussian_binomial(4, 2)
    assert p == LaurentPolynomial(("u",), {(0,): 1, (1,): 1, (2,): 2, (3,): 1, (4,): 1})
    assert qpoly_value(gaussian_binomial(5, 2), 1) == 10


def test_gaussian_binomial_symmetry():
    for n in range(7):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_gaussian_multinomial_chain():
    # binom(n, I)_u at u=1 counts chains of subsets with sizes I
    from math import comb
    assert qpoly_value(gaussian_multinomial(4, {1, 3}), 1) == comb(4, 3) * comb(3, 1)
    assert gaussian_multinomial(4, set()).is_one()
    # binom(3, {1,2})_u = binom(3,2)_u binom(2,1)_u
    from nilzeta.arith import poly_mul
    assert gaussian_multinomial(3, {1, 2}) == poly_mul(
        gaussian_binomial(3, 2), gaussian_binomial(2, 1))


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition(conjugate_partition((5, 5, 2))) == (5, 5, 2)
    assert conjugate_partition(()) == ()


def test_partitions_upto():
    ps = partitions_upto(2, 3)
    assert set(ps) == {(), (1,), (2,), (3,), (1, 1), (2, 1)}
    assert len(ps) == len(set(ps))
    assert all(all(a >= b for a, b in zip(p, p[1:])) and all(a >= 0 for a in p)
               for p in ps)


def test_descents_and_length():
    assert descent_set((4, 5, 1, 6, 3, 2)) == frozenset({2, 4, 5})
    assert ascent_set((4, 5, 1, 6, 3, 2)) == frozenset({1, 3})
    assert coxeter_length((2, 1)) == 1
    assert coxeter_length((1, 2, 3)) == 0


# --- subgroup counting ------------------------------------------------------

def abelian_subgroup_types(p, lam):
    """Brute-force multiset of subgroup types of the p-group of type lam.

    Enumerates all subgroups as closures of generating sets of size at most
    len(lam), identifies each by its element set, and reads off the type from
    the order statistics (# elements of order dividing p^k is p^{sum min(mu_i, k)}).
    """
    mods = [p ** a for a in lam]
    elems = list(product(*[range(m) for m in mods]))

    def close(gens):
        seen = {tuple(0 for _ in mods)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = tuple((a + b) % m for a, b, m in zip(x, g, mods))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    subgroups = {close([])}
    frontier = set(subgroups)
    while frontier:
        nxt = set()
        for H in frontier:
            for g in elems:
                if g not in H:
                    H2 = close(list(H) + [g])
                    if H2 not in subgroups:
                        subgroups.add(H2)
                        nxt.add(H2)
        frontier = nxt

    def type_of(H):
        # #(elements of order dividing p^k) = p^{sum_i min(mu_i, k)}, so the
        # successive log_p increments give the conjugate partition of mu.
        conj = []
        prev_e = 0
        k = 1
        count = 1
        while count < len(H):
            count = sum(1 for x in H
                        if all((x[i] * p ** k) % mods[i] == 0
                               for i in range(len(mods))))
            e = 0
            while p ** e < count:
                e += 1
            conj.append(e - prev_e)
            prev_e = e
            k += 1
        return conjugate_partition(tuple(conj))

    types = {}
    for H in subgroups:
        t = type_of(H)
        types[t] = types.get(t, 0) + 1
    return types


@pytest.mark.parametrize("p,lam", [(2, (1, 1)), (2, (2, 1)), (3, (1, 1)), (2, (2, 2))])
def test_alpha_count_vs_brute_force(p, lam):
    brute = abelian_subgroup_types(p, lam)
    seen_total = 0
    for mu in partitions_upto(len(lam), sum(lam)):
        mu_f = tuple(x for x in mu if x)
        val = qpoly_value(alpha_count(lam, mu), p)
        if mu_f in brute:
            assert val == brute[mu_f], (lam, mu_f)
            seen_total += 1
        else:
            assert val == 0 or not all(m <= l for m, l in zip(mu_f, lam))
    assert seen_total == len(brute)


def test_alpha_count_equals_alt_exhaustive():
    # both closed forms agree for all lam, mu with <= 4 parts of size <= 4
    lams = [p for p in partitions_upto(4, 16) if all(x <= 4 for x in p)]
    for lam in lams:
        for mu in lams:
            if len(mu) > len(lam):
                continue
            a = alpha_count(lam, mu)
            b = alpha_alt(lam, tuple(mu) + (0,) * (len(lam) - len(mu)))
            assert a == b, (lam, mu)


def test_alpha_alt_worked_example():
    # merged list for lam=(4,2,1), mu=(3,2,0) is (4,3,2,2,1,0) with prefix
    # counts L=(0,1,1,2,2,3,3), M=(0,0,1,2,2,2,3)
    L, M = lm_profile((4, 2, 1), (3, 2, 0))
    assert L == [0, 1, 1, 2, 2, 3, 3]
    assert M == [0, 0, 1, 2, 2, 2, 3]
    assert alpha_alt((4, 2, 1), (3, 2, 0)) == alpha_count((4, 2, 1), (3, 2))


def test_mu_of_lambda():
    assert mu_of_lambda((5, 4, 1)) == (9, 6, 5)
    assert mu_of_lambda((1, 1)) == (2,)
    assert mu_of_lambda((3, 2, 2, 1)) == (5, 5, 4, 4, 3, 3)


def test_index_b_examples():
    assert index_b(4, 1, 2) == 7
    assert index_b(4, 2, 3) == 10
    assert index_b(4, 3, 4) == 12
    # bijection onto d' + [d']
    for d in (2, 3, 4, 5):
        dp = d * (d - 1) // 2
        values = [index_b(d, i, j) for i, j in combinations(range(1, d + 1), 2)]
        assert sorted(values) == list(range(dp + 1, 2 * dp + 1))
        for v in values:
            i, j = index_b_inv(d, v)
            assert index_b(d, i, j) == v


def test_corresponding_tuple_examples():
    assert corresponding_tuple(3, 4) == (1, 2, 2, 0, 0, 0)
    assert corresponding_tuple(3, 5) == (1, 1, 2, 0, 0, 0)
    assert corresponding_tuple(3, 1) == (0, 0, 0, 1, 1, 1)
    assert corresponding_tuple(3, 3) == (0, 0, 0, 0, 0, 1)
    assert corresponding_tuple(2, 1) == (0, 0, 1)
    assert corresponding_tuple(2, 2) == (1, 2, 0)


def test_admissible_shuffles_membership():
    assert is_admissible_shuffle(3, (4, 5, 1, 6, 3, 2))
    assert not is_admissible_shuffle(3, (1, 2, 3, 4, 5, 6))
    assert not is_admissible_shuffle(3, (6, 5, 3, 4, 2, 1))
    assert enumerate_script_S(2) == [(2, 1)]


def test_enumerate_matches_filter_d3():
    brute = sorted(p for p in permutations(range(1, 7))
                   if is_admissible_shuffle(3, p))
    assert sorted(enumerate_script_S(3)) == brute
    assert len(brute) > 0


def test_admissible_shuffles_follow_the_given_order():
    orders = [(3, p) for p in permutations(range(4, 7))] + \
        [(2, (2,)), (4, (7, 8, 10, 9, 11, 12))]
    for d, pairs in orders:
        dprime = d * (d - 1) // 2
        out = admissible_shuffles(d, pairs)
        assert out and out == sorted(set(out)), (d, pairs)
        assert all(tuple(v for v in s if v > dprime) == pairs
                   for s in out), (d, pairs)


def test_dyck_and_jset():
    sigma = (4, 5, 1, 6, 3, 2)
    assert dyck_of_sigma(3, sigma) == (0, 0, 1, 0, 1, 1)
    assert trivial_dyck_word(3) == (0, 0, 0, 1, 1, 1)
    assert j_set(3, sigma) == frozenset({1})
    # every admissible word is balanced with prefixes favouring zeros
    for sigma in enumerate_script_S(3):
        w = dyck_of_sigma(3, sigma)
        bal = 0
        for c in w:
            bal += 1 if c == 0 else -1
            assert bal >= 0
        assert bal == 0


def test_lm_sigma_example():
    L, M = lm_sigma(3, (4, 5, 1, 6, 2, 3))
    assert (L[3], M[3]) == (2, 1)


def test_sigma_of_pair_example():
    assert sigma_of_pair(3, (5, 4, 1), (6, 2, 2)) == (4, 5, 1, 6, 3, 2)


def test_sigma_of_pair_admissible_iff_dominated():
    # the shuffle of (lam, nu) is admissible exactly when nu fits under the
    # pairwise-sum partition of lam
    d = 3
    for lam in partitions_upto(d, 5):
        lam_full = tuple(lam) + (0,) * (d - len(lam))
        mu = mu_of_lambda(lam_full)
        for nu in partitions_upto(3, 6):
            nu_full = tuple(nu) + (0,) * (3 - len(nu))
            sigma = sigma_of_pair(d, lam_full, nu_full)
            dominated = all(n <= m for n, m in zip(nu_full, mu))
            assert is_admissible_shuffle(d, sigma) == dominated, (lam, nu)


def test_coordinates_roundtrip():
    d = 3
    lam = (5, 4, 1)
    nu = (6, 2, 2)
    r, s = coordinates_of_pair(d, lam, nu)
    assert r == (1, 3, 1)
    assert s == (4, 0, 2)
    assert pair_from_coordinates(d, r, s) == (lam, nu)


def test_omega_of_pair():
    I, sigma = omega_of_pair(3, (5, 4, 1), (6, 2, 2))
    assert I == frozenset({1, 2})
    assert sigma == (4, 5, 1, 6, 3, 2)


@given(st.lists(st.integers(0, 4), min_size=0, max_size=4))
@settings(max_examples=50, deadline=None)
def test_conjugate_involution(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert conjugate_partition(conjugate_partition(lam)) == \
        tuple(x for x in lam if x)
