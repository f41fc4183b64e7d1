"""Partitions, constrained permutations, and subgroup-counting combinatorics.

Partitions are tuples of weakly decreasing nonnegative ints; trailing zeros
are allowed on input but canonical forms strip them.  Permutations of [n] are
tuples of their images (one-line notation, values 1..n).

The constrained permutations enumerated here index the summands of the
subalgebra zeta function of the free class-2-nilpotent Lie ring on d
generators: each one records the interleaving ("overlap type") of the
elementary divisors of a subalgebra's projection to the abelianization with
those of its intersection with the centre.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .arith import LaurentPolynomial, poly_mul


# ---------------------------------------------------------------------------
# q-binomial machinery.  Polynomials in a single variable "u"; callers pass
# u = q^-1 images when substituting into larger arenas.

U = ("u",)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> LaurentPolynomial:
    """The Gaussian binomial coefficient binom(n, k)_u as a polynomial in u."""
    if k < 0 or k > n:
        return LaurentPolynomial.zero(U)
    if k == 0 or k == n:
        return LaurentPolynomial.one(U)
    # Pascal recursion: binom(n,k)_u = binom(n-1,k-1)_u + u^k binom(n-1,k)_u
    a = gaussian_binomial(n - 1, k - 1)
    b = gaussian_binomial(n - 1, k).shift((k,))
    return a + b


def gaussian_multinomial(n: int, subset) -> LaurentPolynomial:
    """binom(n, I)_u for I a subset of [n-1] = {1, ..., n-1}.

    Defined as the product of binom(i_{j+1}, i_j)_u over consecutive
    elements of I extended by i_max+... following the chain
    binom(n, i_r)_u binom(i_r, i_{r-1})_u ... binom(i_2, i_1)_u.
    """
    chain = sorted(subset)
    for i in chain:
        if not 0 < i < n:
            raise ValueError(f"subset element {i} outside 1..{n - 1}")
    out = LaurentPolynomial.one(U)
    for low, high in zip(chain, chain[1:] + [n]):
        out = poly_mul(out, gaussian_binomial(high, low))
    return out


# ---------------------------------------------------------------------------
# Partitions.


def conjugate_partition(lam):
    """The transposed Young diagram, as a tuple."""
    lam = tuple(x for x in lam if x)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= k) for k in range(1, lam[0] + 1))


def partitions_upto(length, total):
    """All partitions with at most `length` parts and sum <= total."""
    out = []

    def rec(prefix, remaining, bound):
        out.append(tuple(prefix))
        if len(prefix) == length:
            return
        for v in range(min(bound, remaining), 0, -1):
            prefix.append(v)
            rec(prefix, remaining - v, v)
            prefix.pop()

    rec([], total, total)
    return out


def ascent_set(sigma):
    return frozenset(i + 1 for i in range(len(sigma) - 1)
                     if sigma[i] < sigma[i + 1])


# ---------------------------------------------------------------------------
# Counting subgroups of finite abelian p-groups.


def alpha_count(lam, mu) -> LaurentPolynomial:
    """Number of subgroups of type mu in an abelian p-group of type lam.

    Returned as a polynomial in q with the classical product over the
    conjugate partitions; u stands for q^-1 in the binomial factors, so the
    result lives in the two-variable arena ("q", "u") with the understanding
    u = 1/q.  To keep a single-variable answer we expand in q directly:
    each binom(a, b)_{q^-1} is binom(a, b)_u evaluated with u-degree k
    contributing q^-k, and the q-power prefactor clears all denominators.

    The result is a genuine polynomial in q (nonnegative exponents).
    """
    lam = tuple(x for x in lam if x)
    mu = tuple(x for x in mu if x)
    lc = conjugate_partition(lam)
    mc = conjugate_partition(mu)
    if len(mc) > len(lc) or any(m > l for m, l in zip(mc, lc)):
        return LaurentPolynomial.zero(("q",))
    out = LaurentPolynomial.one(("q",))
    for k in range(1, len(lc) + 1):
        lk = lc[k - 1]
        mk = mc[k - 1] if k - 1 < len(mc) else 0
        mk1 = mc[k] if k < len(mc) else 0
        if mk < mk1 or lk < mk:
            return LaurentPolynomial.zero(("q",))
        binom = gaussian_binomial(lk - mk1, mk - mk1)
        # q^{mk (lk - mk)} * binom(...)_{q^-1}
        factor = LaurentPolynomial(
            ("q",), {(mk * (lk - mk) - e[0],): c for e, c in binom.terms.items()})
        out = poly_mul(out, factor)
    assert all(e[0] >= 0 for e in out.terms)
    return out


def mu_of_lambda(lam):
    """Elementary divisor types of the induced lattice in the centre.

    For a projection type lam with d parts, the centre quotient has type
    given by the multiset of pairwise sums lam_i + lam_j (i < j), sorted
    decreasingly.
    """
    lam = tuple(lam)
    sums = [lam[i] + lam[j] for i, j in combinations(range(len(lam)), 2)]
    return tuple(sorted(sums, reverse=True))


# ---------------------------------------------------------------------------
# Index bijection between pairwise sums and flat coordinates, and the
# companion integer tuples.


def index_b(d, i, j):
    """Position of the pair (i, j), i < j, within d' + [d'], 1-based.

    Pairs are ordered so that (1,2) -> d'+1, (1,3) -> d'+2, ...,
    (d-1,d) -> 2d'.
    """
    if not 1 <= i < j <= d:
        raise ValueError(f"need 1 <= i < j <= d, got ({i}, {j})")
    dprime = d * (d - 1) // 2
    return dprime + j - 1 + (i - 1) * (2 * d - 2 - i) // 2


def index_b_inv(d, value):
    """Inverse of index_b on d' + [d']; returns the pair (i, j)."""
    dprime = d * (d - 1) // 2
    if not dprime + 1 <= value <= 2 * dprime:
        raise ValueError(f"{value} outside d'+[d']")
    for i in range(1, d):
        for j in range(i + 1, d + 1):
            if index_b(d, i, j) == value:
                return (i, j)
    raise AssertionError


def corresponding_tuple(d, i):
    """The vector v_i in N_0^{d + d'} attached to index i in [2d'].

    For i <= d' (a centre coordinate), v_i has zeros in the first d + i - 1
    slots and ones after.  For i > d' with pair (j, k), v_i is
    (0^{j-1}, 1^{k-j}, 2^{d-k+1}, 0^{d'}).
    """
    dprime = d * (d - 1) // 2
    if 1 <= i <= dprime:
        return (0,) * (d + i - 1) + (1,) * (dprime - i + 1)
    j, k = index_b_inv(d, i)
    return (0,) * (j - 1) + (1,) * (k - j) + (2,) * (d - k + 1) + (0,) * dprime


# ---------------------------------------------------------------------------
# The family of admissible shuffles.


def admissible_shuffles(d, pairs):
    """The admissible shuffles whose values > d' come in the order `pairs`,
    in lexicographic order, by backtracking.

    Grows prefixes left to right, placing the values > d' in the given
    order and pruning on the prefix-balance condition and on condition (ii)
    restricted to the prefix so far.  The given order only narrows which
    value may come next; the prefixes of an admissible shuffle pass both
    prunings whatever the order, so each shuffle is found under the order
    of its own values > d', and S_d is the disjoint union of these families
    over all orders.  Trying the candidates in increasing value yields
    lexicographic order.
    """
    dprime = d * (d - 1) // 2
    n = 2 * dprime
    out = []

    def violates_runs(prefix):
        # check condition (ii) only for pairs ending at the last position
        j = len(prefix) - 1
        if prefix[j] > dprime:
            return False
        for i in range(j):
            if prefix[i] <= dprime and prefix[i] > prefix[j]:
                for k in range(i, j):
                    if prefix[k] <= prefix[k + 1]:
                        return True
        return False

    def rec(prefix, used, low, high):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            if v in used or (v > dprime and v != pairs[high]):
                continue
            nl, nh = low + (v <= dprime), high + (v > dprime)
            if nl > nh:
                continue
            prefix.append(v)
            used.add(v)
            if not violates_runs(prefix):
                rec(prefix, used, nl, nh)
            prefix.pop()
            used.remove(v)

    rec([], set(), 0, 0)
    return out


def dyck_of_sigma(d, sigma):
    """The balanced 0/1 word of a shuffle: 0 where the value exceeds d'."""
    dprime = d * (d - 1) // 2
    return tuple(0 if v > dprime else 1 for v in sigma)


def trivial_dyck_word(d):
    dprime = d * (d - 1) // 2
    return (0,) * dprime + (1,) * dprime


def j_set(d, sigma):
    """Values j in [d'-1] whose position precedes that of j + 1."""
    dprime = d * (d - 1) // 2
    pos = {v: i for i, v in enumerate(sigma)}
    return frozenset(j for j in range(1, dprime)
                     if pos[j] < pos[j + 1])


def lm_sigma(d, sigma):
    """Prefix counts along a shuffle: L_j big values seen, M_j small values."""
    dprime = d * (d - 1) // 2
    L = [0]
    M = [0]
    for v in sigma:
        L.append(L[-1] + (1 if v > dprime else 0))
        M.append(M[-1] + (1 if v <= dprime else 0))
    return L, M


def sigma_of_pair(d, lam, nu):
    """The shuffle recording how nu interleaves with the pairwise sums of lam.

    Builds the multiset of labelled values: label d' + position for parts of
    mu = pairwise sums of lam (ordered by index_b over pairs in the order
    matching mu's sorted presentation), label j for nu_j.  The word reads
    the labels in weakly decreasing value; ties broken by larger label
    first.
    """
    dprime = d * (d - 1) // 2
    if len(lam) != d or len(nu) != dprime:
        raise ValueError("need lam of length d and nu of length d'")
    entries = []
    for i, j in combinations(range(1, d + 1), 2):
        entries.append((lam[i - 1] + lam[j - 1], index_b(d, i, j)))
    for j in range(1, dprime + 1):
        entries.append((nu[j - 1], j))
    entries.sort(key=lambda t: (-t[0], -t[1]))
    return tuple(label for _, label in entries)


def omega_of_pair(d, lam, nu):
    """The variation pair (I, sigma) of a partition pair.

    I collects the strict descents of lam within [d-1]; sigma is
    sigma_of_pair.  Defined whenever nu fits under the pairwise sums.
    """
    lam = tuple(lam) + (0,)
    I = frozenset(i for i in range(1, d) if lam[i - 1] > lam[i])
    return I, sigma_of_pair(d, lam[:d], nu)
