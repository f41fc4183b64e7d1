"""Subalgebra zeta functions of the free class-2-nilpotent Lie rings.

The Lie ring on d generators has Z-rank D = d + d' with d' = d(d-1)/2.
Its local subalgebra zeta function is assembled as a finite sum over pairs
(I, sigma) -- a subset of [d-1] recording which elementary-divisor jumps of
the abelianization are strict, and an admissible shuffle recording how the
centre's divisors interleave with the pairwise sums.  Each pair contributes
a product of Gaussian binomials and the generating function of a polyhedral
region, pushed into the (q, t) arena by a monomial substitution.

Specializations: the reduced zeta function is the q -> 1 limit computed
summand-wise in t alone; the topological zeta function keeps only the
top-dimensional simplicial pieces and lives in a single variable s.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .arith import (
    FactoredRationalFunction,
    LaurentPolynomial,
    LinearFactoredFunction,
    lff_sum,
    poly_div_binomial,
    poly_mul,
    rf_equal,
    rf_invert_vars,
    rf_normalize,
    rf_sum_common,
)
from .combinat import (
    ascent_set,
    corresponding_tuple,
    descent_set,
    dyck_of_sigma,
    enumerate_script_S,
    gaussian_binomial,
    gaussian_multinomial,
    j_set,
    lm_sigma,
    trivial_dyck_word,
)
from .cones import DiophantineMonoid, decompose_region_by_face, feasible

QT = ("q", "t")
T = ("t",)


def _dprime(d):
    return d * (d - 1) // 2


# ---------------------------------------------------------------------------
# The linear system attached to a shuffle.


def r_set(d, sigma):
    """Positions i in [2d'-1] where sigma(i) or sigma(i+1) is a pair index."""
    dp = _dprime(d)
    return [i for i in range(1, 2 * dp)
            if sigma[i - 1] > dp or sigma[i] > dp]


def phi_sigma(d, sigma):
    """The defining matrix of the solution monoid of a shuffle.

    One row per position in r_set: the difference of the integer tuples of
    consecutive shuffle values in the first d + d' columns, and -1 in the
    slack column matching the row's rank (rows in increasing position
    order).
    """
    dp = _dprime(d)
    R = r_set(d, sigma)
    m = d + dp + len(R)
    v = [corresponding_tuple(d, x) for x in sigma] + [(0,) * (d + dp)]
    rows = []
    for pos, i in enumerate(R):
        w = [v[i - 1][j] - v[i][j] for j in range(d + dp)]
        slack = [0] * len(R)
        slack[pos] = -1
        rows.append(tuple(w + slack))
    return rows


class SigmaContext:
    """Everything reusable across subsets I for a fixed shuffle sigma."""

    def __init__(self, d, sigma):
        self.d = d
        self.dp = _dprime(d)
        self.sigma = tuple(sigma)
        self.R = r_set(d, sigma)
        self.r = len(self.R)
        self.m = d + self.dp + self.r
        self.phi = phi_sigma(d, sigma)
        self.monoid = DiophantineMonoid(self.m, self.phi)
        self.asc = ascent_set(sigma)
        self.des = descent_set(sigma)
        self.J = j_set(d, sigma)
        self.dyck = dyck_of_sigma(d, sigma)
        self.L, self.M = lm_sigma(d, sigma)
        self._binom_chain = None
        self._qt_exponents = None

    def binom_chain(self):
        """Product of the interval Gaussian binomials along the ascents."""
        if self._binom_chain is None:
            chain = sorted(set(self.asc) | {0, 2 * self.dp})
            out = LaurentPolynomial.one(("u",))
            L, M = self.L, self.M
            for lo, hi in zip(chain, chain[1:]):
                out = poly_mul(out, gaussian_binomial(L[hi] - M[lo],
                                                      M[hi] - M[lo]))
            self._binom_chain = out
        return self._binom_chain

    def qt_exponents(self):
        """Per-coordinate (q-exponent, t-exponent) of the numerical map.

        Coordinate i in [d] maps to q^(a) t^i, coordinate d+j to q^(a) t^j,
        slack coordinates to 1.
        """
        if self._qt_exponents is None:
            d, dp = self.d, self.dp
            v = [corresponding_tuple(d, x) for x in self.sigma] \
                + [(0,) * (d + dp)]
            L, M = self.L, self.M
            weights = [M[k] * (L[k] - M[k]) for k in range(2 * dp + 1)]
            out = []
            for c in range(d + dp):
                a = sum(weights[k] * (v[k - 1][c] - v[k][c])
                        for k in range(1, 2 * dp + 1))
                if c < d:
                    i = c + 1
                    a += i * (d - i)
                    b = i
                else:
                    j = c - d + 1
                    a += j * d
                    b = j
                assert a >= 0 and b > 0
                out.append((a, b))
            out.extend([(0, 0)] * self.r)
            self._qt_exponents = out
        return self._qt_exponents


_sigma_cache = {}


def sigma_context(d, sigma):
    key = (d, tuple(sigma))
    if key not in _sigma_cache:
        _sigma_cache[key] = SigmaContext(d, sigma)
    return _sigma_cache[key]


# ---------------------------------------------------------------------------
# Pairs (I, sigma).


@dataclass(frozen=True)
class WPair:
    d: int
    I: frozenset
    sigma: tuple

    @property
    def context(self):
        return sigma_context(self.d, self.sigma)

    def region_sets(self):
        """(A, C) as 0-based coordinate sets of the monoid of sigma."""
        ctx = self.context
        d, dp = ctx.d, ctx.dp
        asc_slacks = {d + dp + k + 1 for k, i in enumerate(ctx.R)
                      if i in ctx.asc}
        A = set(self.I) | {d + j for j in ctx.J} | asc_slacks
        C = set(self.I) | {d + j for j in ctx.J} | {d, d + dp} \
            | {d + dp + k + 1 for k in range(ctx.r)}
        return (frozenset(x - 1 for x in A), frozenset(x - 1 for x in C))


def wd_contains(d, I, sigma):
    """Membership test for the admissible pair family.

    Decides by exact rational feasibility whether the sign pattern of I is
    compatible with the order constraints of sigma on the pairwise-sum
    coordinates; strict inequalities become >= 1 by homogeneity.  The
    answer depends on sigma only through the relative order of its
    pairwise-sum values, so it is memoized on that subsequence.
    """
    dp = _dprime(d)
    key = (d, frozenset(I), tuple(x for x in sigma if x > dp))
    cached = _wd_cache.get(key)
    if cached is not None:
        return cached
    result = _wd_feasible(d, key[1], sigma)
    _wd_cache[key] = result
    return result


_wd_cache = {}


def _wd_feasible(d, I, sigma):
    dp = _dprime(d)
    I = set(I)
    ineqs = []
    zero = [0] * d

    def unit(i, c=1):
        row = list(zero)
        row[i - 1] = c
        return tuple(row)

    for i in range(1, d + 1):
        ineqs.append((unit(i), 0))
    for i in range(1, d):
        if i in I:
            ineqs.append((unit(i), 1))
        else:
            ineqs.append((unit(i), 0))
            ineqs.append((unit(i, -1), 0))
    pos = {v: k for k, v in enumerate(sigma)}
    pair_indices = range(dp + 1, 2 * dp + 1)
    v = {i: corresponding_tuple(d, i)[:d] for i in pair_indices}
    for i in pair_indices:
        for j in pair_indices:
            if i != j and pos[i] < pos[j]:
                row = tuple(v[i][k] - v[j][k] for k in range(d))
                ineqs.append((row, 1 if i < j else 0))
    ineqs.append(((1,) * d, 1))
    return feasible(ineqs, d)


def _subsets_lex(n):
    subs = [tuple(sorted(s))
            for k in range(n + 1)
            for s in combinations(range(1, n + 1), k)]
    subs.sort()
    return [frozenset(s) for s in subs]


_wd_enum_cache = {}


def enumerate_Wd(d):
    """All admissible pairs, ordered by I (lex) then sigma (lex)."""
    if d in _wd_enum_cache:
        return list(_wd_enum_cache[d])
    sigmas = sorted(enumerate_script_S(d))
    out = []
    for I in _subsets_lex(d - 1):
        for sigma in sigmas:
            if wd_contains(d, I, sigma):
                out.append(WPair(d, I, sigma))
    _wd_enum_cache[d] = out
    return list(out)


def _grouped_by_sigma(pairs):
    """Pairs regrouped by shuffle so per-shuffle cone caches are reused
    once and can be evicted; the summation order is immaterial."""
    groups = {}
    for wp in pairs:
        groups.setdefault((wp.d, wp.sigma), []).append(wp)
    for key in sorted(groups):
        yield key, groups[key]


def _evict_sigma(key):
    _sigma_cache.pop(key, None)


def region_of_wpair(wp: WPair):
    """(monoid, A, C) whose lattice points project onto the pair's cone set."""
    A, C = wp.region_sets()
    return wp.context.monoid, A, C


def gmc(wp: WPair) -> LaurentPolynomial:
    """Product of Gaussian binomials of the pair, as a polynomial in q^-1.

    Returned in the ("q",) arena with nonpositive exponents.
    """
    ctx = wp.context
    u_poly = poly_mul(gaussian_multinomial(ctx.d, wp.I), ctx.binom_chain())
    return LaurentPolynomial(("q",), {(-e[0],): c
                                      for e, c in u_poly.terms.items()})


def mc(wp: WPair) -> int:
    ctx = wp.context
    u_poly = poly_mul(gaussian_multinomial(ctx.d, wp.I), ctx.binom_chain())
    return sum(u_poly.terms.values())


# ---------------------------------------------------------------------------
# Numerical data maps.


def numerical_map(d, sigma=None, kind="sigma"):
    """Per-coordinate (q-exponent, t-exponent) pairs of a substitution map.

    kind "sigma" requires sigma and covers that shuffle's m coordinates;
    "no_overlap" covers the d + d' + 1 coordinates of the no-overlap
    monoid; "reduced" likewise but with all q-exponents zero.
    """
    dp = _dprime(d)
    if kind == "sigma":
        return sigma_context(d, sigma).qt_exponents()
    if kind == "no_overlap":
        out = [(i * (d - i), i) for i in range(1, d + 1)]
        out += [(d * j + j * (dp - j), j) for j in range(1, dp + 1)]
        out.append((0, 0))
        return out
    if kind == "reduced":
        out = [(0, i) for i in range(1, d + 1)]
        out += [(0, j) for j in range(1, dp + 1)]
        out.append((0, 0))
        return out
    raise ValueError(f"unknown kind {kind!r}")


def _piece_qt(piece, exps):
    """Substitute a piece's generating function into the (q, t) arena."""
    num = {}
    for beta in piece.box():
        a = sum(x * e[0] for x, e in zip(beta, exps))
        b = sum(x * e[1] for x, e in zip(beta, exps))
        key = (a, b)
        num[key] = num.get(key, 0) + 1
    if not piece.rays:
        num = {(0, 0): 1}
    den = {}
    for ray in piece.rays:
        a = sum(x * e[0] for x, e in zip(ray, exps))
        b = sum(x * e[1] for x, e in zip(ray, exps))
        assert b > 0, "denominator factor without t-dependence"
        den[(a, b)] = den.get((a, b), 0) + 1
    return FactoredRationalFunction(LaurentPolynomial(QT, num), den)


def _piece_t(piece, exps, scale):
    num = {}
    for beta in piece.box():
        b = sum(x * e[1] for x, e in zip(beta, exps))
        num[(b,)] = num.get((b,), 0) + scale
    if not piece.rays:
        num = {(0,): scale}
    den = {}
    for ray in piece.rays:
        b = sum(x * e[1] for x, e in zip(ray, exps))
        den[(b,)] = den.get((b,), 0) + 1
    return FactoredRationalFunction(LaurentPolynomial(T, num), den)


# ---------------------------------------------------------------------------
# Results.


@dataclass
class ZetaResult:
    d: int
    kind: str
    value: object
    provenance: dict = field(default_factory=dict)


def _walk_regions(d, pairs, progress=None, evict=False):
    """Yield (pair, face-grouped pieces) grouped by shuffle, optionally
    evicting each shuffle's cached cone data once its pairs are done."""
    done = 0
    for key, group in _grouped_by_sigma(pairs):
        for wp in group:
            monoid, A, C = region_of_wpair(wp)
            yield wp, decompose_region_by_face(monoid, A, C)
            done += 1
            if progress:
                progress(done, len(pairs))
        if evict:
            _evict_sigma(key)


def _sum_qt(face_groups, exps):
    """Two-level sum: per face first, then across faces.

    Cells of one face draw denominators from that face's small ray pool,
    so the inner sums are cheap and only one lift per face reaches the
    region-wide common denominator.
    """
    subs = [rf_sum_common([_piece_qt(p, exps) for p in cells], vars=QT)
            for _, cells in face_groups]
    return rf_sum_common(subs, vars=QT)


def _sum_t(face_groups, exps, scale):
    subs = [rf_sum_common([_piece_t(p, exps, scale) for p in cells], vars=T)
            for _, cells in face_groups]
    return rf_sum_common(subs, vars=T)


def zeta_padic(d, progress=None, pairs=None, kind="padic", evict=None):
    """The bivariate subalgebra zeta function in (q, t)."""
    start = time.time()
    if pairs is None:
        pairs = enumerate_Wd(d)
    if evict is None:
        evict = d >= 4
    terms = []
    npieces = 0
    for wp, groups in _walk_regions(d, pairs, progress, evict):
        exps = wp.context.qt_exponents()
        npieces += sum(len(cells) for _, cells in groups)
        f = _sum_qt(groups, exps)
        g = gmc(wp)
        gq = LaurentPolynomial(QT, {(e[0], 0): c for e, c in g.terms.items()})
        terms.append(FactoredRationalFunction(poly_mul(f.num, gq), f.den))
    value = rf_normalize(rf_sum_common(terms, vars=QT))
    return ZetaResult(d, kind, value, {
        "pairs": len(pairs), "pieces": npieces,
        "seconds": round(time.time() - start, 3)})


def zeta_overlap(d, word, progress=None):
    """The zeta function restricted to one overlap type (a Dyck word)."""
    word = tuple(int(c) for c in word)
    dp = _dprime(d)
    if len(word) != 2 * dp or sorted(word) != [0] * dp + [1] * dp:
        raise ValueError(f"not a balanced word of length {2 * dp}: {word}")
    bal = 0
    for c in word:
        bal += 1 if c == 0 else -1
        if bal < 0:
            raise ValueError(f"unbalanced prefix in {word}")
    pairs = [wp for wp in enumerate_Wd(d) if wp.context.dyck == word]
    res = zeta_padic(d, progress=progress, pairs=pairs,
                     kind=f"overlap:{''.join(map(str, word))}")
    res.d = d
    return res


def no_overlap_monoid(d):
    """The slack-extended monoid of the no-overlap inequality."""
    dp = _dprime(d)
    m = d + dp + 1
    row = tuple([0] * (d - 2) + [1, 2] + [-1] * (dp + 1))
    special = set()
    for i in range(d - 2):
        e = [0] * m
        e[i] = 1
        special.add(tuple(e))
    e = [0] * m
    e[d - 2] = 1
    e[m - 1] = 1
    special.add(tuple(e))
    for i in range(d, d + dp):
        e = [0] * m
        e[d - 1] = 1
        e[i] = 2
        special.add(tuple(e))
    return DiophantineMonoid(
        m, [row], ray_order_key=lambda r: (0 if r in special else 1, r))


def hij_region_sets(d, I, J):
    """(A, C) of the no-overlap region for sign pattern (I, J), 0-based."""
    dp = _dprime(d)
    A = set(I) | {d + j for j in J}
    C = set(A) | {d, d + dp, d + dp + 1}
    return (frozenset(x - 1 for x in A), frozenset(x - 1 for x in C))


def zeta_no_overlap(d, route="via_H", progress=None):
    """The no-overlap zeta function, by either of two routes.

    via_H sums over sign patterns (I, J) of the single no-overlap
    inequality; via_G restricts the general formula to shuffles with the
    trivial interleaving word.  Both give the same rational function.
    """
    if route == "via_G":
        res = zeta_overlap(d, trivial_dyck_word(d), progress=progress)
        res.kind = "no_overlap"
        return res
    if route != "via_H":
        raise ValueError(f"unknown route {route!r}")
    start = time.time()
    dp = _dprime(d)
    monoid = no_overlap_monoid(d)
    exps = numerical_map(d, kind="no_overlap")
    terms = []
    combos = [(I, J) for I in _subsets_lex(d - 1) for J in _subsets_lex(dp - 1)]
    npieces = 0
    for k, (I, J) in enumerate(combos):
        A, C = hij_region_sets(d, I, J)
        groups = decompose_region_by_face(monoid, A, C)
        npieces += sum(len(cells) for _, cells in groups)
        f = _sum_qt(groups, exps)
        u_poly = poly_mul(gaussian_multinomial(d, I),
                          gaussian_multinomial(dp, J))
        gq = LaurentPolynomial(QT, {(-e[0], 0): c
                                    for e, c in u_poly.terms.items()})
        terms.append(FactoredRationalFunction(poly_mul(f.num, gq), f.den))
        if progress:
            progress(k + 1, len(combos))
    value = rf_normalize(rf_sum_common(terms, vars=QT))
    return ZetaResult(d, "no_overlap", value, {
        "pairs": len(combos), "pieces": npieces,
        "seconds": round(time.time() - start, 3)})


def zeta_reduced(d, progress=None, evict=None):
    """The q -> 1 specialization, computed summand-wise in t."""
    start = time.time()
    pairs = enumerate_Wd(d)
    if evict is None:
        evict = d >= 4
    terms = []
    npieces = 0
    for wp, groups in _walk_regions(d, pairs, progress, evict):
        exps = wp.context.qt_exponents()
        npieces += sum(len(cells) for _, cells in groups)
        scale = mc(wp)
        f = _sum_t(groups, exps, 1)
        terms.append(FactoredRationalFunction(f.num.scale(scale), f.den))
    value = rf_normalize(rf_sum_common(terms, vars=T))
    return ZetaResult(d, "reduced", value, {
        "pairs": len(pairs), "pieces": npieces,
        "seconds": round(time.time() - start, 3)})


def zeta_topological(d, progress=None, evict=None):
    """The topological zeta function, a univariate rational function in s.

    Only the top-dimensional (dimension D = d + d') simplicial pieces
    contribute; each adds its lattice-box count over the product of the
    linear forms b*s - a of its rays.
    """
    start = time.time()
    D = d + _dprime(d)
    pairs = enumerate_Wd(d)
    if evict is None:
        evict = d >= 4
    terms = []
    for wp, groups in _walk_regions(d, pairs, progress, evict):
        scale = mc(wp)
        exps = wp.context.qt_exponents()
        for p in (p for _, cells in groups for p in cells):
            if p.dim != D:
                continue
            den = {}
            for ray in p.rays:
                a = sum(x * e[0] for x, e in zip(ray, exps))
                b = sum(x * e[1] for x, e in zip(ray, exps))
                den[(b, a)] = den.get((b, a), 0) + 1
            terms.append(LinearFactoredFunction([scale * p.count_box()], den))
    value = lff_sum(terms)
    return ZetaResult(d, "topological", value, {
        "pairs": len(pairs), "seconds": round(time.time() - start, 3)})


def c_constant(d, progress=None, evict=None) -> Fraction:
    """The rational constant tying the reduced residue to the topological
    behaviour at infinity."""
    D = d + _dprime(d)
    pairs = enumerate_Wd(d)
    if evict is None:
        evict = d >= 4
    total = Fraction(0)
    for wp, groups in _walk_regions(d, pairs, progress, evict):
        scale = mc(wp)
        exps = wp.context.qt_exponents()
        for p in (p for _, cells in groups for p in cells):
            if p.dim != D:
                continue
            denom = 1
            for ray in p.rays:
                denom *= sum(x * e[1] for x, e in zip(ray, exps))
            total += Fraction(scale * p.count_box(), denom)
    return total


# ---------------------------------------------------------------------------
# Checks and reports.


def zeta_all(d, progress=None, evict=None):
    """One sweep producing the p-adic, reduced, and topological results.

    Shares each shuffle's cone decompositions across the three sums, which
    matters for d >= 4 where the decompositions dominate the runtime.
    """
    start = time.time()
    D = d + _dprime(d)
    pairs = enumerate_Wd(d)
    if evict is None:
        evict = d >= 4
    qt_terms, t_terms, s_terms = [], [], []
    npieces = 0
    for wp, groups in _walk_regions(d, pairs, progress, evict):
        exps = wp.context.qt_exponents()
        npieces += sum(len(cells) for _, cells in groups)
        scale = mc(wp)
        f = _sum_qt(groups, exps)
        g = gmc(wp)
        gq = LaurentPolynomial(QT, {(e[0], 0): c for e, c in g.terms.items()})
        qt_terms.append(FactoredRationalFunction(poly_mul(f.num, gq), f.den))
        ft = _sum_t(groups, exps, 1)
        t_terms.append(FactoredRationalFunction(ft.num.scale(scale), ft.den))
        for p in (p for _, cells in groups for p in cells):
            if p.dim != D:
                continue
            den = {}
            for ray in p.rays:
                a = sum(x * e[0] for x, e in zip(ray, exps))
                b = sum(x * e[1] for x, e in zip(ray, exps))
                den[(b, a)] = den.get((b, a), 0) + 1
            s_terms.append(LinearFactoredFunction([scale * p.count_box()],
                                                 den))
    meta = {"pairs": len(pairs), "pieces": npieces}
    reduced = ZetaResult(d, "reduced",
                         rf_normalize(rf_sum_common(t_terms, vars=T)),
                         dict(meta))
    topological = ZetaResult(d, "topological", lff_sum(s_terms), dict(meta))
    padic = ZetaResult(d, "padic",
                       rf_normalize(rf_sum_common(qt_terms, vars=QT)),
                       dict(meta))
    for r in (padic, reduced, topological):
        r.provenance["seconds"] = round(time.time() - start, 3)
    return {"padic": padic, "reduced": reduced, "topological": topological}


def check_functional_equation(value: FactoredRationalFunction, D: int) -> bool:
    """zeta(1/q, 1/t) = (-1)^D q^(D choose 2) t^D zeta(q, t)."""
    lhs = rf_invert_vars(value)
    sign = -1 if D % 2 else 1
    rhs = FactoredRationalFunction(
        value.num.shift((comb(D, 2), D)).scale(sign), value.den)
    return rf_equal(lhs, rhs)


def zeta_free_abelian(rank):
    """1 / ((1-t)(1-qt)...(1-q^(rank-1) t)) in the (q, t) arena."""
    return FactoredRationalFunction(
        LaurentPolynomial.one(QT), {(i, 1): 1 for i in range(rank)})


def padic_value_at_zero(value: FactoredRationalFunction, D: int):
    """The ratio zeta / zeta_(free abelian of rank D) evaluated at s = 0.

    Both functions have a simple pole at t = 1 (for generic q); the ratio
    is evaluated there and returned as a rational function of q given by a
    (numerator, denominator) pair of univariate polynomials.
    """
    ratio = rf_normalize(FactoredRationalFunction(
        poly_mul(value.num, zeta_free_abelian(D).den_poly()), value.den))
    t_to_one = [(1, 0), (0, 0)]  # q -> q, t -> 1
    num_q = ratio.num.substitute_monomials(t_to_one, ("q",))
    den_q = ratio.den_poly().substitute_monomials(t_to_one, ("q",))
    return num_q, den_q


def padic_at_zero_is_one(value, D) -> bool:
    num_q, den_q = padic_value_at_zero(value, D)
    return num_q == den_q


@dataclass
class PoleReport:
    d: int
    reduced_order_at_1: int
    reduced_residue_at_1: Fraction
    top_degree: int
    top_residue_at_0: Fraction
    top_limit_at_infinity: Fraction
    c_d: Fraction
    functional_equation_holds: bool = None

    def consistent(self) -> bool:
        D = self.d + _dprime(self.d)
        return (self.reduced_order_at_1 == D
                and self.reduced_residue_at_1 == (-1) ** D * self.c_d
                and self.top_degree == -D
                and self.top_residue_at_0
                == Fraction((-1) ** (D - 1), factorial(D - 1))
                and self.top_limit_at_infinity == self.c_d)


def _t_series_at_one(num: LaurentPolynomial):
    """(order of vanishing at t=1, value of num/(1-t)^order at t=1)."""
    order = 0
    while True:
        val = sum(num.terms.values())
        if val != 0 or num.is_zero():
            return order, val
        # num vanishes at t=1, so (1 - t) divides it
        num = poly_div_binomial(num, (1,))
        order += 1


def pole_report(d, reduced: ZetaResult, topological: ZetaResult,
                c_d=None, functional_equation_holds=None) -> PoleReport:
    if reduced.d != d or topological.d != d:
        raise ValueError("results computed for a different d")
    D = d + _dprime(d)
    red = reduced.value
    total_mult = sum(red.den.values())
    num_order, num_val = _t_series_at_one(red.num)
    order = total_mult - num_order
    b_prod = 1
    for (b,), m_ in red.den.items():
        b_prod *= b ** m_
    # residue of the pole at t=1: lim (t-1)^order * zeta_red
    residue = Fraction(num_val) * (-1) ** order / b_prod
    top = topological.value
    degree = top.degree()
    num0 = Fraction(top.num[0]) if top.num else Fraction(0)
    s_mult = 0
    other = Fraction(1)
    s_coeff = 1
    for (b, a), m_ in top.den.items():
        if a == 0:
            s_mult += m_
            s_coeff *= b ** m_
        else:
            other *= Fraction(-a) ** m_
    if s_mult != 1:
        raise ValueError(f"pole at s=0 has order {s_mult}, expected simple")
    top_residue = num0 / (s_coeff * other)
    lead = Fraction(top.num[-1])
    b_all = 1
    for (b, a), m_ in top.den.items():
        b_all *= b ** m_
    top_limit = lead / b_all
    if c_d is None:
        c_d = c_constant(d)
    return PoleReport(d, order, residue, degree, top_residue, top_limit,
                      Fraction(c_d), functional_equation_holds)


# ---------------------------------------------------------------------------
# Result cache.

CACHE_FORMAT_VERSION = 1


def cache_path(cache_dir, d, kind):
    safe = kind.replace(":", "_")
    return os.path.join(cache_dir,
                        f"v{CACHE_FORMAT_VERSION}_d{d}_{safe}.json")


def store_result(cache_dir, result: ZetaResult):
    """Write the result atomically: a killed or concurrent writer never
    leaves a partial file under the cache name."""
    os.makedirs(cache_dir, exist_ok=True)
    obj = {
        "d": result.d,
        "kind": result.kind,
        "value": result.value.to_json_obj(),
        "provenance": result.provenance,
    }
    path = cache_path(cache_dir, result.d, result.kind)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_result(cache_dir, d, kind):
    """The cached result, or None on a miss.

    A file that cannot be decoded, or fails revalidation, is a miss,
    reported with a one-line reason on stderr.
    """
    path = cache_path(cache_dir, d, kind)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            obj = json.load(fh)
        stored = (obj["d"], obj["kind"])
        if kind == "topological":
            value = _lff_from_json(obj["value"])
        else:
            value = FactoredRationalFunction.from_json_obj(obj["value"])
        provenance = obj.get("provenance", {})
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError
        reason = f"unreadable ({type(exc).__name__}: {exc})"
    else:
        reason = _revalidation_failure(d, kind, stored, value)
        if reason is None:
            return ZetaResult(d, kind, value, provenance)
    print(f"cache: ignoring {path}: {reason}".splitlines()[0],
          file=sys.stderr)
    return None


def _revalidation_failure(d, kind, stored, value):
    """Why a decoded cache entry cannot be trusted, or None if it can."""
    if stored != (d, kind):
        return f"holds d={stored[0]} kind {stored[1]}"
    D = d + _dprime(d)
    if kind == "topological":
        if value.degree() != -D:
            return f"degree {value.degree()}, expected {-D}"
    elif kind in ("padic", "no_overlap") or kind.startswith("overlap:"):
        # every overlap summand satisfies the functional equation too
        if not check_functional_equation(value, D):
            return "fails the functional equation"
    return None


def _lff_from_json(obj):
    num = [0] * (max((row[2] for row in obj["num"]), default=-1) + 1)
    for cn, cd, i in obj["num"]:
        c = Fraction(int(cn), int(cd))
        num[i] = int(c) if c.denominator == 1 else c
    den = {(b, a): m for m, b, a in obj["den"]}
    return LinearFactoredFunction(num, den)
