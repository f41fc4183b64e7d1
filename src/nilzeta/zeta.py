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
full-dimensional top simplices, each weighted by its lattice multiplicity,
and lives in a single variable s.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul, sub

from .arith import (
    FactoredRationalFunction,
    LaurentPolynomial,
    LinearFactoredFunction,
    lff_sum,
    poly_div_binomial,
    poly_mul,
    rf_equal,  # noqa: F401 -- looked up as zeta.rf_equal
    rf_normalize,
    rf_sum_common,
)
from .cache import (  # noqa: F401 -- zeta exposes the result cache's names
    CACHE_FORMAT_VERSION,
    QT,
    T,
    ZetaResult,
    _dprime,
    _revalidation_failure,
    cache_path,
    check_functional_equation,
    dyck_word,
    expected_top_residue,
    load_result,
    store_result,
    top_residue_at_0,
)
from .combinat import (
    admissible_shuffles,
    ascent_set,
    corresponding_tuple,
    dyck_of_sigma,
    gaussian_binomial,
    gaussian_multinomial,
    j_set,
    lm_sigma,
    trivial_dyck_word,
)
from .cones import (
    DiophantineMonoid,
    decompose_region_by_face,
    extreme_rays,
    genfun_faces,
)

# ---------------------------------------------------------------------------
# The linear system attached to a shuffle.


class SigmaContext:
    """The data of a shuffle sigma that its pairs read.  Its rows phi and
    its (q, t) map come off one table of its steps v(k) - v(k+1), k in
    [2d'], with v(k) the integer tuple of sigma(k) and v(2d'+1) = 0."""

    def __init__(self, d, sigma):
        self.d = d
        self.dp = dp = _dprime(d)
        self.sigma = tuple(sigma)
        v = [corresponding_tuple(d, x) for x in sigma] + [(0,) * (d + dp)]
        self.steps = [tuple(map(sub, a, b)) for a, b in zip(v, v[1:])]
        # positions i in [2d'-1] where sigma(i) or sigma(i+1) is a pair index
        self.R = [i for i in range(1, 2 * dp)
                  if sigma[i - 1] > dp or sigma[i] > dp]
        self.r = len(self.R)
        self.m = d + dp + self.r
        # the defining matrix of the solution monoid of the shuffle: one row
        # per position i in R (in increasing order), the step at i in the
        # first d + d' columns and -1 in the slack column of the row's rank
        self.phi = [self.steps[i - 1]
                    + tuple(-int(j == pos) for j in range(self.r))
                    for pos, i in enumerate(self.R)]
        self.asc = ascent_set(sigma)
        self.J = j_set(d, sigma)
        self.dyck = dyck_of_sigma(d, sigma)
        self.L, self.M = lm_sigma(d, sigma)

    def binom_chain(self):
        """Product of the interval Gaussian binomials along the ascents."""
        chain = sorted(set(self.asc) | {0, 2 * self.dp})
        out = LaurentPolynomial.one(("u",))
        L, M = self.L, self.M
        for lo, hi in zip(chain, chain[1:]):
            out = poly_mul(out, gaussian_binomial(L[hi] - M[lo],
                                                  M[hi] - M[lo]))
        return out

    def qt_exponents(self):
        """Per-coordinate (q-exponent, t-exponent) of the numerical map.

        Coordinate i in [d] maps to q^(a) t^i, coordinate d+j to q^(a) t^j,
        slack coordinates to 1.

        A coordinate's q-exponent a may be negative (in the ten W_4
        shuffles ending 6,5,4,3,2,1 the first centre coordinate gets -1):
        the map is linear, so only its totals on a region's rays and box
        points reach the generating function.  Those are checked per pair,
        on the map restricted to the pair's coordinates: every extreme ray
        of its region, so every piece ray, gets a positive t total
        (_assert_t_positive), and FactoredRationalFunction rejects a factor
        exponent with a negative entry.
        """
        d, dp = self.d, self.dp
        L, M = self.L, self.M
        weights = [M[k] * (L[k] - M[k]) for k in range(1, 2 * dp + 1)]
        out = []
        for c in range(d + dp):
            a = sum(w * step[c] for w, step in zip(weights, self.steps))
            if c < d:
                i = c + 1
                a += i * (d - i)
                b = i
            else:
                j = c - d + 1
                a += j * d
                b = j
            out.append((a, b))
        out.extend([(0, 0)] * self.r)
        return out


def _assert_t_positive(rays, exps):
    """Assert that every ray has a positive t total under the map exps.

    On the rays of a monoid of a shuffle or of the no-overlap inequality,
    or of a face of one, it cannot fail: every coordinate but the slack
    ones has b > 0, and each slack column has its single -1 in a row of its
    own, so no ray lies on slack coordinates alone.
    """
    t_col = [b for _, b in exps]
    assert all(sum(map(mul, ray, t_col)) > 0 for ray in rays), \
        "denominator factor without t-dependence"


# ---------------------------------------------------------------------------
# Pairs (I, sigma).


class WPair:
    """A pair (I, sigma) of W_d: a subset I of [d-1] and a shuffle."""

    __slots__ = ("d", "I", "sigma", "_context")

    def __init__(self, d, I, sigma):
        self.d = d
        self.I = I
        self.sigma = sigma
        self._context = None

    def _key(self):
        return (self.d, self.I, self.sigma)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"WPair(d={self.d!r}, I={self.I!r}, sigma={self.sigma!r})"

    @property
    def context(self):
        """The shuffle's SigmaContext, built on first read and kept until
        the sweep step that reads it is done (_pair_regions)."""
        if self._context is None:
            self._context = SigmaContext(self.d, self.sigma)
        return self._context

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

    sigma is a shuffle, or just its subsequence of values > d': the answer
    depends on nothing else.  A prefix of that subsequence is tested on
    the constraints among its own values only.  The pair is a member when
    some r in Q^d, with r_i > 0 exactly for the i in I among [d-1], r_d >= 0
    and r != 0, orders the pairwise sums as sigma does: the sum of an
    earlier value at least that of a later one, strictly when the earlier
    value is the smaller.

    Two reductions keep the system small, and both are exact.  The unknowns
    are only r_i for i in I and r_d, since every other r_i is 0.  The order
    constraints are only those between consecutive values of sigma: for
    values a, b, c in that order, the constraints for a-before-b and
    b-before-c sum to the one for a-before-c, and when that one is strict
    (a < c) so is one of the two summed (a < b or b < c).

    It is decided by the extreme rays of the monoid {(r, s) >= 0 :
    (v_a - v_b) . r = s_k}, with one slack s_k for each consecutive step
    (a, b).  The monoid lies in the orthant, so it is pointed, and the sum
    of its rays is a point whose support is the union of theirs.  It is
    never {0}: every value > d' has a 2 in column d, so r_d alone, with
    every slack 0, is a ray.  Every nonzero point has r != 0, as s is
    fixed by r.  So the pair is a member exactly when the rays' supports
    cover r_i for every i in I and s_k for every strict step (a < b).
    """
    dp = _dprime(d)
    order = [x for x in sigma if x > dp]
    cols = sorted(I) + [d]
    n = len(cols)
    v = {x: [corresponding_tuple(d, x)[c - 1] for c in cols] for x in order}
    steps = list(zip(order, order[1:]))
    equations = [tuple(map(sub, v[a], v[b]))
                 + tuple(-int(j == k) for j in range(len(steps)))
                 for k, (a, b) in enumerate(steps)]
    rays = extreme_rays(equations, n + len(steps))
    covered = {i for ray in rays for i, x in enumerate(ray) if x}
    needed = set(range(n - 1)) | {n + k for k, (a, b) in enumerate(steps)
                                  if a < b}
    return needed <= covered


def _subsets_lex(n):
    subs = [tuple(sorted(s))
            for k in range(n + 1)
            for s in combinations(range(1, n + 1), k)]
    subs.sort()
    return [frozenset(s) for s in subs]


def _admitted_orders(d, I):
    """The orders of the values > d' that wd_contains admits with I, in
    lex order.

    The orders are walked depth-first, and a prefix is cut as soon as
    wd_contains refuses it: a prefix carries a subset of the constraints
    of every order that extends it, so no extension of a refused prefix
    is admitted.
    """
    dp = _dprime(d)
    values = range(dp + 1, 2 * dp + 1)
    out = []

    def walk(prefix):
        if len(prefix) == dp:
            out.append(prefix)
            return
        for x in values:
            if x not in prefix and wd_contains(d, I, prefix + (x,)):
                walk(prefix + (x,))

    walk(())
    return out


def enumerate_Wd(d):
    """All admissible pairs, ordered by I (lex) then sigma (lex).

    Membership depends on sigma only through the order of its values > d',
    so wd_contains decides it per (I, order), on a system with only
    the unknowns r_i, i in I or i = d, and only the constraints between
    consecutive values; its docstring says why both cuts are exact.  The
    orders are found prefix by prefix (_admitted_orders).  Only the
    shuffles of admitted orders are built (admissible_shuffles), and
    since shuffles of distinct orders are distinct, sorting those of one I
    gives its pairs in the order of sorted S_d.
    """
    out = []
    for I in _subsets_lex(d - 1):
        sigmas = sorted(s for order in _admitted_orders(d, I)
                        for s in admissible_shuffles(d, order))
        out.extend(WPair(d, I, sigma) for sigma in sigmas)
    return out


def region_of_wpair(wp: WPair):
    """(monoid, A, C, keep): the pair's region in its own coordinates.

    The region is the face of sigma's monoid on the coordinates C of
    region_sets, cut down to the points positive on A.  keep lists those
    coordinates in order; the returned monoid is cut out by the rows of
    the shuffle's phi restricted to them (C holds every slack), and A and C are
    renumbered to match, so C is every coordinate.  Its rays are sigma's
    rays supported in C, with the zero coordinates outside C dropped, in
    the same sorted order; so the region decomposes into the same pieces.
    Its lattice points, written back into sigma's coordinates at keep,
    project onto the pair's cone set.
    """
    A, C = wp.region_sets()
    keep = tuple(sorted(C))
    at = {c: j for j, c in enumerate(keep)}
    monoid = DiophantineMonoid(
        len(keep), [tuple(row[c] for c in keep) for row in wp.context.phi])
    return monoid, frozenset(at[c] for c in A), frozenset(at.values()), keep


def _pair_exponents(wp: WPair, keep):
    """The (q, t) map of the pair's own coordinates keep (region_of_wpair):
    its shuffle's map at those coordinates."""
    exps = wp.context.qt_exponents()
    return [exps[c] for c in keep]


def _gaussian_product(wp: WPair) -> LaurentPolynomial:
    """Product of the Gaussian binomials of the pair, in u = q^-1."""
    ctx = wp.context
    return poly_mul(gaussian_multinomial(ctx.d, wp.I), ctx.binom_chain())


# ---------------------------------------------------------------------------
# Numerical data maps.


def no_overlap_exponents(d):
    """Per-coordinate (q-exponent, t-exponent) of the numerical map of the
    no-overlap monoid's d + d' + 1 coordinates (a shuffle's map is its
    SigmaContext.qt_exponents)."""
    dp = _dprime(d)
    out = [(i * (d - i), i) for i in range(1, d + 1)]
    out += [(d * j + j * (dp - j), j) for j in range(1, dp + 1)]
    out.append((0, 0))
    return out


# u = q^-1 in the (q, t) arena; the q -> 1 limit sends it to 1
_U_IMAGE = {QT: [(-1, 0)], T: [(0,)]}


def _region_term(groups, cols, vars, u_poly):
    """A region's generating function in the arena vars (QT, or T for the
    q -> 1 limit), times the Gaussian product u_poly.

    cols is the (q, t) exponent map as its q and t columns; the t arena
    drops the q column.  The pieces are summed by genfun_faces.

    The term comes out in lowest terms, so rf_sum_common may add it to
    others, or return it alone, without normalizing it again:
    - a region of one piece has only the full +1 piece of its one top
      simplex (every other piece comes with it); that numerator has only
      positive coefficients, so its sum along a line x + Z e that meets
      it is positive, and no 1 - Z^e divides it;
    - a sum of several pieces leaves rf_normalize, whose one
      pass leaves no denominator factor dividing the numerator;
    - the Gaussian weight is a nonzero polynomial in q alone (a constant
      in the t arena), and every factor of 1 - q^a t^b with b > 0 has
      positive degree in t, so the weight shares no factor with the
      denominator.
    """
    f = genfun_faces(groups, cols[-len(vars):], vars)
    weight = u_poly.substitute_monomials(_U_IMAGE[vars], vars)
    return FactoredRationalFunction(poly_mul(f.num, weight), f.den)


# (restricted rows, renumbered A) -> (region's rays, pieces grouped by
# top simplex): what later pairs read of a region's decomposition
_region_memo = {}


def _pair_regions(pairs):
    """Yield each pair's region for _sweep, in the order of pairs.

    Each region is decomposed in its own coordinates (region_of_wpair), and
    each distinct system once per process: pairs share regions (W_4's 9,030
    pairs have 2,970 distinct ones), so the rays and grouped pieces are
    memoized by the system, not the monoid with its faces and
    triangulations.  Every pair still gets its own (q, t) map, the
    restriction of its shuffle's to its coordinates, checked to give every
    ray of its region a positive t total, and its own Gaussian weight.

    A pair's SigmaContext is dropped once its region is summed.
    """
    for wp in pairs:
        monoid, A, C, keep = region_of_wpair(wp)
        exps = _pair_exponents(wp, keep)
        key = (tuple(monoid.equations), A)
        region = _region_memo.get(key)
        if region is None:
            region = _region_memo[key] = (
                monoid.rays(), decompose_region_by_face(monoid, A, C))
        rays, groups = region
        _assert_t_positive(rays, exps)
        yield (wp.context.dyck, list(zip(*exps)), _gaussian_product(wp),
               groups)
        wp._context = None


SWEEP_KINDS = ("padic", "overlap", "reduced", "topological", "c_d")


def zeta_all(d, kinds=SWEEP_KINDS, pairs=None, progress=None):
    """One sweep over the pairs, building only the results named in kinds.

    "padic", "reduced" and "topological" map to ZetaResults, "overlap" to a
    dict from each Dyck word to the ZetaResult of its summand (the sum of
    the (q, t) terms of its pairs, as zeta_overlap returns it), "c_d" to the
    constant as a Fraction.  All of them read the same per-pair cone
    decompositions, so asking for several costs a single walk.
    """
    unknown = set(kinds) - set(SWEEP_KINDS)
    if unknown:
        raise ValueError(f"unknown kinds {sorted(unknown)}")
    if pairs is None:
        pairs = enumerate_Wd(d)
    return _sweep(d, _pair_regions(pairs), len(pairs), kinds, progress)


def _sweep(d, regions, n, kinds, progress):
    """Sum n cone regions into the results named in kinds (see zeta_all).

    Each region is (Dyck word, (q, t) map columns, Gaussian product,
    pieces grouped by top simplex); progress, if given, is called once per
    region.  The (q, t) terms are collected once, by Dyck word: the p-adic
    function is the sum of the overlap summands.  Only D-dimensional
    (D = d + d') pieces reach the topological function and c_d, and each
    top simplex with D rays has one: its full +1 piece, whose half-open
    box holds one point per element of the simplex's parallelepiped group
    (the other pieces leave out rays).  So each such simplex adds its
    group's order over the product of the linear forms b*s - a of its rays
    (c_d: over the product of the b).  The piece counts in the provenance
    count the signed half-open pieces.
    """
    start = time.time()
    D = d + _dprime(d)
    t_terms, s_terms = [], []
    words = {}  # Dyck word -> [(q, t) terms of its regions, pieces]
    c_d = Fraction(0)
    npieces = 0
    for done, (word, cols, u_poly, groups) in enumerate(regions, 1):
        pieces = sum(len(ps) for _, ps in groups)
        npieces += pieces
        if "padic" in kinds or "overlap" in kinds:
            acc = words.setdefault("".join(map(str, word)), [[], 0])
            acc[0].append(_region_term(groups, cols, QT, u_poly))
            acc[1] += pieces
        if "reduced" in kinds:
            t_terms.append(_region_term(groups, cols, T, u_poly))
        if "topological" in kinds or "c_d" in kinds:
            q_col, t_col = cols
            scale = sum(u_poly.terms.values())
            for simplex, pieces in groups:
                if len(simplex) < D:
                    continue
                den = {}
                for ray in simplex:
                    key = (sum(map(mul, ray, t_col)),
                           sum(map(mul, ray, q_col)))
                    den[key] = den.get(key, 0) + 1
                count = scale * pieces[0].group.order()
                if "topological" in kinds:
                    s_terms.append(LinearFactoredFunction([count], den))
                if "c_d" in kinds:
                    c_d += Fraction(count, prod(b ** m
                                                for (b, _), m in den.items()))
        if progress:
            progress(done, n)
    summands = {w: rf_sum_common(terms, vars=QT)
                for w, (terms, _) in sorted(words.items())}
    values = {}
    if "padic" in kinds:
        values["padic"] = rf_sum_common(summands.values(), vars=QT)
    if "reduced" in kinds:
        values["reduced"] = rf_sum_common(t_terms, vars=T)
    if "topological" in kinds:
        values["topological"] = lff_sum(s_terms)
    seconds = round(time.time() - start, 3)
    out = {}
    for kind, value in values.items():
        # the topological sum skips lower-dimensional pieces, so it
        # reports no piece count
        counts = {"pairs": n} if kind == "topological" \
            else {"pairs": n, "pieces": npieces}
        out[kind] = ZetaResult(d, kind, value, {**counts, "seconds": seconds})
    if "overlap" in kinds:
        out["overlap"] = {
            w: ZetaResult(d, f"overlap:{w}", value, {
                "pairs": len(words[w][0]), "pieces": words[w][1],
                "seconds": seconds})
            for w, value in summands.items()}
    if "c_d" in kinds:
        out["c_d"] = c_d
    return out


def zeta_padic(d, progress=None, pairs=None):
    """The bivariate subalgebra zeta function in (q, t)."""
    return zeta_all(d, ("padic",), pairs, progress)["padic"]


def zeta_overlap(d, word, progress=None):
    """The zeta function restricted to one overlap type (a Dyck word)."""
    word = dyck_word(d, word)
    pairs = [wp for wp in enumerate_Wd(d)
             if dyck_of_sigma(d, wp.sigma) == word]
    res = zeta_padic(d, progress=progress, pairs=pairs)
    res.kind = f"overlap:{''.join(map(str, word))}"
    return res


def no_overlap_monoid(d):
    """The slack-extended monoid of the no-overlap inequality."""
    dp = _dprime(d)
    row = tuple([0] * (d - 2) + [1, 2] + [-1] * (dp + 1))
    return DiophantineMonoid(d + dp + 1, [row])


def hij_region_sets(d, I, J):
    """(A, C) of the no-overlap region for sign pattern (I, J), 0-based."""
    dp = _dprime(d)
    A = set(I) | {d + j for j in J}
    C = set(A) | {d, d + dp, d + dp + 1}
    return (frozenset(x - 1 for x in A), frozenset(x - 1 for x in C))


def zeta_no_overlap(d, route="via_H", progress=None):
    """The no-overlap zeta function, by either of two routes.

    via_H sums over sign patterns (I, J) of the single no-overlap
    inequality, its own monoid and regions under the trivial word, through
    the sweep that sums the pairs; via_G restricts the general formula to
    shuffles with the trivial interleaving word.  Both give the same
    rational function; a via_G result names its route in its kind.
    """
    if route == "via_G":
        res = zeta_overlap(d, trivial_dyck_word(d), progress=progress)
        res.kind = "no_overlap:via_G"
        return res
    if route != "via_H":
        raise ValueError(f"unknown route {route!r}")
    dp = _dprime(d)
    monoid = no_overlap_monoid(d)
    exps = no_overlap_exponents(d)
    _assert_t_positive(monoid.rays(), exps)
    cols = list(zip(*exps))
    word = trivial_dyck_word(d)
    patterns = [(I, J) for I in _subsets_lex(d - 1)
                for J in _subsets_lex(dp - 1)]
    regions = ((word, cols,
                poly_mul(gaussian_multinomial(d, I),
                         gaussian_multinomial(dp, J)),
                decompose_region_by_face(monoid, *hij_region_sets(d, I, J)))
               for I, J in patterns)
    res = _sweep(d, regions, len(patterns), ("padic",), progress)["padic"]
    res.kind = "no_overlap"
    return res


def zeta_reduced(d, progress=None):
    """The q -> 1 specialization, computed summand-wise in t."""
    return zeta_all(d, ("reduced",), progress=progress)["reduced"]


def zeta_topological(d, progress=None):
    """The topological zeta function, a univariate rational function in s."""
    return zeta_all(d, ("topological",), progress=progress)["topological"]


def c_constant(d, progress=None) -> Fraction:
    """The constant tying the reduced residue to the topological limit."""
    return zeta_all(d, ("c_d",), progress=progress)["c_d"]


# ---------------------------------------------------------------------------
# Checks and reports.


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


class PoleReport:
    """Poles and residues of the reduced and topological functions, and
    c_d; the fields are in the order the report prints them."""

    def __init__(self, d, reduced_order_at_1, reduced_residue_at_1,
                 top_degree, top_residue_at_0, top_limit_at_infinity, c_d):
        self.d = d
        self.reduced_order_at_1 = reduced_order_at_1
        self.reduced_residue_at_1 = reduced_residue_at_1
        self.top_degree = top_degree
        self.top_residue_at_0 = top_residue_at_0
        self.top_limit_at_infinity = top_limit_at_infinity
        self.c_d = c_d

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    # mutable, so unhashable
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"PoleReport({fields})"

    def consistent(self) -> bool:
        D = self.d + _dprime(self.d)
        return (self.reduced_order_at_1 == D
                and self.reduced_residue_at_1 == (-1) ** D * self.c_d
                and self.top_degree == -D
                and self.top_residue_at_0 == expected_top_residue(D)
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
                c_d) -> PoleReport:
    """Poles and residues of the reduced and topological functions.

    c_d is the constant from the same sweep as the two results (zeta_all's
    "c_d"); computing it here would walk every pair a second time.
    """
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
    top_residue = top_residue_at_0(top)
    lead = Fraction(top.num[-1])
    b_all = 1
    for (b, a), m_ in top.den.items():
        b_all *= b ** m_
    top_limit = lead / b_all
    return PoleReport(d, order, residue, degree, top_residue, top_limit,
                      Fraction(c_d))
