"""Tests for exact Laurent-polynomial and factored rational arithmetic."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from nilzeta.arith import (
    FactoredRationalFunction,
    LaurentPolynomial,
    LinearFactoredFunction,
    NotDivisible,
    _mul_binomial,
    lff_equal,
    lff_sum,
    poly_div_binomial,
    poly_exact_div,
    poly_mul,
    rf_equal,
    rf_invert_vars,
    rf_normalize,
    rf_series_coeffs,
    rf_sum_common,
    rf_with_denominator,
    upoly_add,
    upoly_div_linear,
    upoly_mul,
)
from nilzeta.golden import golden_topological
from reference_impls import (
    SingularSubstitution,
    lff_equal_full,
    lff_sum_per_group,
    mul_binomial_tuples,
    poly_div_binomial_tuples,
    poly_mul_tuples,
    rf_equal_tuples,
    rf_normalize_tuples,
    rf_sum_common_tuples,
    rf_substitute,
)

QT = ("q", "t")


def lp(terms):
    return LaurentPolynomial(QT, terms)


def test_poly_mul_basic():
    a = lp({(0, 0): 1, (1, 1): 1})          # 1 + qt
    b = lp({(0, 0): 1, (1, 1): -1})         # 1 - qt
    assert poly_mul(a, b) == lp({(0, 0): 1, (2, 2): -1})


def test_exact_div_geometric():
    # (1 - t^2) / (1 - t) = 1 + t
    a = lp({(0, 0): 1, (0, 2): -1})
    b = lp({(0, 0): 1, (0, 1): -1})
    assert poly_exact_div(a, b) == lp({(0, 0): 1, (0, 1): 1})


def test_exact_div_two_vars():
    # (1 - q^3 t^3) / (1 - q t) = 1 + qt + q^2 t^2
    a = lp({(0, 0): 1, (3, 3): -1})
    b = lp({(0, 0): 1, (1, 1): -1})
    assert poly_exact_div(a, b) == lp({(0, 0): 1, (1, 1): 1, (2, 2): 1})


def test_exact_div_failure():
    a = lp({(0, 0): 1, (0, 3): -1, (1, 0): 1})
    b = lp({(0, 0): 1, (0, 2): -1})
    with pytest.raises(NotDivisible):
        poly_exact_div(a, b)


def test_exact_div_laurent_shift():
    # Works with negative exponents: (q^-1 - t) / 1 etc.
    a = lp({(-1, 0): 1, (0, 1): -1})
    b = lp({(-1, 0): 1})
    q = poly_exact_div(a, b)
    assert poly_mul(q, b) == a


def test_rf_sum_common_spec_example():
    # 1/(1-t) + 1/(1-qt) = (2 - t - qt) / ((1-t)(1-qt))
    f = FactoredRationalFunction(LaurentPolynomial.one(QT), {(0, 1): 1})
    g = FactoredRationalFunction(LaurentPolynomial.one(QT), {(1, 1): 1})
    h = rf_sum_common([f, g])
    assert h.num == lp({(0, 0): 2, (0, 1): -1, (1, 1): -1})
    assert h.den == {(0, 1): 1, (1, 1): 1}


def test_rf_normalize_cancels():
    # (1 + t)/(1 - t^2) == 1/(1 - t)
    f = FactoredRationalFunction(lp({(0, 0): 1, (0, 1): 1}), {(0, 2): 1})
    g = rf_normalize(FactoredRationalFunction(
        poly_mul(f.num, lp({(0, 0): 1, (0, 1): -1})), {(0, 2): 1}))
    assert g.den == {}
    assert rf_equal(f, FactoredRationalFunction(
        LaurentPolynomial.one(QT), {(0, 1): 1}))


def test_rf_equal_cross_multiplied():
    f = FactoredRationalFunction(lp({(0, 0): 1, (0, 1): 1}), {(0, 2): 1})
    g = FactoredRationalFunction(LaurentPolynomial.one(QT), {(0, 1): 1})
    assert rf_equal(f, g)
    h = FactoredRationalFunction(LaurentPolynomial.one(QT), {(1, 1): 1})
    assert not rf_equal(f, h)


def test_negative_factor_refused():
    # 1/(1 - q^-1) is not written with a negative exponent, nor is a
    # factor of mixed sign
    for e in ((-1, 0), (-1, -2), (1, -1)):
        with pytest.raises(ValueError, match="negative denominator exponent"):
            FactoredRationalFunction(LaurentPolynomial.one(QT), {e: 1})


def test_rf_substitute_monomial_images():
    # 1/(1-X) with X -> q^2 t gives 1/(1 - q^2 t)
    f = FactoredRationalFunction(LaurentPolynomial.one(("X",)), {(1,): 1})
    g = rf_substitute(f, [(2, 1)], QT)
    assert g.den == {(2, 1): 1}
    assert g.num.is_one()


def test_rf_substitute_singular():
    f = FactoredRationalFunction(LaurentPolynomial.one(("X",)), {(1,): 1})
    with pytest.raises(SingularSubstitution):
        rf_substitute(f, [(0, 0)], QT)


def test_rf_invert_vars_geometric():
    # 1/(1-t) at t -> 1/t equals -t/(1-t)
    f = FactoredRationalFunction(LaurentPolynomial.one(QT), {(0, 1): 1})
    g = rf_invert_vars(f)
    assert rf_equal(g, FactoredRationalFunction(lp({(0, 1): -1}), {(0, 1): 1}))


def test_rf_series_coeffs_geometric():
    f = FactoredRationalFunction(LaurentPolynomial.one(QT), {(1, 1): 1})
    coeffs = rf_series_coeffs(f, 2, 4)
    assert coeffs == [1, 2, 4, 8, 16]


def test_rf_series_coeffs_heisenberg():
    # (1 - q^3 t^3) / ((1-q^3 t^2)(1-q^2 t^2)(1-t)(1-q t)) counts
    # sublattice-subalgebra indices: 1, 1+q, ... and at t-degree n the
    # coefficient equals the number of subalgebras of index q^n summed.
    f = FactoredRationalFunction(
        lp({(0, 0): 1, (3, 3): -1}),
        {(3, 2): 1, (2, 2): 1, (0, 1): 1, (1, 1): 1})
    coeffs = rf_series_coeffs(f, 2, 3)
    # a_0 = 1, a_1 = 1 + q = 3, a_2 = 1 + q + 2q^2 + q^3 = 19 at q=2
    assert coeffs[0] == 1
    assert coeffs[1] == 3
    assert coeffs[2] == 19


def test_rf_sum_common_of_one_term_is_that_term():
    f = FactoredRationalFunction(lp({(0, 0): 1, (1, 1): 2}), {(0, 1): 1})
    assert rf_sum_common([f]) is f
    assert rf_sum_common([f], vars=QT) is f


def test_rf_sum_tree():
    one = FactoredRationalFunction.one(QT)
    s = rf_sum_common([one] * 5)
    assert rf_equal(s, FactoredRationalFunction(
        LaurentPolynomial.constant(QT, 5)))
    # zero terms still carry their arena
    zero = FactoredRationalFunction.zero(QT)
    assert rf_sum_common([zero, zero]).is_zero()
    assert rf_sum_common([zero, zero]).vars == QT
    assert rf_sum_common([], vars=QT).vars == QT
    with pytest.raises(ValueError):
        rf_sum_common([])


def test_json_roundtrip():
    f = FactoredRationalFunction(
        lp({(0, 0): Fraction(1, 2), (2, 1): -3}), {(1, 1): 2, (0, 2): 1})
    obj = f.to_json_obj()
    g = FactoredRationalFunction.from_json_obj(obj)
    assert rf_equal(f, g)
    assert g.num == f.num and g.den == f.den
    h = LinearFactoredFunction([Fraction(-3, 2), 0, 2], {(1, 1): 2, (2, 3): 1})
    k = LinearFactoredFunction.from_json_obj(h.to_json_obj())
    assert k.num == h.num and k.den == h.den


@pytest.mark.parametrize("rows", [
    [["12", "1", 0], ["9", "1", -1]],
    [["12", "1", 0], ["9", "1", 0]],
], ids=["negative", "repeated"])
def test_lff_from_json_refuses_bad_degrees(rows):
    # either would be written over another coefficient
    with pytest.raises(ValueError):
        LinearFactoredFunction.from_json_obj(
            {"vars": ["s"], "num": rows, "den": [[1, 1, 0]]})


small_poly = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-5, 5).filter(bool),
    max_size=5).map(lambda d: LaurentPolynomial(QT, d))


@given(small_poly, small_poly)
@settings(max_examples=50, deadline=None)
def test_poly_mul_commutes(a, b):
    assert poly_mul(a, b) == poly_mul(b, a)


@given(small_poly, small_poly)
@settings(max_examples=50, deadline=None)
def test_div_undoes_mul(a, b):
    if b.is_zero():
        return
    p = poly_mul(a, b)
    assert poly_exact_div(p, b) == a


den_strategy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: any(e)),
    st.integers(1, 2), min_size=0, max_size=2)


@given(small_poly, den_strategy, small_poly, den_strategy)
@settings(max_examples=30, deadline=None)
def test_rf_sum_common_commutes_and_evaluates(n1, d1, n2, d2):
    f = FactoredRationalFunction(n1, d1)
    g = FactoredRationalFunction(n2, d2)
    s1 = rf_sum_common([f, g])
    s2 = rf_sum_common([g, f])
    assert rf_equal(s1, s2)
    # numeric check at a point where no factor vanishes
    q0, t0 = Fraction(3), Fraction(1, 5)
    def ev(h):
        return h.num.evaluate((q0, t0)) / h.den_poly().evaluate((q0, t0))
    assert ev(s1) == ev(f) + ev(g)


def _per_group_sum(terms):
    """The reference for rf_sum_common: terms grouped by denominator, each
    group lifted to the factor-wise least common denominator on its own,
    then normalized."""
    vars = terms[0].vars
    groups, lcm = {}, {}
    for t in terms:
        sig = frozenset(t.den.items())
        groups[sig] = groups.get(sig, LaurentPolynomial.zero(vars)) + t.num
        for e, m in t.den.items():
            lcm[e] = max(lcm.get(e, 0), m)
    num = LaurentPolynomial.zero(vars)
    for sig, group in groups.items():
        den = dict(sig)
        for e, m in lcm.items():
            group = poly_mul(group,
                             _binomial_power(vars, e, m - den.get(e, 0)))
        num = num + group
    return rf_normalize(FactoredRationalFunction(num, lcm))


def _same_form(f, g):
    return f.vars == g.vars and f.num.terms == g.num.terms and f.den == g.den


SUM_FACTORS = [(0, 1), (1, 1), (1, 2), (2, 1), (0, 2), (3, 1)]


@st.composite
def sum_cases(draw):
    """Two or more terms over a few shared denominators, whose factors come
    with multiplicities up to 3; optionally a term that cancels another
    over its denominator, wholly or in part, and a term over the common
    denominator itself, whose group misses no factor."""
    dens = draw(st.lists(st.dictionaries(st.sampled_from(SUM_FACTORS),
                                         st.integers(1, 3), max_size=4),
                         min_size=1, max_size=4))
    terms = [FactoredRationalFunction(draw(small_poly),
                                      draw(st.sampled_from(dens)))
             for _ in range(draw(st.integers(2, 8)))]
    if draw(st.booleans()):
        t = draw(st.sampled_from(terms))
        terms.append(FactoredRationalFunction(draw(small_poly) - t.num,
                                              t.den))
    if draw(st.booleans()):
        lcm = {}
        for t in terms:
            for e, m in t.den.items():
                lcm[e] = max(lcm.get(e, 0), m)
        terms.append(FactoredRationalFunction(draw(small_poly), lcm))
    return terms


@given(sum_cases())
@settings(max_examples=80, deadline=None)
def test_rf_sum_common_matches_per_group_lift(terms):
    assert _same_form(rf_sum_common(terms), _per_group_sum(terms))


def test_rf_sum_common_group_that_cancels():
    """Two terms cancel over their shared denominator, leaving that group
    with an empty numerator, and two others cancel in part."""
    f = lp({(0, 0): 1, (1, 1): 2})
    g = lp({(1, 0): 3})
    terms = [FactoredRationalFunction(f, {(0, 1): 2}),
             FactoredRationalFunction(-f, {(0, 1): 2}),
             FactoredRationalFunction(f, {(1, 1): 1}),
             FactoredRationalFunction(g - f, {(1, 1): 1}),
             FactoredRationalFunction(g, {(0, 1): 1, (1, 1): 1})]
    s = rf_sum_common(terms)
    assert _same_form(s, _per_group_sum(terms))
    assert rf_equal(s, FactoredRationalFunction(
        poly_mul(g, _binomial_poly(QT, (0, 1))) + g, {(0, 1): 1, (1, 1): 1}))


def test_rf_sum_common_of_many_denominators():
    """About 1500 terms, each over its own denominator drawn from 40
    factors, the size of the d = 4 per-word and cross-word sums: no
    RecursionError, and the same form as the per-group lift."""
    rng = random.Random(1301)
    factors = [(a, b) for a in range(8) for b in range(1, 6)]
    dens = set()
    while len(dens) < 1500:
        dens.add(frozenset(rng.sample(factors, rng.randint(34, 39))))
    terms = []
    for den in sorted(dens, key=sorted):
        num = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 4)
               for _ in range(rng.randint(1, 3))}
        terms.append(FactoredRationalFunction(
            lp(num), {e: 1 + (e[0] == 0) for e in den}))
    s = rf_sum_common(terms)
    assert sum(s.den.values()) == 45
    assert _same_form(s, _per_group_sum(terms))


@given(small_poly, den_strategy)
@settings(max_examples=30, deadline=None)
def test_normalize_preserves_value(n, d):
    f = FactoredRationalFunction(n, d)
    g = rf_normalize(f)
    assert rf_equal(f, g)


@given(small_poly, den_strategy)
@settings(max_examples=30, deadline=None)
def test_invert_vars_involution(n, d):
    f = FactoredRationalFunction(n, d)
    g = rf_invert_vars(rf_invert_vars(f))
    assert rf_equal(f, g)


def test_upoly_div_linear():
    # (2s - 3)(s - 1) = 2s^2 - 5s + 3
    p = upoly_mul([-3, 2], [-1, 1])
    assert p == [3, -5, 2]
    assert upoly_div_linear(p, (2, 3)) == [-1, 1]
    assert upoly_div_linear([1, 1], (2, 3)) is None


def test_lff_sum_and_equal():
    # 1/(s-1) + 1/(s-2) = (2s-3)/((s-1)(s-2))
    f = LinearFactoredFunction([1], {(1, 1): 1})
    g = LinearFactoredFunction([1], {(1, 2): 1})
    h = lff_sum([f, g])
    assert lff_equal(h, LinearFactoredFunction([-3, 2], {(1, 1): 1, (1, 2): 1}))
    x = Fraction(7, 2)
    assert (sum(c * x ** i for i, c in enumerate(h.num))
            / prod((b * x - a) ** m for (b, a), m in h.den.items())
            == 1 / (x - 1) + 1 / (x - 2))


def test_lff_sum_cancellation():
    # 1/(s-1) - 1/(s-1) = 0
    f = LinearFactoredFunction([1], {(1, 1): 1})
    g = LinearFactoredFunction([-1], {(1, 1): 1})
    assert lff_sum([f, g]).is_zero()
    assert lff_sum([]).is_zero()
    # equal denominators add first; the sum is normalized once
    # 2/(s-1) + (4-2s)/((s-1)(2s-3)) = 2/(2s-3)
    h = lff_sum([f, f, LinearFactoredFunction([4, -2], {(1, 1): 1,
                                                        (2, 3): 1})])
    assert h.num == [2] and h.den == {(2, 3): 1}


LINEAR_FACTORS = [(1, 0), (1, 1), (2, 2), (1, 2), (2, 3), (3, 7)]
small_upoly = st.lists(st.integers(-5, 5), max_size=4)


@st.composite
def linear_sum_cases(draw):
    """sum_cases for the topological carrier, from zero terms up: factors
    b*s - a with multiplicities up to 3 (2s - 2 and s - 1 share their
    root), optionally a term that cancels another over its denominator,
    wholly or in part, and a term over the common denominator itself."""
    dens = draw(st.lists(st.dictionaries(st.sampled_from(LINEAR_FACTORS),
                                         st.integers(1, 3), max_size=4),
                         min_size=1, max_size=4))
    terms = [LinearFactoredFunction(draw(small_upoly),
                                    draw(st.sampled_from(dens)))
             for _ in range(draw(st.integers(0, 8)))]
    if terms and draw(st.booleans()):
        t = draw(st.sampled_from(terms))
        terms.append(LinearFactoredFunction(
            upoly_add(draw(small_upoly), [-c for c in t.num]), t.den))
    if draw(st.booleans()):
        lcm = {}
        for t in terms:
            for f, m in t.den.items():
                lcm[f] = max(lcm.get(f, 0), m)
        terms.append(LinearFactoredFunction(draw(small_upoly), lcm))
    return terms


def _same_linear_form(f, g):
    return f.num == g.num and f.den == g.den


@given(linear_sum_cases())
@settings(max_examples=80, deadline=None)
def test_lff_sum_matches_per_group_lift(terms):
    assert _same_linear_form(lff_sum(terms), lff_sum_per_group(terms))


def test_lff_sum_matches_per_group_lift_on_d3_terms(monkeypatch):
    """The top-dimensional pieces of the d=3 sweep (18 of them)."""
    from nilzeta import zeta
    captured = []

    def keep(terms):
        captured.append(list(terms))
        return lff_sum(captured[-1])

    monkeypatch.setattr(zeta, "lff_sum", keep)
    value = zeta.zeta_all(3, ("topological",))["topological"].value
    [terms] = captured
    assert len(terms) > 1
    assert _same_linear_form(value, lff_sum_per_group(terms))
    assert lff_equal(value, golden_topological(3))


@given(linear_sum_cases())
@settings(max_examples=60, deadline=None)
def test_lff_equal_matches_full_cross_multiplication(terms):
    """Against every term, the sum itself, the sum off by one and the sum
    with a factor put on both sides of the fraction."""
    s = lff_sum(terms)
    b, a = LINEAR_FACTORS[3]
    den = dict(s.den)
    den[(b, a)] = den.get((b, a), 0) + 1
    forms = [s, LinearFactoredFunction(upoly_add(s.num, [1]), s.den),
             LinearFactoredFunction(upoly_mul(s.num, [-a, b]), den), *terms]
    for f in forms:
        for g in forms[:3]:
            assert lff_equal(f, g) == lff_equal_full(f, g), (f, g)
    assert lff_equal(forms[2], s) and not lff_equal(forms[1], s)


def test_lff_degree():
    f = LinearFactoredFunction([3], {(2, 3): 1, (1, 1): 1, (1, 0): 1})
    assert f.degree() == -3


# -- binomial factors (1 - Z^e) ---------------------------------------------

def _arena(n):
    return tuple(f"z{i}" for i in range(n))


@st.composite
def poly_and_binomial(draw):
    """(f, e) with f a Laurent polynomial in 1-3 variables and e >= 0
    nonzero in the same arena."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    f = LaurentPolynomial(_arena(n), draw(st.dictionaries(
        exps, st.integers(-3, 3), max_size=5)))
    e = draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
    return f, e


def _binomial_poly(vars, e):
    """The polynomial 1 - Z^e, written out term by term: the divisor and
    factor the binomial routines are checked against."""
    return LaurentPolynomial(vars, {(0,) * len(vars): 1, tuple(e): -1})


def _binomial_power(vars, e, k):
    p = LaurentPolynomial.one(vars)
    for _ in range(k):
        p = poly_mul(p, _binomial_poly(vars, e))
    return p


@given(poly_and_binomial(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_div_binomial_matches_exact_div(fe, k):
    f, e = fe
    p = poly_mul(f, _binomial_power(f.vars, e, k))
    q = poly_div_binomial(p, e)
    assert q == poly_exact_div(p, _binomial_poly(p.vars, e))
    assert poly_mul(q, _binomial_poly(p.vars, e)) == p


@given(poly_and_binomial())
@settings(max_examples=100, deadline=None)
def test_div_binomial_agrees_on_nondivisible(fe):
    f, e = fe
    try:
        expected = poly_exact_div(f, _binomial_poly(f.vars, e))
    except NotDivisible:
        expected = None
    assert poly_div_binomial(f, e) == expected


def test_div_binomial_carries_across_gaps():
    vars = _arena(2)
    e = (1, 2)
    # 1 - Z^{3e} = (1 - Z^e)(1 + Z^e + Z^{2e})
    p = LaurentPolynomial(vars, {(0, 0): 1, (3, 6): -1})
    assert poly_div_binomial(p, e) == LaurentPolynomial(
        vars, {(0, 0): 1, (1, 2): 1, (2, 4): 1})
    # a line with missing interior points, beside a second line
    p = LaurentPolynomial(vars, {(-1, 0): 2, (1, 4): -1, (3, 8): -1,
                                 (0, 1): 1, (1, 3): -1})
    q = LaurentPolynomial(vars, {(-1, 0): 2, (0, 2): 2, (1, 4): 1,
                                 (2, 6): 1, (0, 1): 1})
    assert poly_div_binomial(p, e) == q
    assert poly_exact_div(p, _binomial_poly(vars, e)) == q
    # each line sums to zero but one, so there is no quotient
    p = LaurentPolynomial(vars, {(0, 0): 1, (1, 2): -1, (0, 1): 1})
    assert poly_div_binomial(p, e) is None


@given(poly_and_binomial(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_mul_binomial_matches_poly_mul(fe, m):
    f, e = fe
    # f over no denominator, written over (1 - Z^e)^m
    assert rf_with_denominator(FactoredRationalFunction(f), {e: m}) \
        == poly_mul(f, _binomial_power(f.vars, e, m))


def test_with_denominator_not_divisible():
    f = FactoredRationalFunction(LaurentPolynomial.one(QT), {(0, 1): 1})
    assert rf_with_denominator(f, {(0, 1): 2}) == lp({(0, 0): 1, (0, 1): -1})
    with pytest.raises(NotDivisible):
        rf_with_denominator(f, {(1, 1): 1})


# -- the packed kernels against the tuple-keyed reference --------------------

# offsets that put a polynomial's exponents at 2^31 and beyond
BIG_OFFSETS = [0, 0, 2**31, -2**33, 2**40]


@st.composite
def packed_arena(draw):
    """(vars, poly, factor): an arena of 1, 2 or 4 variables; a strategy
    for Laurent polynomials there, all with their exponents near one offset
    (so that no line of a factor is long); and a strategy for factor
    exponents >= 0, whose first nonzero entry (anywhere, as in (0, 2) or
    (0, 0, 3, 1)) is at most 3 and whose later entries may be 2^31 more.
    No factor is then a multiple of another by more than 3, so no quotient
    walks a line of 2^31 steps."""
    n = draw(st.sampled_from([1, 2, 4]))
    vars = _arena(n)
    offset = draw(st.tuples(*[st.sampled_from(BIG_OFFSETS)] * n))

    @st.composite
    def poly(draw):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * n),
                                     st.integers(-4, 4).filter(bool),
                                     max_size=6))
        return LaurentPolynomial(vars, {tuple(map(sum, zip(offset, e))): c
                                        for e, c in terms.items()})

    @st.composite
    def factor(draw):
        e = list(draw(st.tuples(*[st.integers(0, 3)] * n).filter(any)))
        i = next(k for k, x in enumerate(e) if x)
        for j in range(i + 1, n):
            if e[j] and draw(st.booleans()):
                e[j] += 2**31
        return tuple(e)

    return vars, poly(), factor()


@st.composite
def packed_rf_terms(draw):
    """Two to five factored rational functions in one packed_arena, over a
    few shared denominators of up to three factors, each of multiplicity
    up to 2.  Factor entries are at most 3, but for at most one factor in
    an arena of two or more variables: it leads with 64, and its last
    entry is 2^31 or more.  The copies of the other factors move an
    exponent by less than 64, so no line of a factor joins two exponents
    2^31 apart, and no quotient walks such a line."""
    vars, poly, _ = draw(packed_arena())
    n = len(vars)
    factors = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                            min_size=1, max_size=4, unique=True))
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        later = st.sampled_from([0, 1, 2**31, 2**31 + 3])
        factors.append((0,) * i + (64,)
                       + draw(st.tuples(*[later] * (n - i - 2)))
                       + (2**31 + draw(st.integers(0, 3)),))
    dens = draw(st.lists(st.dictionaries(st.sampled_from(factors),
                                         st.integers(1, 2), max_size=3),
                         min_size=1, max_size=3))
    return [FactoredRationalFunction(draw(poly), draw(st.sampled_from(dens)))
            for _ in range(draw(st.integers(2, 5)))]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_poly_mul_matches_tuple_reference(data):
    _, poly, factor = data.draw(packed_arena())
    a, b = data.draw(poly), data.draw(poly)
    assert poly_mul(a, b).terms == poly_mul_tuples(a, b).terms
    e = data.draw(factor)
    assert _mul_binomial(a, e).terms == mul_binomial_tuples(a, e).terms


@given(st.data(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_packed_div_binomial_matches_tuple_reference(data, k):
    """On multiples of (1 - Z^e)^k, with e a packed_arena factor or a
    single entry of 2^31 and more, and on those plus a stray polynomial."""
    vars, poly, factor = data.draw(packed_arena())
    e = data.draw(st.one_of(factor, st.integers(0, len(vars) - 1).map(
        lambda i: tuple(2**31 + 5 if j == i else 0
                        for j in range(len(vars))))))
    p = data.draw(poly)
    for _ in range(k):
        p = mul_binomial_tuples(p, e)
    if data.draw(st.booleans()):
        p = p + data.draw(poly)
    q, ref = poly_div_binomial(p, e), poly_div_binomial_tuples(p, e)
    assert (q is None) == (ref is None)
    if q is not None:
        assert q.terms == ref.terms


@given(packed_rf_terms())
@settings(max_examples=100, deadline=None)
def test_packed_rf_kernels_match_tuple_reference(terms):
    s, ref = rf_sum_common(terms), rf_sum_common_tuples(terms)
    assert _same_form(s, ref)
    for f in terms:
        assert _same_form(rf_normalize(f), rf_normalize_tuples(f))
    # a sum against its terms written over one another's denominators
    for f, g in [(s, terms[0]), (terms[0], terms[1]), (s, ref)]:
        assert rf_equal(f, g) == rf_equal_tuples(f, g)
    assert rf_equal(s, ref)


def test_div_binomial_keeps_lines_apart():
    """1 - q is not divisible by 1 - t^2: q^0 and q^1 lie on different
    lines of (0, 2), which a residue of the packed monomial would merge;
    the answer comes at once."""
    assert poly_div_binomial(lp({(0, 0): 1, (1, 0): -1}), (0, 2)) is None
    # a base x - ke whose later entries lie far outside the exponents'
    # own range, beside one that does not: (5, -4) and (0, 0) for e = (2, 6)
    p = lp({(0, 0): 1, (2, 6): -1, (5, -4): 1, (7, 2): -1})
    assert poly_div_binomial(p, (2, 6)) == lp({(0, 0): 1, (5, -4): 1})
    assert poly_div_binomial(lp({(0, 0): 1, (5, -4): -1}), (2, 6)) is None


def test_packing_keeps_a_zero_variable_constant():
    """An arena of no variables packs into no slot: its one monomial, the
    constant, still multiplies."""
    a, b = LaurentPolynomial((), {(): 2}), LaurentPolynomial((), {(): 3})
    assert poly_mul(a, b).terms == poly_mul_tuples(a, b).terms == {(): 6}
    assert poly_mul(b, LaurentPolynomial.zero(())).is_zero()
