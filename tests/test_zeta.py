"""Assembled zeta functions against closed forms, invariants, bijections."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from nilzeta import zeta
from nilzeta.arith import (
    lff_equal,
    rf_equal,
    rf_series_coeffs,
    rf_sum_common,
)
from nilzeta.combinat import (
    alpha_count,
    corresponding_tuple,
    mu_of_lambda,
    omega_of_pair,
    dyck_of_sigma,
    partitions_upto,
    trivial_dyck_word,
)
from nilzeta.cones import DiophantineMonoid, decompose_region_by_face
from nilzeta.golden import (
    C_CONSTANTS,
    golden_padic,
    golden_padic_numerator_w23,
    golden_reduced,
    golden_topological,
    padic_denominator_multiset,
)
from nilzeta.zeta import (
    QT,
    SWEEP_KINDS,
    SigmaContext,
    T,
    WPair,
    check_functional_equation,
    c_constant,
    enumerate_Wd,
    _gaussian_product,
    _pair_exponents,
    _region_term,
    hij_region_sets,
    no_overlap_exponents,
    no_overlap_monoid,
    padic_at_zero_is_one,
    pole_report,
    region_of_wpair,
    wd_contains,
    zeta_all,
    zeta_no_overlap,
    zeta_overlap,
    zeta_padic,
    zeta_reduced,
    zeta_topological,
)
from reference_impls import (
    coordinates_of_pair,
    enumerate_script_S,
    feasible,
    pair_from_coordinates,
)
from test_output_forms import D4_PAIRS, D4_SET


@pytest.fixture(scope="module")
def z2():
    return zeta_padic(2)


@pytest.fixture(scope="module")
def z3():
    return zeta_padic(3)


def big_d(d):
    return d + d * (d - 1) // 2


# ---------------------------------------------------------------------------
# Pair families.


def test_w2_pairs():
    pairs = enumerate_Wd(2)
    assert [(sorted(p.I), p.sigma) for p in pairs] == \
        [([], (2, 1)), ([1], (2, 1))]


def test_wpair_equality_hash_and_repr():
    """Pairs are values: equal fields make equal, equally hashed pairs
    (what the pair memo keys and the ordering checks rely on)."""
    sigma = (3, 1, 2, 6, 4, 5)
    a = WPair(3, frozenset({1}), sigma)
    b = WPair(3, frozenset({1}), tuple(sigma))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash((3, frozenset({1}), sigma))
    assert len({a, b}) == 1 and {a: "x"}[b] == "x"
    assert a != WPair(3, frozenset({2}), sigma)
    assert a != WPair(3, frozenset({1}), (3, 1, 2, 6, 5, 4))
    assert a != (3, frozenset({1}), sigma)
    assert repr(a) == \
        "WPair(d=3, I=frozenset({1}), sigma=(3, 1, 2, 6, 4, 5))"
    assert enumerate_Wd(2) == [WPair(2, frozenset(), (2, 1)),
                               WPair(2, frozenset({1}), (2, 1))]


def test_results_compare_by_value():
    """ZetaResult and PoleReport compare field by field and, being
    mutable, are unhashable."""
    value = zeta.zeta_free_abelian(2)
    r = zeta.ZetaResult(2, "padic", value)
    assert r.provenance == {}
    assert r == zeta.ZetaResult(2, "padic", value, {})
    assert r != zeta.ZetaResult(2, "padic", value, {"pairs": 2})
    assert r != zeta.ZetaResult(3, "padic", value)
    assert repr(r) == (f"ZetaResult(d=2, kind='padic', value={value!r}, "
                       f"provenance={{}})")
    rep = zeta.PoleReport(2, 3, Fraction(-3, 4), -3, Fraction(1, 2),
                          Fraction(3, 4), Fraction(3, 4))
    assert rep == zeta.PoleReport(2, 3, Fraction(-3, 4), -3, Fraction(1, 2),
                                  Fraction(3, 4), Fraction(3, 4))
    assert rep != zeta.PoleReport(2, 3, Fraction(-3, 4), -3, Fraction(1, 2),
                                  Fraction(3, 4), Fraction(1, 4))
    for obj in (r, rep):
        with pytest.raises(TypeError):
            hash(obj)


def _one_subset_per_shuffle(pairs):
    """Every shuffle of the pairs comes with a single I: what lets the d=4
    sweep evict a shuffle's context right after its region."""
    return len({wp.sigma for wp in pairs}) == len(pairs)


def test_w3_size():
    pairs = enumerate_Wd(3)
    assert len(pairs) == 44
    assert _one_subset_per_shuffle(pairs)


def _pair_system_has_solution(d, I, sigma, bound):
    """Brute-force search for the defining system over r alone."""
    from nilzeta.combinat import corresponding_tuple
    dp = d * (d - 1) // 2
    pos = {v: k for k, v in enumerate(sigma)}
    pairs = range(dp + 1, 2 * dp + 1)
    v = {i: corresponding_tuple(d, i)[:d] for i in pairs}
    for r in product(range(bound + 1), repeat=d):
        if not any(r):
            continue
        if any((r[i - 1] > 0) != (i in I) for i in range(1, d)):
            continue
        ok = True
        for i in pairs:
            for j in pairs:
                if i == j or pos[i] >= pos[j]:
                    continue
                val = sum((v[i][k] - v[j][k]) * r[k] for k in range(d))
                if val < 0 or (i < j and val == 0):
                    ok = False
        if ok:
            return True
    return False


def test_wd_matches_bounded_search():
    # the exact feasibility test agrees with bounded integer search over r
    for d in (2, 3):
        for sigma in enumerate_script_S(d):
            for I in _subsets(d - 1):
                assert wd_contains(d, I, sigma) == \
                    _pair_system_has_solution(d, set(I), sigma, 6)


def test_nonempty_region_implies_membership():
    # a region with a face strictly between its support bounds always
    # comes from an admitted pair; the converse can fail (zero regions)
    for d in (2, 3):
        for sigma in enumerate_script_S(d):
            for I in _subsets(d - 1):
                wp = WPair(d, frozenset(I), tuple(sigma))
                monoid, A, C, _ = region_of_wpair(wp)
                has_point = any(
                    A <= B <= C and B
                    for B in monoid.face_lattice())
                if has_point:
                    assert wd_contains(d, I, sigma)


def _subsets(n):
    from itertools import combinations
    out = []
    for k in range(n + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


def _full_system_contains(d, I, sigma):
    """Membership by the system over all d unknowns, with r_i = 0 for i in
    [d-1] outside I as two inequalities, and a constraint for every ordered
    pair of pairwise-sum values: the reference for wd_contains, which keeps
    only the unknowns in I and d and only consecutive pairs."""
    dp = d * (d - 1) // 2
    order = [x for x in sigma if x > dp]
    ineqs = []
    for i in range(1, d + 1):
        unit = tuple(int(k == i) for k in range(1, d + 1))
        ineqs.append((unit, int(i in I)))
        if i < d and i not in I:
            ineqs.append((tuple(-x for x in unit), 0))
    v = {x: corresponding_tuple(d, x)[:d] for x in order}
    for a, b in combinations(order, 2):
        ineqs.append((tuple(p - q for p, q in zip(v[a], v[b])), int(a < b)))
    ineqs.append(((1,) * d, 1))
    return feasible(ineqs, d)


# the (I, order of the values > d') that W_4 admits; each order for one I
W4_ADMITTED = [
    ((), (12, 11, 10, 9, 8, 7)),
    ((1,), (9, 8, 7, 12, 11, 10)),
    ((1, 2), (7, 9, 8, 11, 10, 12)),
    ((1, 2, 3), (7, 8, 9, 10, 11, 12)),
    ((1, 2, 3), (7, 8, 10, 9, 11, 12)),
    ((1, 3), (8, 7, 9, 10, 12, 11)),
    ((1, 3), (8, 7, 10, 9, 12, 11)),
    ((2,), (7, 11, 10, 9, 8, 12)),
    ((2, 3), (7, 10, 8, 11, 9, 12)),
    ((3,), (10, 8, 7, 12, 11, 9)),
]

# sha256 of repr([(sorted(wp.I), wp.sigma) for wp in enumerate_Wd(4)]),
# taken when membership was still tested shuffle by shuffle over all of S_4
W4_DIGEST = \
    '35e19e4b5560c74c1662fd1c428030ba1e21f087e02c1dc0c882ba72b3acd4ff'


def test_wd_contains_matches_the_full_system():
    """wd_contains against the full system, on order prefixes too, which
    _admitted_orders asks about: a prefix is tested on the constraints
    among its own values.  Every (I, prefix) at d = 2 and 3; at d = 4 a
    sample of full orders, every prefix of the admitted orders, and a
    seeded sample of the other prefixes."""
    for d in (2, 3):
        dp = d * (d - 1) // 2
        values = range(dp + 1, 2 * dp + 1)
        for I in _subsets(d - 1):
            for k in range(dp + 1):
                for prefix in permutations(values, k):
                    assert wd_contains(d, I, prefix) == \
                        _full_system_contains(d, set(I), prefix), (I, prefix)
    others = [(I, order) for I in _subsets(3)
              for order in permutations(range(7, 13))
              if (I, order) not in W4_ADMITTED]
    assert len(others) == 8 * 720 - 10
    sample = W4_ADMITTED + random.Random(1414).sample(others, 200)
    for I, order in sample:
        expected = (I, order) in W4_ADMITTED
        assert wd_contains(4, I, order) == expected, (I, order)
        assert _full_system_contains(4, set(I), order) == expected, (I, order)
    admitted = sorted({(I, order[:k]) for I, order in W4_ADMITTED
                       for k in range(7)})
    for I, prefix in admitted:
        assert wd_contains(4, I, prefix), (I, prefix)
        assert _full_system_contains(4, set(I), prefix), (I, prefix)
    others = [(I, prefix) for I in _subsets(3) for k in range(7)
              for prefix in permutations(range(7, 13), k)
              if (I, prefix) not in admitted]
    assert len(admitted) + len(others) == 8 * 1957
    outcomes = set()
    for I, prefix in random.Random(2424).sample(others, 300):
        expected = _full_system_contains(4, set(I), prefix)
        assert wd_contains(4, I, prefix) == expected, (I, prefix)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_w4_is_pinned():
    pairs = enumerate_Wd(4)
    assert len(pairs) == 9030
    admitted = {(tuple(sorted(wp.I)), tuple(x for x in wp.sigma if x > 6))
                for wp in pairs}
    assert sorted(admitted) == W4_ADMITTED
    assert _one_subset_per_shuffle(pairs)
    text = repr([(sorted(wp.I), wp.sigma) for wp in pairs])
    assert hashlib.sha256(text.encode()).hexdigest() == W4_DIGEST


def test_orders_are_pruned_by_prefix(monkeypatch):
    """enumerate_Wd tests prefixes of the orders and cuts every refused
    one: at d=4 it admits the 10 (I, order) of W_4 after 1,600 membership
    tests, not one test for each of the 8 * 720."""
    calls = []
    original = zeta.wd_contains

    def counted(d, I, sigma):
        calls.append(d)
        return original(d, I, sigma)

    monkeypatch.setattr(zeta, "wd_contains", counted)
    assert len(zeta.enumerate_Wd(3)) == 44
    assert len(calls) == 48
    calls.clear()
    pairs = zeta.enumerate_Wd(4)
    assert len(calls) == 1600
    assert len({(wp.I, tuple(x for x in wp.sigma if x > 6))
                for wp in pairs}) == len(W4_ADMITTED)


def test_phi_sigma_shape():
    rows = SigmaContext(3, (4, 5, 1, 6, 3, 2)).phi
    assert rows == [
        (0, 1, 0, 0, 0, 0, -1, 0, 0, 0),
        (1, 1, 2, -1, -1, -1, 0, -1, 0, 0),
        (0, -1, -2, 1, 1, 1, 0, 0, -1, 0),
        (0, 1, 2, 0, 0, -1, 0, 0, 0, -1),
    ]
    assert SigmaContext(2, (2, 1)).phi == [(1, 2, -1, -1)]


def test_numerical_map_values():
    exps = SigmaContext(3, (4, 5, 1, 6, 2, 3)).qt_exponents()
    assert exps[0] == (2, 1)
    assert exps[3] == (4, 1)
    exps2 = SigmaContext(2, (2, 1)).qt_exponents()
    assert exps2 == [(1, 1), (0, 2), (2, 1), (0, 0)]


def test_numerical_map_no_overlap():
    exps = no_overlap_exponents(2)
    assert exps == [(1, 1), (0, 2), (2, 1), (0, 0)]


# ---------------------------------------------------------------------------
# Golden closed forms.


def test_padic_d2_golden(z2):
    assert rf_equal(z2.value, golden_padic(2))


def test_padic_d3_golden(z3):
    assert rf_equal(z3.value, golden_padic(3))


def test_padic_d3_numerator_w23(z3):
    from nilzeta.arith import poly_mul, poly_exact_div, LaurentPolynomial
    golden = golden_padic(3)
    # pin the numerator factorization, not only the rational function
    w = poly_exact_div(golden.num,
                       LaurentPolynomial(QT, {(0, 0): 1, (8, 4): -1}))
    assert w == golden_padic_numerator_w23()
    assert rf_equal(z3.value, golden)


def test_reduced_golden():
    for d in (2, 3):
        assert rf_equal(zeta_reduced(d).value, golden_reduced(d))


def test_topological_golden():
    for d in (2, 3):
        assert lff_equal(zeta_topological(d).value, golden_topological(d))


def test_c_constants():
    for d in (2, 3):
        assert c_constant(d) == C_CONSTANTS[d]


# sha256 of the sorted-key JSON of zeta_topological(4).value, the full
# sweep's bytes
D4_TOPOLOGICAL_DIGEST = \
    '93183f6b2066edf2f587eb31e1e73cd626581936406ced7c1100d3db8ccb6c5c'


def test_d4_topological_and_c4_from_the_full_dimensional_pairs():
    """A pair's region has dimension at most |I| + |J| + 2, and only
    D-dimensional pieces reach the topological function and c_d; so the
    W_4 pairs with I = {1, 2, 3} and J = {1, ..., 5} (the 132 Dyck words
    times 2 orders) give the whole d=4 topological function and c_4.
    Their group orders reach 64."""
    full = [wp for wp in enumerate_Wd(4)
            if wp.I == {1, 2, 3} and wp.context.J == set(range(1, 6))]
    assert len(full) == 264
    res = zeta_all(4, ("topological", "c_d"), pairs=full)
    top = res["topological"].value
    text = json.dumps(top.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == D4_TOPOLOGICAL_DIGEST
    assert lff_equal(top, golden_topological(4))
    assert res["c_d"] == C_CONSTANTS[4] == Fraction(569, 2304)


def test_reduced_is_padic_at_q_1():
    from nilzeta.arith import rf_normalize, FactoredRationalFunction
    for d in (2, 3):
        z = zeta_padic(d).value
        num_t = z.num.substitute_monomials([(0,), (1,)], ("t",))
        den_t = {}
        for (a, b), m_ in z.den.items():
            den_t[(b,)] = den_t.get((b,), 0) + m_
        assert rf_equal(
            rf_normalize(FactoredRationalFunction(num_t, den_t)),
            zeta_reduced(d).value)


# ---------------------------------------------------------------------------
# Functional equations and specializations.


def test_functional_equations(z2, z3):
    assert check_functional_equation(z2.value, 3)
    assert check_functional_equation(z3.value, 6)
    # the q -> 1 form, zeta_red(1/t) = (-1)^D t^D zeta_red(t)
    for d in (2, 3):
        assert check_functional_equation(golden_reduced(d), big_d(d))


def test_functional_equation_no_overlap_and_overlaps():
    for d in (2, 3):
        D = big_d(d)
        assert check_functional_equation(zeta_no_overlap(d).value, D)
        for w in sorted({wp.context.dyck for wp in enumerate_Wd(d)}):
            assert check_functional_equation(zeta_overlap(d, w).value, D)


def test_overlap_partition(z2, z3):
    for d, z in ((2, z2), (3, z3)):
        words = sorted({wp.context.dyck for wp in enumerate_Wd(d)})
        total = rf_sum_common([zeta_overlap(d, w).value for w in words],
                              vars=QT)
        assert rf_equal(total, z.value)


def test_no_overlap_routes_agree():
    for d in (2, 3):
        assert rf_equal(zeta_no_overlap(d, "via_H").value,
                        zeta_no_overlap(d, "via_G").value)


def test_no_overlap_sign_patterns_are_pinned():
    """via_H sums 2^(d-1) 2^(d'-1) sign patterns, calling progress once
    for each, and reports them as its pairs."""
    for d, pieces in ((2, 3), (3, 32)):
        calls = []
        res = zeta_no_overlap(d, progress=lambda k, n: calls.append((k, n)))
        n = 2 ** (d - 1) * 2 ** (d * (d - 1) // 2 - 1)
        assert calls == [(k, n) for k in range(1, n + 1)]
        assert res.kind == "no_overlap"
        assert {k: v for k, v in res.provenance.items()
                if k != "seconds"} == {"pairs": n, "pieces": pieces}


def _count_contexts(monkeypatch):
    """Record the (d, sigma) of every SigmaContext the sweep builds."""
    built = []
    original = zeta.SigmaContext

    def counted(d, sigma):
        built.append((d, sigma))
        return original(d, sigma)

    monkeypatch.setattr(zeta, "SigmaContext", counted)
    return built


def test_overlap_builds_only_its_words_contexts(monkeypatch):
    built = _count_contexts(monkeypatch)
    zeta_overlap(3, "010101")
    word = (0, 1, 0, 1, 0, 1)
    expected = [(3, wp.sigma) for wp in enumerate_Wd(3)
                if dyck_of_sigma(3, wp.sigma) == word]
    assert 0 < len(expected) < 44
    assert sorted(built) == sorted(expected)


def test_a_sweep_builds_one_context_per_pair(monkeypatch):
    """Each pair of a sweep builds its own SigmaContext, once, and none is
    left on a pair afterwards: at d=2 the two pairs share the shuffle
    (2, 1) and still build one each, and a second sweep over the same
    pairs builds them all again."""
    built = _count_contexts(monkeypatch)
    for pairs in (enumerate_Wd(2), enumerate_Wd(3),
                  [WPair(4, frozenset(I), sigma) for I, sigma in D4_PAIRS]):
        for _ in range(2):
            built.clear()
            zeta_all(pairs[0].d, ("reduced",), pairs=pairs)
            assert built == [(wp.d, wp.sigma) for wp in pairs]
            assert all(wp._context is None for wp in pairs)


def test_padic_at_zero(z2, z3):
    assert padic_at_zero_is_one(z2.value, 3)
    assert padic_at_zero_is_one(z3.value, 6)


def test_pole_reports():
    for d in (2, 3):
        sweep = zeta_all(d, ("reduced", "topological", "c_d"))
        rep = pole_report(d, sweep["reduced"], sweep["topological"],
                          sweep["c_d"])
        D = big_d(d)
        assert rep.reduced_order_at_1 == D
        assert rep.reduced_residue_at_1 == (-1) ** D * C_CONSTANTS[d]
        assert rep.top_degree == -D
        import math
        assert rep.top_residue_at_0 == \
            Fraction((-1) ** (D - 1), math.factorial(D - 1))
        assert rep.top_limit_at_infinity == C_CONSTANTS[d]
        assert rep.consistent()


def test_padic_denominator_multisets(z2, z3):
    # each value can be written over the published denominator factors
    from nilzeta.arith import rf_with_denominator
    for d, z in ((2, z2), (3, z3)):
        num = rf_with_denominator(z.value, padic_denominator_multiset(d))
        assert all(c == int(c) for c in num.terms.values())
        assert num.terms.get((0, 0)) == 1


# ---------------------------------------------------------------------------
# Region membership bijections.


def _g_contains(wp, rs):
    """Sign/inequality description of a pair's projected solution set."""
    ctx = wp.context
    d, dp = ctx.d, ctx.dp
    r, s = rs[:d], rs[d:]
    if any(x < 0 for x in rs):
        return False
    for i in range(1, d):
        if (r[i - 1] > 0) != (i in wp.I):
            return False
    for j in range(1, dp):
        if (s[j - 1] > 0) != (j in ctx.J):
            return False
    for pos, i in enumerate(ctx.R):
        val = sum(w * x for w, x in zip(ctx.phi[pos][:d + dp], rs))
        if i in ctx.asc:
            if val <= 0:
                return False
        elif val < 0:
            return False
    return True


def _h_contains(d, I, J, rs):
    dp = d * (d - 1) // 2
    r, s = rs[:d], rs[d:]
    if any(x < 0 for x in rs):
        return False
    for i in range(1, d):
        if (r[i - 1] > 0) != (i in I):
            return False
    for j in range(1, dp):
        if (s[j - 1] > 0) != (j in J):
            return False
    return r[d - 2] + 2 * r[d - 1] - sum(s) >= 0


def _weighted_vectors(length, weights, max_weight):
    """All nonnegative integer tuples with sum(x_i * w_i) <= max_weight."""
    out = [()]
    for w in weights[:length]:
        out = [v + (x,) for v in out
               for x in range(
                   (max_weight - sum(a * b for a, b in
                                     zip(v, weights))) // w + 1)]
    return out


def _bounded_g_points(wp, max_weight):
    d, dp = wp.d, wp.context.dp
    weights = list(range(1, d + 1)) + list(range(1, dp + 1))
    return {v for v in _weighted_vectors(d + dp, weights, max_weight)
            if any(v) and _g_contains(wp, v)}


def test_region_projects_onto_g():
    # dropping the slack coordinates bijects the region with the
    # inequality-defined set; slacks are determined by the defining rows.
    # The region lives in the pair's own coordinates: a point of sigma's
    # coordinates is in it when it vanishes off the kept ones and its kept
    # ones are
    for d, bound in ((2, 6), (3, 4)):
        for wp in enumerate_Wd(d):
            ctx = wp.context
            monoid, A, C, keep = region_of_wpair(wp)
            for rs in _weighted_vectors(
                    d + ctx.dp,
                    list(range(1, d + 1)) + list(range(1, ctx.dp + 1)),
                    bound):
                slacks = [sum(w * x for w, x in zip(row[:d + ctx.dp], rs))
                          for row in ctx.phi]
                x = tuple(rs) + tuple(slacks)
                y = tuple(x[c] for c in keep)
                in_region = (all(v >= 0 for v in slacks)
                             and not any(v for c, v in enumerate(x)
                                         if c not in keep)
                             and monoid.contains(y)
                             and A <= monoid.support(y) <= C)
                assert in_region == _g_contains(wp, rs)


def test_pair_coordinates_bijection():
    # partition pairs with entrywise nu <= mu(lambda) biject with the
    # nonzero points of the pair regions, compatibly with the labelling
    for d, total in ((2, 6), (3, 4)):
        dp = d * (d - 1) // 2
        by_pair = {}
        for lam in partitions_upto(d, total):
            lam_d = (lam + (0,) * d)[:d]
            mu = mu_of_lambda(lam_d)
            for nu in partitions_upto(dp, total - sum(lam)):
                nu_d = (nu + (0,) * dp)[:dp]
                if any(nu_d[i] > mu[i] for i in range(dp)):
                    continue
                if not (any(lam_d) or any(nu_d)):
                    continue
                I, sigma = omega_of_pair(d, lam_d, nu_d)
                r, s = coordinates_of_pair(d, lam_d, nu_d)
                assert pair_from_coordinates(d, r, s) == (lam_d, nu_d)
                by_pair.setdefault((frozenset(I), sigma), set()).add(r + s)
        for wp in enumerate_Wd(d):
            expected = by_pair.pop((wp.I, wp.sigma), set())
            assert _bounded_g_points(wp, total) == expected
        assert not by_pair


def test_no_overlap_decomposition():
    # the sign-pattern regions of the single no-overlap inequality are
    # partitioned by the trivial-word shuffles
    for d, bound in ((2, 6), (3, 4)):
        dp = d * (d - 1) // 2
        word = trivial_dyck_word(d)
        weights = list(range(1, d + 1)) + list(range(1, dp + 1))
        trivial = [wp for wp in enumerate_Wd(d) if wp.context.dyck == word]
        for I in _subsets(d - 1):
            for J in _subsets(dp - 1):
                h_pts = {v for v in
                         _weighted_vectors(d + dp, weights, bound)
                         if any(v) and _h_contains(d, set(I), set(J), v)}
                union = set()
                for wp in trivial:
                    if wp.I == frozenset(I) and wp.context.J == set(J):
                        pts = _bounded_g_points(wp, bound)
                        assert not (union & pts)
                        union |= pts
                assert union == h_pts


# ---------------------------------------------------------------------------
# Structural invariants of the assembled sums.


def test_no_piece_with_zero_q_exponent_off_trivial_word():
    for d in (2, 3):
        word = trivial_dyck_word(d)
        for wp in enumerate_Wd(d):
            if wp.context.dyck == word:
                continue
            monoid, A, C, keep = region_of_wpair(wp)
            exps = _pair_exponents(wp, keep)
            for piece in (p for _, cells in
                          decompose_region_by_face(monoid, A, C)
                          for p in cells):
                for ray in piece.rays:
                    a = sum(x * e[0] for x, e in zip(ray, exps))
                    b = sum(x * e[1] for x, e in zip(ray, exps))
                    assert b > 0
                    assert a > 0


def test_shuffles_ending_in_the_descending_run_at_d4():
    """The ten W_4 shuffles ending 6,5,4,3,2,1 give one coordinate a
    negative q-exponent.  Their pairs still match the partition-pair count
    at q = 2 up to t^16, and the q-exponent map totals >= 0 on every ray
    and box point of their regions."""
    d, dp, N, p = 4, 6, 16, 2
    counts = {}
    for lam in partitions_upto(d, N):
        lam = (lam + (0,) * d)[:d]
        mu = mu_of_lambda(lam)
        for nu in partitions_upto(dp, N - sum(lam)):
            nu = (nu + (0,) * dp)[:dp]
            if any(a > b for a, b in zip(nu, mu)):
                continue
            I, sigma = omega_of_pair(d, lam, nu)
            if sigma[-6:] != (6, 5, 4, 3, 2, 1):
                continue
            weight = (alpha_count((lam[0],) * d, lam).evaluate((p,))
                      * alpha_count(mu, nu).evaluate((p,))
                      * p ** (d * sum(nu)))
            series = counts.setdefault((I, sigma), [0] * (N + 1))
            series[sum(lam) + sum(nu)] += weight
    assert len(counts) == 10
    for (I, sigma), expected in counts.items():
        wp = WPair(d, I, sigma)
        value = zeta_padic(d, pairs=[wp]).value
        assert rf_series_coeffs(value, p, N) == expected, (I, sigma)
        q_exps = [a for a, _ in wp.context.qt_exponents()]
        assert min(q_exps) < 0
        monoid, A, C, keep = region_of_wpair(wp)
        # the region's points, written back into sigma's coordinates
        for _, cells in decompose_region_by_face(monoid, A, C):
            for piece in cells:
                for y in list(piece.rays) + list(piece.box()):
                    x = [0] * len(q_exps)
                    for c, v in zip(keep, y):
                        x[c] = v
                    assert sum(a * b for a, b in zip(x, q_exps)) >= 0


def _pinned_region_pairs():
    """Every d=3 pair and every pinned d=4 pair."""
    d4 = dict.fromkeys(D4_PAIRS + D4_SET)
    return enumerate_Wd(3) + [WPair(4, frozenset(I), s) for I, s in d4]


def test_region_is_the_face_of_the_sigma_monoid_on_C():
    """A pair's own-coordinate region is the face of its shuffle's monoid
    on C: its rays, written back into sigma's coordinates at keep, are
    sigma's rays supported in C, in the same order, and A is renumbered
    along keep."""
    for wp in _pinned_region_pairs():
        ctx = wp.context
        full = DiophantineMonoid(ctx.m, ctx.phi)
        A_full, C_full = wp.region_sets()
        monoid, A, C, keep = region_of_wpair(wp)
        assert keep == tuple(sorted(C_full))
        assert C == frozenset(range(len(keep)))
        assert A == frozenset(keep.index(c) for c in A_full)
        back = []
        for ray in monoid.rays():
            x = [0] * ctx.m
            for c, v in zip(keep, ray):
                x[c] = v
            back.append(tuple(x))
        assert back == [r for r in full.rays()
                        if full.support(r) <= C_full], wp


def test_region_term_matches_the_sigma_monoid():
    """Each pair's term, from its own-coordinate region under its own map,
    is the term built on its shuffle's full monoid under the full map:
    the same numerator terms and the same denominator, in both arenas."""
    for wp in _pinned_region_pairs():
        ctx = wp.context
        monoid, A, C, keep = region_of_wpair(wp)
        own = decompose_region_by_face(monoid, A, C)
        full = decompose_region_by_face(DiophantineMonoid(ctx.m, ctx.phi),
                                        *wp.region_sets())
        u_poly = _gaussian_product(wp)
        for vars in (QT, T):
            f = _region_term(own, list(zip(*_pair_exponents(wp, keep))),
                             vars, u_poly)
            g = _region_term(full, list(zip(*ctx.qt_exponents())), vars,
                             u_poly)
            assert (f.num.terms, f.den) == (g.num.terms, g.den), (wp, vars)


# two W_4 pairs of bench/panel_d4.json whose regions have one system
SHARED_D4 = [
    ((2,), (7, 11, 10, 9, 8, 12, 1, 6, 5, 4, 3, 2)),
    ((2,), (7, 11, 10, 9, 8, 12, 2, 1, 6, 5, 4, 3)),
]


def _made_decompositions(monkeypatch):
    made = []
    original = zeta.decompose_region_by_face

    def counted(monoid, A, C):
        made.append((monoid, A, C))
        return original(monoid, A, C)

    monkeypatch.setattr(zeta, "decompose_region_by_face", counted)
    return made


def test_pairs_sharing_a_system_share_one_decomposition(monkeypatch):
    """Two W_4 pairs whose regions have the same restricted rows and A:
    the second reuses the first's decomposition, and each gives the same
    results, form for form, with the memo cleared and with it warm."""
    pairs = [WPair(4, frozenset(I), s) for I, s in SHARED_D4]
    systems = {(tuple(m.equations), A)
               for m, A, _, _ in map(region_of_wpair, pairs)}
    assert len(systems) == 1
    made = _made_decompositions(monkeypatch)
    kinds = ("padic", "reduced", "topological", "c_d")

    def forms(res):
        return {k: v if k == "c_d" else v.value.to_json_obj()
                for k, v in res.items()}

    cold = []
    for wp in pairs:
        monkeypatch.setattr(zeta, "_region_memo", {})
        cold.append(forms(zeta_all(4, kinds, pairs=[wp])))
    assert len(made) == 2
    made.clear()
    monkeypatch.setattr(zeta, "_region_memo", {})
    warm = [forms(zeta_all(4, kinds, pairs=[wp])) for wp in pairs]
    assert len(made) == 1
    assert warm == cold
    # the maps and weights are the pairs' own
    assert cold[0]["padic"] != cold[1]["padic"]


def test_a_forged_map_fails_on_a_memo_hit(monkeypatch):
    """The t-positivity check runs for every pair, also one whose region
    is read off the memo: a map with t total 0 on a region ray fails."""
    wp = WPair(4, frozenset(SHARED_D4[0][0]), SHARED_D4[0][1])
    monkeypatch.setattr(zeta, "_region_memo", {})
    zeta_padic(4, pairs=[wp])
    monoid, _, _, keep = region_of_wpair(wp)
    flat = {keep[j] for j, x in enumerate(monoid.rays()[0]) if x}
    original = zeta.SigmaContext.qt_exponents

    def forged(self):
        return [(a, 0 if c in flat else b)
                for c, (a, b) in enumerate(original(self))]

    monkeypatch.setattr(zeta.SigmaContext, "qt_exponents", forged)
    made = _made_decompositions(monkeypatch)
    with pytest.raises(AssertionError, match="without t-dependence"):
        zeta_padic(4, pairs=[wp])
    assert made == []


def test_no_ray_supported_only_on_slack():
    for d in (2, 3):
        for wp in enumerate_Wd(d):
            ctx = wp.context
            for ray in DiophantineMonoid(ctx.m, ctx.phi).rays():
                assert any(ray[: d + ctx.dp])


def test_sweep_builds_what_is_asked_and_agrees_with_the_full_sweep():
    same = {"padic": rf_equal, "reduced": rf_equal,
            "topological": lff_equal}
    for d in (2, 3):
        full = zeta_all(d)
        assert full["c_d"] == C_CONSTANTS[d]
        for n in range(1, len(SWEEP_KINDS) + 1):
            for kinds in combinations(SWEEP_KINDS, n):
                part = zeta_all(d, kinds)
                assert set(part) == set(kinds)
                for kind in kinds:
                    if kind == "c_d":
                        assert part[kind] == full[kind]
                    elif kind == "overlap":
                        assert part[kind].keys() == full[kind].keys()
                        for w, res in part[kind].items():
                            assert rf_equal(res.value,
                                            full[kind][w].value), (d, w)
                    else:
                        assert same[kind](part[kind].value,
                                          full[kind].value), (d, kinds)
        words = {"".join(map(str, wp.context.dyck)) for wp in enumerate_Wd(d)}
        assert set(full["overlap"]) == words
        for w, res in full["overlap"].items():
            alone = zeta_overlap(d, w)
            assert res.kind == alone.kind == f"overlap:{w}"
            assert rf_equal(res.value, alone.value), (d, w)
            for key in ("pairs", "pieces"):
                assert res.provenance[key] == alone.provenance[key], (d, w)
    with pytest.raises(ValueError):
        zeta_all(2, ("bogus",))


def test_gmc_mc_basics():
    """The Gaussian product is a polynomial in u = q^-1 with constant term
    1, so at q = 1 it is at least 1."""
    for wp in enumerate_Wd(3):
        g = _gaussian_product(wp)
        assert g.vars == ("u",)
        assert all(e[0] >= 0 for e in g.terms)
        assert g.terms.get((0,)) == 1
        assert sum(g.terms.values()) >= 1


def test_series_positive_coefficients(z3):
    coeffs = rf_series_coeffs(z3.value, 5, 4)
    assert all(c > 0 for c in coeffs)
    assert coeffs[0] == 1


def test_hij_region_sets_example():
    A, C = hij_region_sets(2, set(), set())
    assert A == frozenset()
    assert C == frozenset({1, 2, 3})
    monoid = no_overlap_monoid(2)
    assert monoid.rays()
