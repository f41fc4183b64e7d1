"""Reciprocity and identity properties of the cone generating functions."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from nilzeta.arith import (
    LaurentPolynomial,
    poly_mul,
    rf_equal,
    rf_invert_vars,
    rf_sum_common,
)
from nilzeta.combinat import gaussian_multinomial
from nilzeta.cones import DiophantineMonoid, genfun_region
from nilzeta.zeta import (
    enumerate_Wd,
    hij_region_sets,
    no_overlap_monoid,
    region_of_wpair,
)
from reference_impls import coxeter_length, descent_set, rf_substitute


def _vars(m):
    return tuple(f"z{i + 1}" for i in range(m))


def _negate(f):
    return type(f)(f.num.scale(-1), dict(f.den))


def _signed(f, dim):
    return _negate(f) if dim % 2 else f


def _corpus_monoids():
    out = []
    for d in (2, 3):
        seen = set()
        for wp in enumerate_Wd(d):
            if wp.sigma in seen:
                continue
            seen.add(wp.sigma)
            out.append(DiophantineMonoid(wp.context.m, wp.context.phi))
    return out


def _check_interior_reciprocity(monoid):
    """Interior points at inverted arguments give back the closed cone."""
    vars = _vars(monoid.num_vars)
    top = frozenset().union(*[monoid.support(r) for r in monoid.rays()]) \
        if monoid.rays() else frozenset()
    closed = genfun_region(monoid, frozenset(), top, vars)
    interior = genfun_region(monoid, top, top, vars)
    dim = monoid.face_dim(top)
    assert rf_equal(rf_invert_vars(interior), _signed(closed, dim))


def _check_face_reciprocity(monoid):
    vars = _vars(monoid.num_vars)
    for B in monoid.face_lattice():
        closed = genfun_region(monoid, frozenset(), B, vars)
        relative = genfun_region(monoid, B, B, vars)
        assert rf_equal(rf_invert_vars(relative),
                        _signed(closed, monoid.face_dim(B)))


def _check_variable_inversion(monoid, limit=40):
    vars = _vars(monoid.num_vars)
    faces = monoid.face_lattice()
    done = 0
    for C in faces:
        for A in faces:
            if not (A <= C and (C - A) in faces):
                continue
            lhs = rf_invert_vars(genfun_region(monoid, A, C, vars))
            rhs = genfun_region(monoid, C - A, C, vars)
            assert rf_equal(lhs, _signed(rhs, monoid.face_dim(C)))
            done += 1
            if done >= limit:
                return


@pytest.mark.parametrize("idx", range(len(_corpus_monoids())))
def test_interior_reciprocity_corpus(idx):
    _check_interior_reciprocity(_corpus_monoids()[idx])


@pytest.mark.parametrize("idx", range(len(_corpus_monoids())))
def test_face_reciprocity_corpus(idx):
    _check_face_reciprocity(_corpus_monoids()[idx])


@pytest.mark.parametrize("idx", range(len(_corpus_monoids())))
def test_variable_inversion_corpus(idx):
    _check_variable_inversion(_corpus_monoids()[idx])


def test_reciprocity_no_overlap_monoids():
    for d in (2, 3):
        monoid = no_overlap_monoid(d)
        _check_interior_reciprocity(monoid)
        _check_face_reciprocity(monoid)
        _check_variable_inversion(monoid, limit=20)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reciprocity_random_systems(data):
    m = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=2))
    rows = [tuple(data.draw(st.integers(min_value=-2, max_value=2))
                  for _ in range(m))
            for _ in range(k)]
    monoid = DiophantineMonoid(m, rows)
    _check_interior_reciprocity(monoid)
    _check_face_reciprocity(monoid)
    _check_variable_inversion(monoid, limit=10)


# ---------------------------------------------------------------------------
# Gaussian multinomials as descent-set sums.


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_multinomial_descent_set_sum(n):
    subsets = [frozenset(c) for r in range(n)
               for c in combinations(range(1, n), r)]
    for J in subsets:
        total = {}
        for sigma in permutations(range(1, n + 1)):
            if descent_set(sigma) <= J:
                e = (coxeter_length(sigma),)
                total[e] = total.get(e, 0) + 1
        assert LaurentPolynomial(("u",), total) == gaussian_multinomial(n, J)


# ---------------------------------------------------------------------------
# Self-reciprocity of the sign-pattern generating functions.


def _h_genfun(d, I, J, vars):
    monoid = no_overlap_monoid(d)
    A, C = hij_region_sets(d, I, J)
    full = genfun_region(monoid, A, C)
    m = monoid.num_vars
    images = [tuple(1 if j == i else 0 for j in range(m - 1))
              for i in range(m - 1)] + [(0,) * (m - 1)]
    return rf_substitute(full, images, vars)


def test_hij_reciprocity():
    for d in (2, 3):
        dp = d * (d - 1) // 2
        vars = _vars(d + dp)
        subsets_I = [frozenset(c) for r in range(d)
                     for c in combinations(range(1, d), r)]
        subsets_J = [frozenset(c) for r in range(dp)
                     for c in combinations(range(1, dp), r)]
        h = {(I, J): _h_genfun(d, I, J, vars)
             for I in subsets_I for J in subsets_J}
        x_shift = tuple(1 if i in (d - 1, d + dp - 1) else 0
                        for i in range(d + dp))
        full_I = frozenset(range(1, d))
        full_J = frozenset(range(1, dp))
        for K in subsets_I:
            for L in subsets_J:
                lhs = rf_sum_common(
                    [rf_invert_vars(h[(I, J)])
                     for I in subsets_I if K <= I
                     for J in subsets_J if L <= J], vars=vars)
                rhs = rf_sum_common(
                    [type(f)(f.num.shift(x_shift), dict(f.den))
                     for I in subsets_I if (full_I - K) <= I
                     for J in subsets_J if (full_J - L) <= J
                     for f in [h[(I, J)]]], vars=vars)
                assert rf_equal(lhs, _signed(rhs, d + dp))
