"""Brute-force enumeration oracles and the three-route comparison."""

import ast
import os
from itertools import product

import pytest

from nilzeta.arith import rf_series_coeffs
from nilzeta.oracle import (
    GUARD,
    CapacityExceeded,
    _compositions,
    check_series_capacity,
    compare_routes,
    count_subalgebras,
    gss_partial,
    hnf_count,
    subalgebra_series,
)
from nilzeta.zeta import zeta_padic


def test_count_full_lattice():
    for d in (2, 3):
        for p in (2, 3):
            assert count_subalgebras(d, p, 0) == 1


def test_count_index_p_heisenberg():
    assert count_subalgebras(2, 2, 1) == 3
    assert count_subalgebras(2, 3, 1) == 4


def test_count_matches_series_coefficient():
    z = zeta_padic(2).value
    assert count_subalgebras(2, 3, 2) == rf_series_coeffs(z, 3, 2)[2]


def test_counts_monotone_sane():
    for n in range(4):
        assert count_subalgebras(2, 2, n) >= 1


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        count_subalgebras(4, 2, 8, guard=10)


def test_capacity_guard_bounds_the_rank():
    # index p^0 has one form, but rank 1,035 needs a buffer of 1,071,225
    # slots
    with pytest.raises(CapacityExceeded, match="rank 1035"):
        count_subalgebras(45, 2, 0, guard=10 ** 5)


def test_series_guard_is_the_enumeration_guard():
    # check_series_capacity stops at the first index the enumeration refuses
    d, p, n = 4, 2, 10
    with pytest.raises(CapacityExceeded) as early:
        check_series_capacity(d, p, 9)
    k = next(k for k in range(10) if hnf_count(n, k, p) > GUARD)
    check_series_capacity(d, p, k - 1)
    with pytest.raises(CapacityExceeded) as late:
        count_subalgebras(d, p, k)
    assert str(early.value) == str(late.value)


def test_hnf_count_agrees_with_enumeration():
    # total sublattice count of given index, independent closed form
    assert hnf_count(2, 1, 2) == 3
    assert hnf_count(2, 2, 2) == 7
    assert hnf_count(3, 1, 2) == 7


def test_hnf_count_is_the_composition_sum():
    # a diagonal p^a_0..p^a_(n-1) leaves p^(a_i (n-1-i)) choices above it
    for n in range(1, 7):
        for k in range(9):
            for p in (2, 3):
                by_diagonal = sum(
                    p ** sum(a * (n - 1 - i) for i, a in enumerate(diag))
                    for diag in product(range(k + 1), repeat=n)
                    if sum(diag) == k)
                assert hnf_count(n, k, p) == by_diagonal, (n, k, p)


def _compositions_by_recursion(total, parts):
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions_by_recursion(total - first, parts - 1)]


def test_compositions_keep_the_recursive_order():
    for parts in range(1, 7):
        for total in range(8):
            assert list(_compositions(total, parts)) == \
                _compositions_by_recursion(total, parts), (total, parts)


def test_gss_partial_small():
    assert gss_partial(2, 2, 1) == [1, 3]
    assert gss_partial(2, 2, 0) == [1]
    assert gss_partial(3, 2, 1)[1] == count_subalgebras(3, 2, 1)


def test_series_oracle_agreement():
    assert subalgebra_series(2, 2, 3) == [1, 3, 19, 43]
    assert gss_partial(2, 2, 3) == [1, 3, 19, 43]


@pytest.mark.parametrize("d,p,order",
                         [(2, 2, 5), (2, 3, 5), (2, 5, 4), (3, 2, 3),
                          (3, 3, 2)])
def test_enumeration_matches_gss_partial(d, p, order):
    # up to about 5 * 10^5 lattices per point, each tested on its own
    assert subalgebra_series(d, p, order) == gss_partial(d, p, order)


@pytest.mark.parametrize("d,p,order", [(2, 2, 4), (2, 3, 3), (3, 2, 2)])
def test_compare_routes(d, p, order):
    report = compare_routes(d, p, order, zeta_padic(d).value)
    assert report.ok, report.text()
    assert report.first_mismatch is None


def test_oracle_shares_no_code_with_the_assembly():
    """The oracle checks the cone and rational-function assembly, so it
    imports neither; the assembled function is passed in."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "nilzeta", "oracle.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level and not node.module:
                imported.update("." + a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    for name in ("zeta", "cones"):
        assert f".{name}" not in imported
        assert f"nilzeta.{name}" not in imported
