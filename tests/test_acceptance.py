"""Acceptance gate: one printed PASS/FAIL line per criterion.

Criteria involving d >= 4 run only when NILZETA_ACCEPT_SLOW is set; they
reuse results from the repository cache directory when present, otherwise
they recompute (about 90 s of CPU for the d=4 sweep of every kind, on a
2-core VM; criterion 6 then takes about 6 s more for the sweep's c_4).
"""

import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilzeta.arith import (
    FactoredRationalFunction,
    LaurentPolynomial,
    poly_exact_div,
    rf_equal,
    lff_equal,
    rf_with_denominator,
    NotDivisible,
)
from nilzeta.combinat import alpha_count, partitions_upto
from nilzeta.golden import (
    C_CONSTANTS,
    golden_padic,
    golden_padic_numerator_w23,
    golden_reduced,
    golden_topological,
    padic_denominator_multiset,
    topological_denominator_multiset,
)
from nilzeta.oracle import compare_routes
from nilzeta.zeta import (
    QT,
    check_functional_equation,
    c_constant,
    enumerate_Wd,
    load_result,
    padic_at_zero_is_one,
    pole_report,
    zeta_all,
    zeta_no_overlap,
    zeta_overlap,
    zeta_padic,
    zeta_reduced,
    zeta_topological,
)
from reference_impls import alpha_alt

SLOW = bool(os.environ.get("NILZETA_ACCEPT_SLOW"))
CACHE = Path(__file__).resolve().parent.parent / ".nilzeta-cache"

_d4 = {}


@pytest.fixture(autouse=True)
def _emit_criterion_lines(capfd):
    # re-emit the per-criterion PASS/FAIL lines past the output capture so
    # they always appear in the test log
    yield
    out, err = capfd.readouterr()
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    sys.stdout.write(out)
    sys.stderr.write(err)
    if lines:
        with capfd.disabled():
            print("\n" + "\n".join(lines), flush=True)


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _skip(criterion, detail):
    print(f"criterion {criterion}: SKIP - {detail}", flush=True)
    pytest.skip(detail)


def _d4_result(kind):
    if kind not in _d4:
        cached = load_result(str(CACHE), 4, kind)
        if cached is not None:
            _d4[kind] = cached
        else:
            _d4.update(zeta_all(4))
    return _d4[kind]


def test_criterion_1_padic_d2():
    t0 = time.time()
    z = zeta_padic(2)
    elapsed = time.time() - t0
    ok = rf_equal(z.value, golden_padic(2)) and elapsed < 5.0
    _line(1, ok, f"d=2 p-adic matches closed form ({elapsed:.2f}s)")


def test_criterion_2_padic_d3():
    t0 = time.time()
    z = zeta_padic(3)
    elapsed = time.time() - t0
    golden = golden_padic(3)
    w = poly_exact_div(golden.num,
                       LaurentPolynomial(QT, {(0, 0): 1, (8, 4): -1}))
    ok = (rf_equal(z.value, golden)
          and w == golden_padic_numerator_w23()
          and elapsed < 300.0)
    _line(2, ok, f"d=3 p-adic matches closed form incl. numerator W "
                 f"({elapsed:.1f}s)")


# sha256 of the sorted-key JSON of the d=4 p-adic numerator over
# padic_denominator_multiset(4) (2,068 terms, constant term 1, top monomial
# q^335 t^88), as this code computed it.  A regression pin, not an
# independent golden form: the checks beside it (the denominator, the
# functional equation, the value at s=0) are the independent ones.
D4_PADIC_NUMERATOR_DIGEST = \
    '83155a16ec7353b7b5cb7a6767c8ccc479c695399d6d27f71f87cd3dd2546bd0'


def test_criterion_3_padic_d4():
    if not SLOW:
        _skip(3, "d=4 p-adic gated; set NILZETA_ACCEPT_SLOW=1")
    z = _d4_result("padic")
    try:
        num = rf_with_denominator(z.value, padic_denominator_multiset(4))
        den_ok = num.terms.get((0, 0)) == 1
    except NotDivisible:
        num, den_ok = None, False
    pinned = num is not None and hashlib.sha256(json.dumps(
        FactoredRationalFunction(num).to_json_obj(),
        sort_keys=True).encode()).hexdigest() == D4_PADIC_NUMERATOR_DIGEST
    funeq_ok = check_functional_equation(z.value, 10)
    zero_ok = padic_at_zero_is_one(z.value, 10)
    _line(3, den_ok and pinned and funeq_ok and zero_ok,
          f"d=4 p-adic: 23-factor denominator={den_ok}, "
          f"pinned numerator={pinned}, "
          f"functional equation D=10={funeq_ok}, value at s=0 is 1={zero_ok}")


def test_criterion_4_reduced():
    ok = all(rf_equal(zeta_reduced(d).value, golden_reduced(d))
             for d in (2, 3))
    detail = "reduced d=2,3 match"
    if SLOW:
        t0 = time.time()
        ok4 = rf_equal(_d4_result("reduced").value, golden_reduced(4))
        ok = ok and ok4 and (time.time() - t0) < 1800
        detail += f", d=4 match={ok4}"
        g5 = golden_reduced(5)
        coeffs = [g5.num.terms.get((i,), 0) for i in range(43)]
        palindromic = coeffs == coeffs[::-1]
        from nilzeta.zeta import _t_series_at_one
        order, val = _t_series_at_one(g5.num)
        den_orders = sum(m for (b,), m in g5.den.items())
        residue = Fraction(val)
        for (b,), m in g5.den.items():
            residue /= Fraction(b) ** m
        ok5 = palindromic and residue == C_CONSTANTS[5]
        detail += (", stretch d=5 formula palindromic and residue c_5="
                   f"{ok5} (direct d=5 computation out of scale)")
        ok = ok and ok5
    else:
        detail += " (d=4 gated; set NILZETA_ACCEPT_SLOW=1)"
    _line(4, ok, detail)


def test_criterion_5_topological():
    ok = all(lff_equal(zeta_topological(d).value, golden_topological(d))
             for d in (2, 3))
    detail = "topological d=2,3 match"
    if SLOW:
        ok4 = lff_equal(_d4_result("topological").value,
                        golden_topological(4))
        ok = ok and ok4
        detail += f", d=4 match={ok4}"
        d5 = topological_denominator_multiset(5)
        ok5 = sum(d5.values()) == 83 and all(m >= 1 for m in d5.values())
        ok = ok and ok5
        detail += (", stretch d=5 denominator data frozen "
                   "(direct computation out of scale)")
    else:
        detail += " (d=4 gated; set NILZETA_ACCEPT_SLOW=1)"
    _line(5, ok, detail)


def test_criterion_6_c_constants():
    ok = (c_constant(2) == Fraction(3, 4)
          and c_constant(3) == Fraction(25, 54))
    detail = "c_2=3/4, c_3=25/54"
    if SLOW:
        c4 = c_constant(4)
        rep = pole_report(4, _d4_result("reduced"),
                          _d4_result("topological"), c_d=c4)
        ok4 = (c4 == C_CONSTANTS[4]
               and rep.reduced_residue_at_1 == C_CONSTANTS[4]
               and rep.top_limit_at_infinity == C_CONSTANTS[4])
        ok = ok and ok4
        detail += f", c_4={c4} from d=4 sweep={ok4}"
        detail += (", stretch c_5 cross-checked inside criterion 4; "
                   "direct d=5 sweep out of scale")
    else:
        detail += " (c_4 gated; set NILZETA_ACCEPT_SLOW=1)"
    _line(6, ok, detail)


def test_criterion_7_pole_reports():
    ds = (2, 3, 4) if SLOW else (2, 3)
    oks = []
    for d in ds:
        if d == 4:
            red, top = _d4_result("reduced"), _d4_result("topological")
        else:
            red, top = zeta_reduced(d), zeta_topological(d)
        oks.append(pole_report(d, red, top,
                               c_d=C_CONSTANTS[d]).consistent())
    _line(7, all(oks),
          "pole order/residue/degree/limit consistent for d in "
          f"{list(ds)}" + ("" if SLOW else " (d=4 gated)"))


def test_criterion_8_functional_equations():
    oks = []
    for d in (2, 3):
        D = d + d * (d - 1) // 2
        oks.append(check_functional_equation(zeta_padic(d).value, D))
        oks.append(check_functional_equation(zeta_no_overlap(d).value, D))
        words = sorted({wp.context.dyck for wp in enumerate_Wd(d)})
        for w in words:
            oks.append(check_functional_equation(zeta_overlap(d, w).value, D))
    _line(8, all(oks),
          f"functional equation for p-adic, no-overlap, and all "
          f"{len(oks) - 4} overlap types, d=2,3")


def test_criterion_9_oracle_routes():
    t0 = time.time()
    reports = [compare_routes(d, p, order, zeta_padic(d).value)
               for d, p, order in ((2, 2, 4), (2, 3, 3), (3, 2, 2))]
    elapsed = time.time() - t0
    ok = all(r.ok for r in reports) and elapsed < 600
    _line(9, ok, "assembled series = partial double sum = brute-force "
                 f"subalgebra counts for (2,2,4),(2,3,3),(3,2,2) "
                 f"({elapsed:.1f}s)")


def test_criterion_10_property_suites():
    # full suites live in test_properties.py / test_zeta.py /
    # test_combinat.py; spot-check each family here so the gate is
    # self-contained
    from test_properties import (
        _check_interior_reciprocity,
        _check_face_reciprocity,
        _check_variable_inversion,
        test_multinomial_descent_set_sum,
    )
    from test_zeta import (
        test_region_projects_onto_g,
        test_pair_coordinates_bijection,
        test_no_overlap_decomposition,
    )
    from nilzeta.cones import DiophantineMonoid
    from nilzeta.zeta import WPair
    ctx = WPair(2, frozenset({1}), (2, 1)).context
    monoid = DiophantineMonoid(ctx.m, ctx.phi)
    _check_interior_reciprocity(monoid)
    _check_face_reciprocity(monoid)
    _check_variable_inversion(monoid)
    test_multinomial_descent_set_sum(4)
    alpha_ok = all(
        alpha_count(lam, mu) == alpha_alt(lam, mu)
        for lam in partitions_upto(4, 8) if lam and max(lam) <= 4
        for mu in partitions_upto(4, sum(lam))
        if len(mu) <= len(lam) and all(
            (mu + (0,) * len(lam))[i] <= lam[i] for i in range(len(lam))))
    test_region_projects_onto_g()
    test_pair_coordinates_bijection()
    test_no_overlap_decomposition()
    _line(10, alpha_ok,
          "reciprocity, descent-set, alpha-equivalence (n<=4), and "
          "bijection property suites pass")
