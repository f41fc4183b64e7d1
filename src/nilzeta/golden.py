"""Frozen closed forms used as regression targets.

These are the known explicit formulas for small d, validated independently
against the brute-force oracle and the functional equation.  For d=3 the
denominator carries the factor (1 - q^8 t^3); it is required both by the
t-degree count of the functional equation and by the oracle's series
coefficients.
"""

from fractions import Fraction

from .arith import (
    FactoredRationalFunction,
    LaurentPolynomial,
    LinearFactoredFunction,
    poly_mul,
)

QT = ("q", "t")
T = ("t",)

C_CONSTANTS = {
    2: Fraction(3, 4),
    3: Fraction(25, 54),
    4: Fraction(569, 2304),
    5: Fraction(3800243, 32400000),
    6: Fraction(8743819, 172800000),
}


def _qt(terms):
    return LaurentPolynomial(QT, dict(terms))


def _t(coeffs):
    return LaurentPolynomial(T, {(i,): c for i, c in enumerate(coeffs) if c})


def golden_padic(d):
    """The full bivariate closed form, or None when only partial data is
    known."""
    if d == 2:
        return FactoredRationalFunction(
            _qt({(0, 0): 1, (3, 3): -1}),
            {(3, 2): 1, (2, 2): 1, (0, 1): 1, (1, 1): 1})
    if d == 3:
        num = poly_mul(_qt({(0, 0): 1, (8, 4): -1}),
                       golden_padic_numerator_w23())
        return FactoredRationalFunction(
            num,
            {(0, 1): 1, (1, 1): 1, (2, 1): 1,
             (4, 2): 1, (5, 2): 1, (6, 2): 1,
             (6, 3): 1, (7, 3): 1, (8, 3): 1})
    return None


def golden_padic_numerator_w23():
    """The degree-(16, 8) palindromic numerator factor for d=3."""
    return _qt({(0, 0): 1, (3, 2): 1, (4, 2): 1, (5, 2): 1,
                (4, 3): -1, (5, 3): -1, (6, 3): -1,
                (7, 4): -1, (9, 4): -1,
                (10, 5): -1, (11, 5): -1, (12, 5): -1,
                (11, 6): 1, (12, 6): 1, (13, 6): 1, (16, 8): 1})


def padic_denominator_multiset(d):
    """Known denominator factor multisets {(q-exp, t-exp): multiplicity}."""
    if d == 2:
        return {(3, 2): 1, (2, 2): 1, (0, 1): 1, (1, 1): 1}
    if d == 3:
        return dict(golden_padic(3).den)
    if d == 4:
        factors = [(27, 7), (25, 7), (25, 6), (28, 7), (22, 5), (22, 5),
                   (21, 5), (17, 4), (15, 4), (13, 4), (26, 6), (13, 3),
                   (11, 3), (18, 4), (9, 2), (12, 3), (24, 6), (16, 4),
                   (14, 4), (9, 3), (12, 4), (1, 1), (0, 1)]
        out = {}
        for f in factors:
            out[f] = out.get(f, 0) + 1
        return out
    return None


def golden_reduced(d):
    if d == 2:
        return FactoredRationalFunction(
            _t([1, 1, 1]), {(2,): 2, (1,): 1})
    if d == 3:
        return FactoredRationalFunction(
            _t([1, 2, 7, 9, 12, 9, 7, 2, 1]),
            {(3,): 3, (2,): 2, (1,): 1})
    if d == 4:
        return FactoredRationalFunction(
            _t([1, 2, 15, 30, 87, 156, 284, 414, 562, 658, 703,
                658, 562, 414, 284, 156, 87, 30, 15, 2, 1]),
            {(1,): 2, (3,): 4, (4,): 4})
    if d == 5:
        half = [1, 4, 30, 115, 431, 1330, 3709, 9185, 20876, 43410,
                83737, 150127, 252056, 397040, 589457, 826057, 1095916,
                1377780, 1644507, 1864452, 2010117]
        coeffs = half + [2060784] + half[::-1]
        return FactoredRationalFunction(
            _t(coeffs), {(5,): 5, (3,): 5, (4,): 4, (1,): 1})
    return None


def golden_topological(d):
    if d == 2:
        # 3 / (2 (2s-3)(s-1) s)
        return LinearFactoredFunction(
            [Fraction(3, 2)], {(2, 3): 1, (1, 1): 1, (1, 0): 1})
    if d == 3:
        # (25 s^2 - 94 s + 84) / (3 (3s-7)(3s-8)(2s-5)(s-1)(s-2)^2 (s-3) s)
        return LinearFactoredFunction(
            [Fraction(84, 3), Fraction(-94, 3), Fraction(25, 3)],
            {(3, 7): 1, (3, 8): 1, (2, 5): 1, (1, 1): 1, (1, 2): 2,
             (1, 3): 1, (1, 0): 1})
    if d == 4:
        num = [-639268261271640000, 2230351512292203300,
               -3584726815997417886, 3514612915281294714,
               -2345400850582061927, 1125038325014124489,
               -399106101276334990, 106022910302150804,
               -21092307321737791, 3103756047141233,
               -328379597912246, 23656166485364,
               -1040066363064, 21078036000]
        den = {(7, 25): 1, (7, 27): 1, (6, 25): 1, (5, 21): 1, (5, 22): 2,
               (4, 13): 1, (4, 15): 1, (4, 17): 1, (3, 11): 1, (3, 13): 2,
               (2, 7): 1, (2, 9): 2, (1, 1): 1, (1, 3): 2, (1, 4): 4,
               (1, 0): 1}
        return LinearFactoredFunction(
            [Fraction(c, 168) for c in num], den)
    return None


def topological_denominator_multiset(d):
    if d in (2, 3, 4):
        return dict(golden_topological(d).den)
    if d == 5:
        factors = [(38, 225), (37, 223), (35, 216), (31, 199), (31, 200),
                   (29, 189), (29, 190), (26, 165), (25, 153), (25, 161),
                   (25, 166), (23, 151), (23, 153), (22, 141), (22, 145),
                   (21, 130), (20, 131), (19, 112), (19, 122), (17, 93),
                   (17, 108), (17, 112), (17, 113), (15, 89), (14, 85),
                   (13, 70), (13, 81), (13, 82), (13, 88), (12, 77),
                   (11, 71), (11, 72), (10, 63), (10, 63), (9, 44),
                   (9, 46), (9, 47), (9, 55), (9, 58), (9, 58), (9, 59),
                   (8, 45), (8, 51), (8, 53), (8, 53), (7, 41), (7, 43),
                   (7, 43), (7, 46), (7, 46), (6, 37), (5, 21), (5, 22),
                   (5, 23), (5, 24), (5, 31), (5, 32), (5, 33), (5, 33),
                   (4, 21), (4, 23), (4, 23), (4, 23), (4, 25), (3, 14),
                   (3, 16), (3, 17), (3, 19), (3, 19), (3, 20), (3, 20),
                   (2, 11), (2, 11), (2, 13), (2, 13), (2, 13), (1, 1),
                   (1, 2), (1, 3), (1, 4), (1, 4), (1, 6), (1, 6), (1, 6),
                   (1, 6), (1, 0)]
        out = {}
        for f in factors:
            out[f] = out.get(f, 0) + 1
        return out
    return None
