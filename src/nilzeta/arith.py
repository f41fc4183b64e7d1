"""Exact arithmetic for Laurent polynomials and factored rational functions.

Every generating function handled by this package is a rational function
whose denominator is a product of factors (1 - Z^alpha) for nonnegative
integer exponent vectors alpha.  This module keeps that factored shape:
denominators are never expanded, and all coefficients are exact rationals.

Variable arenas are tuples of variable names, e.g. ("q", "t") or
("X1", "X2", "Y1", "Z1").  At the API an exponent vector is a tuple of ints
of the arena's length; inside the binomial carrier's kernels a monomial is one
int, packed in slots as wide as each call's inputs need (_width).

Two carriers keep that shape: FactoredRationalFunction over binomials, and
LinearFactoredFunction over linear factors b*s - a, for the topological
zeta function.  Their sum, cancel loop, product by factors and equality are
written once (_sum_common, _cancel, _times, _equal), over each carrier's
add, multiply and exact divide by one factor.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import mul


class NotDivisible(Exception):
    """Raised when an exact polynomial division does not come out even."""


class ArenaMismatch(Exception):
    """Raised when operands live in different variable arenas."""


def _check_same_arena(a, b):
    if a.vars != b.vars:
        raise ArenaMismatch(f"arenas differ: {a.vars} vs {b.vars}")


class LaurentPolynomial:
    """A finite sum of terms coeff * Z^e with exact rational coefficients.

    terms maps exponent tuples (possibly with negative entries) to nonzero
    coefficients (int or Fraction).  Instances are treated as immutable.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {tuple(e): c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, c):
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def one(cls, vars):
        return cls.constant(vars, 1)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * len(self.vars): 1}

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        _check_same_arena(self, other)
        return LaurentPolynomial(self.vars,
                                 _add_terms(dict(self.terms), other.terms))

    def __neg__(self):
        return LaurentPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return LaurentPolynomial(self.vars, {e: c * x for e, x in self.terms.items()})

    def shift(self, e):
        """Multiply by the monomial Z^e."""
        e = tuple(e)
        return LaurentPolynomial(
            self.vars,
            {tuple(a + b for a, b in zip(t, e)): c for t, c in self.terms.items()})

    def invert_vars(self):
        """Substitute every variable by its reciprocal."""
        return LaurentPolynomial(
            self.vars, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def substitute_monomials(self, images, new_vars):
        """Map variable i to the monomial with exponent images[i] in new_vars."""
        if len(images) != len(self.vars):
            raise ArenaMismatch("one image per source variable required")
        cols = [[image[j] for image in images] for j in range(len(new_vars))]
        terms = {}
        for e, c in self.terms.items():
            key = tuple([sum(map(mul, e, col)) for col in cols])
            terms[key] = terms.get(key, 0) + c
        return LaurentPolynomial(new_vars, terms)

    def evaluate(self, values):
        """Evaluate at exact rational values, one per variable."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c)
            for exp, val in zip(e, values):
                if exp:
                    v *= Fraction(val) ** exp
            total += v
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"{v}^{x}" for v, x in zip(self.vars, e) if x)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# The binomial carrier's kernels pack Z^e as the int sum of e_i * 2^(w(n-i)),
# in balanced slots of w bits (_width): a product of monomials is one
# addition, and packed keys sort as their tuples do.


def _reach(terms, den=None):
    """The largest absolute value of an exponent in the keys of terms, after
    their product by the factors f^m of den if given."""
    top = max(map(abs, chain.from_iterable(terms)), default=0)
    if den:
        top += sum(m * max(map(abs, f)) for f, m in den.items())
    return top


def _width(top, factors=()):
    """Slot width for exponents up to top in absolute value and for the bases
    x - kf, |k| <= top + 1, of the lines _div_binomial keys by factor f."""
    f = max(map(abs, chain.from_iterable(factors)), default=0)
    return (top + (top + 1) * f).bit_length() + 1


def _pack(e, w):
    x = 0
    for v in e:
        x = (x << w) + v
    return x


def _packed(terms, w):
    columns = iter(zip(*terms))
    keys = next(columns, [0] * len(terms))  # no column: zero variables
    for column in columns:
        keys = [(x << w) + v for x, v in zip(keys, column)]
    return dict(zip(keys, terms.values()))


def _unpacked(vars, terms, w):
    """The LaurentPolynomial of packed terms, which hold no zero coefficient."""
    n, h = len(vars), 1 << (w - 1)
    mask = 2 * h - 1
    off = h * ((1 << w * n) - 1) // mask  # h in every slot
    columns = [[(x + off >> s & mask) - h for x in terms]
               for s in range(w * (n - 1), -1, -w)]
    keys = zip(*columns) if n else [()] * len(terms)
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.vars, p.terms = tuple(vars), dict(zip(keys, terms.values()))
    return p


def poly_mul(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    _check_same_arena(a, b)
    if a.is_one():  # each Gaussian chain starts with a product by one
        return b
    w = _width(_reach(a.terms) + _reach(b.terms))
    terms = {}
    right = _packed(b.terms, w).items()
    for x1, c1 in _packed(a.terms, w).items():
        for x2, c2 in right:
            key = x1 + x2
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    return _unpacked(a.vars, terms, w)


def poly_exact_div(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Return q with a = q*b, or raise NotDivisible.

    Classic single-divisor division with lexicographic leading terms, after
    shifting both operands into nonnegative exponents.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPolynomial.zero(a.vars)
    _check_same_arena(a, b)
    sa, sb = (tuple(map(min, zip(*p.terms))) for p in (a, b))
    ra = {tuple(x - y for x, y in zip(e, sa)): c for e, c in a.terms.items()}
    rb = {tuple(x - y for x, y in zip(e, sb)): c for e, c in b.terms.items()}
    lead_b = max(rb)
    cb = rb[lead_b]
    quot = {}
    while ra:
        lead_a = max(ra)
        diff = tuple(x - y for x, y in zip(lead_a, lead_b))
        if any(x < 0 for x in diff):
            raise NotDivisible
        c = Fraction(ra[lead_a], cb)
        if c.denominator == 1:
            c = int(c)
        quot[diff] = c
        _add_terms(ra, {tuple(x + y for x, y in zip(diff, e)): -c * cf
                        for e, cf in rb.items()})
    shift = tuple(x - y for x, y in zip(sa, sb))
    return LaurentPolynomial(a.vars, quot).shift(shift)


def _add_terms(acc, terms, f=None, w=None):
    """acc += terms, or acc += terms * (1 - Z^f) given f, in place, on terms
    packed in slots of w bits; without f the keys may be of any kind.

    Neither acc nor terms holds a zero coefficient, and acc holds none
    after: a key whose sum vanishes was in acc.
    """
    if f is not None:
        f = _pack(f, w)
    for x, c in terms.items():
        s = acc.get(x, 0) + c
        if s:
            acc[x] = s
        else:
            del acc[x]
        if f is not None:
            x += f
            s = acc.get(x, 0) - c
            if s:
                acc[x] = s
            else:
                del acc[x]
    return acc


def _times_binomials(a: LaurentPolynomial, den) -> LaurentPolynomial:
    """a times the factors (1 - Z^f)^m of den."""
    w = _width(_reach(a.terms, den))
    return _unpacked(a.vars, _times(lambda t, f: _add_terms({}, t, f, w),
                                    _packed(a.terms, w), den), w)


def _mul_binomial(a: LaurentPolynomial, e) -> LaurentPolynomial:
    """a * (1 - Z^e)."""
    return _times_binomials(a, {tuple(e): 1})


def poly_div_binomial(a: LaurentPolynomial, e):
    """Return q with a = q * (1 - Z^e), or None if a is not divisible.

    The quotient ring Z[Z^n] / (1 - Z^e) is the group ring of Z^n / <e>:
    it identifies the monomials along each line x + Z e.  So a is divisible
    by (1 - Z^e) exactly when its coefficients sum to zero along every such
    line, and then a_x = q_x - q_{x-e} gives the quotient as the running
    sum q_x = sum_{k >= 0} a_{x - k e}, taken from the low end of each line.
    The running sum carries across gaps in a line: 1 - Z^{3e} has
    quotient 1 + Z^e + Z^{2e}.  Linear in the size of a and of q.

    Each line is keyed exactly, by its base x - k e with entry i in
    [0, |e_i|) for the first nonzero e_i, without fibre sums or weights.
    Never key it by the packed residue x % E: for e = (0, 2) that merges
    the lines of q^a t^b and q^(a+1) t^b.
    """
    w = _width(_reach(a.terms), [e])
    q = _div_binomial(_packed(a.terms, w), tuple(e), w)
    return q if q is None else _unpacked(a.vars, q, w)


def _div_binomial(terms, e, w):
    """poly_div_binomial on terms packed in slots of w bits, as _width gave
    them for e: the packed quotient, or None."""
    i = next((k for k, x in enumerate(e) if x), None)
    if i is None:
        raise ValueError("(1 - 1) is not a valid factor")
    ei, E, h = e[i], _pack(e, w), 1 << (w - 1)
    # entry i of x is its slot at this shift, less h
    off, shift, mask = _pack((h,) * len(e), w), w * (len(e) - 1 - i), 2 * h - 1
    # most divisions fail: test the line sums before sorting or walking
    sums = {}
    for x, c in terms.items():
        base = x - (((x + off) >> shift & mask) - h) // ei * E
        sums[base] = sums.get(base, 0) + c
    if any(sums.values()):
        return None
    lines = {}
    for x, c in terms.items():
        k = (((x + off) >> shift & mask) - h) // ei
        lines.setdefault(x - k * E, []).append((k, c))
    quot = {}
    for base, line in lines.items():
        line.sort()
        run, prev = 0, None
        for k, c in line:
            if run:
                # the quotient keeps the running sum over the gap prev+1..k-1
                for j in range(prev + 1, k):
                    quot[base + j * E] = run
            run += c
            if run:
                quot[base + k * E] = run
            prev = k
    return quot


# ---------------------------------------------------------------------------
# The algorithms both carriers share, over the carrier's numerator operations.


def _cancel(div, num, den):
    """(num, den) with the factors of den that divide num cancelled, where
    div(num, f) is num / f, or None if f does not divide num.

    One pass over the factors leaves none that divides the numerator: a
    factor that divides a quotient num / f divides num as well, so a
    factor that failed to divide early in the pass cannot divide later.
    The sorted order fixes the form: 1 - Z^2 over (1 - Z)(1 - Z^2)
    cancels either factor, but not both.
    """
    left = {}
    for f, m in sorted(den.items()):
        while m > 0:
            q = div(num, f)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            left[f] = m
    return num, left


def _times(mul, num, den):
    """num times the product of the factors f^m of den; mul(num, f) is
    num * f."""
    for f, m in den.items():
        for _ in range(m):
            num = mul(num, f)
    return num


def _uncancelled(a, b):
    """The factor multisets a and b with the factors they share cancelled."""
    a, b = Counter(a), Counter(b)
    return a - b, b - a


def _equal(times, fnum, fden, gnum, gden):
    """Whether fnum / fden == gnum / gden, by cross-multiplying with the
    factors the two denominators do not share; times(num, den) is num times
    the factors of den."""
    fden, gden = _uncancelled(fden, gden)
    return times(fnum, gden) == times(gnum, fden)


def _lift(new, add, groups, copies):
    """Sum of num times the product of f over the copies (f, j) in copies
    that held lacks, over the groups {held: num}; each held is a subset of
    copies.

    copies and held are frozensets of factor copies (f, j); num is a
    nonzero numerator, read and never written.  The sum is taken
    Horner-style: the copy missing from the most groups (ties broken by
    the copy itself, so the order of work is fixed) leaves copies, the
    groups that miss it are summed without it, and that sum is multiplied
    by f once; the remaining groups go round the loop.  The recursion is
    at most as deep as copies is large.  Keying each group by the copies
    it holds (about 10 of 74 in the d=4 topological sum), and emptying
    groups as it is summed, keeps the memory small.
    """
    acc = new(groups.pop(copies, ()))
    while groups:
        # some group misses a copy, so the pick is missing from one or more
        holding = Counter(chain.from_iterable(groups))
        n = len(groups)
        pick = max(copies, key=lambda c: (n - holding.get(c, 0), c))
        inner = {h: groups.pop(h)
                 for h in [h for h in groups if pick not in h]}
        left = copies - {pick}
        inner_sum = inner[left] if len(inner) == 1 and left in inner \
            else _lift(new, add, inner, left)
        acc = add(acc, inner_sum, pick[0])
    return acc


def _lcm(dens):
    """The factor-wise least common multiple of the denominators dens."""
    lcm = {}
    for den in dens:
        for f, m in den.items():
            if lcm.get(f, 0) < m:
                lcm[f] = m
    return lcm


def _sum_common(new, add, terms, lcm):
    """The sum of the (num, den) pairs terms as num / lcm, over their
    factor-wise least common denominator lcm (_lcm), not yet normalized.
    new(num) copies a numerator, and new(()) is zero; add(acc, num, f=None)
    is acc + num, times the factor f if given, and may write into acc.

    Terms with identical denominators add numerator-to-numerator first.
    Each group of terms then misses some factors of the common
    denominator, and the lift shares their multiplication: a factor
    missing from many groups multiplies their sum once (_lift), not each
    group apart.  Over a given lcm the numerator is the same whatever the
    order of the lift.
    """
    groups = {}  # each denominator -> the numerators over it
    for num, den in terms:
        groups.setdefault(frozenset(den.items()), []).append(num)
    # the common denominator as copies (f, j), j < lcm[f]; a group holds
    # those numbered below its own multiplicity of f
    held = {}
    for sig, nums in groups.items():
        num = nums[0]
        if len(nums) > 1:
            # the first numerator is copied only when others join it
            num = new(num)
            for other in nums[1:]:
                num = add(num, other)
        if num:
            held[frozenset((f, j) for f, m in sig for j in range(m))] = num
    del groups  # the lift does not read these keys; free them first
    copies = frozenset((f, j) for f, m in lcm.items() for j in range(m))
    return _lift(new, add, held, copies)


class FactoredRationalFunction:
    """numerator / product over factors (1 - Z^e)^mult.

    den maps exponent tuples (all entries >= 0, not all zero) to positive
    multiplicities; a nonpositive multiplicity drops its factor, and an
    exponent with a negative entry is refused.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, num: LaurentPolynomial, den=None):
        self.vars = num.vars
        zero = (0,) * len(self.vars)
        fixed = {}
        for e, m in (den or {}).items():
            e = tuple(e)
            if m <= 0:
                continue
            if e == zero:
                raise ZeroDivisionError("denominator factor (1 - 1)")
            if any(x < 0 for x in e):
                raise ValueError(f"negative denominator exponent {e}")
            fixed[e] = m
        if num.is_zero():
            fixed = {}
        self.num = num
        self.den = fixed

    @classmethod
    def zero(cls, vars):
        return cls(LaurentPolynomial.zero(vars))

    @classmethod
    def one(cls, vars):
        return cls(LaurentPolynomial.one(vars))

    def is_zero(self):
        return self.num.is_zero()

    def den_sorted(self):
        return sorted(self.den.items())

    def __repr__(self):
        den = " * ".join(f"(1-Z^{list(e)})^{m}" for e, m in self.den_sorted())
        return f"({self.num!r}) / ({den or '1'})"

    def den_poly(self):
        return _times_binomials(LaurentPolynomial.one(self.vars), self.den)

    def to_json_obj(self):
        num = []
        for e in sorted(self.num.terms):
            c = Fraction(self.num.terms[e])
            num.append([str(c.numerator), str(c.denominator), *e])
        den = [[m, *e] for e, m in self.den_sorted()]
        return {"vars": list(self.vars), "num": num, "den": den}

    @classmethod
    def from_json_obj(cls, obj):
        vars = tuple(obj["vars"])

        def exponent(row, lead):
            if len(row) != lead + len(vars):
                raise ValueError(f"row {row} does not hold {len(vars)} "
                                 "exponents")
            return tuple(int(x) for x in row[lead:])

        terms = {}
        for row in obj["num"]:
            c = Fraction(int(row[0]), int(row[1]))
            terms[exponent(row, 2)] = int(c) if c.denominator == 1 else c
        den = {exponent(row, 1): int(row[0]) for row in obj["den"]}
        return cls(LaurentPolynomial(vars, terms), den)


def rf_normalize(f: FactoredRationalFunction) -> FactoredRationalFunction:
    """Cancel denominator factors that exactly divide the numerator."""
    w = _width(_reach(f.num.terms), f.den)
    num, den = _cancel(lambda t, e: _div_binomial(t, e, w),
                       _packed(f.num.terms, w), f.den)
    return FactoredRationalFunction(_unpacked(f.vars, num, w), den)


def rf_sum_common(terms, vars=None):
    """Sum over the factor-wise least common denominator, normalizing once.

    Terms arrive in lowest terms (no denominator factor divides the
    numerator), so a sum of one term is that term, returned as it is; a
    longer sum (_sum_common) is normalized once, and so leaves in lowest
    terms too.  The arena is the first term's; an empty sum needs it given
    as vars.
    """
    terms = list(terms)
    if len(terms) == 1:
        return terms[0]
    if terms:
        vars = terms[0].vars
    elif vars is None:
        raise ValueError("empty sum needs an explicit arena")
    for t in terms:
        _check_same_arena(terms[0], t)
    lcm = _lcm(t.den for t in terms)
    w = _width(_reach(chain.from_iterable(t.num.terms for t in terms), lcm))
    num = _sum_common(dict, lambda acc, t, e=None: _add_terms(acc, t, e, w),
                      [(_packed(t.num.terms, w), t.den) for t in terms], lcm)
    return rf_normalize(FactoredRationalFunction(_unpacked(vars, num, w),
                                                 lcm))


def rf_equal(f: FactoredRationalFunction, g: FactoredRationalFunction) -> bool:
    """Exact equality as rational functions, by cross-multiplication."""
    _check_same_arena(f, g)
    return _equal(_times_binomials, f.num, f.den, g.num, g.den)


def rf_with_denominator(f: FactoredRationalFunction, den):
    """Numerator of f written over the prescribed denominator multiset.

    den maps exponent vectors e to multiplicities of factors (1 - x^e).
    Raises NotDivisible if f cannot be written over that denominator.
    """
    extra, den = _uncancelled(f.den, den)
    w = _width(_reach(f.num.terms, den), extra)
    num, left = _cancel(lambda t, e: _div_binomial(t, e, w),
                        _times(lambda t, e: _add_terms({}, t, e, w),
                               _packed(f.num.terms, w), den), extra)
    if left:
        raise NotDivisible
    return _unpacked(f.vars, num, w)


def rf_invert_vars(f: FactoredRationalFunction) -> FactoredRationalFunction:
    """f with every variable replaced by its reciprocal.

    Uses 1/(1 - Z^-e) = -Z^e/(1 - Z^e) per denominator factor, keeping the
    canonical factored form.
    """
    shift = [sum(m * e[i] for e, m in f.den.items())
             for i in range(len(f.vars))]
    sign = (-1) ** sum(f.den.values())
    return FactoredRationalFunction(
        f.num.invert_vars().shift(shift).scale(sign), f.den)


def rf_series_coeffs(f: FactoredRationalFunction, q_value, order):
    """Power-series coefficients of t^0..t^order after evaluating q.

    The arena must be (q, t), in that variable order.  Denominator factors
    (1 - q^a) constant in t are divided out numerically.
    """
    if len(f.vars) != 2:
        raise ArenaMismatch("series expansion expects a (q, t) arena")
    scale = Fraction(1)
    geom = []
    for (a, b), m in f.den.items():
        if b == 0:
            val = 1 - Fraction(q_value) ** a
            if val == 0:
                raise ZeroDivisionError(f"pole: factor (1 - q^{a}) vanishes at q={q_value}")
            scale /= val ** m
        else:
            for _ in range(m):
                geom.append((Fraction(q_value) ** a, b))
    series = {}
    for (a, b), c in f.num.terms.items():
        v = Fraction(c) * Fraction(q_value) ** a * scale
        series[b] = series.get(b, 0) + v
    for ratio, b in geom:
        new = {}
        for deg, c in series.items():
            power = Fraction(1)
            k = deg
            while k <= order:
                new[k] = new.get(k, 0) + c * power
                power *= ratio
                k += b
        series = new
    if any(c for deg, c in series.items() if deg < 0):
        raise ValueError("series has a genuine pole in t at 0")
    return [series.get(n, Fraction(0)) for n in range(order + 1)]


# ---------------------------------------------------------------------------
# Univariate polynomials over Q (little-endian coefficient lists) and rational
# functions with linear denominator factors (b*s - a), the carrier for
# topological zeta values.

def upoly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def upoly_add(p, q):
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
           for i in range(n)]
    return upoly_trim(out)


def upoly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return upoly_trim(out)


def upoly_div_linear(p, f):
    """q with p = q * (b*s - a) for f = (b, a), or None if there is none."""
    b, a = f
    if not p:
        return []
    out = [0] * (len(p) - 1)
    rem = list(p)
    for i in range(len(p) - 1, 0, -1):
        c = Fraction(rem[i]) / b
        out[i - 1] = c
        rem[i] = 0
        rem[i - 1] += c * a
    if rem[0]:
        return None
    return upoly_trim([int(c) if isinstance(c, Fraction) and c.denominator == 1
                       else c for c in out])


def _mul_linear(p, f):
    """p * (b*s - a) for f = (b, a)."""
    b, a = f
    return upoly_mul(p, [-a, b])


def _add_linear(acc, p, f=None):
    """acc + p, or acc + p * (b*s - a) given f = (b, a)."""
    return upoly_add(acc, p if f is None else _mul_linear(p, f))


class LinearFactoredFunction:
    """numerator / product over (b*s - a)^mult, b > 0, in one variable s."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = upoly_trim(list(num))
        den = {f: m for f, m in dict(den or {}).items() if m > 0}
        for b, a in den:
            if b <= 0:
                raise ValueError(f"degenerate linear factor ({b}s - {a})")
        self.den = den if self.num else {}

    def is_zero(self):
        return not self.num

    def normalize(self):
        """Cancel denominator factors that exactly divide the numerator."""
        return LinearFactoredFunction(*_cancel(upoly_div_linear, self.num,
                                               self.den))

    def degree(self):
        """Degree as a rational function of s."""
        if self.is_zero():
            raise ValueError("the zero function has no degree")
        return (len(self.num) - 1) - sum(self.den.values())

    def to_json_obj(self):
        num = []
        for i, c in enumerate(self.num):
            c = Fraction(c)
            num.append([str(c.numerator), str(c.denominator), i])
        den = [[m, b, a] for (b, a), m in sorted(self.den.items())]
        return {"vars": ["s"], "num": num, "den": den}

    @classmethod
    def from_json_obj(cls, obj):
        degrees = [row[2] for row in obj["num"]]
        if min(degrees, default=0) < 0 or len(set(degrees)) < len(degrees):
            raise ValueError(f"numerator degrees {degrees} are not distinct "
                             f"and nonnegative")
        num = [0] * (max(degrees, default=-1) + 1)
        for cn, cd, i in obj["num"]:
            c = Fraction(int(cn), int(cd))
            num[i] = int(c) if c.denominator == 1 else c
        den = {(b, a): m for m, b, a in obj["den"]}
        return cls(num, den)

    def __repr__(self):
        den = " * ".join(f"({b}s-{a})^{m}" for (b, a), m in sorted(self.den.items()))
        return f"({self.num}) / ({den or '1'})"


def lff_sum(terms):
    """Sum over the factor-wise least common denominator (_sum_common),
    normalizing once."""
    lcm = _lcm(t.den for t in terms)
    return LinearFactoredFunction(_sum_common(
        list, _add_linear, [(t.num, t.den) for t in terms], lcm),
        lcm).normalize()


def lff_equal(f: LinearFactoredFunction, g: LinearFactoredFunction) -> bool:
    """Exact equality as rational functions, by cross-multiplication."""
    return _equal(lambda num, den: _times(_mul_linear, num, den),
                  f.num, f.den, g.num, g.den)
