"""Independent references and test conveniences that the engine never calls.

Each function here is a second route to something the engine computes, or a
debugging view of its data, kept beside the tests that use it:

- feasible: Fourier-Motzkin feasibility of rational inequality systems, the
  reference for the pair membership test (zeta.wd_contains decides by
  extreme rays instead);
- extreme_rays_reference: the double description on every column of the
  system, equations only, against cones.extreme_rays, which solves for
  slack columns and runs on the others;
- alpha_alt and lm_profile: the subgroup count by the merged-multiset
  product formula, against combinat.alpha_count;
- is_admissible_shuffle and enumerate_script_S: the admissible family by
  its definition, against the backtracking combinat.admissible_shuffles;
- descent_set and coxeter_length: for the descent-set sums of the Gaussian
  multinomials;
- coordinates_of_pair and pair_from_coordinates: the difference coordinates
  of partition pairs;
- rf_substitute and SingularSubstitution: a monomial substitution applied
  after the fact, against the map the cone layer applies ray by ray;
- region_dump: a deterministic text view of a region's pieces, for golden
  fixtures;
- lff_sum_per_group and lff_equal_full: the topological sum with each
  denominator group lifted to the common denominator on its own, and
  equality by cross-multiplying with both full denominators, against the
  Horner lift and the cross-multiplication by unshared factors that
  arith.lff_sum and arith.lff_equal share with the binomial carrier;
- add_terms_tuples, poly_mul_tuples and poly_div_binomial_tuples: the
  binomial kernels on tuple-keyed terms, as they stood before arith packed
  each monomial into one int, with mul_binomial_tuples,
  rf_normalize_tuples, rf_sum_common_tuples and rf_equal_tuples over
  them; they share arith's cancel loop, lift and cross-multiplication,
  and differ from arith only in the kernels.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import add, mul

from nilzeta.arith import (
    FactoredRationalFunction,
    LaurentPolynomial,
    LinearFactoredFunction,
    _cancel,
    _equal,
    _lcm,
    _sum_common,
    _times,
    poly_mul,
    rf_normalize,
    upoly_add,
    upoly_mul,
    upoly_trim,
)
from nilzeta.combinat import admissible_shuffles, gaussian_binomial
from nilzeta.cones import DiophantineMonoid, decompose_region_by_face


# ---------------------------------------------------------------------------
# Feasibility of rational linear inequality systems (Fourier-Motzkin).


def feasible(ineqs, num_vars):
    """Decide whether {x in R^n : c . x >= b for all (c, b)} is nonempty.

    ineqs is a list of pairs (coeffs, bound) of integers.  Exact
    elimination; intended for the small systems arising from cone
    membership tests.  It stays in int: eliminating a variable multiplies
    rows only by positive integers and adds them.
    """
    system = [(tuple(c), b) for c, b in ineqs]
    for v in range(num_vars):
        pos, neg, rest = [], [], []
        for c, b in system:
            if c[v] > 0:
                pos.append((c, b))
            elif c[v] < 0:
                neg.append((c, b))
            else:
                rest.append((c, b))
        new = rest
        for cp, bp in pos:
            for cn, bn in neg:
                # eliminate x_v between cp.x >= bp and cn.x >= bn
                a, b2 = cp[v], -cn[v]
                c = tuple(b2 * x + a * y for x, y in zip(cp, cn))
                new.append((c, b2 * bp + a * bn))
        seen = set()
        system = []
        for c, b in new:
            key = (c, b)
            if key not in seen:
                seen.add(key)
                system.append((c, b))
    return all(b <= 0 for _, b in system)


# ---------------------------------------------------------------------------
# Extreme rays of {x >= 0 : A x = 0}, every column an unknown.


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g in (0, 1):
        return tuple(vec)
    return tuple(x // g for x in vec)


def extreme_rays_reference(equations, num_vars):
    """Primitive extreme rays of the cone {x in R^n_{>=0} : a . x = 0 for a in equations}.

    Double description starting from the orthant's unit rays, with the
    combinatorial adjacency test (valid because the cone is pointed).
    """
    rays = [tuple(int(i == j) for j in range(num_vars)) for i in range(num_vars)]
    supports = [1 << i for i in range(num_vars)]
    for a in equations:
        vals = [sum(map(mul, a, r)) for r in rays]
        new = [(r, s) for r, s, v in zip(rays, supports, vals) if v == 0]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for n, vn in enumerate(vals):
                if vn >= 0:
                    continue
                # adjacent iff no third ray has its support inside the union
                union = supports[p] | supports[n]
                if any(s | union == union for i, s in enumerate(supports)
                       if i != p and i != n):
                    continue
                # vp > 0 > vn, so vp * rn - vn * rp is nonnegative, with
                # the union of the two supports as its own
                comb = tuple(vp * y + (-vn) * x
                             for x, y in zip(rays[p], rays[n]))
                new.append((_primitive(comb), union))
        rays, supports = [], []
        seen = set()
        for r, s in new:
            if r not in seen:
                seen.add(r)
                rays.append(r)
                supports.append(s)
    return sorted(rays)


# ---------------------------------------------------------------------------
# Permutations and partitions.


def descent_set(sigma):
    """Indices i with sigma(i) > sigma(i+1), 1-based."""
    return frozenset(i + 1 for i in range(len(sigma) - 1)
                     if sigma[i] > sigma[i + 1])


def coxeter_length(sigma):
    """Number of inversions."""
    n = len(sigma)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if sigma[i] > sigma[j])


def alpha_alt(lam, mu) -> LaurentPolynomial:
    """Same count via the merged-multiset product formula.

    Merge lam and mu into one weakly decreasing list m of length len(lam) +
    len(mu); with L_j = #{i : lam_i >= m_j} and M_j = #{i : mu_i >= m_j},
    the count is the product over j of
    binom(L_j - M_{j-1}, M_j - M_{j-1})_{q^-1} q^{M_j (L_j - M_j)(m_j - m_{j+1})}.
    """
    m = sorted(list(lam) + list(mu), reverse=True)
    n = len(m)
    L, M = lm_profile(lam, mu)
    out = LaurentPolynomial.one(("q",))
    for j in range(1, n + 1):
        mj = m[j - 1]
        mj1 = m[j] if j < n else 0
        binom = gaussian_binomial(L[j] - M[j - 1], M[j] - M[j - 1])
        if binom.is_zero():
            return LaurentPolynomial.zero(("q",))
        shift = M[j] * (L[j] - M[j]) * (mj - mj1)
        factor = LaurentPolynomial(
            ("q",), {(shift - e[0],): c for e, c in binom.terms.items()})
        out = poly_mul(out, factor)
    return out


def lm_profile(lam, mu):
    """Prefix counts (L_j, M_j) of a pair of partitions along their merge.

    Returns lists L, M of length len(lam) + len(mu) + 1 with L[0] = M[0] = 0,
    where m is the merged decreasing list and L[j] counts lam-parts >= m_j.
    """
    m = sorted(list(lam) + list(mu), reverse=True)
    n = len(m)
    L = [0]
    M = [0]
    for j in range(1, n + 1):
        L.append(sum(1 for x in lam if x >= m[j - 1]))
        M.append(sum(1 for x in mu if x >= m[j - 1]))
    return L, M


def coordinates_of_pair(d, lam, nu):
    """Difference coordinates (r, s) of a partition pair.

    r_i = lam_i - lam_{i+1} for i < d, r_d = lam_d; likewise for s from nu.
    """
    dprime = d * (d - 1) // 2
    lam = tuple(lam) + (0,)
    nu = tuple(nu) + (0,)
    r = tuple(lam[i] - lam[i + 1] for i in range(d))
    s = tuple(nu[j] - nu[j + 1] for j in range(dprime))
    return r, s


def pair_from_coordinates(d, r, s):
    """Inverse of coordinates_of_pair."""
    dprime = d * (d - 1) // 2
    lam = tuple(sum(r[i:]) for i in range(d))
    nu = tuple(sum(s[j:]) for j in range(dprime))
    return lam, nu


# ---------------------------------------------------------------------------
# The family of admissible shuffles, by its definition.


def is_admissible_shuffle(d, sigma) -> bool:
    """Membership in the admissible family of permutations of [2d'].

    Two conditions, with d' = d(d-1)/2:
      (i)  every prefix contains at least as many values > d' as values <= d';
      (ii) whenever positions i < j both carry values <= d' in increasing
           order of position but decreasing value (sigma(i) > sigma(j)),
           the whole stretch sigma(i), ..., sigma(j) is strictly decreasing.
    """
    dprime = d * (d - 1) // 2
    n = 2 * dprime
    low = high = 0
    for v in sigma:
        if v <= dprime:
            low += 1
        else:
            high += 1
        if low > high:
            return False
    small_pos = [p for p, v in enumerate(sigma) if v <= dprime]
    for a in range(len(small_pos)):
        for b in range(a + 1, len(small_pos)):
            i, j = small_pos[a], small_pos[b]
            if sigma[i] > sigma[j]:
                for k in range(i, j):
                    if sigma[k] <= sigma[k + 1]:
                        return False
    return True


def enumerate_script_S(d):
    """All admissible shuffles for d generators, in lexicographic order:
    the union of admissible_shuffles over every order of the values > d'."""
    dprime = d * (d - 1) // 2
    orders = permutations(range(dprime + 1, 2 * dprime + 1))
    return sorted(s for pairs in orders for s in admissible_shuffles(d, pairs))


# ---------------------------------------------------------------------------
# Monomial substitution.


class SingularSubstitution(Exception):
    """Raised when a substitution maps a denominator factor to (1 - 1) = 0."""


def rf_substitute(f: FactoredRationalFunction, images, new_vars):
    """Map each source variable to a monomial in new_vars.

    images is one exponent vector per source variable.  A denominator factor
    whose image exponent vanishes raises SingularSubstitution.
    """
    images = [tuple(i) for i in images]
    num = f.num.substitute_monomials(images, new_vars)
    k = len(new_vars)
    den = {}
    for e, m in f.den.items():
        img = [0] * k
        for exp, image in zip(e, images):
            if exp:
                for j in range(k):
                    img[j] += exp * image[j]
        img = tuple(img)
        if not any(img):
            raise SingularSubstitution(f"factor exponent {e} maps to zero")
        den[img] = den.get(img, 0) + m
    return rf_normalize(FactoredRationalFunction(num, den))


# ---------------------------------------------------------------------------
# Region pieces as text.


def region_dump(monoid: DiophantineMonoid, A, C):
    """Debug text for a region: one line per piece,
    "sign; dim; quasigens; open quasigens; #box".

    Deterministic across runs for fixed inputs, so the
    output is suitable as a golden-file fixture.
    """
    lines = []
    for _, pieces in decompose_region_by_face(monoid, A, C):
        for piece in pieces:
            gens = ",".join(str(tuple(r)) for r in piece.rays)
            opened = ",".join(str(tuple(r)) for r in piece.open_rays)
            lines.append(f"{piece.sign:+d}; {piece.dim}; {gens}; {opened}; "
                         f"{len(piece.box())}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The topological carrier's sum and equality, one group and one full
# denominator at a time.


def _times_linear(num, den):
    """num times the product of the factors (b*s - a)^m of den."""
    for (b, a), m in den.items():
        for _ in range(m):
            num = upoly_mul(num, [-a, b])
    return num


def lff_sum_per_group(terms):
    """Sum over the factor-wise least common denominator, normalizing once.

    Terms with identical denominators add numerator-to-numerator first.
    """
    groups = {}
    lcm = {}
    for t in terms:
        sig = frozenset(t.den.items())
        groups[sig] = upoly_add(groups.get(sig, []), t.num)
        for k, m in t.den.items():
            if lcm.get(k, 0) < m:
                lcm[k] = m
    total = []
    for sig, num in groups.items():
        den = dict(sig)
        total = upoly_add(total, _times_linear(
            num, {k: m - den.get(k, 0) for k, m in lcm.items()}))
    return LinearFactoredFunction(total, lcm).normalize()


def lff_equal_full(f: LinearFactoredFunction, g: LinearFactoredFunction):
    """Exact equality, by cross-multiplying with both full denominators."""
    left = _times_linear(f.num, g.den)
    right = _times_linear(g.num, f.den)
    pairs = zip(left + [0] * len(right), right + [0] * len(left))
    return upoly_trim([Fraction(a) - Fraction(b) for a, b in pairs]) == []


# ---------------------------------------------------------------------------
# The binomial kernels on tuple keys, the reference for arith's packed ones.

# weights of the fibre test in poly_div_binomial_tuples; any value is sound
_FIBRE_BASE = 1009


def add_terms_tuples(acc, terms, e=None):
    """acc += terms, or acc += terms * (1 - Z^e) given e, in place."""
    for x, c in terms.items():
        s = acc.get(x, 0) + c
        if s:
            acc[x] = s
        else:
            del acc[x]
        if e is not None:
            x = tuple(map(add, x, e))
            s = acc.get(x, 0) - c
            if s:
                acc[x] = s
            else:
                del acc[x]
    return acc


def poly_mul_tuples(a: LaurentPolynomial, b: LaurentPolynomial):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(map(add, e1, e2))
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    return LaurentPolynomial(a.vars, terms)


def poly_div_binomial_tuples(a: LaurentPolynomial, e):
    """q with a = q * (1 - Z^e), or None: the running sum along each line
    x + Z e, after a fibre test that a weighted sum sends each line to one
    integer."""
    e = tuple(e)
    i = next((k for k, x in enumerate(e) if x), None)
    if i is None:
        raise ValueError("(1 - 1) is not a valid factor")
    terms = a.terms
    # u = e_i w - (w.e) 1_i has u.e = 0 whatever the weights w
    w = [_FIBRE_BASE ** j for j in range(len(e))]
    u = [e[i] * wj for wj in w]
    u[i] -= sum(map(mul, w, e))
    fibres = {}
    for x, c in terms.items():
        k = sum(map(mul, u, x))
        fibres[k] = fibres.get(k, 0) + c
    if any(fibres.values()):
        return None
    # a line x + Z e is keyed by its point with coordinate i in [0, |e_i|)
    ei = e[i]
    lines = {}
    for x, c in terms.items():
        k = x[i] // ei
        base = tuple(xj - k * ej for xj, ej in zip(x, e))
        lines.setdefault(base, []).append((k, c))
    quot = {}
    for base, line in lines.items():
        line.sort()
        run = 0
        prev = None
        for k, c in line:
            if run:
                for j in range(prev + 1, k):
                    quot[tuple(b + j * ej for b, ej in zip(base, e))] = run
            run += c
            if run:
                quot[tuple(b + k * ej for b, ej in zip(base, e))] = run
            prev = k
        if run:
            return None
    return LaurentPolynomial(a.vars, quot)


def mul_binomial_tuples(a: LaurentPolynomial, e):
    return LaurentPolynomial(a.vars, add_terms_tuples({}, a.terms, e))


def rf_normalize_tuples(f: FactoredRationalFunction):
    return FactoredRationalFunction(*_cancel(poly_div_binomial_tuples,
                                             f.num, f.den))


def rf_sum_common_tuples(terms):
    lcm = _lcm(t.den for t in terms)
    num = _sum_common(dict, add_terms_tuples,
                      [(t.num.terms, t.den) for t in terms], lcm)
    return rf_normalize_tuples(FactoredRationalFunction(
        LaurentPolynomial(terms[0].vars, num), lcm))


def rf_equal_tuples(f: FactoredRationalFunction, g: FactoredRationalFunction):
    return _equal(lambda num, den: _times(mul_binomial_tuples, num, den),
                  f.num, f.den, g.num, g.den)
