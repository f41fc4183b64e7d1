"""Independent brute-force subalgebra counts for cross-checking.

Counts finite-index subalgebras of the free class-2-nilpotent Lie ring on d
generators by enumerating sublattices in Hermite normal form and testing
bracket closure directly against the structure constants.  A second route
sums products of subgroup-counting polynomials over pairs of partition
types.  Both are slow and exact, and exist only to validate the generating
function machinery on small coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .combinat import alpha_count, mu_of_lambda, partitions_upto


# the largest number of Hermite normal forms one enumeration may walk
GUARD = 10 ** 7


class CapacityExceeded(Exception):
    """The requested brute-force enumeration is larger than the guard."""


def _dprime(d):
    return d * (d - 1) // 2


def _compositions(total, parts):
    """The compositions of total into parts nonnegative parts, in
    lexicographic order: stars and bars, each read off the places of its
    parts - 1 bars among total + parts - 1."""
    places = total + parts - 1
    for bars in combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))


def hnf_count(n, index_exp, p):
    """Number of upper-triangular Hermite normal forms of determinant
    p^index_exp in rank n.

    A diagonal p^a_0..p^a_(n-1) has p^(a_i (n-1-i)) fillings, so the count
    is the complete homogeneous symmetric polynomial h_index_exp(1, p, ...,
    p^(n-1)), built one variable at a time by h_k += x h_(k-1)."""
    h = [1] + [0] * index_exp
    for i in range(n):
        x = p ** i
        for k in range(1, index_exp + 1):
            h[k] += x * h[k - 1]
    return h[index_exp]


def _check_capacity(n, index_exp, p, guard):
    """Raise CapacityExceeded if more than guard forms would be walked, or
    if the n x n buffer that walks them would hold more than guard slots.

    The diagonal with all of index_exp in its last place alone has
    p^((n-1) index_exp) >= 2^((n-1) index_exp) fillings, so an exponent
    that long exceeds the guard without the exact count, whose table and
    integers grow with n and index_exp."""
    if n * n > guard:
        raise CapacityExceeded(
            f"rank {n} needs {n * n} buffer slots, more than {guard}")
    if ((n - 1) * index_exp >= guard.bit_length()
            or hnf_count(n, index_exp, p) > guard):
        raise CapacityExceeded(
            f"more than {guard} Hermite normal forms of index "
            f"{p}^{index_exp} in rank {n}")


def _hnf_lattices(n, index_exp, p, guard):
    """Yield (cols, dvals) for every sublattice of index p^index_exp.

    cols is a column basis in Hermite normal form: upper triangular with
    diagonal dvals, the entries of row i reduced modulo dvals[i].  One
    buffer is rewritten in place for each lattice, so a caller that keeps
    a lattice must copy it."""
    _check_capacity(n, index_exp, p, guard)
    cols = [[0] * n for _ in range(n)]
    for diag in _compositions(index_exp, n):
        dvals = [p ** a for a in diag]
        for j, col in enumerate(cols):
            col[:] = [0] * n
            col[j] = dvals[j]
        free = sorted(((cols[j], i) for j in range(n) for i in range(j)
                       if dvals[i] > 1), key=lambda entry: dvals[entry[1]])
        if not free:
            yield cols, dvals
            continue
        # the entry with the widest range varies fastest, and only it is
        # rewritten for each lattice
        (last, row), outer = free[-1], free[:-1]
        for fill in product(*(range(dvals[i]) for _, i in outer)):
            for (col, i), val in zip(outer, fill):
                col[i] = val
            for val in range(dvals[row]):
                last[row] = val
                yield cols, dvals


def _in_lattice(vec, cols, dvals):
    """Membership in the span of the leading len(vec) upper-triangular
    columns; vec is consumed."""
    for j in range(len(vec) - 1, -1, -1):
        c, r = divmod(vec[j], dvals[j])
        if r:
            return False
        if c:
            col = cols[j]
            for i in range(j):
                vec[i] -= c * col[i]
    return True


def count_subalgebras(d, p, index_exp, guard=GUARD):
    """Number of subalgebras of index p^index_exp, by direct enumeration.

    The lattices are walked in a centre-first basis: y_(i,j) first, then
    x_1..x_d.  There the leading d' columns of a Hermite normal form span
    the intersection of L with the centre and bracket to 0 with
    everything, and two generator columns bracket, through their x rows
    alone, into the centre.  So L is closed exactly when each bracket of
    two generator columns lies in the span of the leading d' columns: a
    back-substitution over d' rows.  Every lattice still gets its own
    test, once for each fill of the generator columns' y rows, so the
    count checks gss_partial's lift factor p^(d|nu|) rather than assuming
    it.
    """
    dp = _dprime(d)
    n = d + dp
    # the x rows (i, j) of [x_i, x_j] = y_(i,j), in the order of the y
    # rows: pairs i < j lexicographically
    xrows = [(dp + i, dp + j) for i, j in combinations(range(d), 2)]
    gen_pairs = [(a, b) for a in range(dp, n) for b in range(a + 1, n)]
    total = 0
    for cols, dvals in _hnf_lattices(n, index_exp, p, guard):
        for a, b in gen_pairs:
            u, v = cols[a], cols[b]
            w = [u[i] * v[j] - u[j] * v[i] for i, j in xrows]
            if not _in_lattice(w, cols, dvals):
                break
        else:
            total += 1
    return total


def subalgebra_series(d, p, order, guard=GUARD):
    """Coefficients [c_0..c_order] of the subalgebra zeta function at p."""
    return [count_subalgebras(d, p, k, guard) for k in range(order + 1)]


def check_series_capacity(d, p, order):
    """Raise CapacityExceeded if subalgebra_series(d, p, order) would,
    without enumerating anything."""
    n = d + _dprime(d)
    for k in range(order + 1):
        _check_capacity(n, k, p, GUARD)


def _eval_at_p(poly, p):
    """Evaluate a polynomial in q at q = p, as an integer."""
    val = poly.evaluate((Fraction(p),))
    assert val.denominator == 1
    return int(val)


def gss_partial(d, p, order):
    """The same coefficients via the two-step count over partition types.

    A subalgebra splits as a sublattice of the abelianization with cotype
    lambda, a sublattice of the centre with cotype nu containing the
    pairwise-sum lattice of lambda (cotype mu(lambda)), and one of p^(d|nu|)
    lifts of the generators; the lattice counts per type are Hall-Butler
    subgroup counts.
    """
    dp = _dprime(d)
    out = [0] * (order + 1)
    for lam in partitions_upto(d, order):
        lam_d = (lam + (0,) * d)[:d]
        mu = mu_of_lambda(lam_d)
        rect = (lam_d[0],) * d
        a_lam = _eval_at_p(alpha_count(rect, lam_d), p)
        for nu in partitions_upto(dp, order - sum(lam)):
            nu_full = (nu + (0,) * dp)[:dp]
            if any(nu_full[i] > mu[i] for i in range(dp)):
                continue
            a_nu = _eval_at_p(alpha_count(mu, nu_full), p)
            out[sum(lam) + sum(nu)] += a_lam * a_nu * p ** (d * sum(nu))
    return out


class RouteReport:
    """Three-way comparison of series coefficients."""

    def __init__(self, d, p, order, series, gss, brute):
        self.d, self.p, self.order = d, p, order
        self.series, self.gss, self.brute = series, gss, brute

    @property
    def ok(self):
        return self.series == self.gss == self.brute

    @property
    def first_mismatch(self):
        for n in range(self.order + 1):
            if not (self.series[n] == self.gss[n] == self.brute[n]):
                return n
        return None

    def text(self):
        lines = [f"routes for d={self.d}, p={self.p}:",
                 f"{'n':>3} {'series':>14} {'gss':>14} {'brute':>14}"]
        for n in range(self.order + 1):
            mark = "" if self.series[n] == self.gss[n] == self.brute[n] \
                else "  <- mismatch"
            lines.append(f"{n:>3} {self.series[n]:>14} {self.gss[n]:>14} "
                         f"{self.brute[n]:>14}{mark}")
        lines.append("agree" if self.ok else
                     f"FIRST MISMATCH at n={self.first_mismatch}")
        return "\n".join(lines)


def compare_routes(d, p, order, value):
    """Compare the series of value, the assembled zeta function in (q, t),
    with both brute-force routes up to t^order."""
    from .arith import rf_series_coeffs
    series = [int(c) for c in rf_series_coeffs(value, p, order)]
    gss = gss_partial(d, p, order)
    brute = subalgebra_series(d, p, order)
    return RouteReport(d, p, order, series, gss, brute)
