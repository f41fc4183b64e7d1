"""Tests for cones: extreme rays, faces, triangulations, box points."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilzeta import cones, zeta
from nilzeta.arith import FactoredRationalFunction, LaurentPolynomial, rf_equal
from nilzeta.cones import (
    BoxGroup,
    DiophantineMonoid,
    SimplicialPiece,
    box_points,
    decompose_region_by_face,
    extreme_rays,
    genfun_region,
    smith_normal_form,
)
from nilzeta.zeta import (
    SigmaContext,
    WPair,
    _pair_exponents,
    enumerate_Wd,
    no_overlap_monoid,
    region_of_wpair,
    wd_contains,
    zeta_all,
)
from reference_impls import (
    enumerate_script_S,
    extreme_rays_reference,
    feasible,
    region_dump,
)
from test_output_forms import D4_PAIRS, D4_SET


def rank(rows):
    return len(smith_normal_form(rows)[0])


def test_rank_from_smith_form():
    assert rank([]) == 0
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert rank([(1, 2, 3), (4, 5, 6), (7, 8, 10)]) == 3


def _det(A):
    """Determinant by Laplace expansion along the first row."""
    if not A:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in A[1:]])
               for j, a in enumerate(A[0]) if a)


def check_smith(M, diag, V):
    """diag and V are what a Smith form U M V = S makes them, for any U.

    V is unimodular, column j of M V is divisible by diag[j] and vanishes
    past the rank, each invariant factor divides the next, and the first r
    of them multiply to the gcd of the r x r minors of M.
    """
    m, k = len(M), len(M[0])
    assert abs(_det(V)) == 1
    MV = [[sum(M[i][x] * V[x][j] for x in range(k)) for j in range(k)]
          for i in range(m)]
    for j in range(k):
        s = diag[j] if j < len(diag) else 0
        assert all((x % s == 0) if s else x == 0 for x in
                   (MV[i][j] for i in range(m))), (j, s)
    assert all(s > 0 for s in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    for r in range(1, min(m, k) + 1):
        g = 0
        for rows in combinations(range(m), r):
            for cols in combinations(range(k), r):
                g = gcd(g, _det([[M[i][j] for j in cols] for i in rows]))
        assert g == (prod(diag[:r]) if r <= len(diag) else 0), r


def test_smith_normal_form_examples():
    M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, V = smith_normal_form(M)
    assert diag == [2, 2, 156]
    check_smith(M, diag, V)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_smith_normal_form_random(M):
    diag, V = smith_normal_form(M)
    check_smith(M, diag, V)


def test_feasible():
    # x >= 1, -x >= -2 is feasible; x >= 3, -x >= -2 is not
    assert feasible([((1,), 1), ((-1,), -2)], 1)
    assert not feasible([((1,), 3), ((-1,), -2)], 1)
    # x + y >= 1, x <= 0, y <= 0 infeasible
    assert not feasible([((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)], 2)
    # rational boundaries: 2x >= 1, -3x >= -2 holds at x = 1/2; 2x >= 2,
    # -3x >= -2 asks for 1 <= x <= 2/3
    assert feasible([((2,), 1), ((-3,), -2)], 1)
    assert not feasible([((2,), 2), ((-3,), -2)], 1)


def brute_rays(equations, num_vars, bound=6):
    """Irreducible small solutions of the system, as a set; for cross-checks.

    An extreme ray's primitive generator is an irreducible monoid element,
    i.e. not a sum of two nonzero solutions, and extreme rays are exactly
    the irreducible elements lying on one-dimensional faces.
    """
    sols = []
    for x in product(range(bound + 1), repeat=num_vars):
        if any(x) and all(sum(a * b for a, b in zip(e, x)) == 0
                          for e in equations):
            sols.append(x)
    rays = set()
    for x in sols:
        sup = frozenset(i for i, v in enumerate(x) if v)
        # x spans an extreme ray iff the face it generates is 1-dimensional
        face = [y for y in sols
                if frozenset(i for i, v in enumerate(y) if v) <= sup]
        if rank(face) == 1:
            g = 0
            from math import gcd
            for v in x:
                g = gcd(g, v)
            rays.add(tuple(v // g for v in x))
    return rays


def test_extreme_rays_orthant():
    assert extreme_rays([], 3) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_extreme_rays_slice():
    # x1 + x2 - x3 = 0 inside the orthant: rays (1,0,1), (0,1,1)
    rays = extreme_rays([(1, 1, -1)], 3)
    assert sorted(rays) == [(0, 1, 1), (1, 0, 1)]


def test_extreme_rays_vs_brute():
    systems = [
        ([(1, 1, -1)], 3),
        ([(1, 2, -1, -1)], 4),
        ([(1, -1, 1, -1)], 4),
        ([(1, 1, -1, 0), (0, 1, 1, -1)], 4),
        ([(2, -3, 0, 1)], 4),
        ([(1, 2, -1, -1, 0), (0, 0, 1, 1, -2)], 5),
    ]
    for eqs, n in systems:
        assert set(extreme_rays(eqs, n)) == brute_rays(eqs, n), eqs


def _same_rays(equations, num_vars):
    rays = extreme_rays(equations, num_vars)
    assert rays == extreme_rays_reference(equations, num_vars), equations
    return rays


def test_extreme_rays_of_the_sigma_monoids():
    """The rays of every shuffle's monoid at d = 2 and 3, and of the
    pinned d=4 pairs' shuffles, against the double description on every
    column; every row solves for a column (its slack, or an x-column
    before it)."""
    d4 = {sigma for _, sigma in D4_PAIRS + D4_SET}
    monoids = [SigmaContext(d, sigma) for d in (2, 3)
               for sigma in enumerate_script_S(d)]
    monoids += [SigmaContext(4, sigma) for sigma in sorted(d4)]
    assert len(monoids) > 60
    for ctx in monoids:
        assert len(cones._solved_columns(ctx.phi, ctx.m)) == ctx.r
        assert _same_rays(ctx.phi, ctx.m)


def test_extreme_rays_of_the_no_overlap_monoids():
    """The no-overlap row solves for its first column with entry 1, an
    x-column, not for one of its slack-like -1 columns."""
    for d in (2, 3, 4):
        monoid = no_overlap_monoid(d)
        assert cones._solved_columns(monoid.equations, monoid.num_vars) \
            == {0: d - 2}
        assert _same_rays(monoid.equations, monoid.num_vars)


def test_extreme_rays_of_the_membership_systems(monkeypatch):
    """Every slack system wd_contains builds at d = 3, over every shuffle
    and subset I, with the rays it reads."""
    systems = {}
    original = zeta.extreme_rays

    def recorded(equations, num_vars):
        rays = original(equations, num_vars)
        systems[(tuple(equations), num_vars)] = rays
        return rays

    monkeypatch.setattr(zeta, "extreme_rays", recorded)
    for sigma in enumerate_script_S(3):
        for k in range(3):
            for I in combinations((1, 2), k):
                zeta.wd_contains(3, frozenset(I), sigma)
    assert len(systems) > 10
    for (equations, n), rays in systems.items():
        assert rays == extreme_rays_reference(list(equations), n)


def test_extreme_rays_solve_only_unit_columns():
    # the -2 in the third column is its only entry, but x3 = (x1 - x2) / 2
    # need not be an integer: it stays an unknown, and the first row
    # solves for nothing
    eqs = [(1, -1, -2, 0), (1, -1, 0, -1)]
    assert cones._solved_columns(eqs, 4) == {1: 3}
    assert _same_rays(eqs, 4) == [(1, 1, 0, 0), (2, 0, 1, 2)]
    # two columns of one row are solvable; the row solves for the first,
    # and the second stays an unknown
    eqs = [(1, -1, 1, -1)]
    assert cones._solved_columns(eqs, 4) == {0: 0}
    assert _same_rays(eqs, 4) == [
        (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]


def test_extreme_rays_random_systems():
    """Seeded random systems: most have slack columns of entry +-1, some a
    column whose one entry is +-2 and some two slack columns in a row."""
    rng = random.Random(2501)
    solved = twice = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 3))]
        for k in range(len(rows)):
            for _ in range(rng.choice((0, 1, 1, 2))):
                entry = rng.choice((1, -1, 1, -1, 2, -2))
                for j, row in enumerate(rows):
                    row.append(entry if j == k else 0)
        m = len(rows[0]) if rows else n
        _same_rays([tuple(r) for r in rows], m)
        unit = [j for j in range(m)
                if [abs(r[j]) for r in rows if r[j]] == [1]]
        solved += bool(unit)
        twice += len(unit) > len(cones._solved_columns(rows, m))
    assert solved > 200 and twice > 20


def test_box_points_unimodular():
    assert box_points([(1, 0), (0, 1)]) == [(1, 1)]


def test_box_points_index_two():
    # cone on (1,1) and (1,-1): box holds (1,1)+(1,-1) scaled and (1,0)+(1,0)?
    pts = box_points([(1, 1), (1, -1)])
    assert len(pts) == 2
    brute = brute_box([(1, 1), (1, -1)])
    assert sorted(pts) == sorted(brute)


def _maximal_minor(rays):
    """|a nonzero k x k minor| of the matrix whose columns are the k rays."""
    rows = []
    for row in zip(*rays):
        if rank(rows + [row]) > len(rows):
            rows.append(row)
    assert len(rows) == len(rays)
    return abs(_det([list(r) for r in rows]))


def brute_box(rays, open_rays=None):
    """All integer points Sum a_i r_i with a_i in (0, 1] at the open rays
    (by default all) and in [0, 1) at the others, by rational scan."""
    if open_rays is None:
        open_rays = rays
    k = len(rays)
    m = len(rays[0])
    denom = _maximal_minor(rays)
    pts = set()
    # the coefficients of a lattice point solve a k x k system of the rays'
    # coordinates, so their denominators divide any nonzero maximal minor
    ranges = [range(1, denom + 1) if r in open_rays else range(denom)
              for r in rays]
    for cs in product(*ranges):
        a = [Fraction(c, denom) for c in cs]
        x = []
        ok = True
        for i in range(m):
            v = sum(a[j] * rays[j][i] for j in range(k))
            if v.denominator != 1:
                ok = False
                break
            x.append(int(v))
        if ok:
            pts.add(tuple(x))
    return pts


@pytest.mark.parametrize("rays", [
    [(2, 1), (1, 2)],
    [(1, 0, 0), (1, 2, 0), (1, 1, 3)],
    [(0, 1, 2, 0)],
    [(0, 1, 2, 0), (0, 1, 0, 2)],
    [(3, 1), (1, 3)],
])
def test_box_points_vs_brute(rays):
    assert sorted(box_points(rays)) == sorted(brute_box(rays))


def region_points_brute(monoid, A, C, bound):
    out = []
    for x in product(range(bound + 1), repeat=monoid.num_vars):
        if not monoid.contains(x):
            continue
        sup = {i for i, v in enumerate(x) if v}
        if set(A) <= sup <= set(C):
            out.append(x)
    return out


def genfun_points_upto(f, bound):
    """Truncated expansion of a factored rational function.

    Each denominator factor is expanded geometrically, dropping monomials as
    soon as a coordinate exceeds the bound (denominator exponents are
    nonnegative, so they never come back).
    """
    terms = dict(f.num.terms)
    for r, mult in f.den.items():
        for _ in range(mult):
            new = {}
            for e, c in terms.items():
                cur = e
                while all(x <= bound for x in cur):
                    new[cur] = new.get(cur, 0) + c
                    cur = tuple(a + b for a, b in zip(cur, r))
            terms = new
    return terms


def check_region(eqs, n, A, C, bound=5):
    monoid = DiophantineMonoid(n, eqs)
    f = genfun_region(monoid, A, C)
    terms = genfun_points_upto(f, bound)
    expected = set(region_points_brute(monoid, A, C, bound))
    for e in expected:
        assert terms.get(e, 0) == 1, (e, terms.get(e, 0))
    for e, c in terms.items():
        if all(0 <= x <= bound for x in e):
            assert c == (1 if e in expected else 0), (e, c)


def test_region_full_monoid():
    # x1 + x2 = x3: all solutions
    check_region([(1, 1, -1)], 3, A=(), C=(0, 1, 2))


def test_region_with_positivity():
    check_region([(1, 1, -1)], 3, A=(0,), C=(0, 1, 2))
    check_region([(1, 1, -1)], 3, A=(0, 1), C=(0, 1, 2))


def test_region_with_vanishing():
    check_region([(1, 1, -1)], 3, A=(), C=(0, 2))
    check_region([(1, 2, -1, -1)], 4, A=(1,), C=(0, 1, 2, 3))
    check_region([(1, 2, -1, -1)], 4, A=(), C=(1, 2, 3))


def test_region_two_equations():
    check_region([(1, 1, -1, 0), (0, 1, 1, -1)], 4, A=(), C=(0, 1, 2, 3),
                 bound=4)
    check_region([(1, 1, -1, 0), (0, 1, 1, -1)], 4, A=(0,), C=(0, 1, 2, 3),
                 bound=4)


def test_cells_partition_relint():
    # the signed pieces of each face's relint add up, ray subset by ray
    # subset, to the open cells that tile it: its pulling triangulation's
    # faces whose supports cover it, each counted once
    monoid = DiophantineMonoid(4, [(1, 2, -1, -1)])
    lattice = reference_lattice(monoid)
    memo = {}
    total = 0
    for B in monoid.face_lattice():
        groups = decompose_region_by_face(monoid, B, B)
        simplices = reference_triangulation(monoid, lattice, B, memo) or [()]
        cells = check_signed_pieces(groups, simplices, B)
        assert sorted(cells) == sorted(
            reference_cells(monoid, lattice, B, memo)), B
        total += sum(len(pieces) for _, pieces in groups)
    assert total > 0


def test_triangulation_simplex_counts():
    monoid = DiophantineMonoid(4, [(1, 1, -1, -1)])
    rays = monoid.rays()
    assert len(rays) == 4
    top = frozenset({0, 1, 2, 3})
    tri = monoid.triangulation(top)
    # a 3-dimensional cone with 4 extreme rays triangulates into 2 simplices
    assert len(tri) == 2
    for s in tri:
        assert rank(s) == len(s) == 3


def test_quasi_generator_example():
    # the monoid of (x1, x2, x3, x4) with x1 > 0 forced off and relation
    # x2 + 2 x3 >= x4 encoded by slack: solutions of x2 + 2 x3 - x4 - g = 0
    # restricted to x-support in {x2, x3, x4}; its saturated face has
    # generating rays (0,1,2,0) and (0,1,0,2) after dropping slack -- the
    # degenerate lattice geometry produces a genuine box point
    pts = box_points([(0, 1, 2, 0), (0, 1, 0, 2)])
    assert sorted(pts) == [(0, 1, 1, 1), (0, 2, 2, 2)]


def reference_box(rays, open_rays=None):
    """The box points of one piece from a Smith form of its own rays: a
    residue class c of the quotient lattice has coordinates V . (c / diag),
    folded into (0, 1] at the open rays (by default all) and into [0, 1)
    at the others."""
    if not rays:
        return [()]
    if open_rays is None:
        open_rays = rays
    diag, V = smith_normal_form([list(r) for r in zip(*rays) if any(r)])
    assert len(diag) == len(rays)
    points = []
    for c in product(*(range(s) for s in diag)):
        a = [sum(Fraction(V[j][i] * c[i], diag[i]) for i in range(len(c)))
             for j in range(len(rays))]
        a = [x - ceil(x) + 1 if r in open_rays else x - floor(x)
             for x, r in zip(a, rays)]
        assert all(0 < x <= 1 if r in open_rays else 0 <= x < 1
                   for x, r in zip(a, rays))
        point = tuple(sum(x * r[i] for x, r in zip(a, rays))
                      for i in range(len(rays[0])))
        assert all(x.denominator == 1 for x in point)
        points.append(tuple(int(x) for x in point))
    return sorted(points)


def _d4_pinned_pairs():
    return [WPair(4, frozenset(I), sigma) for I, sigma in D4_PAIRS]


def test_cell_box_points_match_a_smith_form_per_cell():
    """Every piece of every d=3 region and of the pinned d=4 pairs reads
    the box points of a Smith form of its own rays off its top simplex,
    folded at its open rays; and so does the open cell on every face of
    every top simplex.  A top simplex's full piece has one box point per
    element of its group.  Small pieces are checked by rational scan
    too."""
    seen = set()
    orders = set()
    for wp in enumerate_Wd(3) + _d4_pinned_pairs():
        monoid, A, C, _ = region_of_wpair(wp)
        for simplex, pieces in decompose_region_by_face(monoid, A, C):
            group = BoxGroup(simplex)
            faces = [SimplicialPiece(S, group) for S in _subsets(simplex)]
            for p in pieces + faces:
                key = (p.rays, p.open_rays)
                if key in seen:
                    continue
                seen.add(key)
                want = reference_box(p.rays, p.open_rays)
                assert p.box() == want, p
                if p is pieces[0]:
                    # the full piece: one box point per group element
                    assert p.rays == simplex and p.sign == 1
                    assert p.group.order() == len(want), p
                    orders.add(len(want))
                if p.rays and _maximal_minor(p.rays) ** p.dim <= 256:
                    assert set(want) == brute_box(p.rays, p.open_rays), p
    assert len(seen) > 800 and orders == {1, 2, 4, 8}


@pytest.mark.parametrize("simplex", [
    [(1, 2, 0), (1, 0, 2), (0, 1, 1)],
    [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 2)],
])
def test_faces_read_off_a_simplex_group(simplex):
    """Every face of a simplex of index 4 gets its box from the simplex's
    group, open or half-open at any subset of its rays; some proper face
    has points besides the sum of its rays."""
    group = BoxGroup(simplex)
    assert len(group.elements()[1]) == 4
    beyond_sum = 0
    for k in range(1, len(simplex) + 1):
        for face in combinations(simplex, k):
            pts = box_points(face, group)
            assert set(pts) == brute_box(face), face
            if k < len(simplex):
                beyond_sum += pts != [tuple(map(sum, zip(*face)))]
            for j in range(k + 1):
                for opened in combinations(face, j):
                    pts = box_points(face, group, open_rays=opened)
                    assert set(pts) == brute_box(face, opened), (face, opened)
    assert beyond_sum == 1


def test_box_group_rejects_dependent_rays():
    with pytest.raises(ValueError, match="not linearly independent"):
        box_points([(1, 1), (2, 2)])


def _image(x, cols):
    return tuple(sum(a * b for a, b in zip(x, col)) for col in cols)


def test_box_points_through_images_on_every_d3_cell():
    """Every piece of every d=3 region (and of the pinned d=4 pairs), and
    the open cell on every face of their top simplices, in both arenas:
    the box points mapped through the rays' images are the identity
    points mapped through the same columns."""
    checked = 0
    for wp in enumerate_Wd(3) + _d4_pinned_pairs():
        monoid, A, C, keep = region_of_wpair(wp)
        cols = list(zip(*_pair_exponents(wp, keep)))
        for simplex, pieces in decompose_region_by_face(monoid, A, C):
            group = BoxGroup(simplex)
            for p in pieces + [SimplicialPiece(S, group)
                               for S in _subsets(simplex)]:
                for c in (cols, cols[-1:]):
                    got = box_points(p.rays, p.group,
                                     [_image(r, c) for r in p.rays],
                                     p.open_rays)
                    want = sorted(_image(x, c) for x in p.box()) \
                        if p.rays else [()]
                    assert sorted(got) == want, p
                checked += 1
    assert checked > 1000


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_box_points_through_images_random_simplices(data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=1, max_value=m))
    entry = st.integers(min_value=-3, max_value=3)
    rays = [tuple(data.draw(entry) for _ in range(m)) for _ in range(n)]
    assume(rank(rays) == n)
    cols = [tuple(data.draw(entry) for _ in range(m))
            for _ in range(data.draw(st.integers(min_value=1, max_value=2)))]
    group = BoxGroup(rays)
    sel = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    face = [r for i, r in enumerate(rays) if sel >> i & 1]
    opened = [r for r in face if data.draw(st.booleans())]
    images = [_image(r, cols) for r in face]
    assert sorted(box_points(face, group, images, opened)) == \
        sorted(_image(x, cols) for x in box_points(face, group,
                                                    open_rays=opened))


def _sigma_monoids(pairs):
    """The full monoid of each shuffle of the pairs, once per shuffle."""
    return [DiophantineMonoid(wp.context.m, wp.context.phi)
            for wp in {wp.sigma: wp for wp in pairs}.values()]


def test_facets_by_supports_are_the_faces_one_dimension_down():
    """Every face of every d=3 monoid and of the pinned d=4 pairs'
    monoids: the facets cut by coordinate hyperplanes are the faces of the
    reference lattice inside the face, of one dimension less, which a rank
    computation finds."""
    faces = 0
    for monoid in _sigma_monoids(enumerate_Wd(3) + _d4_pinned_pairs()):
        lattice = [cones._mask(B) for B in reference_lattice(monoid)]
        dims = {f: monoid._face_dim(f) for f in lattice}
        for b in lattice:
            dim = dims[b]
            assert monoid._facets(b) == [
                f for f in lattice
                if f & b == f and f != b and dims[f] == dim - 1
            ], b
            faces += 1
    assert faces > 2000


# Two d=5 pairs with I = {1, 2, 3, 4} and J full: the values > 10 in the
# order 11, ..., 20, and the values up to 10 in increasing order, placed by
# a Dyck word.  Each word maps to its region's ray count and the sha256 of
# repr(decompose_region_by_face(...)) on its region.
D5_FULL_REGIONS = {
    (0,) * 10 + (1,) * 10: (
        25, "c2e5ab991d6f41232606fc704d5fdec131639c4f378719fa67a9f128df8106bf"),
    (0,) * 5 + (1, 0) * 5 + (1,) * 5: (
        37, "d41319f13a27fc93badf3101f94eb469ca63c340dabf9ba13de1bda69be540e8"),
}


def test_d5_full_dimensional_regions():
    """Two full-dimensional d=5 regions cut into their pinned pieces, and
    every face their triangulation visits has as facets exactly its faces
    on the hyperplanes x_i = 0, i in its support, of one dimension less."""
    I, order = frozenset({1, 2, 3, 4}), tuple(range(11, 21))
    assert wd_contains(5, I, order)
    for word, (num_rays, digest) in D5_FULL_REGIONS.items():
        big, small = iter(order), iter(range(1, 11))
        wp = WPair(5, I, tuple(next(small) if w else next(big)
                               for w in word))
        assert wp.context.J == frozenset(range(1, 10))
        monoid, A, C, _ = region_of_wpair(wp)
        groups = decompose_region_by_face(monoid, A, C)
        assert len(monoid.rays()) == num_rays
        assert hashlib.sha256(repr(groups).encode()).hexdigest() == digest
        assert monoid._tri
        for b in monoid._tri:
            supports = [s for s in map(cones._support_mask, monoid.rays())
                        if s & b == s]
            # the face of b on x_i = 0, for each i in b
            cut = set()
            for i in cones._bits(b):
                f = 0
                for s in supports:
                    if not s >> i & 1:
                        f |= s
                cut.add(f)
            dim = monoid._face_dim(b)
            assert monoid._facets(b) == sorted(
                (f for f in cut if monoid._face_dim(f) == dim - 1),
                key=lambda f: (f.bit_count(), cones._bits(f))), (word, b)


def test_one_rank_computation_per_region(monkeypatch):
    """Cutting a region into cells on a fresh monoid takes at most one
    Smith form, the rank of its top face's rays: each d=3 pair and each
    pinned d=4 pair, on sigma's full monoid and in the region's own
    coordinates.  The top simplices' BoxGroups take theirs only when box
    points are asked for, which the cut does not do."""
    calls = []
    original = cones.smith_normal_form

    def counted(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(cones, "smith_normal_form", counted)
    for wp in enumerate_Wd(3) + _d4_pinned_pairs():
        ctx = SigmaContext(wp.d, wp.sigma)
        for monoid, A, C in ((DiophantineMonoid(ctx.m, ctx.phi),
                              *wp.region_sets()),
                             region_of_wpair(wp)[:3]):
            calls.clear()
            decompose_region_by_face(monoid, A, C)
            assert len(calls) <= 1, wp


def test_one_smith_form_per_top_simplex(monkeypatch):
    """Over the d=3 pairs and the pinned d=4 pairs, each region decomposed
    once in its own coordinates, the pieces come grouped by the top face's
    simplices, every simplex has a group, and all the pieces of a simplex
    share its one Smith form, though some simplices have several.

    The count is of every Smith form taken per decomposition made: one per
    top simplex, for its BoxGroup, and one per region that has a top face
    holding A, for that face's rank.  The sweeps over the same pairs, from
    an empty region memo, take exactly those: a pair whose system was
    decomposed before takes none."""
    calls = []
    original = cones.smith_normal_form

    def counted(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(cones, "smith_normal_form", counted)
    monkeypatch.setattr(zeta, "_region_memo", {})
    tops = pieces = ranks = 0
    pairs = enumerate_Wd(3) + _d4_pinned_pairs()
    made = set()
    for wp in pairs:
        monoid, A, C, _ = region_of_wpair(wp)
        key = (tuple(monoid.equations), A)
        if key in made:
            continue
        made.add(key)
        groups = decompose_region_by_face(monoid, A, C)
        for _, simplex_pieces in groups:
            for p in simplex_pieces:
                p.box()
                pieces += 1
        top = frozenset().union(*(monoid.support(r) for r in monoid.rays()
                                  if monoid.support(r) <= C))
        taken = len(calls)
        simplices = monoid.triangulation(top) if A <= top else []
        del calls[taken:]
        assert [s for s, _ in groups] == simplices
        tops += len(simplices)
        ranks += A <= top
    assert len(calls) == tops + ranks
    assert tops < pieces
    calls.clear()
    zeta_all(3, ("padic", "reduced", "topological"))
    zeta_all(4, ("padic",), pairs=_d4_pinned_pairs())
    assert len(calls) == tops + ranks


def test_a_region_triangulates_only_its_top_face():
    """Cutting a region into cells triangulates its top face and the faces
    that face's pulling recursion reaches, and no other face: each d=3 pair
    and each pinned d=4 pair, on fresh monoids."""
    regions = 0
    for wp in enumerate_Wd(3) + _d4_pinned_pairs():
        ctx = SigmaContext(wp.d, wp.sigma)
        for fresh in (lambda: (DiophantineMonoid(ctx.m, ctx.phi),
                               *wp.region_sets()),
                      lambda: region_of_wpair(wp)[:3]):
            monoid, A, C = fresh()
            decompose_region_by_face(monoid, A, C)
            alone = fresh()[0]
            alone.triangulation(frozenset().union(
                *(alone.support(r) for r in alone.rays()
                  if alone.support(r) <= C)))
            assert set(monoid._tri) <= set(alone._tri), wp
        regions += 1
    assert regions == 49


def test_region_dump_golden():
    monoid = DiophantineMonoid(4, [(1, 2, -1, -1)])
    # no coordinate asked positive: the one closed simplex, origin included
    dump = region_dump(monoid, frozenset(), frozenset({1, 2, 3}))
    assert dump == "+1; 2; (0, 1, 0, 2),(0, 1, 2, 0); ; 2"
    dump = region_dump(monoid, frozenset({0, 1}), frozenset({0, 1, 2, 3}))
    assert dump == "\n".join([
        "+1; 3; (0, 1, 0, 2),(0, 1, 2, 0),(1, 0, 1, 0); (1, 0, 1, 0); 2",
        "-1; 1; (1, 0, 1, 0); (1, 0, 1, 0); 1",
        "+1; 3; (0, 1, 0, 2),(1, 0, 0, 1),(1, 0, 1, 0); "
        "(0, 1, 0, 2),(1, 0, 0, 1); 1",
    ])


# ---------------------------------------------------------------------------
# Restricted face enumeration against the full lattice.


def _support(ray):
    return frozenset(i for i, x in enumerate(ray) if x)


def reference_lattice(monoid):
    """All faces: the breadth-first union closure of the ray supports, as
    frozensets, sorted by size and then by sorted support."""
    supports = [_support(r) for r in monoid.rays()]
    faces = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        nxt = set()
        for B in frontier:
            for s in supports:
                if B | s not in faces:
                    faces.add(B | s)
                    nxt.add(B | s)
        frontier = nxt
    return sorted(faces, key=lambda s: (len(s), sorted(s)))


def maximal_proper_faces(lattice, B):
    proper = [F for F in lattice if F < B]
    return [F for F in proper if not any(F < G for G in proper)]


def reference_triangulation(monoid, lattice, B, memo):
    """Pulling triangulation of face B over its maximal proper faces."""
    if B not in memo:
        rays = [r for r in monoid.rays() if _support(r) <= B]
        if len(rays) == rank(rays):
            memo[B] = [tuple(rays)] if rays else []
        else:
            v = rays[0]
            memo[B] = [(v,) + simplex
                       for F in maximal_proper_faces(lattice, B)
                       if not _support(v) <= F
                       for simplex in reference_triangulation(
                           monoid, lattice, F, memo)]
    return memo[B]


def reference_cells(monoid, lattice, B, memo):
    """Ray tuples of the triangulation's faces whose supports cover B."""
    if not B:
        return [()]
    out = []
    for simplex in reference_triangulation(monoid, lattice, B, memo):
        for sel in range(1, 1 << len(simplex)):
            subset = tuple(r for i, r in enumerate(simplex) if sel >> i & 1)
            if (subset not in out
                    and frozenset().union(*map(_support, subset)) == B):
                out.append(subset)
    return out


def _subsets(simplex):
    return [tuple(r for i, r in enumerate(simplex) if sel >> i & 1)
            for sel in range(1 << len(simplex))]


def reference_kept(simplices, A):
    """The open-cell rule, simplex by simplex: the ray subsets of each top
    simplex whose supports cover A and that lie in no earlier simplex."""
    return [{S for S in _subsets(simplex)
             if A <= frozenset().union(*map(_support, S))
             and not any(set(S) <= set(e) for e in simplices[:i])}
            for i, simplex in enumerate(simplices)]


def check_signed_pieces(groups, simplices, A):
    """The signed pieces of each top simplex add up, ray subset by ray
    subset, to the open cells the open-cell rule keeps there: for every
    subset S, Sum sign [open rays <= S <= rays] is 1 if S is kept and 0
    if not.  Each simplex that keeps a cell has one full +1 piece.
    Returns the kept cells."""
    by_simplex = dict(groups)
    assert len(by_simplex) == len(groups)
    assert set(by_simplex) <= set(simplices)
    cells = []
    for simplex, kept in zip(simplices, reference_kept(simplices, A)):
        pieces = by_simplex.get(simplex, [])
        assert bool(pieces) == bool(kept), simplex
        for p in pieces:
            assert p.sign in (1, -1)
            assert set(p.open_rays) <= set(p.rays) <= set(simplex), p
        full = [p for p in pieces if p.rays == simplex]
        assert not pieces or [p.sign for p in full] == [1], simplex
        for S in _subsets(simplex):
            total = sum(p.sign for p in pieces
                        if set(p.open_rays) <= set(S) <= set(p.rays))
            assert total == (S in kept), (simplex, S)
        cells.extend(kept)
    return cells


def check_faces_and_regions(monoid, regions):
    lattice = reference_lattice(monoid)
    assert monoid.face_lattice() == lattice
    memo = {}
    for B in lattice:
        dim = monoid.face_dim(B)
        by_dim = [F for F in lattice if F < B and monoid.face_dim(F) == dim - 1]
        assert by_dim == maximal_proper_faces(lattice, B), B
        assert monoid.triangulation(B) == reference_triangulation(
            monoid, lattice, B, memo), B
    for A, C in regions:
        A, C = frozenset(A), frozenset(C)
        top = [B for B in lattice if B <= C][-1]
        groups = decompose_region_by_face(monoid, A, C)
        if not A <= top:
            assert groups == [], (A, C)
            continue
        simplices = reference_triangulation(monoid, lattice, top, memo) \
            or [()]
        cells = check_signed_pieces(groups, simplices, A)
        # the kept cells tile the region: the cells of each face between
        # A and C, each once
        want = [S for B in lattice if A <= B <= C
                for S in reference_cells(monoid, lattice, B, memo)]
        assert sorted(cells) == sorted(want), (A, C)


def test_signed_pieces_of_the_pinned_d4_regions():
    """The open-cell rule, against the pulling triangulation of each
    pinned d=4 pair's top face."""
    for wp in _d4_pinned_pairs():
        monoid, A, C, _ = region_of_wpair(wp)
        top = frozenset().union(*(monoid.support(r) for r in monoid.rays()
                                  if monoid.support(r) <= C))
        groups = decompose_region_by_face(monoid, A, C)
        cells = check_signed_pieces(groups, monoid.triangulation(top), A)
        assert len(cells) > len(groups), wp


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restricted_faces_random_systems(data):
    m = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=2))
    rows = [tuple(data.draw(st.integers(min_value=-2, max_value=2))
                  for _ in range(m))
            for _ in range(k)]
    subsets = [frozenset(i for i in range(m) if sel >> i & 1)
               for sel in range(1 << m)]
    check_faces_and_regions(DiophantineMonoid(m, rows),
                            [(A, C) for C in subsets for A in subsets
                             if A <= C])


def test_face_lattice_order_on_a_wide_monoid():
    # 12 coordinates, past the random systems above; d = 4 monoids have
    # up to 21
    monoid = DiophantineMonoid(12, [(1,) * 6 + (-1,) * 6])
    assert monoid.face_lattice() == reference_lattice(monoid)


def test_restricted_faces_d3_regions():
    """Each d=3 region on sigma's full monoid, and in its own coordinates."""
    regions = {}
    for wp in enumerate_Wd(3):
        regions.setdefault(wp.sigma, []).append(wp.region_sets())
        monoid, A, C, _ = region_of_wpair(wp)
        check_faces_and_regions(monoid, [(A, C)])
    for sigma, pairs in regions.items():
        ctx = SigmaContext(3, sigma)
        check_faces_and_regions(DiophantineMonoid(ctx.m, ctx.phi), pairs)
