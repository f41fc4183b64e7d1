"""Rational polyhedral cones attached to linear Diophantine systems.

A DiophantineMonoid is the set of nonnegative integer solutions of a
homogeneous linear system A x = 0.  Its real span is a pointed rational cone
inside the nonnegative orthant; this module computes its extreme rays
(double description), pulling triangulations of its faces (each encoded by
its support, the union of its rays' supports), and the generating function
of any "region" (the solutions whose support contains a prescribed set A
and is contained in a prescribed set C), pushed through a monomial map:
summed piece by piece, over all of the region's pieces at once.  The
identity map gives the multivariate generating function itself.

Slacks are inequalities.  A column whose only nonzero entry in the whole
system is +1 or -1 is its row's slack: on the solutions it is an integer
combination of the other coordinates, and its sign condition makes the
row an inequality on them.  The double description runs on the other
unknowns only, with those rows as inequalities, and reads each slack off
its row at the end.  For the same reason Smith normal forms of rays run
on the rows of the coordinates that are not slacks: projecting the slacks
away is a lattice isomorphism on the solutions, so it keeps ranks,
invariant factors and parallelepiped groups.

A triangulation recurses over facets.  Faces are cut out by coordinate
hyperplanes, so the facets of a face are the largest of its faces on the
hyperplanes x_i = 0, i in its support; no face lattice is listed.  Only
the dimension of the face where it starts takes a rank, read off a Smith
normal form of its rays.

A region is cut into signed half-open simplicial pieces, in one pass over
the simplices of the pulling triangulation of its top face.  The open
cells that a simplex adds to the region (the subsets of its rays whose
supports hold every coordinate the region asks to be positive, and that
no earlier simplex holds) form an up-set of its ray subsets, cut out by
sets of rays that each cell must meet; by inclusion-exclusion over the
minimal such sets, the up-set is a signed sum of a few half-open faces of
the simplex, the simplex itself among them.  A piece's numerator sums its
box points, the lattice points of its half-open parallelepiped.  Each top
simplex gets one Smith normal form, for its parallelepiped group
(BoxGroup), and each of its pieces reads its box points off that group:
the elements whose coordinates vanish off the piece's rays, folded into
(0, 1] at the open rays.  Under a monomial map, each ray of a region is
mapped once, and each box point is summed from its rays' images directly
in the arena (two coordinates for (q, t)), not in the monoid's.  The
topological function and c_d read no box points: only a full-dimensional
top simplex's group order, its lattice multiplicity.

All arithmetic is exact, over int.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import gcd
from operator import mul, or_

from .arith import FactoredRationalFunction, LaurentPolynomial, rf_sum_common


# ---------------------------------------------------------------------------
# Exact linear algebra helpers.


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g in (0, 1):
        return tuple(vec)
    return tuple(x // g for x in vec)


def _mask(indices):
    """Bitmask of a set of coordinates."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _bits(mask):
    """Coordinates in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# Rays and parallelepiped group elements recur across the regions that a
# process keeps: the 2,970 distinct regions of W_4 hold 28,399 rays, 3,038
# of them distinct, and 32,746 group elements, 318 of them distinct.  Each
# is kept as one shared copy.
_shared = {}


def _share(value):
    return _shared.setdefault(value, value)


def _support_mask(vec):
    """Bitmask of the nonzero coordinates of a vector."""
    return _mask(i for i, x in enumerate(vec) if x)


def smith_normal_form(M):
    """Return (diag, V): the nonzero invariant factors of M, and a
    unimodular V such that U M V is in Smith normal form for some unimodular
    U.

    M is a list of rows of an m x k integer matrix; V is k x k.  Column j of
    M V is diag[j] times a column of U^-1, and zero past the rank, which
    is len(diag).  U itself is not tracked: the box points read only diag
    and V, and face dimensions only diag.
    """
    m = len(M)
    k = len(M[0]) if m else 0
    A = [list(r) for r in M]
    V = [[int(i == j) for j in range(k)] for i in range(k)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):  # row i += c * row j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]

    def add_col(i, j, c):  # col i += c * col j
        for r in A:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    def diagonalize():
        t = 0
        while t < min(m, k):
            # the first entry of least absolute value, in row-major order
            pos, best = None, 0
            for i in range(t, m):
                row = A[i]
                for j in range(t, k):
                    x = abs(row[j])
                    if x and (not best or x < best):
                        pos, best = (i, j), x
                        if x == 1:
                            break
                if best == 1:
                    break
            if pos is None:
                break
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        add_row(i, t, -(A[i][t] // A[t][t]))
                        if A[i][t]:
                            swap_rows(t, i)
                        dirty = True
                for j in range(t + 1, k):
                    if A[t][j]:
                        add_col(j, t, -(A[t][j] // A[t][t]))
                        if A[t][j]:
                            swap_cols(t, j)
                        dirty = True
                if not dirty:
                    break
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
            t += 1
        return t

    t = diagonalize()
    # enforce divisibility of successive diagonal entries: mixing a violating
    # column pair reintroduces off-diagonal entries, then re-diagonalizing
    # replaces the pair by (gcd, lcm)
    while True:
        bad = next((i for i in range(t - 1) if A[i + 1][i + 1] % A[i][i]),
                   None)
        if bad is None:
            break
        add_col(bad, bad + 1, 1)
        t = diagonalize()
    diag = [A[i][i] for i in range(t) if A[i][i]]
    return diag, V


# ---------------------------------------------------------------------------
# Double description: extreme rays of {x >= 0 : A x = 0}.


def _solved_columns(equations, num_vars):
    """{row: column} of the columns that the system solves for.

    A column whose only nonzero entry in the whole system is +1 or -1 is
    its row's slack: on the solutions, the row fixes it as an integer
    combination of the other coordinates, and x >= 0 there makes the row
    an inequality on them.  Each row solves for at most one column, its
    first such one.
    """
    rows = {}
    for j in range(num_vars):
        nonzero = [k for k, a in enumerate(equations) if a[j]]
        if len(nonzero) == 1 and abs(equations[nonzero[0]][j]) == 1:
            rows.setdefault(nonzero[0], j)
    return rows


def extreme_rays(equations, num_vars):
    """Primitive extreme rays of the cone {x in R^n_{>=0} : a . x = 0 for a in equations}.

    Double description starting from the orthant's unit rays, with the
    combinatorial adjacency test (valid because the cone is pointed).  The
    columns the system solves for (_solved_columns) are not unknowns: a
    row a . y + c s = 0 with c = +-1 becomes the inequality -c a . y >= 0
    on the other unknowns y, and s is read off it at the end.  A ray's
    support then also holds the inequalities it leaves slack, which are the
    nonzero solved coordinates of the full ray, so the adjacency test sees
    what it would see on the full system, and the rays come out the same,
    sorted.  They stay primitive: no ray vanishes on the unknowns, as its
    solved coordinates would vanish too.
    """
    solved = _solved_columns(equations, num_vars)
    free = [j for j in range(num_vars) if j not in solved.values()]
    n = len(free)
    # (row on the unknowns, True for an inequality)
    constraints = []
    for k, a in enumerate(equations):
        j = solved.get(k)
        c = 1 if j is None else -a[j]
        constraints.append(([c * a[i] for i in free], j is not None))
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    supports = [1 << i for i in range(n)]
    for k, (a, inequality) in enumerate(constraints):
        vals = [sum(map(mul, a, r)) for r in rays]
        # an inequality keeps its positive side, and marks the rays that
        # leave it slack
        slack = 1 << (n + k)
        new = [(r, s | slack if v else s)
               for r, s, v in zip(rays, supports, vals)
               if v == 0 or v > 0 and inequality]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vn in enumerate(vals):
                if vn >= 0:
                    continue
                # adjacent iff no third ray has its support inside the union
                union = supports[p] | supports[q]
                if any(s | union == union for i, s in enumerate(supports)
                       if i != p and i != q):
                    continue
                # vp > 0 > vn, so vp * rn - vn * rp is nonnegative, with
                # the union of the two supports as its own
                comb = tuple(vp * y + (-vn) * x
                             for x, y in zip(rays[p], rays[q]))
                new.append((_primitive(comb), union))
        rays, supports = [], []
        seen = set()
        for r, s in new:
            if r not in seen:
                seen.add(r)
                rays.append(r)
                supports.append(s)
    out = []
    for y in rays:
        x = [0] * num_vars
        for j, v in zip(free, y):
            x[j] = v
        for k, j in solved.items():
            x[j] = sum(map(mul, constraints[k][0], y))
        out.append(_share(tuple(x)))
    return sorted(out)


def _coordinate_rows(rays, skip=()):
    """The nonzero rows of the matrix whose columns are the rays, less the
    coordinates in skip."""
    return [list(row) for i, row in enumerate(zip(*rays))
            if any(row) and i not in skip]


# ---------------------------------------------------------------------------
# Box points of a simplicial cone.


class BoxGroup:
    """The parallelepiped group of a simplex, computed on first use.

    For linearly independent rays r_1, ..., r_n it holds the lattice points
    Sum a_i r_i with every a_i in [0, 1): the lattice points of the rays'
    span modulo the lattice the rays generate.  Each element is kept as its
    coordinates a_i, numerators over one common denominator lcm, with the
    mask of its nonzero coordinates.

    A face of the simplex, on a subset S of its rays, has as its group the
    elements with a_i = 0 outside S: a lattice point of the face's span has
    the same coordinates in S as in all the rays.  So one Smith normal form
    serves every face of the simplex, open or half-open: the box of a
    half-open face raises an element's zero coordinates at its open rays
    to 1.

    solved names coordinates that are integer combinations of the others
    on the rays' span (the columns a monoid's system solves for); the
    Smith form leaves them out, which keeps the lattice and the group.
    """

    __slots__ = ("rays", "solved", "_lcm", "_elements")

    def __init__(self, rays, solved=()):
        self.rays = tuple(rays)
        self.solved = solved
        self._elements = None

    def elements(self):
        """(lcm, [(support mask, numerators)]), from the Smith form of the
        matrix whose columns are the rays.

        a_j (numerator over lcm) ranges over V . (c / diag) with
        0 <= c_i < diag[i]; only the invariant factors above 1 let c_i
        move.  Coordinates where every ray vanishes give zero rows, which
        change neither diag nor V; they are left out, and so are the solved
        coordinates.

        Each element is checked here, on every coordinate row, to be a
        lattice point (lcm divides Sum a_i r_i) and to be distinct from the
        others.  That covers the box of every face: a face's point is an
        element plus some of the rays, and folding [0, 1) into (0, 1] is
        injective.
        """
        if self._elements is None:
            M = _coordinate_rows(self.rays)
            diag, V = smith_normal_form(_coordinate_rows(self.rays,
                                                         self.solved))
            if len(diag) != len(self.rays):
                raise ValueError("rays are not linearly independent")
            lcm = 1
            for s in diag:
                lcm = lcm // gcd(lcm, s) * s
            free = [i for i, s in enumerate(diag) if s > 1]
            scaled_V = [[row[i] * (lcm // diag[i]) for i in free]
                        for row in V]
            elements = []
            for c in product(*(range(diag[i]) for i in free)):
                a = tuple(sum(map(mul, row, c)) % lcm for row in scaled_V)
                assert all(sum(map(mul, row, a)) % lcm == 0 for row in M)
                elements.append(_share((_support_mask(a), a)))
            assert len({a for _, a in elements}) == len(elements)
            self._lcm, self._elements = lcm, elements
        return self._lcm, self._elements

    def order(self):
        """Number of elements: the simplex's lattice multiplicity, the
        index of the lattice its rays generate in the lattice points of
        their span."""
        return len(self.elements()[1])


def box_points(rays, group=None, images=None, open_rays=None):
    """Lattice points Sum a_i r_i of a half-open parallelepiped, as tuples:
    a_i in (0, 1] at the open rays, in [0, 1) at the others.

    open_rays is a subset of rays, by default all of them (the box of the
    open cone).  The points are read off the parallelepiped group
    (BoxGroup) of a simplex that has the (linearly independent) rays among
    its own, by default the rays' own simplex: one point per element that
    is 0 off the rays, with its coordinates at the open rays folded into
    (0, 1].  The points come sorted.

    images, if given, holds each ray's image under a linear map, in the
    order of rays; then each point comes as its image
    Sum a_i image(r_i), in the group's order, and is never built in the
    rays' own coordinates.  The empty cone's one point is () either way.
    """
    if not rays:
        return [()]
    if group is None:
        group = BoxGroup(rays)
    lcm, elements = group.elements()
    at = [group.rays.index(r) for r in rays]
    off = ~_mask(at)
    fold = [lcm] * len(at) if open_rays is None else \
        [lcm if r in open_rays else 0 for r in rays]
    coeffs = [[a[i] or f for i, f in zip(at, fold)]
              for support, a in elements if not support & off]
    # lcm divides each coordinate of lcm * point, and so of its image
    cols = list(zip(*(rays if images is None else images)))
    points = [tuple([sum(map(mul, col, a)) // lcm for col in cols])
              for a in coeffs]
    return sorted(points) if images is None else points


# ---------------------------------------------------------------------------
# The monoid, its faces, and region decompositions.


class SimplicialPiece:
    """A signed half-open simplicial cone on linearly independent rays.

    It holds the points Sum a_i r_i with a_i > 0 at the open rays and
    a_i >= 0 at the others, counted with sign (+1 or -1); by default every
    ray is open (the relint of the cone) and the sign is +1.  Its
    lattice-point generating function is
    sign * (sum over box points Z^beta) / prod over rays (1 - Z^ray).  The
    box points are read off group, the BoxGroup of a simplex having the
    rays among its own (by default the rays' own simplex).
    """

    __slots__ = ("rays", "open_rays", "sign", "group")

    def __init__(self, rays, group=None, open_rays=None, sign=1):
        self.rays = tuple(tuple(r) for r in rays)
        self.open_rays = self.rays if open_rays is None else tuple(open_rays)
        self.sign = sign
        self.group = group

    @property
    def dim(self):
        return len(self.rays)

    def box(self):
        return box_points(self.rays, self.group, open_rays=self.open_rays)

    def __repr__(self):
        return (f"SimplicialPiece(rays={self.rays}, "
                f"open_rays={self.open_rays}, sign={self.sign})")


class DiophantineMonoid:
    """Nonnegative integer solutions of a homogeneous system A x = 0.

    Faces are encoded by their supports.  The public methods take and return
    supports as frozensets; inside, a support is an int bitmask.  Smith
    forms of rays leave out the coordinates the system solves for
    (_solved_columns).
    """

    def __init__(self, num_vars, equations):
        self.num_vars = num_vars
        self.equations = [tuple(e) for e in equations]
        self._solved = frozenset(
            _solved_columns(self.equations, num_vars).values())
        self._rays = None
        self._ray_masks = None
        self._tri = {}
        self._fdim = {}

    def rays(self):
        if self._rays is None:
            rays = self._rays = extreme_rays(self.equations, self.num_vars)
            self._ray_masks = {r: _support_mask(r) for r in rays}
        return self._rays

    def contains(self, x):
        return (all(v >= 0 for v in x)
                and all(sum(a * b for a, b in zip(e, x)) == 0
                        for e in self.equations))

    def support(self, ray):
        return frozenset(i for i, x in enumerate(ray) if x)

    def face_lattice(self):
        """All faces, encoded by their support sets, ordered by size and
        then by sorted support: the top face (the union of every ray
        support) and the faces below it, facet by facet (_facets).

        Only tests read this view; a region decomposition visits only the
        faces its triangulation reaches.
        """
        faces = frontier = {self._top_face((1 << self.num_vars) - 1)}
        while frontier:
            frontier = {f for b in frontier for f in self._facets(b)} - faces
            faces = faces | frontier
        return [frozenset(_bits(f)) for f in sorted(faces, key=self._order)]

    def face_dim(self, B):
        return self._face_dim(_mask(B))

    def triangulation(self, B):
        """Pulling triangulation of the face with support B.

        Returns a list of maximal simplices, each a tuple of rays.  The
        first ray of the face in extreme_rays' sorted order is pulled; the
        simplices are that ray joined with the triangulations of the facets
        not containing it.  Only the face's own dimension takes a Smith
        form (_face_dim); its facets are cut by coordinate hyperplanes
        (_facets).
        """
        b = _mask(B)
        return self._triangulation(b, self._face_dim(b))

    # -- the same on support bitmasks ---------------------------------------

    def _order(self, f):
        """face_lattice order: by size, then by the sorted support.  Of two
        supports of one size, the one holding the least element where they
        differ sorts first: the higher of the two masks read with their
        bits reversed."""
        return (f.bit_count(),
                -int(format(f, f"0{self.num_vars}b")[::-1], 2))

    def _top_face(self, c):
        """Support of the largest face inside the coordinate set c: x >= 0
        makes {x_i = 0 for i outside c} a face, so it is the union of the
        supports of the rays inside c."""
        masks = [self._ray_masks[r] for r in self._face_rays(c)]
        return reduce(or_, masks, 0)

    def _face_rays(self, b):
        rays = self.rays()
        masks = self._ray_masks
        return [r for r in rays if masks[r] & b == masks[r]]

    def _face_dim(self, b):
        """Dimension of face b: the rank of its rays, the number of
        nonzero invariant factors of the matrix whose columns they are
        (less its zero rows and solved coordinates, as in
        BoxGroup.elements)."""
        dim = self._fdim.get(b)
        if dim is None:
            M = _coordinate_rows(self._face_rays(b), self._solved)
            dim = self._fdim[b] = len(smith_normal_form(M)[0])
        return dim

    def _facets(self, b):
        """Supports of the facets of face b, in face_lattice order.

        The monoid is {x >= 0 : A x = 0}, so every face is cut out by
        coordinate hyperplanes.  For i in b, the face of b on x_i = 0 is
        F_i, the union of the supports of b's rays that miss i; it is never
        b, since some ray of b holds i.  Every proper face of b lies in
        some F_i, so the facets of b (its maximal proper faces) are the
        maximal F_i.
        """
        supports = [self._ray_masks[r] for r in self._face_rays(b)]
        cut = {reduce(or_, [s for s in supports if not s >> i & 1], 0)
               for i in _bits(b)}
        return sorted((f for f in cut
                       if not any(f != g and f & g == f for g in cut)),
                      key=self._order)

    def _triangulation(self, b, dim):
        """The pulling triangulation of face b (see triangulation), given
        b's dimension dim; each facet is triangulated with dim - 1, so no
        face below b takes a Smith form."""
        out = self._tri.get(b)
        if out is not None:
            return out
        rays = self._face_rays(b)
        if len(rays) == dim:
            out = [tuple(rays)] if rays else []
        else:
            v = rays[0]
            sv = self._ray_masks[v]
            out = [(v,) + simplex
                   for f in self._facets(b) if f & sv != sv
                   for simplex in self._triangulation(f, dim - 1)]
        self._tri[b] = out
        return out


def decompose_region_by_face(monoid: DiophantineMonoid, A, C):
    """Signed half-open simplicial pieces whose signed sum is the region,
    grouped by the top simplex they are faces of: [(simplex, pieces)].

    The region collects the monoid elements x with x_i > 0 for i in A and
    x_i = 0 outside C.  Such x lie in the relative interior of the face
    supp(x), so the region is the disjoint union of the relints of the faces
    B with A <= B <= C.  The faces inside C are the faces of the region's
    top face, whose support is the union of the supports of the rays
    inside C, and the pulling triangulation of that face restricts to each
    of them.  So the region is the disjoint union of open cells: for each
    top simplex in turn, the subsets S of its rays whose supports cover A
    and that lie in no earlier simplex.

    Both conditions ask S to meet sets of the simplex's rays: for each
    i in A, the rays whose support holds i; for each earlier simplex, the
    rays outside it.  So the kept S form an up-set, the indicator of which
    is the product over the inclusion-minimal such sets H of
    1 - [S misses H].  A minimal set that is one ray makes that ray open
    (the other minimal sets miss it).  Expanding the product over the
    other sets gives, for each choice T of them, the half-open face on the
    rays outside the union of T, with the open rays and sign (-1)^|T|.  The
    full simplex (T empty) is the only term that leaves out no ray.  A
    simplex with an empty set to meet adds nothing.

    The top face's dimension is the region's one Smith form here; each
    top simplex's pieces share its BoxGroup, built here, whose Smith form
    waits for the first box points asked of it.
    """
    a = _mask(A)
    top = monoid._top_face(_mask(C))
    if top & a != a:
        return []
    masks = monoid._ray_masks
    bit = {r: 1 << j for j, r in enumerate(monoid._face_rays(top))}
    # for each i in A, the rays of the top face whose support holds i
    holders = [sum(bit[r] for r in bit if masks[r] >> i & 1)
               for i in _bits(a)]
    out, earlier = [], []
    # a top face with no rays is the origin alone: one empty simplex
    simplices = monoid._triangulation(top, monoid._face_dim(top))
    for simplex in simplices or [()]:
        s = sum(bit[r] for r in simplex)
        to_meet = {h & s for h in holders}
        to_meet.update(s & ~e for e in earlier)
        earlier.append(s)
        if 0 in to_meet:
            continue
        minimal = []
        for h in sorted(to_meet, key=lambda h: (h.bit_count(), h)):
            if all(m & h != m for m in minimal):
                minimal.append(h)
        opened = tuple(r for r in simplex if bit[r] in minimal)
        rest = [h for h in minimal if h & (h - 1)]
        group = BoxGroup(simplex, monoid._solved)
        pieces = []
        for sel in range(1 << len(rest)):
            left_out = 0
            for j, h in enumerate(rest):
                if sel >> j & 1:
                    left_out |= h
            pieces.append(SimplicialPiece(
                [r for r in simplex if not bit[r] & left_out], group, opened,
                -1 if sel.bit_count() & 1 else 1))
        out.append((simplex, pieces))
    return out


def genfun_piece(piece: SimplicialPiece, cols, vars, images=None):
    """The piece's signed generating function pushed through a monomial map.

    cols holds, per variable of the arena vars, each coordinate's exponent
    of that variable: x maps to the monomial with exponents col . x.  The
    identity map gives sign * Sum over the piece of Z^x.  Each ray is
    mapped once into images, a dict from rays to their images that pieces
    sharing rays may share; box_points maps the box points of the piece's
    half-open parallelepiped through the rays' images.
    """
    if images is None:
        images = {}
    den = {}
    for ray in piece.rays:
        key = images.get(ray)
        if key is None:
            key = images[ray] = tuple([sum(map(mul, ray, col))
                                       for col in cols])
        den[key] = den.get(key, 0) + 1
    # the empty cone's one point is the origin
    origin = (0,) * len(cols)
    num = {}
    sign = piece.sign
    for key in box_points(piece.rays, piece.group,
                          [images[ray] for ray in piece.rays],
                          piece.open_rays):
        key = key or origin
        num[key] = num.get(key, 0) + sign
    return FactoredRationalFunction(LaurentPolynomial(vars, num), den)


def genfun_faces(groups, cols, vars):
    """Sum of genfun_piece over grouped pieces, in one rf_sum_common.

    Every ray is mapped once for all the pieces.  The pieces of a region
    draw their denominators from the rays of its few top simplices, so
    many pieces miss the same factors of the region-wide common
    denominator; the sum's shared lift multiplies each such factor into
    their sum once.
    """
    images = {}
    return rf_sum_common([genfun_piece(p, cols, vars, images)
                          for _, pieces in groups for p in pieces],
                         vars=vars)


def genfun_region(monoid: DiophantineMonoid, A, C, vars=None):
    """Multivariate generating function Sum over region of Z^x: genfun_faces
    under the identity map."""
    n = monoid.num_vars
    if vars is None:
        vars = tuple(f"z{i+1}" for i in range(n))
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    return genfun_faces(decompose_region_by_face(monoid, A, C), identity,
                        vars)
