"""Integral singular chains on tori spanned by straight simplices.

A straight simplex is the projection to T^n = R^n/Z^n of the affine simplex
spanned by an ordered tuple of integer points; it is determined by its vertex
tuple up to a common integer translation.  We resolve the translation quotient
by translating the first vertex to the origin, so a simplex *is* its canonical
vertex tuple (a tuple of int tuples whose first entry is zero), and chains are
finite integer combinations keyed by those tuples.  A linear map T^n -> T^m is
given by the images of the n basis vectors, and the homology class of a
parallelogram cycle is its tuple of minors.  All arithmetic is exact: vertices
are arbitrary-precision integers and the degree oracle works over Fraction.

The kernels re-base only simplices that can lose the origin: faces i >= 1 of
a canonical simplex, every prism term and every image under a linear map
keep it, so boundary re-bases face 0 alone, and prism_v and pushforward
nothing.
linear_map transposes a map's columns once, for all the points it maps.

Degenerate simplices (repeated vertices) are ordinary chain generators here —
this is singular chain calculus, not a simplicial-set quotient.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import gcd
from operator import add, mul, sub

from .errors import DimensionMismatch, NonGenericPoint
from .exactlinalg import det_rows

Vertex = tuple  # tuple[int, ...]


def _as_vertex(p) -> Vertex:
    return tuple(map(int, p))


def canonicalize(vertices) -> tuple:
    """The canonical vertex tuple: translated so the first vertex is the
    origin.  The validating entry point for outside input.

    Tuples differing by a common integer translation map to the same simplex.
    """
    verts = [_as_vertex(p) for p in vertices]
    if not verts:
        raise DimensionMismatch("a simplex needs at least one vertex")
    n = len(verts[0])
    if any(len(p) != n for p in verts):
        raise DimensionMismatch("vertices of mixed coordinate dimension")
    return _canon_fast(tuple(verts))


def _canon_fast(verts) -> tuple:
    # internal path: verts already int tuples of uniform dimension
    v0 = verts[0]
    if any(v0):
        verts = tuple(tuple(map(sub, p, v0)) for p in verts)
    return verts


def faces(simplex) -> list:
    """The canonical vertex-deleted faces; face i carries the sign (-1)^i."""
    return [_canon_fast(simplex[:i] + simplex[i + 1:])
            for i in range(len(simplex))]


class TorusChain:
    """Finite integer combination of canonical straight simplices.

    ``terms`` maps canonical vertex tuples to nonzero coefficients; all
    simplices share ``degree`` and ``ambient_dim``.  Treated as immutable,
    and unhashable, as its terms are a dict.
    """

    __slots__ = ("ambient_dim", "degree", "terms")

    def __init__(self, ambient_dim: int, degree: int, terms: dict):
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.terms = terms

    @staticmethod
    def zero(ambient_dim: int, degree: int) -> "TorusChain":
        return TorusChain(ambient_dim, degree, {})

    @staticmethod
    def from_pairs(ambient_dim, degree, pairs) -> "TorusChain":
        acc = {}
        for simplex, coeff in pairs:
            if len(simplex) != degree + 1 or len(simplex[0]) != ambient_dim:
                raise DimensionMismatch("simplex/chain degree or dimension mismatch")
            c = acc.get(simplex, 0) + coeff
            if c:
                acc[simplex] = c
            elif simplex in acc:
                del acc[simplex]
        return TorusChain(ambient_dim, degree, acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TorusChain") -> "TorusChain":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise DimensionMismatch("cannot add chains of different type")
        acc = dict(self.terms)
        for s, c in other.terms.items():
            v = acc.get(s, 0) + c
            if v:
                acc[s] = v
            elif s in acc:
                del acc[s]
        return TorusChain(self.ambient_dim, self.degree, acc)

    def __neg__(self) -> "TorusChain":
        return TorusChain(self.ambient_dim, self.degree,
                          {s: -c for s, c in self.terms.items()})

    def __sub__(self, other: "TorusChain") -> "TorusChain":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, TorusChain):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.ambient_dim == other.ambient_dim
        return (self.ambient_dim == other.ambient_dim
                and self.degree == other.degree
                and self.terms == other.terms)


def simplex_chain(vertices) -> TorusChain:
    """Chain with a single simplex of coefficient 1."""
    s = canonicalize(vertices)
    return TorusChain(len(s[0]), len(s) - 1, {s: 1})


def l1_norm(c: TorusChain) -> int:
    """Sum of absolute coefficient values over the reduced form."""
    return sum(map(abs, c.terms.values()))


def boundary(c: TorusChain) -> TorusChain:
    """Alternating sum of vertex-deleted faces, with cancellation.

    Faces i >= 1 keep the origin vertex and are canonical as cut; only face
    0 is re-based, on its new first vertex.  Interior faces of a filling
    cancel in pairs, so a face is deleted as soon as its sum is zero, which
    keeps the dict near the size of the result.  Degree-0 chains have zero
    boundary.  boundary(boundary(c)) = 0.
    """
    k = c.degree
    if k == 0:
        return TorusChain.zero(c.ambient_dim, 0)
    acc = {}
    get = acc.get
    origin = ((0,) * c.ambient_dim,)
    sign_k = -1 if k % 2 else 1  # the sign of the face without vertex k
    for simplex, coeff in c.terms.items():
        v1 = simplex[1]
        face = (origin + tuple([tuple(map(sub, p, v1)) for p in simplex[2:]])
                if any(v1) else simplex[1:])
        v = get(face, 0) + coeff
        if v:
            acc[face] = v
        else:
            del acc[face]
        # the first k k-subsets are the faces without vertex k, k-1, .., 1
        coeff *= sign_k
        for face in islice(combinations(simplex, k), k):
            v = get(face, 0) + coeff
            if v:
                acc[face] = v
            else:
                del acc[face]
            coeff = -coeff
    return TorusChain(c.ambient_dim, k - 1, acc)


def linear_map(columns):
    """The point map of the integer map e_i -> columns[i], with the columns
    transposed once: p -> sum_i p[i] * columns[i]."""
    rows = tuple(zip(*columns))

    def image(p) -> Vertex:
        return tuple([sum(map(mul, p, row)) for row in rows])
    return image


def pushforward(columns, c: TorusChain) -> TorusChain:
    """Apply the linear torus map e_i -> columns[i] vertexwise; it sends the
    origin to the origin, so each image is canonical as mapped.  Integer
    columns make the map well defined on T^n.

    Commutes with boundary and never increases the l^1 norm.
    """
    cols = [_as_vertex(u) for u in columns]
    if not cols or len(cols) != c.ambient_dim:
        raise DimensionMismatch("map source dim != chain ambient dim")
    m = len(cols[0])
    if any(len(u) != m for u in cols):
        raise DimensionMismatch("columns of mixed dimension")
    image = linear_map(cols)
    images = {}  # vertices recur across simplices: map each one once
    acc = {}
    get = acc.get
    for simplex, coeff in c.terms.items():
        verts = []
        for p in simplex:
            q = images.get(p)
            if q is None:
                q = images[p] = image(p)
            verts.append(q)
        img = tuple(verts)
        acc[img] = get(img, 0) + coeff
    return TorusChain(m, c.degree, {s: v for s, v in acc.items() if v})


def prism_v(v, c: TorusChain) -> TorusChain:
    """Prism operator of the translation homotopy x |-> x + tv.

    Closed vertex formula on a simplex [q_0,...,q_k]:

        sum_{i=0..k} (-1)^i [q_0,...,q_{k-i}, q_{k-i}+v, ..., q_k+v]

    (the i-th term duplicates vertex k-i and translates the tail by v).
    Every term keeps q_0, the origin, so it is canonical as built.
    On the torus the endpoints of the homotopy are both the identity, so
    boundary(prism_v(c)) = prism_v(boundary(c)) exactly, and
    l1(prism_v(c)) <= (k+1) * l1(c).
    """
    v = _as_vertex(v)
    if len(v) != c.ambient_dim:
        raise DimensionMismatch("vector dim != chain ambient dim")
    acc = {}
    get = acc.get
    for q, coeff in c.terms.items():
        k = len(q) - 1
        shifted = tuple([tuple(map(add, p, v)) for p in q])
        for cut in range(k, -1, -1):
            s = q[:cut + 1] + shifted[cut:]
            acc[s] = get(s, 0) + coeff
            coeff = -coeff
    return TorusChain(c.ambient_dim, c.degree + 1,
                      {s: val for s, val in acc.items() if val})


def parallelogram_cycle(vectors) -> TorusChain:
    """Iterated prism of the segment cycle: Q(v_1..v_k).

    Q(v_1) = [0, v_1] and Q(v_1..v_k) = prism_{v_k}(Q(v_1..v_{k-1})).
    Always a cycle, with l1 <= k!.
    """
    vecs = [_as_vertex(u) for u in vectors]
    if not vecs:
        raise DimensionMismatch("need at least one generating vector")
    n = len(vecs[0])
    if any(len(u) != n for u in vecs):
        raise DimensionMismatch("generating vectors of mixed dimension")
    c = simplex_chain([(0,) * n, vecs[0]])
    for u in vecs[1:]:
        c = prism_v(u, c)
    return c


def _facet_normals(verts):
    """Inward facet data for a nondegenerate n-simplex in Z^n.

    Returns (normals, offsets) with: p interior  <=>  n_i . p > c_i for all i.
    Normal i is the cofactor normal of the hyperplane through the vertices
    other than i, oriented toward vertex i.  None if the simplex is degenerate.
    """
    n = len(verts[0])
    normals, offsets = [], []
    for i in range(n + 1):
        rest = [verts[j] for j in range(n + 1) if j != i]
        base = rest[0]
        rows = [tuple(a - b for a, b in zip(p, base)) for p in rest[1:]]
        # cofactor expansion: normal_k = (-1)^k det(rows without column k)
        normal = []
        for k in range(n):
            sub = [[r[j] for j in range(n) if j != k] for r in rows]
            d = det_rows(sub)
            normal.append(d if k % 2 == 0 else -d)
        c = sum(a * b for a, b in zip(normal, base))
        s = sum(a * b for a, b in zip(normal, verts[i])) - c
        if s == 0:
            return None
        if s < 0:
            normal = [-a for a in normal]
            c = -c
        normals.append(tuple(normal))
        offsets.append(c)
    return normals, offsets


def _count_interior_translates(verts, point):
    """Number of t in Z^n with point + t interior to the simplex `verts`.

    Raises NonGenericPoint when some translate meets the closed boundary.
    Exact: `point` has Fraction coordinates, inequalities are cleared to
    integers before enumeration.
    """
    n = len(point)
    facets = _facet_normals(verts)
    if facets is None:
        return 0  # degenerate: zero orientation sign, contributes nothing
    normals, offsets = facets
    d = 1
    for x in point:
        d = d * x.denominator // gcd(d, x.denominator)
    px = [int(x * d) for x in point]
    # inequality i:  d*(n_i . t) > d*c_i - n_i . (d*point)
    lhs = [tuple(d * a for a in nrm) for nrm in normals]
    rhs = [d * c - sum(a * b for a, b in zip(nrm, px))
           for nrm, c in zip(normals, offsets)]

    lo, hi = [], []
    for axis in range(n):
        cs = [p[axis] for p in verts]
        lo.append(-(-(min(cs) * d - px[axis]) // d) - 1)   # floor-ish slack
        hi.append((max(cs) * d - px[axis]) // d + 1)

    count = 0
    boundary_hit = False

    def rec(axis, t_prefix):
        nonlocal count, boundary_hit
        if axis == n - 1:
            # intersect strict half-lines in the last coordinate
            lo_open, hi_open = lo[axis], hi[axis]
            lo_closed, hi_closed = lo_open, hi_open
            for nrm, r in zip(lhs, rhs):
                a = nrm[axis]
                s = r - sum(nrm[j] * t_prefix[j] for j in range(axis))
                if a == 0:
                    if s > 0:
                        return  # violated for every t_axis
                    if s == 0:
                        boundary_hit = True
                        return
                    continue
                if a > 0:
                    # a * t > s: open bound floor(s/a)+1, closed ceil(s/a)
                    q, rem = divmod(s, a)
                    lo_open = max(lo_open, q + 1)
                    lo_closed = max(lo_closed, q if rem == 0 else q + 1)
                else:
                    q, rem = divmod(s, a)  # a < 0: t < s/a
                    hi_open = min(hi_open, q if rem else q - 1)
                    hi_closed = min(hi_closed, q)
            n_open = max(0, hi_open - lo_open + 1)
            n_closed = max(0, hi_closed - lo_closed + 1)
            if n_closed > n_open:
                boundary_hit = True
            count += n_open
            return
        for t in range(lo[axis], hi[axis] + 1):
            rec(axis + 1, t_prefix + (t,))

    if n == 0:
        return 0
    rec(0, ())
    if boundary_hit:
        raise NonGenericPoint("sample point lies on a face image")
    return count


def degree_at_point(c: TorusChain, point) -> int:
    """Local degree of a top-dimensional chain at a generic rational point.

    Sums, over the terms of c, coefficient x orientation sign x number of
    integer translates of `point` interior to the simplex.  For a cycle this
    is the multiple of the fundamental class it represents.
    """
    # imported here: fractions loads decimal, and only the oracle needs it
    from fractions import Fraction
    if c.degree != c.ambient_dim:
        raise DimensionMismatch("degree oracle needs degree == ambient dim")
    pt = tuple(Fraction(x) for x in point)
    if len(pt) != c.ambient_dim:
        raise DimensionMismatch("point dimension mismatch")
    total = 0
    for verts, coeff in c.terms.items():
        base = verts[0]
        rows = [tuple(a - b for a, b in zip(p, base)) for p in verts[1:]]
        sgn_det = det_rows(rows)
        if sgn_det == 0:
            continue
        sign = 1 if sgn_det > 0 else -1
        total += coeff * sign * _count_interior_translates(verts, pt)
    return total


def sample_degree(c: TorusChain, rng) -> int:
    """degree_at_point at fresh random rational points with odd denominators.

    Resamples with a larger denominator whenever a non-generic point is hit,
    up to 32 points in all.
    """
    from fractions import Fraction
    denom = 101
    for _ in range(32):
        d = denom if denom % 2 else denom + 1
        pt = tuple(Fraction(rng.randrange(1, d), d) for _ in range(c.ambient_dim))
        try:
            return degree_at_point(c, pt)
        except NonGenericPoint:
            denom = denom * 2 + 1
    raise NonGenericPoint("no generic sample found")


def parallelogram_class(vectors, ambient_dim=None) -> tuple:
    """Class of Q(vectors) in H_k(T^n) = Z^C(n,k): the k x k minors of the
    n x k generator matrix (columns = vectors), indexed by row subsets in
    lexicographic order (rows ascending inside each subset).  For k = n the
    single entry is the determinant."""
    vecs = [_as_vertex(u) for u in vectors]
    n = len(vecs[0]) if vecs else ambient_dim
    k = len(vecs)
    return tuple(det_rows([[vecs[j][r] for j in range(k)] for r in rows])
                 for rows in combinations(range(n), k))
