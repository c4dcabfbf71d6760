"""Exact integer linear algebra: Hermite normal forms, Smith normal forms
built from alternating Hermite forms, Diophantine solving, fraction-free
determinants, characteristic polynomials, cokernels.

Everything is arbitrary-precision; normal-form results carry their unimodular
transforms, which are checked to have |det| = 1, and are re-verified by
multiplication before being returned.  The normal forms run on plain lists
of integer rows and build an IntMatrix only for their results.  Cokernels
up to 5 x 5 take their invariant factors from the determinantal divisors,
the gcds of the k x k minors, with no elimination and so no transform: each
level of minors is expanded from the level below, along the last row of
each minor; larger cokernels come from the Smith form.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch, NonSquare, VerificationFailure


def _check(ok, what):
    """A proof-bearing check that `python -O` cannot strip."""
    if not ok:
        raise VerificationFailure(what)


class IntMatrix:
    """Rectangular integer matrix, treated as immutable; equal and hashed by
    `data`, its tuple of row tuples."""

    __slots__ = ("data",)

    def __init__(self, data):
        rows = tuple(tuple(int(x) for x in r) for r in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        self.data = rows

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        return IntMatrix(_mul_rows(self.data, other.data))

    def apply(self, vec) -> tuple:
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length != matrix cols")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def max_abs(self) -> int:
        return max((abs(x) for r in self.data for x in r), default=0)

    def is_square(self) -> bool:
        return self.rows == self.cols


def _mul_rows(a, b) -> tuple:
    """Product of two integer matrices given as sequences of rows, whose
    shapes the caller has checked."""
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt])
                  for row in a])


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """A^k by binary powering, k >= 0."""
    if not a.is_square():
        raise NonSquare("mat_pow needs a square matrix")
    if k < 0:
        raise ValueError("negative powers not supported")
    result = IntMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def det_exact(a: IntMatrix) -> int:
    """Determinant of a square IntMatrix (see det_rows)."""
    if not a.is_square():
        raise NonSquare("determinant of a non-square matrix")
    return det_rows(a.data)


def det_rows(rows) -> int:
    """Determinant of a square integer matrix given as a sequence of rows:
    closed forms up to 3 x 3, where they beat elimination (by 5x at 3 x 3),
    fraction-free (Bareiss) elimination beyond."""
    n = len(rows)
    if n <= 3:
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        if n == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(a: IntMatrix) -> tuple:
    """Monic characteristic polynomial, coefficients descending.

    Faddeev-LeVerrier recursion; the per-step trace divisions are exact over
    the integers, so every intermediate stays integral.  Each M_k is kept
    as its list of columns, so that column j of A M is A times column j of
    M; of the last product only the trace is used, so only its diagonal is
    computed.
    """
    if not a.is_square():
        raise NonSquare("charpoly of a non-square matrix")
    n, rows = a.rows, a.data
    coeffs = [1]
    cols = [list(col) for col in zip(*rows)]
    trace = sum(rows[i][i] for i in range(n))
    for k in range(1, n + 1):
        q, r = divmod(-trace, k)
        _check(r == 0, "Faddeev-LeVerrier division must be exact")
        coeffs.append(q)
        if k < n:
            for j in range(n):
                cols[j][j] += q
            if k < n - 1:
                cols = [[sum(map(mul, row, col)) for row in rows]
                        for col in cols]
                trace = sum(cols[i][i] for i in range(n))
            else:
                trace = sum(sum(map(mul, rows[i], cols[i])) for i in range(n))
    return tuple(coeffs)


class SnfResult(NamedTuple):
    """P @ original @ Q = D with P, Q unimodular and D = diag(d_1..d_r, 0..),
    d_i > 0 and d_i | d_{i+1}."""

    p: IntMatrix
    q: IntMatrix
    d: IntMatrix
    original: IntMatrix

    def diagonal(self) -> tuple:
        return tuple(self.d.data[i][i] for i in range(min(self.d.rows, self.d.cols)))


def _is_diagonal(rows) -> bool:
    return not any(x for i, row in enumerate(rows)
                   for j, x in enumerate(row) if i != j)


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms, re-verified by multiplication.

    Column Hermite forms of M and of M^T alternate until M is diagonal,
    which is tested after every form.  Both run `_hermite_cols` on row
    lists: Q stacked under M for the column form, P^T under M^T for the
    form of the transpose, so each transform is updated by the same column
    operations as M.
    Then, for i < j with d_i not dividing d_j, P2 = [[x, y], [-s, t]] on
    rows i, j and Q2 = [[1, -ys], [1, xt]] on columns i, j, where
    x d_i + y d_j = g, s = d_j / g and t = d_i / g, take diag(d_i, d_j) to
    diag(g, d_i s); rows of P are negated to make the entries nonnegative.

    The alternation ends.  From the second form on, entry (0, 0) is a
    positive pivot, the gcd of the row 0 that form is given, so it never
    grows.  If a later form keeps it at g, then g divides that row 0, and
    the form before cleared column 0 (its own row 0), so subtracting
    multiples of column 0 clears the row without changing the column
    lattice.  The reduced Hermite form depends only on the lattice, and that
    of diag(g, B) is diag(g, hnf(B)); so the form returns row 0 and column 0
    clear, and they stay clear, as the same holds for M^T.  The forms then
    act on B alone, and induction on its size ends the loop.
    """
    r, c = a.rows, a.cols
    m = [list(row) for row in a.data]
    q = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    pt = [[1 if i == j else 0 for j in range(r)] for i in range(r)]  # P^T
    while not _is_diagonal(m):
        stacked = m + q
        _hermite_cols(stacked, r)
        m, q = stacked[:r], stacked[r:]
        if _is_diagonal(m):
            break
        stacked = [list(col) for col in zip(*m)] + pt
        _hermite_cols(stacked, c)
        m = [list(row) for row in zip(*stacked[:c])]
        pt = stacked[c:]

    p = [list(row) for row in zip(*pt)]
    diag = [m[i][i] for i in range(min(r, c))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            di, dj = diag[i], diag[j]
            if (dj % di if di else dj) == 0:
                continue
            x, y, g = _xgcd(di, dj)
            s, t = dj // g, di // g
            p[i], p[j] = ([x * u + y * v for u, v in zip(p[i], p[j])],
                          [t * v - s * u for u, v in zip(p[i], p[j])])
            for row in q:
                row[i], row[j] = row[i] + row[j], x * t * row[j] - y * s * row[i]
            diag[i], diag[j] = g, di * s
    for i, v in enumerate(diag):
        if v < 0:
            diag[i] = -v
            p[i] = [-x for x in p[i]]

    d = tuple(tuple(diag[i] if i == j else 0 for j in range(c))
              for i in range(r))
    result = SnfResult(IntMatrix(tuple(map(tuple, p))),
                       IntMatrix(tuple(map(tuple, q))), IntMatrix(d), a)
    _verify_snf(result)
    return result


def _verify_snf(res: SnfResult):
    a, p, q, d = res.original, res.p, res.q, res.d
    _check(p.rows == p.cols == a.rows and q.rows == q.cols == a.cols
           and (d.rows, d.cols) == (a.rows, a.cols), "SNF shapes do not match")
    _check(_mul_rows(_mul_rows(p.data, a.data), q.data) == d.data,
           "SNF transform check failed")
    _check(abs(det_rows(p.data)) == 1, "SNF transform P is not unimodular")
    _check(abs(det_rows(q.data)) == 1, "SNF transform Q is not unimodular")
    diag = res.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if j != i:
                _check(d.data[i][j] == 0, "SNF not diagonal")
    seen_zero = False
    for i, v in enumerate(diag):
        _check(v >= 0, "SNF diagonal must be nonnegative")
        if v == 0:
            seen_zero = True
        else:
            _check(not seen_zero, "zero before nonzero on SNF diagonal")
            if i + 1 < len(diag) and diag[i + 1]:
                _check(diag[i + 1] % v == 0, "SNF divisibility chain broken")


class HnfResult(NamedTuple):
    """Column Hermite normal form: original @ U = H with U unimodular.

    H is a lower staircase: pivots positive and descending left to right,
    zeros to the right of each pivot in its row, entries left of a pivot
    reduced into [0, pivot).
    """

    h: IntMatrix
    u: IntMatrix
    pivots: tuple  # (row, col) per pivot


def hnf(a: IntMatrix) -> HnfResult:
    """Column Hermite form of A with its transform, re-verified."""
    r, c = a.rows, a.cols
    stacked = [list(row) for row in a.data] + \
        [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    pivots = _hermite_cols(stacked, r)
    result = HnfResult(IntMatrix(tuple(map(tuple, stacked[:r]))),
                       IntMatrix(tuple(map(tuple, stacked[r:]))),
                       tuple(pivots))
    _verify_hnf(a, result)
    return result


def _verify_hnf(a: IntMatrix, res: HnfResult):
    u = res.u
    _check(u.rows == u.cols == a.cols, "HNF transform has the wrong shape")
    _check(_mul_rows(a.data, u.data) == res.h.data,
           "HNF transform check failed")
    _check(abs(det_rows(u.data)) == 1, "HNF transform U is not unimodular")


def _hermite_cols(stacked, r):
    """Column Hermite form, in place, of the matrix held in the first r of
    the row lists `stacked` (shape as in HnfResult).  Every column operation
    acts on all the rows, so the rows below r, a transform, are multiplied
    on the right by the same unimodular U.  Returns the (row, col) pivots.
    """
    c = len(stacked[0]) if stacked else 0
    pivots = []
    pivot_col = 0
    for i in range(r):
        if pivot_col >= c:
            break
        row_i = stacked[i]
        j_nonzero = [j for j in range(pivot_col, c) if row_i[j]]
        if not j_nonzero:
            continue
        j0 = j_nonzero[0]
        if j0 != pivot_col:
            for row in stacked:
                row[pivot_col], row[j0] = row[j0], row[pivot_col]
        for j in range(pivot_col + 1, c):
            if row_i[j]:
                aa, bb = row_i[pivot_col], row_i[j]
                x, y, g = _xgcd(aa, bb)
                xx, yy = -(bb // g), aa // g
                for row in stacked:
                    a1, a2 = row[pivot_col], row[j]
                    row[pivot_col] = x * a1 + y * a2
                    row[j] = xx * a1 + yy * a2
        if row_i[pivot_col] < 0:
            for row in stacked:
                row[pivot_col] = -row[pivot_col]
        piv = row_i[pivot_col]
        for j in range(pivot_col):
            f = row_i[j] // piv
            if f:
                for row in stacked:
                    row[j] -= f * row[pivot_col]
        pivots.append((i, pivot_col))
        pivot_col += 1
    return pivots


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        qq = g // ng
        x, nx = nx, x - qq * nx
        y, ny = ny, y - qq * ny
        g, ng = ng, g - qq * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def solve_diophantine(a: IntMatrix, b):
    """One integer solution x of A x = b, or None when b is not in the
    column lattice (certified via the Hermite form).

    The returned solution is re-verified by multiplication.
    """
    b = tuple(int(x) for x in b)
    if len(b) != a.rows:
        raise DimensionMismatch("rhs length != matrix rows")
    res = hnf(a)
    h = res.h
    y = [0] * a.cols
    piv_by_row = dict(res.pivots)
    n_piv = 0
    for i in range(a.rows):
        s = b[i] - sum(h.data[i][j] * y[j] for j in range(n_piv))
        if i in piv_by_row:
            col = piv_by_row[i]
            piv = h.data[i][col]
            q, r = divmod(s, piv)
            if r:
                return None
            y[col] = q
            n_piv += 1
        elif s:
            return None
    x = res.u.apply(y)
    _check(a.apply(x) == b, "Diophantine solution failed re-verification")
    return x


class CokernelStructure(NamedTuple):
    """Invariant-factor description of Z^n / im(A)."""

    torsion_factors: tuple  # invariant factors > 1, each dividing the next
    free_rank: int
    torsion_order: int


MINORS_MAX_N = 5  # the largest k x k minors _determinantal_factors expands


def coker_structure(rows) -> CokernelStructure:
    """Cokernel Z^r / im(A) of an r x c integer matrix A, given as a tuple
    of integer row tuples.

    Up to MINORS_MAX_N rows and columns, the invariant factors come from the
    determinantal divisors: D_k, the gcd of all k x k minors, equals
    d_1 ... d_k, and the rank is the largest k with D_k != 0.  No
    elimination runs, so there is no transform to certify; the divisibility
    chain is checked.  D_1 is the gcd of the entries; each later level of
    minors is computed from the level below by Laplace expansion (see
    _minor_plan), and D_k is one gcd over the whole level.  Once D_k = 0,
    every later D is 0 too.

    Larger matrices take the verified Smith form `snf`.  Measured per
    matrix on A^k - I, 20 matrices A with entries in [-5, 5] per size and
    k = 1..40 (Python 3.11, 2-core x86-64 host), the minors take 0.007,
    0.016, 0.030 and 0.075 ms at 2 x 2, 3 x 3, 4 x 4 and 5 x 5, against
    0.11, 0.26, 0.31 and 0.37 ms for `snf`.  The expansion is written out
    per level up to k = MINORS_MAX_N; a version for any k, one sum over map
    per minor, takes 0.96 ms at 6 x 6 against 0.88 ms for `snf`.
    """
    r, c = len(rows), len(rows[0]) if rows else 0
    if max(r, c) <= MINORS_MAX_N:
        factors = _determinantal_factors(rows, r, c)
    else:
        factors = [d for d in snf(IntMatrix(rows)).diagonal() if d]
    return CokernelStructure(tuple(d for d in factors if d > 1),
                             r - len(factors), math.prod(factors))


def _determinantal_factors(rows, r, c):
    """The nonzero invariant factors d_1 | d_2 | ... of an r x c integer
    matrix given as rows, from its determinantal divisors (see
    coker_structure)."""
    f = sum(rows, ())  # at most MINORS_MAX_N row tuples
    m = f  # the k x k minors, k = 1 first
    factors = []
    last = 1  # D_{k-1}
    for k, level in enumerate(_minor_plan(r, c), 1):
        # Laplace expansion along the last row: its entry j has the sign
        # (-1)^(k - 1 + j)
        if k == 2:
            m = [f[e1] * m[u1] - f[e0] * m[u0] for e0, e1, u0, u1 in level]
        elif k == 3:
            m = [f[e0] * m[u0] - f[e1] * m[u1] + f[e2] * m[u2]
                 for e0, e1, e2, u0, u1, u2 in level]
        elif k == 4:
            m = [f[e1] * m[u1] - f[e0] * m[u0] + f[e3] * m[u3] - f[e2] * m[u2]
                 for e0, e1, e2, e3, u0, u1, u2, u3 in level]
        elif k == 5:
            m = [f[e0] * m[u0] - f[e1] * m[u1] + f[e2] * m[u2] - f[e3] * m[u3]
                 + f[e4] * m[u4]
                 for e0, e1, e2, e3, e4, u0, u1, u2, u3, u4 in level]
        g = math.gcd(*m)
        if not g:
            break
        _check(g % last == 0, "determinantal divisor D_{k-1} does not divide"
               " D_k")
        d = g // last
        _check(d > 0 and (not factors or d % factors[-1] == 0),
               "invariant factor divisibility chain broken")
        factors.append(d)
        last = g
    return factors


@functools.cache
def _minor_plan(r, c):
    """Laplace expansions of the k x k minors of an r x c matrix, level by
    level, for k = 1..min(r, c), min(r, c) <= MINORS_MAX_N.  Level 1 is
    empty: its minors are the entries themselves.

    The minors of a level are listed by row set, then column set, in
    lexicographic order.  Minor (rs, cs) is expanded along its last row
    rs[-1]: its plan is the flat indices of that row's entries in the
    columns cs, then the positions in the level below of the minors on the
    rows rs[:-1] and the columns cs without cs[j], j = 0..k-1."""
    levels = [()]
    below = {((i,), (j,)): i * c + j for i in range(r) for j in range(c)}
    for k in range(2, min(r, c) + 1):
        level, index = [], {}
        for rs in itertools.combinations(range(r), k):
            for cs in itertools.combinations(range(c), k):
                index[rs, cs] = len(level)
                level.append(tuple(rs[-1] * c + col for col in cs)
                             + tuple(below[rs[:-1], cs[:j] + cs[j + 1:]]
                                     for j in range(k)))
        levels.append(tuple(level))
        below = index
    return tuple(levels)
