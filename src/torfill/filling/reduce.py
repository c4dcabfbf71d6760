"""Top-level reduction: a parallelogram cycle to its rectangle normal form.

One column walk serves every matrix, n <= 3 (_column_walk).  A column shear
w -> w - q*v fills Q(v, w) - Q(v, w - qv), the Dehn-step cycle pushed along
[v | w], prism-lifted by the other columns in T^3; it is made of DEHN/k
chunks, k <= 3, or of one slide when that costs less (_shear).  Row by row,
Euclid brings out the row's gcd and steers it onto the diagonal.  Entries
left below the diagonal split off, and each dependent tuple that leaves is
sheared down to a zero column (ZERO_GEN), as is the whole matrix when
det = 0.  The diagonal R(d_1, .., d_n) goes to R(det, 1, .., 1) by
rect_to_unit: the chunk data of halving_moves, the circle schedule's
halving of each later size into the first; for det = +-1 it is that already.
Each step returns a Piece whose docstring states the cycles it fills; the
final certificate is checked, with exact integer arithmetic, against the
claim Q(columns) - R(det, 1..1), and carries the move trace.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from ..chains import l1_norm
from ..errors import TorfillError, UnsupportedDimension
from ..exactlinalg import IntMatrix, _check, det_exact, mat_pow
from .base import base_certificate
from .certificate import FillingCertificate, Piece, _unit
from .moves import (_add_vec, _scale_vec, chunk_piece, halving_moves,
                    move_split, move_zero_gen, slide)


def _round_div(a, b) -> int:
    """a / b rounded to the nearest integer (halves round down)."""
    q, r = divmod(a, b)  # r has the sign of b, so r / b lies in [0, 1)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


_E1 = (1, 0)


def rect_to_unit(sizes) -> Piece:
    """Piece filling R(sizes) - R(prod(sizes), 1, .., 1), n <= 3, from the
    chunk data of halving_moves, built directly in T^n.

    Every size after the first must be >= 1, as the walk produces them.
    In the plane it is the halving of a_2 along e_2 into a_1*e_1, negated;
    for n = 3, R(a_1, a_2, a_3) goes to R(a_1*a_3, a_2, 1) by the halving
    of a_3 into a_1*e_1, prism-lifted by a_2*e_2, and that to R(prod, 1, 1)
    by the halving of a_2 into a_1*a_3*e_1, prism-lifted by e_3, negated."""
    sizes = tuple(int(a) for a in sizes)
    n = len(sizes)
    if all(a == 1 for a in sizes[1:]):
        return Piece.zero(n, n)
    _check(all(a >= 1 for a in sizes[1:]),
           "rect_to_unit needs every size after the first >= 1, got %r"
           % (sizes,))
    if n > 3:
        raise UnsupportedDimension("rectangle normalization needs n <= 3")
    e = [_unit(n, t) for t in range(n)]

    def halving(t, first):
        """Q(sizes[t]*e[t], first*e[0]) - Q(e[t], sizes[t]*first*e[0])."""
        moves = halving_moves(e[t], _scale_vec(first, e[0]), sizes[t])[0]
        return chunk_piece(n, 2, moves)

    if n == 2:
        return -halving(1, sizes[0])
    a1, a2, a3 = sizes
    return (halving(2, a1).prism_lift(_scale_vec(a2, e[1]))
            - halving(1, a1 * a3).prism_lift(e[2]))


def _dehn_cost(k) -> int:
    return base_certificate(("DEHN", k)).cost


@functools.cache
def _dehn_parts(q) -> tuple:
    """The steps k, 1 <= k <= 3, adding up to q >= 0 whose DEHN/k base
    costs sum least; fewest steps on ties."""
    if q == 0:
        return ()
    return min((_dehn_parts(q - k) + (k,) for k in (3, 2, 1) if k <= q),
               key=lambda parts: (sum(map(_dehn_cost, parts)), len(parts)))


def _dehn_shear(q) -> Piece:
    """Q(e1, e2) - Q(e1, e2 - q*e1) for q >= 1 as DEHN chunks."""
    piece = Piece.zero(2, 2)
    w = (0, 1)
    for k in _dehn_parts(q):
        piece = piece + Piece.move(("DEHN", k), [_E1, w])
        w = (w[0] - k, 1)
    return piece


def _slide_shear(q) -> Piece:
    """Q(e1, e2) - Q(e1, e2 - q*e1) as one slide."""
    return slide(_E1, q, (-q, 1))


def _slide_is_cheaper(q) -> bool:
    """Whether one slide fills the shear by q >= 1 at less cost than DEHN
    chunks.  Their base costs add to at least q * least_rate, and the
    slide realizes at most the sum of its chunks' base costs.  Between those
    bounds the assembled costs decide, since a slide's chunks cancel in part
    (at q = 20 their base costs add to 21 and the slide costs 17)."""
    slide = _slide_shear(q)
    least_rate = min(_dehn_cost(k) / k for k in (1, 2, 3))
    slide_bound = sum(abs(chunk.coeff) * base_certificate(chunk.source).cost
                      for _, chunk in slide.chunks if chunk.coeff)
    if q * least_rate > slide_bound:
        return True
    return (l1_norm(slide.assemble()[0])
            < l1_norm(_dehn_shear(q).assemble()[0]))


@functools.lru_cache(maxsize=1024)
def _shear(q) -> Piece:
    """Piece filling Q(e1, e2) - Q(e1, e2 - q*e1) in T^2 for q != 0, the
    cheaper of DEHN chunks and one slide.  Pushed along a unimodular [v | w]
    it fills Q(v, w) - Q(v, w - q*v) at the same cost.  Memoised: it
    depends on q alone, and a piece is immutable."""
    if q < 0:
        # the shear by -q from the shifted columns [e1 | e2 - q*e1], negated
        return -_shear(-q).pushforward([_E1, (-q, 1)])
    return _slide_shear(q) if _slide_is_cheaper(q) else _dehn_shear(q)


def _unit_rect(n, det) -> tuple:
    """det*e_1, e_2, .., e_n: the generators of R(det, 1, .., 1)."""
    return tuple(_scale_vec(det if t == 0 else 1, _unit(n, t))
                 for t in range(n))


@functools.cache
def _shear_frame(n, i, j) -> tuple:
    """(rest, sign) for a shear of column i by column j of n: the other
    columns in order, and the sign of the column order (j, i, rest)."""
    rest = tuple(k for k in range(n) if k not in (i, j))
    perm = (j, i) + rest
    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
    return rest, -1 if inversions % 2 else 1


def _column_shear(cols, i, j, q) -> Piece:
    """Piece filling Q(cols) - Q(cols with column i -= q * column j): the
    plane shear pushed along [c_j | c_i], prism-lifted by each remaining
    column in order, times the sign of the column order (j, i, rest)."""
    rest, sign = _shear_frame(len(cols), i, j)
    step = _shear(q).pushforward([cols[j], cols[i]])
    for k in rest:
        step = step.prism_lift(cols[k])
    return step.scale(sign)


def _walk_shears(cols, det):
    """The shears (i, j, q), column i -= q * column j, of the walk; the
    caller applies each to cols before asking for the next, and q = 0 is
    none.

    Row by row, over the columns that hold no pivot yet: Euclid with
    nearest rounding, the largest entry less a multiple of the next
    largest, until an entry is +-g, g the gcd of the row's entries.  For
    det != 0 that entry is steered onto the diagonal as s*g, s the sign of
    det on row 0 and 1 on later rows, the rest of the row is cleared, and
    then each entry below the diagonal is reduced modulo its row's pivot;
    the product of the pivots is det.  For det = 0 the entry +-g is the
    pivot where it stands, and the walk runs until some column is zero."""
    n = len(cols)
    live = list(range(n))
    for r in range(n):
        def size(c):
            return abs(cols[c][r])

        g = math.gcd(*(cols[c][r] for c in live))
        if not g:
            continue
        while g not in [abs(cols[c][r]) for c in live]:
            # the largest entry by the next largest, in distinct columns
            i, j = sorted(live, key=size, reverse=True)[:2]
            yield i, j, _round_div(cols[i][r], cols[j][r])
        if det:
            p = live[0]
            target = -g if det < 0 and r == 0 else g
            if cols[p][r] != target:
                m = next((c for c in live if c != p and size(c) == g), None)
                if m is None:  # cols[p][r] = -target is the only +-g
                    m, q = min(((c, (cols[c][r] - t) // cols[p][r])
                                for c in live if c != p for t in (g, -g)),
                               key=lambda cq: abs(cq[1]))
                    yield m, p, q
                yield p, m, (cols[p][r] - target) // cols[m][r]
        else:
            p = next(c for c in live if size(c) == g)
        for c in live:
            if c != p:
                yield c, p, cols[c][r] // cols[p][r]
        live.remove(p)
    if det:
        for r in range(1, n):
            for c in range(r):
                yield c, r, _round_div(cols[c][r], cols[r][r])


def _sheared(cols, det):
    """(piece, sheared cols) for the shears of _walk_shears, stopping at the
    first zero column; piece fills Q(cols) - Q(sheared cols)."""
    cols = list(cols)
    zero, chunks = (0,) * len(cols), []
    for i, j, q in _walk_shears(cols, det):
        if zero in cols:
            break
        if q:
            chunks += _column_shear(cols, i, j, q).chunks
            cols[i] = _add_vec(cols[i], _scale_vec(-q, cols[j]))
    return Piece(len(cols), len(cols), tuple(chunks)), cols


def _fill_dependent(cols) -> Piece:
    """Piece filling Q(cols) for linearly dependent cols: shears down to a
    zero column, which ZERO_GEN closes."""
    piece, cols = _sheared(cols, 0)
    return piece + move_zero_gen(cols)


def _column_walk(gens, det) -> Piece:
    """Piece filling Q(gens) - R(det, 1, .., 1), det = det[gens], n <= 3.

    The shears of _walk_shears take gens to a lower triangular matrix.
    Each entry left below the diagonal, rho at row r, splits off as
    rho*e_r; that leaves a dependent tuple, filled by _fill_dependent.  The
    diagonal R(d_1, .., d_n) that remains goes to rect_to_unit.  For
    det = 0 the shears end at a zero column instead."""
    n = len(gens)
    if not det:
        target = _unit_rect(n, 0)
        if gens == target:
            return Piece.zero(n, n)
        return _fill_dependent(gens) - move_zero_gen(target)
    piece, cols = _sheared(gens, det)
    for r in range(1, n):
        for c in range(r):
            if cols[c][r]:
                part = _scale_vec(cols[c][r], _unit(n, r))
                rest = _add_vec(cols[c], _scale_vec(-1, part))
                piece = (piece + move_split(cols, c, rest, part)
                         + _fill_dependent(cols[:c] + [part] + cols[c + 1:]))
                cols[c] = rest
    _check(not any(x for t, c in enumerate(cols)
                   for s, x in enumerate(c) if s != t),
           "the walk must land on a diagonal matrix")
    return piece + rect_to_unit(cols[t][t] for t in range(n))


class ReductionReport(NamedTuple):
    """Certificate, with its move trace, for Q(columns of A) ->
    R(det A, 1, .., 1)."""

    certificate: FillingCertificate
    det: int
    log2_norm: float


def reduce_parallelogram(a: IntMatrix) -> ReductionReport:
    """Full reduction of the parallelogram cycle on the columns of A; the
    certificate is verified exactly against Q(A) - R(det A, 1, .., 1)."""
    n = a.rows
    if n != a.cols:
        raise UnsupportedDimension("reduce_parallelogram needs a square matrix")
    if n > 3:
        raise UnsupportedDimension("desk scale supports n <= 3")
    gens = tuple(a.column(j) for j in range(n))
    det = det_exact(a)
    cert = _column_walk(gens, det).certificate(
        [(1, gens), (-1, _unit_rect(n, det))])
    norm = a.max_abs()
    return ReductionReport(cert, det, math.log2(norm) if norm else 0.0)


class UpperBoundExperiment(NamedTuple):
    """Per-power reduction costs for det-1 matrices and the fitted slope."""

    rows: tuple  # (j, cost, cost/j, log2 |A^j|_inf)
    k_hat: float  # least-squares slope of cost against log2 |A^j|_inf


def fv_upper_experiment(a: IntMatrix, j_max: int) -> UpperBoundExperiment:
    """Reduce A^j for j = 1..j_max (target is the standard fundamental
    rectangle since det A = 1) and fit cost against log2 of the power norm."""
    if det_exact(a) != 1:
        raise UnsupportedDimension("fv_upper_experiment requires det A = 1")
    rows = []
    for j in range(1, j_max + 1):
        try:
            report = reduce_parallelogram(mat_pow(a, j))
        except TorfillError as exc:
            raise type(exc)("reduce A^%d: %s" % (j, exc)) from exc
        cost = report.certificate.cost
        rows.append((j, cost, cost / j, report.log2_norm))
    xs = [r[3] for r in rows]
    ys = [r[1] for r in rows]
    k_hat = _ls_slope(xs, ys)
    return UpperBoundExperiment(tuple(rows), k_hat)


def _ls_slope(xs, ys) -> float:
    m = len(xs)
    if m < 2:
        return 0.0
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
