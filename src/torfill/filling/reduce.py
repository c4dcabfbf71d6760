"""Top-level reduction: a parallelogram cycle to its rectangle normal form.

A 2x2 matrix with det A = +-1 takes the column walk (_column_walk):
Euclid's algorithm with nearest rounding on the top row, steered to land
on diag(det A, 1).  A column shear w -> w - q*v fills Q(v, w) - Q(v, w - qv),
the Dehn-step cycle pushed along [v | w]; it is made of DEHN/k chunks,
k <= 3, or of one slide when that costs less (_shear).

Every other matrix takes the rectangle pipeline: split generators along
the last coordinate and recurse the singleton terms (paral_to_rects), fill
the linearly dependent remainders (slim_piece), normalize each rectangle
to unit heights by the four-slide schedule (rect_to_unit), and merge the
unit rectangles (combine_rects).
Each step returns a Piece whose docstring states the cycles it fills; the
final certificate is checked, with exact integer arithmetic, against the
claim Q(columns) - R(det, 1..1), and carries the move trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..chains import TorusChain, l1_norm
from ..errors import NotDependent, UnsupportedDimension, VerificationFailure
from ..exactlinalg import IntMatrix, _check, det_exact, hnf, mat_pow
from .base import base_certificate
from .certificate import FillingCertificate, Piece, _unit
from .moves import (_add_vec, _scale_vec, _vec, move_negate, move_split,
                    move_zero_gen, primitive_decomposition, s1_piece,
                    slide_first, slide_second)


def _gens_matrix(gens) -> IntMatrix:
    n = len(gens[0])
    return IntMatrix(tuple(tuple(g[i] for g in gens) for i in range(n)))


def _dependency(gens):
    """Primitive integer relation sum c_i * gens_i = 0, or None."""
    a = _gens_matrix(gens)
    res = hnf(a)
    pivot_cols = {c for _, c in res.pivots}
    for j in range(a.cols):
        if j not in pivot_cols:
            rel = res.u.column(j)
            g = math.gcd(*rel)
            return tuple(x // g for x in rel)
    return None


def _parallel_pair(gens):
    """(i, j, u0, alpha, beta) with gens[i] = alpha*u0, gens[j] = beta*u0."""
    for i in range(len(gens)):
        if not any(gens[i]):
            continue
        d_i, u0 = primitive_decomposition(gens[i])
        for j in range(i + 1, len(gens)):
            if not any(gens[j]):
                continue
            nz = next(t for t, x in enumerate(u0) if x)
            beta, r = divmod(gens[j][nz], u0[nz])
            if r == 0 and _scale_vec(beta, u0) == gens[j]:
                return i, j, u0, d_i, beta
    return None


def slim_piece(gens) -> Piece:
    """Piece filling Q(gens) for linearly dependent generators; raises
    NotDependent when they are independent."""
    gens = tuple(_vec(g) for g in gens)
    k = len(gens)
    n = len(gens[0])
    zero = (0,) * n

    if zero in gens:
        return move_zero_gen(gens)

    pair = _parallel_pair(gens)
    if pair is not None:
        i, j, u0, alpha, beta = pair
        inner, _ = s1_piece(alpha, beta)
        piece = inner.pushforward([u0])
        for t in range(k):
            if t not in (i, j):
                piece = piece.prism_lift(gens[t])
        # the sign of sending positions i < j to the front: bubble i to 0
        # (i swaps), then j to 1 (j - 1 swaps)
        return piece.scale(-1 if (i + j - 1) % 2 else 1)

    if k > 3:
        raise UnsupportedDimension("slim reduction supported up to 3 generators")

    # general integral dependence: Euclidean quotient-splitting
    rel = _dependency(gens)
    if rel is None:
        raise NotDependent("generators are linearly independent")
    i = max(range(k), key=lambda t: abs(rel[t]))
    j = min((t for t in range(k) if t != i), key=lambda t: abs(rel[t]))
    # split gens[j] = (gens[j] + s*gens[i]) + (-s*gens[i]); the second term
    # gives a parallel pair with gens[i], the first shrinks the relation
    s = _round_div(rel[i], rel[j])
    v1 = _add_vec(gens[j], _scale_vec(s, gens[i]))
    v2 = _scale_vec(-s, gens[i])
    piece = move_split(gens, j, v1, v2)
    with_pair = gens[:j] + (v2,) + gens[j + 1:]
    remainder = gens[:j] + (v1,) + gens[j + 1:]
    return piece + slim_piece(with_pair) + slim_piece(remainder)


def _round_div(a, b) -> int:
    """a / b rounded to the nearest integer (halves round down)."""
    q, r = divmod(a, b)  # r has the sign of b, so r / b lies in [0, 1)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def paral_to_rects(gens):
    """Decompose Q(gens) against at most n! signed rectangle cycles.

    Returns (rects, piece) where piece fills Q(gens) - sum_i eps_i R(sizes_i);
    each rect is (eps_i, sizes_i) with all sizes bounded by max |gens|_inf.
    """
    gens = tuple(_vec(g) for g in gens)
    n = len(gens[0])
    _check(len(gens) == n, "a parallelogram in T^n needs n generators")
    if n == 1:
        return [(1, (gens[0][0],))], Piece.zero(1, 1)
    zero = (0,) * n
    if zero in gens:
        return [], move_zero_gen(gens)

    piece = Piece.zero(n, n)
    leaves = [gens]
    for pos in range(n):
        new_leaves = []
        for leaf in leaves:
            v = leaf[pos]
            v_par = tuple(0 if t < n - 1 else v[n - 1] for t in range(n))
            v_perp = tuple(x - y for x, y in zip(v, v_par))
            if not any(v_par) or not any(v_perp):
                new_leaves.append(leaf)
                continue
            piece = piece + move_split(leaf, pos, v_perp, v_par)
            new_leaves.append(leaf[:pos] + (v_perp,) + leaf[pos + 1:])
            new_leaves.append(leaf[:pos] + (v_par,) + leaf[pos + 1:])
        leaves = new_leaves

    rects = []
    for leaf in leaves:
        par_positions = [t for t in range(n) if leaf[t][n - 1] != 0]
        if len(par_positions) == 1:
            p = par_positions[0]
            height = leaf[p][n - 1]
            inner_gens = tuple(leaf[t][:n - 1] for t in range(n) if t != p)
            inner_rects, inner_piece = paral_to_rects(inner_gens)
            embed = [_unit(n, t) for t in range(n - 1)]
            lifted = inner_piece.pushforward(embed).prism_lift(
                _scale_vec(height, _unit(n, n - 1)))
            sign = -1 if (n - 1 - p) % 2 else 1
            piece = piece + lifted.scale(sign)
            rects.extend((sign * eps, sizes + (height,))
                         for eps, sizes in inner_rects)
        else:
            piece = piece + slim_piece(leaf)
    return rects, piece


def rect_to_unit(sizes) -> Piece:
    """Piece filling R(sizes) - R(prod(sizes), 1, .., 1)."""
    sizes = tuple(int(a) for a in sizes)
    n = len(sizes)
    if n == 1 or all(a == 1 for a in sizes[1:]):
        return Piece.zero(n, n)
    if any(a == 0 for a in sizes):
        gens = tuple(_scale_vec(sizes[t], _unit(n, t)) for t in range(n))
        unit_gens = (_scale_vec(0, _unit(n, 0)),) + tuple(
            _unit(n, t) for t in range(1, n))
        return move_zero_gen(gens) - move_zero_gen(unit_gens)
    if n == 2:
        return _rect_to_unit_2d(sizes)
    if n > 3:
        raise UnsupportedDimension("rectangle normalization needs n <= 3")

    a1, mid, an = sizes[0], sizes[1:-1], sizes[-1]
    # phase a: R(sizes) - R(a1*an, mid, 1); phase b: that to R(prod, 1, 1)
    phase_a = _rect_to_unit_2d((a1, an)).pushforward(
        [_unit(n, 0), _unit(n, n - 1)])
    for t, a in enumerate(mid):
        phase_a = phase_a.prism_lift(_scale_vec(a, _unit(n, 1 + t)))
    phase_a = phase_a.scale(-1 if (n - 2) % 2 else 1)
    phase_b = rect_to_unit((a1 * an,) + mid).pushforward(
        [_unit(n, t) for t in range(n - 1)]).prism_lift(_unit(n, n - 1))
    return phase_a + phase_b


def _rect_to_unit_2d(sizes) -> Piece:
    """Four-slide schedule in the plane; the fourth slide is skipped when
    the first size is 1."""
    a, b = sizes
    if b == 1:
        return Piece.zero(2, 2)  # R(a, 1) is already in unit-height form
    e1, e2 = (1, 0), (0, 1)
    v, w = _scale_vec(a, e1), _scale_vec(b, e2)
    steps = []

    delta1 = _scale_vec(b, e1)
    steps.append(slide_second(v, w, delta1))
    w = _add_vec(w, delta1)  # (b, b)

    delta2 = (-1, -1)
    steps.append(slide_first(v, w, delta2))
    v = _add_vec(v, delta2)  # (a-1, -1)

    delta3 = _scale_vec(b, v)
    steps.append(slide_second(v, w, delta3))
    w = _add_vec(w, delta3)  # (a*b, 0)

    if a != 1:
        delta4 = _scale_vec(1 - a, e1)
        steps.append(slide_first(v, w, delta4))
        v = _add_vec(v, delta4)  # (0, -1)
    _check(v == (0, -1) and w == (a * b, 0),
           "the slides must end at (0, -1), (a*b, 0)")

    total = Piece.zero(2, 2)
    for s in steps:
        total = total + s
    # total fills Q((0,-1),(ab,0)) - R(a, b); negate the -e2 generator
    neg = move_negate((_scale_vec(a * b, e1), (0, -1)), 1)
    return -total - neg


def combine_rects(signed_lengths, n):
    """(total, piece) merging signed unit rectangles: piece fills
    sum_i eps_i R(l_i, 1..1) - R(total, 1..1)."""
    piece = Piece.zero(n, n)
    normalized = []
    for eps, length in signed_lengths:
        if eps == -1:
            gens = (_scale_vec(length, _unit(n, 0)),) + tuple(
                _unit(n, t) for t in range(1, n))
            piece = piece - move_negate(gens, 0)
            normalized.append(-length)
        else:
            normalized.append(length)
    if not normalized:
        gens0 = (_scale_vec(0, _unit(n, 0)),) + tuple(
            _unit(n, t) for t in range(1, n))
        return 0, piece - move_zero_gen(gens0)
    running = normalized[0]
    unit_tail = tuple(_unit(n, t) for t in range(1, n))
    for length in normalized[1:]:
        gens = (_scale_vec(running + length, _unit(n, 0)),) + unit_tail
        piece = piece - move_split(gens, 0,
                                   _scale_vec(running, _unit(n, 0)),
                                   _scale_vec(length, _unit(n, 0)))
        running += length
    return running, piece


_E1 = (1, 0)


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
        piece = piece + Piece.move(("DEHN", k), "DEHN", [_E1, w])
        w = (w[0] - k, 1)
    return piece


def _slide_shear(q) -> Piece:
    """Q(e1, e2) - Q(e1, e2 - q*e1) as one slide."""
    return slide_second(_E1, (-q, 1), (q, 0))


def _realized_cost(piece) -> int:
    """The l1 norm of a plane piece's witness, summed from its chunks
    without Piece.assemble: a reduction assembles its piece once, and
    choosing a shear leaves that so."""
    return l1_norm(TorusChain.from_pairs(2, 3, (
        term for _, chunk in piece.chunks for term in chunk.terms.items())))


@functools.lru_cache(maxsize=1024)
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
    return _realized_cost(slide) < _realized_cost(_dehn_shear(q))


def _shear(q) -> Piece:
    """Piece filling Q(e1, e2) - Q(e1, e2 - q*e1) in T^2, the cheaper of
    DEHN chunks and one slide.  Pushed along a unimodular [v | w] it fills
    Q(v, w) - Q(v, w - q*v) at the same cost."""
    if q < 0:
        # the shear by -q from the shifted columns [e1 | e2 - q*e1], negated
        return -_shear(-q).pushforward([_E1, (-q, 1)])
    if q == 0:
        return Piece.zero(2, 2)
    return _slide_shear(q) if _slide_is_cheaper(q) else _dehn_shear(q)


def _column_walk(v, w, det) -> Piece:
    """Piece filling Q(v, w) - Q((det, 0), (0, 1)) for det [v | w] = det,
    det = +-1, by column shears.

    Euclid with nearest rounding on the top row stops when one entry is
    +-1.  Then v0 is made det (if v0 = -det, w0 is made +-1 first), w0 is
    cleared, which leaves w = (0, 1), and v1 is cleared."""
    cols = [v, w]
    piece = Piece.zero(2, 2)

    def shear(i, q):
        """Column i -= q * column j, filling Q(cols) - Q(new cols); a shear
        of v fills -(Q(w, v) - Q(w, v - q*w)), since Q(v, w) = -Q(w, v)."""
        nonlocal piece
        if q:
            j = 1 - i
            step = _shear(q).pushforward([cols[j], cols[i]])
            piece = piece + (step if i else -step)
            cols[i] = _add_vec(cols[i], _scale_vec(-q, cols[j]))

    while abs(cols[0][0]) != 1 and abs(cols[1][0]) != 1:
        i = 0 if abs(cols[0][0]) > abs(cols[1][0]) else 1
        shear(i, _round_div(cols[i][0], cols[1 - i][0]))
    if cols[0][0] == -det and abs(cols[1][0]) != 1:
        w0 = cols[1][0]
        shear(1, min(((w0 - t) * -det for t in (1, -1)), key=abs))
    shear(0, (cols[0][0] - det) * cols[1][0])  # 0 unless w0 = +-1
    shear(1, cols[1][0] * det)
    shear(0, cols[0][1])
    _check(cols == [(det, 0), (0, 1)], "the walk must land on diag(det, 1)")
    return piece


def _rectangle_reduction(gens, det) -> Piece:
    """Piece filling Q(gens) - R(det, 1, .., 1) by the rectangle pipeline."""
    n = len(gens)
    rects, piece = paral_to_rects(gens)
    lengths = []
    for eps, sizes in rects:
        piece = piece + rect_to_unit(sizes).scale(eps)
        prod = 1
        for s in sizes:
            prod *= s
        lengths.append((eps, prod))
    total, combine_piece = combine_rects(lengths, n)
    if total != det:
        raise VerificationFailure("class bookkeeping: combined length %d != "
                                  "det %d" % (total, det))
    return piece + combine_piece


@dataclass(frozen=True)
class ReductionReport:
    """Certificate, with its move trace, for Q(columns of A) ->
    R(det A, 1, .., 1)."""

    matrix: IntMatrix
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
    if n == 2 and abs(det) == 1:
        piece = _column_walk(*gens, det)
    else:
        piece = _rectangle_reduction(gens, det)

    unit_rect_gens = tuple(
        _scale_vec(det if t == 0 else 1, _unit(n, t)) for t in range(n))
    cert = piece.certificate([(1, gens), (-1, unit_rect_gens)])
    norm = a.max_abs()
    return ReductionReport(a, cert, det, math.log2(norm) if norm else 0.0)


@dataclass(frozen=True)
class UpperBoundExperiment:
    """Per-power reduction costs for det-1 matrices and the fitted slope."""

    matrix: IntMatrix
    rows: tuple  # (j, cost, cost/j, log2 |A^j|_inf)
    k_hat: float  # least-squares slope of cost against log2 |A^j|_inf


def fv_upper_experiment(a: IntMatrix, j_max: int) -> UpperBoundExperiment:
    """Reduce A^j for j = 1..j_max (target is the standard fundamental
    rectangle since det A = 1) and fit cost against log2 of the power norm."""
    if det_exact(a) != 1:
        raise UnsupportedDimension("fv_upper_experiment requires det A = 1")
    rows = []
    for j in range(1, j_max + 1):
        report = reduce_parallelogram(mat_pow(a, j))
        cost = report.certificate.cost
        rows.append((j, cost, cost / j, report.log2_norm))
    xs = [r[3] for r in rows]
    ys = [r[1] for r in rows]
    k_hat = _ls_slope(xs, ys)
    return UpperBoundExperiment(a, tuple(rows), k_hat)


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
