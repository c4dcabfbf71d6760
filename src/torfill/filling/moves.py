"""Composite moves: the constant-cost steps of the reduction walk.  Each
is one chunk of a shipped base certificate, named by its base key alone
(Piece.move) and pushed forward or prism-lifted.

Prism operators anticommute exactly under the adopted sign convention, so
generator permutations act on parallelogram cycles by their sign at the
chain level; rearrangements are therefore exact zero-cost moves, and the
base table ships only splitting, zero-generator, Dehn-step and
double-halve certificates.  The circle schedule s1_moves emits its moves
as chunk data (sign, key, columns), which s1_piece turns into one piece.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import UnsupportedDimension
from ..exactlinalg import _check
from .certificate import Piece

Vec = tuple


def _vec(v) -> Vec:
    return tuple(int(x) for x in v)


def _scale_vec(k, v) -> Vec:
    return tuple(k * x for x in v)


def _add_vec(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def move_split(gens, pos, v1, v2) -> Piece:
    """Target Q(gens) - Q(gens[pos -> v1]) - Q(gens[pos -> v2]);
    requires gens[pos] = v1 + v2."""
    gens = tuple(_vec(g) for g in gens)
    v1, v2 = _vec(v1), _vec(v2)
    _check(_add_vec(v1, v2) == gens[pos],
           "split parts must sum to the generator")
    k = len(gens)
    if k == 2 and pos == 1:
        return Piece.move(("SPLIT", 2), [gens[0], v1, v2])
    if k == 2 and pos == 0:
        return -move_split((gens[1], gens[0]), 1, v1, v2)
    if k == 3 and pos < 2:
        return move_split(gens[:2], pos, v1, v2).prism_lift(gens[2])
    raise UnsupportedDimension("split supported for 2 generators, or 3 with"
                               " the split in the first two")


def move_zero_gen(gens) -> Piece:
    """Target Q(gens), where some generator is the zero vector."""
    gens = tuple(_vec(g) for g in gens)
    k = len(gens)
    pos = gens.index((0,) * len(gens[0]))
    if k - 1 not in (1, 2):
        raise UnsupportedDimension("zero-generator fill needs 2 or 3"
                                   " generators")
    sign = -1 if (k - 1 - pos) % 2 else 1
    return Piece.move(("ZERO", k - 1), gens[:pos] + gens[pos + 1:]).scale(sign)


# ---------------------------------------------------------------------------
# the S^1 slim algorithm
# ---------------------------------------------------------------------------

class S1Trace(NamedTuple):
    """Execution trace of the two-phase circle reduction of Q(a, l).

    phase1: (x_i, y_i, k_i) rows of the doubling recursion on Q(1, .);
    phase2: the halving sequence a_0, .., a_N of a.
    Invariants, with M = len(phase1): x_i = 2^i, 2^i | y_i, y_M = 0,
    M <= 1 + log2(L)/2, a_i <= a / 2^i,
    L = l * (2^N + sum_{i < N, a_i odd} 2^i) = a * l.
    """

    a: int
    l: int
    phase1: tuple  # (x_i, y_i, k_i)
    phase2: tuple  # a_0, .., a_N
    total: int  # L


def s1_moves(a: int, l: int):
    """Move schedule filling Q(a, l) in T^1, a, l >= 1, shared by the
    certificate builder and the sweep counter.

    Returns (moves, trace).  Each move is chunk data (sign, key, columns):
    sign * Piece.move(key, columns), whose target is the cycle noted where
    the move is emitted.  Q(a, l) = sum of the moves' targets exactly.
    """
    a, l = int(a), int(l)
    _check(a >= 1 and l >= 1, "the circle schedule needs a, l >= 1")
    moves = []
    x, y = a, l

    # phase 2: halve the first generator, doubling the second
    phase2 = [x]
    pending = []  # second components of the split-off Q(1, .) remainders
    i = 0
    while x > 1:
        second = (1 << i) * y
        if x % 2:
            # Q(x, second) - Q(x - 1, second) - Q(1, second)
            moves.append((-1, ("SPLIT", 2), ((second,), (x - 1,), (1,))))
            pending.append(second)
            x -= 1
        # Q(x, second) - Q(x/2, 2*second)
        moves.append((-1, ("DOUBLE_HALVE",), ((x // 2,), (second,))))
        x //= 2
        i += 1
        phase2.append(x)

    big_l = (1 << i) * y
    for extra in reversed(pending):
        # Q(1, big_l) + Q(1, extra) - Q(1, big_l + extra)
        moves.append((-1, ("SPLIT", 2), ((1,), (big_l,), (extra,))))
        big_l += extra

    # phase 1 on Q(1, big_l)
    phase1 = []
    x1, y1 = 1, big_l
    while y1 >= x1:
        k = (y1 // x1) % 4
        phase1.append((x1, y1, k))
        if k:
            # Q(x1, y1) - Q(x1, y1 - k*x1)
            moves.append((1, ("DEHN", k), ((x1,), (y1,))))
            y1 -= k * x1
        # Q(x1, y1) - Q(2*x1, y1/2)
        _check(y1 % 2 == 0, "double-halve needs an even second generator")
        moves.append((1, ("DOUBLE_HALVE",), ((x1,), (y1 // 2,))))
        x1, y1 = 2 * x1, y1 // 2
    _check(y1 == 0, "phase 1 must land on a zero second generator")
    # Q(x1, 0)
    moves.append((1, ("ZERO", 1), ((x1,),)))

    return moves, S1Trace(a, l, tuple(phase1), tuple(phase2), big_l)


def s1_piece(a: int, l: int):
    """Piece with target Q(a, l) in T^1, plus the trace of the
    doubling/halving schedule.  Move count is O(log al)."""
    moves, trace = s1_moves(a, l)
    return Piece(1, 2, [pair for sign, key, columns in moves for pair
                        in Piece.move(key, columns).scale(sign).chunks]), trace


def slide(u0, m, w) -> Piece:
    """Target Q(u0, w + m*u0) - Q(u0, w), m >= 1: one split plus the
    circle certificate for Q(1, m) pushed along t -> t*u0."""
    u0, w = _vec(u0), _vec(w)
    shifted = _add_vec(w, _scale_vec(m, u0))
    piece = move_split((u0, shifted), 1, w, _scale_vec(m, u0))
    inner, _ = s1_piece(1, m)
    piece = piece + inner.pushforward([u0])
    return piece.marked("SLIDE")
