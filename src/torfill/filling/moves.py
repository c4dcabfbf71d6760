"""Composite moves: the constant-cost steps of the reduction walk, realized
as pushforwards or prism lifts of the shipped base certificates.

Prism operators anticommute exactly under the adopted sign convention, so
generator permutations act on parallelogram cycles by their sign at the
chain level; rearrangements are therefore exact zero-cost moves, and the
move table below only ever solves for negation, splitting, zero-generator,
Dehn-step, and double-halve certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def primitive_decomposition(v):
    """v = d * u0 with d > 0 and u0 primitive (same direction as v)."""
    v = _vec(v)
    d = math.gcd(*v)
    if d == 0:
        raise ValueError("zero vector has no primitive direction")
    return d, tuple(x // d for x in v)


def move_negate(gens, pos) -> Piece:
    """Target Q(gens) + Q(gens with -v at pos)."""
    gens = tuple(_vec(g) for g in gens)
    k = len(gens)
    if k < 2 or k > 3:
        raise UnsupportedDimension("negation supported for 2 or 3 generators")
    if pos == 0 and k == 2:
        return Piece.move(("NEGATE", 2), "NEGATE", gens)
    if pos == 0:
        return move_negate(gens[:2], 0).prism_lift(gens[2])
    # conjugate by an exact transposition: Q(..a,b..) = -Q(..b,a..)
    swapped = list(gens)
    swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
    return -move_negate(tuple(swapped), pos - 1)


def move_split(gens, pos, v1, v2) -> Piece:
    """Target Q(gens) - Q(gens[pos -> v1]) - Q(gens[pos -> v2]);
    requires gens[pos] = v1 + v2."""
    gens = tuple(_vec(g) for g in gens)
    v1, v2 = _vec(v1), _vec(v2)
    _check(_add_vec(v1, v2) == gens[pos],
           "split parts must sum to the generator")
    k = len(gens)
    if k == 2 and pos == 1:
        return Piece.move(("SPLIT", 2), "SPLIT", [gens[0], v1, v2])
    if k == 2 and pos == 0:
        return -move_split((gens[1], gens[0]), 1, v1, v2)
    if k == 3 and pos < 2:
        return move_split(gens[:2], pos, v1, v2).prism_lift(gens[2])
    if k == 3 and pos == 2:
        return -move_split((gens[0], gens[2], gens[1]), 1, v1, v2)
    raise UnsupportedDimension("split supported for 2 or 3 generators")


def move_zero_gen(gens) -> Piece:
    """Target Q(gens), where some generator is the zero vector."""
    gens = tuple(_vec(g) for g in gens)
    k = len(gens)
    n = len(gens[0])
    zero = (0,) * n
    pos = gens.index(zero)
    if k == 1:
        # Q(0) = [0,0] bounds the constant 2-simplex [0,0,0] exactly
        return Piece.move(None, "ZERO_GEN", [zero])
    if k - 1 not in (1, 2):
        raise UnsupportedDimension("zero-generator fill needs k <= 3")
    sign = -1 if (k - 1 - pos) % 2 else 1
    return Piece.move(("ZERO", k - 1), "ZERO_GEN",
                      gens[:pos] + gens[pos + 1:]).scale(sign)


def move_dehn(x, y, kappa) -> Piece:
    """Target Q(x, y) - Q(x, y - kappa*x) on the circle, kappa in 0..3."""
    if kappa == 0:
        return Piece.zero(1, 2)
    return Piece.move(("DEHN", kappa), "DEHN", [(x,), (y,)])


def move_double_halve(x, y) -> Piece:
    """Target Q(x, y) - Q(2x, y/2) on the circle; y must be even."""
    _check(y % 2 == 0, "double-halve needs an even second generator")
    return Piece.move(("DOUBLE_HALVE",), "DOUBLE_HALVE", [(x,), (y // 2,)])


# ---------------------------------------------------------------------------
# the S^1 slim algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class S1Trace:
    """Execution trace of the two-phase circle reduction of Q(a, l).

    phase1: (x_i, y_i, k_i) rows of the doubling recursion on Q(1, .);
    phase2: the halving sequence a_i of |a| with its odd/even index sets.
    Invariants: x_i = 2^i, 2^i | y_i, y_M = 0, M <= 1 + log2(L)/2,
    a_i <= |a| / 2^i, L = l * (2^N + sum_{i in I_o} 2^i) = |a| * |l|.
    """

    a: int
    l: int
    phase1: tuple  # (x_i, y_i, k_i)
    phase2: tuple  # a_0, .., a_N
    odd_indices: tuple
    even_indices: tuple
    n_steps: int  # N
    m_steps: int  # M = len(phase1)
    total: int  # L
    move_count: int


def s1_moves(a: int, l: int):
    """Move schedule filling Q(a, l) in T^1, shared by the certificate
    builder and the sweep counter.

    Returns (moves, trace); each move is (sign, kind, args) with the
    invariant  Q(a, l) = sum_i sign_i * target_i  exactly.
    """
    a, l = int(a), int(l)
    moves = []
    sign = 1
    x, y = a, l

    if y == 0:
        trace = S1Trace(a, l, (), (), (), (), 0, 0, 0, 1)
        moves.append((sign, "ZERO", (x,)))
        return moves, trace
    if x == 0:
        # Q(0, y) = -Q(y, 0) exactly
        trace = S1Trace(a, l, (), (), (), (), 0, 0, 0, 1)
        moves.append((-sign, "ZERO", (y,)))
        return moves, trace

    if x < 0:
        moves.append((sign, "NEG1", (x, y)))
        sign, x = -sign, -x
    if y < 0:
        moves.append((sign, "NEG2", (x, y)))
        sign, y = -sign, -y

    # phase 2: halve the first generator, doubling the second
    phase2 = [x]
    odd, even = [], []
    pending = []  # second components of the split-off Q(1, .) remainders
    i = 0
    while x > 1:
        second = (1 << i) * y
        if x % 2 == 0:
            even.append(i)
        else:
            odd.append(i)
            moves.append((sign, "SPLIT1", (x, second, x - 1, 1)))
            pending.append(second)
            x -= 1
        moves.append((-sign, "DH", (x // 2, 2 * second)))
        x //= 2
        i += 1
        phase2.append(x)
    n_steps = i

    big_l = (1 << n_steps) * y
    for extra in reversed(pending):
        moves.append((-sign, "SPLIT2", (1, big_l + extra, big_l, extra)))
        big_l += extra

    # phase 1 on Q(1, big_l)
    phase1 = []
    x1, y1 = 1, big_l
    while y1 >= x1:
        i = x1.bit_length() - 1
        k = (y1 // x1) % 4
        phase1.append((x1, y1, k))
        if k:
            moves.append((sign, "DEHN", (x1, y1, k)))
            y1 -= k * x1
        moves.append((sign, "DH", (x1, y1)))
        x1, y1 = 2 * x1, y1 // 2
    _check(y1 == 0, "phase 1 must land on a zero second generator")
    moves.append((sign, "ZERO", (x1,)))

    trace = S1Trace(a, l, tuple(phase1), tuple(phase2), tuple(odd),
                    tuple(even), n_steps, len(phase1), big_l, len(moves))
    return moves, trace


# the Piece of each s1_moves kind, from its args
_S1_MOVES = {
    "NEG1": lambda x, y: move_negate(((x,), (y,)), 0),
    "NEG2": lambda x, y: move_negate(((x,), (y,)), 1),
    "DEHN": move_dehn,
    "DH": move_double_halve,
    "SPLIT1": lambda x, y, p1, p2: move_split(((x,), (y,)), 0, (p1,), (p2,)),
    "SPLIT2": lambda x, y, p1, p2: move_split(((x,), (y,)), 1, (p1,), (p2,)),
    "ZERO": lambda x: move_zero_gen(((x,), (0,))),
}


def s1_piece(a: int, l: int):
    """Piece with target Q(a, l) in T^1, plus the trace of the
    doubling/halving schedule.  Move count is O(log|al|)."""
    moves, trace = s1_moves(a, l)
    return Piece(1, 2, [pair for sign, kind, args in moves for pair
                        in _S1_MOVES[kind](*args).scale(sign).chunks]), trace


def slide(u0, d, m, w) -> Piece:
    """Target Q(d*u0, w + m*u0) - Q(d*u0, w): one split plus the circle
    certificate for Q(d, m) pushed along t -> t*u0."""
    u0, w = _vec(u0), _vec(w)
    n = len(u0)
    if m == 0:
        return Piece.zero(n, 2)
    v = _scale_vec(d, u0)
    shifted = _add_vec(w, _scale_vec(m, u0))
    piece = move_split((v, shifted), 1, w, _scale_vec(m, u0))
    inner, _ = s1_piece(d, m)
    piece = piece + inner.pushforward([u0])
    return piece.marked("SLIDE")


def slide_second(v, w, delta) -> Piece:
    """Target Q(v, w + delta) - Q(v, w) for delta parallel to v."""
    d, u0 = primitive_decomposition(v)
    delta = _vec(delta)
    nz = next(i for i, x in enumerate(u0) if x)
    m, r = divmod(delta[nz], u0[nz])
    _check(r == 0 and _scale_vec(m, u0) == delta,
           "delta must be a u0 multiple")
    return slide(u0, d, m, w)


def slide_first(v, w, delta) -> Piece:
    """Target Q(v + delta, w) - Q(v, w) for delta parallel to w."""
    return -slide_second(w, v, delta)
