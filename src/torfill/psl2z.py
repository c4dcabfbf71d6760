"""Word decomposition in PSL(2,Z) = Z/2 * Z/3.

The order-2 factor is generated by (the image of) S and the order-3 factor
by U, with the standard lifts

    S = [[0, -1], [1, 0]]        U = [[0, -1], [1, -1]]

(so S^2 = -I and U^3 = I in SL(2,Z)).  Words are stored in alternating
normal form over the letters S, U, U2 with a sign recording the lift.

Decomposition runs one continued-fraction descent on the first column,
emitting the letters of T = [[1,1],[0,1]] = U^2 S and S as it goes, then
reduces once in the free product.  Each quotient q of the descent becomes
2|q| letters, so the cost is linear in the sum of the |quotients|, not in
the bit size: [[1, q], [0, 1]] decomposes into a word of 2q letters.  A
decomposition or power longer than MAX_LETTERS is refused, from its letter
count, before any list is built.
Cyclic reduction works on the two ends only: an alternating word stays
alternating when its ends cancel or merge.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotUnimodular, TorfillError, VerificationFailure
from .exactlinalg import IntMatrix, _check, mat_pow

MAX_LETTERS = 10 ** 7

# right multiplication by a letter, on the entries (a, b, c, d) of
# [[a, b], [c, d]]
_LETTER_ACTIONS = {
    "S": lambda a, b, c, d: (b, -a, d, -c),
    "U": lambda a, b, c, d: (b, -a - b, d, -c - d),
    "U2": lambda a, b, c, d: (-a - b, a, -c - d, c),
}


def _factor(letter: str) -> int:
    return 2 if letter == "S" else 3


def _merge(a: str, b: str):
    """Product of two letters from the same factor; None means cancellation."""
    if a == "S":
        return None  # S * S
    power = (1 if a == "U" else 2) + (1 if b == "U" else 2)
    power %= 3
    return None if power == 0 else ("U" if power == 1 else "U2")


def _reduce(letters):
    """Free-product reduction to alternating normal form (stack scan)."""
    stack = []
    for letter in letters:
        if stack and _factor(stack[-1]) == _factor(letter):
            # the letter below differs in factor, so one merge settles it
            merged = _merge(stack.pop(), letter)
            if merged is not None:
                stack.append(merged)
        else:
            stack.append(letter)
    return tuple(stack)


class Psl2Word:
    """Alternating word over {S, U, U2} plus the sign of its SL(2,Z) lift;
    treated as immutable, equal and hashed by (letters, sign)."""

    __slots__ = ("letters", "sign")

    def __init__(self, letters: tuple, sign: int = 1):
        _check(sign in (1, -1), "the sign of a word is +1 or -1")
        for a, b in zip(letters, letters[1:]):
            if _factor(a) == _factor(b):
                raise VerificationFailure("word is not alternating")
        self.letters = letters
        self.sign = sign

    def __eq__(self, other):
        if not isinstance(other, Psl2Word):
            return NotImplemented
        return (self.letters, self.sign) == (other.letters, other.sign)

    def __hash__(self):
        return hash((self.letters, self.sign))

    def __str__(self):
        body = "·".join(self.letters) if self.letters else "e"
        return ("-" if self.sign < 0 else "") + body


def reconstruct(word: Psl2Word) -> IntMatrix:
    """Exact matrix product sign * L_1 ... L_m."""
    entries = (word.sign, 0, 0, word.sign)
    for letter in word.letters:
        entries = _LETTER_ACTIONS[letter](*entries)
    a, b, c, d = entries
    return IntMatrix(((a, b), (c, d)))


def _signed(letters, target: IntMatrix, what) -> Psl2Word:
    """The word of the reduced letters whose lift is target, or
    VerificationFailure when neither sign gives target."""
    got = reconstruct(Psl2Word(letters, 1))
    if got.data == target.data:
        return Psl2Word(letters, 1)
    if tuple(tuple(-x for x in row) for row in got.data) != target.data:
        raise VerificationFailure("%s failed to reproduce +/- its matrix"
                                  % what)
    return Psl2Word(letters, -1)


def _fit(count, what):
    """Refuse a word of `count` letters over MAX_LETTERS."""
    if count > MAX_LETTERS:
        raise TorfillError("the %s would have more than %d letters"
                           % (what, MAX_LETTERS))


def _add_t_power(letters, k):
    """Append the letters of T^k: T = U^2 S and T^{-1} = S U in PSL."""
    _fit(len(letters) + 2 * abs(k), "decomposition")
    letters += ["U2", "S"] * k if k > 0 else ["S", "U"] * -k


def decompose(a: IntMatrix) -> Psl2Word:
    """Alternating word w with reconstruct(w) = A (sign resolves the lift)."""
    if a.rows != 2 or a.cols != 2:
        raise NotUnimodular("decompose needs a 2x2 matrix")
    (p, q), (r, s) = a.data
    if p * s - q * r != 1:
        raise NotUnimodular("decompose needs det = 1")
    # peel letters from the left: A = T^{k_1} S T^{k_2} S ... (+/- T^b);
    # T^{-k} then S^{-1} = [[0,1],[-1,0]] on the left of [[p, q], [r, s]]
    letters = []
    while r != 0:
        k = p // r
        _add_t_power(letters, k)
        letters.append("S")
        p, q, r, s = r, s, k * r - p, k * s - q
    _check(abs(p) == 1 and p == s, "the peeled remainder is not +-T^b")
    _add_t_power(letters, p * q)
    return _signed(_reduce(letters), a, "decomposition")


def cyclically_reduced_length(word: Psl2Word) -> int:
    """Letters left after cyclic reduction: cancelling ends both go, and
    merging ends leave ends of different factors."""
    letters = word.letters
    i, j = 0, len(letters) - 1
    while i < j and _factor(letters[i]) == _factor(letters[j]):
        if _merge(letters[j], letters[i]) is not None:
            return j - i
        i, j = i + 1, j - 1
    return j - i + 1


def word_power(w: Psl2Word, j: int) -> Psl2Word:
    """w^j, j >= 0, in one reduction of the repeated letters (stack
    reduction is confluent).  Cancellations like S*S = -I flip the lift
    sign, so the sign comes from the exact power of w's matrix."""
    _fit(len(w.letters) * j, "power %d" % j)
    return _signed(_reduce(w.letters * j), mat_pow(reconstruct(w), j),
                   "power %d" % j)


def family_matrix(i: int) -> IntMatrix:
    """A_i = [[i+1, i], [1, 1]]; spectral radius (i+2+sqrt(i^2+4i))/2,
    which lies strictly between i and i+2."""
    if i < 1:
        raise ValueError("family index i >= 1 required")
    return IntMatrix(((i + 1, i), (1, 1)))


class DeltaBounds(NamedTuple):
    """Bracket for the minimal triangulation size of the associated bundle.

    lower = kappa * lower_coeff with kappa a universal (non-explicit)
    constant; upper is available for the family words A_i^j only.
    """

    lower_coeff: int
    upper: int = None

    def lower_str(self) -> str:
        return "%d*kappa" % self.lower_coeff


def delta_bounds(word: Psl2Word, family: tuple = None) -> DeltaBounds:
    """Bounds from the cyclically reduced length; pass family=(i, j) when the
    word is a power of a family matrix word to get the j(i+1)+6 upper bound."""
    length = cyclically_reduced_length(word)
    if family is None:
        return DeltaBounds(length)
    i, j = family
    return DeltaBounds(length, j * (i + 1) + 6)
