"""Free-product word decomposition and length tests."""

import random

import pytest

from torfill import psl2z
from torfill.errors import NotUnimodular, TorfillError, VerificationFailure
from torfill.exactlinalg import IntMatrix, mat_pow
from torfill.psl2z import (Psl2Word, cyclically_reduced_length, decompose,
                           delta_bounds, family_matrix, reconstruct,
                           word_power)

# the standard lifts of the letters, the reference for _LETTER_ACTIONS
S_MAT = IntMatrix(((0, -1), (1, 0)))
U_MAT = IntMatrix(((0, -1), (1, -1)))
U2_MAT = U_MAT @ U_MAT


def random_sl2(rng, length=40):
    gens = [IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, -1), (0, 1))),
            IntMatrix(((1, 0), (1, 1))), IntMatrix(((1, 0), (-1, 1)))]
    a = IntMatrix.identity(2)
    for _ in range(rng.randint(1, length)):
        a = a @ rng.choice(gens)
    return a


def test_generator_orders():
    minus_i = IntMatrix(((-1, 0), (0, -1)))
    assert (S_MAT @ S_MAT).data == minus_i.data
    assert (U_MAT @ U2_MAT).data == IntMatrix.identity(2).data
    assert (U_MAT @ U_MAT).data == U2_MAT.data


def test_decompose_examples():
    w = decompose(S_MAT)
    assert w.letters == ("S",) and w.sign == 1
    assert reconstruct(w).data == S_MAT.data

    w = decompose(IntMatrix.identity(2))
    assert w.letters == ()

    a1 = IntMatrix(((2, 1), (1, 1)))
    w = decompose(a1)
    assert reconstruct(w).data == a1.data or \
        reconstruct(Psl2Word(w.letters, -w.sign)).data == a1.data
    # family identity: A_1 reduces to (U^-1 S) U S = U2 S U S
    assert w.letters == ("U2", "S", "U", "S")


def test_decompose_not_unimodular():
    with pytest.raises(NotUnimodular):
        decompose(IntMatrix(((2, 0), (0, 1))))


def test_reconstruct_examples():
    assert reconstruct(Psl2Word(("S",))).data == ((0, -1), (1, 0))
    u_cubed = U_MAT @ U_MAT @ U_MAT
    assert u_cubed.data == IntMatrix.identity(2).data
    s_squared = S_MAT @ S_MAT
    assert s_squared.data == ((-1, 0), (0, -1))


def test_letter_actions_are_right_multiplication():
    rng = random.Random(7)
    mats = {"S": S_MAT, "U": U_MAT, "U2": U2_MAT}
    assert set(psl2z._LETTER_ACTIONS) == set(mats)
    for _ in range(20):
        m = IntMatrix(tuple(tuple(rng.randint(-50, 50) for _ in range(2))
                            for _ in range(2)))
        for letter, mat in mats.items():
            a, b, c, d = psl2z._LETTER_ACTIONS[letter](*m.data[0], *m.data[1])
            assert ((a, b), (c, d)) == (m @ mat).data


def test_reconstruct_decompose_roundtrip():
    rng = random.Random(89)
    for _ in range(500):
        a = random_sl2(rng)
        w = decompose(a)
        got = reconstruct(w)
        neg = tuple(tuple(-x for x in row) for row in got.data)
        assert got.data == a.data or neg == a.data
        # the stored sign must make the lift exact
        assert got.data == a.data


def test_decompose_step_count_linear_in_bits():
    rng = random.Random(97)
    for _ in range(60):
        a = random_sl2(rng, length=60)
        bits = max(abs(x) for row in a.data for x in row).bit_length()
        w = decompose(a)
        assert len(w.letters) <= 12 * bits + 12


def test_family_lengths():
    for i in range(1, 11):
        wi = decompose(family_matrix(i))
        for j in range(1, 11):
            assert cyclically_reduced_length(word_power(wi, j)) == j * (2 * i + 2)


def test_cyclic_length_examples():
    w1 = decompose(family_matrix(1))
    assert cyclically_reduced_length(w1) == 4
    assert cyclically_reduced_length(Psl2Word(())) == 0
    w2 = decompose(family_matrix(2))
    assert cyclically_reduced_length(word_power(w2, 3)) == 18
    # hand-built words through both end cases: cancelling and merging ends
    for letters, length in [
            (("U", "S", "U2", "S", "U2"), 1),            # U2*U, then S*S
            (("U", "S", "U"), 2),                        # U*U merges to U2
            (("S", "U", "S"), 1),                        # S*S cancels
            (("U2", "S", "U2", "S"), 4),                 # ends differ
            (("U", "S", "U2", "S", "U", "S", "U2"), 1)]:  # three cancel
        assert cyclically_reduced_length(Psl2Word(letters)) == length, letters


def test_cyclic_length_subadditive_under_squaring():
    rng = random.Random(101)
    for _ in range(60):
        w = decompose(random_sl2(rng, length=24))
        l1 = cyclically_reduced_length(w)
        l2 = cyclically_reduced_length(word_power(w, 2))
        assert l2 <= 2 * l1
        # equality needs alternating ends; a lone torsion letter (e.g. U)
        # collapses when squared, so length >= 2 is the honest scope
        if len(w.letters) >= 2 and _is_cyclically_reduced(w):
            assert l2 == 2 * l1


def test_word_power_lifts_the_matrix_power(monkeypatch):
    rng = random.Random(103)
    for _ in range(40):
        a = random_sl2(rng, length=24)
        w = decompose(a)
        for j in (0, 1, 2, 5):
            assert reconstruct(word_power(w, j)).data == mat_pow(a, j).data
    # letters that are neither sign of the matrix power are refused
    monkeypatch.setattr(psl2z, "mat_pow",
                        lambda a, j: IntMatrix(((2, 1), (1, 1))))
    with pytest.raises(VerificationFailure):
        word_power(decompose(family_matrix(1)), 2)


def test_a_word_over_the_letter_cap_is_refused_before_it_is_built(
        monkeypatch):
    monkeypatch.setattr(psl2z, "MAX_LETTERS", 10)
    t5 = decompose(IntMatrix(((1, 5), (0, 1))))  # T^5: 10 letters
    assert len(t5.letters) == 10
    assert len(word_power(decompose(family_matrix(1)), 2).letters) == 8
    assert len(word_power(decompose(IntMatrix(((1, 1), (0, 1)))), 5).letters
               ) == 10
    with pytest.raises(TorfillError, match="decomposition would have more"):
        decompose(IntMatrix(((1, -6), (0, 1))))
    with pytest.raises(TorfillError, match="decomposition would have more"):
        decompose(family_matrix(5))  # T^6 S ... in the first quotient
    monkeypatch.setattr(psl2z, "mat_pow", None)  # never reached
    with pytest.raises(TorfillError, match="power 3 would have more"):
        word_power(decompose(family_matrix(1)), 3)  # 4 letters, 12 > 10


def _is_cyclically_reduced(w):
    first, last = w.letters[0], w.letters[-1]
    two = {"S"}
    return (first in two) != (last in two)


def test_delta_bounds():
    w1 = decompose(family_matrix(1))
    b = delta_bounds(w1, family=(1, 1))
    assert b.lower_coeff == 4 and b.upper == 8
    assert b.lower_str() == "4*kappa"
    assert delta_bounds(Psl2Word(())).lower_coeff == 0
    assert delta_bounds(Psl2Word(())).upper is None
