"""Normal forms, Diophantine solving, determinants, characteristic polynomials."""

import itertools
import math
import random

import pytest

from torfill.errors import NonSquare, VerificationFailure
from torfill.exactlinalg import (CokernelStructure, HnfResult, IntMatrix,
                                 SnfResult, _verify_hnf, _verify_snf,
                                 charpoly, coker_structure,
                                 det_exact, det_rows, hnf, mat_pow, snf,
                                 solve_diophantine)


def random_matrix(rng, r, c, span=20):
    return IntMatrix(tuple(tuple(rng.randint(-span, span) for _ in range(c))
                           for _ in range(r)))


def power_minus_identity(a, k):
    """A^k - I."""
    return IntMatrix(tuple(tuple(x - (i == j) for j, x in enumerate(row))
                           for i, row in enumerate(mat_pow(a, k).data)))


def test_snf_examples():
    assert snf(IntMatrix(((2, 0), (0, 3)))).diagonal() == (1, 6)
    assert snf(IntMatrix(((1, 1), (1, 0)))).diagonal() == (1, 1)
    assert snf(IntMatrix(((0, 0, 0),) * 3)).diagonal() == (0, 0, 0)


def test_snf_stops_at_the_first_diagonal_form(monkeypatch):
    # the column Hermite form of [[1, 0], [5, 1]] is already the identity,
    # so no Hermite form of its transpose is run
    from torfill import exactlinalg
    calls = []
    kernel = exactlinalg._hermite_cols

    def counting(stacked, r):
        calls.append(r)
        return kernel(stacked, r)

    monkeypatch.setattr(exactlinalg, "_hermite_cols", counting)
    res = snf(IntMatrix(((1, 0), (5, 1))))
    assert res.diagonal() == (1, 1)
    assert len(calls) == 1


def test_snf_random_and_unimodular_transforms():
    rng = random.Random(41)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = random_matrix(rng, r, c, span=9)
        res = snf(a)  # snf re-verifies P A Q = D and the divisibility chain
        assert abs(det_exact(res.p)) == 1
        assert abs(det_exact(res.q)) == 1


def test_verify_snf_refuses_non_unimodular_transforms():
    # 2I . I . I = 2I passes the product and the shape of D, but P has
    # det 4: accepting it would give the trivial cokernel of I order 4
    two, one = IntMatrix(((2, 0), (0, 2))), IntMatrix.identity(2)
    with pytest.raises(VerificationFailure, match="P is not unimodular"):
        _verify_snf(SnfResult(two, one, two, one))
    with pytest.raises(VerificationFailure, match="Q is not unimodular"):
        _verify_snf(SnfResult(one, two, two, one))
    res = snf(IntMatrix(((2, 4), (6, 8))))
    _verify_snf(res)
    with pytest.raises(VerificationFailure, match="shapes"):
        _verify_snf(SnfResult(IntMatrix.identity(3), res.q, res.d,
                              res.original))


def test_verify_hnf_refuses_non_unimodular_transform():
    zero = IntMatrix(((0,),))
    with pytest.raises(VerificationFailure, match="not unimodular"):
        _verify_hnf(zero, HnfResult(zero, IntMatrix(((2,),)), ()))
    a = IntMatrix(((2, 4), (1, 3)))
    res = hnf(a)
    _verify_hnf(a, res)
    with pytest.raises(VerificationFailure, match="shape"):
        _verify_hnf(a, HnfResult(res.h, IntMatrix.identity(3), res.pivots))


def _minor_gcd(a, k):
    """gcd of all k x k minors of a."""
    g = 0
    for rows in itertools.combinations(a.data, k):
        for cols in itertools.combinations(range(a.cols), k):
            g = math.gcd(g, det_rows([[row[j] for j in cols] for row in rows]))
    return g


def _determinantal_cases():
    rng = random.Random(67)
    cases = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=9)
             for _ in range(120)]
    for _ in range(30):  # zero and repeated rows
        a = random_matrix(rng, rng.randint(2, 4), rng.randint(1, 4), span=12)
        rows = list(a.data)
        rows[rng.randrange(len(rows))] = rows[0]
        rows[rng.randrange(len(rows))] = (0,) * a.cols
        cases.append(IntMatrix(tuple(rows)))
    cases += [IntMatrix(((-4, 6), (6, -9))), IntMatrix(((-6, 0), (0, 4))),
              IntMatrix(((0, 0, -3), (0, 5, 0), (-2, 0, 0))),
              IntMatrix(((12, -18, 30), (-20, 8, 4)))]
    # A^k - I; the companion of (x^2 + 1)(x - 2) has the eigenvalues +-i,
    # so A^k - I is singular for 4 | k
    singular = 0
    for a in (IntMatrix(((2, 1), (1, 1))),
              IntMatrix(((0, 0, 2), (1, 0, -1), (0, 1, 2)))):
        for k in range(1, 13):
            cases.append(power_minus_identity(a, k))
            singular += det_exact(cases[-1]) == 0
    assert singular == 3
    return cases


def test_snf_matches_determinantal_divisors():
    # d_1 ... d_k is the gcd of all k x k minors: an invariant reached with
    # no elimination at all
    for a in _determinantal_cases():
        diag = snf(a).diagonal()
        for k in range(1, len(diag) + 1):
            assert math.prod(diag[:k]) == _minor_gcd(a, k), (a.data, diag)


def _coker_from_snf(a):
    """The cokernel read off the verified Smith form: the reference."""
    nonzero = [d for d in snf(a).diagonal() if d]
    return CokernelStructure(tuple(d for d in nonzero if d > 1),
                             a.rows - len(nonzero), math.prod(nonzero))


def test_coker_structure_matches_snf(monkeypatch):
    rng = random.Random(73)
    cases = _determinantal_cases()
    for n in range(1, 6):
        cases.append(IntMatrix(((0,) * n,) * n))
        for _ in range(125):
            a = random_matrix(rng, n, n, span=rng.choice((2, 9, 10 ** 6)))
            if n > 1 and rng.random() < 0.3:  # det 0 by a repeated row
                rows = list(a.data)
                rows[-1] = rows[0]
                a = IntMatrix(tuple(rows))
            cases.append(a)
    assert sum(a.is_square() and det_exact(a) == 0 for a in cases) > 100
    expected = [_coker_from_snf(a) for a in cases]
    # up to 5 x 5 no Smith form is computed
    from torfill import exactlinalg
    monkeypatch.setattr(exactlinalg, "snf", None)
    for a, want in zip(cases, expected):
        assert coker_structure(a.data) == want, a.data


def test_coker_structure_of_powers_minus_identity(monkeypatch):
    # the rows of a torsion table: A^k - I for k = 1..40, whose entries pass
    # 2^100; the companion of (x^2 + 1)(x^2 - 3x + 1) has the eigenvalues
    # +-i, so A^k - I has rank 2 for 4 | k
    rng = random.Random(89)
    companion = IntMatrix(((0, 0, 0, -1), (1, 0, 0, 3), (0, 1, 0, -2),
                           (0, 0, 1, 3)))
    bases = [random_matrix(rng, 4, 4, span=5) for _ in range(3)] + [companion]
    cases = [power_minus_identity(a, k) for a in bases for k in range(1, 41)]
    assert max(a.max_abs() for a in cases) > 2 ** 100
    expected = [_coker_from_snf(a) for a in cases]
    assert [k for k, want in enumerate(expected[-40:], 1)
            if want.free_rank] == list(range(4, 41, 4))
    assert all(want.free_rank == 2 for want in expected[-40:][3::4])
    # d_2 > 1 in some: D_2 and D_3 are not the trivial 1
    assert sum(len(want.torsion_factors) > 2 for want in expected) > 20
    from torfill import exactlinalg
    monkeypatch.setattr(exactlinalg, "snf", None)
    for a, want in zip(cases, expected):
        assert coker_structure(a.data) == want, a.data


def test_coker_structure_of_5x5_powers_minus_identity(monkeypatch):
    # 5 x 5 rows of torsion tables, read off the minors: A^k - I for
    # k = 1..40, whose entries pass 2^64; diag(companion, 2), with the
    # companion of (x^2 + 1)(x^2 - 3x + 1), has rank 3 for 4 | k
    rng = random.Random(97)
    companion = ((0, 0, 0, -1, 0), (1, 0, 0, 3, 0), (0, 1, 0, -2, 0),
                 (0, 0, 1, 3, 0), (0, 0, 0, 0, 2))
    bases = [random_matrix(rng, 5, 5, span=5) for _ in range(3)] + \
        [IntMatrix(companion)]
    cases = [power_minus_identity(a, k) for a in bases for k in range(1, 41)]
    assert max(a.max_abs() for a in cases) > 2 ** 64
    expected = [_coker_from_snf(a) for a in cases]
    assert [k for k, want in enumerate(expected[-40:], 1)
            if want.free_rank] == list(range(4, 41, 4))
    assert sum(len(want.torsion_factors) > 1 for want in expected) > 20
    from torfill import exactlinalg
    monkeypatch.setattr(exactlinalg, "snf", None)
    for a, want in zip(cases, expected):
        assert coker_structure(a.data) == want, a.data


def test_coker_structure_beyond_5x5_takes_the_smith_form(monkeypatch):
    from torfill import exactlinalg
    calls = []

    def counting(a):
        calls.append(a)
        return snf(a)

    monkeypatch.setattr(exactlinalg, "snf", counting)
    a = random_matrix(random.Random(79), 6, 6, span=5)
    want = _coker_from_snf(a)
    assert coker_structure(a.data) == want
    assert [m.data for m in calls] == [a.data]


def test_coker_torsion_of_10x10_six_digit_matrix():
    rng = random.Random(71)
    a = IntMatrix(tuple(tuple(rng.choice((-1, 1))
                              * rng.randint(10 ** 5, 10 ** 6 - 1)
                              for _ in range(10)) for _ in range(10)))
    d = det_exact(a)
    assert d != 0
    assert coker_structure(a.data).torsion_order == abs(d)


def test_hnf_examples():
    res = hnf(IntMatrix.identity(3))
    assert res.h.data == IntMatrix.identity(3).data
    res = hnf(IntMatrix(((2, 4),)))
    assert res.h.data == ((2, 0),)
    assert abs(det_exact(res.u)) == 1
    res = hnf(IntMatrix(((0, 1), (1, 0))))
    assert res.h.data == IntMatrix.identity(2).data


def test_hnf_shape_invariants():
    rng = random.Random(43)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), span=15)
        res = hnf(a)
        assert abs(det_exact(res.u)) == 1
        for which, (i, j) in enumerate(res.pivots):
            piv = res.h.data[i][j]
            assert piv > 0
            assert all(res.h.data[i][jj] == 0 for jj in range(j + 1, res.h.cols))
            assert all(0 <= res.h.data[i][jj] < piv for jj in range(j))
            assert j == which


def test_solve_diophantine_examples():
    ident = IntMatrix.identity(3)
    assert solve_diophantine(ident, (4, -7, 0)) == (4, -7, 0)
    assert solve_diophantine(IntMatrix(((2,),)), (3,)) is None
    x = solve_diophantine(IntMatrix(((2, 3),)), (1,))
    assert 2 * x[0] + 3 * x[1] == 1


def test_solve_diophantine_random():
    rng = random.Random(47)
    n_solved = 0
    for _ in range(80):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=6)
        if rng.random() < 0.5:
            # in-lattice rhs by construction
            y = tuple(rng.randint(-4, 4) for _ in range(a.cols))
            b = a.apply(y)
        else:
            b = tuple(rng.randint(-9, 9) for _ in range(a.rows))
        x = solve_diophantine(a, b)
        if x is None:
            # certified: cross-check via SNF-based membership
            res = snf(a)
            pb = res.p.apply(b)
            diag = res.diagonal()
            member = True
            for i, v in enumerate(pb):
                d = diag[i] if i < len(diag) else 0
                if d == 0:
                    if v != 0:
                        member = False
                elif v % d:
                    member = False
            assert not member
        else:
            n_solved += 1
            assert a.apply(x) == b
    assert n_solved >= 30


def test_det_charpoly_matpow_examples():
    a = IntMatrix(((2, 1), (1, 1)))
    assert det_exact(a) == 1
    assert charpoly(a) == (1, -3, 1)
    assert mat_pow(a, 2).data == ((5, 3), (3, 2))
    with pytest.raises(NonSquare):
        det_exact(IntMatrix(((1, 2),)))


def test_det_matches_cofactor_on_random():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        assert det_exact(a) == _cofactor_det(a.data)


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(sub)
        total += term if j % 2 == 0 else -term
    return total


def test_cayley_hamilton():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, span=7)
        coeffs = charpoly(a)
        val = ((0,) * n,) * n
        power = IntMatrix.identity(n)
        for c in reversed(coeffs):
            val = tuple(tuple(v + c * x for v, x in zip(vrow, prow))
                        for vrow, prow in zip(val, power.data))
            power = power @ a
        assert val == ((0,) * n,) * n


def test_coker_examples():
    cs = coker_structure(((1, 1), (1, 0)))
    assert cs.torsion_order == 1 and cs.free_rank == 0
    cs = coker_structure(((4, 3), (3, 1)))
    assert cs.torsion_order == 5
    cs = coker_structure(((0, 0), (0, 0)))
    assert cs.torsion_order == 1 and cs.free_rank == 2


def test_coker_torsion_equals_abs_det():
    rng = random.Random(61)
    done = 0
    while done < 500:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        d = det_exact(a)
        if d == 0:
            continue
        assert coker_structure(a.data).torsion_order == abs(d)
        done += 1


def test_lattice_helpers():
    a = IntMatrix(((2, 4), (0, 0)))
    assert len(hnf(a).pivots) == 1
