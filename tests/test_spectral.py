"""Spectral radius, entropy-type sums, torsion growth, and root certification."""

import itertools
import math
import random

import pytest

from torfill.errors import PrecisionExhausted
from torfill.exactlinalg import IntMatrix, det_exact, mat_pow
from torfill.spectral import (_deriv, analyze, basic_inequalities,
                              cyclotomic, entropy, fv_lower_bound,
                              gelfand_sequence, poly_div_exact, poly_gcd,
                              primitive_roots_of_unity, split_cyclotomic,
                              squarefree_decomposition, torsion_growth_table)

ANOSOV2 = IntMatrix(((2, 1), (1, 1)))
RHO = (3 + math.sqrt(5)) / 2


def random_sl_matrix(rng, n, length=12):
    """Random SL(n, Z) product of elementary matrices."""
    a = IntMatrix.identity(n)
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice([-1, 1])
        a = a @ IntMatrix(tuple(map(tuple, e)))
    return a


def test_analyze_examples():
    s = analyze(ANOSOV2)
    assert abs(s.rho - RHO) < 1e-12
    assert abs(s.log_sum - math.log(RHO)) < 1e-12
    assert not s.unit_root_flag

    s = analyze(IntMatrix.identity(3))
    assert s.rho == 1.0
    assert s.log_sum == 0.0
    assert s.unit_root_flag

    for i in range(1, 51):
        fam = IntMatrix(((i + 1, i), (1, 1)))
        expected = (i + 2 + math.sqrt(i * i + 4 * i)) / 2
        assert abs(analyze(fam).rho - expected) < 1e-9


def test_analyze_salem_precision_exhausted():
    # x^4 - x^3 - x^2 - x + 1 has two conjugates exactly on the unit circle
    # and is not cyclotomic; separation from 1 must fail at any finite cap.
    companion = IntMatrix((
        (1, 1, 1, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    ))
    with pytest.raises(PrecisionExhausted,
                       match=r"factor 1,-1,-1,-1,1: .* dps 80 the closest root"):
        analyze(companion, dps_cap=80)


def near_circle_companion(n_value):
    """Companion of x^3 - (N+1)x^2 + Nx - N: one root near N and a complex
    pair whose modulus differs from 1 by far less than a double resolves."""
    return IntMatrix(((0, 0, n_value), (1, 0, -n_value), (0, 1, n_value + 1)))


@pytest.mark.parametrize("n_value", [10 ** 7, 23456789, 40514699, 77777777,
                                     10 ** 8])
def test_analyze_near_circle_family(n_value):
    s = analyze(near_circle_companion(n_value))
    assert not s.unit_root_flag
    big = [r for r in s.roots if r.outside_unit_circle]
    assert len(big) == 1 and abs(big[0].value.real - n_value) < 1
    pair = [r for r in s.roots if abs(r.value.imag) > 0.5]
    assert len(pair) == 2
    for r in pair:
        assert not r.outside_unit_circle and not r.on_unit_circle
    assert abs(s.log_sum - math.log(big[0].value.real)) < 1e-12


def test_entropy_examples():
    assert entropy(IntMatrix.identity(2)) == 0.0
    assert abs(entropy(ANOSOV2) - 0.9624236501192069) < 1e-12
    block = IntMatrix((
        (2, 1, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 2, 1),
        (0, 0, 1, 1),
    ))
    assert abs(entropy(block) - 2 * math.log(RHO)) < 1e-10


def test_fv_lower_bound_examples():
    assert fv_lower_bound(IntMatrix.identity(2)) == 0.0
    val = fv_lower_bound(ANOSOV2)
    assert abs(val - 2 / (6 * math.log(3)) * math.log(RHO)) < 1e-12
    assert abs(val - 0.2921) < 5e-4
    rot = IntMatrix(((0, -1), (1, 0)))
    assert fv_lower_bound(rot) == 0.0


def test_fv_lower_bound_block_additivity():
    a = ANOSOV2
    b = IntMatrix(((3, 1), (2, 1)))
    block = IntMatrix((
        (2, 1, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 3, 1),
        (0, 0, 2, 1),
    ))
    combined_entropy = entropy(a) + entropy(b)
    assert abs(fv_lower_bound(block) -
               2 / (4 * 5 * math.log(5)) * combined_entropy) < 1e-10


def test_basic_inequalities():
    lo, ent, hi = basic_inequalities(ANOSOV2)
    assert abs(lo - ent) < 1e-12  # one eigenvalue outside: left inequality tight
    assert abs(hi - 2 * lo) < 1e-12
    lo, ent, hi = basic_inequalities(IntMatrix.identity(2))
    assert (lo, ent, hi) == (0.0, 0.0, 0.0)
    block = IntMatrix((
        (2, 1, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 2, 1),
        (0, 0, 1, 1),
    ))
    lo, ent, hi = basic_inequalities(block)
    assert lo < ent - 0.5  # strict left inequality for two Anosov blocks


def test_basic_inequalities_random():
    rng = random.Random(67)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                            for _ in range(n)))
        lo, ent, hi = basic_inequalities(a)
        if math.isfinite(lo):
            assert lo <= ent + 1e-9 and ent <= hi + 1e-9
        checked += 1


def test_root_of_unity_detection():
    assert analyze(IntMatrix(((0, -1), (1, 0)))).unit_root_flag
    assert analyze(IntMatrix.identity(2)).unit_root_flag
    assert not analyze(ANOSOV2).unit_root_flag
    assert analyze(IntMatrix(((1, 1), (0, 1)))).unit_root_flag  # unipotent


def test_gelfand_sequence():
    seq = gelfand_sequence(IntMatrix.identity(3), 5)
    assert all(abs(x - 1.0) < 1e-15 for x in seq)
    seq = gelfand_sequence(ANOSOV2, 2)
    assert abs(seq[1] - math.sqrt(5)) < 1e-12
    seq = gelfand_sequence(ANOSOV2, 64)
    assert abs(seq[-1] - RHO) / RHO < 0.1


def test_gelfand_tail_anosov_samples():
    rng = random.Random(71)
    found = 0
    while found < 20:
        n = rng.choice([2, 3])
        a = random_sl_matrix(rng, n, length=rng.randint(6, 14))
        s = analyze(a)
        if s.unit_root_flag or s.rho < 1.2:
            continue
        if any(not r.on_unit_circle and abs(abs(r.value) - 1) <= 10 * r.radius
               for r in s.roots):
            continue
        tail = gelfand_sequence(a, 64)[-1]
        assert abs(tail - s.rho) / s.rho < 0.1
        found += 1


def test_gelfand_matches_certified_rho():
    rng = random.Random(73)
    for _ in range(50):
        n = rng.choice([2, 3])
        a = random_sl_matrix(rng, n, length=rng.randint(4, 12))
        s = analyze(a)
        tail = gelfand_sequence(a, 48)[-1]
        # Gelfand tail must approach the certified radius from compatible side
        assert tail <= s.rho * (1 + 0.35) + 1e-9
        assert tail >= s.rho * (1 - 0.35) - 1e-9


def test_det_ratio_matches_root_product():
    # |det(A^k - I)| / |det(A - I)| = prod |lambda^k - 1| / |lambda - 1|
    # over the roots analyze certifies
    rng = random.Random(79)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 3)
        a = random_sl_matrix(rng, n, length=rng.randint(3, 10))
        ident = IntMatrix.identity(n)
        d1 = det_exact(a - ident)
        if d1 == 0:
            continue
        k = rng.randint(1, 6)
        expected = abs(det_exact(mat_pow(a, k) - ident)) / abs(d1)
        # det(A - I) != 0, so 1 is not an eigenvalue
        via_roots = math.prod((abs(r.value ** k - 1) / abs(r.value - 1))
                              ** r.multiplicity for r in analyze(a).roots)
        assert abs(expected - via_roots) < 1e-6 * max(1.0, expected)
        checked += 1


def test_torsion_growth_table():
    rows = torsion_growth_table(ANOSOV2, 40)
    assert rows[0].torsion_order == 1
    assert rows[1].torsion_order == 5
    assert all(r.full_rank for r in rows)
    last = rows[-1]
    assert abs(last.log_tors_over_k - last.target) / last.target < 0.05
    assert abs(last.target - math.log(RHO)) < 1e-12


def test_torsion_growth_full_rank_exact_det():
    rng = random.Random(83)
    for _ in range(25):
        n = rng.randint(2, 3)
        a = random_sl_matrix(rng, n, length=rng.randint(3, 9))
        ident = IntMatrix.identity(n)
        for row in torsion_growth_table(a, 6):
            d = det_exact(mat_pow(a, row.k) - ident)
            if row.full_rank:
                assert row.torsion_order == abs(d)
            else:
                assert d == 0


def test_torsion_growth_flags_degenerate_rows():
    rot = IntMatrix(((0, -1), (1, 0)))  # order 4: A^4 = I
    rows = torsion_growth_table(rot, 8)
    assert not rows[3].full_rank and not rows[7].full_rank


def test_squarefree_and_cyclotomic_helpers():
    assert cyclotomic(1) == (1, -1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    # (x^2-3x+1)^2 decomposes with multiplicity 2
    p = (1, -6, 11, -6, 1)
    dec = squarefree_decomposition(p)
    assert dec == [((1, -3, 1), 2)]
    # (x - 1)^2 (x + 1) (x^2 - 3x + 1) = x^5 - 4x^4 + 3x^3 + 3x^2 - 4x + 1
    assert split_cyclotomic((1, -4, 3, 3, -4, 1)) == (((1, 2), (2, 1)),
                                                      (1, -3, 1))
    assert split_cyclotomic((1, -3, 1)) == ((), (1, -3, 1))
    assert [abs(z - 1) < 1e-12 for z in primitive_roots_of_unity(1)] == [True]
    assert len(primitive_roots_of_unity(12)) == 4


def test_division_keeps_trailing_zero_coefficients():
    assert poly_div_exact((1, -1, 0, 0), (1, -1)) == (1, 0, 0)
    assert split_cyclotomic((1, -1, 0, 0)) == (((1, 1),), (1, 0, 0))
    s = analyze(IntMatrix(((3, 0, 0), (0, 0, 0), (0, 0, 0))))
    assert abs(s.log_sum - math.log(3)) < 1e-12
    assert sorted((r.value.real, r.multiplicity) for r in s.roots) == \
        [(0.0, 2), (3.0, 1)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_squarefree_decomposition_random_products():
    rng = random.Random(89)
    for _ in range(60):
        p = (1,)
        for _ in range(rng.randint(1, 4)):
            factor = tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 3)))
            if factor[0] == 0:
                continue
            p = _poly_mul(p, _poly_mul(factor, factor) if rng.random() < 0.4
                          else factor)
        if len(p) == 1:
            continue
        dec = squarefree_decomposition(p)
        rebuilt = (1,)
        for f, i in dec:
            assert len(f) > 1 and f[0] > 0
            assert poly_gcd(f, _deriv(f)) == (1,)  # squarefree
            for _ in range(i):
                rebuilt = _poly_mul(rebuilt, f)
        for (f, _), (g, _) in itertools.combinations(dec, 2):
            assert poly_gcd(f, g) == (1,)
        # p and the rebuilt product agree up to a constant factor
        quotient = poly_div_exact(p, rebuilt)
        assert len(quotient) == 1
