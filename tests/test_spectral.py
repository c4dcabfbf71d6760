"""Spectral radius, entropy-type sums, torsion growth, and root certification."""

import itertools
import math
import random

import pytest

from torfill.errors import PrecisionExhausted
from torfill.exactlinalg import IntMatrix, det_exact, mat_pow
from torfill.spectral import (_deriv, _double_seeds, analyze,
                              basic_inequalities, cyclotomic, entropy,
                              fv_lower_bound, gelfand_sequence,
                              poly_div_exact, poly_gcd,
                              primitive_roots_of_unity, split_cyclotomic,
                              squarefree_decomposition, torsion_growth_table)

ANOSOV2 = IntMatrix(((2, 1), (1, 1)))
RHO = (3 + math.sqrt(5)) / 2


def power_minus_identity(a, k):
    """A^k - I."""
    return IntMatrix(tuple(tuple(x - (i == j) for j, x in enumerate(row))
                           for i, row in enumerate(mat_pow(a, k).data)))


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
                       match=r"factor 1,-1,-1,-1,1: .* at 256 bits the closest"
                             r" root"):
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


# analyze() on a fixed list: (matrix, charpoly, rho, log_sum, [(root,
# multiplicity, "%.3g" radius)]).  Roots, rho and log_sum are pinned from the
# unseeded mpmath refinement, the radii from the integer certifier.  Family
# matrices i = 1..10, near-circle companions at N = 10^7 and 10^8, and one
# 6 x 6 matrix with entries in [-5, 5].
PINNED_ANALYSES = [
    (((2, 1), (1, 1)),
     (1, -3, 1), 2.618033988749895, 0.9624236501192069,
     [((0.38196601125010515+0j), 1, '1.19e-18'),
      ((2.618033988749895+0j), 1, '5.43e-17')]),
    (((3, 2), (1, 1)),
     (1, -4, 1), 3.732050807568877, 1.3169578969248166,
     [((0.2679491924311227+0j), 1, '1.07e-17'),
      ((3.732050807568877+0j), 1, '1e-16')]),
    (((4, 3), (1, 1)),
     (1, -5, 1), 4.79128784747792, 1.566799236972411,
     [((0.20871215252208+0j), 1, '5.53e-18'),
      ((4.79128784747792+0j), 1, '3.55e-16')]),
    (((5, 4), (1, 1)),
     (1, -6, 1), 5.82842712474619, 1.762747174039086,
     [((0.1715728752538099+0j), 1, '9.43e-19'),
      ((5.82842712474619+0j), 1, '2.51e-16')]),
    (((6, 5), (1, 1)),
     (1, -7, 1), 6.854101966249685, 1.9248473002384139,
     [((0.14589803375031546+0j), 1, '3.57e-18'),
      ((6.854101966249685+0j), 1, '1.63e-16')]),
    (((7, 6), (1, 1)),
     (1, -8, 1), 7.872983346207417, 2.0634370688955608,
     [((0.12701665379258312+0j), 1, '2.57e-18'),
      ((7.872983346207417+0j), 1, '1.36e-16')]),
    (((8, 7), (1, 1)),
     (1, -9, 1), 8.88748219369606, 2.1846437916051085,
     [((0.11251780630393897+0j), 1, '5.93e-19'),
      ((8.88748219369606+0j), 1, '6.24e-16')]),
    (((9, 8), (1, 1)),
     (1, -10, 1), 9.898979485566356, 2.2924316695611777,
     [((0.10102051443364381+0j), 1, '3.51e-18'),
      ((9.898979485566356+0j), 1, '4.34e-16')]),
    (((10, 9), (1, 1)),
     (1, -11, 1), 10.908326913195983, 2.3895264345742184,
     [((0.09167308680401606+0j), 1, '2.59e-18'),
      ((10.908326913195983+0j), 1, '4.74e-16')]),
    (((11, 10), (1, 1)),
     (1, -12, 1), 11.916079783099615, 2.477888730288475,
     [((0.08392021690038395+0j), 1, '3.67e-18'),
      ((11.916079783099615+0j), 1, '8.01e-16')]),
    (((0, 0, 10000000), (1, 0, -10000000),
      (0, 1, 10000001)),
     (1, -10000001, 10000000, -10000000), 10000000.0000001, 16.11809565095833,
     [((0.499999949999995-0.8660254326519473j), 1, '3.12e-17'),
      ((0.499999949999995+0.8660254326519473j), 1, '3.12e-17'),
      ((10000000.0000001+0j), 1, '5.83e-10')]),
    (((0, 0, 100000000), (1, 0, -100000000),
      (0, 1, 100000001)),
     (1, -100000001, 100000000, -100000000), 100000000.00000001,
     18.420680743952367,
     [((0.499999995-0.86602540667119j), 1, '5.18e-17'),
      ((0.499999995+0.86602540667119j), 1, '5.18e-17'),
      ((100000000.00000001+0j), 1, '4.9e-09')]),
    (((-5, -4, -4, 0, -3, 5), (-1, -1, 4, -2, 4, -5), (4, 5, -3, 1, 5, 1),
      (3, 0, 3, 2, 3, -1), (-5, -5, 0, 2, 0, 1), (1, 3, -3, 3, -3, -2)),
     (1, 9, 26, -112, -823, 484, 4718), 6.028498062275029, 8.45914025996762,
     [((-5.141073894398355+0j), 1, '3.13e-16'),
      ((-3.5461805675614757-4.875181254999976j), 1, '1.94e-16'),
      ((-3.5461805675614757+4.875181254999976j), 1, '1.94e-16'),
      ((-2.74809599107427+0j), 1, '8.93e-17'),
      ((2.990765510297788-0.4939826597621085j), 1, '1.42e-16'),
      ((2.990765510297788+0.4939826597621085j), 1, '1.42e-16')]),
]


@pytest.mark.parametrize("matrix, poly, rho, log_sum, roots", PINNED_ANALYSES)
def test_analyze_pinned(matrix, poly, rho, log_sum, roots):
    s = analyze(IntMatrix(matrix))
    assert s.charpoly == poly
    assert s.rho == rho
    assert s.log_sum == pytest.approx(log_sum, rel=1e-15, abs=0)

    def key(root):
        return root[0].real, root[0].imag
    assert sorted(((r.value, r.multiplicity, "%.3g" % r.radius)
                   for r in s.roots), key=key) == sorted(roots, key=key)


def test_double_seeds_fall_back_outside_the_double_range():
    small, large = sorted(_double_seeds((1, -3, 1)), key=abs)
    assert abs(small - (3 - math.sqrt(5)) / 2) < 1e-14
    assert abs(large - (3 + math.sqrt(5)) / 2) < 1e-14
    assert _double_seeds((1, -(10 ** 400), 1)) is None


def test_certified_disks_hold_the_closed_form_roots():
    # x^2 - 3x + 1 has the roots (3 +- sqrt 5) / 2 and x^2 - 2x + 3 the roots
    # 1 +- i sqrt 2; each lies within its radius of its value, checked in
    # integers at 2^-200 against isqrt brackets of the square roots
    k = 200

    def scaled(v):
        n, d = v.as_integer_ratio()
        assert (n << k) % d == 0
        return (n << k) // d

    s5, s2 = math.isqrt(5 << 2 * k), math.isqrt(2 << 2 * k)
    roots = analyze(ANOSOV2).roots
    assert len(roots) == 2
    for r in roots:
        x, rad = scaled(r.value.real), scaled(r.radius)
        assert r.value.imag == 0 and rad > 0
        # 2^(k+1) root lies in [3 2^k + sign s5, 3 2^k + sign (s5 + 1)]
        sign = 1 if r.value.real > 1.5 else -1
        ends = ((3 << k) + sign * s5, (3 << k) + sign * (s5 + 1))
        assert 2 * (x - rad) <= min(ends) and max(ends) <= 2 * (x + rad)
    roots = analyze(IntMatrix(((1, -2), (1, 1)))).roots
    assert len(roots) == 2
    for r in roots:
        x, y, rad = (scaled(r.value.real), scaled(r.value.imag),
                     scaled(r.radius))
        sign = 1 if y > 0 else -1
        dy = max(abs(y - sign * s2), abs(y - sign * (s2 + 1)))
        assert (x - (1 << k)) ** 2 + dy ** 2 <= rad ** 2


def test_close_roots_separate_by_exact_sweeps():
    # x^2 - 2 10^16 x + 10^32 - 1 has the integer roots 10^16 +- 1, which no
    # double tells apart, and x^3 - 2 (10^6 x - 1)^2 two real roots 1.4e-15
    # apart near 10^-6; both start from a conjugate pair of double seeds,
    # which root-by-root sweeps at fixed bits take apart onto the real line
    big = 10 ** 16
    roots = analyze(IntMatrix(((0, 1 - big * big), (1, 2 * big)))).roots
    assert [(r.value, r.radius) for r in roots] == [(1e16, 1.0), (1e16, 1.0)]
    mignotte = IntMatrix(((0, 0, 2), (1, 0, -4 * 10 ** 6),
                          (0, 1, 2 * 10 ** 12)))
    assert [r.value for r in analyze(mignotte).roots] == [
        9.999999992928933e-07, 1.0000000007071069e-06, 2e12]
    # 20 digits allow 67 bits, one attempt at 64, where the two disks near
    # 10^-6 overlap: the refusal names the factor and the pair
    with pytest.raises(PrecisionExhausted, match=(
            r"^factor 1,-2000000000000,4000000,-2: roots not separated from "
            r"each other within the bit cap 67; at 64 bits the disks about "
            r"\(1e-06, \S+\) and \(1e-06, \S+\) overlap$")):
        analyze(mignotte, dps_cap=20)


def test_conjugate_pairs_put_the_plus_root_first():
    for matrix, pairs in ((((1, -2), (1, 1)), 1), (((0, -3), (1, 1)), 1),
                          (PINNED_ANALYSES[-1][0], 2)):
        values = [r.value for r in analyze(IntMatrix(matrix)).roots]
        firsts = [z for z, w in zip(values, values[1:])
                  if z.imag and w == z.conjugate()]
        assert len(firsts) == pairs and all(z.imag > 0 for z in firsts)
    # at 25 digits the two roots of the pair stop refining apart, so their
    # doubles differ in the last bits: the pair still keeps the + root first
    values = [r.value for r in analyze(IntMatrix(
        ((0, 0, 12345678), (1, 0, -12345678), (0, 1, 12345679))), 25).roots]
    assert values[1] != values[2].conjugate()
    assert values[1].imag > 0 > values[2].imag
    assert abs(values[1] - values[2].conjugate()) < 1e-12


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
        d1 = det_exact(power_minus_identity(a, 1))
        if d1 == 0:
            continue
        k = rng.randint(1, 6)
        expected = abs(det_exact(power_minus_identity(a, k))) / abs(d1)
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
        for row in torsion_growth_table(a, 6):
            d = det_exact(power_minus_identity(a, row.k))
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
