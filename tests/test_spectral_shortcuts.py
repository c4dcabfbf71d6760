"""The exact shortcuts of `spectral.analyze`, each against the route it
skips.  The references below are the routes without the shortcuts; every
shortcut must give the same result on every input, including the inputs
that force its fallback: a leading coefficient divisible by the prime of
`_coprime`, repeated factors, products of cyclotomic polynomials, a zero
root and even polynomials."""

import cmath
import math
import random

import pytest

from torfill import spectral
from torfill.errors import PrecisionExhausted
from torfill.exactlinalg import IntMatrix, _mul_rows, charpoly
from torfill.spectral import (_PRIME, MAX_SWEEPS, PRINT_BITS, SEED_BITS,
                              _axis, _axis_split, _ceil_sqrt, _coprime,
                              _degree, _deriv, _disks, _div_int,
                              _double_seeds, _horner, _product, _start,
                              _sweep, cyclotomic, cyclotomics_up_to_degree,
                              poly_div_exact, poly_gcd,
                              split_cyclotomic, squarefree_decomposition)


# --- references: the routes without the shortcuts ---------------------------

def charpoly_reference(a):
    """Faddeev-LeVerrier with every product formed in full."""
    n = a.rows
    coeffs, m = [1], a.data
    for k in range(1, n + 1):
        q, r = divmod(-sum(m[i][i] for i in range(n)), k)
        assert r == 0
        coeffs.append(q)
        if k < n:
            m = [list(row) for row in m]
            for i in range(n):
                m[i][i] += q
            m = _mul_rows(a.data, m)
    return tuple(coeffs)


def split_cyclotomic_reference(p):
    """A trial division by every Phi_m of small enough degree."""
    rest, cyclo = p, []
    for m, phi, *_ in cyclotomics_up_to_degree(_degree(p)):
        mult = 0
        while _degree(rest) >= _degree(phi):
            quo = _div_int(rest, phi)
            if quo is None:
                break
            rest, mult = quo, mult + 1
        if mult:
            cyclo.append((m, mult))
    return tuple(cyclo), rest


def squarefree_reference(p):
    """Yun-style peeling with a gcd over Z on every pass."""
    p = spectral._primitive(p)
    out, i = [], 1
    while _degree(p) > 0:
        g = poly_gcd(p, _deriv(p))
        s = poly_div_exact(p, g)
        f = poly_div_exact(s, poly_gcd(s, g))
        if _degree(f) > 0:
            out.append((f, i))
        p, i = g, i + 1
    return out


def axis_split_reference(f):
    """The gcd of the even and odd parts, over Z."""
    d = _degree(f)
    half = poly_gcd(f[d % 2::2], f[(d + 1) % 2::2])
    if _degree(half) == 0:
        return [(f, False)]
    g = tuple(c for k in half for c in (k, 0))[:-1]
    h = poly_div_exact(f, g)
    return [(g, True)] + ([(h, False)] if _degree(h) > 0 else [])


def disks_reference(coeffs, mirrored, bits_cap):
    """Every attempt tested in full.  (bits, disks, closest), or
    ("exhausted", bits) where _disks raises PrecisionExhausted."""
    d, lead = _degree(coeffs), coeffs[0]
    roots, bits = _start(coeffs), SEED_BITS
    for sweep in range(MAX_SWEEPS + 1):
        one = 1 << bits
        scaled = [c << bits * k for k, c in enumerate(coeffs)]
        values = [_horner(scaled, x, y) for x, y in roots]
        radii = []
        for i, (px, py) in enumerate(values):
            qx, qy = _product(lead, roots, i)
            den = qx * qx + qy * qy
            radii.append(_ceil_sqrt(-(-d * d * (px * px + py * py) // den))
                         if den else None)
        settled = None not in radii and all(
            (r * r) << bits <= max(x * x + y * y, one * one)
            for (x, y), r in zip(roots, radii))
        last = sweep == MAX_SWEEPS or settled and 2 * bits > bits_cap
        overlap = next(((i, j) for i in range(d) for j in range(i + 1, d)
                        if radii[i] is None or radii[j] is None or
                        (roots[i][0] - roots[j][0]) ** 2 +
                        (roots[i][1] - roots[j][1]) ** 2
                        <= (radii[i] + radii[j]) ** 2), None)
        if overlap is None:
            gaps = []
            for x, y in roots:
                s = math.isqrt(x * x + y * y)
                gaps.append(s - one if s >= one
                            else one - _ceil_sqrt(x * x + y * y))
            closest = min(zip(gaps, radii), key=lambda gr: gr[0] - gr[1])
            if closest[0] > closest[1]:
                disks = []
                for i, ((x, y), r) in enumerate(zip(roots, radii)):
                    real = False if y * y > r * r else \
                        _axis(roots, radii, i, 1, -1) or None
                    imag = False if not mirrored or x * x > r * r else \
                        _axis(roots, radii, i, -1, 1) or None
                    disks.append((x, y, r, real, imag))
                if last or all(real is not None and imag is not None and
                               (real or r << PRINT_BITS <= abs(y)) and
                               (imag or r << PRINT_BITS <= abs(x))
                               for x, y, r, real, imag in disks):
                    return bits, disks, closest
        if last:
            return "exhausted", bits
        if settled:
            roots = [(x << bits, y << bits) for x, y in roots]
            values = [(px << bits * d, py << bits * d) for px, py in values]
            bits *= 2
        _sweep(lead, roots, values)


def double_seeds_reference(coeffs):
    """Durand-Kerner in complex doubles, one enumerate and max() per step."""
    try:
        monic = [c / coeffs[0] for c in coeffs]
        roots = [(0.4 + 0.9j) ** k for k in range(_degree(coeffs))]
        for _ in range(500):
            worst = 0.0
            for i, z in enumerate(roots):
                pz = 0j
                for c in monic:
                    pz = pz * z + c
                for j, w in enumerate(roots):
                    if j != i:
                        pz /= z - w
                roots[i] = z - pz
                worst = max(worst, abs(pz) / max(abs(z), 1.0))
            if not math.isfinite(worst):
                return None
            if worst < 1e-13:
                return roots if all(map(cmath.isfinite, roots)) else None
    except (OverflowError, ZeroDivisionError):
        pass
    return None


# --- seeded inputs -------------------------------------------------------------

def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _even(p):
    """p(x^2)."""
    return tuple(c for k in p for c in (k, 0))[:-1]


def _random_matrix(rng, n, span):
    return IntMatrix(tuple(tuple(rng.randint(-span, span) for _ in range(n))
                           for _ in range(n)))


def _polynomials():
    """Seeded integer polynomials of every kind the shortcuts decide on."""
    rng = random.Random(4207)
    polys = []
    for n in range(1, 7):  # characteristic polynomials, as analyze sees them
        for _ in range(25):
            polys.append(charpoly(_random_matrix(rng, n, rng.choice((2, 5)))))
    for _ in range(150):
        p = (rng.choice((1, 1, 2, -3, _PRIME, 2 * _PRIME)),)
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(5)
            if kind == 0:
                factor = cyclotomic(rng.choice((1, 2, 3, 4, 5, 6, 8, 10, 12)))
            elif kind == 1:
                factor = (1, 0)  # a zero root
            elif kind == 2:
                factor = _even((1, rng.randint(-4, 4), rng.randint(-4, 4)))
            else:
                factor = (rng.randint(1, 3),) + tuple(
                    rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
            p = _mul(p, _mul(factor, factor) if rng.random() < 0.3
                     else factor)
        if 0 < _degree(p) <= 12:
            polys.append(p)
    polys += [(_PRIME, 1, 1), (_PRIME, 0, -1), _mul((_PRIME, 1), (_PRIME, 1)),
              _even((1, -3, 1)), _mul(cyclotomic(4), cyclotomic(12)),
              _mul((1, 0, 0), (1, -3, 1))]
    return polys


POLYS = _polynomials()


def test_inputs_force_every_fallback():
    # each shortcut is exercised on both of its branches
    primitive = [spectral._primitive(p) for p in POLYS]
    assert sum(_degree(p) > 0 and not _coprime(p, _deriv(p))
               for p in primitive) > 50
    assert sum(p[0] % _PRIME == 0 for p in POLYS) > 20
    assert sum(bool(split_cyclotomic(p)[0]) for p in POLYS) > 50
    assert sum(not any(p[1::2]) for p in POLYS) > 5  # even polynomials
    assert sum(p[-1] == 0 for p in POLYS) > 20       # a zero root


# --- the shortcuts ----------------------------------------------------------

def test_charpoly_takes_the_trace_of_the_last_product_only():
    rng = random.Random(4201)
    cases = [IntMatrix(((7,),)), IntMatrix(((0, 0), (0, 0))),
             IntMatrix.identity(4)]
    for n in range(1, 8):
        for span in (1, 5, 10 ** 12, 2 ** 70):
            cases.append(_random_matrix(rng, n, span))
    for a in cases:
        assert charpoly(a) == charpoly_reference(a), a.data


def test_split_cyclotomic_skips_only_what_would_not_divide():
    for p in POLYS:
        assert split_cyclotomic(p) == split_cyclotomic_reference(p), p


def test_coprime_modulo_the_prime_proves_coprime_over_q():
    rng = random.Random(4203)
    pairs = [(p, _deriv(p)) for p in POLYS]
    for _ in range(300):
        common = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        q = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        if common[0] and p[0] and q[0]:
            pairs += [(p, q), (_mul(p, common), _mul(q, common))]
    decided = 0
    for p, q in pairs:
        if not any(q) or not p[0]:
            continue
        coprime = _degree(poly_gcd(p, q)) == 0
        if _coprime(p, q):
            assert coprime, (p, q)
            decided += 1
        if p[0] % _PRIME == 0:
            assert not _coprime(p, q)
    # the test settles nearly every coprime pair whose lead it may use
    assert decided > 0.9 * sum(_degree(poly_gcd(p, q)) == 0 and
                               p[0] % _PRIME != 0
                               for p, q in pairs if any(q) and p[0])


def test_squarefree_decomposition_returns_at_once_when_coprime():
    for p in POLYS:
        assert squarefree_decomposition(p) == squarefree_reference(p), p


def test_axis_split_returns_at_once_when_coprime():
    factors = [f for p in POLYS for f, _ in squarefree_reference(p)]
    factors += [_even((1, -3, 1)), (_PRIME, 0, -1), (1, 0), (3, 0, 0, -7)]
    for f in factors:
        assert _axis_split(f) == axis_split_reference(f), f


def _parts():
    """Squarefree parts as _disks sees them, near-circle and close roots
    included."""
    parts = []
    evens = [_even(q) for q in ((1, 2), (1, 5, 3), (1, -1, -6), (2, 0, -9),
                                (1, 3, 0, -1), (1, -3, 1))]
    for p in POLYS[:150] + evens + [(1, -10 ** 7 - 1, 10 ** 7, -10 ** 7),
                                    (1, -2 * 10 ** 12, 4 * 10 ** 6, -2),
                                    (1, -1, -1, -1, 1)]:
        rest = split_cyclotomic(p)[1]
        for f, _ in squarefree_reference(rest):
            parts += axis_split_reference(f)
    return parts


@pytest.mark.parametrize("bits_cap", [67, 130, 300, 2127])
def test_disks_skip_only_attempts_that_cannot_stand(bits_cap):
    parts = _parts()
    # mirrored parts with imaginary roots, whose flags can be True
    assert sum(mirrored and _degree(part) > 1 and part[-1] > 0
               for part, mirrored in parts) >= 3
    for part, mirrored in parts:
        want = disks_reference(part, mirrored, bits_cap)
        if want[0] == "exhausted":
            with pytest.raises(PrecisionExhausted,
                               match=" at %d bits " % want[1]):
                _disks(part, mirrored, bits_cap, "f")
        else:
            assert _disks(part, mirrored, bits_cap, "f") == want, part


def _bits(roots):
    """Every bit of each seed, the sign of a zero included."""
    return None if roots is None else [(z.real.hex(), z.imag.hex())
                                       for z in roots]


def test_double_seeds_are_bit_identical_to_the_loop_with_max():
    rng = random.Random(4209)
    polys = [p for p in POLYS if p[0] % _PRIME]
    polys += [(1, -(10 ** 400), 1), (1, 0, 0, 0), (1, -2, 1), (-2, 0, 5),
              (1, 10 ** 300, 1), (1, 0, 10 ** 200, 0, 1)]
    for _ in range(30):
        polys.append((rng.choice((1, -1, 3)),) + tuple(
            rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 7))))
    outcomes = set()
    for p in polys:
        want = double_seeds_reference(p)
        assert _bits(_double_seeds(p)) == _bits(want), p
        outcomes.add(want is None)
    assert outcomes == {True, False}
