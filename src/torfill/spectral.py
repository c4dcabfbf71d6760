"""Eigenvalue analytics for integer matrices.

Spectral radius, entropy-type eigenvalue sums, the filling-volume lower
bound, Gelfand iteration, exact root-of-unity detection, and torsion growth
tables for powers.

Unit-circle decisions are exact: cyclotomic factors of the characteristic
polynomial are divided out over Z first, and every remaining root is
certified off the circle by one routine, `_certified_roots`, in integer
arithmetic only.  Each approximation is a Gaussian dyadic Z / 2^F.  The
start points are Durand-Kerner iterates in complex doubles, rounded to
F = 64 bits; when the coefficients leave the double range, those of the
polynomial shifted exactly by its rounded centroid, or else fixed points
that exact sweeps take from there.  Around the approximations, Weierstrass
disks are bounded from above by integer square roots, and disjointness and
each disk's side of the unit circle are decided by comparing integers
(Rump, Verification methods, Acta Numerica 2010).  A failed decision takes
one exact Durand-Kerner sweep, which doubles F once the approximations have
settled, up to ceil(dps_cap log2 10) bits, so the cap keeps its meaning in
decimal digits.  Certified roots are refined until each component is known
to 2^-80 of itself, so that it rounds to the double nearest the root.  A
root whose conjugate disk misses every other disk is real, and one whose
disk reflected in the imaginary axis misses every other disk of a factor
whose roots come in pairs z, -z is imaginary.  The roots of each factor
are listed by (|im|, re), the two roots of a conjugate pair keyed by the +
root, which comes first.

Cheaper exact tests skip big-integer work whose outcome they settle, so
every result is the one the full route gives.  Phi_m is monic, so it
divides p over Z only if the integer Phi_m(t) divides p(t), and a trial
division is made only where that holds for t = 2 and 3.  Polynomials
coprime modulo a prime that does not divide the first one's leading
coefficient are coprime over Q (see _coprime), and then
squarefree_decomposition and _axis_split return at once.  An attempt of
_disks other than the last stands only if each disk passes the
PRINT_BITS test, so one with a disk that fails it even with the best axis
flags that disk could get goes straight to its sweep.  The double seeds
take the same float operations in the same order as the plain loop, and
charpoly forms only the trace of its last product.

An algebraic integer can have SOME conjugates on the circle without being a
root of unity, so a purely algebraic test cannot decide individual roots:
PrecisionExhausted means a genuine near-circle case such as a Salem
spectrum, and names the factor, the bits reached and the closest root's
gap against its radius; when the disks never separate from each other, it
names the two that overlap instead.  Each certified factor records the
same numbers of its deciding attempt in a FactorCertificate.
Logarithms are natural throughout this module; log-base-2 quantities appear
only in the filling reports and carry a log2 tag there.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from .errors import NonSquare, PrecisionExhausted
from .exactlinalg import (IntMatrix, _check, _mul_rows, charpoly,
                          coker_structure)

DEFAULT_DPS_CAP = 640


# ---------------------------------------------------------------------------
# dense integer polynomials, coefficients descending
# ---------------------------------------------------------------------------

def _trim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return tuple(p[i:])


def _degree(p):
    return len(p) - 1


def _deriv(p):
    n = _degree(p)
    if n == 0:
        return (0,)
    return tuple(c * (n - i) for i, c in enumerate(p[:-1]))


def _div_int(p, d):
    """The quotient of p by d over Z, or None when d does not divide p there:
    a division step whose leading coefficient d[0] does not divide, or a
    nonzero remainder.  None means d does not divide p over Q either when d
    is monic, or primitive (Gauss's lemma), which every caller's d is."""
    p = list(p)
    lead, n = d[0], len(p) - len(d) + 1
    out = []
    for k in range(n):
        f, r = divmod(p[k], lead)
        if r:
            return None
        out.append(f)
        if f:
            for i in range(1, len(d)):
                p[k + i] -= f * d[i]
    if any(p[max(n, 0):]):
        return None
    return tuple(out) if out else (0,)


def _prem(a, b):
    """A pseudo-remainder of a by b over Z: c a - q b for a nonzero integer c
    and an integer polynomial q, of degree below b's."""
    r = list(a)
    lead = b[0]
    while len(r) >= len(b):
        g = math.gcd(lead, r[0])
        s, f = lead // g, r[0] // g
        r = [s * x - f * y for x, y in zip(r[1:], b[1:])] + \
            [s * x for x in r[len(b):]]
    return _trim(r) if r else (0,)


def _primitive(p):
    """Divide an integer polynomial by its content; leading coefficient > 0."""
    ints = _trim(p)
    g = math.gcd(*ints) or 1
    if ints[0] < 0:
        g = -g
    return tuple(c // g for c in ints)


def poly_gcd(p, q):
    """Primitive gcd over Z with positive leading coefficient: the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(p), _primitive(q)
    while any(b):
        a, b = b, _primitive(_prem(a, b))
    return a


_PRIME = 32749  # the largest prime below 2^15: products fit one digit


def _coprime(p, q):
    """Whether p and q are coprime modulo _PRIME; True proves them coprime
    over Q when p[0] is not divisible by _PRIME, which is checked.  A common
    factor over Q would be a primitive integer factor h of p, up to a
    constant, so h[0] divides p[0]: modulo _PRIME, h keeps its degree and
    divides both.  False leaves the question open."""
    if p[0] % _PRIME == 0:
        return False
    a, b = [c % _PRIME for c in p], [c % _PRIME for c in q]
    while True:
        while b and not b[0]:
            del b[0]
        if len(b) <= 1:
            return len(b) == 1
        inv = pow(b[0], -1, _PRIME)
        b = [c * inv % _PRIME for c in b]  # monic
        while len(a) >= len(b):  # a leading 0 of a gives f = 0
            f = a[0]
            a = [(x - f * y) % _PRIME for x, y in zip(a[1:], b[1:])] + \
                a[len(b):]
        a, b = b, a


def poly_div_exact(p, d):
    """p / d over Z; d monic or primitive (see _div_int)."""
    quo = _div_int(p, d)
    _check(quo is not None, "exact polynomial division over Z expected")
    return quo


def euler_phi(m: int) -> int:
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@functools.cache
def cyclotomic(m: int) -> tuple:
    """Phi_m via x^m - 1 = prod_{d | m} Phi_d (exact integer division)."""
    p = tuple([1] + [0] * (m - 1) + [-1])
    for d in range(1, m):
        if m % d == 0:
            p = poly_div_exact(p, cyclotomic(d))
    return p


@functools.cache
def cyclotomics_up_to_degree(n: int) -> tuple:
    """All (m, Phi_m, Phi_m(2), Phi_m(3)) with phi(m) <= n.  phi(m) >=
    sqrt(m/2) bounds the list."""
    return tuple((m, phi, _horner(phi, 2, 0)[0], _horner(phi, 3, 0)[0])
                 for m in range(1, max(2 * n * n, 6) + 1)
                 if euler_phi(m) <= n for phi in (cyclotomic(m),))


def split_cyclotomic(p):
    """(((m, multiplicity), ...), rest): p = prod Phi_m^multiplicity * rest
    exactly over Z, with no cyclotomic factor left in rest.

    Phi_m is monic, so where it divides rest over Z, Phi_m(t) divides the
    integer rest(t); a division is tried only where that holds for t = 2
    and t = 3."""
    rest = p
    at2, at3 = _horner(p, 2, 0)[0], _horner(p, 3, 0)[0]
    cyclo = []
    for m, phi, phi2, phi3 in cyclotomics_up_to_degree(_degree(p)):
        mult = 0
        while _degree(rest) >= _degree(phi) and \
                at2 % phi2 == at3 % phi3 == 0:
            quo = _div_int(rest, phi)
            if quo is None:
                break
            rest = quo
            at2, at3 = at2 // phi2, at3 // phi3
            mult += 1
        if mult:
            cyclo.append((m, mult))
    return tuple(cyclo), rest


def primitive_roots_of_unity(m: int):
    """exp(2 pi i j / m) for 1 <= j <= m with gcd(j, m) = 1, as floats.

    For m > 2 they come in conjugate pairs, in the order of j < m/2: the
    root of j, then its exact conjugate, the root of m - j.  The roots 1,
    -1 and +-i of Phi_1, Phi_2 and Phi_4 are exact; every other root comes
    from cos and sin."""
    if m <= 2:
        return [complex(1 if m == 1 else -1, 0)]
    roots = []
    for j in range(1, (m + 1) // 2):
        if math.gcd(j, m) == 1:
            z = complex(0, 1) if m == 4 else complex(
                math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
            roots += (z, z.conjugate())
    return roots


def squarefree_decomposition(p):
    """Primitive p = prod f_i^i with f_i squarefree and pairwise coprime.

    Returns [(f_i, i)] with integer primitive f_i, skipping trivial factors.
    Peels one multiplicity layer per pass: with g = gcd(p, p'), s = p / g is
    the product of all factors of p, s / gcd(s, g) those of multiplicity
    exactly 1, and g is p with every multiplicity lowered by one.
    """
    p = _primitive(p)
    out = []
    i = 1
    while _degree(p) > 0:
        if _coprime(p, _deriv(p)):  # then g = 1, and p is f_i
            out.append((p, i))
            break
        g = poly_gcd(p, _deriv(p))
        s = poly_div_exact(p, g)
        f = poly_div_exact(s, poly_gcd(s, g))
        if _degree(f) > 0:
            out.append((f, i))
        p = g
        i += 1
    return out


# ---------------------------------------------------------------------------
# certified roots
# ---------------------------------------------------------------------------

SEED_BITS = 64    # fixed-point bits of the start points
PRINT_BITS = 80   # relative bits a root is refined to, well past a double's 53
MAX_SWEEPS = 500  # exact Durand-Kerner sweeps per squarefree part


class CertifiedRoot(NamedTuple):
    """One eigenvalue: approximation, radius, exact flags.

    A certified root lies within `radius` of `value`: the radius of the disk
    that decided it, widened by the distance from that disk's centre to
    `value` and rounded up.  Roots of cyclotomic factors are exact by their
    factor and carry radius 0."""

    value: complex
    radius: float
    multiplicity: int
    on_unit_circle: bool  # exact (root of a cyclotomic factor)
    outside_unit_circle: bool


def _double_seeds(coeffs):
    """Approximate roots of an integer polynomial: Durand-Kerner in complex
    doubles from the start points (0.4+0.9i)^k.  None when a coefficient
    ratio leaves the double range, two iterates coincide, or 500 sweeps do
    not converge to finite values."""
    try:
        monic = [c / coeffs[0] for c in coeffs]
        roots = [(0.4 + 0.9j) ** k for k in range(_degree(coeffs))]
        for _ in range(500):
            worst = 0.0
            for i, z in enumerate(roots):
                pz = 0j
                for c in monic:
                    pz = pz * z + c
                for w in roots[:i]:
                    pz /= z - w
                for w in roots[i + 1:]:
                    pz /= z - w
                roots[i] = z - pz
                # worst = max(worst, abs(pz) / max(abs(z), 1.0)), without
                # the calls: the same comparisons, so a nan is kept or
                # passed over as max() does it
                size = abs(z)
                step = abs(pz) / (1.0 if size < 1.0 else size)
                if step > worst:
                    worst = step
            if not math.isfinite(worst):
                return None
            if worst < 1e-13:
                return roots if all(map(cmath.isfinite, roots)) else None
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _taylor_shift(p, c):
    """p(x + c), coefficients descending, exactly over Z."""
    q = list(p)
    n = _degree(p)
    for i in range(n):
        for j in range(1, n - i + 1):
            q[j] += c * q[j - 1]
    return tuple(q)


def _ceil_sqrt(n):
    r = math.isqrt(n)
    return r + (r * r < n)


def _fixed(v, bits):
    """The integer nearest v * 2^bits, for a finite float v."""
    n, m = v.as_integer_ratio()
    return (2 * (n << bits) + m) // (2 * m)


def _to_float(n, bits):
    """n / 2^bits correctly rounded; +-inf beyond the double range."""
    try:
        return n / (1 << bits)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def format_g(n, bits, digits):
    """n / 2^bits as %.<digits>g; beyond the double range, in the same
    style through Decimal, so that nothing overflows or reads 0."""
    # imported here: only printing needs fractions, which loads decimal
    from decimal import Decimal
    from fractions import Fraction
    q = Fraction(n, 1 << bits)
    if q == 0 or 1e-300 < abs(q) < 1e300:
        return "%.*g" % (digits, q)
    return format((Decimal(q.numerator) / q.denominator).normalize(),
                  ".%dg" % digits)


def _float_up(n, bits):
    """The least float >= n / 2^bits, or inf."""
    f = _to_float(n, bits)
    if math.isfinite(f):
        a, b = f.as_integer_ratio()
        if a << bits < n * b:
            f = math.nextafter(f, math.inf)
    return f


def _horner(scaled, x, y):
    """P = 2^(Fd) p(Z / 2^F) at the Gaussian integer Z = x + iy, from
    scaled[k] = a_k 2^(Fk)."""
    px = py = 0
    for c in scaled:
        px, py = px * x - py * y + c, px * y + py * x
    return px, py


def _product(lead, roots, i):
    """Q = lc prod_{j != i} (Z_i - Z_j) = 2^(F(d-1)) lc prod (z_i - z_j),
    so that the Weierstrass correction of z_i is P / Q in units of 2^-F."""
    x, y = roots[i]
    qx, qy = lead, 0
    for j, (u, v) in enumerate(roots):
        if j != i:
            u, v = x - u, y - v
            qx, qy = qx * u - qy * v, qx * v + qy * u
    return qx, qy


def _sweep(lead, roots, values):
    """One exact Durand-Kerner sweep in place, root by root: Z_i -= P_i / Q_i
    rounded to a Gaussian integer, with P_i = values[i] (Z_i is not yet
    moved when its turn comes) and Q_i against the roots moved so far.  A
    root whose Q_i is 0 stays."""
    for i, (px, py) in enumerate(values):
        qx, qy = _product(lead, roots, i)
        den = qx * qx + qy * qy
        if den:
            x, y = roots[i]
            roots[i] = (x - (2 * (px * qx + py * qy) + den) // (2 * den),
                        y - (2 * (py * qx - px * qy) + den) // (2 * den))


def _start(coeffs):
    """Gaussian integers Z_i with Z_i / 2^SEED_BITS the start points: double
    seeds; when they fail, double seeds of the polynomial shifted exactly
    by its rounded centroid -a_1 / (d a_0), which turns a cluster far from 0
    into one near 0; failing both, the points (0.4+0.9i)^k = (4+9i)^k / 10^k,
    which _disks's exact sweeps take from there."""
    d, lead = _degree(coeffs), coeffs[0]
    seeds = _double_seeds(coeffs)
    shift = 0
    if seeds is None:
        shift = (d * lead - 2 * coeffs[1]) // (2 * d * lead)
        seeds = _double_seeds(_taylor_shift(coeffs, shift))
    if seeds is not None:
        return [(_fixed(z.real, SEED_BITS) + (shift << SEED_BITS),
                 _fixed(z.imag, SEED_BITS)) for z in seeds]
    roots, gx, gy = [], 1, 0
    for k in range(d):
        den = 2 * 10 ** k
        roots.append(((2 * (gx << SEED_BITS) + 10 ** k) // den,
                      (2 * (gy << SEED_BITS) + 10 ** k) // den))
        gx, gy = 4 * gx - 9 * gy, 9 * gx + 4 * gy
    return roots


def _axis(roots, radii, i, sx, sy):
    """Whether the disk of root i mapped by (x, y) -> (sx x, sy y) misses
    every other disk."""
    (x, y), r = roots[i], radii[i]
    return all((sx * x - u) ** 2 + (sy * y - v) ** 2 > (r + radii[j]) ** 2
               for j, (u, v) in enumerate(roots) if j != i)


def _disks(coeffs, mirrored, bits_cap, name):
    """Certified disks of the roots of a squarefree integer polynomial.

    Returns (F, disks, closest): disks[i] = (x, y, r, real, imag) holds
    exactly one root, within r / 2^F of (x + iy) / 2^F and off the unit
    circle; real and imag are True when that root is proven real or
    purely imaginary.  closest = (gap, r) of the root with the least margin,
    whose centre lies at least gap / 2^F from the circle.

    Every test compares integers at F bits.  r = ceil(sqrt(ceil(d^2 |P|^2 /
    |Q|^2))) bounds the Weierstrass radius d |P / Q| from above (Rump,
    Verification methods, Acta Numerica 2010): when the disks are pairwise
    disjoint each holds exactly one root.  A disk is off the circle when
    gap > r, gap being isqrt(x^2 + y^2) - 2^F or 2^F - ceil(sqrt(x^2 +
    y^2)).  A root is real when the conjugate of its disk misses every
    other disk, for the conjugate root then lies in its own disk, which
    holds one root; not real when its disk misses the real axis.  With
    `mirrored` (an even polynomial, whose roots come in pairs z, -conj(z)),
    the same reflected in the imaginary axis.

    An attempt stands when its disks are disjoint and off the circle, and
    each printed component is known to 2^-PRINT_BITS of itself with each
    root's axes decided, so that it rounds to the double nearest the root.
    Otherwise one exact sweep follows: at 2F bits once the attempt has
    settled, every radius within 2^(-F/2) of max(|z|, 1), and at F bits
    before that.  The last attempt, after MAX_SWEEPS sweeps or settled with
    2F above bits_cap, stands once its disks are disjoint and off the
    circle."""
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
        # an attempt other than the last can only stand when every disk
        # could pass the PRINT_BITS test with the best flags its axes allow
        if last or None not in radii and all(
                (y * y <= r * r or r << PRINT_BITS <= abs(y)) and
                (mirrored and x * x <= r * r or r << PRINT_BITS <= abs(x))
                for (x, y), r in zip(roots, radii)):
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
            break
        if settled:
            roots = [(x << bits, y << bits) for x, y in roots]
            values = [(px << bits * d, py << bits * d) for px, py in values]
            bits *= 2
        _sweep(lead, roots, values)
    reason = "in %d sweeps" % MAX_SWEEPS if sweep == MAX_SWEEPS else \
        "within the bit cap %d" % bits_cap
    if overlap is not None:
        centres = tuple("(%s, %s)" % tuple(format_g(c, bits, 6)
                                           for c in roots[k])
                        for k in overlap)
        raise PrecisionExhausted(
            "factor %s: roots not separated from each other %s; at %d bits "
            "the disks about %s and %s overlap" % ((name, reason, bits)
                                                   + centres))
    raise PrecisionExhausted(
        "factor %s: roots not separated from the unit circle %s; at %d bits "
        "the closest root has gap %s against radius %s" % ((name, reason, bits)
        + tuple(format_g(c, bits, 3) for c in closest)))


def _axis_split(f):
    """[(part, mirrored)] with f squarefree the product of the parts: with
    f = E(x^2) + x O(x^2), g(x) = gcd(E, O)(x^2) is the even factor of f
    whose roots z have -z as roots too, and mirrored; f / g has no root on
    the imaginary axis but perhaps 0."""
    if _coprime(f[::2], f[1::2]):  # f[::2] leads with f[0]
        return [(f, False)]
    d = _degree(f)
    half = poly_gcd(f[d % 2::2], f[(d + 1) % 2::2])
    if _degree(half) == 0:
        return [(f, False)]
    g = tuple(c for k in half for c in (k, 0))[:-1]
    h = poly_div_exact(f, g)
    return [(g, True)] + ([(h, False)] if _degree(h) > 0 else [])


def _radius_about(value, x, y, r, bits):
    """A float bound on the distance from `value` to a root within r / 2^bits
    of (x + iy) / 2^bits, computed in integers and rounded up."""
    if not cmath.isfinite(value):
        return math.inf
    (ax, bx), (ay, by) = (value.real.as_integer_ratio(),
                          value.imag.as_integer_ratio())
    scale = max(bits, bx.bit_length() - 1, by.bit_length() - 1)
    up = scale - bits
    dx = (ax << scale) // bx - (x << up)
    dy = (ay << scale) // by - (y << up)
    return _float_up((r << up) + _ceil_sqrt(dx * dx + dy * dy), scale)


class FactorCertificate(NamedTuple):
    """How the roots of one squarefree factor were certified: at `bits`, the
    root with the least margin gap - bound had distance at least
    gap / 2^bits from the unit circle against its disk's radius
    bound / 2^bits, both integers."""

    degree: int
    bits: int
    gap: int
    bound: int


def _certified_roots(factor, multiplicity, dps_cap):
    """(roots, FactorCertificate) for a squarefree integer factor, each root
    in a disk that misses the unit circle, in the order (|im|, re, -im)
    with both roots of a conjugate pair keyed by the + root, certified by
    _disks over _axis_split's parts within ceil(dps_cap log2 10) bits.  A real root is exact when its disk holds an
    integer root (the only rational roots of a monic factor), so that it
    rounds to a double like that integer."""
    name = ",".join(map(str, factor))
    bits_cap = math.ceil(dps_cap * math.log2(10))
    if bits_cap < SEED_BITS:
        raise PrecisionExhausted(
            "factor %s: no attempt ran, as the bit cap %d is below the first"
            " attempt's %d bits" % (name, bits_cap, SEED_BITS))
    roots, bits, margins = [], 0, []
    for part, mirrored in _axis_split(factor):
        part_bits, disks, (gap, r) = _disks(part, mirrored, bits_cap, name)
        bits = max(bits, part_bits)
        margins.append((gap, r, part_bits))
        for x, y, r, real, imag in disks:
            n = (x + (1 << part_bits - 1)) >> part_bits
            if real and _horner(part, n, 0) == (0, 0) and \
                    ((n << part_bits) - x) ** 2 + y * y <= r * r:
                x, y, r = n << part_bits, 0, 0  # the root is the integer n
            value = complex(0.0 if imag else _to_float(x, part_bits),
                            0.0 if real else _to_float(y, part_bits))
            roots.append(CertifiedRoot(
                value, _radius_about(value, x, y, r, part_bits), multiplicity,
                False, x * x + y * y > 1 << 2 * part_bits))
    ups = [r.value for r in roots if r.value.imag > 0]

    def key(root):
        # a pair shares the (|im|, re) of its + root: for a - root, that of
        # the + root nearest its conjugate, which at a low bit cap may
        # differ from its own in the last bits
        z = root.value
        if z.imag < 0:
            z = min(ups, key=lambda w: abs(w - z.conjugate()), default=z)
        return abs(z.imag), z.real, -root.value.imag
    roots.sort(key=key)
    gap, bound = min(((g << bits - b, r << bits - b) for g, r, b in margins),
                     key=lambda gb: gb[0] - gb[1])
    return roots, FactorCertificate(_degree(factor), bits, gap, bound)


class SpectralSummary(NamedTuple):
    """Characteristic polynomial, certified roots, and derived quantities.

    rho is the spectral radius, log_sum = sum of ln|lambda| over the
    eigenvalues certified outside the unit circle (natural log), and
    unit_root_flag reports whether any eigenvalue is a root of unity
    (decided exactly via cyclotomic factors).
    """

    charpoly: tuple
    roots: tuple
    rho: float
    log_sum: float
    unit_root_flag: bool
    cyclotomic_factors: tuple  # (m, multiplicity)
    certificates: tuple  # FactorCertificate per non-cyclotomic factor


def analyze(a: IntMatrix, dps_cap: int = DEFAULT_DPS_CAP) -> SpectralSummary:
    """Certified spectral summary of a square integer matrix."""
    if not a.is_square():
        raise NonSquare("analyze needs a square matrix")
    p = charpoly(a)
    cyclo, remaining = split_cyclotomic(p)
    roots = [CertifiedRoot(z, 0.0, mult, True, False)
             for m, mult in cyclo for z in primitive_roots_of_unity(m)]

    certificates = []
    for factor, mult in squarefree_decomposition(remaining):
        factor_roots, certificate = _certified_roots(factor, mult, dps_cap)
        roots.extend(factor_roots)
        certificates.append(certificate)

    rho = max((abs(r.value) if not r.on_unit_circle else 1.0 for r in roots),
              default=0.0)
    log_sum = 0.0
    for r in roots:
        if r.outside_unit_circle:
            log_sum += r.multiplicity * math.log(abs(r.value))
    return SpectralSummary(p, tuple(roots), rho, log_sum, bool(cyclo), cyclo,
                           tuple(certificates))


def entropy(a: IntMatrix) -> float:
    """Topological entropy of the induced linear torus map: sum of ln|lambda|
    over eigenvalues outside the unit circle."""
    return analyze(a).log_sum


def fv_lower_coefficient(n: int) -> float:
    """2 / (n(n+1) ln(n+1)), the factor of the entropy in the filling-volume
    lower bound for n x n matrices; natural logarithms."""
    return 2.0 / (n * (n + 1) * math.log(n + 1))


def fv_lower_bound(a: IntMatrix) -> float:
    """fv_lower_coefficient(n) * entropy(A) for n x n A."""
    if not a.is_square():
        raise NonSquare("fv_lower_bound needs a square matrix")
    return fv_lower_coefficient(a.rows) * entropy(a)


def basic_inequalities(a: IntMatrix):
    """(ln rho, entropy, n ln rho); asserts ln rho <= entropy <= n ln rho
    within the combined certification radii.

    Any non-nilpotent integer matrix has rho >= 1 (the nonzero eigenvalues
    multiply to a nonzero integer), so the inequalities are meaningful;
    nilpotent matrices return (-inf, 0, -inf) without asserting.
    """
    summary = analyze(a)
    n = a.rows
    ent = summary.log_sum
    if summary.rho == 0.0:
        return float("-inf"), ent, float("-inf")
    ln_rho = math.log(summary.rho)
    slack = 1e-9 + sum(r.radius for r in summary.roots)
    _check(ln_rho <= ent + slack, "ln rho <= entropy violated")
    _check(ent <= n * ln_rho + slack, "entropy <= n ln rho violated")
    return ln_rho, ent, n * ln_rho


def gelfand_sequence(a: IntMatrix, j_max: int):
    """[ max-entry-norm(A^j) ^ (1/j) for j = 1..j_max ], exact powers."""
    if j_max < 1:
        raise ValueError("j_max >= 1 required")
    out = []
    power = IntMatrix.identity(a.rows)
    for j in range(1, j_max + 1):
        power = power @ a
        norm = power.max_abs()
        out.append(0.0 if norm == 0 else math.exp(math.log(norm) / j))
    return out


class GrowthRow(NamedTuple):
    """Torsion of coker(A^k - I) and its normalized logarithm."""

    k: int
    invariant_factors: tuple
    torsion_order: int
    log_tors_over_k: float
    target: float  # ln of the product of eigenvalue moduli > 1
    full_rank: bool  # det(A^k - I) != 0; degenerate rows are skipped in limits


def torsion_growth_table(a: IntMatrix, k_max: int):
    """Rows k = 1..k_max of torsion data for coker(A^k - I).

    torsion_order equals |tors H_1| of the degree-k cyclic cover of the
    mapping torus; rows with det(A^k - I) = 0 are flagged (full_rank False)
    and skipped when reading off the limit.
    """
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    target = entropy(a)
    rows = []
    power = IntMatrix.identity(a.rows).data
    for k in range(1, k_max + 1):
        power = _mul_rows(power, a.data)
        cs = coker_structure(tuple(row[:i] + (row[i] - 1,) + row[i + 1:]
                                   for i, row in enumerate(power)))
        rows.append(GrowthRow(k, cs.torsion_factors, cs.torsion_order,
                              math.log(cs.torsion_order) / k, target,
                              cs.free_rank == 0))
    return rows
