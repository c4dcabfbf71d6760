"""Eigenvalue analytics for integer matrices.

Spectral radius, entropy-type eigenvalue sums, the filling-volume lower
bound, Gelfand iteration, exact root-of-unity detection, and torsion growth
tables for powers.

Unit-circle decisions are exact where exactness is possible: cyclotomic
factors of the characteristic polynomial are divided out over Z first, and
every remaining root is certified off the circle by one routine,
`_certified_roots`.  It computes Weierstrass disks in mpmath at a working
precision that doubles up to a cap, and decides at that precision, with the
rounding error of evaluating the polynomial added to every radius (Rump,
Verification methods, Acta Numerica 2010).  An algebraic integer can have
SOME conjugates on the circle without being a root of unity, so a purely
algebraic test cannot decide individual roots: PrecisionExhausted means a
genuine near-circle case such as a Salem spectrum, and names the factor, the
precision reached and the closest root's gap against its radius.
Logarithms are natural throughout this module; log-base-2 quantities appear
only in the filling reports and carry a log2 tag there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import NonSquare, PrecisionExhausted
from .exactlinalg import IntMatrix, _check, charpoly, coker_structure

DEFAULT_DPS_CAP = 640


# ---------------------------------------------------------------------------
# dense integer/rational polynomials, coefficients descending
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


def _divmod_frac(p, q):
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    out = []
    while len(p) >= len(q):
        f = p[0] / q[0]
        out.append(f)
        for i in range(len(q)):
            p[i] -= f * q[i]
        _check(p[0] == 0, "leading term of the division step must cancel")
        p.pop(0)
    if not out:
        out = [Fraction(0)]
    rem = _trim(tuple(p)) if p else (Fraction(0),)
    return tuple(out), rem


def _primitive(p):
    """Clear denominators, divide by content, make leading coefficient > 0."""
    lcm = math.lcm(*(Fraction(c).denominator for c in p))
    ints = _trim([int(Fraction(c) * lcm) for c in p])
    g = math.gcd(*ints) or 1
    if ints[0] < 0:
        g = -g
    return tuple(c // g for c in ints)


def poly_gcd(p, q):
    """Primitive gcd over Z with positive leading coefficient."""
    a, b = _trim(p), _trim(q)
    while any(b):
        a, b = b, _divmod_frac(a, b)[1]
    return _primitive(a)


def poly_divides(d, p) -> bool:
    _, rem = _divmod_frac(p, d)
    return all(c == 0 for c in rem)


def poly_div_exact(p, d):
    quo, rem = _divmod_frac(p, d)
    _check(all(c == 0 for c in rem), "exact polynomial division expected")
    _check(all(c.denominator == 1 for c in quo), "integer quotient expected")
    return tuple(int(c) for c in quo)


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


def cyclotomics_up_to_degree(n: int):
    """All (m, Phi_m) with phi(m) <= n.  phi(m) >= sqrt(m/2) bounds the list."""
    out = []
    m = 1
    while m <= max(2 * n * n, 6):
        if euler_phi(m) <= n:
            out.append((m, cyclotomic(m)))
        m += 1
    return out


def split_cyclotomic(p):
    """(((m, multiplicity), ...), rest): p = prod Phi_m^multiplicity * rest
    exactly over Z, with no cyclotomic factor left in rest."""
    rest = p
    cyclo = []
    for m, phi in cyclotomics_up_to_degree(_degree(p)):
        mult = 0
        while _degree(rest) >= _degree(phi) and poly_divides(phi, rest):
            rest = poly_div_exact(rest, phi)
            mult += 1
        if mult:
            cyclo.append((m, mult))
    return tuple(cyclo), rest


def primitive_roots_of_unity(m: int):
    """exp(2 pi i j / m) for 1 <= j <= m with gcd(j, m) = 1, as floats."""
    return [complex(math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
            for j in range(1, m + 1) if math.gcd(j, m) == 1]


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

@dataclass(frozen=True)
class CertifiedRoot:
    """One eigenvalue: approximation, Weierstrass radius, exact flags."""

    value: complex
    radius: float
    multiplicity: int
    on_unit_circle: bool  # exact (root of a cyclotomic factor)
    outside_unit_circle: bool


def _weierstrass_disks(coeffs):
    """(z, radius, bound) mp triples for the roots of a squarefree integer
    polynomial at the working precision; None unless the bound disks are
    pairwise disjoint, so that each holds exactly one root.

    radius = deg |p(z) / (lc prod_{w != z} (z - w))| is the Weierstrass
    radius of the computed residual; bound adds the rounding error of
    evaluating p(z), and doubles for the rounding of the denominator.
    """
    deg = _degree(coeffs)
    cs = [mp.mpf(c) for c in coeffs]
    try:
        roots = mp.polyroots(cs, maxsteps=200, extraprec=mp.mp.dps * 4)
    except mp.libmp.libhyper.NoConvergence:
        return None
    slack = 8 * (deg + 1) * mp.eps
    magnitudes = [abs(c) for c in cs]
    disks = []
    for i, z in enumerate(roots):
        denom = cs[0]
        for j, w in enumerate(roots):
            if j != i:
                denom *= z - w
        if denom == 0:
            return None  # coincident approximations; retry higher dps
        pz = mp.polyval(cs, z)
        error = slack * mp.polyval(magnitudes, abs(z))
        disks.append((z, deg * abs(pz / denom),
                      2 * deg * (abs(pz) + error) / abs(denom)))
    for i, (zi, _, bi) in enumerate(disks):
        for zj, _, bj in disks[i + 1:]:
            if abs(zi - zj) <= bi + bj:
                return None
    return disks


def _certified_roots(factor, multiplicity, dps_cap):
    """Roots of a squarefree integer factor, each in a disk that misses the
    unit circle: the one precision loop of this module, decided in mpmath
    at each dps."""
    dps, best = 40, "no attempt gave disjoint disks"
    while dps <= dps_cap:
        with mp.workdps(dps):
            disks = _weierstrass_disks(factor)
            if disks is not None:
                gap, bound = min(
                    ((abs(abs(z) - 1), bound + 4 * mp.eps * (abs(z) + 1))
                     for z, _, bound in disks),
                    key=lambda gb: gb[0] - gb[1])
                if gap > bound:
                    return [CertifiedRoot(complex(z), float(radius),
                                          multiplicity, False, abs(z) > 1)
                            for z, radius, _ in disks]
                best = "at dps %d the closest root has gap %s against " \
                    "radius %s" % (dps, mp.nstr(gap, 3), mp.nstr(bound, 3))
        dps *= 2
    raise PrecisionExhausted(
        "factor %s: roots not separated from the unit circle within dps cap"
        " %d; %s" % (",".join(map(str, factor)), dps_cap, best))


@dataclass(frozen=True)
class SpectralSummary:
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


def analyze(a: IntMatrix, dps_cap: int = DEFAULT_DPS_CAP) -> SpectralSummary:
    """Certified spectral summary of a square integer matrix."""
    if not a.is_square():
        raise NonSquare("analyze needs a square matrix")
    p = charpoly(a)
    cyclo, remaining = split_cyclotomic(p)
    roots = [CertifiedRoot(z, 0.0, mult, True, False)
             for m, mult in cyclo for z in primitive_roots_of_unity(m)]

    if _degree(remaining) > 0:
        for factor, mult in squarefree_decomposition(remaining):
            if _degree(factor) > 0:
                roots.extend(_certified_roots(factor, mult, dps_cap))

    rho = max((abs(r.value) if not r.on_unit_circle else 1.0 for r in roots),
              default=0.0)
    log_sum = 0.0
    for r in roots:
        if r.outside_unit_circle:
            log_sum += r.multiplicity * math.log(abs(r.value))
    return SpectralSummary(p, tuple(roots), rho, log_sum, bool(cyclo), cyclo)


def entropy(a: IntMatrix, dps_cap: int = DEFAULT_DPS_CAP) -> float:
    """Topological entropy of the induced linear torus map: sum of ln|lambda|
    over eigenvalues outside the unit circle."""
    return analyze(a, dps_cap).log_sum


def fv_lower_bound(a: IntMatrix, dps_cap: int = DEFAULT_DPS_CAP) -> float:
    """(2 / (n(n+1) ln(n+1))) * entropy(A) for n x n A; natural logarithms."""
    if not a.is_square():
        raise NonSquare("fv_lower_bound needs a square matrix")
    n = a.rows
    return 2.0 / (n * (n + 1) * math.log(n + 1)) * entropy(a, dps_cap)


def basic_inequalities(a: IntMatrix, dps_cap: int = DEFAULT_DPS_CAP):
    """(ln rho, entropy, n ln rho); asserts ln rho <= entropy <= n ln rho
    within the combined certification radii.

    Any non-nilpotent integer matrix has rho >= 1 (the nonzero eigenvalues
    multiply to a nonzero integer), so the inequalities are meaningful;
    nilpotent matrices return (-inf, 0, -inf) without asserting.
    """
    summary = analyze(a, dps_cap)
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


@dataclass(frozen=True)
class GrowthRow:
    """Torsion of coker(A^k - I) and its normalized logarithm."""

    k: int
    invariant_factors: tuple
    torsion_order: int
    log_tors_over_k: float
    target: float  # ln of the product of eigenvalue moduli > 1
    full_rank: bool  # det(A^k - I) != 0; degenerate rows are skipped in limits


def torsion_growth_table(a: IntMatrix, k_max: int,
                         dps_cap: int = DEFAULT_DPS_CAP):
    """Rows k = 1..k_max of torsion data for coker(A^k - I).

    torsion_order equals |tors H_1| of the degree-k cyclic cover of the
    mapping torus; rows with det(A^k - I) = 0 are flagged (full_rank False)
    and skipped when reading off the limit.
    """
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    target = entropy(a, dps_cap)
    ident = IntMatrix.identity(a.rows)
    rows = []
    power = ident
    for k in range(1, k_max + 1):
        power = power @ a
        cs = coker_structure(power - ident)
        rows.append(GrowthRow(k, cs.torsion_factors, cs.torsion_order,
                              math.log(cs.torsion_order) / k, target,
                              cs.free_rank == 0))
    return rows
