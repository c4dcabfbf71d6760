"""Eigenvalue analytics for integer matrices.

Spectral radius, entropy-type eigenvalue sums, the filling-volume lower
bound, Gelfand iteration, exact root-of-unity detection, and torsion growth
tables for powers.

Unit-circle decisions are exact where exactness is possible: cyclotomic
factors of the characteristic polynomial are divided out over Z first, and
every remaining root is certified off the circle by one routine,
`_certified_roots`.  Approximations are seeded by Durand-Kerner in complex
doubles and refined by mpmath's polyroots at a working precision that
doubles up to a cap; Weierstrass disks around them are decided at that
precision, with the rounding error of evaluating the polynomial added to
every radius (Rump, Verification methods, Acta Numerica 2010).  The disks
certify whatever approximations they are given, so the seeds only save
mpmath sweeps; when seeding cannot help (coefficients beyond the double
range, or no convergence in doubles), polyroots starts from its own
points.  The roots of each factor are listed by (|im|, re, -im), so the +
root of a conjugate pair comes first.

An algebraic integer can have SOME conjugates on the circle without being a
root of unity, so a purely algebraic test cannot decide individual roots:
PrecisionExhausted means a genuine near-circle case such as a Salem
spectrum, and names the factor, the precision reached and the closest
root's gap against its radius; when the root finder converged at no
precision up to the cap, it says that instead.  Each certified factor
records the same three numbers of its deciding attempt in a
FactorCertificate.
Logarithms are natural throughout this module; log-base-2 quantities appear
only in the filling reports and carry a log2 tag there.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import mpmath as mp

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


def poly_divides(d, p) -> bool:
    """Whether d divides p; d monic or primitive (see _div_int)."""
    return _div_int(p, d) is not None


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


def _double_seeds(coeffs):
    """Approximate roots of an integer polynomial for mp.polyroots to refine:
    Durand-Kerner in complex doubles from mpmath's own start points
    (0.4+0.9i)^k.  None when a coefficient ratio leaves the double range,
    two iterates coincide, or 500 sweeps do not converge to finite values,
    so that the caller falls back to mpmath's start."""
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


def _weierstrass_disks(coeffs, seeds):
    """(z, radius, bound) mp triples for the roots of a squarefree integer
    polynomial at the working precision; None unless the bound disks are
    pairwise disjoint, so that each holds exactly one root.  mpmath's
    NoConvergence propagates, so that a root-finder failure is told apart
    from disks that overlap.

    The approximations z are mpmath's Durand-Kerner iterates, started from
    `seeds` unless None; the disks certify whatever approximations they get.
    radius = deg |p(z) / (lc prod_{w != z} (z - w))| is the Weierstrass
    radius of the computed residual; bound adds the rounding error of
    evaluating p(z), and doubles for the rounding of the denominator.
    """
    deg = _degree(coeffs)
    cs = [mp.mpf(c) for c in coeffs]
    roots = mp.polyroots(cs, maxsteps=200, extraprec=mp.mp.dps * 4,
                         roots_init=seeds)
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


@dataclass(frozen=True)
class FactorCertificate:
    """How the roots of one squarefree factor were certified: at `dps`, the
    root with the least margin gap - bound had distance `gap` (mpf) from the
    unit circle against its disk's `bound` (mpf)."""

    degree: int
    dps: int
    gap: mp.mpf
    bound: mp.mpf


def _certified_roots(factor, multiplicity, dps_cap):
    """(roots, FactorCertificate) for a squarefree integer factor, each root
    in a disk that misses the unit circle, conjugate pairs in the order
    (|im|, re, -im): the one precision loop of this module, decided in
    mpmath at each dps.  When the root finder converges at no dps up to the
    cap, PrecisionExhausted says so instead of blaming the unit circle."""
    dps, best, converged = 40, "no attempt gave disjoint disks", False
    if dps_cap < dps:
        raise PrecisionExhausted(
            "factor %s: no attempt ran, as the dps cap %d is below the first"
            " attempt's dps %d" % (",".join(map(str, factor)), dps_cap, dps))
    seeds = _double_seeds(factor)
    while dps <= dps_cap:
        with mp.workdps(dps):
            try:
                disks = _weierstrass_disks(factor, seeds)
            except mp.libmp.libhyper.NoConvergence:
                disks = None
            else:
                converged = True
            if disks is not None:
                gap, bound = min(
                    ((abs(abs(z) - 1), bound + 4 * mp.eps * (abs(z) + 1))
                     for z, _, bound in disks),
                    key=lambda gb: gb[0] - gb[1])
                if gap > bound:
                    roots = [CertifiedRoot(complex(z), float(radius),
                                           multiplicity, False, abs(z) > 1)
                             for z, radius, _ in disks]
                    roots.sort(key=lambda r: (abs(r.value.imag), r.value.real,
                                              -r.value.imag))
                    return roots, FactorCertificate(_degree(factor), dps,
                                                    gap, bound)
                best = "at dps %d the closest root has gap %s against " \
                    "radius %s" % (dps, mp.nstr(gap, 3), mp.nstr(bound, 3))
        dps *= 2
    if not converged:
        raise PrecisionExhausted(
            "factor %s: the root finder did not converge at any dps up to the"
            " cap %d" % (",".join(map(str, factor)), dps_cap))
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
    if _degree(remaining) > 0:
        for factor, mult in squarefree_decomposition(remaining):
            if _degree(factor) > 0:
                factor_roots, certificate = _certified_roots(factor, mult,
                                                             dps_cap)
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


@dataclass(frozen=True)
class GrowthRow:
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
        cs = coker_structure(tuple(
            tuple(x - 1 if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(power)))
        rows.append(GrowthRow(k, cs.torsion_factors, cs.torsion_order,
                              math.log(cs.torsion_order) / k, target,
                              cs.free_rank == 0))
    return rows
