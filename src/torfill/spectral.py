"""Eigenvalue analytics for integer matrices.

Spectral radius, entropy-type eigenvalue sums, the filling-volume lower
bound, Gelfand iteration, exact root-of-unity detection, and torsion growth
tables for powers.

Unit-circle decisions are exact where exactness is possible: cyclotomic
factors of the characteristic polynomial are divided out over Z first, and
every remaining root is certified off the circle numerically with shrinking
Weierstrass radii (an algebraic integer can have SOME conjugates on the
circle without being a root of unity, so a purely algebraic test cannot
decide individual roots; PrecisionExhausted reports the configured cap).
Logarithms are natural throughout this module; log-base-2 quantities appear
only in the filling reports and carry a log2 tag there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import EigenvalueOneAmbiguous, NonSquare, PrecisionExhausted
from .exactlinalg import (IntMatrix, charpoly, coker_structure,
                          column_lattice_basis, det_exact, mat_pow,
                          solve_diophantine)

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
    while len(p) >= len(q) and any(p):
        f = p[0] / q[0]
        out.append(f)
        for i in range(len(q)):
            p[i] -= f * q[i]
        assert p[0] == 0
        p.pop(0)
    if not out:
        out = [Fraction(0)]
    rem = _trim(tuple(p)) if p else (Fraction(0),)
    return tuple(out), rem


def _content(p):
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
    return g or 1


def _primitive(p):
    """Clear denominators, divide by content, make leading coefficient > 0."""
    dens = [Fraction(c).denominator for c in p]
    lcm = 1
    for d in dens:
        lcm = lcm * d // math.gcd(lcm, d)
    ints = [int(Fraction(c) * lcm) for c in p]
    ints = list(_trim(ints))
    g = _content(ints)
    ints = [c // g for c in ints]
    if ints[0] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def poly_gcd(p, q):
    """Primitive gcd over Z with positive leading coefficient."""
    a = [Fraction(c) for c in _trim(p)]
    b = [Fraction(c) for c in _trim(q)]
    if a == [0]:
        return _primitive(b)
    if b == [0]:
        return _primitive(a)
    while _degree(b) > 0 or b[0] != 0:
        _, r = _divmod_frac(a, b)
        a, b = b, list(r)
        if all(c == 0 for c in b):
            break
    return _primitive(a)


def poly_divides(d, p) -> bool:
    _, rem = _divmod_frac(p, d)
    return all(c == 0 for c in rem)


def poly_div_exact(p, d):
    quo, rem = _divmod_frac(p, d)
    assert all(c == 0 for c in rem), "exact polynomial division expected"
    assert all(Fraction(c).denominator == 1 for c in quo), \
        "integer quotient expected"
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


_CYCLOTOMIC_CACHE = {}


def cyclotomic(m: int) -> tuple:
    """Phi_m via x^m - 1 = prod_{d | m} Phi_d (exact integer division)."""
    if m in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[m]
    p = tuple([1] + [0] * (m - 1) + [-1])
    for d in range(1, m):
        if m % d == 0:
            p = poly_div_exact(p, cyclotomic(d))
    _CYCLOTOMIC_CACHE[m] = p
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
    """Yun's algorithm: primitive p = prod f_i^i with f_i squarefree, coprime.

    Returns [(f_i, i)] with integer primitive f_i, skipping trivial factors.
    """
    p = _primitive(p)
    if _degree(p) == 0:
        return []
    g = poly_gcd(p, _deriv(p))
    if _degree(g) == 0:
        return [(p, 1)]
    out = []
    c = poly_div_exact(p, g)
    d = tuple(Fraction(a) - Fraction(b)
              for a, b in _pad(_divmod_frac(_deriv(p), g)[0], _deriv(c)))
    i = 1
    while _degree(c) > 0:
        h = poly_gcd(c, tuple(d))
        if _degree(h) > 0:
            out.append((h, i))
        c_next = poly_div_exact(c, h)
        quo, rem = _divmod_frac(d, h)
        assert all(x == 0 for x in rem)
        d = tuple(Fraction(a) - Fraction(b) for a, b in _pad(quo, _deriv(c_next)))
        c = c_next
        i += 1
    return out


def _pad(p, q):
    p, q = list(p), list(q)
    if len(p) < len(q):
        p = [0] * (len(q) - len(p)) + p
    if len(q) < len(p):
        q = [0] * (len(p) - len(q)) + q
    return zip(p, q)


# ---------------------------------------------------------------------------
# certified roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedRoot:
    """One eigenvalue: approximation, a-posteriori error radius, exact flags."""

    value: complex
    radius: float
    multiplicity: int
    on_unit_circle: bool  # exact (root of a cyclotomic factor)
    outside_unit_circle: bool


def _weierstrass_roots(coeffs, dps):
    """Roots of a squarefree integer polynomial with Weierstrass radii."""
    deg = _degree(coeffs)
    with mp.workdps(dps):
        try:
            roots = mp.polyroots([mp.mpf(c) for c in coeffs], maxsteps=200,
                                 extraprec=dps * 4)
        except mp.libmp.libhyper.NoConvergence:
            return None
        lc = mp.mpf(coeffs[0])
        out = []
        for i, z in enumerate(roots):
            pz = mp.polyval([mp.mpf(c) for c in coeffs], z)
            denom = lc
            for j, w in enumerate(roots):
                if j != i:
                    denom *= (z - w)
            if denom == 0:
                return None  # coincident approximations; retry higher dps
            radius = deg * abs(pz / denom)
            out.append((complex(z), float(radius), abs(z), radius))
        # disks must be pairwise disjoint for one-root-per-disk
        for i in range(deg):
            for j in range(i + 1, deg):
                zi, ri = roots[i], out[i][3]
                zj, rj = roots[j], out[j][3]
                if abs(zi - zj) <= ri + rj:
                    return None
        return [(z, r) for z, r, _, _ in out]


def _certify_off_circle(factor, multiplicity, dps_cap):
    """Roots of a cyclotomic-free squarefree factor, each certified with
    | |z| - 1 | > radius.  Escalates precision up to dps_cap."""
    dps = 40
    while dps <= dps_cap:
        got = _weierstrass_roots(factor, dps)
        if got is not None:
            ok = all(abs(abs(z) - 1.0) > r for z, r in got)
            if ok:
                return [CertifiedRoot(z, r, multiplicity, False, abs(z) > 1.0)
                        for z, r in got]
        dps *= 2
    raise PrecisionExhausted(
        "cannot separate all root moduli from 1 at dps cap %d" % dps_cap)


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
                roots.extend(_certify_off_circle(factor, mult, dps_cap))

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


def fv_lower_bound(a: IntMatrix, n: int = None,
                   dps_cap: int = DEFAULT_DPS_CAP) -> float:
    """(2 / (n(n+1) ln(n+1))) * entropy(A); natural logarithms."""
    if n is None:
        n = a.rows
    if a.rows != n or a.cols != n:
        raise NonSquare("fv_lower_bound dimension mismatch")
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
    assert ln_rho <= ent + slack, "ln rho <= entropy violated"
    assert ent <= n * ln_rho + slack, "entropy <= n ln rho violated"
    return ln_rho, ent, n * ln_rho


def has_root_of_unity_eigenvalue(a: IntMatrix) -> bool:
    """Exact: does charpoly share a factor with some Phi_m, phi(m) <= n."""
    return bool(split_cyclotomic(charpoly(a))[0])


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


def ck_det_formula(a: IntMatrix, k: int) -> float:
    """|det| of v - Av  |->  v - A^k v  on the lattice im(id - A).

    Computed exactly: as |det(A^k - I)| / |det(A - I)| when 1 is not an
    eigenvalue, else as the determinant of I + A + ... + A^{k-1} restricted
    to a Hermite basis of the image lattice.  Equals the eigenvalue product
    prod_{lambda != 1} |lambda^k - 1| / |lambda - 1| whenever the eigenvalue
    1 is semisimple.
    """
    if not a.is_square():
        raise NonSquare("ck_det_formula needs a square matrix")
    n = a.rows
    ident = IntMatrix.identity(n)
    b = a - ident
    db = det_exact(b)
    if db != 0:
        num = abs(det_exact(mat_pow(a, k) - ident))
        q, r = divmod(num, abs(db))
        if r == 0:
            return float(q)
        return num / abs(db)
    basis = column_lattice_basis(b)
    r = basis.cols
    if r == 0:
        return 1.0  # A = I: the operator acts on the zero lattice
    nk = IntMatrix.zero(n, n)
    power = IntMatrix.identity(n)
    for _ in range(k):
        nk = nk + power
        power = power @ a
    cols = []
    for j in range(r):
        img = nk.apply(basis.column(j))
        x = solve_diophantine(basis, img)
        assert x is not None, "image lattice is not invariant (impossible)"
        cols.append(x)
    x_mat = IntMatrix(tuple(zip(*cols)))
    return float(abs(det_exact(x_mat)))


def ck_via_root_product(a: IntMatrix, k: int,
                        dps_cap: int = DEFAULT_DPS_CAP) -> float:
    """Numeric cross-check: prod_{lambda != 1} |lambda^k - 1| / |lambda - 1|.

    The lambda = 1 factor is excluded exactly (multiplicity of (x - 1) in
    charpoly).  Raises EigenvalueOneAmbiguous if a non-cyclotomic root
    cannot be certified away from 1.
    """
    cyclo, remaining = split_cyclotomic(charpoly(a))
    prod = 1.0
    for m, mult in cyclo:
        if m > 1:
            for lam in primitive_roots_of_unity(m):
                prod *= (abs(lam ** k - 1) / abs(lam - 1)) ** mult
    if _degree(remaining) > 0:
        for factor, mult in squarefree_decomposition(remaining):
            dps = 40
            roots = None
            while dps <= dps_cap:
                got = _weierstrass_roots(factor, dps)
                if got is not None and all(abs(z - 1.0) > r for z, r in got):
                    roots = got
                    break
                dps *= 2
            if roots is None:
                raise EigenvalueOneAmbiguous(
                    "root of remaining factor not separated from 1")
            for z, _ in roots:
                prod *= (abs(z ** k - 1) / abs(z - 1)) ** mult
    return prod


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
