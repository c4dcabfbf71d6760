"""Invariant suites behind `torfill selftest` and the acceptance tests.

Each criterion function returns a SuiteResult with a pass flag and a short
detail string; `run_all` executes every criterion at the requested level
("quick" trims sample counts, "full" runs the documented sizes).  A
criterion body is plain check code run by `_criterion`: a failed check
raises, and so may a library call; either error becomes a FAIL carrying
its message, and `run_all` goes on to the next criterion.  `torfill
selftest` exits 2 if any criterion fails.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
import time
from typing import NamedTuple

from .chains import (boundary, l1_norm, parallelogram_class,
                     parallelogram_cycle, prism_v, sample_degree)
from .errors import TorfillError, VerificationFailure
from .exactlinalg import IntMatrix, _check
from .filling import (BASE_KEYS, base_certificate, fill_by_solve,
                      universal_cycle, verify_certificate)
from .filling.base import TABLE_DIR, _key_filename, base_costs
from .filling.moves import s1_moves, s1_piece
from .filling.reduce import (_ls_slope, fv_upper_experiment,
                             reduce_parallelogram)
from .formats import obj_to_certificate, write_certificate
from .psl2z import (cyclically_reduced_length, decompose, family_matrix,
                    reconstruct, word_power)
from .spectral import analyze, basic_inequalities, fv_lower_bound


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float


def _criterion(name):
    """Run the decorated check code as criterion `name`, timed: its returned
    detail string is a PASS, and a TorfillError it raises is a FAIL whose
    detail is the error's message.  Any other exception propagates."""
    def wrap(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                passed, detail = True, body(*args, **kwargs)
            except TorfillError as exc:
                passed, detail = False, str(exc)
            return SuiteResult(name, passed, detail, time.perf_counter() - t0)
        return run
    return wrap


def random_sl2_word(rng, max_len=40, cap=10 ** 6) -> IntMatrix:
    """Alternating elementary blocks (continued-fraction style), trimmed to
    keep the entry norm at most `cap`."""
    a = IntMatrix.identity(2)
    upper = rng.random() < 0.5
    used = 0
    while used < max_len:
        e = min(rng.randint(1, 3), max_len - used)
        sgn = rng.choice([1, -1])
        if upper:
            block = IntMatrix(((1, sgn * e), (0, 1)))
        else:
            block = IntMatrix(((1, 0), (sgn * e, 1)))
        nxt = a @ block
        if nxt.max_abs() > cap:
            break
        a = nxt
        used += e
        upper = not upper
    return a


def random_sl_matrix(rng, n, length) -> IntMatrix:
    a = IntMatrix.identity(n)
    for _ in range(length):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice([-1, 1])
        a = a @ IntMatrix(tuple(map(tuple, e)))
    return a


def affine_fit_min_max_relative(xs, ys):
    """Affine fit minimizing the maximum |residual| / |fitted|.

    Least-squares start, then three rounds of grid refinement; adequate for
    the monotone, roughly linear data the cost experiments produce.
    """
    m = len(xs)
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    slope = _ls_slope(xs, ys)
    inter = mean_y - slope * mean_x

    def max_rel(s, b):
        worst = 0.0
        for x, y in zip(xs, ys):
            fit = s * x + b
            if fit <= 0:
                return float("inf")
            worst = max(worst, abs(y - fit) / fit)
        return worst

    best = (max_rel(slope, inter), slope, inter)
    span_s = abs(slope) * 0.4 + 1.0
    span_b = abs(inter) * 0.8 + abs(mean_y) * 0.4 + 1.0
    for _ in range(3):
        s0, b0 = best[1], best[2]
        for ds in range(-12, 13):
            for db in range(-12, 13):
                s = s0 + span_s * ds / 12
                b = b0 + span_b * db / 12
                r = max_rel(s, b)
                if r < best[0]:
                    best = (r, s, b)
        span_s /= 6
        span_b /= 6
    return best  # (max relative residual, slope, intercept)


# --- criteria -------------------------------------------------------------------

@_criterion("reduction_exactness")
def criterion_reduction_exactness(data, level="full"):
    """Exact reduction certificates for random SL(2,Z) words; appends the
    (log2 norm, cost) pairs the scaling criterion fits to `data`."""
    rng = random.Random(12001)
    n_samples = 100 if level == "full" else 20
    base_costs()  # warm: the table load is not a reduction's time
    worst_dt = 0.0
    for _ in range(n_samples):
        a = random_sl2_word(rng)
        t = time.perf_counter()
        try:
            report = reduce_parallelogram(a)
        except TorfillError as exc:
            raise VerificationFailure("reduce %r: %s" % (a.data, exc)) from exc
        dt = time.perf_counter() - t
        worst_dt = max(worst_dt, dt)
        # reduce checked the certificate against its presentation; check it
        # again independently, trace costs included, as a reader of what
        # `reduce --out` writes would
        buf = io.StringIO()
        write_certificate(buf, report.certificate)
        cert = obj_to_certificate(json.loads(buf.getvalue()))
        ok, diag = verify_certificate(cert)
        _check(ok and report.det == 1 and dt < 5.0,
               "failure: %s dt=%.2f" % (diag, dt))
        data.append((report.log2_norm, cert.cost))
    return "%d matrices exact; worst per-matrix %.2fs" % (n_samples, worst_dt)


@_criterion("cost_scaling")
def criterion_cost_scaling(data, level="full"):
    """Affine fit of cost against log2 norm within 20% relative residuals,
    plus boundedness of cost_j / j for the standard Anosov matrix."""
    _check(data, "no (log2 norm, cost) data: reduction_exactness failed")
    xs = [d[0] for d in data]
    ys = [d[1] for d in data]
    resid, slope, inter = affine_fit_min_max_relative(xs, ys)

    a = IntMatrix(((2, 1), (1, 1)))
    j_max = 8 if level == "full" else 4
    exp = fv_upper_experiment(a, j_max)
    log2_rho = math.log2(analyze(a).rho)
    ratios = [cost / j / log2_rho for j, cost, _, _ in exp.rows]
    k_hat_obs = max(ratios)
    med = sorted(ratios)[len(ratios) // 2]
    bounded = k_hat_obs <= 3.0 * med
    detail = ("fit slope=%.1f icept=%.1f max_rel=%.3f; "
              "K_hat(ls)=%.1f K_hat(max)=%.1f bounded=%s"
              % (slope, inter, resid, exp.k_hat, k_hat_obs, bounded))
    _check(resid <= 0.20 and bounded, detail)
    return detail


@_criterion("s1_invariants")
def criterion_s1_invariants(level="full"):
    limit = 200 if level == "full" else 60
    worst_c = 0.0
    for a in range(1, limit + 1):
        for l in range(1, limit + 1):
            at = "at (%d,%d)" % (a, l)
            moves, tr = s1_moves(a, l)
            _check(all(x == 2 ** i and not y % (2 ** i) and 0 <= k <= 3
                       for i, (x, y, k) in enumerate(tr.phase1)),
                   "phase1 invariant broken " + at)
            _check(moves[-1] == (1, ("ZERO", 1), ((2 ** len(tr.phase1),),)),
                   "y_M != 0 (no terminal ZERO) " + at)
            _check(len(tr.phase1) <= 1 + math.log2(tr.total) / 2,
                   "M bound broken " + at)
            _check(all(ai <= a / 2 ** i for i, ai in enumerate(tr.phase2)),
                   "a_i bound broken " + at)
            _check(tr.total == a * l and tr.total <= 2 * a * l,
                   "L identity broken " + at)
            worst_c = max(worst_c, len(moves) / (math.log2(a * l) + 1))
    # deterministic certificate subsample, each verified against Q(a, l)
    for a in range(1, limit + 1, 29):
        for l in range(1, limit + 1, 31):
            piece, _ = s1_piece(a, l)
            try:
                piece.certificate([(1, ((a,), (l,)))])
            except VerificationFailure as exc:
                raise VerificationFailure(
                    "certificate mismatch at (%d,%d)" % (a, l)) from exc
    detail = "sweep %dx%d, fitted C=%.2f" % (limit, limit, worst_c)
    _check(worst_c <= 8.0, detail)
    return detail


@_criterion("torsion_growth")
def criterion_torsion_growth(level="full"):
    from .spectral import torsion_growth_table
    rows = torsion_growth_table(IntMatrix(((2, 1), (1, 1))), 40)
    last = rows[-1]
    rel = abs(last.log_tors_over_k - last.target) / last.target
    detail = ("orders k=1,2: %d,%d; |log tors/k - target|/target = %.4f at k=40"
              % (rows[0].torsion_order, rows[1].torsion_order, rel))
    _check(rows[0].torsion_order == 1 and rows[1].torsion_order == 5
           and rel < 0.05, detail)
    return detail


@_criterion("degree_oracle")
def criterion_degree_oracle(level="full"):
    rng = random.Random(12005)
    n_samples = 200 if level == "full" else 50
    for _ in range(n_samples):
        n = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-10, 10) for _ in range(n)) for _ in range(n)]
        det = parallelogram_class(vecs)[0]
        _check(sample_degree(parallelogram_cycle(vecs), rng) == det,
               "mismatch on %r" % (vecs,))
    return "%d random generator matrices, zero mismatches" % n_samples


@_criterion("chain_invariants")
def criterion_chain_invariants(level="full"):
    rng = random.Random(12006)
    n_chains = 60 if level == "full" else 20
    from .chains import TorusChain, canonicalize
    for _ in range(n_chains):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            span = 10 ** 6 if rng.random() < 0.3 else 4
            verts = [tuple(rng.randint(-span, span) for _ in range(n))
                     for _ in range(k + 1)]
            pairs.append((canonicalize(verts), rng.choice([-2, -1, 1, 2])))
        c = TorusChain.from_pairs(n, k, pairs)
        _check(boundary(boundary(c)).is_zero(), "dd != 0")
        v = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n))
        pc = prism_v(v, c)
        _check(boundary(pc) == prism_v(v, boundary(c)), "prism chain map")
        _check(l1_norm(pc) <= (k + 1) * l1_norm(c), "prism norm bound")
    for _ in range(n_chains):
        n = rng.randint(1, 3)
        kk = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n))
                for _ in range(kk)]
        q = parallelogram_cycle(vecs)
        _check(boundary(q).is_zero() and l1_norm(q) <= math.factorial(kk),
               "Q cycle bound")
    return ("dd=0, prism commutation/norm, cycle bounds on %d chains"
            % (2 * n_chains))


@_criterion("spectral")
def criterion_spectral(level="full"):
    rng = random.Random(12007)
    n_samples = 500 if level == "full" else 80
    for _ in range(n_samples):
        n = rng.randint(1, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                            for _ in range(n)))
        lo, ent, hi = basic_inequalities(a)
        _check(not math.isfinite(lo) or lo <= ent + 1e-9 <= hi + 2e-9,
               "basic inequality broke")
    from .spectral import gelfand_sequence
    found = 0
    while found < (20 if level == "full" else 6):
        n = rng.choice([2, 3])
        a = random_sl_matrix(rng, n, rng.randint(6, 14))
        s = analyze(a)
        if s.unit_root_flag or s.rho < 1.2:
            continue
        if any(not r.on_unit_circle and abs(abs(r.value) - 1) <= 10 * r.radius
               for r in s.roots):
            continue
        tail = gelfand_sequence(a, 64)[-1]
        _check(abs(tail - s.rho) / s.rho < 0.1, "Gelfand tail off")
        found += 1
    for i in range(1, 51):
        expected = (i + 2 + math.sqrt(i * i + 4 * i)) / 2
        _check(abs(analyze(family_matrix(i)).rho - expected) <= 1e-9,
               "family radius off at i=%d" % i)
    return ("%d inequality samples; Gelfand tails; family radii to 1e-9"
            % n_samples)


@_criterion("base_bootstrap")
def criterion_base_bootstrap(level="full"):
    """Cold solve of every key by fill_by_solve, exactly verified; each
    shipped certificate costs no more, and saving it writes its file's
    exact bytes."""
    t0 = time.perf_counter()
    costs = {}
    for key in BASE_KEYS:
        cert = fill_by_solve(universal_cycle(key), box=1, max_expand=3)
        ok, diag = verify_certificate(cert)
        _check(ok, "%r: %s" % (key, diag))
        costs[key] = cert.cost
        shipped = base_certificate(key)
        _check(shipped.cost <= cert.cost, "shipped %r costs %d > cold solve %d"
               % (key, shipped.cost, cert.cost))
        buf = io.StringIO()
        write_certificate(buf, shipped)
        path = TABLE_DIR / _key_filename(key)
        _check(buf.getvalue().encode() == path.read_bytes(),
               "shipped %r does not match its file" % (key,))
    elapsed = time.perf_counter() - t0
    detail = ("all %d keys solved cold in %.1fs; costs %s" %
              (len(BASE_KEYS), elapsed,
               {"/".join(map(str, k)): v for k, v in costs.items()}))
    _check(elapsed < 120.0, detail)
    return detail


@_criterion("psl2z")
def criterion_psl2z(level="full"):
    rng = random.Random(12009)
    n_samples = 500 if level == "full" else 100
    gens = [IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, -1), (0, 1))),
            IntMatrix(((1, 0), (1, 1))), IntMatrix(((1, 0), (-1, 1)))]
    for _ in range(n_samples):
        a = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 40)):
            a = a @ rng.choice(gens)
        _check(reconstruct(decompose(a)).data == a.data,
               "roundtrip failed on %r" % (a.data,))
    for i in range(1, 11):
        w = decompose(family_matrix(i))
        for j in range(1, 11):
            _check(cyclically_reduced_length(word_power(w, j)) == j * (2 * i + 2),
                   "family length off at i=%d j=%d" % (i, j))
    return "%d roundtrips; family lengths j(2i+2) for i,j <= 10" % n_samples


@_criterion("bounds_consistency")
def criterion_bounds_consistency(level="full"):
    """Lower bounds stay below the empirical upper-bound slope; certified
    unit-circle spectra give exactly zero."""
    rng = random.Random(12010)
    a0 = IntMatrix(((2, 1), (1, 1)))
    exp = fv_upper_experiment(a0, 6 if level == "full" else 3)
    log2_rho0 = math.log2(analyze(a0).rho)
    k_hat = max(cost / j / log2_rho0 for j, cost, _, _ in exp.rows)
    rows = []
    while len(rows) < (12 if level == "full" else 4):
        a = random_sl2_word(rng, max_len=14, cap=10 ** 3)
        s = analyze(a)
        if s.unit_root_flag or s.rho <= 1.0:
            continue
        lower = fv_lower_bound(a)
        upper_proxy = 2 * k_hat * math.log2(s.rho) + 64.0
        _check(lower <= upper_proxy, "lower %.3f above proxy %.3f for %r"
               % (lower, upper_proxy, a.data))
        rows.append((lower, upper_proxy))
    for mat in (IntMatrix.identity(2), IntMatrix(((0, -1), (1, 0))),
                IntMatrix(((0, -1), (1, -1)))):
        _check(fv_lower_bound(mat) == 0.0,
               "unit-circle spectrum must give exactly 0")
    return ("K_hat=%.1f; %d Anosov rows consistent (max lower %.3f, "
            "min upper-proxy margin %.1f); unit-circle rows exactly 0"
            % (k_hat, len(rows), max(l for l, _ in rows),
               min(u - l for l, u in rows)))


def run_all(level="quick"):
    """All criteria in order; returns a list of SuiteResult."""
    data = []
    return [criterion_reduction_exactness(data, level),
            criterion_cost_scaling(data, level),
            criterion_s1_invariants(level),
            criterion_torsion_growth(level),
            criterion_degree_oracle(level),
            criterion_chain_invariants(level),
            criterion_spectral(level),
            criterion_base_bootstrap(level),
            criterion_psl2z(level),
            criterion_bounds_consistency(level)]
