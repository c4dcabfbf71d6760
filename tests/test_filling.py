"""Filling engine: solver, base table, moves, and the reduction pipeline."""

import io
import math
import random

import pytest

from torfill.chains import (TorusChain, boundary, linear_map,
                            parallelogram_class, parallelogram_cycle,
                            pushforward)
from torfill.errors import (Unfillable, UnsupportedDimension,
                            VerificationFailure)
from torfill.exactlinalg import IntMatrix, det_exact
from torfill.filling import (BASE_KEYS, FillingCertificate, base_certificate,
                             fill_by_solve, fv_upper_experiment, rect_to_unit,
                             reduce_parallelogram, s1_moves, s1_piece, slide,
                             universal_cycle, verify_certificate)
from torfill.filling.base import (TABLE_DIR, _key_filename, base_costs,
                                  default_cache, universal_presentation)
from torfill.filling.certificate import (Chunk, MoveRecord, Piece, _lift,
                                        _shape, class_sum, lifted_presentation,
                                        presentation_chain)
from torfill.filling.moves import (chunk_piece, halving_moves, move_split,
                                  move_zero_gen)
from torfill.filling.reduce import _column_walk, _shear
from torfill.formats import write_certificate

E1, E2 = (1, 0), (0, 1)


def _rect_gens(sizes):
    """a_1 e_1, ..., a_n e_n, the generators of the rectangle R(sizes)."""
    n = len(sizes)
    return tuple(tuple(a if i == j else 0 for j in range(n))
                 for i, a in enumerate(sizes))


def rectangle_cycle(sizes):
    """Q(a_1 e_1, ..., a_n e_n), the diagonal parallelogram cycle."""
    return parallelogram_cycle(_rect_gens(sizes))


def _rects(*signed):
    """The claim sum_i eps_i R(sizes_i) over (eps_i, sizes_i) pairs."""
    return [(eps, _rect_gens(sizes)) for eps, sizes in signed]


# --- solver -------------------------------------------------------------------

def test_fill_by_solve_zero_cycle():
    cert = fill_by_solve(TorusChain.zero(2, 1))
    assert cert.cost == 0 and cert.witness.is_zero()


def test_fill_by_solve_zero_generator_cycle():
    z = parallelogram_cycle([(1,), (0,)])  # degenerate 2-cycle on the circle
    cert = fill_by_solve(z)
    ok, _ = verify_certificate(cert)
    assert ok and cert.cost >= 1


def test_fill_by_solve_swap_cycle_is_trivial():
    z = parallelogram_cycle([E1, E2]) + parallelogram_cycle([E2, E1])
    assert z.is_zero()
    cert = fill_by_solve(z)
    assert cert.cost == 0


def test_fill_by_solve_requires_cycle():
    from torfill.chains import simplex_chain
    with pytest.raises(Unfillable):
        fill_by_solve(simplex_chain([(0, 0), (1, 0), (1, 1)]))


def test_fill_by_solve_rejects_fundamental_class():
    z = parallelogram_cycle([E1, E2])  # class 1: not null-homologous
    with pytest.raises(Unfillable):
        fill_by_solve(z, box=1, max_expand=2)


def test_solve_sparse_sends_rows_without_unit_entries_to_the_dense_core():
    from torfill.filling.solver import _solve_sparse
    assert _solve_sparse([{0: 2}], {0: 4}) == {0: 2}
    assert _solve_sparse([{0: 2}], {0: 3}) is None
    # row 0 has a unit pivot; after it row 1 reads 2*x1 = -2
    assert _solve_sparse([{0: 1, 1: 2}, {1: 2}], {0: 3, 1: 4}) == {0: 3, 1: -1}


# --- base table ---------------------------------------------------------------

def test_base_table_bootstraps_and_verifies(tmp_path):
    from torfill.formats import save_certificate
    names = {_key_filename(key) for key in BASE_KEYS}
    assert {p.name for p in TABLE_DIR.iterdir()} == names
    costs = default_cache().bootstrap_all()
    assert set(costs) == set(BASE_KEYS)
    for key in BASE_KEYS:
        cert = base_certificate(key)
        ok, diag = verify_certificate(cert)
        assert ok, (key, diag)
        assert cert.target == universal_cycle(key)
        # the shipped file is exactly what saving the certificate writes
        again = tmp_path / _key_filename(key)
        save_certificate(again, cert)
        assert again.read_bytes() == (TABLE_DIR / _key_filename(key)).read_bytes()
    assert all(cost > 0 for cost in costs.values())  # no cycle is zero


# in BASE_KEYS order: the first certificates the bootstrap solver found, and
# the minimum-cost table that replaced them
_FIRST_SOLVE_COSTS = (22, 2, 34, 1, 3, 4, 11)
_SHIPPED_COSTS = (3, 1, 4, 1, 2, 3, 5)


def test_base_costs_pinned():
    # a regenerated table may lower a cost, never raise one silently
    costs = tuple(base_costs()[key] for key in BASE_KEYS)
    assert costs == _SHIPPED_COSTS
    assert all(new <= old for new, old in zip(costs, _FIRST_SOLVE_COSTS))


def _reference_universal_cycle(key):
    """The universal cycles as explicit parallelogram sums, independent of
    the presentation table."""
    q = lambda *gens: parallelogram_cycle(gens)  # noqa: E731
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    kind = key[0]
    if key == ("SPLIT", 2):
        return q(e1, (0, 1, 1)) - q(e1, e2) - q(e1, e3)
    if key == ("ZERO", 1):
        return q((1,), (0,))
    if key == ("ZERO", 2):
        return q(E1, E2, (0, 0))
    if kind == "DEHN":
        return q(E1, E2) - q(E1, (-key[1], 1))
    assert key == ("DOUBLE_HALVE",)
    return q(E1, (0, 2)) - q((2, 0), E2)


def test_universal_cycle_matches_reference():
    for key in BASE_KEYS:
        assert universal_cycle(key) == _reference_universal_cycle(key), key


def test_chunk_cycles_present_chunk_boundary():
    # a chunk's witness terms fill coeff times its key's lifted universal
    # presentation pushed along its columns, for every key, one prism lift
    # or none, and any integer columns
    rng = random.Random(15)
    for key in BASE_KEYS:
        m, k = _shape(key)
        for d in (0, 1):
            for coeff in (1, -1, 2, -2):
                n = m + d
                columns = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                                for _ in range(m + d))
                chunk = Chunk(key, columns, coeff)
                witness = TorusChain(n, k + d + 1, chunk.terms)
                image = linear_map(columns)
                cycles = [(coeff * c, tuple(map(image, gens)))
                          for c, gens in lifted_presentation(key, d)]
                assert (presentation_chain(n, k + d, cycles)
                        == boundary(witness)), (key, d, columns, coeff)


def test_universal_cycles_have_zero_class():
    for key in BASE_KEYS:
        z = universal_cycle(key)
        assert boundary(z).is_zero()
    split = universal_cycle(("SPLIT", 2))
    cls = class_sum(3, 2, [(1, ((1, 0, 0), (0, 1, 1))),
                           (-1, ((1, 0, 0), (0, 1, 0))),
                           (-1, ((1, 0, 0), (0, 0, 1)))])
    assert cls == (0, 0, 0)
    assert not split.is_zero()


# --- verify_certificate ---------------------------------------------------------

def test_verify_catches_perturbations():
    cert = base_certificate(("DOUBLE_HALVE",))
    ok, _ = verify_certificate(cert)
    assert ok
    simplex, coeff = next(iter(cert.witness.terms.items()))
    bad_terms = dict(cert.witness.terms)
    bad_terms[simplex] = coeff + 1
    bad = FillingCertificate(cert.target,
                             TorusChain(2, 3, bad_terms), cert.cost + 1)
    ok, diag = verify_certificate(bad)
    assert not ok and any("boundary" in d for d in diag)
    inflated = FillingCertificate(cert.target, cert.witness, cert.cost + 1)
    ok, diag = verify_certificate(inflated)
    assert not ok and any("cost" in d for d in diag)


def test_verify_checks_trace_costs():
    cert = reduce_parallelogram(IntMatrix(((2, 1), (1, 1)))).certificate
    assert cert.trace and verify_certificate(cert) == (True, [])
    first = cert.trace[0]
    bad = FillingCertificate(cert.target, cert.witness, cert.cost,
                             (first._replace(cost=first.cost + 5),)
                             + cert.trace[1:])
    assert verify_certificate(bad) == (False, [
        "trace costs sum to %d, cost field %d" % (cert.cost + 5, cert.cost)])


def test_piece_certificate_checks_the_claim():
    claim = [(1, ((5,), (3,)))]
    piece, _ = s1_piece(5, 3)
    assert piece.certificate(claim).target == parallelogram_cycle([(5,), (3,)])
    # the schedule without its second move fills some other cycle
    dropped = Piece(piece.ambient_dim, piece.degree,
                    piece.chunks[:1] + piece.chunks[2:])
    with pytest.raises(VerificationFailure, match="boundary mismatch"):
        dropped.certificate(claim)
    with pytest.raises(VerificationFailure, match="boundary mismatch"):
        piece.certificate([(1, ((5,), (4,)))])


def _diagnostics_of(piece, claim):
    """The diagnostics of the full check: verify_certificate of a piece's
    assembled witness against the target of claim, then the claim's class
    sum when it is nonzero.  Piece.certificate must report exactly these."""
    n, k = piece.ambient_dim, piece.degree
    witness, records = piece.assemble()
    target = presentation_chain(n, k, claim)
    cert = FillingCertificate.build(target, witness, records)
    cls = class_sum(n, k, claim)
    return verify_certificate(cert)[1] + (
        ["presentation class sum nonzero: %r" % (cls,)] if any(cls) else [])


def test_piece_certificate_refuses_a_wrong_claim_with_full_diagnostics():
    a = IntMatrix(((2, 1), (1, 1)))
    gens = tuple(a.column(j) for j in range(2))
    piece = _column_walk(gens, 1)
    right = [(1, gens), (-1, ((1, 0), (0, 1)))]
    assert piece.certificate(right).target == presentation_chain(2, 2, right)
    dropped = Piece(2, 2, piece.chunks[1:])
    for wrong, bad in ((right, dropped),            # boundary mismatch
                       ([(1, gens)], piece),        # nonzero class sum too
                       ([(1, gens), (1, gens)], piece)):
        want = _diagnostics_of(bad, wrong)
        assert want and want[0].startswith("boundary mismatch on ")
        with pytest.raises(VerificationFailure) as info:
            bad.certificate(wrong)
        assert str(info.value) == "; ".join(want)
    assert _diagnostics_of(piece, [(1, gens)])[-1] == (
        "presentation class sum nonzero: (1,)")
    assert _diagnostics_of(piece, [(1, gens), (1, gens)])[-1] == (
        "presentation class sum nonzero: (2,)")


def _certificate_bytes(rows):
    buf = io.StringIO()
    write_certificate(buf, reduce_parallelogram(IntMatrix(rows)).certificate)
    return buf.getvalue()


def test_memoised_shears_give_the_same_certificates():
    # shear quotients +-q recur across these words, and within each
    words = [((1, 20), (0, 1)), ((1, 0), (20, 1)), ((1, -20), (0, 1)),
             ((21, 20), (1, 1)), ((1, 3), (3, 10)), ((10, 3), (3, 1)),
             ((1, 3, 0), (0, 1, 3), (3, 0, 10))]
    fresh = []
    for rows in words:
        _shear.cache_clear()
        fresh.append(_certificate_bytes(rows))
    _shear.cache_clear()
    assert [_certificate_bytes(rows) for rows in words] == fresh
    assert [_certificate_bytes(rows) for rows in words[::-1]] == fresh[::-1]
    assert _shear.cache_info().hits > 0
    # a cached piece is shared, so it cannot be changed in place
    assert isinstance(_shear(20).chunks, tuple)
    assert _shear(20) is _shear(20)


# --- chunks ---------------------------------------------------------------------

@pytest.mark.parametrize("key", BASE_KEYS, ids=[str(k) for k in BASE_KEYS])
def test_chunk_terms_match_pushforward(key):
    # the index-table kernel against pushing the lifted chain forward
    rng = random.Random(str(key))
    m = _lift(key, 0).ambient_dim
    collapsed = 0
    for d in (0, 1, 2):
        chain = _lift(key, d)
        n = m + d
        for trial in range(6):
            out = rng.randint(1, 3)
            if trial % 2 == 0:  # random columns
                cols = [tuple(rng.randint(-9, 9) for _ in range(out))
                        for _ in range(n)]
            else:  # rank <= 1, and 0 at last: simplices collapse and cancel
                u = tuple(rng.randint(-3, 3) if trial < 5 else 0
                          for _ in range(out))
                cols = [tuple(rng.randint(-2, 2) * x for x in u)
                        for _ in range(n)]
            for coeff in (-2, -1, 1, 3):
                terms = Chunk(key, tuple(cols), coeff).terms
                want = {s: coeff * c
                        for s, c in pushforward(cols, chain).terms.items()}
                assert terms == want
                collapsed += len(terms) < len(chain.terms)
    assert collapsed or not _lift(key, 0).terms


# --- moves ----------------------------------------------------------------------

def _q(*gens):
    return parallelogram_cycle(gens)


def _sum_q(claim):
    """sum_i c_i Q(gens_i) over a claim whose coefficients are +-1, built
    with parallelogram_cycle alone."""
    total = parallelogram_cycle(claim[0][1])
    for coeff, gens in claim[1:]:
        q = parallelogram_cycle(gens)
        total = total + q if coeff == 1 else total - q
    return total


def test_move_certificates_verify():
    moves = [
        (move_split(((2, 1), (5, 3)), 1, (2, 2), (3, 1)),
         [(1, ((2, 1), (5, 3))), (-1, ((2, 1), (2, 2))),
          (-1, ((2, 1), (3, 1)))]),
        (move_split(((2, 1), (5, 3)), 0, (1, 1), (1, 0)),
         [(1, ((2, 1), (5, 3))), (-1, ((1, 1), (5, 3))),
          (-1, ((1, 0), (5, 3)))]),
        (move_split(((1, 0, 0), (0, 2, 1), (3, 1, 1)), 0, (1, 1, 0), (0, -1, 0)),
         [(1, ((1, 0, 0), (0, 2, 1), (3, 1, 1))),
          (-1, ((1, 1, 0), (0, 2, 1), (3, 1, 1))),
          (-1, ((0, -1, 0), (0, 2, 1), (3, 1, 1)))]),
        (move_zero_gen(((4, 1), (0, 0))), [(1, ((4, 1), (0, 0)))]),
        (move_zero_gen(((0, 0, 0), (1, 2, 0), (0, 1, 1))),
         [(1, ((0, 0, 0), (1, 2, 0), (0, 1, 1)))]),
        (Piece.move(("DEHN", 2), [(3,), (7,)]),
         [(1, ((3,), (7,))), (-1, ((3,), (1,)))]),
        (Piece.move(("DOUBLE_HALVE",), [(5,), (4,)]),
         [(1, ((5,), (8,))), (-1, ((10,), (4,)))]),
    ]
    for piece, claim in moves:
        cert = piece.certificate(claim)
        ok, diag = verify_certificate(cert)
        assert ok, diag
        assert cert.target == _sum_q(claim)


_MOVE_KINDS = {"SPLIT": "SPLIT", "ZERO": "ZERO_GEN", "DEHN": "DEHN",
               "DOUBLE_HALVE": "DOUBLE_HALVE"}


@pytest.mark.parametrize("key", BASE_KEYS, ids=[str(k) for k in BASE_KEYS])
def test_piece_move_records_the_kind_of_its_key(key):
    # the base key alone names the move: its one record, at the base cost
    m, _ = _shape(key)
    columns = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    cert = Piece.move(key, columns).certificate(universal_presentation(key))
    assert cert.trace == (MoveRecord(_MOVE_KINDS[key[0]],
                                     base_certificate(key).cost),)


def test_pushforward_never_raises_cost():
    base = base_certificate(("SPLIT", 2))
    rng = random.Random(7)
    for _ in range(20):
        cols = [tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(3)]
        pushed = FillingCertificate.build(pushforward(cols, base.target),
                                          pushforward(cols, base.witness))
        ok, _ = verify_certificate(pushed)
        assert ok
        assert pushed.cost <= base.cost


def test_single_moves_and_prism_lift():
    # rearrangement is free: a transposition negates the cycle exactly
    assert (parallelogram_cycle([(2, 1), (1, 1)])
            == -parallelogram_cycle([(1, 1), (2, 1)]))
    assert (parallelogram_cycle([(1, 0, 2), (0, 1, 1), (2, 0, 1)])
            == -parallelogram_cycle([(1, 0, 2), (2, 0, 1), (0, 1, 1)]))
    cert = move_split(((1, 0), (2, 0)), 1, (1, 0), (1, 0)).certificate(
        [(1, ((1, 0), (2, 0))), (-2, ((1, 0), (1, 0)))])
    assert verify_certificate(cert)[0]
    cert = Piece.move(("DEHN", 3), [(2,), (5,)]).certificate(
        [(1, ((2,), (5,))), (-1, ((2,), (-1,)))])
    assert verify_certificate(cert)[0]
    base = Piece.move(("DOUBLE_HALVE",), [(3,), (2,)])
    lifted = base.prism_lift((1,)).certificate([(1, ((3,), (4,), (1,))),
                                                (-1, ((6,), (2,), (1,)))])
    assert verify_certificate(lifted)[0]
    # degree 2 target: factor <= k+2
    assert lifted.cost <= 4 * base.certificate([(1, ((3,), (4,))),
                                                (-1, ((6,), (2,)))]).cost


def test_split_move_matches_spec_example():
    # splitting (2,0) = (1,0)+(1,0) against partner (0,1)
    piece = move_split(((2, 0), (0, 1)), 0, (1, 0), (1, 0))
    unit = parallelogram_cycle([(1, 0), (0, 1)])
    want = parallelogram_cycle([(2, 0), (0, 1)]) - unit - unit
    cert = piece.certificate([(1, ((2, 0), (0, 1))), (-2, ((1, 0), (0, 1)))])
    assert cert.target == want
    assert verify_certificate(cert)[0]


# --- s1 -------------------------------------------------------------------------

def test_s1_trace_examples():
    _, tr = s1_moves(1, 12)
    assert [(x, y, k) for x, y, k in tr.phase1] == [(1, 12, 0), (2, 6, 3)]
    assert len(tr.phase1) == 2 and len(tr.phase1) <= 1 + math.log2(12) / 2

    _, tr = s1_moves(1, 1)
    assert [(x, y, k) for x, y, k in tr.phase1] == [(1, 1, 1)]
    assert len(tr.phase1) == 1

    _, tr = s1_moves(5, 3)
    assert tr.phase2 == (5, 2, 1)
    halved = tr.phase2[:-1]  # a_0, .., a_(N-1): N = 2 halving steps
    assert [i for i, x in enumerate(halved) if x % 2] == [0]
    assert [i for i, x in enumerate(halved) if x % 2 == 0] == [1]
    assert tr.total == 15 == 3 * (2 ** 2 + 2 ** 0)


def test_s1_moves_pinned():
    # the circle schedule as chunk data: halving_moves, then phase 1
    assert s1_moves(5, 3)[0] == [
        (-1, ("SPLIT", 2), ((3,), (4,), (1,))),
        (-1, ("DOUBLE_HALVE",), ((2,), (3,))),
        (-1, ("DOUBLE_HALVE",), ((1,), (6,))),
        (-1, ("SPLIT", 2), ((1,), (12,), (3,))),
        (1, ("DEHN", 3), ((1,), (15,))),
        (1, ("DOUBLE_HALVE",), ((1,), (6,))),
        (1, ("DEHN", 3), ((2,), (6,))),
        (1, ("DOUBLE_HALVE",), ((2,), (0,))),
        (1, ("ZERO", 1), ((4,),))]
    assert s1_moves(12, 7)[0] == [
        (-1, ("DOUBLE_HALVE",), ((6,), (7,))),
        (-1, ("DOUBLE_HALVE",), ((3,), (14,))),
        (-1, ("SPLIT", 2), ((28,), (2,), (1,))),
        (-1, ("DOUBLE_HALVE",), ((1,), (28,))),
        (-1, ("SPLIT", 2), ((1,), (56,), (28,))),
        (1, ("DOUBLE_HALVE",), ((1,), (42,))),
        (1, ("DEHN", 1), ((2,), (42,))),
        (1, ("DOUBLE_HALVE",), ((2,), (20,))),
        (1, ("DEHN", 1), ((4,), (20,))),
        (1, ("DOUBLE_HALVE",), ((4,), (8,))),
        (1, ("DEHN", 1), ((8,), (8,))),
        (1, ("DOUBLE_HALVE",), ((8,), (0,))),
        (1, ("ZERO", 1), ((16,),))]


def test_halving_moves_fill_their_claim():
    rng = random.Random(49)
    for n in (1, 2, 3):
        for _ in range(12):
            u, w = ([0] * n, [0] * n)
            while not any(u) or not any(w):
                u = [rng.randint(-4, 4) for _ in range(n)]
                w = [rng.randint(-4, 4) for _ in range(n)]
            a = rng.randint(1, 200)
            moves, multipliers, last = halving_moves(u, w, a)
            assert multipliers[0] == a and multipliers[-1] == 1
            assert last == tuple(a * x for x in w)
            claim = [(1, (tuple(a * x for x in u), tuple(w))),
                     (-1, (tuple(u), last))]
            cert = chunk_piece(n, 2, moves).certificate(claim)
            assert verify_certificate(cert)[0], (u, w, a)


def test_s1_certificates_and_move_counts():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(25):
        a = rng.randint(1, 200)
        l = rng.randint(1, 200)
        piece, tr = s1_piece(a, l)
        cert = piece.certificate([(1, ((a,), (l,)))])
        ok, diag = verify_certificate(cert)
        assert ok, diag
        assert cert.target == parallelogram_cycle([(a,), (l,)])
        worst = max(worst, len(s1_moves(a, l)[0]) / (math.log2(a * l) + 1))
    assert worst <= 8.0


# --- slide ----------------------------------------------------------------------

def test_slide_examples():
    # u0 = e1, m = 4, w = 4*e2
    piece = slide(E1, 4, (0, 4))
    want = (parallelogram_cycle([(1, 0), (4, 4)])
            - parallelogram_cycle([(1, 0), (0, 4)]))
    cert = piece.certificate([(1, ((1, 0), (4, 4))), (-1, ((1, 0), (0, 4)))])
    assert cert.target == want
    assert verify_certificate(cert)[0]

    # u0 = e1, m = 3, w = (-3, -1)
    piece = slide(E1, 3, (-3, -1))
    cert = piece.certificate([(1, ((1, 0), (0, -1))),
                              (-1, ((1, 0), (-3, -1)))])
    assert verify_certificate(cert)[0]
    assert cert.target == _q((1, 0), (0, -1)) - _q((1, 0), (-3, -1))


# --- rectangles ------------------------------------------------------------------

def test_rect_to_unit_examples():
    def certificate(sizes, unit):
        cert = rect_to_unit(sizes).certificate(_rects((1, sizes), (-1, unit)))
        assert cert.target == rectangle_cycle(sizes) - rectangle_cycle(unit)
        assert verify_certificate(cert)[0]
        return cert

    certificate((2, 3), (6, 1))
    assert certificate((1, 1), (1, 1)).cost == 0
    assert certificate((7, 1), (7, 1)).cost == 0
    certificate((-3, 2), (-6, 1))
    certificate((2, 3, 2), (12, 1, 1))
    # the inner step of (2, 3, 2); with the check above it pins the first
    # phase: R(2, 3, 2) - R(4, 3, 1)
    certificate((4, 3), (12, 1))
    for a in range(-12, 13):
        for b in range(1, 65):
            if a:
                certificate((a, b), (a * b, 1))
    for sizes in [(1, 1, 2), (-3, 5, 7), (5, 2, 9), (-1, 6, 1), (7, 3, 16)]:
        certificate(sizes, (math.prod(sizes), 1, 1))
    # the halving schedule against the four-slide one it replaced
    for sizes, cost, before in [((1, 2), 5, 36), ((1, 92), 48, 119),
                                ((1, 1, 2), 20, 144), ((2, 2, 23), 172, 1312)]:
        unit = (math.prod(sizes),) + (1,) * (len(sizes) - 1)
        assert certificate(sizes, unit).cost == cost < before, sizes
    rep = reduce_parallelogram(IntMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1))))
    assert rep.certificate.cost == 76 < 200
    # every size after the first must be >= 1
    with pytest.raises(VerificationFailure, match=r"\(2, -3\)"):
        rect_to_unit((2, -3))


# --- the full reduction ------------------------------------------------------------

def test_reduce_identity():
    rep = reduce_parallelogram(IntMatrix.identity(2))
    assert rep.certificate.cost == 0 and rep.det == 1
    ok, _ = verify_certificate(rep.certificate)
    assert ok


def test_reduce_anosov_and_dehn():
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    assert rep.det == 1
    assert rep.certificate.target == (
        parallelogram_cycle([(2, 1), (1, 1)]) - rectangle_cycle((1, 1)))
    assert verify_certificate(rep.certificate)[0]
    assert rep.certificate.cost == sum(r.cost for r in rep.certificate.trace)

    rep = reduce_parallelogram(IntMatrix(((1, 1), (0, 1))))
    assert rep.certificate.cost <= 60  # Dehn twist reduces at bounded cost


def test_reduce_non_unit_determinant():
    a = IntMatrix(((2, 0), (0, 3)))
    rep = reduce_parallelogram(a)
    assert rep.det == 6
    assert rep.certificate.target == (
        parallelogram_cycle([(2, 0), (0, 3)]) - rectangle_cycle((6, 1)))

    flip = IntMatrix(((0, 1), (1, 0)))
    rep = reduce_parallelogram(flip)
    assert rep.det == -1
    assert verify_certificate(rep.certificate)[0]


def test_reduce_dimension_three():
    a = IntMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    rep = reduce_parallelogram(a)
    assert rep.det == 2
    assert verify_certificate(rep.certificate)[0]
    assert rep.certificate.cost == sum(r.cost for r in rep.certificate.trace)
    with pytest.raises(UnsupportedDimension):
        reduce_parallelogram(IntMatrix.identity(4))


def test_round_div_sign_table():
    from torfill.filling.reduce import _round_div
    for a, b, want in [(23, 13, 2), (-23, 13, -2), (23, -13, -2), (-23, -13, 2),
                       (5, 13, 0), (-5, 13, 0), (5, -13, 0), (-5, -13, 0),
                       (26, 13, 2), (-26, -13, 2), (7, 2, 3), (-7, -2, 3)]:
        assert _round_div(a, b) == want, (a, b)


def test_reduce_dimension_three_negative_relation():
    # negative det: the sign lands on the first pivot
    a = IntMatrix(((3, -1, -5), (5, 3, -4), (-1, 0, 1)))
    rep = reduce_parallelogram(a)
    assert rep.det == -5
    assert verify_certificate(rep.certificate)[0]
    assert rep.certificate.cost == sum(r.cost for r in rep.certificate.trace)


def test_tracer_assemble_measure_reads_real_pieces(monkeypatch):
    # perfbench's span for Piece.assemble reads `piece.chunks` as
    # (kind, chunk) pairs whose chunk has .terms; a layout change that
    # breaks traced benchmark runs must fail here
    import importlib.util
    from pathlib import Path
    from torfill.filling.certificate import Piece
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _, measure = tracing.SPANS[("torfill.filling.certificate",
                                "Piece.assemble")]
    assemble, calls = Piece.assemble, []

    def recording(self):
        result = assemble(self)
        calls.append((self, result))
        return result

    monkeypatch.setattr(Piece, "assemble", recording)
    rep = reduce_parallelogram(IntMatrix(((5, 3), (3, 2))))
    (piece, result), = calls
    chunk_simplices, witness_simplices = measure((piece,), result)
    assert witness_simplices == len(rep.certificate.witness.terms) > 0
    assert chunk_simplices == sum(len(chunk.terms)
                                  for _, chunk in piece.chunks) > 0


def test_traced_benchmark_run_completes(tmp_path):
    # a --trace 1 run of reduce-sl2 reads Chunk.terms and Piece.chunks in
    # its assemble span; it runs here on this checkout's sources
    import json
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    for name in ("src", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(root / name)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         "reduce-sl2", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and not result["failed"]
    metrics = result["metrics"]
    assert metrics["filling.certificate.assemble.chunk_simplices"]["value"] > 0
    assert (metrics["filling.certificate.assemble.witness_simplices"]["value"]
            > 0)


def test_fv_upper_experiment_identity_and_anosov():
    exp = fv_upper_experiment(IntMatrix.identity(2), 4)
    assert all(cost == 0 for _, cost, _, _ in exp.rows)

    exp = fv_upper_experiment(IntMatrix(((2, 1), (1, 1))), 5)
    assert len(exp.rows) == 5
    assert exp.k_hat > 0

    with pytest.raises(UnsupportedDimension):
        fv_upper_experiment(IntMatrix(((2, 0), (0, 3))), 2)


def test_fv_upper_dehn_twist_bounded():
    exp = fv_upper_experiment(IntMatrix(((1, 1), (0, 1))), 8)
    per_j = [cost / j for j, cost, _, _ in exp.rows]
    assert max(per_j) <= 12 * max(per_j[0], 1.0)


def test_reduce_random_sl2_exactness():
    rng = random.Random(19)
    gens = [IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, -1), (0, 1))),
            IntMatrix(((1, 0), (1, 1))), IntMatrix(((1, 0), (-1, 1)))]
    for _ in range(15):
        a = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 14)):
            a = a @ rng.choice(gens)
        rep = reduce_parallelogram(a)
        assert rep.det == 1
        assert verify_certificate(rep.certificate)[0]
        assert (rep.certificate.cost
                == sum(r.cost for r in rep.certificate.trace))


def _det2(a):
    (p, q), (r, t) = a.data
    return p * t - q * r


def _walk_claim(a):
    """Q(columns of A) - R(det A, 1, .., 1)."""
    n = a.rows
    return [(1, tuple(a.column(j) for j in range(n))),
            (-1, _rect_gens((det_exact(a),) + (1,) * (n - 1)))]


def _unimodular(rng, digits):
    """A random 2x2 integer matrix with det +-1 and norm about 10^digits:
    a product of elementary shears, its second column negated at random."""
    p, q, r, t = 1, 0, 0, 1
    while max(map(abs, (p, q, r, t))) < 10 ** digits:
        k = rng.randint(-30, 30)
        if rng.random() < 0.5:
            q, t = q + k * p, t + k * r
        else:
            p, r = p + k * q, r + k * t
    sign = rng.choice([1, -1])
    return IntMatrix(((p, sign * q), (r, sign * t)))


def test_column_walk_random_unimodular():
    rng = random.Random(23)
    mats = [_unimodular(rng, 1 + i % 9) for i in range(40)]
    mats += [IntMatrix(m) for m in (((0, 1), (-1, 7)), ((5, -1), (1, 0)),
                                    ((1, 0), (-9, -1)), ((0, -1), (1, 0)))]
    assert {_det2(a) for a in mats} == {1, -1}
    for a in mats:
        rep = reduce_parallelogram(a)
        claim = _walk_claim(a)
        assert rep.det == _det2(a)
        assert rep.certificate.target == _sum_q(claim)
        assert verify_certificate(rep.certificate)[0]
        assert not any(class_sum(a.rows, a.rows, claim))


def test_column_walk_edge_costs():
    costs = {((1, 0), (0, 1)): 0, ((-1, 0), (0, -1)): 6,
             ((0, -1), (1, 0)): 3, ((0, 1), (-1, 0)): 3,
             ((0, 1), (1, 0)): 3, ((1, 0), (0, -1)): 6,
             ((1, 10 ** 6), (0, 1)): 54}
    for rows, cost in costs.items():
        a = IntMatrix(rows)
        rep = reduce_parallelogram(a)
        assert rep.certificate.cost == cost, rows
        assert rep.certificate.target == _sum_q(_walk_claim(a))


def test_column_walk_large_quotient_slides():
    # a shear by 10^6 is one slide; DEHN chunks would cost 10^6
    rep = reduce_parallelogram(IntMatrix(((1, 0), (10 ** 6, 1))))
    kinds = [r.kind for r in rep.certificate.trace]
    assert kinds.count("SLIDE") == 1 and kinds[0] == "SPLIT"
    assert rep.certificate.cost == 54


def test_shear_takes_the_cheaper_realized_option():
    from torfill.filling.reduce import _dehn_shear, _shear, _slide_shear

    def cost(piece):
        return sum(map(abs, piece.assemble()[0].terms.values()))

    for q in range(1, 41):
        dehn, slide = _dehn_shear(q), _slide_shear(q)
        want = min(cost(dehn), cost(slide))
        assert cost(_shear(q)) == want and cost(_shear(-q)) == want, q
        assert all(ch.source[0] == "DEHN" for _, ch in dehn.chunks)
    # at q = 20 the slide's chunks add to more than 20, yet it realizes 17
    assert cost(_shear(20)) == 17
    assert [kind for kind, _ in _shear(16).chunks] == ["DEHN"] * 6


# the rectangle pipeline's costs for the same matrices, measured before the
# one walk replaced it
_RECTANGLE_COSTS = (1969, 1092, 575, 1994, 1232, 1329,
                    15, 42, 18, 18, 17, 29, 18, 38, 18, 32)


def test_column_walk_costs_no_more_than_rectangles():
    from torfill.selftest import random_sl2_word
    rng = random.Random(12001)
    mats = [random_sl2_word(rng) for _ in range(6)]
    mats += [IntMatrix(m) for q in (14, 16, 20, 23, -20)
             for m in (((1, q), (0, 1)), ((1, 0), (q, 1)))]
    assert len(mats) == len(_RECTANGLE_COSTS)
    for a, rects in zip(mats, _RECTANGLE_COSTS):
        assert reduce_parallelogram(a).certificate.cost <= rects, a


def test_column_walk_chunks_are_dehn_outside_slides():
    from torfill.filling.reduce import _column_walk
    from torfill.selftest import random_sl2_word
    rng = random.Random(12001)
    mats = [random_sl2_word(rng) for _ in range(20)]
    mats += [IntMatrix(((1, 0), (20, 1))), IntMatrix(((-1, 0), (0, -1)))]
    slides = 0
    for a in mats:
        (p, q), (r, t) = a.data
        piece = _column_walk(((p, r), (q, t)), _det2(a))
        in_slide = False
        for kind, chunk in piece.chunks:
            if in_slide:
                in_slide = kind != "SLIDE"
            elif kind == "SPLIT":  # a slide opens with its split
                in_slide, slides = True, slides + 1
            else:
                assert kind == "DEHN" and chunk.source[0] == "DEHN", a
                assert 1 <= chunk.source[1] <= 3 and abs(chunk.coeff) == 1
        assert not in_slide
    assert slides >= 1


def test_column_walk_uses_every_base_key():
    # the table ships only keys that reductions reach
    from torfill.filling.reduce import _column_walk
    used = set()
    for rows in (((2, 0), (0, 3)), ((2, 1), (1, 1)), ((1, 10 ** 6), (0, 1)),
                 ((7, 3), (2, 1)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))):
        a = IntMatrix(rows)
        gens = tuple(a.column(j) for j in range(a.cols))
        piece = _column_walk(gens, det_exact(a))
        used |= {chunk.source for _, chunk in piece.chunks if chunk.coeff}
    assert used == set(BASE_KEYS)


def test_circle_schedule_needs_positive_input():
    with pytest.raises(VerificationFailure):
        s1_moves(0, 3)
    with pytest.raises(VerificationFailure):
        s1_moves(2, -1)
    with pytest.raises(VerificationFailure):
        slide(E1, 0, (0, 1))


def _gl3_product(rng, length):
    """A product of elementary 3x3 shears and sign flips: det +-1."""
    a = IntMatrix.identity(3)
    for _ in range(length):
        rows = [list(r) for r in IntMatrix.identity(3).data]
        i, j = rng.sample(range(3), 2)
        if rng.random() < 0.2:
            rows[i][i] = -1
        else:
            rows[i][j] = rng.choice([-3, -2, -1, 1, 2, 3])
        a = a @ IntMatrix(tuple(map(tuple, rows)))
    return a


def test_column_walk_gl3_products():
    rng = random.Random(29)
    mats = [_gl3_product(rng, rng.randint(1, 12)) for _ in range(30)]
    assert {det_exact(a) for a in mats} == {1, -1}
    for a in mats:
        rep = reduce_parallelogram(a)
        claim = _walk_claim(a)
        assert rep.certificate.target == _sum_q(claim)
        assert verify_certificate(rep.certificate)[0]
        assert not any(class_sum(a.rows, a.rows, claim))
        assert rep.certificate.cost == sum(r.cost
                                           for r in rep.certificate.trace)


@pytest.mark.parametrize("rows", [
    ((0, 0), (0, 0)), ((1, 2), (2, 4)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
], ids=["zero", "rank1", "rank2", "nilpotent"])
def test_column_walk_det_zero(rows):
    a = IntMatrix(rows)
    rep = reduce_parallelogram(a)
    claim = _walk_claim(a)
    assert rep.det == 0
    assert rep.certificate.target == _sum_q(claim)
    assert verify_certificate(rep.certificate)[0]
    assert not any(class_sum(a.rows, a.rows, claim))


@pytest.mark.parametrize("rows", [
    # the square of the companion of x^3 - 3x^2 + x - 1, det 1
    ((0, 1, 3), (0, -1, -2), (1, 3, 8)),
    ((3, -1, -5), (5, 3, -4), (-1, 0, 1)),
], ids=["sl3", "det-5"])
def test_column_walk_dropping_a_shear_chunk_fails(rows):
    from torfill.filling.reduce import _column_walk
    a = IntMatrix(rows)
    gens = tuple(a.column(j) for j in range(3))
    claim = _walk_claim(a)
    piece = _column_walk(gens, det_exact(a))
    piece.certificate(claim)
    shears = [i for i, (kind, _) in enumerate(piece.chunks) if kind == "DEHN"]
    assert shears
    for i in shears:
        dropped = Piece(3, 3, piece.chunks[:i] + piece.chunks[i + 1:])
        with pytest.raises(VerificationFailure):
            dropped.certificate(claim)


def test_candidate_cap():
    from torfill.errors import CandidateSetTooLarge
    from torfill.filling.solver import enumerate_candidates
    with pytest.raises(CandidateSetTooLarge):
        enumerate_candidates(3, 4, 3, True)


def test_candidate_cap_is_checked_before_the_box_is_listed(monkeypatch):
    # (10^6 + 1)^2 points would not fit in memory: the count comes first
    from torfill.errors import CandidateSetTooLarge
    from torfill.filling import solver

    def refuse(*args, **kwargs):
        raise AssertionError("the box was listed before its count")

    monkeypatch.setattr(solver, "product", refuse)
    with pytest.raises(CandidateSetTooLarge, match="box 1000000 would"):
        solver.enumerate_candidates(2, 2, 10 ** 6, False)
