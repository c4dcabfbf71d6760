"""Filling engine: solver, base table, moves, and the reduction pipeline."""

import math
import random

import pytest

from torfill.chains import (TorusChain, boundary, parallelogram_class,
                            parallelogram_cycle, pushforward)
from torfill.errors import NotDependent, Unfillable, UnsupportedDimension
from torfill.exactlinalg import IntMatrix
from torfill.filling import (BASE_KEYS, FillingCertificate, base_certificate,
                             combine_rects, fill_by_solve, fv_upper_experiment,
                             paral_to_rects, rect_to_unit, reduce_parallelogram,
                             s1_moves, s1_piece, slide, slim_piece,
                             universal_cycle, verify_certificate)
from torfill.filling.base import (TABLE_DIR, _key_filename, base_costs,
                                  default_cache)
from torfill.filling.certificate import (Chunk, _lift, _shape, class_sum,
                                        presentation_chain)
from torfill.filling.moves import (move_dehn, move_double_halve, move_negate,
                                   move_split, move_zero_gen)

E1, E2 = (1, 0), (0, 1)


def rectangle_cycle(sizes):
    """Q(a_1 e_1, ..., a_n e_n), the diagonal parallelogram cycle."""
    n = len(sizes)
    return parallelogram_cycle([tuple(a if i == j else 0 for j in range(n))
                                for i, a in enumerate(sizes)])


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
    assert costs[("REARR", 2)] == 0
    assert costs[("REARR", 3)] == 0  # permutations act by sign exactly
    assert costs[("DEHN", 0)] == 0
    assert costs[("NEGATE", 2)] > 0
    assert costs[("SPLIT", 2)] > 0


# in BASE_KEYS order: the first certificates the bootstrap solver found, and
# the minimum-cost table that replaced them
_FIRST_SOLVE_COSTS = (0, 0, 7, 22, 2, 34, 0, 1, 3, 4, 11)
_SHIPPED_COSTS = (0, 0, 3, 3, 1, 4, 0, 1, 2, 3, 5)


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
    if key == ("REARR", 2):
        return TorusChain.zero(2, 2)
    if key == ("REARR", 3):
        return q(e1, e2, e3) + q(e1, e3, e2)
    if key == ("NEGATE", 2):
        return q(E1, E2) + q((-1, 0), E2)
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
    # a chunk's derived cycles sum to the boundary of its own witness terms,
    # for every key, one prism lift or none, and any integer columns
    rng = random.Random(15)
    for key in BASE_KEYS + (None,):
        m, k = _shape(key)
        for d in (0, 1):
            for coeff in (1, -1, 2, -2):
                n = m + d
                columns = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                                for _ in range(m + d))
                chunk = Chunk(key, columns, coeff)
                witness = TorusChain(n, k + d + 1, chunk.terms)
                assert (presentation_chain(n, k + d, chunk.cycles)
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


# --- chunks ---------------------------------------------------------------------

@pytest.mark.parametrize("key", BASE_KEYS + (None,),
                         ids=[str(k) for k in BASE_KEYS + (None,)])
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
                assert terms == pushforward(cols, chain).scale(coeff).terms
                collapsed += len(terms) < len(chain.terms)
    assert collapsed or not _lift(key, 0).terms


# --- moves ----------------------------------------------------------------------

def _q(*gens):
    return parallelogram_cycle(gens)


def test_move_certificates_verify():
    moves = [
        (move_negate(((3, 1), (1, 2)), 0), _q((3, 1), (1, 2)) + _q((-3, -1), (1, 2))),
        (move_negate(((3, 1), (1, 2)), 1), _q((3, 1), (1, 2)) + _q((3, 1), (-1, -2))),
        (move_negate(((1, 0, 2), (0, 1, 1), (2, 0, 1)), 0),
         _q((1, 0, 2), (0, 1, 1), (2, 0, 1)) + _q((-1, 0, -2), (0, 1, 1), (2, 0, 1))),
        (move_negate(((1, 0, 2), (0, 1, 1), (2, 0, 1)), 2),
         _q((1, 0, 2), (0, 1, 1), (2, 0, 1)) + _q((1, 0, 2), (0, 1, 1), (-2, 0, -1))),
        (move_split(((2, 1), (5, 3)), 1, (2, 2), (3, 1)),
         _q((2, 1), (5, 3)) - _q((2, 1), (2, 2)) - _q((2, 1), (3, 1))),
        (move_split(((2, 1), (5, 3)), 0, (1, 1), (1, 0)),
         _q((2, 1), (5, 3)) - _q((1, 1), (5, 3)) - _q((1, 0), (5, 3))),
        (move_split(((1, 0, 0), (0, 2, 1), (3, 1, 1)), 0, (1, 1, 0), (0, -1, 0)),
         _q((1, 0, 0), (0, 2, 1), (3, 1, 1)) - _q((1, 1, 0), (0, 2, 1), (3, 1, 1))
         - _q((0, -1, 0), (0, 2, 1), (3, 1, 1))),
        (move_split(((1, 0, 0), (0, 2, 1), (3, 1, 1)), 2, (1, 1, 0), (2, 0, 1)),
         _q((1, 0, 0), (0, 2, 1), (3, 1, 1)) - _q((1, 0, 0), (0, 2, 1), (1, 1, 0))
         - _q((1, 0, 0), (0, 2, 1), (2, 0, 1))),
        (move_zero_gen(((4, 1), (0, 0))), _q((4, 1), (0, 0))),
        (move_zero_gen(((0, 0, 0), (1, 2, 0), (0, 1, 1))),
         _q((0, 0, 0), (1, 2, 0), (0, 1, 1))),
        (move_zero_gen(((0, 0),)), _q((0, 0))),
        (move_dehn(3, 7, 2), _q((3,), (7,)) - _q((3,), (1,))),
        (move_double_halve(5, 8), _q((5,), (8,)) - _q((10,), (4,))),
    ]
    for piece, want in moves:
        cert = piece.certificate()
        ok, diag = verify_certificate(cert)
        assert ok, diag
        assert cert.target == want


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
    cert = move_split(((1, 0), (2, 0)), 1, (1, 0), (1, 0)).certificate()
    assert verify_certificate(cert)[0]
    cert = move_dehn(2, 5, 3).certificate()
    assert verify_certificate(cert)[0]
    base = move_double_halve(3, 4)
    lifted = base.prism_lift((1,)).certificate()
    assert verify_certificate(lifted)[0]
    # degree 2 target: factor <= k+2
    assert lifted.cost <= 4 * base.certificate().cost


def test_split_move_matches_spec_example():
    # splitting (2,0) = (1,0)+(1,0) against partner (0,1)
    piece = move_split(((2, 0), (0, 1)), 0, (1, 0), (1, 0))
    want = (parallelogram_cycle([(2, 0), (0, 1)])
            - parallelogram_cycle([(1, 0), (0, 1)]).scale(2))
    assert piece.target == want
    assert verify_certificate(piece.certificate())[0]


# --- s1 -------------------------------------------------------------------------

def test_s1_trace_examples():
    _, tr = s1_moves(1, 12)
    assert [(x, y, k) for x, y, k in tr.phase1] == [(1, 12, 0), (2, 6, 3)]
    assert tr.m_steps == 2 and tr.m_steps <= 1 + math.log2(12) / 2

    _, tr = s1_moves(1, 1)
    assert [(x, y, k) for x, y, k in tr.phase1] == [(1, 1, 1)]
    assert tr.m_steps == 1

    _, tr = s1_moves(5, 3)
    assert tr.phase2 == (5, 2, 1)
    assert tr.odd_indices == (0,) and tr.even_indices == (1,)
    assert tr.n_steps == 2 and tr.total == 15 == 5 * 3


def test_s1_certificates_and_move_counts():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(25):
        a = rng.choice([-1, 1]) * rng.randint(1, 200)
        l = rng.choice([-1, 1]) * rng.randint(1, 200)
        piece, tr = s1_piece(a, l)
        cert = piece.certificate()
        ok, diag = verify_certificate(cert)
        assert ok, diag
        assert cert.target == parallelogram_cycle([(a,), (l,)])
        worst = max(worst, tr.move_count / (math.log2(abs(a * l)) + 1))
    assert worst <= 8.0


def test_s1_zero_routes():
    piece, _ = s1_piece(4, 0)
    assert verify_certificate(piece.certificate())[0]
    assert piece.certificate().target == _q((4,), (0,))
    piece, _ = s1_piece(0, 9)
    assert verify_certificate(piece.certificate())[0]
    assert piece.certificate().target == _q((0,), (9,))


# --- slide ----------------------------------------------------------------------

def test_slide_examples():
    # schedule step 1 shape: u0 = e1, d = a1, m = a2, w = a2*e2
    piece = slide(E1, 3, 4, (0, 4))
    want = (parallelogram_cycle([(3, 0), (4, 4)])
            - parallelogram_cycle([(3, 0), (0, 4)]))
    assert piece.target == want
    assert verify_certificate(piece.certificate())[0]

    assert slide(E1, 5, 0, (0, 2)).target.is_zero()

    # schedule step 4 shape: u0 = e1, d = a1*a2, m = 1-a1
    piece = slide(E1, 12, -3, (3, -1))
    cert = piece.certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == _q((12, 0), (0, -1)) - _q((12, 0), (3, -1))


# --- slim -----------------------------------------------------------------------

def test_slim_examples():
    cert = slim_piece(((1, 0), (0, 0))).certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == parallelogram_cycle([(1, 0), (0, 0)])

    cert = slim_piece(((2, 0), (3, 0))).certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == parallelogram_cycle([(2, 0), (3, 0)])

    cert = slim_piece(((2, 1), (1, 1), (3, 2))).certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == parallelogram_cycle([(2, 1), (1, 1), (3, 2)])

    with pytest.raises(NotDependent):
        slim_piece(((1, 0), (0, 1)))


def test_slim_random_dependent():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = n + rng.randint(0, 1) if n < 3 else 3
        while True:
            vecs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)]
            from torfill.filling.reduce import _gens_matrix
            from torfill.exactlinalg import hnf
            if len(hnf(_gens_matrix(tuple(vecs))).pivots) < k:
                break
        cert = slim_piece(tuple(vecs)).certificate()
        assert verify_certificate(cert)[0]
        assert cert.target == parallelogram_cycle(vecs)


# --- rectangles ------------------------------------------------------------------

def _rects_target(gens, rects):
    """Q(gens) - sum_i eps_i R(sizes_i), the target paral_to_rects claims."""
    want = parallelogram_cycle(gens)
    for eps, sizes in rects:
        want = want - rectangle_cycle(sizes).scale(eps)
    return want


def test_paral_to_rects_examples():
    rects, piece = paral_to_rects(((2, 1), (1, 1)))
    assert len(rects) <= 2
    assert all(max(abs(s) for s in sizes) <= 2 for _, sizes in rects)
    cert = piece.certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == _rects_target(((2, 1), (1, 1)), rects)

    rects, piece = paral_to_rects((E1, E2))
    assert rects == [(1, (1, 1))] and piece.certificate().cost == 0

    rects, piece = paral_to_rects(((1, 0), (1, 1)))
    cert = piece.certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == _rects_target(((1, 0), (1, 1)), rects)
    assert (1, (1, 1)) in rects


def test_paral_to_rects_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        vecs = tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                     for _ in range(n))
        rects, piece = paral_to_rects(vecs)
        cert = piece.certificate()
        assert verify_certificate(cert)[0]
        assert cert.target == _rects_target(vecs, rects)
        bound = max(max(abs(x) for x in v) for v in vecs)
        factorial = math.factorial(n)
        assert len(rects) <= factorial
        for _, sizes in rects:
            assert max(abs(s) for s in sizes) <= bound
        # class bookkeeping: sum of eps*prod(sizes) = det
        det = parallelogram_class(vecs)[0]
        acc = 0
        for eps, sizes in rects:
            prod = 1
            for s in sizes:
                prod *= s
            acc += eps * prod
        assert acc == det


def test_rect_to_unit_examples():
    cert = rect_to_unit((2, 3)).certificate()
    assert cert.target == rectangle_cycle((2, 3)) - rectangle_cycle((6, 1))
    assert verify_certificate(cert)[0]
    assert rect_to_unit((1, 1)).certificate().cost == 0
    assert rect_to_unit((7, 1)).certificate().cost == 0
    cert = rect_to_unit((2, 0)).certificate()
    assert verify_certificate(cert)[0]
    assert cert.target == rectangle_cycle((2, 0)) - rectangle_cycle((0, 1))
    cert = rect_to_unit((-3, 2)).certificate()
    assert cert.target == rectangle_cycle((-3, 2)) - rectangle_cycle((-6, 1))
    assert verify_certificate(cert)[0]
    cert = rect_to_unit((2, 3, 2)).certificate()
    assert cert.target == rectangle_cycle((2, 3, 2)) - rectangle_cycle((12, 1, 1))
    assert verify_certificate(cert)[0]
    # the inner step of (2, 3, 2); with the check above it pins the first
    # phase: R(2, 3, 2) - R(4, 3, 1)
    cert = rect_to_unit((4, 3)).certificate()
    assert cert.target == rectangle_cycle((4, 3)) - rectangle_cycle((12, 1))
    cert = rect_to_unit((2, 0, 3)).certificate()
    assert cert.target == rectangle_cycle((2, 0, 3)) - rectangle_cycle((0, 1, 1))


def test_combine_rects_examples():
    total, piece = combine_rects([(1, 2), (1, 3)], 2)
    cert = piece.certificate()
    assert total == 5
    assert cert.target == (rectangle_cycle((2, 1)) + rectangle_cycle((3, 1))
                           - rectangle_cycle((5, 1)))
    assert verify_certificate(cert)[0]

    total, piece = combine_rects([(1, 4)], 2)
    assert total == 4 and piece.certificate().cost == 0
    assert piece.target.is_zero()

    total, piece = combine_rects([(1, 2), (-1, 2)], 2)
    cert = piece.certificate()
    assert total == 0
    assert verify_certificate(cert)[0]
    assert cert.target == -rectangle_cycle((0, 1))

    total, piece = combine_rects([(-1, 3), (1, 1)], 3)
    cert = piece.certificate()
    assert total == -2
    assert cert.target == (rectangle_cycle((1, 1, 1)) - rectangle_cycle((3, 1, 1))
                           - rectangle_cycle((-2, 1, 1)))

    total, piece = combine_rects([], 2)
    assert total == 0 and piece.certificate().target == -rectangle_cycle((0, 1))


# --- the full reduction ------------------------------------------------------------

def test_reduce_identity():
    rep = reduce_parallelogram(IntMatrix.identity(2))
    assert rep.cost == 0 and rep.det == 1
    ok, _ = verify_certificate(rep.certificate)
    assert ok


def test_reduce_anosov_and_dehn():
    rep = reduce_parallelogram(IntMatrix(((2, 1), (1, 1))))
    assert rep.det == 1
    assert rep.certificate.target == (
        parallelogram_cycle([(2, 1), (1, 1)]) - rectangle_cycle((1, 1)))
    assert verify_certificate(rep.certificate)[0]
    assert rep.cost == sum(r.cost for r in rep.trace)

    rep = reduce_parallelogram(IntMatrix(((1, 1), (0, 1))))
    assert rep.cost <= 60  # Dehn twist reduces at bounded cost


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
    assert rep.cost == sum(r.cost for r in rep.trace)
    with pytest.raises(UnsupportedDimension):
        reduce_parallelogram(IntMatrix.identity(4))


def test_round_div_sign_table():
    from torfill.filling.reduce import _round_div
    for a, b, want in [(23, 13, 2), (-23, 13, -2), (23, -13, -2), (-23, -13, 2),
                       (5, 13, 0), (-5, 13, 0), (5, -13, 0), (-5, -13, 0),
                       (26, 13, 2), (-26, -13, 2), (7, 2, 3), (-7, -2, 3)]:
        assert _round_div(a, b) == want, (a, b)


def test_reduce_dimension_three_negative_relation():
    # the slim step divides by a negative relation entry here
    a = IntMatrix(((3, -1, -5), (5, 3, -4), (-1, 0, 1)))
    rep = reduce_parallelogram(a)
    assert rep.det == -5
    assert verify_certificate(rep.certificate)[0]
    assert rep.cost == sum(r.cost for r in rep.trace)


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
        assert rep.cost == sum(r.cost for r in rep.trace)


def test_candidate_cap():
    from torfill.errors import CandidateSetTooLarge
    from torfill.filling.solver import enumerate_candidates
    with pytest.raises(CandidateSetTooLarge):
        enumerate_candidates(3, 4, 3, True, tuple_cap=10 ** 5)
