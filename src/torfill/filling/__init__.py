"""Constructive filling-certificate engine.

Certificates witness upper bounds for the integral filling norm: a target
cycle, a witness chain one degree higher with boundary(witness) = target
exactly, and the witness l^1 norm as the cost.  Composite moves are realized
as pushforwards and prism lifts of a table of 11 base certificates, found
once by exact Diophantine solving and shipped as package data that is
re-verified on load.  Every move and reduction step returns a Piece:
symbolic per-move chunks (a base key, an integer column matrix and a
coefficient) that carry no cycles; a chunk's target is derived from its key
as the key's universal presentation pushed along its columns.
Piece.certificate() and reduce_parallelogram build each chunk's witness
chain once, assemble and verify it.
"""

from .certificate import (FillingCertificate, MoveRecord, Piece,
                          verify_certificate)
from .solver import fill_by_solve
from .base import BASE_KEYS, base_certificate, universal_cycle
from .moves import S1Trace, s1_moves, s1_piece, slide
from .reduce import (ReductionReport, combine_rects, fv_upper_experiment,
                     paral_to_rects, rect_to_unit, reduce_parallelogram,
                     slim_piece)

__all__ = [
    "FillingCertificate", "MoveRecord", "Piece", "verify_certificate",
    "fill_by_solve", "BASE_KEYS", "base_certificate", "universal_cycle",
    "S1Trace", "s1_moves", "s1_piece", "slide",
    "ReductionReport", "combine_rects", "fv_upper_experiment",
    "paral_to_rects", "rect_to_unit", "reduce_parallelogram", "slim_piece",
]
