"""Constructive filling-certificate engine.

Certificates witness upper bounds for the integral filling norm: a target
cycle, a witness chain one degree higher with boundary(witness) = target
exactly, the witness l^1 norm as the cost and, for a reduction, the move
trace of (kind, cost) records summing to that cost.  Composite moves are
realized as pushforwards and prism lifts of a table of 7 base
certificates, found once by exact Diophantine solving and shipped as
package data that is re-verified on load.  Every move and reduction step
returns a Piece: symbolic per-move chunks (a base key, an integer column
matrix and a coefficient), each tagged with its move's kind, that carry no
cycles.  Piece.certificate(claim) assembles the witness by folding each
chunk's lifted simplices directly into it, with one MoveRecord per chunk,
builds the target its caller claims once, and verifies the witness against
it; Chunk.terms, one chunk's terms on their own, is kept only for
perfbench's assemble span.  reduce_parallelogram claims Q(A) - R(det A,
1..1) and fills it by one column walk of shears for every A, n <= 3; a
shear's piece depends on its quotient alone and is memoised.
"""

from .certificate import (FillingCertificate, MoveRecord, Piece,
                          verify_certificate)
from .solver import fill_by_solve
from .base import BASE_KEYS, base_certificate, universal_cycle
from .moves import S1Trace, s1_moves, s1_piece, slide
from .reduce import (ReductionReport, fv_upper_experiment, rect_to_unit,
                     reduce_parallelogram)

__all__ = [
    "FillingCertificate", "MoveRecord", "Piece", "verify_certificate",
    "fill_by_solve", "BASE_KEYS", "base_certificate", "universal_cycle",
    "S1Trace", "s1_moves", "s1_piece", "slide",
    "ReductionReport", "fv_upper_experiment", "rect_to_unit",
    "reduce_parallelogram",
]
