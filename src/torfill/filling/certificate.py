"""Filling certificates, move records, and the exact verifier.

A Piece is the composable form used while building certificates: a target
cycle plus a list of witness chunks, one per move, each tagged with the move
metadata and the signed parallelogram cycles it consumed/created.  Pieces add
like elements of the chain group; pushforwards and prism lifts transform
every chunk, so the final per-move costs are the costs actually realized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..chains import (LinearTorusMap, TorusChain, boundary, l1_norm,
                      parallelogram_class, prism_v, pushforward)
from ..errors import VerificationFailure


@dataclass(frozen=True)
class MoveRecord:
    """One move of the reduction walk.

    kind is one of REARRANGE, NEGATE, SPLIT, ZERO_GEN, DEHN, DOUBLE_HALVE,
    PRISM_LIFT, SLIDE, S1_BASE; params is integer data describing the move;
    cost is the move's marginal contribution to the assembled witness's l^1
    norm (negative when its chunk cancels simplices already present), so the
    record costs sum exactly to the certificate cost; class_delta is the
    (always zero) signed sum of the homology classes of the cycles the move
    created minus those it consumed.
    """

    kind: str
    params: tuple
    cost: int
    class_delta: tuple


@dataclass(frozen=True)
class FillingCertificate:
    """target = boundary(witness) exactly; cost = l1(witness).

    The cost is an upper-bound witness for the filling norm of the target;
    minimality is never claimed.
    """

    target: TorusChain
    witness: TorusChain
    cost: int

    @staticmethod
    def build(target: TorusChain, witness: TorusChain) -> "FillingCertificate":
        return FillingCertificate(target, witness, l1_norm(witness))


def verify_certificate(cert: FillingCertificate, presentation=None):
    """Exact re-verification; returns (ok, diagnostics).

    Checks boundary(witness) = target with integer arithmetic (no tolerance)
    and cost = l1(witness).  When `presentation` gives the target as a signed
    sum of parallelogram cycles [(coeff, generator-tuples)], additionally
    checks that the presentation reproduces the target and that the signed
    class sum vanishes.
    """
    diagnostics = []
    bd = boundary(cert.witness)
    if bd != cert.target:
        diff = bd - cert.target
        sample = next(iter(diff.terms.items()), None)
        diagnostics.append("boundary mismatch on %d simplices; e.g. %r"
                           % (len(diff.terms), sample))
    if cert.cost != l1_norm(cert.witness):
        diagnostics.append("cost field %d != l1(witness) %d"
                           % (cert.cost, l1_norm(cert.witness)))
    if presentation is not None:
        from ..chains import parallelogram_cycle
        acc = TorusChain.zero(cert.target.ambient_dim, cert.target.degree)
        cls = None
        for coeff, gens in presentation:
            acc = acc + parallelogram_cycle(gens).scale(coeff)
            term = parallelogram_class(gens)
            vec = tuple(coeff * m for m in term.minors)
            cls = vec if cls is None else tuple(a + b for a, b in zip(cls, vec))
        if acc != cert.target:
            diagnostics.append("presentation does not reproduce the target")
        if cls is not None and any(cls):
            diagnostics.append("presentation class sum nonzero: %r" % (cls,))
    return (not diagnostics), diagnostics


def require_valid(cert: FillingCertificate, presentation=None):
    ok, diagnostics = verify_certificate(cert, presentation)
    if not ok:
        raise VerificationFailure("; ".join(diagnostics))
    return cert


@dataclass(frozen=True)
class ChunkMeta:
    """Move metadata attached to one witness chunk.

    cycles: ((coeff, gens), ...) — the signed parallelogram cycles whose sum
    is the chunk's own target; their signed class sum must vanish.
    """

    kind: str
    params: tuple
    cycles: tuple

    def class_delta(self, ambient_dim, degree):
        total = None
        for coeff, gens in self.cycles:
            vec = parallelogram_class(gens, ambient_dim).minors
            vec = tuple(coeff * m for m in vec)
            total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
        if total is None:
            from math import comb
            total = (0,) * comb(ambient_dim, degree)
        return total


@dataclass
class Piece:
    """Composable certificate-in-progress: target plus per-move witness chunks."""

    ambient_dim: int
    degree: int  # degree of the target cycle
    target: TorusChain
    chunks: list = field(default_factory=list)  # [(ChunkMeta, TorusChain)]

    @staticmethod
    def zero(ambient_dim: int, degree: int) -> "Piece":
        return Piece(ambient_dim, degree,
                     TorusChain.zero(ambient_dim, degree), [])

    @staticmethod
    def move(kind, params, target, witness, cycles) -> "Piece":
        meta = ChunkMeta(kind, tuple(params), tuple(cycles))
        return Piece(target.ambient_dim, target.degree, target,
                     [(meta, witness)])

    def __add__(self, other: "Piece") -> "Piece":
        assert (self.ambient_dim, self.degree) == (other.ambient_dim, other.degree)
        return Piece(self.ambient_dim, self.degree, self.target + other.target,
                     self.chunks + other.chunks)

    def __neg__(self) -> "Piece":
        flipped = []
        for meta, chunk in self.chunks:
            cycles = tuple((-c, g) for c, g in meta.cycles)
            flipped.append((replace(meta, cycles=cycles), -chunk))
        return Piece(self.ambient_dim, self.degree, -self.target, flipped)

    def __sub__(self, other: "Piece") -> "Piece":
        return self + (-other)

    def scale(self, k: int) -> "Piece":
        if k == 1:
            return self
        if k == -1:
            return -self
        scaled = []
        for meta, chunk in self.chunks:
            cycles = tuple((k * c, g) for c, g in meta.cycles)
            scaled.append((replace(meta, cycles=cycles), chunk.scale(k)))
        return Piece(self.ambient_dim, self.degree, self.target.scale(k), scaled)

    def pushforward(self, f: LinearTorusMap) -> "Piece":
        """Realize the piece along an integral map (l^1 non-increasing)."""
        mapped = []
        for meta, chunk in self.chunks:
            cycles = tuple((c, tuple(f.apply(g) for g in gens))
                           for c, gens in meta.cycles)
            mapped.append((replace(meta, cycles=cycles), pushforward(f, chunk)))
        return Piece(f.target_dim, self.degree, pushforward(f, self.target),
                     mapped)

    def prism_lift(self, v) -> "Piece":
        """Apply the prism of v to target and witness (cost factor <= k+2)."""
        v = tuple(int(x) for x in v)
        lifted = []
        for meta, chunk in self.chunks:
            cycles = tuple((c, gens + (v,)) for c, gens in meta.cycles)
            lifted.append((replace(meta, cycles=cycles), prism_v(v, chunk)))
        marker = ChunkMeta("PRISM_LIFT", (v,), ())
        lifted.append((marker, TorusChain.zero(self.ambient_dim, self.degree + 2)))
        return Piece(self.ambient_dim, self.degree + 1,
                     prism_v(v, self.target), lifted)

    def assemble(self):
        """(witness, records): one dict pass, marginal costs telescoping to
        l1(witness)."""
        acc = {}
        norm = 0
        records = []
        for meta, chunk in self.chunks:
            before = norm
            for simplex, coeff in chunk.terms.items():
                old = acc.get(simplex, 0)
                new = old + coeff
                norm += abs(new) - abs(old)
                if new:
                    acc[simplex] = new
                elif simplex in acc:
                    del acc[simplex]
            delta = meta.class_delta(self.ambient_dim, self.degree)
            assert not any(delta), "class bookkeeping violated: %r" % (meta,)
            records.append(MoveRecord(meta.kind, meta.params, norm - before,
                                      delta))
        witness = TorusChain(self.ambient_dim, self.degree + 1, acc)
        assert norm == l1_norm(witness)
        return witness, tuple(records)

    def certificate(self, verify: bool = True) -> FillingCertificate:
        witness, _ = self.assemble()
        cert = FillingCertificate.build(self.target, witness)
        if verify:
            require_valid(cert)
        return cert
