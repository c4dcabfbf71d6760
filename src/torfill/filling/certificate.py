"""Filling certificates, move records, and the exact verifier.

A FillingCertificate is a target, a witness, its cost and, when a
reduction built it, the move trace: one MoveRecord of the move's kind and
marginal cost per move, which verify_certificate checks against the cost.

A Piece is the one form of a certificate in progress, and it is symbolic: a
list of witness chunks, one per move, each tagged with the move's kind.  A
chunk names a base key, an integer column matrix F = [f | v_1..v_d] and a
coefficient; it stands for coeff * F_*(base witness prism-lifted d times).
A piece carries no target.  Piece.certificate(claim) builds the target
from the cycles its caller claims the piece fills and verifies the
assembled witness against it, so a schedule that drops or alters a move
fails there.  Pieces add like elements of the chain group; pushforwards and
prism lifts act on the columns only.  Each witness chain is built once, in
Piece.assemble, so the per-move costs are the costs actually realized.

lifted(key, d) memoises each lifted base witness as an index table: its
distinct vertices, the origin first, and each simplex as a getter over the
indices of its vertices.  Every lifted simplex is canonical and F(0) = 0,
so a chunk maps each distinct vertex once and indexes the images, with no
re-canonicalization.
"""

from __future__ import annotations

import functools
from math import comb
from operator import itemgetter
from typing import NamedTuple

from ..chains import (TorusChain, boundary, l1_norm, linear_map,
                      parallelogram_class, parallelogram_cycle, prism_v,
                      pushforward)
from ..errors import VerificationFailure
from ..exactlinalg import _check


class MoveRecord(NamedTuple):
    """One move of the reduction walk: its kind and its cost.

    kind is SPLIT, ZERO_GEN, DEHN or DOUBLE_HALVE, which Piece.move derives
    from the move's base key, or PRISM_LIFT or SLIDE, which marker chunks
    record;
    cost is the move's marginal contribution to the assembled witness's l^1
    norm (negative when its chunk cancels simplices already present), so
    the record costs sum exactly to the certificate cost.
    """

    kind: str
    cost: int


class FillingCertificate(NamedTuple):
    """target = boundary(witness) exactly; cost = l1(witness); the trace's
    record costs, when it has any, sum to cost.

    The cost is an upper-bound witness for the filling norm of the target;
    minimality is never claimed.
    """

    target: TorusChain
    witness: TorusChain
    cost: int
    trace: tuple = ()  # MoveRecords, one per move

    @staticmethod
    def build(target: TorusChain, witness: TorusChain,
              trace=()) -> "FillingCertificate":
        return FillingCertificate(target, witness, l1_norm(witness), trace)


def presentation_chain(ambient_dim, degree, presentation) -> TorusChain:
    """sum coeff * Q(gens) over a presentation [(coeff, gens), ...]; equal
    generator tuples are merged before any cycle is built."""
    merged = {}
    for coeff, gens in presentation:
        gens = tuple(map(tuple, gens))
        merged[gens] = merged.get(gens, 0) + coeff
    return TorusChain.from_pairs(ambient_dim, degree, (
        (simplex, coeff * c) for gens, coeff in merged.items() if coeff
        for simplex, c in parallelogram_cycle(gens).terms.items()))


def class_sum(ambient_dim, degree, presentation) -> tuple:
    """Signed sum of the homology classes (minor vectors) of a presentation."""
    total = [0] * comb(ambient_dim, degree)
    for coeff, gens in presentation:
        for i, m in enumerate(parallelogram_class(gens, ambient_dim)):
            total[i] += coeff * m
    return tuple(total)


def verify_certificate(cert: FillingCertificate, presentation=None):
    """Exact re-verification; returns (ok, diagnostics).

    Checks that the witness lies in the target's torus one degree higher,
    then boundary(witness) = target with integer arithmetic (no tolerance),
    cost = l1(witness) and, for a non-empty trace, that the record costs
    sum to cost.  When `presentation` gives the target as a signed
    sum of parallelogram cycles [(coeff, generator-tuples)], additionally
    checks that the presentation reproduces the target and that the signed
    class sum vanishes.
    """
    diagnostics = []
    w, t = cert.witness, cert.target
    if (w.ambient_dim, w.degree) != (t.ambient_dim, t.degree + 1):
        diagnostics.append("a degree-%d witness in T^%d cannot fill a degree-%d"
                           " target in T^%d" % (w.degree, w.ambient_dim,
                                                t.degree, t.ambient_dim))
    else:
        bd = boundary(w)
        if bd != t:
            diff = (bd - t).terms
            first = min(diff)
            diagnostics.append(
                "boundary mismatch on %d simplices; first %r has boundary"
                " coefficient %d, target coefficient %d"
                % (len(diff), first, bd.terms.get(first, 0),
                   t.terms.get(first, 0)))
    if cert.cost != l1_norm(w):
        diagnostics.append("cost field %d != l1(witness) %d"
                           % (cert.cost, l1_norm(w)))
    traced = sum(r.cost for r in cert.trace)
    if cert.trace and traced != cert.cost:
        diagnostics.append("trace costs sum to %d, cost field %d"
                           % (traced, cert.cost))
    if presentation is not None:
        n, k = t.ambient_dim, t.degree
        if presentation_chain(n, k, presentation) != t:
            diagnostics.append("presentation does not reproduce the target")
        cls = class_sum(n, k, presentation)
        if any(cls):
            diagnostics.append("presentation class sum nonzero: %r" % (cls,))
    return (not diagnostics), diagnostics


def require_valid(cert: FillingCertificate, presentation=None):
    ok, diagnostics = verify_certificate(cert, presentation)
    if not ok:
        raise VerificationFailure("; ".join(diagnostics))
    return cert


def _unit(n, i):
    return tuple(1 if t == i else 0 for t in range(n))


def _lift(key, d) -> TorusChain:
    """The base witness of `key` in T^m, embedded in T^(m+d) and prism-lifted
    along e_(m+1), .., e_(m+d) in turn."""
    if d == 0:
        from .base import base_certificate
        return base_certificate(key).witness
    inner = _lift(key, d - 1)
    m = inner.ambient_dim
    embed = [_unit(m + 1, i) for i in range(m)]
    return prism_v(_unit(m + 1, m), pushforward(embed, inner))


@functools.cache
def _shape(key) -> tuple:
    """(m, k): the universal cycle of `key` is a degree-k cycle in T^m."""
    from .base import universal_presentation
    gens = universal_presentation(key)[0][1]
    return len(gens[0]), len(gens)


@functools.cache
def lifted_presentation(key, d) -> tuple:
    """The universal presentation of `key` in T^(m+d), prism-lifted along
    e_(m+1), .., e_(m+d): those d vectors are appended to every generator
    tuple.  Raises VerificationFailure unless its class sum vanishes."""
    from .base import universal_presentation
    m, k = _shape(key)
    lift = tuple(_unit(m + d, i) for i in range(m, m + d))
    presentation = tuple((c, tuple(g + (0,) * d for g in gens) + lift)
                         for c, gens in universal_presentation(key))
    cls = class_sum(m + d, k + d, presentation)
    if any(cls):
        raise VerificationFailure("the presentation of %r lifted %d times has"
                                  " class %r, not 0" % (key, d, cls))
    return presentation


@functools.cache
def lifted(key, d) -> tuple:
    """_lift(key, d) as an index table (points, simplices): points lists its
    distinct vertices once, the origin first, and simplices lists its terms
    as (itemgetter of the simplex's index tuple into points, coeff).  Every
    simplex has at least two vertices, so each getter returns a tuple."""
    chain = _lift(key, d)
    index = {(0,) * chain.ambient_dim: 0}
    simplices = tuple((itemgetter(*[index.setdefault(p, len(index))
                                    for p in s]), c)
                      for s, c in chain.terms.items())
    return tuple(index), simplices


class Chunk(NamedTuple):
    """coeff * F_*(_lift(source, d)), where F = columns = [f | v_1..v_d].

    Exact because pushforward commutes with prism:
    F_*(prism_e(c)) = prism_{Fe}(F_* c).  Marker chunks are
    Chunk(None, (), 0); a chunk with coeff 0 builds no terms.
    """

    source: tuple  # a base key, or None in a marker chunk
    columns: tuple
    coeff: int

    @property
    def depth(self) -> int:
        """d, the number of prism-lift columns after the base columns."""
        return len(self.columns) - _shape(self.source)[0]

    @property
    def terms(self) -> dict:
        """The chunk's witness terms, built from its base witness.

        Every lifted simplex is canonical and F(0) = 0, so each image
        simplex is canonical as indexed: F maps each distinct vertex once."""
        if not self.coeff:
            return {}
        points, simplices = lifted(self.source, self.depth)
        images = list(map(linear_map(self.columns), points))
        k = self.coeff
        acc = {}
        get = acc.get
        for pick, coeff in simplices:
            s = pick(images)
            acc[s] = get(s, 0) + k * coeff
        return {s: v for s, v in acc.items() if v}


class Piece:
    """Certificate in progress: [(kind, Chunk)], one pair per move, where
    kind names the move for its MoveRecord: Piece.move derives it from the
    chunk's base key, and marked() gives it for a marker chunk.

    A piece holds no chains and no cycles: assemble() builds the witness,
    and certificate(claim) checks it against the target its caller claims.
    """

    __slots__ = ("ambient_dim", "degree", "chunks")

    def __init__(self, ambient_dim: int, degree: int, chunks: list):
        self.ambient_dim = ambient_dim
        self.degree = degree  # degree of the target cycle
        self.chunks = chunks

    @staticmethod
    def zero(ambient_dim: int, degree: int) -> "Piece":
        return Piece(ambient_dim, degree, [])

    @staticmethod
    def move(key, columns) -> "Piece":
        """One move: the base certificate of `key` pushed along the map
        E_i -> columns[i]; it fills the key's universal cycle pushed the
        same way.  The key names the move: its record kind is ZERO_GEN for
        a ZERO key and key[0] otherwise."""
        columns = tuple(map(tuple, columns))
        m, k = _shape(key)
        kind = "ZERO_GEN" if key[0] == "ZERO" else key[0]
        return Piece(len(columns[0]), k + len(columns) - m,
                     [(kind, Chunk(key, columns, 1))])

    def marked(self, kind) -> "Piece":
        """This piece with a marker chunk (no witness) appended; it records
        a move of the given kind at cost 0."""
        return Piece(self.ambient_dim, self.degree, self.chunks + [
            (kind, Chunk(None, (), 0))])

    def __add__(self, other: "Piece") -> "Piece":
        _check((self.ambient_dim, self.degree)
               == (other.ambient_dim, other.degree),
               "pieces of different tori or degrees")
        return Piece(self.ambient_dim, self.degree, self.chunks + other.chunks)

    def __neg__(self) -> "Piece":
        return self.scale(-1)

    def __sub__(self, other: "Piece") -> "Piece":
        return self + (-other)

    def scale(self, k: int) -> "Piece":
        if k == 1:
            return self
        return Piece(self.ambient_dim, self.degree, [
            (kind, Chunk(ch.source, ch.columns, k * ch.coeff))
            for kind, ch in self.chunks])

    def pushforward(self, columns) -> "Piece":
        """Realize the piece along the integral map e_i -> columns[i]
        (l^1 non-increasing)."""
        image = linear_map(columns)
        return Piece(len(columns[0]), self.degree, [
            (kind, Chunk(ch.source, tuple(map(image, ch.columns)), ch.coeff))
            for kind, ch in self.chunks])

    def prism_lift(self, v) -> "Piece":
        """Apply the prism of v to target and witness (cost factor <= k+2)."""
        v = tuple(int(x) for x in v)
        return Piece(self.ambient_dim, self.degree + 1, [
            (kind, Chunk(ch.source, ch.columns + (v,), ch.coeff))
            for kind, ch in self.chunks]).marked("PRISM_LIFT")

    def assemble(self):
        """(witness, records): each chunk's chain is built once and merged in
        one dict pass, with marginal costs telescoping to l1(witness).  A
        chunk's class is Lambda^k F of its lifted universal presentation's,
        so checking that class vanishes once per (key, d) checks every
        chunk's."""
        for key, d in {(chunk.source, chunk.depth)
                       for _, chunk in self.chunks if chunk.coeff}:
            lifted_presentation(key, d)
        acc = {}
        norm = 0
        records = []
        for kind, chunk in self.chunks:
            before = norm
            for simplex, coeff in chunk.terms.items():
                old = acc.get(simplex, 0)
                new = old + coeff
                norm += abs(new) - abs(old)
                if new:
                    acc[simplex] = new
                elif simplex in acc:
                    del acc[simplex]
            records.append(MoveRecord(kind, norm - before))
        witness = TorusChain(self.ambient_dim, self.degree + 1, acc)
        if norm != l1_norm(witness):
            raise VerificationFailure("move costs sum to %d, not l1(witness)"
                                      " %d" % (norm, l1_norm(witness)))
        return witness, tuple(records)

    def certificate(self, claim) -> FillingCertificate:
        """The assembled certificate, with its trace, for the target the
        caller claims the piece fills: claim = [(coeff, gens), ...], a
        signed sum of parallelogram cycles.  Raises VerificationFailure
        unless the witness's boundary is that target and the claim's class
        sum vanishes."""
        witness, records = self.assemble()
        target = presentation_chain(self.ambient_dim, self.degree, claim)
        cert = FillingCertificate.build(target, witness, records)
        return require_valid(cert, presentation=claim)
