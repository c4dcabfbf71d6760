"""Filling certificates, move records, and the exact verifier.

A Piece is the one form of a certificate in progress, and it is symbolic: a
list of witness chunks, one per move, each tagged with the move's kind.
Assembly turns each tag into a MoveRecord of the kind and the move's
marginal cost, which is all a trace keeps.  A chunk names a base key, an
integer column matrix F = [f | v_1..v_d] and a coefficient; it stands for
coeff * F_*(base witness prism-lifted d times).  A chunk carries no cycles:
its target is derived from its key, as coeff * F_* of the key's universal
presentation with the lift vectors appended to every generator tuple.
Pieces add like elements of the chain group; pushforwards and prism lifts
act on the columns only.  Each witness chain is built once, in
Piece.assemble, so the per-move costs are the costs actually realized.

lifted(key, d) memoises each lifted base witness as an index table: its
distinct vertices, the origin first, and each simplex as a getter over the
indices of its vertices.  Every lifted simplex is canonical and F(0) = 0,
so a chunk maps each distinct vertex once and indexes the images, with no
re-canonicalization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb
from operator import itemgetter
from typing import NamedTuple

from ..chains import (TorusChain, boundary, l1_norm, linear_map,
                      parallelogram_class, parallelogram_cycle, prism_v,
                      pushforward, simplex_chain)
from ..errors import VerificationFailure
from ..exactlinalg import _check


class MoveRecord(NamedTuple):
    """One move of the reduction walk: its kind and its cost.

    kind is one of NEGATE, SPLIT, ZERO_GEN, DEHN, DOUBLE_HALVE, PRISM_LIFT,
    SLIDE; cost is the move's marginal contribution to the assembled
    witness's l^1 norm (negative when its chunk cancels simplices already
    present), so the record costs sum exactly to the certificate cost.
    """

    kind: str
    cost: int


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
    and cost = l1(witness).  When `presentation` gives the target as a signed
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
    along e_(m+1), .., e_(m+d) in turn.  Key None stands for the constant
    2-simplex [0, 0, 0] in T^1, which fills Q(0)."""
    if d == 0:
        if key is None:
            return simplex_chain([(0,)] * 3)
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
    F_*(prism_e(c)) = prism_{Fe}(F_* c).  Marker chunks have coeff 0.
    """

    source: tuple  # a base key, or None
    columns: tuple
    coeff: int

    @property
    def depth(self) -> int:
        """d, the number of prism-lift columns after the base columns."""
        return len(self.columns) - _shape(self.source)[0]

    @property
    def cycles(self) -> tuple:
        """The chunk's target as ((coeff, gens), ...): the lifted universal
        presentation of its key pushed along its columns, times coeff."""
        if not self.coeff:
            return ()
        image = linear_map(self.columns)
        return tuple((self.coeff * c, tuple(map(image, gens))) for c, gens
                     in lifted_presentation(self.source, self.depth))

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


@dataclass
class Piece:
    """Certificate in progress: [(kind, Chunk)], one pair per move, where
    kind names the move for its MoveRecord.

    A piece holds no chains and no cycles.  Its target is derived on demand
    from the chunks' keys and columns, and assemble() builds the witness.
    """

    ambient_dim: int
    degree: int  # degree of the target cycle
    chunks: list = field(default_factory=list)

    @staticmethod
    def zero(ambient_dim: int, degree: int) -> "Piece":
        return Piece(ambient_dim, degree, [])

    @staticmethod
    def move(key, kind, columns) -> "Piece":
        """One move of the given kind: the base certificate of `key` pushed
        along the map E_i -> columns[i]; its target is the key's universal
        cycle pushed the same way."""
        columns = tuple(map(tuple, columns))
        m, k = _shape(key)
        return Piece(len(columns[0]), k + len(columns) - m,
                     [(kind, Chunk(key, columns, 1))])

    @property
    def target(self) -> TorusChain:
        return presentation_chain(self.ambient_dim, self.degree, [
            cycle for _, chunk in self.chunks for cycle in chunk.cycles])

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

    def certificate(self) -> FillingCertificate:
        witness, _ = self.assemble()
        return require_valid(FillingCertificate.build(self.target, witness))
