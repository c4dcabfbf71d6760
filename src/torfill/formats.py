"""Stable text formats: matrices, chains, certificates.

All big integers are serialized as decimal strings.  A chain is an object
{ambient_dim, degree, points, terms}: points lists each distinct vertex
once, as a list of coordinates, in order of first use over the sorted
simplices, and terms is a list of records {coeff, vertices} sorted by
simplex, where vertices are indices into points.  A certificate container
carries version (2), ambient_dim, degree, and the certificate's target,
witness, cost and move trace, a list of records {kind, cost}: the move's
kind and its marginal cost.  A file is ``json.dumps(obj, sort_keys=True)``
of its object and a newline; the shipped base table is in this layout.  The
writer spells that text out itself, in one pass, with no object per simplex;
the reader checks each list of decimal strings at once.

The reader accepts only that spelling: a coefficient, coordinate or cost is
a string equal to ``str()`` of its integer, a trace is a list and its kinds
are strings, a point is a list of ambient_dim coordinates, an index is a
JSON integer into points, and version, ambient_dim and degree are JSON
integers.  Version 1 files, whose chain records spell out each vertex as a
list of coordinates and have no points, still load, under the same rules.
Trace records of older files also carry params (nested lists of integers)
and class_delta (a list of integers); these are checked under the same
rules and dropped.  A trace kind may be any string: `verify_certificate`
checks only that the record costs sum to cost, so a kind is a label, not a
claim, and files written before the NEGATE move was retired still carry
NEGATE, which MoveRecord no longer lists.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from json.encoder import encode_basestring_ascii as _json_str

from .chains import TorusChain
from .errors import DimensionMismatch, InputParseError
from .exactlinalg import IntMatrix
from .filling.certificate import FillingCertificate, MoveRecord

FORMAT_VERSION = 2


# --- matrices ---------------------------------------------------------------

def parse_matrix_inline(text: str) -> IntMatrix:
    """Rows separated by ';', entries by ','; a blank entry is an error."""
    try:
        return IntMatrix(tuple(tuple(map(int, row.split(",")))
                               for row in text.split(";")))
    except (ValueError, DimensionMismatch) as exc:
        raise InputParseError("bad inline matrix %r: %s" % (text, exc)) from None


def parse_matrix_text(text: str) -> IntMatrix:
    """One row per line, whitespace-separated integers."""
    try:
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(tuple(int(x) for x in line.split()))
        if not rows:
            raise ValueError("no rows")
        return IntMatrix(tuple(rows))
    except (ValueError, DimensionMismatch) as exc:
        raise InputParseError("bad matrix file: %s" % exc) from None


# --- integers in files -------------------------------------------------------

def _int(text) -> int:
    """The integer of a decimal string spelled exactly as str() writes it."""
    value = int(text)
    if str(value) != text:  # also refuses every non-string, such as 1.9
        raise ValueError("not a canonical decimal string: %r" % (text,))
    return value


def _ints(texts) -> tuple:
    """The integers of a list of decimal strings, each spelled exactly as
    str() writes it; the list is checked at once."""
    values = tuple(map(int, texts))
    if list(map(str, values)) != texts:
        raise ValueError("not a canonical decimal string: %r" % next(
            t for t, v in zip(texts, values) if str(v) != t))
    return values


def _json_int(value) -> int:
    if type(value) is not int:  # refuses booleans, floats and strings
        raise ValueError("not a JSON integer: %r" % (value,))
    return value


def _list(value):
    if type(value) is not list:
        raise ValueError("%r is not a list" % (value,))
    return value


# --- chains ------------------------------------------------------------------

def _chain_text(c: TorusChain) -> str:
    """The chain object of c, its file layout, as json.dumps(obj,
    sort_keys=True) spells it."""
    index = {}  # vertex -> its position in points
    at = index.setdefault
    terms = c.terms
    # the records first: they number the points in order of first use
    records = ", ".join([
        '{"coeff": "%d", "vertices": [%s]}' % (
            terms[simplex],
            ", ".join([str(at(v, len(index))) for v in simplex]))
        for simplex in sorted(terms)])
    points = ", ".join([
        '["%s"]' % '", "'.join(map(str, v)) if v else "[]" for v in index])
    return ('{"ambient_dim": %d, "degree": %d, "points": [%s], "terms": [%s]}'
            % (c.ambient_dim, c.degree, points, records))


def _inline_to_table(obj) -> dict:
    """A version-1 chain object, whose records spell out their vertices, as
    the same chain over a point table."""
    index = {}  # a vertex, as a tuple of its coordinate texts -> position
    terms = []
    for record in obj["terms"]:
        terms.append({"coeff": record["coeff"], "vertices": [
            index.setdefault(tuple(_list(v)), len(index))
            for v in _list(record["vertices"])]})
    return {"points": list(map(list, index)), "terms": terms}


def obj_to_chain(obj) -> TorusChain:
    try:
        n = _json_int(obj["ambient_dim"])
        k = _json_int(obj["degree"])
        if n < 0 or k < 0:
            raise ValueError("ambient_dim %d and degree %d must not be"
                             " negative" % (n, k))
        table = obj if "points" in obj else _inline_to_table(obj)
        texts = _list(table["points"])
        for v in texts:
            if len(_list(v)) != n:
                raise ValueError("point %r is not in T^%d" % (v, n))
        # every coordinate of the chain at once, then n to a point
        coords = _ints(list(itertools.chain.from_iterable(texts)))
        points = list(zip(*[iter(coords)] * n)) if n else [()] * len(texts)
        size = len(points)
        get = points.__getitem__
        records = table["terms"]
        simplices = []
        for record in records:
            indices = _list(record["vertices"])
            for i in indices:
                if type(i) is not int or not 0 <= i < size:
                    raise ValueError("vertex index %r is not in range(%d)"
                                     % (i, size))
            simplex = tuple(map(get, indices))
            if not simplex:
                raise ValueError("a simplex needs at least one vertex")
            if any(simplex[0]):
                raise ValueError("non-canonical simplex %r" % (simplex,))
            simplices.append(simplex)
        coeffs = _ints([record["coeff"] for record in records])
        return TorusChain.from_pairs(n, k, zip(simplices, coeffs))
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise InputParseError("bad chain object: %s" % exc) from None


# --- certificates ------------------------------------------------------------

def _strings_to_ints(value):
    if isinstance(value, list):
        return tuple(_strings_to_ints(v) for v in value)
    return _int(value)


def write_certificate(fh, cert: FillingCertificate):
    """Write the certificate container, and a final newline, to text file
    fh: json.dumps(obj, sort_keys=True) of its object, spelled out in one
    pass with no object per simplex."""
    fh.write('{"ambient_dim": %d, "cost": "%d", "degree": %d, "target": %s,'
             ' "trace": [%s], "version": %d, "witness": %s}\n' % (
                 cert.target.ambient_dim, cert.cost, cert.target.degree,
                 _chain_text(cert.target), ", ".join([
                     '{"cost": "%d", "kind": %s}' % (r.cost, _json_str(r.kind))
                     for r in cert.trace]),
                 FORMAT_VERSION, _chain_text(cert.witness)))


def _move_record(r) -> MoveRecord:
    """A trace record {kind, cost}; the params and class_delta of older
    files are checked as integers, then dropped."""
    if type(r["kind"]) is not str:
        raise ValueError("trace kind %r is not a string" % (r["kind"],))
    if "params" in r:
        _strings_to_ints(r["params"])
    for x in r.get("class_delta", ()):
        _int(x)
    return MoveRecord(r["kind"], _int(r["cost"]))


def obj_to_certificate(obj) -> FillingCertificate:
    try:
        if _json_int(obj["version"]) not in (1, FORMAT_VERSION):
            raise ValueError("unsupported version %r" % obj["version"])
        target = obj_to_chain(obj["target"])
        witness = obj_to_chain(obj["witness"])
        shape = (_json_int(obj["ambient_dim"]), _json_int(obj["degree"]))
        if shape != (target.ambient_dim, target.degree):
            raise ValueError("container ambient_dim %d, degree %d != target"
                             " ambient_dim %d, degree %d"
                             % (shape + (target.ambient_dim, target.degree)))
        cost = _int(obj["cost"])
        trace = tuple(map(_move_record, _list(obj.get("trace", []))))
        return FillingCertificate(target, witness, cost, trace)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputParseError("bad certificate object: %s" % exc) from None


@contextlib.contextmanager
def _atomic_open(path):
    """Open a temporary file beside path for writing, then move it into
    place with os.replace: path holds either its old content or all of the
    new.  The temporary file is removed if anything fails."""
    tmp = "%s.%d.tmp" % (os.fspath(path), os.getpid())
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_certificate(path, cert: FillingCertificate):
    with _atomic_open(path) as fh:
        write_certificate(fh, cert)


def _refuse_constant(name):
    raise ValueError("%s is not a JSON value" % name)


def _load_json(path, what):
    """The JSON object in the file at path; an unreadable file, text that
    is not UTF-8, bad JSON (NaN and Infinity included, which json.load
    would read as floats) or nesting deeper than the parser's recursion
    limit is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputParseError("cannot read %s %s: %s"
                              % (what, path, exc)) from None


def load_certificate(path) -> FillingCertificate:
    return obj_to_certificate(_load_json(path, "certificate"))


def load_chain(path) -> TorusChain:
    return obj_to_chain(_load_json(path, "chain"))
