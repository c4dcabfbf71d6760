"""Stable text formats: matrices, chains, certificates.

All big integers are serialized as decimal strings.  A chain is an object
{ambient_dim, degree, points, terms}: points lists each distinct vertex
once, as a list of coordinates, in order of first use over the sorted
simplices, and terms is a list of records {coeff, vertices} sorted by
simplex, where vertices are indices into points.  A certificate container
carries version (2), ambient_dim, degree, target, witness, cost, and the
move trace, a list of records {kind, cost}: the move's kind and its
marginal cost.  A file is ``json.dumps(obj, sort_keys=True)`` of its object
and a newline; the shipped base table is in this layout.

The reader accepts only that spelling: a coefficient, coordinate or cost is
a string equal to ``str()`` of its integer, a trace kind is a string, a
point is a list of ambient_dim coordinates, an index is a JSON integer into
points, and version, ambient_dim and degree are JSON integers.  Version 1
files, whose chain records spell out each vertex as a list of coordinates
and have no points, still load, under the same rules.  Trace records of
older files also carry params (nested lists of integers) and class_delta (a
list of integers); these are checked under the same rules and dropped.
"""

from __future__ import annotations

import contextlib
import json
import os

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
    except ValueError as exc:
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
    except ValueError as exc:
        raise InputParseError("bad matrix file: %s" % exc) from None


# --- integers in files -------------------------------------------------------

def _int(text) -> int:
    """The integer of a decimal string spelled exactly as str() writes it."""
    value = int(text)
    if str(value) != text:  # also refuses every non-string, such as 1.9
        raise ValueError("not a canonical decimal string: %r" % (text,))
    return value


def _json_int(value) -> int:
    if type(value) is not int:  # refuses booleans, floats and strings
        raise ValueError("not a JSON integer: %r" % (value,))
    return value


def _list(value):
    if type(value) is not list:
        raise ValueError("%r is not a list" % (value,))
    return value


# --- chains ------------------------------------------------------------------

def chain_to_obj(c: TorusChain) -> dict:
    """The chain object of c, its file layout."""
    index = {}  # vertex -> its position in points
    terms = []
    for simplex in sorted(c.terms):
        terms.append({"coeff": str(c.terms[simplex]),
                      "vertices": [index.setdefault(v, len(index))
                                   for v in simplex]})
    return {"ambient_dim": c.ambient_dim, "degree": c.degree,
            "points": [list(map(str, v)) for v in index], "terms": terms}


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
        points = []  # int tuples
        for v in _list(table["points"]):
            if len(_list(v)) != n:
                raise ValueError("point %r is not in T^%d" % (v, n))
            points.append(tuple(map(_int, v)))
        size = len(points)
        pairs = []
        for record in table["terms"]:
            indices = _list(record["vertices"])
            for i in indices:
                if type(i) is not int or not 0 <= i < size:
                    raise ValueError("vertex index %r is not in range(%d)"
                                     % (i, size))
            simplex = tuple(points[i] for i in indices)
            if not simplex:
                raise ValueError("a simplex needs at least one vertex")
            if any(simplex[0]):
                raise ValueError("non-canonical simplex %r" % (simplex,))
            pairs.append((simplex, _int(record["coeff"])))
        return TorusChain.from_pairs(n, k, pairs)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise InputParseError("bad chain object: %s" % exc) from None


# --- certificates ------------------------------------------------------------

def _strings_to_ints(value):
    if isinstance(value, list):
        return tuple(_strings_to_ints(v) for v in value)
    return _int(value)


def write_certificate(fh, cert: FillingCertificate, trace=()):
    """Write the certificate container, and a final newline, to text file fh.

    json.dumps without indent runs on the C encoder."""
    fh.write(json.dumps({
        "version": FORMAT_VERSION,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": chain_to_obj(cert.target),
        "witness": chain_to_obj(cert.witness),
        "cost": str(cert.cost),
        "trace": [{"cost": str(r.cost), "kind": r.kind} for r in trace],
    }, sort_keys=True) + "\n")


def _move_record(r) -> MoveRecord:
    """A trace record {kind, cost}; the params and class_delta of older
    files are checked as integers, then dropped."""
    if type(r["kind"]) is not str:
        raise ValueError("trace kind %r is not a string" % (r["kind"],))
    _strings_to_ints(r.get("params", []))
    for x in r.get("class_delta", ()):
        _int(x)
    return MoveRecord(r["kind"], _int(r["cost"]))


def obj_to_certificate(obj):
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
        trace = tuple(map(_move_record, obj.get("trace", ())))
        return FillingCertificate(target, witness, cost), trace
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


def save_certificate(path, cert: FillingCertificate, trace=()):
    with _atomic_open(path) as fh:
        write_certificate(fh, cert, trace)


def _load_json(path, what):
    """The JSON object in the file at path; an unreadable file, bad JSON or
    nesting deeper than the parser's recursion limit is an input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputParseError("cannot read %s %s: %s"
                              % (what, path, exc)) from None


def load_certificate(path):
    return obj_to_certificate(_load_json(path, "certificate"))


def load_chain(path) -> TorusChain:
    return obj_to_chain(_load_json(path, "chain"))
