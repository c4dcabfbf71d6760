"""Stable text formats: matrices, chains, certificates.

All big integers are serialized as decimal strings.  A chain is an object
{ambient_dim, degree, terms}, its terms a list of records {coeff, vertices}
sorted by simplex; a certificate container carries version, type data,
target, witness, cost, and the move trace.

On disk, chain and certificate files are exactly what
``json.dump(obj, fh, indent=1, sort_keys=True)`` followed by a newline writes
for that object: one-space indentation, keys sorted, every coefficient and
coordinate a decimal string.  The shipped base table is in this layout.  The
chain writer streams the layout itself, without building the object, and
must reproduce it byte for byte; the header and trace still go through
``json.dumps``.  The reader accepts only that spelling: a coefficient,
coordinate, cost or trace field is a string equal to ``str()`` of its
integer, a vertex is a list, and version, ambient_dim and degree are JSON
integers.
"""

from __future__ import annotations

import contextlib
import json
import os

from .chains import TorusChain
from .errors import DimensionMismatch, InputParseError
from .exactlinalg import IntMatrix
from .filling.certificate import FillingCertificate, MoveRecord

FORMAT_VERSION = 1


# --- matrices ---------------------------------------------------------------

def parse_matrix_inline(text: str) -> IntMatrix:
    """Rows separated by ';', entries by ','."""
    try:
        rows = []
        for chunk in text.strip().split(";"):
            rows.append(tuple(int(x.strip()) for x in chunk.split(",") if x.strip()))
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        return IntMatrix(tuple(rows))
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


# --- chains ------------------------------------------------------------------

def obj_to_chain(obj) -> TorusChain:
    try:
        n = _json_int(obj["ambient_dim"])
        k = _json_int(obj["degree"])
        points = {}  # a record's vertex, as a tuple of its strings -> int tuple
        pairs = []
        for record in obj["terms"]:
            simplex = []
            for v in record["vertices"]:
                if type(v) is not list:
                    raise ValueError("vertex %r is not a list" % (v,))
                v = tuple(v)
                p = points.get(v)
                if p is None:
                    p = points[v] = tuple(map(_int, v))
                    if len(p) != n:
                        raise ValueError("vertex %r is not in T^%d" % (v, n))
                simplex.append(p)
            if not simplex:
                raise ValueError("a simplex needs at least one vertex")
            if any(simplex[0]):
                raise ValueError("non-canonical simplex %r"
                                 % (record["vertices"],))
            pairs.append((tuple(simplex), _int(record["coeff"])))
        return TorusChain.from_pairs(n, k, pairs)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise InputParseError("bad chain object: %s" % exc) from None


def _write_chain(fh, c: TorusChain, pad: str):
    """Write c in the chain layout, its closing brace indented by pad.

    Each distinct vertex is rendered once; decimal strings need no escaping.
    """
    p1, p2, p3, p4, p5 = (pad + " " * i for i in range(1, 6))
    fh.write('{\n%s"ambient_dim": %d,\n%s"degree": %d,\n%s"terms": '
             % (p1, c.ambient_dim, p1, c.degree, p1))
    if not c.terms:
        fh.write("[]\n%s}" % pad)
        return
    texts = {}
    head = '%s{\n%s"coeff": "' % (p2, p3)
    middle = '",\n%s"vertices": [\n' % p3
    tail = "\n%s]\n%s}" % (p3, p2)
    open_v, sep_v, close_v = '%s[\n%s"' % (p4, p5), '",\n%s"' % p5, '"\n%s]' % p4
    sep = "["
    for simplex in sorted(c.terms):
        verts = []
        for v in simplex:
            text = texts.get(v)
            if text is None:
                text = texts[v] = (open_v + sep_v.join(map(str, v)) + close_v
                                   if v else p4 + "[]")
            verts.append(text)
        fh.write("%s\n%s%s%s%s%s" % (sep, head, c.terms[simplex], middle,
                                      ",\n".join(verts), tail))
        sep = ","
    fh.write("\n%s]\n%s}" % (p1, pad))


# --- certificates ------------------------------------------------------------

def _ints_to_strings(value):
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_ints_to_strings(v) for v in value]
    return value


def _strings_to_ints(value):
    if isinstance(value, list):
        return tuple(_strings_to_ints(v) for v in value)
    return _int(value)


def write_certificate(fh, cert: FillingCertificate, trace=()):
    """Write the certificate container, and a final newline, to text file fh."""
    header = json.dumps({
        "version": FORMAT_VERSION,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": None,
        "witness": None,
        "cost": str(cert.cost),
        "trace": [
            {
                "kind": r.kind,
                "params": _ints_to_strings(list(r.params)),
                "cost": str(r.cost),
                "class_delta": [str(x) for x in r.class_delta],
            }
            for r in trace
        ],
    }, indent=1, sort_keys=True)
    # JSON escaping keeps these two key-value texts out of any string value
    head, rest = header.split('"target": null')
    middle, tail = rest.split('"witness": null')
    fh.write(head + '"target": ')
    _write_chain(fh, cert.target, " ")
    fh.write(middle + '"witness": ')
    _write_chain(fh, cert.witness, " ")
    fh.write(tail + "\n")


def obj_to_certificate(obj):
    try:
        if _json_int(obj["version"]) != FORMAT_VERSION:
            raise ValueError("unsupported version %r" % obj["version"])
        target = obj_to_chain(obj["target"])
        witness = obj_to_chain(obj["witness"])
        shape = (_json_int(obj["ambient_dim"]), _json_int(obj["degree"]))
        if shape != (target.ambient_dim, target.degree):
            raise ValueError("container ambient_dim %d, degree %d != target"
                             " ambient_dim %d, degree %d"
                             % (shape + (target.ambient_dim, target.degree)))
        cost = _int(obj["cost"])
        trace = tuple(
            MoveRecord(r["kind"], _strings_to_ints(r["params"]),
                       _int(r["cost"]), tuple(map(_int, r["class_delta"])))
            for r in obj.get("trace", ())
        )
        return FillingCertificate(target, witness, cost), trace
    except (KeyError, TypeError, ValueError) as exc:
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


def load_certificate(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError("cannot read certificate %s: %s" % (path, exc)) from None
    return obj_to_certificate(obj)


def save_chain(path, c: TorusChain):
    with _atomic_open(path) as fh:
        _write_chain(fh, c, "")
        fh.write("\n")


def load_chain(path) -> TorusChain:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError("cannot read chain %s: %s" % (path, exc)) from None
    return obj_to_chain(obj)
