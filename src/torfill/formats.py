"""Stable text formats: matrices, chains, certificates.

All big integers are serialized as decimal strings.  A chain is a list of
records {coeff, vertices}; a certificate container carries version, type
data, target, witness, cost, and the move trace.
"""

from __future__ import annotations

import contextlib
import json
import os

from .chains import TorusChain, canonicalize
from .errors import InputParseError
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


# --- chains ------------------------------------------------------------------

def chain_to_obj(c: TorusChain) -> dict:
    records = []
    for simplex, coeff in sorted(c.terms.items()):
        records.append({
            "coeff": str(coeff),
            "vertices": [[str(x) for x in v] for v in simplex],
        })
    return {"ambient_dim": c.ambient_dim, "degree": c.degree, "terms": records}


def obj_to_chain(obj) -> TorusChain:
    try:
        n = int(obj["ambient_dim"])
        k = int(obj["degree"])
        pairs = []
        for record in obj["terms"]:
            simplex = canonicalize(record["vertices"])
            if any(map(int, record["vertices"][0])):  # not at the origin
                raise ValueError("non-canonical simplex %r"
                                 % (record["vertices"],))
            pairs.append((simplex, int(record["coeff"])))
        return TorusChain.from_pairs(n, k, pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError("bad chain object: %s" % exc) from None


# --- certificates ------------------------------------------------------------

def _ints_to_strings(value):
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_ints_to_strings(v) for v in value]
    return value


def _strings_to_ints(value):
    if isinstance(value, str):
        return int(value)
    if isinstance(value, list):
        return tuple(_strings_to_ints(v) for v in value)
    return value


def certificate_to_obj(cert: FillingCertificate, trace=()) -> dict:
    return {
        "version": FORMAT_VERSION,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": chain_to_obj(cert.target),
        "witness": chain_to_obj(cert.witness),
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
    }


def obj_to_certificate(obj):
    try:
        if int(obj["version"]) != FORMAT_VERSION:
            raise ValueError("unsupported version %r" % obj["version"])
        target = obj_to_chain(obj["target"])
        witness = obj_to_chain(obj["witness"])
        cost = int(obj["cost"])
        trace = tuple(
            MoveRecord(r["kind"], _strings_to_ints(r["params"]),
                       int(r["cost"]), tuple(int(x) for x in r["class_delta"]))
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
        json.dump(certificate_to_obj(cert, trace), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_certificate(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError("cannot read certificate %s: %s" % (path, exc)) from None
    return obj_to_certificate(obj)


def save_chain(path, c: TorusChain):
    with _atomic_open(path) as fh:
        json.dump(chain_to_obj(c), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_chain(path) -> TorusChain:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError("cannot read chain %s: %s" % (path, exc)) from None
    return obj_to_chain(obj)
