"""Base certificates: one shipped exact filling per constant-cost move.

Every constant-cost move of the reduction engine is the pushforward of a
single universal certificate living in a low-dimensional torus.  The table
of 11 ships as package data in base_table/.  Each entry is a minimum-cost
filling over a fixed candidate box: the offline integer-program tool
tools/min_base_certs.py wrote seven, and the other four (cost 0 or 1) are
fill_by_solve's first solutions.  Each entry is re-verified exactly when a
process first loads it, so a missing or corrupt file fails loudly instead
of poisoning proofs.
"""

from __future__ import annotations

import functools
from pathlib import Path
from types import SimpleNamespace

from ..chains import TorusChain, parallelogram_cycle
from ..errors import (InputParseError, UnsupportedDimension,
                      VerificationFailure)
from .certificate import FillingCertificate, require_valid

TABLE_DIR = Path(__file__).parent / "base_table"


def _basis(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def universal_cycle(key) -> TorusChain:
    """The universal target cycle of a base key.

    REARR(2)  transposing the two generators negates the cycle exactly, so
              the universal target is the zero chain in T^2.
    REARR(3)  Q(E1,E2,E3) + Q(E1,E3,E2) in T^3 (last-two transposition).
    NEGATE(2) Q(E1,E2) + Q(-E1,E2) in T^2.
    SPLIT(2)  Q(E1,E2+E3) - Q(E1,E2) - Q(E1,E3) in T^3.
    ZERO(k)   Q(E1,..,Ek,0) in T^k, k = 1, 2.
    DEHN(k)   Q(E1,E2) - Q(E1,E2-k*E1) in T^2, k = 0..3.
    DOUBLE_HALVE  Q(E1,2*E2) - Q(2*E1,E2) in T^2.
    """
    kind = key[0]
    if kind == "REARR" and key[1] == 2:
        return TorusChain.zero(2, 2)
    if kind == "REARR" and key[1] == 3:
        e1, e2, e3 = _basis(3)
        return parallelogram_cycle([e1, e2, e3]) + parallelogram_cycle([e1, e3, e2])
    if kind == "NEGATE" and key[1] == 2:
        e1, e2 = _basis(2)
        return parallelogram_cycle([e1, e2]) + parallelogram_cycle([(-1, 0), e2])
    if kind == "SPLIT" and key[1] == 2:
        e1, e2, e3 = _basis(3)
        return (parallelogram_cycle([e1, (0, 1, 1)])
                - parallelogram_cycle([e1, e2])
                - parallelogram_cycle([e1, e3]))
    if kind == "ZERO" and key[1] in (1, 2):
        k = key[1]
        gens = _basis(k) + [(0,) * k]
        return parallelogram_cycle(gens)
    if kind == "DEHN" and key[1] in (0, 1, 2, 3):
        kappa = key[1]
        e1, e2 = _basis(2)
        return (parallelogram_cycle([e1, e2])
                - parallelogram_cycle([e1, (-kappa, 1)]))
    if kind == "DOUBLE_HALVE":
        e1, e2 = _basis(2)
        return (parallelogram_cycle([e1, (0, 2)])
                - parallelogram_cycle([(2, 0), e2]))
    raise UnsupportedDimension("no universal cycle for key %r" % (key,))


BASE_KEYS = (
    ("REARR", 2), ("REARR", 3), ("NEGATE", 2), ("SPLIT", 2),
    ("ZERO", 1), ("ZERO", 2),
    ("DEHN", 0), ("DEHN", 1), ("DEHN", 2), ("DEHN", 3),
    ("DOUBLE_HALVE",),
)


def _key_filename(key) -> str:
    return "_".join(str(part).lower() for part in key) + ".json"


@functools.cache
def base_certificate(key) -> FillingCertificate:
    """The shipped certificate for a universal move cycle, loaded and
    exactly re-verified on first use in a process."""
    from ..formats import load_certificate
    if key not in BASE_KEYS:
        raise UnsupportedDimension("unsupported base key %r" % (key,))
    try:
        cert, _ = load_certificate(TABLE_DIR / _key_filename(key))
        if cert.target != universal_cycle(key):
            raise VerificationFailure("its target is not the universal cycle")
        return require_valid(cert)
    except (InputParseError, VerificationFailure) as exc:
        raise VerificationFailure("base certificate %r: %s" % (key, exc)) from None


def base_costs():
    """{key: cost} over the whole table."""
    return {key: base_certificate(key).cost for key in BASE_KEYS}


_TABLE = SimpleNamespace(get=base_certificate, bootstrap_all=base_costs)


def default_cache():
    """The table as an object with get(key) and bootstrap_all(), the
    interface the benchmark harness calls."""
    return _TABLE
