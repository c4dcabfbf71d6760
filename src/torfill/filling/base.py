"""Base certificates: one shipped exact filling per constant-cost move.

Every constant-cost move of the reduction engine is the pushforward of a
single universal certificate living in a low-dimensional torus.  The table
of 7 ships as package data in base_table/.  Each entry is a minimum-cost
filling over a fixed candidate box: the offline integer-program tool
tools/min_base_certs.py wrote six, and the seventh, DEHN/1 at cost 1, is
fill_by_solve's first solution.  Each entry is re-verified exactly when a
process first loads it, so a missing or corrupt file fails loudly instead
of poisoning proofs.
"""

from __future__ import annotations

import functools
from pathlib import Path
from types import SimpleNamespace

from ..chains import TorusChain
from ..errors import (InputParseError, UnsupportedDimension,
                      VerificationFailure)
from .certificate import (FillingCertificate, presentation_chain,
                          require_valid)

TABLE_DIR = Path(__file__).parent / "base_table"


# Each key's universal target as ((coeff, gens), ...), a signed sum of
# parallelogram cycles Q(gens) in T^m, m = len(gens[0]); the keys in
# BASE_KEYS order.
_PRESENTATIONS = {
    ("SPLIT", 2): ((1, ((1, 0, 0), (0, 1, 1))), (-1, ((1, 0, 0), (0, 1, 0))),
                   (-1, ((1, 0, 0), (0, 0, 1)))),
    ("ZERO", 1): ((1, ((1,), (0,))),),
    ("ZERO", 2): ((1, ((1, 0), (0, 1), (0, 0))),),
    **{("DEHN", k): ((1, ((1, 0), (0, 1))), (-1, ((1, 0), (-k, 1))))
       for k in range(1, 4)},
    ("DOUBLE_HALVE",): ((1, ((1, 0), (0, 2))), (-1, ((2, 0), (0, 1)))),
}

BASE_KEYS = tuple(_PRESENTATIONS)


def universal_presentation(key) -> tuple:
    """The universal target of a base key as ((coeff, gens), ...), from the
    constant table above."""
    try:
        return _PRESENTATIONS[key]
    except KeyError:
        raise UnsupportedDimension("no universal cycle for key %r"
                                   % (key,)) from None


def universal_cycle(key) -> TorusChain:
    """The universal target cycle of a base key: its presentation summed."""
    presentation = universal_presentation(key)
    gens = presentation[0][1]
    return presentation_chain(len(gens[0]), len(gens), presentation)


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
        cert = load_certificate(TABLE_DIR / _key_filename(key))
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
