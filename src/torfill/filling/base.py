"""Base certificates: one cached exact filling per constant-cost move.

Every constant-cost move of the reduction engine is the pushforward of a
single universal certificate living in a low-dimensional torus.  The table
is bootstrapped once with fill_by_solve and cached on disk (directory from
TORFILL_CERT_CACHE, else ~/.cache/torfill); cached entries are re-verified
on load, so a corrupt cache fails loudly instead of poisoning proofs.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..chains import TorusChain, parallelogram_cycle
from ..errors import UnsupportedDimension
from .certificate import FillingCertificate, require_valid
from .solver import fill_by_solve

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


class CertificateCache:
    """Disk-backed, verify-on-load store of base certificates."""

    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("TORFILL_CERT_CACHE")
        if directory is None:
            directory = Path.home() / ".cache" / "torfill"
        self.directory = Path(directory)
        self._memory = {}

    def get(self, key) -> FillingCertificate:
        if key not in BASE_KEYS:
            raise UnsupportedDimension("unsupported base key %r" % (key,))
        if key in self._memory:
            return self._memory[key]
        cert = self._load(key)
        if cert is None:
            cert = self._bootstrap(key)
            self._store(key, cert)
        self._memory[key] = cert
        return cert

    def _bootstrap(self, key) -> FillingCertificate:
        target = universal_cycle(key)
        cert = fill_by_solve(target, box=1, max_expand=3)
        return require_valid(cert)

    def _load(self, key):
        from ..formats import load_certificate
        path = self.directory / _key_filename(key)
        if not path.exists():
            return None
        cert, _ = load_certificate(path)
        expected = universal_cycle(key)
        if cert.target != expected:
            raise UnsupportedDimension(
                "cached certificate %r has the wrong target" % (key,))
        return require_valid(cert)

    def _store(self, key, cert):
        from ..formats import save_certificate
        self.directory.mkdir(parents=True, exist_ok=True)
        save_certificate(self.directory / _key_filename(key), cert)

    def bootstrap_all(self):
        """Fill the whole table; returns {key: cost}."""
        return {key: self.get(key).cost for key in BASE_KEYS}


_default_cache = None


def default_cache() -> CertificateCache:
    global _default_cache
    if _default_cache is None:
        _default_cache = CertificateCache()
    return _default_cache


def base_certificate(key) -> FillingCertificate:
    """Cached certificate for a universal move cycle (computed by
    fill_by_solve on first use)."""
    return default_cache().get(key)
