"""Set-up probe: one fresh process doing a run's set-up, then exiting.

    python3 perfbench/probe.py <src dir> <bootstrap 0|1>

Imports the torfill modules an item uses and, with bootstrap 1, fills the
base-certificate table cold into $TORFILL_CERT_CACHE (which the caller
points at an empty directory).  It prints one JSON line when the first item
could start: the base costs, keyed like "NEGATE_2".  The caller times the
process from its start to that line.
"""

import json
import sys


def import_torfill(src):
    """Import the torfill modules an item uses from `src`; returns the cli
    module and the base-certificate cache accessor."""
    sys.path.insert(0, src)
    import torfill.cli
    import torfill.formats  # noqa: F401
    import torfill.psl2z  # noqa: F401
    import torfill.spectral  # noqa: F401
    from torfill.filling.base import default_cache
    return torfill.cli, default_cache


def key_name(key):
    """("NEGATE", 2) -> "NEGATE_2"."""
    return "_".join(str(part) for part in key)


def main(src, bootstrap):
    _, default_cache = import_torfill(src)
    costs = {}
    if bootstrap:
        costs = {key_name(key): cost
                 for key, cost in default_cache().bootstrap_all().items()}
    print(json.dumps({"base_costs": costs}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
