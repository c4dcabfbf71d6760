"""Minimum-cost base table: rewrite src/torfill/filling/base_table/*.json
with the cheapest filling that each key's candidate box admits.

    python3 tools/min_base_certs.py

For each key in BOXES this solves the integer program

    minimise  sum_j (p_j + m_j)  subject to  D (p - m) = z,  p, m >= 0 integral,

where z is the key's universal cycle and the columns of D are the
boundaries of the candidates of solver.enumerate_candidates(..., box,
include_degenerate=True).  x = p - m is the witness and the objective its
l1 norm, the certificate cost.  scipy.optimize.milp (HiGHS) solves it, and
the same program over the reals gives the box's LP lower bound.

Each solution is checked exactly with require_valid and written through
formats.save_certificate, so criterion 8's byte check holds, and only when it
costs strictly less than the shipped certificate: a second run leaves every
file byte-identical.  The table is then reloaded through the package's
loader.  One key=value line per key: box, candidates, MILP status, cost, LP
bound, the shipped cost before the run, and whether the file was replaced.

The one key not in BOXES is at its floor already: DEHN/1 costs 1.  This is
the only code in the repository that imports scipy; torfill needs only the
standard library.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import csr_matrix, hstack

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torfill.chains import TorusChain, faces  # noqa: E402
from torfill.filling.base import (TABLE_DIR, _key_filename,  # noqa: E402
                                  base_certificate, base_costs,
                                  universal_cycle)
from torfill.filling.certificate import (FillingCertificate,  # noqa: E402
                                         require_valid)
from torfill.filling.solver import enumerate_candidates  # noqa: E402
from torfill.formats import save_certificate  # noqa: E402

BOXES = {
    ("SPLIT", 2): 1,
    ("ZERO", 1): 2, ("ZERO", 2): 2, ("DEHN", 2): 2,
    ("DOUBLE_HALVE",): 2,
    ("DEHN", 3): 3,
}
TIME_LIMIT_S = 600.0
STATUS = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}


def boundary_system(z: TorusChain, box: int):
    """(candidates, D, rhs): D is the sparse boundary matrix over the box's
    candidates, one row per face or target simplex, and rhs is z on those
    rows.  A target simplex no candidate reaches keeps an empty row, so the
    program is infeasible rather than wrong."""
    candidates = enumerate_candidates(z.ambient_dim, z.degree + 1, box,
                                      include_degenerate=True)
    row_ids = {}
    rows, cols, vals = [], [], []
    for j, cand in enumerate(candidates):
        for i, face in enumerate(faces(cand)):
            rows.append(row_ids.setdefault(face, len(row_ids)))
            cols.append(j)
            vals.append(1 if i % 2 == 0 else -1)  # duplicates are summed
    for simplex in z.terms:
        row_ids.setdefault(simplex, len(row_ids))
    d = csr_matrix((vals, (rows, cols)), shape=(len(row_ids), len(candidates)))
    rhs = np.zeros(len(row_ids))
    for simplex, coeff in z.terms.items():
        rhs[row_ids[simplex]] = coeff
    return candidates, d, rhs


def min_cost_filling(key, box):
    """(candidate count, MILP result, LP bound, certificate or None)."""
    z = universal_cycle(key)
    candidates, d, rhs = boundary_system(z, box)
    n = len(candidates)
    cost = np.ones(2 * n)
    constraint = LinearConstraint(hstack([d, -d]).tocsr(), rhs, rhs)
    lp = milp(cost, integrality=np.zeros(2 * n), constraints=constraint)
    res = milp(cost, integrality=np.ones(2 * n), constraints=constraint,
               options={"time_limit": TIME_LIMIT_S})
    cert = None
    if res.x is not None:
        x = np.rint(res.x[:n] - res.x[n:]).astype(np.int64)
        witness = TorusChain.from_pairs(
            z.ambient_dim, z.degree + 1,
            ((candidates[j], int(x[j])) for j in np.flatnonzero(x)))
        cert = require_valid(FillingCertificate.build(z, witness))
    return len(candidates), res, lp.fun, cert


def main():
    t_all = time.time()
    for key, box in BOXES.items():
        t0 = time.time()
        shipped = base_certificate(key).cost
        n, res, lp_bound, cert = min_cost_filling(key, box)
        replaced = cert is not None and cert.cost < shipped
        if replaced:
            save_certificate(TABLE_DIR / _key_filename(key), cert)
        print("key=%s box=%d candidates=%d status=%s cost=%s lp_bound=%s"
              " shipped=%d replaced=%s time_s=%.2f"
              % ("/".join(map(str, key)), box, n,
                 STATUS.get(res.status, "other"),
                 cert.cost if cert else "none",
                 "none" if lp_bound is None else "%.4g" % lp_bound,
                 shipped, replaced, time.time() - t0), flush=True)
    base_certificate.cache_clear()
    costs = base_costs()  # every file again through the package's loader
    print("table=%s total_s=%.2f" % (
        ",".join("%s:%d" % ("/".join(map(str, k)), c)
                 for k, c in costs.items()), time.time() - t_all))


if __name__ == "__main__":
    main()
