"""Exact bootstrap solver: fill a null-homologous cycle by solving the
boundary system over all candidate simplices in a coordinate box.

Each stage of the box expansion counts its vertex tuples before it builds
any.  The solver stops at the first box whose nondegenerate count is over
TUPLE_CAP, since every later stage counts at least as many, and skips a
degenerate stage over the cap, since the next box's nondegenerate count can
be smaller.

The boundary matrix is sparse with mostly unit entries, so the Diophantine
system is reduced by substituting out variables with +-1 pivots (exact row
operations, solvability preserved in both directions); any residual core is
handed to the dense Hermite-form solver.
"""

from __future__ import annotations

import heapq
from itertools import permutations, product
from math import perm

from ..chains import TorusChain, _canon_fast, boundary, faces
from ..errors import CandidateSetTooLarge, Unfillable
from ..exactlinalg import IntMatrix, _check, solve_diophantine
from .certificate import FillingCertificate, require_valid

TUPLE_CAP = 2_500_000


def enumerate_candidates(ambient_dim, degree, box, include_degenerate):
    """Canonical vertex tuples of the degree-`degree` simplices with a
    vertex representative inside [0, box]^n, in order of first appearance.
    Raises CandidateSetTooLarge, before building anything, when the vertex
    tuples to enumerate number more than TUPLE_CAP."""
    points = (box + 1) ** ambient_dim
    n_vertices = degree + 1
    total = (points ** n_vertices if include_degenerate
             else perm(points, n_vertices))
    if total > TUPLE_CAP:
        raise CandidateSetTooLarge(
            "box %d would enumerate %d vertex tuples" % (box, total))
    grid = list(product(range(box + 1), repeat=ambient_dim))
    source = (product(grid, repeat=n_vertices) if include_degenerate
              else permutations(grid, n_vertices))
    return list(dict.fromkeys(map(_canon_fast, source)))


def _degenerate(simplex):
    return len(set(simplex)) != len(simplex)


def _solve_sparse(columns, rhs):
    """One integer solution x of (sparse columns) @ x = rhs, or None.

    columns: list of dict{row_id: coeff}; rhs: dict{row_id: value}.
    Unit-pivot elimination with a lazy heap on row fill; the +-1 pivot makes
    each substitution integral and exactly reversible, so the reduced system
    is solvable iff the original is.  Rows without unit entries are sent to
    the dense Hermite solver.
    """
    col_entries = {}
    row_entries = {}
    for j, col in enumerate(columns):
        if col:
            col_entries[j] = dict(col)
    for j, col in col_entries.items():
        for i, v in col.items():
            row_entries.setdefault(i, {})[j] = v
    rhs = {i: v for i, v in rhs.items() if v}
    for i in rhs:
        row_entries.setdefault(i, {})

    substitutions = []  # (col, pivot_coeff, row_snapshot, rhs_value)
    heap = [(len(cols), i) for i, cols in row_entries.items()]
    heapq.heapify(heap)

    def drop_entry(i, j):
        row_entries[i].pop(j, None)
        col = col_entries.get(j)
        if col:
            col.pop(i, None)
            if not col:
                del col_entries[j]

    while heap:
        size, i = heapq.heappop(heap)
        row = row_entries.get(i)
        if row is None:
            continue
        if len(row) != size:
            heapq.heappush(heap, (len(row), i))
            continue
        if not row:
            if rhs.get(i, 0):
                return None  # 0 = nonzero: certified infeasible
            del row_entries[i]
            continue
        unit_cols = [j for j, v in row.items() if v in (1, -1)]
        if not unit_cols:
            continue  # leave for the dense core
        j = min(unit_cols, key=lambda jj: len(col_entries.get(jj, ())))
        piv = row[j]
        row_snapshot = dict(row)
        b_i = rhs.pop(i, 0)
        # remove row i
        for jj in list(row):
            drop_entry(i, jj)
        del row_entries[i]
        # substitute x_j out of the other rows
        col = col_entries.pop(j, {})
        for i2, coeff in list(col.items()):
            row2 = row_entries[i2]
            factor = coeff // piv  # piv = +-1, exact
            for jj, v in row_snapshot.items():
                if jj == j:
                    continue
                new = row2.get(jj, 0) - factor * v
                if new:
                    row2[jj] = new
                    col_entries.setdefault(jj, {})[i2] = new
                else:
                    drop_entry(i2, jj)
            row2.pop(j, None)
            rhs[i2] = rhs.get(i2, 0) - factor * b_i
            if not rhs[i2]:
                del rhs[i2]
            heapq.heappush(heap, (len(row2), i2))
        substitutions.append((j, piv, row_snapshot, b_i))

    x = {}
    # dense core for whatever has no unit pivots left: every row still here
    # has entries, since an emptied row is pushed again and settled on pop
    live_rows = list(row_entries)
    if live_rows:
        live_cols = sorted({j for i in live_rows for j in row_entries[i]})
        dense = IntMatrix(tuple(
            tuple(row_entries[i].get(j, 0) for j in live_cols)
            for i in live_rows))
        sol = solve_diophantine(dense, tuple(rhs.get(i, 0) for i in live_rows))
        if sol is None:
            return None
        x = {j: v for j, v in zip(live_cols, sol) if v}

    for j, piv, row_snapshot, b_i in reversed(substitutions):
        s = b_i
        for jj, v in row_snapshot.items():
            if jj != j:
                s -= v * x.get(jj, 0)
        val = s // piv
        _check(val * piv == s, "back-substitution through a pivot of %d"
               " is not exact" % piv)
        if val:
            x[j] = val
    return x


def fill_by_solve(z: TorusChain, box: int = 1,
                  max_expand: int = 3) -> FillingCertificate:
    """Exact filling certificate for a cycle z via the boundary system.

    Candidates are all canonical simplices of degree deg(z)+1 with a vertex
    representative in [0, b]^n for b = box, .., max_expand; in each box the
    nondegenerate ones come first, and the degenerate ones join.  Raises
    CandidateSetTooLarge at the first box over the cap, an over-cap
    degenerate stage being skipped unless it is the last or only one, and
    Unfillable when every stage fails (raise the box, or the cycle is not
    null-homologous).
    """
    if not boundary(z).is_zero():
        raise Unfillable("fill_by_solve requires a cycle")
    if z.is_zero():
        return FillingCertificate.build(z, TorusChain.zero(z.ambient_dim,
                                                           z.degree + 1))
    # nondegenerate witnesses have nondegenerate boundaries
    stages = (True,) if any(map(_degenerate, z.terms)) else (False, True)
    for b in range(box, max_expand + 1):
        for include_degenerate in stages:
            try:
                candidates = enumerate_candidates(
                    z.ambient_dim, z.degree + 1, b, include_degenerate)
            except CandidateSetTooLarge:
                # every later stage counts at least as many tuples, but for
                # the next box's nondegenerate one: in T^1 its (b+2)(b+1)b
                # triples undercut the (b+1)^3 degenerate ones of box b
                if include_degenerate and len(stages) == 2 and b < max_expand:
                    continue
                raise
            row_ids = {}
            columns = []
            for cand in candidates:
                col = {}
                for i, face in enumerate(faces(cand)):
                    r = row_ids.setdefault(face, len(row_ids))
                    v = col.get(r, 0) + (1 if i % 2 == 0 else -1)
                    if v:
                        col[r] = v
                    elif r in col:
                        del col[r]
                columns.append(col)
            rhs = {row_ids.setdefault(simplex, len(row_ids)): coeff
                   for simplex, coeff in z.terms.items()}
            solution = _solve_sparse(columns, rhs)
            if solution is None:
                continue
            witness = TorusChain.from_pairs(
                z.ambient_dim, z.degree + 1,
                ((candidates[j], v) for j, v in solution.items()))
            return require_valid(FillingCertificate.build(z, witness))
    raise Unfillable("no filling with vertices in [0,%d]^%d"
                     % (max_expand, z.ambient_dim))
