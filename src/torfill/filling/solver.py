"""Exact bootstrap solver: fill a null-homologous cycle by solving the
boundary system over all candidate simplices in a coordinate box.

The boundary matrix is sparse with mostly unit entries, so the Diophantine
system is reduced by substituting out variables with +-1 pivots (exact row
operations, solvability preserved in both directions); any residual core is
handed to the dense Hermite-form solver.
"""

from __future__ import annotations

import heapq
from itertools import permutations, product

from ..chains import TorusChain, boundary, faces
from ..errors import CandidateSetTooLarge, Unfillable
from ..exactlinalg import IntMatrix, _check, solve_diophantine
from .certificate import FillingCertificate, require_valid

TUPLE_CAP = 2_500_000


def enumerate_candidates(ambient_dim, degree, box, include_degenerate):
    """Canonical vertex tuples of the degree-`degree` simplices with a
    vertex representative inside [0, box]^n."""
    points = list(product(range(box + 1), repeat=ambient_dim))
    n_vertices = degree + 1
    if include_degenerate:
        total = len(points) ** n_vertices
        source = product(points, repeat=n_vertices)
    else:
        total = 1
        for i in range(n_vertices):
            total *= max(0, len(points) - i)
        source = permutations(points, n_vertices)
    if total > TUPLE_CAP:
        raise CandidateSetTooLarge(
            "box %d would enumerate %d vertex tuples" % (box, total))
    seen = set()
    out = []
    for verts in source:
        v0 = verts[0]
        key = tuple(tuple(a - b for a, b in zip(p, v0)) for p in verts)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


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
    # dense core for whatever has no unit pivots left
    live_rows = [i for i, row in row_entries.items() if row or rhs.get(i)]
    if live_rows:
        live_cols = sorted({j for i in live_rows for j in row_entries[i]})
        if live_cols:
            index = {j: c for c, j in enumerate(live_cols)}
            dense = IntMatrix(tuple(
                tuple(row_entries[i].get(j, 0) for j in live_cols)
                for i in live_rows))
            b = tuple(rhs.get(i, 0) for i in live_rows)
            sol = solve_diophantine(dense, b)
            if sol is None:
                return None
            for j, c in index.items():
                if sol[c]:
                    x[j] = sol[c]
        else:
            if any(rhs.get(i, 0) for i in live_rows):
                return None

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


def _stage_schedule(box, max_expand, target_degenerate):
    """Boxes expand by +1; degenerate candidates join within each box before
    the next expansion (immediately when the target itself is degenerate,
    since nondegenerate witnesses have nondegenerate boundaries)."""
    stages = []
    for b in range(box, max_expand + 1):
        if not target_degenerate:
            stages.append((b, False))
        stages.append((b, True))
    return stages


def fill_by_solve(z: TorusChain, box: int = 1,
                  max_expand: int = 3) -> FillingCertificate:
    """Exact filling certificate for a cycle z via the boundary system.

    Candidates are all canonical simplices of degree deg(z)+1 with a vertex
    representative in [0, box]^n, nondegenerate first; the box expands by +1
    up to max_expand on NoSolution.  Raises Unfillable when every stage
    fails (raise the box, or the cycle is not null-homologous).
    """
    if not boundary(z).is_zero():
        raise Unfillable("fill_by_solve requires a cycle")
    if z.is_zero():
        return FillingCertificate.build(z, TorusChain.zero(z.ambient_dim,
                                                           z.degree + 1))
    target_degenerate = any(map(_degenerate, z.terms))
    last_error = None
    for b, include_degenerate in _stage_schedule(box, max_expand,
                                                 target_degenerate):
        try:
            candidates = enumerate_candidates(z.ambient_dim, z.degree + 1, b,
                                              include_degenerate)
        except CandidateSetTooLarge as exc:
            last_error = exc
            continue
        row_ids = {}

        def row_of(simplex):
            if simplex not in row_ids:
                row_ids[simplex] = len(row_ids)
            return row_ids[simplex]

        columns = []
        for cand in candidates:
            col = {}
            for i, face in enumerate(faces(cand)):
                r = row_of(face)
                v = col.get(r, 0) + (1 if i % 2 == 0 else -1)
                if v:
                    col[r] = v
                elif r in col:
                    del col[r]
            columns.append(col)
        rhs = {row_of(simplex): coeff for simplex, coeff in z.terms.items()}
        solution = _solve_sparse(columns, rhs)
        if solution is None:
            continue
        witness = TorusChain.from_pairs(
            z.ambient_dim, z.degree + 1,
            ((candidates[j], v) for j, v in solution.items()))
        return require_valid(FillingCertificate.build(z, witness))
    if last_error is not None:
        raise CandidateSetTooLarge(str(last_error))
    raise Unfillable("no filling with vertices in [0,%d]^%d"
                     % (max_expand, z.ambient_dim))
