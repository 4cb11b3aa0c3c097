"""Exact rational linear programming and hull membership.

Solves min c.x subject to A.x = b, x >= 0 with a two-phase primal simplex
over fractions.Fraction.  Bland's rule (smallest-index entering column;
ratio ties broken by smallest basic variable index) guarantees termination.
Optimal results are always basic feasible solutions, i.e. vertices of the
feasible region, which is what the half-integrality guarantees downstream
are about.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import DimensionMismatchError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class StandardLP:
    """min c.x  s.t.  A.x = b, x >= 0, all data exact rationals."""

    a_matrix: tuple
    b_vector: tuple
    c_vector: tuple

    @property
    def num_rows(self) -> int:
        return len(self.a_matrix)

    @property
    def num_cols(self) -> int:
        return len(self.c_vector)


def standard_lp(rows: Iterable[Iterable], rhs: Iterable, costs: Iterable) -> StandardLP:
    a_matrix = tuple(tuple(Fraction(e) for e in row) for row in rows)
    b_vector = tuple(Fraction(e) for e in rhs)
    c_vector = tuple(Fraction(e) for e in costs)
    if len(a_matrix) != len(b_vector):
        raise DimensionMismatchError(
            f"{len(a_matrix)} rows but {len(b_vector)} right-hand sides")
    for row in a_matrix:
        if len(row) != len(c_vector):
            raise DimensionMismatchError(
                f"row of length {len(row)} but {len(c_vector)} costs")
    return StandardLP(a_matrix, b_vector, c_vector)


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Optional[tuple] = None
    value: Optional[Fraction] = None


def _pivot(tableau: list, basis: list, row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [e / piv for e in tableau[row]]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            factor = other[col]
            tableau[i] = [e - factor * r for e, r in zip(other, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list, basis: list, num_cols: int) -> str:
    """Iterate Bland pivots on a tableau whose last row holds reduced costs."""
    num_rows = len(tableau) - 1
    while True:
        obj = tableau[num_rows]
        enter = next((j for j in range(num_cols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(num_rows):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (leave is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)


def solve(lp: StandardLP) -> LPResult:
    num_rows, num_cols = lp.num_rows, lp.num_cols

    # Phase 1: artificial basis, minimize the artificial mass.
    tableau = []
    for i in range(num_rows):
        sign = -1 if lp.b_vector[i] < 0 else 1
        row = [sign * e for e in lp.a_matrix[i]]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(num_rows)]
        row.append(sign * lp.b_vector[i])
        tableau.append(row)
    obj = [Fraction(0)] * (num_cols + num_rows + 1)
    for row in tableau:
        for j in range(num_cols):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    tableau.append(obj)
    basis = [num_cols + i for i in range(num_rows)]
    _run_simplex(tableau, basis, num_cols + num_rows)
    if -tableau[num_rows][-1] != 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(num_rows):
        if basis[i] < num_cols:
            keep.append(i)
            continue
        col = next((j for j in range(num_cols) if tableau[i][j] != 0), None)
        if col is not None:
            _pivot(tableau, basis, i, col)
            keep.append(i)
    tableau = [[tableau[i][j] for j in range(num_cols)] + [tableau[i][-1]]
               for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: reduced costs of c relative to the current basis.
    obj = list(lp.c_vector) + [Fraction(0)]
    for i, bj in enumerate(basis):
        if obj[bj] != 0:
            factor = obj[bj]
            obj = [e - factor * r for e, r in zip(obj, tableau[i])]
    tableau.append(obj)
    status = _run_simplex(tableau, basis, num_cols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * num_cols
    for i, bj in enumerate(basis):
        x[bj] = tableau[i][-1]
    value = sum((cj * xj for cj, xj in zip(lp.c_vector, x)), Fraction(0))
    return LPResult(OPTIMAL, tuple(x), value)


def _solve_cone(vectors: Sequence, target, tail: tuple = ()) -> LPResult:
    """Find w >= 0 with sum_i w_i (v_i, tail) = (target, tail), zero costs."""
    dim = len(target)
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError(
                f"vector of dimension {len(v)}, expected {dim}")
    rows = [[v[u] for v in vectors] for u in range(dim)]
    rows += [[e] * len(vectors) for e in tail]
    return solve(standard_lp(rows, [*target, *tail], [0] * len(vectors)))


def in_convex_hull(points: Sequence, target) -> tuple[bool, Optional[tuple]]:
    """Decide target in conv(points); on success return one coefficient vector."""
    if not points:
        raise ValueError("convex hull of an empty point list")
    result = _solve_cone(points, target, tail=(1,))
    if result.status == OPTIMAL:
        return True, result.x
    return False, None


def in_conical_hull(generators: Sequence, target) -> bool:
    """Decide whether target is a nonnegative combination of the generators."""
    return _solve_cone(generators, target).status == OPTIMAL
