"""Exact rational linear programming and hull membership.

Solves min c.x subject to A.x = b, x >= 0 with a two-phase primal simplex
on a fraction-free integer tableau (integer pivoting in the style of
Edmonds and Bareiss).  A and b are scaled once by the lcm of their
denominators and c by the lcm of its own, so every tableau entry is
integral.
The solver keeps one running determinant det > 0 with the invariant

    tableau = det * true tableau,

where the true tableau is the one a rational simplex would hold.  A pivot
updates each entry as (e * piv - f * r) / det, a division that is always
exact; a remainder raises InexactPivot.  solve computes the lcm of the A
and b denominators only when one of their entries is not an int, and the
same for c; ints enter the tableau as they are (standard_lp stores
integral entries as ints).  A result carries
the basic solution as integral numerators over the final det; its x, a
tuple of Fractions, is built on first access.
Bland's rule (smallest-index entering column; ratio ties broken by
smallest basic variable index, ratios compared by cross-multiplying)
guarantees termination and fixes the pivot sequence.
Optimal results are always basic feasible solutions, i.e. vertices of the
feasible region, which is what the half-integrality guarantees downstream
are about.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Iterable, Optional, Sequence

from .core import DimensionMismatchError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

@dataclass(frozen=True)
class StandardLP:
    """min c.x  s.t.  A.x = b, x >= 0; every entry an int or a Fraction."""

    a_matrix: tuple
    b_vector: tuple
    c_vector: tuple

    @property
    def num_rows(self) -> int:
        return len(self.a_matrix)

    @property
    def num_cols(self) -> int:
        return len(self.c_vector)


def _exact(e):
    """An int as given, a Fraction with denominator 1 as its int, any other
    rational as a Fraction."""
    if isinstance(e, int):
        return e
    e = e if isinstance(e, Fraction) else Fraction(e)
    return e.numerator if e.denominator == 1 else e


def standard_lp(rows: Iterable[Iterable], rhs: Iterable, costs: Iterable) -> StandardLP:
    a_matrix = tuple(tuple(map(_exact, row)) for row in rows)
    b_vector = tuple(map(_exact, rhs))
    c_vector = tuple(map(_exact, costs))
    if len(a_matrix) != len(b_vector):
        raise DimensionMismatchError(
            f"{len(a_matrix)} rows but {len(b_vector)} right-hand sides")
    for row in a_matrix:
        if len(row) != len(c_vector):
            raise DimensionMismatchError(
                f"row of length {len(row)} but {len(c_vector)} costs")
    return StandardLP(a_matrix, b_vector, c_vector)


@dataclass(frozen=True, eq=False)
class LPResult:
    """x[j] = numerators[j] / det; equality and the hash use (status, x, value).

    solve gives integral numerators over its final determinant.  With det 1
    the numerators may be any rationals, and then they are x itself; the
    constructor takes no x.
    """

    status: str
    numerators: Optional[tuple] = None
    value: Optional[Fraction] = None
    det: int = 1

    @cached_property
    def x(self) -> Optional[tuple]:
        if self.numerators is None:
            return None
        return tuple(Fraction(n, self.det) for n in self.numerators)

    def _key(self) -> tuple:
        return self.status, self.x, self.value

    def __eq__(self, other):
        if not isinstance(other, LPResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class InexactPivot(RuntimeError):
    """A pivot division left a remainder: a solver bug, never rounded away."""


def _exact_quotients(values: list, det: int) -> list:
    quotients = [e // det for e in values]
    if any(e % det for e in values):
        raise InexactPivot(f"pivot update not divisible by determinant {det}")
    return quotients


def _pivot(tableau: list, basis: list, row: int, col: int, det: int) -> int:
    """Pivot on (row, col) and return the new determinant.

    det is |det| of the current basis of the scaled integer input, so det
    times the true tableau is integral by Cramer's rule.  With piv =
    tableau[row][col], the new basis has |det| = det * |piv / det| = |piv|,
    and every other row becomes (e * piv - factor * r) / det, an exact
    division.  A negative pivot (possible only when driving out an
    artificial) first negates its row, which keeps the determinant positive.
    """
    pivot_row = tableau[row]
    piv = pivot_row[col]
    if piv < 0:
        piv = -piv
        pivot_row = tableau[row] = [-e for e in pivot_row]
    for i, other in enumerate(tableau):
        factor = other[col]
        if i == row or (factor == 0 and piv == det):
            continue
        if factor == 0:
            updated = [e * piv for e in other]
        else:
            updated = [e * piv - factor * r for e, r in zip(other, pivot_row)]
        tableau[i] = updated if det == 1 else _exact_quotients(updated, det)
    basis[row] = col
    return piv


def _run_simplex(tableau: list, basis: list, num_cols: int,
                 det: int) -> tuple[str, int]:
    """Iterate Bland pivots on a tableau whose last row holds reduced costs.

    Returns the status and the final determinant.  Ratios rhs / coeff are
    compared by cross-multiplying; both coefficients are positive.
    """
    num_rows = len(tableau) - 1
    while True:
        obj = tableau[num_rows]
        for enter in range(num_cols):
            if obj[enter] < 0:
                break
        else:
            return OPTIMAL, det
        leave = None
        for i in range(num_rows):
            coeff = tableau[i][enter]
            if coeff > 0:
                rhs = tableau[i][-1]
                if leave is None:
                    leave, best_rhs, best_coeff = i, rhs, coeff
                    continue
                left, right = rhs * best_coeff, best_rhs * coeff
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave, best_rhs, best_coeff = i, rhs, coeff
        if leave is None:
            return UNBOUNDED, det
        det = _pivot(tableau, basis, leave, enter, det)


def _scaled(values, scale: int) -> list:
    """values * scale as ints, where scale is a multiple of each denominator."""
    return [e.numerator * (scale // e.denominator) for e in values]


def solve(lp: StandardLP) -> LPResult:
    num_rows, num_cols = lp.num_rows, lp.num_cols
    # Scale A and b by one positive factor and c by another.  The artificial
    # columns stay unit columns, so each artificial is rescaled too: no
    # sign or ratio order that Bland's rule tests changes, and once the
    # artificials leave, the tableau is that of the unscaled LP.
    a_matrix, b_vector = lp.a_matrix, lp.b_vector
    if set(map(type, chain(*a_matrix, b_vector))) - {int}:
        scale = lcm(*{e.denominator for e in chain(*a_matrix, b_vector)})
        a_matrix = [_scaled(row, scale) for row in a_matrix]
        b_vector = _scaled(b_vector, scale)
    costs, cost_scale = lp.c_vector, 1
    if set(map(type, costs)) - {int}:
        cost_scale = lcm(*(e.denominator for e in costs))
        costs = _scaled(costs, cost_scale)

    # Phase 1: artificial basis, minimize the artificial mass.
    # Each row is sign-fixed so that its right-hand side is >= 0, and ends
    # in its artificial's unit column and that right-hand side.
    tableau = [[-e for e in a_row] if b < 0 else list(a_row)
               for a_row, b in zip(a_matrix, b_vector)]
    # The artificial mass as reduced costs: minus the column sums.
    obj = [-sum(column) for column in zip(*tableau)] or [0] * num_cols
    obj += [0] * num_rows
    obj.append(-sum(map(abs, b_vector)))
    tail = [0] * (num_rows + 1)
    for i, (row, b) in enumerate(zip(tableau, b_vector)):
        row += tail
        row[num_cols + i] = 1
        row[-1] = abs(b)
    tableau.append(obj)
    basis = [num_cols + i for i in range(num_rows)]
    _, det = _run_simplex(tableau, basis, num_cols + num_rows, 1)
    if tableau[num_rows][-1] != 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificials out of the basis; drop redundant rows.
    del tableau[num_rows]
    keep = []
    for i in range(num_rows):
        if basis[i] < num_cols:
            keep.append(i)
            continue
        for col in range(num_cols):
            if tableau[i][col] != 0:
                det = _pivot(tableau, basis, i, col, det)
                keep.append(i)
                break
    if len(keep) < num_rows:
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
    for row in tableau:
        del row[num_cols:-1]

    # Phase 2: reduced costs of c relative to the current basis, times det.
    obj = [det * e for e in costs] + [0]
    for i, bj in enumerate(basis):
        factor = costs[bj]
        if factor != 0:
            obj = [e - factor * r for e, r in zip(obj, tableau[i])]
    tableau.append(obj)
    status, det = _run_simplex(tableau, basis, num_cols, det)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    numerators = [0] * num_cols
    for i, bj in enumerate(basis):
        numerators[bj] = tableau[i][-1]
    # The objective row ends in -det * cost_scale * c.x.
    return LPResult(OPTIMAL, tuple(numerators),
                    Fraction(-tableau[-1][-1], det * cost_scale), det)


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
