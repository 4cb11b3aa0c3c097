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
from functools import cache, cached_property
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
# about 1.1 s on one core of an Intel Xeon (Python 3.11): 0.1 s builds the
# support function, 0.3 s runs the local test and 0.5-0.6 s enumerates.
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
        # The origin sits at the center rank, len(values) // 2.
        center = len(self.values) // 2
        return tuple((x, v) for r, (x, v) in enumerate(self.entries())
                     if v != INF and r != center)

    @cached_property
    def singleton_values(self) -> tuple:
        """Pairs (f(+chi_u), f(-chi_u)) for each coordinate u."""
        # +chi_u and -chi_u sit 3^(dim-1-u) above and below the center rank.
        values = self.values
        center = len(values) // 2
        weights = (3 ** (self.dim - 1 - u) for u in range(self.dim))
        return tuple((values[center + w], values[center - w]) for w in weights)


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


@cache
def _local_rows(dim: int) -> tuple:
    """The conditions of _locally_bisubmodular as rows (i, j, k, l), each
    meaning values[i] + values[j] >= values[k] + values[l].

    A table passes the local test iff it meets every row.  There are about
    3^dim * dim^2 rows, so the tuple suits the samplers' small dims only;
    _locally_bisubmodular keeps its loops for tables of any dim.
    """
    weights = [3 ** (dim - 1 - i) for i in range(dim)]
    rows = []
    for r, x in enumerate(signed_vectors(dim)):
        free = [w for w, e in zip(weights, x) if e == 0]
        for k, w in enumerate(free):
            rows.append((r + w, r - w, r, r))
            for v in free[k + 1:]:
                for a in (w, -w):
                    for b in (v, -v):
                        rows.append((r + a, r + b, r, r + a + b))
    return tuple(rows)


# Digit tables of meet and join: entry [a + 1][b + 1] is the rank digit of
# meet(a, b) or join(a, b) for signed entries a, b.
_MEET_DIGITS = ((0, 1, 1), (1, 1, 1), (1, 1, 2))
_JOIN_DIGITS = ((0, 0, 1), (0, 1, 2), (1, 2, 2))


def _pair_ranks(x: SignedVector, digits: tuple) -> list:
    """The ranks of meet(x, y), or of join(x, y), for every y in rank order.

    Rank digits are per coordinate, so each coordinate of x extends every
    prefix rank by the three digits in its row of the table.
    """
    ranks = [0]
    for e in x:
        row = digits[e + 1]
        ranks = [3 * r + d for r in ranks for d in row]
    return ranks


def check_bisubmodular(f: BisubFunction) -> Verdict:
    """Test f(x) + f(y) >= f(meet) + f(join) for all pairs x, y.

    A finite table passing the local test passes at 3^dim * dim^2 cost.
    Any other table is scanned once per unordered pair x < y.  An infinite
    left side never violates; a finite left side against an infinite right
    side does.  FAIL carries the lexicographically first violating ordered
    pair.  Meet and join are symmetric and x = y never violates, so that
    pair always has x < y and the scan of the pairs with x < y, in
    lexicographic order, meets it first.

    The scan works on table ranks.  For each x with finite f(x) it builds
    the ranks of meet(x, y) and join(x, y) for every y from two 3x3 digit
    tables, so the inner loop only reads and compares values; meet and
    join are built only for the witness.  The scan still grows as 9^dim:
    the support function of the dim-8 two-point set {0, (1,1,1,0,0,0,0,0)}
    fails the local test and takes about 2 s to reach its witness, on one
    core of an Intel Xeon (Python 3.11).
    """
    if INF not in f.values and _locally_bisubmodular(f):
        return verdict_pass()
    vectors = tuple(signed_vectors(f.dim))
    values = f.values
    for i, x in enumerate(vectors):
        fx = values[i]
        if fx == INF:
            continue
        meets = _pair_ranks(x, _MEET_DIGITS)
        joins = _pair_ranks(x, _JOIN_DIGITS)
        # An infinite f(y) makes the left side infinite: no violation.
        for k, fy in enumerate(values[i + 1:], i + 1):
            if fx + fy < values[meets[k]] + values[joins[k]]:
                y = vectors[k]
                return verdict_fail({
                    "x": x, "y": y, "meet": meet(x, y), "join": join(x, y),
                    "lhs": fx + fy, "rhs": values[meets[k]] + values[joins[k]],
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
    # The walk yields distinct int tuples in lexicographic order already.
    points = tuple(lattice_points(lo, hi, f.finite_constraints))
    return PointSet(f.dim, points, frozenset(points))


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
