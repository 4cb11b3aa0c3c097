"""Signed-vector algebra and integer-point primitives.

Vectors are plain tuples of ints.  A *signed vector* has entries in
{-1, 0, +1}; a *step* is a signed vector of 1-norm 1 or 2; a *point* is an
arbitrary integer vector.  All functions are pure; all orderings are the
lexicographic order on tuples (entrywise -1 < 0 < +1, first coordinate most
significant), which is what makes witnesses reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

SignedVector = tuple  # entries in {-1, 0, 1}
IntPoint = tuple      # entries in Z
Step = tuple          # signed vector with 1-norm 1 or 2


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different dimension are combined."""


def _check_same_dim(x, y) -> None:
    if len(x) != len(y):
        raise DimensionMismatchError(f"dimension mismatch: {len(x)} vs {len(y)}")


def _int_entries(entries: Iterable[int], what: str) -> tuple:
    """The entries as ints, read through operator.index: a non-integer such
    as 1.5, "7" or Fraction(1, 2) raises TypeError instead of truncating."""
    vec = tuple(map(operator.index, entries))
    if not vec:
        raise ValueError(f"{what} must have dimension >= 1")
    return vec


def as_signed_vector(entries: Iterable[int]) -> SignedVector:
    """Validate and normalize a signed vector; entries must be -1, 0 or +1."""
    vec = _int_entries(entries, "signed vector")
    for e in vec:
        if e not in (-1, 0, 1):
            raise ValueError(f"signed vector entry {e} not in {{-1, 0, 1}}")
    return vec


def as_point(entries: Iterable[int]) -> IntPoint:
    """A tuple of ints; non-integer entries are refused, not truncated."""
    return _int_entries(entries, "point")


def zero(dim: int) -> SignedVector:
    return (0,) * dim


def norm1(x) -> int:
    return sum(abs(e) for e in x)


def dot(p, x):
    _check_same_dim(p, x)
    return sum(a * b for a, b in zip(p, x))


def supp(x) -> tuple[int, ...]:
    """1-based indices of the nonzero entries."""
    return tuple(u + 1 for u, e in enumerate(x) if e != 0)


def add(p, q) -> tuple:
    _check_same_dim(p, q)
    return tuple(a + b for a, b in zip(p, q))


def sub(p, q) -> tuple:
    _check_same_dim(p, q)
    return tuple(a - b for a, b in zip(p, q))


def signed_vectors(dim: int) -> Iterator[SignedVector]:
    """All 3^dim signed vectors in lexicographic order."""
    return itertools.product((-1, 0, 1), repeat=dim)


def meet(x: SignedVector, y: SignedVector) -> SignedVector:
    """Componentwise: keep entries where x and y agree, zero elsewhere."""
    _check_same_dim(x, y)
    return tuple(a if a == b else 0 for a, b in zip(x, y))


def join(x: SignedVector, y: SignedVector) -> SignedVector:
    """Componentwise union of supports; conflicting signs cancel to zero."""
    _check_same_dim(x, y)
    out = []
    for a, b in zip(x, y):
        if a == b or b == 0:
            out.append(a)
        elif a == 0:
            out.append(b)
        else:
            out.append(0)
    return tuple(out)


def precedes(x: SignedVector, y: SignedVector) -> bool:
    """Signed support inclusion: every nonzero entry of x appears in y."""
    _check_same_dim(x, y)
    return all(a == 0 or a == b for a, b in zip(x, y))


@cache
def phi_steps(dim: int) -> tuple[Step, ...]:
    """All steps (signed vectors of 1-norm 1 or 2) in lexicographic order.

    There are exactly 2*dim**2 of them.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    steps = set()
    for u, v in itertools.combinations_with_replacement(range(dim), 2):
        for a, b in itertools.product((-1, 1), repeat=2):
            step = [0] * dim
            step[u], step[v] = a, b  # u == v keeps only b: a unit step
            steps.add(tuple(step))
    return tuple(sorted(steps))


def lattice_points(lo, hi, constraints) -> Iterator[IntPoint]:
    """Lazily yield, in lexicographic order, the integer points c with
    lo <= c <= hi and <c, x> <= v for every (x, v) in constraints, where
    each x is a nonzero signed vector.

    The box is walked depth first.  A constraint bounds the last
    coordinate of its support once the ones before it are fixed, so no
    prefix extends past a constraint it already violates: the cost grows
    with the prefixes that satisfy every constraint inside them, not with
    the box.
    """
    dim = len(lo)
    uppers = [[] for _ in range(dim)]
    lowers = [[] for _ in range(dim)]
    for x, v in constraints:
        last = max(u for u, e in enumerate(x) if e)
        (uppers if x[last] > 0 else lowers)[last].append((x, v))

    def extend(prefix: tuple) -> Iterator[IntPoint]:
        k = len(prefix)
        top = min([hi[k]] + [v - sum(map(mul, prefix, x))
                             for x, v in uppers[k]])
        bottom = max([lo[k]] + [sum(map(mul, prefix, x)) - v
                                for x, v in lowers[k]])
        for c in range(bottom, top + 1):
            if k + 1 == dim:
                yield prefix + (c,)
            else:
                yield from extend(prefix + (c,))

    yield from extend(())


def phi_toward(p: IntPoint, q: IntPoint) -> tuple[Step, ...]:
    """Steps every nonzero coordinate of which moves strictly toward q.

    Equivalently the steps a with |q - (p+a)|_1 = |q - p|_1 - |a|_1.
    """
    return tuple(a for a in phi_steps(len(p)) if violation(a, p, q) == 0)


def violation(r: IntPoint, p: IntPoint, q: IntPoint) -> int:
    """Mass of r on coordinates that do not move strictly from p toward q.

    Zero exactly on the steps of phi_toward(p, q); positive otherwise.
    """
    _check_same_dim(r, p)
    _check_same_dim(p, q)
    return sum(abs(e) for e, a, b in zip(r, p, q) if e * (b - a) <= 0)


@dataclass(frozen=True)
class PointSet:
    """A finite set of integer points of a fixed dimension.

    Points are deduplicated and kept in lexicographic order.  The set may be
    empty as a container (enumeration can produce no points); the axiom
    checkers require nonempty input and enforce that themselves.
    """

    dim: int
    points: tuple[IntPoint, ...]
    _members: frozenset = field(repr=False, hash=False, compare=False)

    @staticmethod
    def from_points(dim: int, points: Iterable[Iterable[int]]) -> "PointSet":
        """Entries are read by as_point: a non-integer raises TypeError."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        normalized = set()
        for p in points:
            pt = as_point(p)
            if len(pt) != dim:
                raise DimensionMismatchError(
                    f"point {pt} has dimension {len(pt)}, expected {dim}")
            normalized.add(pt)
        ordered = tuple(sorted(normalized))
        return PointSet(dim, ordered, frozenset(ordered))

    def __contains__(self, p) -> bool:
        return tuple(p) in self._members

    def __iter__(self) -> Iterator[IntPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __reduce__(self):
        # Leave the step-index memo behind: its mapping proxy cannot be pickled.
        return PointSet, (self.dim, self.points, self._members)

    @cached_property
    def step_index(self) -> Mapping[IntPoint, tuple[Step, ...]]:
        """Phi_B(p) for each member p: the steps landing in the set, in
        lexicographic order.  Built on first use; not part of equality."""
        steps = phi_steps(self.dim)
        # Points and steps share self.dim, so the sum skips add's dimension
        # check.
        return MappingProxyType({
            p: tuple(alpha for alpha in steps
                     if tuple(map(operator.add, p, alpha)) in self._members)
            for p in self.points})

    def bounding_box(self) -> tuple[IntPoint, IntPoint]:
        if not self.points:
            raise ValueError("bounding box of an empty point set")
        lo = tuple(min(p[u] for p in self.points) for u in range(self.dim))
        hi = tuple(max(p[u] for p in self.points) for u in range(self.dim))
        return lo, hi


PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a checker: PASS or FAIL plus a structured payload.

    For FAIL the payload is a minimal witness that independently re-verifies
    as a violation; for PASS it holds certificate data where the checker
    produces any (and is None otherwise).
    """

    status: str
    witness: Optional[Mapping] = None

    @property
    def passed(self) -> bool:
        return self.status == PASS


def verdict_pass(witness: Optional[Mapping] = None) -> Verdict:
    return Verdict(PASS, witness)


def verdict_fail(witness: Mapping) -> Verdict:
    return Verdict(FAIL, witness)
