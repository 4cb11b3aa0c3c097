"""Step sets into a point set, exchange decompositions, and zero-sum walks.

decompose answers whether q can be reached from p by half-steps through the
set: it solves an exact LP minimizing the violation mass over all steps from
p that stay in the set, subject to the steps summing to q - p.  A zero
optimum yields the multiset of steps; the vertex is half-integral because
the constraint matrix has column absolute sums at most 2.

zero_sum_exchange builds the closed-walk certificate that steps from q
toward r and steps from r toward q can be paired off to cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional

from . import ratlp
from .core import (
    IntPoint,
    PointSet,
    Step,
    phi_steps,  # unused here; perfbench/layers.py traces this lookup site
    phi_toward,  # unused here; perfbench/layers.py traces this lookup site
    sub,
    supp,
    violation,
)

INFEASIBLE = "infeasible"
POSITIVE_OPTIMUM = "positive_optimum"


# _OFF_SIGN[s][e] is 1 when a step entry e is nonzero and its sign is not s.
_OFF_SIGN = {s: {e: int(e not in (0, s)) for e in (-1, 0, 1)} for s in (-1, 0, 1)}


class PointNotInSet(ValueError):
    """Raised when a base point is required to be a member of the set."""


class HalfIntegralityViolated(RuntimeError):
    """An LP vertex broke the half-integrality guarantee: a solver bug."""


class ExchangeAxiomViolated(Exception):
    """A coordinate of supp(r-q) has no covering step on one side.

    This certifies that the one-step exchange axiom fails at the recorded
    (p, q, u) triple, so the walk construction's precondition is absent.
    """

    def __init__(self, p: IntPoint, q: IntPoint, u: int):
        super().__init__(f"no step from {p} toward {q} covers coordinate {u}")
        self.p = p
        self.q = q
        self.u = u


def _step_sum(steps, dim: int) -> tuple:
    """The entrywise sum of the steps; zeros when there are none."""
    return tuple(map(sum, zip(*steps))) if steps else (0,) * dim


def _require_member(B: PointSet, p) -> tuple:
    pt = tuple(p)
    if pt not in B:
        raise PointNotInSet(f"{list(pt)} is not a member of the set")
    return pt


def phi_b(B: PointSet, p: IntPoint) -> tuple:
    """Steps alpha with p + alpha in B, in lexicographic order."""
    return B.step_index[_require_member(B, p)]


def phi_b_toward(B: PointSet, p: IntPoint, q: IntPoint) -> tuple:
    """Steps toward q that also land in B: phi_b(B, p) meets phi_toward(p, q).

    This is the paper's Phi_B(p, q).  Its callers are zero_sum_exchange and
    the tests: delta-exc and jump decide coverage from sign masks of
    B.step_index and never build it.
    """
    p = _require_member(B, p)
    q = _require_member(B, q)
    return tuple(a for a in B.step_index[p] if violation(a, p, q) == 0)


@dataclass(frozen=True)
class Decomposition:
    """Steps alpha_1..alpha_k with p + (sum alpha_i)/2 = q, all landing in B.

    steps is a lexicographically sorted multiset (a tuple with repeats).
    """

    source: IntPoint
    target: IntPoint
    steps: tuple

    def __post_init__(self):
        doubled = tuple(2 * (b - a) for a, b in zip(self.source, self.target))
        if _step_sum(self.steps, len(self.source)) != doubled:
            raise ValueError("steps do not sum to twice the displacement")

    def multiplicities(self) -> tuple:
        """The distinct steps with counts, in lexicographic step order."""
        return tuple((step, len(list(run)))
                     for step, run in groupby(self.steps))


@dataclass(frozen=True)
class NoDecomposition:
    """Witness that no half-step multiset from p through B reaches q.

    reason is "infeasible" (q - p is not even in the cone of steps from p)
    or "positive_optimum" (it is, but only using steps that stray from the
    direction of q; optimal_value is the least violation mass).
    """

    source: IntPoint
    target: IntPoint
    reason: str
    optimal_value: Optional[Fraction] = None


def decompose(B: PointSet, p: IntPoint, q: IntPoint):
    """Solve the exact violation-minimizing LP; return its verdict.

    Variables are indexed by all steps from p that stay in B (not only
    steps toward q); the objective charges each step its violation mass, so
    a zero optimum uses steps toward q exclusively.
    """
    p = _require_member(B, p)
    q = _require_member(B, q)
    if p == q:
        # The right-hand side is zero, so the LP's only vertex is x = 0.
        return Decomposition(p, q, ())
    columns = phi_b(B, p)
    rows = tuple(zip(*columns)) if columns else ((),) * B.dim
    rhs = tuple(b - a for a, b in zip(p, q))
    # A step's violation mass: its nonzero entries off the sign of q - p.
    flags = [map(_OFF_SIGN[(d > 0) - (d < 0)].__getitem__, row)
             for d, row in zip(rhs, rows)]
    costs = tuple(map(sum, zip(*flags)))
    result = ratlp.solve(ratlp.StandardLP(rows, rhs, costs))
    if result.status == ratlp.INFEASIBLE:
        return NoDecomposition(p, q, INFEASIBLE)
    if result.status != ratlp.OPTIMAL:
        raise RuntimeError("violation LP cannot be unbounded: costs are >= 0")
    if result.value != 0:
        return NoDecomposition(p, q, POSITIVE_OPTIMUM, result.value)
    # x = numerators / det, so 2x is integral when det divides 2 * numerator.
    det = result.det
    steps = []
    for alpha, numerator in zip(columns, result.numerators):
        doubled, remainder = divmod(2 * numerator, det)
        if remainder:
            raise HalfIntegralityViolated(
                f"LP vertex entry {Fraction(numerator, det)} for step {alpha}"
                " is not half-integral")
        if doubled > 0:
            assert violation(alpha, p, q) == 0
            steps.extend([alpha] * doubled)
    # The columns are in lexicographic order, so the steps already are.
    return Decomposition(p, q, tuple(steps))


@dataclass(frozen=True)
class ZeroSumExchange:
    """Step multisets out of q toward r and out of r toward q, summing to zero."""

    alphas: tuple
    betas: tuple


def zero_sum_exchange(B: PointSet, q: IntPoint, r: IntPoint) -> ZeroSumExchange:
    """Build cancelling step multisets by walking the exchange graph.

    The graph lives on the coordinates where q and r differ; one edge side
    holds the supports of steps from q toward r landing in B, the other the
    supports of steps from r toward q.  Each (edge, vertex) pair picks the
    lexicographically smallest incident edge of the other side; following
    those choices yields an eventually periodic walk whose cycle alternates
    sides.  Cycle edges become steps, with self-loops counted twice.
    """
    q = _require_member(B, q)
    r = _require_member(B, r)
    if q == r:
        raise ValueError("the two points must differ")

    ends = ((q, r), (r, q))
    step_by_edge, least = [], []
    for base, goal in ends:
        edges = {tuple(u - 1 for u in supp(alpha)): alpha
                 for alpha in phi_b_toward(B, base, goal)}
        through = {}
        for edge in sorted(edges):
            for u in edge:
                through.setdefault(u, edge)
        step_by_edge.append(edges)
        least.append(through)
    for u in supp(sub(r, q)):
        for side, (base, goal) in enumerate(ends):
            if u - 1 not in least[side]:
                raise ExchangeAxiomViolated(base, goal, u)

    # A state is (side, edge, exit); a self-loop exits where it entered.
    start_edge = min(step_by_edge[0])
    state = (0, start_edge, start_edge[0])
    seen = {}
    trail = []
    while state not in seen:
        seen[state] = len(trail)
        trail.append(state)
        side, _, u = state
        edge = least[1 - side][u]
        state = (1 - side, edge, edge[0] + edge[-1] - u)
    cycle = trail[seen[state]:]
    if cycle[0][0] == 1:
        cycle = cycle[1:] + cycle[:1]

    alphas, betas = [], []
    for side, edge, _ in cycle:
        copies = 2 if len(edge) == 1 else 1
        (betas if side else alphas).extend([step_by_edge[side][edge]] * copies)
    total = _step_sum(alphas + betas, B.dim)
    assert not any(total), "walk cycle failed to cancel"
    return ZeroSumExchange(tuple(sorted(alphas)), tuple(sorted(betas)))
