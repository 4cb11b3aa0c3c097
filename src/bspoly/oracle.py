"""Independent ground truth for BS-convexity, generators, and the harness.

The oracle decides BS-convexity without touching the exchange machinery: it
builds the support function of the input set, checks bisubmodularity of
that table, and re-enumerates the integer points of its polyhedron.  The
axiom checkers and the oracle are three independent routes to the same
answer.  The harness runs all of them on the point sets it is given, one
at a time from an iterator such as exhaustive_point_sets, and treats any
disagreement as a fatal finding to be reported, never auto-resolved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional

from . import axioms
from .bisubmod import (
    BisubFunction,
    _local_rows,
    _locally_bisubmodular,
    check_bisubmodular,
    enumerate_integer_points,
)
from .core import (
    PointSet,
    Verdict,
    signed_vectors,
    verdict_fail,
    verdict_pass,
)


_MAX_GRID_CELLS = 16


class RejectionBudgetExceeded(RuntimeError):
    """Rejection sampling used up its attempt budget without an accept."""


def support_function(B: PointSet) -> BisubFunction:
    """f(x) = max over members p of <p, x>; always finite and integral.
    Rows are folded 64 members at a time, so at most 65 are alive."""
    if len(B) == 0:
        raise ValueError("point set must be nonempty")
    points = B.points
    values = _inner_products(points[0])
    for start in range(1, len(points), 64):
        rows = map(_inner_products, points[start:start + 64])
        values = list(map(max, values, *rows))
    return BisubFunction(B.dim, tuple(values))


def _inner_products(p) -> list:
    """<p, x> for every signed vector x, in signed_vectors order.

    Each coordinate a of p extends every prefix sum by -a, 0 and a.
    """
    values = [0]
    for a in p:
        values = [v + e for v in values for e in (-a, 0, a)]
    return values


def is_bs_convex(B: PointSet) -> Verdict:
    """Decide whether B is exactly the integer-point set of the polyhedron
    of its own support function.

    PASS carries that function as the certificate.  FAIL carries the
    failing sub-check: either the support function is not bisubmodular, or
    re-enumerating its polyhedron returns extra points (holes of B).
    """
    f = support_function(B)
    table_check = check_bisubmodular(f)
    if not table_check.passed:
        return verdict_fail({
            "reason": "support_function_not_bisubmodular",
            "violation": table_check.witness,
            "function": f,
        })
    # Every member p of B has <p, x> <= f(x): the round trip only adds points.
    extra = tuple(p for p in enumerate_integer_points(f) if p not in B)
    if extra:
        return verdict_fail({
            "reason": "round_trip_mismatch",
            "extra_points": extra,
            "missing_points": (),
            "function": f,
        })
    return verdict_pass({"function": f})


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """count values of rng.randint(lo, hi), read from the same stream.

    This is the loop randint runs: draw width.bit_length() bits and draw
    again while the value is at least the width.  The values and the
    generator's state afterwards are those of count randint calls.
    """
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        out.append(lo + r)
    return out


def random_bisubmodular(dim: int, value_range: int, seed: int,
                        max_attempts: int = 200_000) -> BisubFunction:
    """Uniformly sample integer tables until one is bisubmodular.

    Each attempt draws the nonzero arguments' values in rank order from
    Random.randint's stream (see _draws) and tests them against the rows
    of the local test, so a seed gives the same table, or raises after the
    same attempt, as one randint per value would.  Only the accepted table
    becomes a BisubFunction.

    Acceptance collapses quickly with dimension, hence the cap at dim 2:
    at dim 3 a draw can spend its whole default budget and raise.
    random_bisubmodular_via_submodular reaches dim 3; at dim 4 its inner
    rejection sampling raises RejectionBudgetExceeded.
    """
    if not 1 <= dim <= 2:
        raise ValueError("rejection sampling is limited to dim <= 2")
    if value_range < 0:
        raise ValueError("value_range must be nonnegative")
    rng = random.Random(seed)
    rows = _local_rows(dim)
    size = 3 ** dim
    center = size // 2
    for _ in range(max_attempts):
        values = _draws(rng, -value_range, value_range, size - 1)
        values.insert(center, 0)
        if all(values[i] + values[j] >= values[k] + values[l]
               for i, j, k, l in rows):
            return BisubFunction(dim, tuple(values))
    raise RejectionBudgetExceeded(
        f"no bisubmodular table in {max_attempts} attempts "
        f"(dim={dim}, value_range={value_range}, seed={seed})")


def _random_monotone_submodular(rng: random.Random, dim: int) -> list:
    """Uniformly sample set functions with values in [0, 2], as lists
    indexed by subset bitmask, until one is monotone and submodular.

    The values of the nonempty masks are drawn in mask order from
    Random.randint's stream (see _draws).  The pairs whose inequality
    always holds are left out: g(s) <= g(s | u) when u is in s, or when s
    is empty, since g(0) = 0 and no value is negative; and
    g(s) + g(t) >= g(s | t) + g(s & t) when s and t are comparable.
    """
    size = 2 ** dim
    monotone = [(s, s | 1 << u) for s in range(1, size) for u in range(dim)
                if not s >> u & 1]
    submodular = [(s, t, s | t, s & t) for s in range(size)
                  for t in range(s + 1, size) if s | t not in (s, t)]
    for _ in range(50_000):
        g = _draws(rng, 0, 2, size - 1)
        g.insert(0, 0)
        if any(g[s] > g[t] for s, t in monotone):
            continue
        if any(g[s] + g[t] < g[u] + g[m] for s, t, u, m in submodular):
            continue
        return g
    raise RejectionBudgetExceeded(
        "no monotone submodular table in 50000 attempts")


def random_bisubmodular_via_submodular(
        dim: int, seed: int,
        max_points: Optional[int] = None) -> BisubFunction:
    """Sample a bisubmodular table that uniform rejection cannot reach.

    Composes two random monotone submodular set functions (one on the
    positive support, one on the negative) with a random integral
    translation; the sum is always bisubmodular because meet and join add
    up to the plain sum coordinatewise and the supports intersect/unite.
    Tables are rerolled until all values fit in [-5, 5] and, when
    max_points is given, the integer-point set is that small.  The
    translation is drawn from Random.randint's stream (see _draws).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = random.Random(seed)
    # The bitmasks of each argument's positive and negative support.
    supports = [(sum(1 << u for u, e in enumerate(x) if e > 0),
                 sum(1 << u for u, e in enumerate(x) if e < 0))
                for x in signed_vectors(dim)]
    for _ in range(10_000):
        g_pos = _random_monotone_submodular(rng, dim)
        g_neg = _random_monotone_submodular(rng, dim)
        shift = _draws(rng, -2, 2, dim)
        values = tuple(g_pos[pos] + g_neg[neg] + moved
                       for (pos, neg), moved in zip(supports,
                                                    _inner_products(shift)))
        if any(abs(v) > 5 for v in values):
            continue
        f = BisubFunction(dim, values)
        if not _locally_bisubmodular(f):
            raise RuntimeError("composed table failed the bisubmodular check")
        if (max_points is not None
                and len(enumerate_integer_points(f)) > max_points):
            continue
        return f
    raise RejectionBudgetExceeded(
        f"no table within bounds in 10000 attempts (dim={dim}, seed={seed})")


def random_point_set(dim: int, box_radius: int, density: float,
                     seed: int) -> PointSet:
    """Independently include each point of the box [-r, r]^dim with the
    given probability; reroll whole passes until nonempty, at most 1000
    passes, then raise RejectionBudgetExceeded."""
    if dim < 1 or box_radius < 1:
        raise ValueError("dim and box_radius must be positive")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = random.Random(seed)
    cells = list(product(range(-box_radius, box_radius + 1), repeat=dim))
    for _ in range(1_000):
        points = [p for p in cells if rng.random() < density]
        if points:
            return PointSet.from_points(dim, points)
    raise RejectionBudgetExceeded(
        f"no nonempty point set in 1000 passes "
        f"(dim={dim}, density={density}, seed={seed})")


def exhaustive_point_sets(dim: int, grid_range: int) -> Iterator[PointSet]:
    """Every nonempty subset of the grid {0..grid_range}^dim, in bitmask
    order, as a one-shot iterator that builds each set when it is reached;
    the arguments and the 16-cell cap of the grid are checked at the call."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if grid_range < 0:
        raise ValueError("grid_range must be nonnegative")
    cell_count = (grid_range + 1) ** dim
    if cell_count > _MAX_GRID_CELLS:
        raise ValueError(
            f"grid has {cell_count} cells; cap is {_MAX_GRID_CELLS} "
            f"(2^cells instances)")
    cells = list(product(range(grid_range + 1), repeat=dim))
    return (PointSet.from_points(
                dim, [cells[i] for i in range(len(cells)) if mask >> i & 1])
            for mask in range(1, 2 ** len(cells)))


VERDICT_ORDER = ("delta_exc", "bs_exc", "oracle", "jump_system", "hole_free")


@dataclass(frozen=True)
class EquivalenceReport:
    """Tally of the five checkers across a batch of instances.

    Any disagreement among the one-step checker, the half-step checker and
    the oracle is a fatal finding, kept in full for cli.emit; so is a violated
    one-way implication (one-step passing but the jump-system or hole-free
    checker failing).
    """

    total: int
    counts: tuple
    disagreements: tuple
    implication_violations: tuple

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.implication_violations


def _evaluate(B: PointSet) -> dict:
    # The checkers are looked up per call, so patching them on their
    # modules reaches the harness.
    return {
        "points": B.points,
        "delta_exc": axioms.check_delta_exc(B),
        "bs_exc": axioms.check_bs_exc(B),
        "oracle": is_bs_convex(B),
        "jump_system": axioms.check_jump_system(B),
        "hole_free": axioms.check_hole_free(B),
    }


def run_equivalence_harness(
        point_sets: Iterable[PointSet]) -> EquivalenceReport:
    """Run all five checkers on each point set in order and tally agreement.

    Only the records of disagreements and implication violations are kept.
    """
    counts = {}
    disagreements = []
    implication_violations = []
    for B in point_sets:
        record = _evaluate(B)
        statuses = tuple(record[name].status for name in VERDICT_ORDER)
        counts[statuses] = counts.get(statuses, 0) + 1
        delta, bs, orac = (record[n].passed
                           for n in ("delta_exc", "bs_exc", "oracle"))
        if not delta == bs == orac:
            disagreements.append(record)
        if delta and not record["jump_system"].passed:
            implication_violations.append(
                {"kind": "delta_exc_without_jump_system", "record": record})
        if delta and not record["hole_free"].passed:
            implication_violations.append(
                {"kind": "delta_exc_without_hole_free", "record": record})
    return EquivalenceReport(
        total=sum(counts.values()),
        counts=tuple(sorted(counts.items())),
        disagreements=tuple(disagreements),
        implication_violations=tuple(implication_violations),
    )
