"""PASS/FAIL checkers for the exchange axioms and hole-freeness.

The exchange checkers scan ordered pairs of member points in lexicographic
order and the hole-free checker walks the integer points of B's step-bound
polytope in lexicographic order; each reports the first violation, so
outputs are deterministic and goldenable.  FAIL witnesses replay against
the definitions; coordinates in witnesses are 1-based.

delta-exc and jump share one coverage scan.  It builds one table of sign
masks per scanned member p from B.step_index, then spends O(dim) per
ordered pair; it never builds Phi_B(p, q).  The box {-1..1}^6 (531,441
ordered pairs) passes delta-exc in about 0.5 s and jump in about 0.6 s
through the CLI (Python 3.11, one core of an Intel Xeon).

bs-exc reads the same masks: an exact integer flow decides each pair, and
the decomposition LP certifies, once for the first refused pair or once
per pair of a set that passes.  {-1..1}^5 minus (1,1,1,1,0) fails after
1 LP in about 0.05 s, where one LP per pair took 58,002 LPs and about
10 s on the same machine.
"""

from __future__ import annotations

from operator import getitem, mul

from . import exchange, ratlp
from .core import (PointSet, Verdict, lattice_points, phi_steps, verdict_fail,
                   verdict_pass)


def _require_nonempty(B: PointSet) -> None:
    if len(B) == 0:
        raise ValueError("point set must be nonempty")


def _coverage(steps, dim: int) -> tuple[int, list]:
    """Phi_B(p) as masks over signed coordinates, bit 2u for +e_(u+1) and
    bit 2u + 1 for -e_(u+1).

    Returns the mask of the unit steps in steps and, for each signed
    coordinate, the mask of the partners it shares a two-coordinate step with.
    """
    units = 0
    partners = [0] * (2 * dim)
    for alpha in steps:
        i, *rest = [2 * u + (e < 0) for u, e in enumerate(alpha) if e]
        if rest:
            j, = rest
            partners[i] |= 1 << j
            partners[j] |= 1 << i
        else:
            units |= 1 << i
    return units, partners


def _half_step_flow(demand: dict, units: int, partners: list) -> bool:
    """Whether q - p is a nonnegative combination of the steps of Phi_B(p)
    toward q, for q - p given as demand: |q_u - p_u| by signed coordinate
    (the bits of _coverage).

    On the bipartite double cover of the signed coordinates, each side asks
    demand[i] at i, with arc i -> i when the unit step of i is in Phi_B(p)
    and arcs i -> j and j -> i when i and j are partners.  A combination
    gives a flow that meets every demand, and such a flow f gives the
    combination f(i, i) on unit steps and (f(i, j) + f(j, i)) / 2 on
    two-coordinate steps.  BFS augmenting paths move integer amounts, so
    the number of augmentations depends on dim only, not on the demands.
    """
    arcs = {i: [j for j in demand if partners[i] >> j & 1]
            + ([i] if units >> i & 1 else []) for i in demand}
    if not all(arcs.values()):
        return False
    supply, need = dict(demand), dict(demand)
    flow = {i: {} for i in demand}  # flow[i][j] on the arc left i -> right j
    while True:
        sources = [i for i in demand if supply[i]]
        if not sources:
            return True
        # A left node is reached from the source or back along a used arc.
        came_from = dict.fromkeys(sources)
        reached_by = {}  # right j -> the left node it was reached from
        queue, end = list(sources), None
        for i in queue:
            for j in arcs[i]:
                if j in reached_by:
                    continue
                reached_by[j] = i
                if need[j]:
                    end = j
                    break
                for k in demand:
                    if flow[k].get(j) and k not in came_from:
                        came_from[k] = j
                        queue.append(k)
            if end is not None:
                break
        if end is None:
            return False
        path, j = [], end
        while True:
            i = reached_by[j]
            path.append((i, j))
            j = came_from[i]
            if j is None:
                break
            path.append((i, j))
        amount = min(supply[i], need[end],
                     *(flow[k][j] for k, j in path[1::2]))
        for k, j in path[::2]:
            flow[k][j] = flow[k].get(j, 0) + amount
        for k, j in path[1::2]:
            flow[k][j] -= amount
        supply[i] -= amount
        need[end] -= amount


def _member_masks(B: PointSet):
    """Yield, for each member p in order, p with the masks of Phi_B(p) from
    _coverage and sign_bits, where sum(map(getitem, sign_bits, q)) is the
    mask of the signed coordinates of q - p."""
    values = [set(column) for column in zip(*B.points)]
    for p in B:
        units, partners = _coverage(B.step_index[p], B.dim)
        # sign_bits[u][x]: bit 2u if x > p[u], bit 2u + 1 if x < p[u], else 0.
        sign_bits = [{x: ((x > a) + 2 * (x < a)) << 2 * u for x in column}
                     for u, (a, column) in enumerate(zip(p, values))]
        yield p, units, partners, sign_bits


def _uncovered(B: PointSet):
    """Yield each (p, q, u) where q - p is nonzero at coordinate u but no
    step of phi_b_toward(B, p, q) moves it, in scan order.

    A step moves toward q when each of its signed coordinates is one of
    q - p's.  So with q - p as a mask of signed coordinates, the signed
    coordinate i of q - p is covered when its unit step is in Phi_B(p) or
    one of its partners is in the mask.  The masks of Phi_B(p) are built
    once per scanned member p, from B.step_index.
    """
    for p, units, partners, sign_bits in _member_masks(B):
        for q in B:
            signs = sum(map(getitem, sign_bits, q))
            rest = signs & ~units
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if not partners[i] & signs:
                    yield p, q, i // 2 + 1
                rest ^= low


def _undecomposable(B: PointSet):
    """Yield each ordered pair (p, q), in scan order, for which no multiset
    of steps of phi_b_toward(B, p, q) sums to 2(q - p): the pairs whose
    decomposition LP has no zero optimum.

    A pair whose signed coordinates all have their unit step in Phi_B(p)
    is decomposable at once; any other goes through _half_step_flow.
    """
    for p, units, partners, sign_bits in _member_masks(B):
        for q in B:
            signs = sum(map(getitem, sign_bits, q))
            if not signs & ~units:
                continue
            demand = {2 * u + (b < a): abs(b - a)
                      for u, (a, b) in enumerate(zip(p, q)) if a != b}
            if not _half_step_flow(demand, units, partners):
                yield p, q


def check_delta_exc(B: PointSet) -> Verdict:
    """One-step exchange: every differing coordinate of every ordered pair
    (p, q) must be covered by some step from p toward q that stays in B."""
    _require_nonempty(B)
    for p, q, u in _uncovered(B):
        return verdict_fail({"p": p, "q": q, "u": u})
    return verdict_pass()


def check_jump_system(B: PointSet) -> Verdict:
    """Two-step exchange: each uncovered coordinate must instead admit a
    double unit step toward q that stays in B, with gap at least 2."""
    _require_nonempty(B)
    for p, q, u in _uncovered(B):
        gap = q[u - 1] - p[u - 1]
        sign = 1 if gap > 0 else -1
        double = tuple(e + (2 * sign if i == u - 1 else 0)
                       for i, e in enumerate(p))
        if abs(gap) < 2 or double not in B:
            return verdict_fail({"p": p, "q": q, "u": u})
    return verdict_pass()


def check_bs_exc(B: PointSet) -> Verdict:
    """Half-step reachability: every ordered pair needs a decomposition
    p + (sum of steps)/2 = q with all steps from p toward q staying in B.

    An exact integer flow decides each pair (_undecomposable), and the
    decomposition LP certifies: FAIL reports the LP of the first pair the
    flow refuses, and PASS solves one LP per ordered pair and stores its
    decomposition as that pair's certificate.  An LP that disagrees with
    the flow raises RuntimeError, so no inconsistent verdict is emitted.
    """
    _require_nonempty(B)
    for p, q in _undecomposable(B):
        result = exchange.decompose(B, p, q)
        if not isinstance(result, exchange.NoDecomposition):
            raise RuntimeError(
                f"the flow refuses {p} -> {q} but the LP decomposes it")
        return verdict_fail({
            "p": p, "q": q,
            "reason": result.reason,
            "optimal_value": result.optimal_value,
        })
    certificates = []
    for p in B:
        for q in B:
            result = exchange.decompose(B, p, q)
            if isinstance(result, exchange.NoDecomposition):
                raise RuntimeError(
                    f"the flow decomposes {p} -> {q} but the LP refuses it")
            certificates.append({"p": p, "q": q, "steps": result.steps})
    return verdict_pass({"decompositions": certificates})


def check_hole_free(B: PointSet) -> Verdict:
    """Every integer point of conv(B) must belong to B.

    A point c with <c, s> above max over B of <p, s>, for a step s, lies
    outside conv(B), so the candidates are the points of B's bounding box
    under those step bounds, from core.lattice_points in lexicographic
    order.  Each non-member among them is decided by an exact feasibility
    LP.  FAIL carries the first hole with its convex coefficients over the
    members of B.
    """
    _require_nonempty(B)
    # B's points and the steps share B.dim, so no dimension check.
    bounds = [(s, max(sum(map(mul, p, s)) for p in B))
              for s in phi_steps(B.dim)]
    lo, hi = B.bounding_box()
    for candidate in lattice_points(lo, hi, bounds):
        if candidate in B:
            continue
        inside, coefficients = ratlp.in_convex_hull(B.points, candidate)
        if inside:
            return verdict_fail({
                "hole": candidate,
                "coefficients": coefficients,
            })
    return verdict_pass()
