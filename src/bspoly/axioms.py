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


def _uncovered(B: PointSet):
    """Yield each (p, q, u) where q - p is nonzero at coordinate u but no
    step of phi_b_toward(B, p, q) moves it, in scan order.

    A step moves toward q when each of its signed coordinates is one of
    q - p's.  So with q - p as a mask of signed coordinates, the signed
    coordinate i of q - p is covered when its unit step is in Phi_B(p) or
    one of its partners is in the mask.  The masks of Phi_B(p) are built
    once per scanned member p, from B.step_index.
    """
    values = [set(column) for column in zip(*B.points)]
    for p in B:
        units, partners = _coverage(B.step_index[p], B.dim)
        # sign_bits[u][x]: bit 2u if x > p[u], bit 2u + 1 if x < p[u], else 0.
        sign_bits = [{x: ((x > a) + 2 * (x < a)) << 2 * u for x in column}
                     for u, (a, column) in enumerate(zip(p, values))]
        for q in B:
            signs = sum(map(getitem, sign_bits, q))
            rest = signs & ~units
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if not partners[i] & signs:
                    yield p, q, i // 2 + 1
                rest ^= low


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

    PASS stores one decomposition per ordered pair as its certificate.
    """
    _require_nonempty(B)
    certificates = []
    for p in B:
        for q in B:
            result = exchange.decompose(B, p, q)
            if isinstance(result, exchange.NoDecomposition):
                return verdict_fail({
                    "p": p, "q": q,
                    "reason": result.reason,
                    "optimal_value": result.optimal_value,
                })
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
