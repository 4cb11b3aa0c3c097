"""PASS/FAIL checkers for the exchange axioms and hole-freeness.

The exchange checkers scan ordered pairs of member points in lexicographic
order and the hole-free checker walks the integer points of B's step-bound
polytope in lexicographic order; each reports the first violation, so
outputs are deterministic and goldenable.  FAIL witnesses replay against
the definitions; coordinates in witnesses are 1-based.
"""

from __future__ import annotations

from operator import mul

from . import exchange, ratlp
from .core import (PointSet, Verdict, lattice_points, phi_steps, sub, supp,
                   verdict_fail, verdict_pass)


def _require_nonempty(B: PointSet) -> None:
    if len(B) == 0:
        raise ValueError("point set must be nonempty")


def _uncovered(B: PointSet):
    """Yield each (p, q, u) where q - p is nonzero at coordinate u but no
    step of phi_b_toward(B, p, q) moves it, in scan order."""
    for p in B:
        for q in B:
            steps = exchange.phi_b_toward(B, p, q)
            for u in supp(sub(q, p)):
                if not any(alpha[u - 1] != 0 for alpha in steps):
                    yield p, q, u


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
