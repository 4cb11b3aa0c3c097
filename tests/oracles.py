"""Independent re-implementations used to cross-check library answers.

Nothing here calls the code paths under test: decomposability is decided by
exhaustive multiset search instead of the LP, and certificates are replayed
against raw definitions.  The bs-exc reference solves one decomposition LP
per ordered pair, where the library decides each pair by a flow first.  The hole-free reference shares only the hull LP
with the library, so the two give the same coefficients.  solve is the
two-phase Bland simplex over fractions.Fraction that the library's integer
tableau must match pivot for pivot.  enumerate_integer_points tests every
point of the bounding box against every constraint, where the library walks
the box depth first.  random_bisubmodular, _random_monotone_submodular and
random_bisubmodular_via_submodular are the sampler loops that the library's
samplers must follow draw for draw: one randint per value, a BisubFunction
per draw, and every pair of set masks.  Slow and simple on purpose.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

from bspoly import bisubmod, exchange, ratlp
from bspoly.bisubmod import (
    INF,
    BisubFunction,
    UnboundedEnumeration,
    _locally_bisubmodular,
    polyhedron_contains,
)
from bspoly.core import (
    PointSet,
    add,
    as_point,
    dot,
    join,
    meet,
    phi_steps,
    signed_vectors,
    sub,
    supp,
    verdict_fail,
    verdict_pass,
    zero,
)
from bspoly.exchange import ExchangeAxiomViolated, ZeroSumExchange
from bspoly.oracle import RejectionBudgetExceeded
from bspoly.ratlp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


def steps_toward(dim: int, p, q):
    """Steps whose every nonzero coordinate moves from p strictly toward q."""
    out = []
    for alpha in phi_steps(dim):
        if all(e == 0 or e * (b - a) >= 1
               for e, a, b in zip(alpha, p, q)):
            out.append(alpha)
    return out


def phi_b_toward(b: PointSet, p, q):
    """Per-pair reference: steps_toward(p, q) filtered by membership in b."""
    return tuple(alpha for alpha in steps_toward(b.dim, p, q)
                 if add(p, alpha) in b)


def zero_sum_exchange(b: PointSet, q, r):
    """Reference zero-sum walk for distinct members q and r of b.

    The same construction as bspoly.exchange.zero_sum_exchange, kept with
    incident-edge lists and an explicit successor function; it returns the
    same ZeroSumExchange or raises the same ExchangeAxiomViolated.  The steps
    come from exchange.phi_b_toward, which TestPhiBToward checks against the
    raw filter.
    """
    q, r = tuple(q), tuple(r)
    sides = {}
    for tag, base, goal in (("q", q, r), ("r", r, q)):
        step_by_edge = {}
        for alpha in exchange.phi_b_toward(b, base, goal):
            edge = tuple(u - 1 for u in supp(alpha))
            step_by_edge[edge] = alpha
        sides[tag] = step_by_edge

    vertices = tuple(u - 1 for u in supp(sub(r, q)))
    incident = {("q", u): [] for u in vertices}
    incident.update({("r", u): [] for u in vertices})
    for tag, step_by_edge in sides.items():
        for edge in step_by_edge:
            for u in edge:
                incident[(tag, u)].append(edge)
    for u in vertices:
        for tag, base, goal in (("q", q, r), ("r", r, q)):
            if not incident[(tag, u)]:
                raise ExchangeAxiomViolated(base, goal, u + 1)

    def chosen(tag: str, u: int) -> tuple:
        other = "r" if tag == "q" else "q"
        return min(incident[(other, u)])

    def successor(state):
        tag, edge, exit_vertex = state
        other = "r" if tag == "q" else "q"
        nxt = chosen(tag, exit_vertex)
        entry = exit_vertex
        leave = nxt[0] + nxt[-1] - entry if len(nxt) == 2 else entry
        return (other, nxt, leave)

    start_edge = min(sides["q"])
    state = ("q", start_edge, start_edge[0])
    seen = {}
    trail = []
    while state not in seen:
        seen[state] = len(trail)
        trail.append(state)
        state = successor(state)
    cycle = trail[seen[state]:]
    if cycle[0][0] == "r":
        cycle = cycle[1:] + cycle[:1]

    alphas, betas = [], []
    for tag, edge, _ in cycle:
        step = sides[tag][edge]
        copies = 2 if len(edge) == 1 else 1
        (alphas if tag == "q" else betas).extend([step] * copies)
    return ZeroSumExchange(tuple(sorted(alphas)), tuple(sorted(betas)))


def uncovered(b: PointSet):
    """Reference coverage scan: each (p, q, u) where q - p is nonzero at
    coordinate u but no step of phi_b_toward(b, p, q) moves it, in scan
    order, recomputing the steps per pair."""
    for p in b:
        for q in b:
            steps = phi_b_toward(b, p, q)
            for u in supp(sub(q, p)):
                if not any(alpha[u - 1] != 0 for alpha in steps):
                    yield p, q, u


def check_delta_exc(b: PointSet):
    """Reference one-step exchange scan over the per-pair coverage scan."""
    for p, q, u in uncovered(b):
        return verdict_fail({"p": p, "q": q, "u": u})
    return verdict_pass()


def check_jump_system(b: PointSet):
    """Reference two-step exchange scan over the per-pair coverage scan."""
    for p, q, u in uncovered(b):
        gap = q[u - 1] - p[u - 1]
        sign = 1 if gap > 0 else -1
        double = tuple(e + (2 * sign if i == u - 1 else 0)
                       for i, e in enumerate(p))
        if abs(gap) >= 2 and double in b:
            continue
        return verdict_fail({"p": p, "q": q, "u": u})
    return verdict_pass()


def check_bs_exc(b: PointSet):
    """Reference half-step scan: one decomposition LP per ordered pair in
    scan order; the first refusal is the FAIL witness, and on PASS every
    decomposition is a certificate."""
    certificates = []
    for p in b:
        for q in b:
            result = exchange.decompose(b, p, q)
            if isinstance(result, exchange.NoDecomposition):
                return verdict_fail({
                    "p": p, "q": q,
                    "reason": result.reason,
                    "optimal_value": result.optimal_value,
                })
            certificates.append({"p": p, "q": q, "steps": result.steps})
    return verdict_pass({"decompositions": certificates})


def check_hole_free(b: PointSet):
    """Reference hole-free scan: one hull LP per non-member of the box."""
    lo, hi = b.bounding_box()
    for candidate in product(*(range(x, y + 1) for x, y in zip(lo, hi))):
        if candidate in b:
            continue
        inside, coefficients = ratlp.in_convex_hull(b.points, candidate)
        if inside:
            return verdict_fail({
                "hole": candidate,
                "coefficients": coefficients,
            })
    return verdict_pass()


def check_bisubmodular(f):
    """Reference bisubmodularity scan over all ordered pairs (x, y)."""
    vectors = tuple(signed_vectors(f.dim))
    for x in vectors:
        if f(x) == INF:
            continue
        for y in vectors:
            if f(y) == INF:
                continue
            m = meet(x, y)
            j = join(x, y)
            lhs = f(x) + f(y)
            rhs = f(m) + f(j)
            if lhs < rhs:
                return verdict_fail({
                    "x": x, "y": y, "meet": m, "join": j,
                    "lhs": lhs, "rhs": rhs,
                })
    return verdict_pass()


def enumerate_integer_points(f, box=None) -> PointSet:
    """Reference enumeration: every point of the singleton box intersected
    with the given box, tested against every finite constraint."""
    lo = [-minus for _, minus in f.singleton_values]
    hi = [plus for plus, _ in f.singleton_values]
    if box is not None:
        box_lo, box_hi = (as_point(side) for side in box)
        lo = [max(a, b) for a, b in zip(lo, box_lo)]
        hi = [min(a, b) for a, b in zip(hi, box_hi)]
    if INF in hi or -INF in lo:
        raise UnboundedEnumeration("some bound is infinite")
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return PointSet.from_points(f.dim, [p for p in product(*ranges)
                                        if polyhedron_contains(f, p)])


def random_bisubmodular(dim: int, value_range: int, seed: int,
                        max_attempts: int = 200_000) -> BisubFunction:
    """Reference sampler: one randint per nonzero argument, a BisubFunction
    per draw, and the local test on each."""
    if not 1 <= dim <= 2:
        raise ValueError("rejection sampling is limited to dim <= 2")
    if value_range < 0:
        raise ValueError("value_range must be nonnegative")
    rng = random.Random(seed)
    origin = zero(dim)
    for _ in range(max_attempts):
        f = BisubFunction(dim, tuple(
            0 if x == origin else rng.randint(-value_range, value_range)
            for x in signed_vectors(dim)))
        if _locally_bisubmodular(f):
            return f
    raise RejectionBudgetExceeded(
        f"no bisubmodular table in {max_attempts} attempts "
        f"(dim={dim}, value_range={value_range}, seed={seed})")


def _random_monotone_submodular(rng: random.Random, dim: int) -> list:
    """Reference inner sampler: every (mask, coordinate) pair for
    monotonicity and every ordered pair of masks for submodularity."""
    masks = range(2 ** dim)
    for _ in range(50_000):
        g = [0] + [rng.randint(0, 2) for _ in masks[1:]]
        if any(g[s] > g[s | 1 << u] for s in masks for u in range(dim)):
            continue
        if any(g[s] + g[t] < g[s | t] + g[s & t] for s in masks for t in masks):
            continue
        return g
    raise RejectionBudgetExceeded(
        "no monotone submodular table in 50000 attempts")


def random_bisubmodular_via_submodular(dim: int, seed: int,
                                       max_points=None) -> BisubFunction:
    """Reference composed sampler over the reference inner sampler."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = random.Random(seed)
    supports = [(x, sum(1 << u for u, e in enumerate(x) if e > 0),
                 sum(1 << u for u, e in enumerate(x) if e < 0))
                for x in signed_vectors(dim)]
    for _ in range(10_000):
        g_pos = _random_monotone_submodular(rng, dim)
        g_neg = _random_monotone_submodular(rng, dim)
        shift = tuple(rng.randint(-2, 2) for _ in range(dim))
        values = tuple(g_pos[pos] + g_neg[neg] + dot(shift, x)
                       for x, pos, neg in supports)
        if any(abs(v) > 5 for v in values):
            continue
        f = BisubFunction(dim, values)
        if not _locally_bisubmodular(f):
            raise RuntimeError("composed table failed the bisubmodular check")
        if (max_points is not None
                and len(bisubmod.enumerate_integer_points(f)) > max_points):
            continue
        return f
    raise RejectionBudgetExceeded(
        f"no table within bounds in 10000 attempts (dim={dim}, seed={seed})")


def brute_force_decomposition_exists(b: PointSet, p, q) -> bool:
    """Exhaustive search for steps toward q, landing in b, summing to 2(q-p).

    All candidate steps are sign-aligned with q-p, so coordinates of the
    remaining target shrink monotonically and the search space is finite.
    """
    p, q = tuple(p), tuple(q)
    candidates = tuple(alpha for alpha in steps_toward(b.dim, p, q)
                       if add(p, alpha) in b)
    target = tuple(2 * (bb - aa) for aa, bb in zip(p, q))

    @lru_cache(maxsize=None)
    def search(idx: int, remaining) -> bool:
        if not any(remaining):
            return True
        if idx == len(candidates):
            return False
        alpha = candidates[idx]
        cand = remaining
        while True:
            if search(idx + 1, cand):
                return True
            nxt = tuple(c - a for c, a in zip(cand, alpha))
            if any(abs(n) > abs(c) for c, n in zip(cand, nxt)):
                return False
            cand = nxt

    return search(0, target)


def replay_decomposition(b: PointSet, dec) -> bool:
    """Check a Decomposition against raw definitions only."""
    p, q = dec.source, dec.target
    allowed = set(steps_toward(b.dim, p, q))
    total = [0] * b.dim
    for alpha in dec.steps:
        if alpha not in allowed or add(p, alpha) not in b:
            return False
        for i, e in enumerate(alpha):
            total[i] += e
    return tuple(total) == tuple(2 * (bb - aa) for aa, bb in zip(p, q))


def replay_delta_witness(b: PointSet, witness) -> bool:
    """Confirm no step toward q covers coordinate u, per raw definitions."""
    p, q, u = witness["p"], witness["q"], witness["u"]
    if q[u - 1] == p[u - 1]:
        return False
    return not any(alpha[u - 1] != 0 and add(p, alpha) in b
                   for alpha in steps_toward(b.dim, p, q))


def replay_jump_witness(b: PointSet, witness) -> bool:
    """Confirm both the one-step and the double-step branches fail."""
    if not replay_delta_witness(b, witness):
        return False
    p, q, u = witness["p"], witness["q"], witness["u"]
    gap = q[u - 1] - p[u - 1]
    if abs(gap) < 2:
        return True
    sign = 1 if gap > 0 else -1
    double = tuple(e + (2 * sign if i == u - 1 else 0)
                   for i, e in enumerate(p))
    return double not in b


def replay_hole_witness(b: PointSet, witness) -> bool:
    """Confirm the hole is a non-member convex combination of members."""
    hole, coeffs = witness["hole"], witness["coefficients"]
    if hole in b or any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        return False
    points = list(b)
    if len(coeffs) != len(points):
        return False
    return all(sum(c * pt[u] for c, pt in zip(coeffs, points)) == hole[u]
               for u in range(b.dim))


def replay_bs_convex_witness(b: PointSet, witness) -> bool:
    """Confirm an oracle FAIL from support values taken straight from b:
    either a violated bisubmodular inequality or integer points of the
    support polyhedron outside b."""
    def h(x):
        return max(sum(a * e for a, e in zip(p, x)) for p in b)

    f = witness["function"]
    if f.dim != b.dim or f.values != tuple(map(h, signed_vectors(b.dim))):
        return False
    if witness["reason"] == "support_function_not_bisubmodular":
        v = witness["violation"]
        x, y = v["x"], v["y"]
        return (v["meet"] == meet(x, y) and v["join"] == join(x, y)
                and v["lhs"] == h(x) + h(y)
                and v["rhs"] == h(meet(x, y)) + h(join(x, y))
                and v["lhs"] < v["rhs"])
    extra = witness["extra_points"]
    return bool(extra) and all(
        p not in b and all(sum(a * e for a, e in zip(p, x)) <= h(x)
                           for x in signed_vectors(b.dim))
        for p in extra)


def replay_zero_sum(b: PointSet, q, r, zse) -> bool:
    """Check a ZeroSumExchange against raw definitions only."""
    q, r = tuple(q), tuple(r)
    from_q = {alpha for alpha in steps_toward(b.dim, q, r)
              if add(q, alpha) in b}
    from_r = {beta for beta in steps_toward(b.dim, r, q)
              if add(r, beta) in b}
    if not zse.alphas or not zse.betas:
        return False
    if any(alpha not in from_q for alpha in zse.alphas):
        return False
    if any(beta not in from_r for beta in zse.betas):
        return False
    total = [0] * b.dim
    for step in zse.alphas + zse.betas:
        for i, e in enumerate(step):
            total[i] += e
    return not any(total)


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


def solve(lp) -> LPResult:
    """Reference two-phase simplex on a Fraction tableau."""
    num_rows, num_cols = lp.num_rows, lp.num_cols

    # Phase 1: artificial basis, minimize the artificial mass.
    tableau = []
    for i in range(num_rows):
        sign = -1 if lp.b_vector[i] < 0 else 1
        row = [sign * Fraction(e) for e in lp.a_matrix[i]]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(num_rows)]
        row.append(sign * Fraction(lp.b_vector[i]))
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
    obj = [Fraction(e) for e in lp.c_vector] + [Fraction(0)]
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
