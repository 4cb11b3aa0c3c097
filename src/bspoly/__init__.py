"""Decide BS-convexity of finite integer point sets.

A finite set of integer points is BS-convex when it is exactly the set of
integer points of the polyhedron of an integral bisubmodular function.
This package decides that through three independent routes (the one-step
exchange axiom, half-step decompositions, and a support-function oracle),
produces machine-checkable witnesses either way, and ships a harness that
cross-validates the three routes on exhaustive and randomized batches.
"""

from .axioms import (
    check_bs_exc,
    check_delta_exc,
    check_hole_free,
    check_jump_system,
)
from .bisubmod import (
    INF,
    BisubFunction,
    DepVector,
    PointNotInPolyhedron,
    UnboundedEnumeration,
    check_bisubmodular,
    dep,
    enumerate_integer_points,
    feasible_directions,
    polyhedron_contains,
)
from .core import (
    DimensionMismatchError,
    PointSet,
    Verdict,
    join,
    meet,
    phi_steps,
    phi_toward,
    precedes,
    violation,
)
from .exchange import (
    Decomposition,
    ExchangeAxiomViolated,
    HalfIntegralityViolated,
    NoDecomposition,
    PointNotInSet,
    ZeroSumExchange,
    decompose,
    phi_b,
    phi_b_toward,
    zero_sum_exchange,
)
from .oracle import (
    EquivalenceReport,
    RejectionBudgetExceeded,
    exhaustive_point_sets,
    is_bs_convex,
    random_bisubmodular,
    random_bisubmodular_via_submodular,
    random_point_set,
    run_equivalence_harness,
    support_function,
)
from .ratlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    StandardLP,
    in_conical_hull,
    in_convex_hull,
    solve,
    standard_lp,
)

__version__ = "0.1.0"

__all__ = [
    "BisubFunction",
    "Decomposition",
    "DepVector",
    "DimensionMismatchError",
    "EquivalenceReport",
    "ExchangeAxiomViolated",
    "HalfIntegralityViolated",
    "INF",
    "INFEASIBLE",
    "LPResult",
    "NoDecomposition",
    "OPTIMAL",
    "PointNotInPolyhedron",
    "PointNotInSet",
    "PointSet",
    "RejectionBudgetExceeded",
    "StandardLP",
    "UNBOUNDED",
    "UnboundedEnumeration",
    "Verdict",
    "ZeroSumExchange",
    "check_bisubmodular",
    "check_bs_exc",
    "check_delta_exc",
    "check_hole_free",
    "check_jump_system",
    "decompose",
    "dep",
    "enumerate_integer_points",
    "exhaustive_point_sets",
    "feasible_directions",
    "in_conical_hull",
    "in_convex_hull",
    "is_bs_convex",
    "join",
    "meet",
    "phi_b",
    "phi_b_toward",
    "phi_steps",
    "phi_toward",
    "polyhedron_contains",
    "precedes",
    "random_bisubmodular",
    "random_bisubmodular_via_submodular",
    "random_point_set",
    "run_equivalence_harness",
    "solve",
    "standard_lp",
    "support_function",
    "violation",
    "zero_sum_exchange",
]
