"""Exact simplex behavior: statuses, vertex structure, and hull membership.

Random LPs are built around a known feasible point so feasibility is
guaranteed by construction; optimality is cross-checked against sampled
feasible competitors rather than a second solver.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bspoly.core import DimensionMismatchError, phi_steps
from bspoly.ratlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    in_conical_hull,
    in_convex_hull,
    solve,
    standard_lp,
)


class TestSolveStatuses:
    def test_single_equality(self):
        result = solve(standard_lp([[1]], [2], [0]))
        assert result.status == OPTIMAL
        assert result.x == (Fraction(2),)
        assert result.value == 0

    def test_negative_rhs_infeasible(self):
        assert solve(standard_lp([[1]], [-1], [0])).status == INFEASIBLE

    def test_decreasing_ray_unbounded(self):
        assert solve(standard_lp([[1, -1]], [0], [-1, 0])).status == UNBOUNDED

    def test_zero_columns(self):
        assert solve(standard_lp([[], []], [0, 0], [])).status == OPTIMAL
        assert solve(standard_lp([[], []], [1, 0], [])).status == INFEASIBLE

    def test_redundant_rows(self):
        result = solve(standard_lp([[1, 1], [2, 2]], [3, 6], [1, 0]))
        assert result.status == OPTIMAL
        assert result.value == 0
        assert result.x == (Fraction(0), Fraction(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            standard_lp([[1, 2]], [1], [0])
        with pytest.raises(DimensionMismatchError):
            standard_lp([[1]], [1, 2], [0])

    def test_exact_rationals(self):
        # min x1 s.t. 3 x1 + x2 = 1: vertex at x1 = 0, x2 = 1
        result = solve(standard_lp([[3, 1]], [1], [1, 0]))
        assert result.x == (Fraction(0), Fraction(1))
        # force the fractional vertex by penalizing x2
        result = solve(standard_lp([[3, 1]], [1], [0, 1]))
        assert result.x == (Fraction(1, 3), Fraction(0))
        assert result.value == 0


class TestRandomizedOptimality:
    def test_feasible_by_construction_and_no_sampled_improvement(self):
        rng = random.Random(20240814)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(1, 6)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            x0 = [rng.randint(0, 3) for _ in range(n)]
            b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
            c = [rng.randint(0, 4) for _ in range(n)]
            result = solve(standard_lp(a, b, c))
            assert result.status == OPTIMAL
            assert result.value == sum(
                cf * xf for cf, xf in zip(c, result.x))
            assert result.value <= sum(cf * xf for cf, xf in zip(c, x0))
            # basic solution: at most m coordinates are nonzero
            assert sum(1 for e in result.x if e != 0) <= m
            # residual is exactly zero
            for i in range(m):
                assert sum(a[i][j] * result.x[j] for j in range(n)) == b[i]

    def test_vertices_of_step_column_systems_are_half_integral(self):
        rng = random.Random(99)
        for _ in range(120):
            dim = rng.randint(1, 4)
            steps = list(phi_steps(dim))
            rng.shuffle(steps)
            cols = steps[:rng.randint(1, len(steps))]
            mults = [rng.randint(0, 3) for _ in cols]
            b = [sum(k * col[u] for k, col in zip(mults, cols))
                 for u in range(dim)]
            a = [[col[u] for col in cols] for u in range(dim)]
            c = [rng.randint(0, 3) for _ in cols]
            result = solve(standard_lp(a, b, c))
            assert result.status == OPTIMAL
            for e in result.x:
                assert (2 * e).denominator == 1


class TestConvexHull:
    def test_hole_of_two_point_set(self):
        inside, coeffs = in_convex_hull([(0,), (2,)], (1,))
        assert inside
        assert coeffs == (Fraction(1, 2), Fraction(1, 2))

    def test_off_segment(self):
        assert in_convex_hull([(0, 0), (1, 1)], (1, 0)) == (False, None)

    def test_members_always_inside(self):
        pts = [(0, 0), (2, 4), (-2, 2)]
        for p in pts:
            inside, coeffs = in_convex_hull(pts, p)
            assert inside
            assert sum(coeffs) == 1

    def test_even_midpoints_inside(self):
        pts = [(0, 0), (2, 4), (-2, 2)]
        for i in range(len(pts)):
            for j in range(len(pts)):
                mid = tuple((a + b) // 2 for a, b in zip(pts[i], pts[j]))
                assert in_convex_hull(pts, mid)[0]

    def test_coefficients_reconstruct_target(self):
        pts = [(0, 0), (3, 0), (0, 3)]
        inside, coeffs = in_convex_hull(pts, (1, 1))
        assert inside
        for u in range(2):
            assert sum(lam * p[u] for lam, p in zip(coeffs, pts)) == 1

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            in_convex_hull([], (0,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError,
                           match="dimension 1, expected 2"):
            in_convex_hull([(0, 0), (1,)], (0, 0))


class TestConicalHull:
    def test_examples(self):
        assert in_conical_hull([(1, 1)], (3, 3))
        assert not in_conical_hull([(1, 1)], (1, 0))
        assert in_conical_hull([(1, 1)], (0, 0))
        assert in_conical_hull([], (0, 0))
        assert not in_conical_hull([], (1, 0))

    def test_mixed_generators(self):
        # (1,0), (0,1), (-1,-1) positively span the whole plane
        assert in_conical_hull([(1, 0), (0, 1), (-1, -1)], (5, -5))
        assert not in_conical_hull([(1, 0), (0, 1)], (5, -5))
        assert in_conical_hull([(1, 0), (0, 1)], (2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError,
                           match="dimension 3, expected 2"):
            in_conical_hull([(1, 0), (0, 1, 0)], (1, 1))
