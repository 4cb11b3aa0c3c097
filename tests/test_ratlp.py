"""Exact simplex behavior: statuses, vertex structure, and hull membership.

Random LPs are built around a known feasible point so feasibility is
guaranteed by construction; optimality is cross-checked against sampled
feasible competitors.  TestReferenceEquivalence also runs the Fraction
simplex of tests/oracles.py on the same LPs and requires the same result
and the same pivots.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from bspoly import ratlp
from bspoly.axioms import check_bs_exc, check_hole_free
from bspoly.core import DimensionMismatchError, phi_steps
from bspoly.oracle import exhaustive_point_sets, random_point_set
from bspoly.ratlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    InexactPivot,
    LPResult,
    StandardLP,
    in_conical_hull,
    in_convex_hull,
    solve,
    standard_lp,
)


def feasible_integer_lps():
    """Sixty seeded integer LPs, each with its feasible point x0."""
    rng = random.Random(20240814)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        c = [rng.randint(0, 4) for _ in range(n)]
        yield standard_lp(a, b, c), x0


def step_column_lps():
    """120 seeded LPs whose columns are steps, so every vertex is half-integral."""
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
        yield standard_lp(a, b, c)


def fraction_lps():
    """200 seeded LPs with Fraction entries in A, b and c.

    b = A.x0 for an x0 that may have a negative entry, and costs may be
    negative, so all three statuses occur.
    """
    rng = random.Random(1955)

    def rational(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 7)
        a = [[rational(-4, 4) for _ in range(n)] for _ in range(m)]
        x0 = [rational(-1, 4) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        c = [rational(-2, 5) for _ in range(n)]
        yield standard_lp(a, b, c)


def lps_solved_during(run):
    """Distinct LPs that ratlp.solve receives while run() executes."""
    seen = {}
    real = ratlp.solve

    def recording(lp):
        seen[lp] = None
        return real(lp)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(ratlp, "solve", recording)
        run()
    return list(seen)


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
        for lp, x0 in feasible_integer_lps():
            a, b, c = lp.a_matrix, lp.b_vector, lp.c_vector
            m, n = lp.num_rows, lp.num_cols
            result = solve(lp)
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
        for lp in step_column_lps():
            result = solve(lp)
            assert result.status == OPTIMAL
            for e in result.x:
                assert (2 * e).denominator == 1


class TestRationalData:
    def test_beale_cycling_example_terminates(self):
        # Beale (1955): the textbook rule cycles on it; Bland's rule does not.
        q = Fraction
        lp = standard_lp(
            [[1, 0, 0, q(1, 4), -8, -1, 9],
             [0, 1, 0, q(1, 2), -12, q(-1, 2), 3],
             [0, 0, 1, 0, 0, 1, 0]],
            [0, 0, 1],
            [0, 0, 0, q(-3, 4), 20, q(-1, 2), 6])
        result = solve(lp)
        assert result.status == OPTIMAL
        assert result.x == (q(3, 4), 0, 0, 1, 0, 1, 0)
        assert result.value == q(-5, 4)

    def test_results_are_fractions(self):
        result = solve(standard_lp([[2, 1]], [Fraction(3, 2)], [1, 0]))
        assert result.x == (0, Fraction(3, 2))
        assert all(type(e) is Fraction for e in result.x)
        assert type(result.value) is Fraction

    def test_non_fraction_rationals_are_converted(self):
        lp = standard_lp([[0.5, "1/3"]], [1], [1, 0])
        assert lp.a_matrix == ((Fraction(1, 2), Fraction(1, 3)),)
        assert solve(lp).x == (0, 3)

    def test_integral_fractions_become_ints(self):
        lp = standard_lp([[Fraction(4, 2), 1.0]], [Fraction(6, 3)], [0, 0])
        assert [type(e) for e in (*lp.a_matrix[0], *lp.b_vector)] == [int] * 3

    def test_solve_scales_fractional_entries(self):
        # solve scales A and b by 12, the lcm of their denominators.
        q = Fraction
        lp = StandardLP(((q(1, 2), q(1, 3)),), (q(1, 4),), (1, 0))
        assert solve(lp).x == (0, q(3, 4))
        assert solve(StandardLP(((1, -2),), (3,), (0, 0))).x == (3, 0)
        assert solve(StandardLP(((), ()), (0, 0), ())) == LPResult(
            OPTIMAL, (), Fraction(0))

    def test_lp_is_its_a_b_and_c(self):
        # Three constructor arguments; equality and the hash are on them.
        lp = StandardLP(((Fraction(1, 2),),), (1,), (0,))
        with pytest.raises(TypeError):
            StandardLP(lp.a_matrix, lp.b_vector, lp.c_vector, 1)
        assert lp != StandardLP(((1,),), (2,), (0,))
        assert lp == standard_lp([[Fraction(1, 2)]], [1], [0])
        assert hash(lp) == hash(standard_lp([[0.5]], [1], [0]))

    def test_result_holds_integer_numerators_over_det(self):
        # x1 = 3/2 at the vertex of 2 x1 + x2 = 3 when x2 costs.
        result = solve(standard_lp([[2, 1]], [3], [0, 1]))
        assert (result.numerators, result.det) == ((3, 0), 2)
        assert result.x == (Fraction(3, 2), 0)
        assert all(type(e) is int for e in result.numerators)

    def test_result_equality_is_on_x(self):
        reduced = LPResult(OPTIMAL, (Fraction(1, 2), 1), Fraction(0))
        scaled = LPResult(OPTIMAL, (1, 2), Fraction(0), 2)
        assert scaled == reduced and hash(scaled) == hash(reduced)
        assert scaled != LPResult(OPTIMAL, (1, 2), Fraction(0), 4)
        assert LPResult(INFEASIBLE).x is None


class TestIntegerTableau:
    def test_inexact_division_raises(self):
        # Pivoting on the 2 gives the row [0, -1], which 4 does not divide.
        assert issubclass(InexactPivot, RuntimeError)
        with pytest.raises(InexactPivot):
            ratlp._pivot([[2, 1], [3, 1]], [1], 0, 0, 4)

    def test_pivot_keeps_det_times_true_tableau(self):
        # True tableau [[2, 1, 4], [1, 3, 5]]; pivot on its first entry.
        tableau = [[6, 3, 12], [3, 9, 15]]
        basis = [2, 3]
        det = ratlp._pivot(tableau, basis, 0, 0, 3)
        assert det == 6
        assert tableau == [[6, 3, 12], [0, 15, 18]]
        assert basis == [0, 3]

    def test_negative_drive_out_pivot_keeps_det_positive(self, monkeypatch):
        # Phase 1 ends with artificials basic at level zero; driving the
        # second one out pivots on the -2.
        seen = []
        real = ratlp._pivot

        def recorded(tableau, basis, row, col, det):
            entry = tableau[row][col]
            new_det = real(tableau, basis, row, col, det)
            seen.append((entry, new_det, [r[:] for r in tableau]))
            return new_det

        monkeypatch.setattr(ratlp, "_pivot", recorded)
        lp = standard_lp([[0], [-2], [-2]], [0, 0, 0], [1])
        assert solve(lp) == oracles.solve(lp)
        [(entry, det, tableau)] = seen
        assert (entry, det) == (-2, 2)
        # det times the true tableau: x1 - a2/2 = 0 and a3 - a2 = 0.
        assert tableau[1:3] == [[2, 0, -1, 0, 0], [0, 0, -2, 2, 0]]


class TestReferenceEquivalence:
    """The integer tableau against the Fraction simplex of tests/oracles.py:
    equal LPResult and the same (row, col) pivots on every LP."""

    @staticmethod
    def assert_matches_reference(monkeypatch, lps):
        library, reference = [], []
        real_pivot, reference_pivot = ratlp._pivot, oracles._pivot

        def library_pivot(tableau, basis, row, col, det):
            library.append((row, col))
            return real_pivot(tableau, basis, row, col, det)

        def recorded_reference_pivot(tableau, basis, row, col):
            reference.append((row, col))
            reference_pivot(tableau, basis, row, col)

        monkeypatch.setattr(ratlp, "_pivot", library_pivot)
        monkeypatch.setattr(oracles, "_pivot", recorded_reference_pivot)
        statuses = set()
        for lp in lps:
            library.clear()
            reference.clear()
            result = solve(lp)
            assert result == oracles.solve(lp), lp
            assert library == reference, lp
            statuses.add(result.status)
        return statuses

    def test_bs_exc_lps_of_the_corpus(self, monkeypatch, instance_corpus):
        _, items = instance_corpus
        assert len(items) == 530
        lps = lps_solved_during(
            lambda: [check_bs_exc(points) for _, points in items])
        assert len(lps) > 1000
        # Every corpus set passes, so every decomposition LP is feasible.
        assert self.assert_matches_reference(monkeypatch, lps) == {OPTIMAL}

    def test_hole_free_lps(self, monkeypatch):
        sets = list(exhaustive_point_sets(2, 2))
        assert len(sets) == 511
        sets += [random_point_set(3, 1, 0.6, seed) for seed in range(100)]
        lps = lps_solved_during(lambda: [check_hole_free(b) for b in sets])
        assert len(lps) > 100
        assert self.assert_matches_reference(monkeypatch, lps) == {
            OPTIMAL, INFEASIBLE}

    def test_seeded_lps(self, monkeypatch):
        lps = [lp for lp, _ in feasible_integer_lps()]
        lps += step_column_lps()
        assert self.assert_matches_reference(monkeypatch, lps) == {OPTIMAL}

    def test_seeded_fraction_lps(self, monkeypatch):
        statuses = self.assert_matches_reference(monkeypatch, fraction_lps())
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


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
