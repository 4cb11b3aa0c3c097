"""Step sets, LP-based decompositions, and zero-sum walk certificates.

The decomposition LP is cross-checked against an exhaustive multiset search
(tests/oracles.py) that shares no code with the solver.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product

import pytest

import bspoly.ratlp
import oracles
from bspoly.bisubmod import enumerate_integer_points
from bspoly.core import PointSet, add, phi_steps, violation
from bspoly.exchange import (
    INFEASIBLE,
    POSITIVE_OPTIMUM,
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
from bspoly.oracle import random_bisubmodular, random_point_set
from oracles import (
    brute_force_decomposition_exists,
    replay_decomposition,
    replay_zero_sum,
    steps_toward,
)

DIAGONAL = PointSet.from_points(2, [(0, 0), (1, 1)])
SQUARE = PointSet.from_points(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
CHAIN = PointSet.from_points(2, [(0, 0), (1, 1), (2, 2)])
HOLE = PointSet.from_points(1, [(0,), (2,)])


def convex_samples():
    """Small point sets known to pass every exchange axiom."""
    sets = [
        PointSet.from_points(1, [(0,), (1,)]),
        DIAGONAL,
        SQUARE,
        CHAIN,
    ]
    for seed in range(4):
        f = random_bisubmodular(2, 2, seed)
        b = enumerate_integer_points(f)
        if len(b) > 1:
            sets.append(b)
    return sets


class TestPhiB:
    def test_diagonal(self):
        assert phi_b(DIAGONAL, (0, 0)) == ((1, 1),)

    def test_interval(self):
        b = PointSet.from_points(1, [(0,), (1,)])
        assert phi_b(b, (0,)) == ((1,),)

    def test_singleton(self):
        b = PointSet.from_points(2, [(3, -1)])
        assert phi_b(b, (3, -1)) == ()

    def test_membership_required(self):
        with pytest.raises(PointNotInSet):
            phi_b(DIAGONAL, (5, 5))


class TestPhiBToward:
    def test_diagonal(self):
        assert phi_b_toward(DIAGONAL, (0, 0), (1, 1)) == ((1, 1),)

    def test_hole_blocks_unit_step(self):
        assert phi_b_toward(HOLE, (0,), (2,)) == ()

    def test_same_point(self):
        assert phi_b_toward(DIAGONAL, (1, 1), (1, 1)) == ()

    def test_square_offers_three_routes(self):
        assert phi_b_toward(SQUARE, (0, 0), (1, 1)) == ((0, 1), (1, 0), (1, 1))

    def test_index_matches_raw_filter_on_every_pair(self):
        sets = convex_samples() + [HOLE]
        sets += [random_point_set(3, 1, 0.5, seed) for seed in range(3)]
        for b in sets:
            for p in b:
                landing = tuple(alpha for alpha in phi_steps(b.dim)
                                if add(p, alpha) in b)
                assert phi_b(b, p) == landing
                for q in b:
                    expected = tuple(alpha for alpha in steps_toward(b.dim, p, q)
                                     if add(p, alpha) in b)
                    assert phi_b_toward(b, p, q) == expected


class TestDecompositionType:
    def test_steps_must_sum_to_doubled_displacement(self):
        with pytest.raises(ValueError):
            Decomposition((0,), (1,), ((1,),))
        dec = Decomposition((0,), (1,), ((1,), (1,)))
        assert dec.multiplicities() == (((1,), 2),)

    def test_multiplicities_group_repeats(self):
        dec = Decomposition((0, 0), (1, 1), ((0, 1), (1, 0), (1, 1)))
        assert dec.multiplicities() == (((0, 1), 1), ((1, 0), 1), ((1, 1), 1))

    def test_half_integrality_guard_is_a_solver_bug_signal(self):
        assert issubclass(HalfIntegralityViolated, RuntimeError)

    def test_third_in_an_optimal_vertex_raises(self, monkeypatch):
        real = bspoly.ratlp

        class ThirdVertex:
            """ratlp whose solve returns x = (1/3, 0, ...) at value 0."""

            def __getattr__(self, name):
                return getattr(real, name)

            def solve(self, lp):
                numerators = (1,) + (0,) * (lp.num_cols - 1)
                return real.LPResult(real.OPTIMAL, numerators, Fraction(0), 3)

        monkeypatch.setattr("bspoly.exchange.ratlp", ThirdVertex())
        with pytest.raises(HalfIntegralityViolated,
                           match=r"entry 1/3 for step \(1, 1\)"):
            decompose(CHAIN, (0, 0), (2, 2))


class TestDecompose:
    def test_chain_uses_diagonal_step_four_times(self):
        dec = decompose(CHAIN, (0, 0), (2, 2))
        assert isinstance(dec, Decomposition)
        assert dec.steps == ((1, 1),) * 4
        assert dec.multiplicities() == (((1, 1), 4),)

    def test_hole_is_infeasible(self):
        out = decompose(HOLE, (0,), (2,))
        assert isinstance(out, NoDecomposition)
        assert out.reason == INFEASIBLE
        assert out.optimal_value is None

    def test_same_point_needs_no_steps(self):
        dec = decompose(DIAGONAL, (1, 1), (1, 1))
        assert isinstance(dec, Decomposition)
        assert dec.steps == ()

    def test_same_point_solves_no_lp(self, monkeypatch):
        sets = convex_samples() + [HOLE, random_point_set(3, 1, 0.5, 0)]
        # With p = q the LP has a zero right-hand side: its vertex is 0.
        for b in sets:
            for p in b:
                columns = phi_b(b, p)
                lp = bspoly.ratlp.standard_lp(
                    [[alpha[u] for alpha in columns] for u in range(b.dim)],
                    [0] * b.dim, [0] * len(columns))
                result = bspoly.ratlp.solve(lp)
                assert result.value == 0 and not any(result.x)
        calls = []
        real_solve = bspoly.ratlp.solve
        monkeypatch.setattr(bspoly.ratlp, "solve",
                            lambda lp: calls.append(lp) or real_solve(lp))
        for b in sets:
            for p in b:
                assert decompose(b, p, p) == Decomposition(p, p, ())
        assert calls == []
        decompose(CHAIN, (0, 0), (2, 2))
        assert len(calls) == 1

    def test_lp_has_the_violation_costs(self, monkeypatch):
        # decompose builds its LP directly; it must equal the LP that
        # standard_lp makes from the step columns and violation(), with
        # int entries only in A and b.
        sets = convex_samples() + [HOLE, random_point_set(3, 1, 0.5, 0)]
        sets.append(PointSet.from_points(2, [(0, 0), (1, 1), (1, -1), (2, 0)]))
        solved = []
        real_solve = bspoly.ratlp.solve
        monkeypatch.setattr(bspoly.ratlp, "solve",
                            lambda lp: solved.append(lp) or real_solve(lp))
        checked = 0
        for b in sets:
            for p in b:
                for q in b:
                    if p == q:
                        continue
                    decompose(b, p, q)
                    columns = phi_b(b, p)
                    expected = bspoly.ratlp.standard_lp(
                        [[alpha[u] for alpha in columns] for u in range(b.dim)],
                        [y - x for x, y in zip(p, q)],
                        [violation(alpha, p, q) for alpha in columns])
                    [lp] = solved
                    solved.clear()
                    assert lp == expected
                    assert all(type(e) is int
                               for e in chain(*lp.a_matrix, lp.b_vector))
                    checked += 1
        assert checked > 150

    def test_reachable_only_by_straying_steps(self):
        # (2,0)-(0,0) is in the cone of available steps but every route
        # spends moves orthogonal to the displacement
        b = PointSet.from_points(2, [(0, 0), (1, 1), (1, -1), (2, 0)])
        out = decompose(b, (0, 0), (2, 0))
        assert isinstance(out, NoDecomposition)
        assert out.reason == POSITIVE_OPTIMUM
        assert out.optimal_value == Fraction(2)

    def test_membership_required(self):
        with pytest.raises(PointNotInSet):
            decompose(DIAGONAL, (0, 0), (2, 2))

    def test_matches_exhaustive_search_on_random_sets(self):
        sets = [random_point_set(2, 1, 0.4, seed) for seed in range(10)]
        sets += [random_point_set(2, 2, 0.15, seed) for seed in range(4)]
        sets += [random_point_set(3, 1, 0.2, seed) for seed in range(4)]
        checked = 0
        for b in sets:
            for p in b:
                for q in b:
                    out = decompose(b, p, q)
                    found = isinstance(out, Decomposition)
                    assert found == brute_force_decomposition_exists(b, p, q)
                    if found:
                        assert replay_decomposition(b, out)
                    checked += 1
        assert checked > 50


class TestZeroSumExchange:
    def test_square_walk_doubles_a_self_loop(self):
        zse = zero_sum_exchange(SQUARE, (0, 0), (1, 1))
        assert zse == ZeroSumExchange(((1, 0), (1, 0)), ((-1, 0), (-1, 0)))

    def test_interval_self_loops(self):
        b = PointSet.from_points(1, [(0,), (1,)])
        zse = zero_sum_exchange(b, (0,), (1,))
        assert zse.alphas == ((1,), (1,))
        assert zse.betas == ((-1,), (-1,))

    def test_diagonal_single_edge_pair(self):
        zse = zero_sum_exchange(DIAGONAL, (0, 0), (1, 1))
        assert zse.alphas == ((1, 1),)
        assert zse.betas == ((-1, -1),)

    def test_equal_points_rejected(self):
        with pytest.raises(ValueError):
            zero_sum_exchange(DIAGONAL, (1, 1), (1, 1))

    def test_membership_required(self):
        with pytest.raises(PointNotInSet):
            zero_sum_exchange(DIAGONAL, (0, 0), (2, 2))

    def test_uncovered_coordinate_is_certified(self):
        with pytest.raises(ExchangeAxiomViolated) as exc_info:
            zero_sum_exchange(HOLE, (0,), (2,))
        exc = exc_info.value
        assert (exc.p, exc.q, exc.u) == ((0,), (2,), 1)

    def test_matches_reference_walk_on_every_pair(self):
        cells = list(product(range(3), repeat=2))
        sets = [PointSet.from_points(2, [c for i, c in enumerate(cells)
                                         if mask >> i & 1])
                for mask in range(1, 2 ** len(cells))]
        sets += [random_point_set(3, 1, 0.6, seed) for seed in range(100)]
        outcomes = set()
        for b in sets:
            for q in b:
                for r in b:
                    if q == r:
                        continue
                    try:
                        expected = oracles.zero_sum_exchange(b, q, r)
                    except ExchangeAxiomViolated as exc:
                        with pytest.raises(ExchangeAxiomViolated) as got:
                            zero_sum_exchange(b, q, r)
                        assert ((got.value.p, got.value.q, got.value.u)
                                == (exc.p, exc.q, exc.u))
                        outcomes.add("raised")
                        continue
                    assert zero_sum_exchange(b, q, r) == expected
                    outcomes.add("walked")
        assert outcomes == {"raised", "walked"}

    def test_replays_on_known_convex_sets(self):
        for b in convex_samples():
            for q in b:
                for r in b:
                    if q == r:
                        continue
                    zse = zero_sum_exchange(b, q, r)
                    assert replay_zero_sum(b, q, r, zse)


class TestStepSetClosure:
    def test_unit_then_swap_implies_unit(self):
        # s_u in Phi_B(p) and -s_u+s_v in Phi_B(p) force s_v in Phi_B(p)
        for b in convex_samples():
            units = [s for s in phi_steps_units(b.dim)]
            for p in b:
                available = set(phi_b(b, p))
                for s_u in units:
                    if s_u not in available:
                        continue
                    for s_v in units:
                        if coord(s_v) == coord(s_u):
                            continue
                        swap = add(neg(s_u), s_v)
                        if swap in available:
                            assert s_v in available

    def test_pair_then_swap_implies_pair_or_units(self):
        # s_u+s_v and -s_v+s_w in Phi_B(p), s_u != -s_w, force
        # s_u+s_w in Phi_B(p) or both units in Phi_B(p)
        for b in convex_samples():
            if b.dim < 2:
                continue
            units = [s for s in phi_steps_units(b.dim)]
            for p in b:
                available = set(phi_b(b, p))
                for s_u in units:
                    for s_v in units:
                        if coord(s_v) == coord(s_u):
                            continue
                        if add(s_u, s_v) not in available:
                            continue
                        for s_w in units:
                            if coord(s_w) == coord(s_v) or s_w == neg(s_u):
                                continue
                            if add(neg(s_v), s_w) not in available:
                                continue
                            if s_w == s_u:
                                assert s_u in available
                            else:
                                assert (add(s_u, s_w) in available
                                        or (s_u in available
                                            and s_w in available))


def phi_steps_units(dim):
    from bspoly.core import phi_steps
    return [s for s in phi_steps(dim) if sum(abs(e) for e in s) == 1]


def coord(step):
    return next(i for i, e in enumerate(step) if e != 0)


def neg(step):
    return tuple(-e for e in step)
