"""Bisubmodular function tables, their polyhedra, and local structure.

The local-structure properties (tangent cone, dep vectors) are exercised on
small randomly generated bisubmodular functions; every claim is checked
three ways where the theory says three characterizations agree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import oracles

import bspoly.bisubmod
from bspoly.axioms import check_hole_free
from bspoly.bisubmod import (
    INF,
    BisubFunction,
    PointNotInPolyhedron,
    UnboundedEnumeration,
    check_bisubmodular,
    dep,
    enumerate_integer_points,
    feasible_directions,
    polyhedron_contains,
)
from bspoly.core import (
    DimensionMismatchError,
    PointSet,
    add,
    phi_steps,
    precedes,
    signed_vectors,
    zero,
)
from bspoly.oracle import (
    random_bisubmodular,
    random_bisubmodular_via_submodular,
    random_point_set,
    support_function,
)
from bspoly.ratlp import in_convex_hull

INTERVAL_01 = BisubFunction.from_table(1, {(1,): 1, (-1,): 0})


def sample_functions():
    """Small seeded bisubmodular functions for the local-structure tests."""
    fs = [random_bisubmodular(1, 3, seed) for seed in range(3)]
    fs += [random_bisubmodular(2, 2, seed) for seed in range(3)]
    return fs


class TestFromTable:
    def test_missing_entries_default_to_inf(self):
        f = BisubFunction.from_table(1, {(1,): 1})
        assert f((1,)) == 1
        assert f((-1,)) == INF
        assert f((0,)) == 0

    def test_zero_argument_forced_to_zero(self):
        f = BisubFunction.from_table(1, {(0,): 0, (1,): 2})
        assert f((0,)) == 0
        with pytest.raises(ValueError):
            BisubFunction.from_table(1, {(0,): 1})

    def test_non_integer_value_rejected(self):
        with pytest.raises(ValueError):
            BisubFunction.from_table(1, {(1,): 0.5})
        assert BisubFunction.from_table(1, {(1,): INF})((1,)) == INF

    def test_fraction_and_string_values_rejected(self):
        # Truncating would read Fraction(1, 2) as 0; int("7") is 7.
        for value in (Fraction(1, 2), "7", Fraction(2, 1)):
            with pytest.raises(ValueError, match="neither an integer"):
                BisubFunction.from_table(1, {(1,): value})
        with pytest.raises(ValueError, match="neither an integer"):
            BisubFunction.from_table(1, {(0,): "0"})
        assert BisubFunction.from_table(1, {(1,): True})((1,)) == 1

    def test_wrong_dimension_argument_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BisubFunction.from_table(2, {(1,): 0})

    def test_entries_in_lexicographic_order(self):
        f = INTERVAL_01
        args = [x for x, _ in f.entries()]
        assert args == sorted(args)
        assert len(args) == 3


class TestCheckBisubmodular:
    def test_interval_function_passes(self):
        assert check_bisubmodular(INTERVAL_01).passed

    def test_strictly_superadditive_corner_fails(self):
        f = BisubFunction.from_table(2, {
            (1, 0): 0, (0, 1): 0, (1, 1): 1,
            (-1, -1): 10, (-1, 0): 10, (-1, 1): 10,
            (0, -1): 10, (1, -1): 10,
        })
        verdict = check_bisubmodular(f)
        assert not verdict.passed
        # first violating pair in the fixed scan order
        assert verdict.witness == {
            "x": (0, 1), "y": (1, 0),
            "meet": (0, 0), "join": (1, 1),
            "lhs": 0, "rhs": 1,
        }

    def test_zero_function_passes(self):
        f = BisubFunction.from_table(2, {x: 0 for x, _ in
                                         BisubFunction.from_table(2, {}).entries()})
        assert check_bisubmodular(f).passed

    def test_infinite_left_side_never_violates(self):
        # with f(chi1) finite the pair (chi2, chi1) violates; +inf hides it
        finite = BisubFunction.from_table(2, {(1, 0): 0, (0, 1): 0, (1, 1): 1})
        assert not check_bisubmodular(finite).passed
        hidden = BisubFunction.from_table(2, {(1, 0): INF, (0, 1): 0, (1, 1): 1})
        assert check_bisubmodular(hidden).passed

    def test_finite_left_against_infinite_right_violates(self):
        f = BisubFunction.from_table(2, {
            (1, 0): 0, (0, 1): 0,
            (-1, -1): 10, (-1, 0): 10, (-1, 1): 10,
            (0, -1): 10, (1, -1): 10,
        })
        verdict = check_bisubmodular(f)
        assert not verdict.passed
        assert verdict.witness["rhs"] == INF


def all_tables(dim, choices):
    """Every table with f(0) = 0 and each other value drawn from choices."""
    origin = zero(dim)
    vectors = tuple(signed_vectors(dim))
    for draw in product(choices, repeat=len(vectors) - 1):
        rest = iter(draw)
        yield BisubFunction(dim, tuple(0 if x == origin else next(rest)
                                       for x in vectors))


def tables_with_inf(dim, count, seed):
    """Support functions of boxes and of random sets with +inf entries.

    Half of the tables hide every argument with a chosen sign in a chosen
    coordinate; that family is closed under meet and join, so tables built
    from a box stay bisubmodular.  The others hide arguments at random.
    """
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            sides = [sorted((0, rng.randint(-2, 2))) for _ in range(dim)]
            base = PointSet.from_points(dim, product(
                *(range(lo, hi + 1) for lo, hi in sides)))
        else:
            base = random_point_set(dim, 1, 0.5, rng.randrange(2 ** 32))
        if rng.random() < 0.5:
            banned = {(rng.randrange(dim), rng.choice((-1, 1)))
                      for _ in range(rng.randint(1, dim))}
            hidden = [any(x[u] == sign for u, sign in banned)
                      for x in signed_vectors(dim)]
        else:
            hidden = [x != zero(dim) and rng.random() < 0.2
                      for x in signed_vectors(dim)]
        yield BisubFunction(dim, tuple(
            INF if hide else v
            for hide, v in zip(hidden, support_function(base).values)))


class TestHalfScanMatchesReference:
    """The scan over pairs x < y against the full ordered-pair reference."""

    def assert_same(self, tables):
        verdicts = []
        for f in tables:
            verdict = check_bisubmodular(f)
            assert verdict == oracles.check_bisubmodular(f)
            verdicts.append(verdict.passed)
        return verdicts

    def test_all_dim1_tables_with_inf(self):
        verdicts = self.assert_same(all_tables(1, (-2, -1, 0, 1, 2, INF)))
        assert len(verdicts) == 36
        assert any(verdicts) and not all(verdicts)

    def test_all_finite_dim2_tables(self):
        verdicts = self.assert_same(all_tables(2, (-1, 0, 1)))
        assert len(verdicts) == 3 ** 8
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("dim,count", [(3, 200), (4, 40), (5, 10)])
    def test_seeded_tables_with_inf(self, dim, count):
        verdicts = self.assert_same(tables_with_inf(dim, count, seed=dim))
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("dim", [5, 6])
    def test_two_point_support_function_fails_deep_in_the_scan(self, dim):
        # The finite table fails the local test; its first violating pair
        # comes after more than a sixth of all x.
        f = support_function(PointSet.from_points(
            dim, [zero(dim), (1, 1, 1) + zero(dim - 3)]))
        assert self.assert_same([f]) == [False]
        x = check_bisubmodular(f).witness["x"]
        assert x == (-1, 0, 1) + (-1,) * (dim - 3)
        assert bspoly.bisubmod._rank(x) > 3 ** dim // 6

    def test_acceptance_corpus_tables(self, instance_corpus):
        _, items = instance_corpus
        assert all(self.assert_same(f for f, _ in items))

    @pytest.mark.parametrize("dim,count", [(3, 150), (4, 40)])
    def test_support_functions_of_random_sets(self, dim, count):
        rng = random.Random(dim)
        verdicts = self.assert_same(
            support_function(random_point_set(
                dim, 1, rng.choice((0.1, 0.3, 0.9)), rng.randrange(2 ** 32)))
            for _ in range(count))
        assert any(verdicts) and not all(verdicts)

    def test_composed_dim3_tables(self):
        assert all(self.assert_same(
            random_bisubmodular_via_submodular(3, seed) for seed in range(25)))

    def test_seeded_dim2_tables_with_inf(self):
        # The local test is not sound once +inf appears: some of these
        # tables pass it and still fail the pair scan.
        rng = random.Random(2)
        tables = [BisubFunction(2, tuple(
            0 if x == zero(2) else INF if rng.random() < 0.3
            else rng.randint(0, 2) for x in signed_vectors(2)))
            for _ in range(1000)]
        verdicts = self.assert_same(tables)
        assert any(verdicts) and not all(verdicts)
        assert any(bspoly.bisubmod._locally_bisubmodular(f) and not passed
                   for f, passed in zip(tables, verdicts))


class TestLocalRows:
    """The row tuple of the samplers against the local test's loops."""

    @staticmethod
    def meets_rows(values, dim):
        return all(values[i] + values[j] >= values[k] + values[l]
                   for i, j, k, l in bspoly.bisubmod._local_rows(dim))

    @pytest.mark.parametrize("dim, entries", [(1, range(-5, 6)),
                                              (2, (-1, 0, 1))])
    def test_every_small_table(self, dim, entries):
        center = 3 ** dim // 2
        verdicts = []
        for drawn in product(entries, repeat=3 ** dim - 1):
            f = BisubFunction(dim, drawn[:center] + (0,) + drawn[center:])
            verdicts.append(bspoly.bisubmod._locally_bisubmodular(f))
            assert self.meets_rows(f.values, dim) == verdicts[-1]
        assert len(verdicts) == len(entries) ** (3 ** dim - 1)
        assert any(verdicts) and not all(verdicts)


class TestRankOffsets:
    """The offset reads of BisubFunction against their vector definitions."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_singletons_and_constraints_on_tables_with_inf(self, dim):
        hidden = 0
        for f in tables_with_inf(dim, 20, seed=20 + dim):
            units = [tuple(sign if i == u else 0 for i in range(dim))
                     for u in range(dim) for sign in (1, -1)]
            assert f.singleton_values == tuple(
                zip(map(f, units[0::2]), map(f, units[1::2])))
            assert f.finite_constraints == tuple(
                (x, v) for x, v in f.entries()
                if x != zero(dim) and v != INF)
            hidden += INF in (v for pair in f.singleton_values for v in pair)
        assert hidden


class TestPolyhedronContains:
    def test_interval_membership(self):
        assert polyhedron_contains(INTERVAL_01, (Fraction(1, 2),))
        assert not polyhedron_contains(INTERVAL_01, (-1,))
        assert polyhedron_contains(INTERVAL_01, (0,))
        assert polyhedron_contains(INTERVAL_01, (1,))
        assert not polyhedron_contains(INTERVAL_01, (2,))

    def test_all_infinite_constraints_vacuous(self):
        f = BisubFunction.from_table(2, {})
        assert polyhedron_contains(f, (100, -100))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            polyhedron_contains(INTERVAL_01, (0, 0))


class TestEnumerateIntegerPoints:
    def test_interval(self):
        assert list(enumerate_integer_points(INTERVAL_01)) == [(0,), (1,)]

    def test_conflicting_constraints_empty(self):
        f = BisubFunction.from_table(1, {(1,): -1, (-1,): 0})
        assert len(enumerate_integer_points(f)) == 0

    def test_support_function_round_trip(self):
        from bspoly.core import PointSet
        b = PointSet.from_points(2, [(0, 0), (1, 1)])
        f = support_function(b)
        assert enumerate_integer_points(f) == b

    def test_unbounded_without_box(self):
        f = BisubFunction.from_table(1, {(1,): 1})
        with pytest.raises(UnboundedEnumeration):
            enumerate_integer_points(f)

    def test_explicit_box(self):
        f = BisubFunction.from_table(1, {(1,): 1})
        got = enumerate_integer_points(f, box=((-2,), (2,)))
        assert list(got) == [(-2,), (-1,), (0,), (1,)]

    def test_non_integer_box_refused(self):
        # Truncating the lower corner 1.5 would give 1, below the box.
        f = BisubFunction.from_table(1, {(1,): 3, (-1,): 3})
        with pytest.raises(TypeError):
            enumerate_integer_points(f, box=((1.5,), (3,)))
        assert list(enumerate_integer_points(f, box=((2,), (3,)))) == [
            (2,), (3,)]

    def test_huge_box_tests_only_the_function_bounds(self, monkeypatch):
        calls = []
        real_contains = bspoly.bisubmod.polyhedron_contains
        monkeypatch.setattr(bspoly.bisubmod, "polyhedron_contains",
                            lambda f, p: calls.append(p) or real_contains(f, p))
        got = enumerate_integer_points(INTERVAL_01,
                                       box=((-10 ** 6,), (10 ** 6,)))
        assert list(got) == [(0,), (1,)]
        assert len(calls) <= 2

    def test_box_with_one_infinite_singleton_matches_box_scan(self):
        # f(+chi_1) is +inf; the other constraints are finite.
        f = BisubFunction.from_table(2, {
            (-1, 0): 1, (0, 1): 2, (0, -1): 1, (1, 1): 2, (1, -1): 3,
        })
        assert f.singleton_values[0][0] == INF
        for lo, hi in ((-3, 3), (-1, 1), (0, 5), (2, 2), (-9, -2)):
            box = ((lo, lo), (hi, hi))
            expected = [p for p in product(range(lo, hi + 1), repeat=2)
                        if polyhedron_contains(f, p)]
            assert list(enumerate_integer_points(f, box)) == expected


class TestDepthFirstMatchesReference:
    """The depth-first walk against the box scan of tests/oracles.py."""

    def assert_same(self, f, box=None):
        """Both enumerations of f, or None when both refuse an unbounded box."""
        try:
            expected = oracles.enumerate_integer_points(f, box)
        except UnboundedEnumeration:
            with pytest.raises(UnboundedEnumeration):
                enumerate_integer_points(f, box)
            return None
        got = enumerate_integer_points(f, box)
        assert got == expected
        return got

    def test_all_dim1_tables_with_and_without_box(self):
        sizes = []
        for f in all_tables(1, (-2, -1, 0, 1, 2, INF)):
            for box in (None, ((-3,), (3,)), ((1,), (1,))):
                got = self.assert_same(f, box)
                sizes.append(None if got is None else len(got))
        assert len(sizes) == 3 * 36
        assert None in sizes and 0 in sizes and max(filter(None, sizes)) > 1

    @pytest.mark.parametrize("dim,count,low", [(2, 300, -1), (3, 60, 0)])
    def test_seeded_tables_that_need_not_be_bisubmodular(self, dim, count,
                                                         low):
        # The CLI enumerates any function, so the walk must be exact even
        # where a prefix that no constraint cuts off has no completion;
        # most of these tables have such dead prefixes.
        rng = random.Random(dim)
        box = ((-2,) * dim, (2,) * dim)
        bisubmodular, nonempty = 0, 0
        for _ in range(count):
            f = BisubFunction(dim, tuple(
                0 if x == zero(dim) else INF if rng.random() < 0.2
                else rng.randint(low, 3) for x in signed_vectors(dim)))
            bisubmodular += check_bisubmodular(f).passed
            nonempty += len(self.assert_same(f, box)) > 0
        assert bisubmodular < count // 10
        assert nonempty > count // 2

    def assert_strictly_increasing(self, got):
        assert all(p < q for p, q in zip(got.points, got.points[1:]))
        assert all(p in got for p in got.points)
        assert all(type(c) is int for p in got.points for c in p)

    def test_acceptance_corpus_tables(self, instance_corpus):
        _, items = instance_corpus
        for f, _ in items:
            self.assert_strictly_increasing(self.assert_same(f))

    @pytest.mark.parametrize("dim,count", [(2, 100), (3, 60)])
    def test_tables_with_inf_in_a_box(self, dim, count):
        # Most of these tables leave P(f) unbounded, so the box is needed.
        box = ((-2,) * dim, (1,) * dim)
        sizes, unbounded = [], 0
        for f in tables_with_inf(dim, count, seed=10 + dim):
            got = self.assert_same(f, box)
            self.assert_strictly_increasing(got)
            sizes.append(len(got))
            unbounded += INF in (v for pair in f.singleton_values
                                 for v in pair)
        assert max(sizes) > 1 and unbounded > count // 2

    def test_box_that_leaves_no_points(self):
        f = support_function(PointSet.from_points(2, [(0, 0), (1, 1)]))
        for box in (((5, 5), (6, 6)), ((1, -1), (0, 1))):
            assert len(self.assert_same(f, box)) == 0


class TestDep:
    def test_no_tight_constraint_gives_empty_meet(self):
        d = dep(INTERVAL_01, (0,), (1,))
        assert d.empty_meet
        assert d.vector == (0,)

    def test_tight_lower_bound(self):
        d = dep(INTERVAL_01, (0,), (-1,))
        assert not d.empty_meet
        assert d.vector == (-1,)

    def test_tight_upper_bound(self):
        d = dep(INTERVAL_01, (1,), (1,))
        assert not d.empty_meet
        assert d.vector == (1,)

    def test_point_outside_polyhedron_rejected(self):
        with pytest.raises(PointNotInPolyhedron):
            dep(INTERVAL_01, (5,), (1,))

    def test_non_unit_step_rejected(self):
        with pytest.raises(ValueError):
            dep(INTERVAL_01, (0,), (0,))

    def test_nonempty_meet_contains_its_own_step(self):
        for f in sample_functions():
            for p in enumerate_integer_points(f):
                for s in phi_steps(f.dim):
                    if sum(abs(e) for e in s) != 1:
                        continue
                    d = dep(f, p, s)
                    if not d.empty_meet:
                        assert precedes(s, d.vector)


class TestFeasibleDirections:
    def test_at_lower_endpoint(self):
        assert feasible_directions(INTERVAL_01, (0,)) == ((1,),)

    def test_at_upper_endpoint(self):
        assert feasible_directions(INTERVAL_01, (1,)) == ((-1,),)

    def test_interior_point_unblocked(self):
        f = BisubFunction.from_table(1, {(1,): 2, (-1,): 0})
        assert feasible_directions(f, (1,)) == tuple(phi_steps(1))

    def test_point_outside_polyhedron_rejected(self):
        with pytest.raises(PointNotInPolyhedron):
            feasible_directions(INTERVAL_01, (3,))


class TestLocalStructure:
    def test_unit_step_three_way_equivalence(self):
        # p+s in P(f)  <=>  s is a feasible direction  <=>  dep has empty meet
        for f in sample_functions():
            for p in enumerate_integer_points(f):
                for s in phi_steps(f.dim):
                    if sum(abs(e) for e in s) != 1:
                        continue
                    stays = polyhedron_contains(f, add(p, s))
                    tangent = s in feasible_directions(f, p)
                    empty = dep(f, p, s).empty_meet
                    assert stays == tangent == empty

    def test_blocked_pair_step_criterion(self):
        # when p+s_u leaves P(f): p+s_u+s_v in P(f)  <=>  s_u+s_v feasible
        # <=>  -s_v lies below dep(p, s_u)
        for f in sample_functions():
            dim = f.dim
            if dim < 2:
                continue
            units = [s for s in phi_steps(dim) if sum(abs(e) for e in s) == 1]
            for p in enumerate_integer_points(f):
                for s_u in units:
                    if polyhedron_contains(f, add(p, s_u)):
                        continue
                    d = dep(f, p, s_u)
                    for s_v in units:
                        if any(a and b for a, b in zip(s_u, s_v)):
                            continue
                        pair = add(s_u, s_v)
                        stays = polyhedron_contains(f, add(p, pair))
                        tangent = pair in feasible_directions(f, p)
                        neg_v = tuple(-e for e in s_v)
                        below = (not d.empty_meet) and precedes(neg_v, d.vector)
                        assert stays == tangent == below

    def test_dep_chain_monotonicity(self):
        # s_u below dep(p, s_v) forces dep(p, s_u) below dep(p, s_v)
        for f in sample_functions():
            units = [s for s in phi_steps(f.dim)
                     if sum(abs(e) for e in s) == 1]
            for p in enumerate_integer_points(f):
                deps = {s: dep(f, p, s) for s in units}
                for s_v, d_v in deps.items():
                    if d_v.empty_meet:
                        continue
                    for s_u in units:
                        if precedes(s_u, d_v.vector):
                            d_u = deps[s_u]
                            assert not d_u.empty_meet
                            assert precedes(d_u.vector, d_v.vector)

    def test_enumerated_sets_have_no_holes(self):
        for f in sample_functions():
            b = enumerate_integer_points(f)
            if len(b) == 0:
                continue
            assert check_hole_free(b).passed

    def test_fractional_polyhedron_points_lie_in_integer_hull(self):
        # the polyhedron of an integral bisubmodular function has integral
        # vertices, so its rational points stay inside conv(B)
        for f in sample_functions():
            b = list(enumerate_integer_points(f))
            if not b:
                continue
            lo = [min(p[u] for p in b) for u in range(f.dim)]
            hi = [max(p[u] for p in b) for u in range(f.dim)]
            for den in (2, 3):
                from itertools import product
                axes = [range(lo[u] * den, hi[u] * den + 1)
                        for u in range(f.dim)]
                for nums in product(*axes):
                    p = tuple(Fraction(k, den) for k in nums)
                    if polyhedron_contains(f, p):
                        assert in_convex_hull(b, p)[0]
