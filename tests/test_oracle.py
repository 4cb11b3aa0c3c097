"""Support-function oracle, instance generators, and the equivalence harness."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import chain, product, repeat
from operator import mul

import pytest

import bspoly.axioms
import bspoly.oracle
import oracles
from bspoly import cli
from bspoly.axioms import check_jump_system
from bspoly.bisubmod import (
    INF,
    check_bisubmodular,
    enumerate_integer_points,
    feasible_directions,
)
from bspoly.core import PointSet, dot, signed_vectors, sub, verdict_fail, zero
from bspoly.exchange import Decomposition
from bspoly.oracle import (
    RejectionBudgetExceeded,
    VERDICT_ORDER,
    exhaustive_point_sets,
    is_bs_convex,
    random_bisubmodular,
    random_bisubmodular_via_submodular,
    random_point_set,
    run_equivalence_harness,
    support_function,
)
from bspoly.ratlp import in_conical_hull
from orbits import grid_orbits

DIAGONAL = PointSet.from_points(2, [(0, 0), (1, 1)])
HOLE = PointSet.from_points(1, [(0,), (2,)])


class TestSupportFunction:
    def test_diagonal_values(self):
        f = support_function(DIAGONAL)
        assert f((1, 0)) == 1
        assert f((1, -1)) == 0
        assert f((-1, -1)) == 0
        assert f((1, 1)) == 2

    def test_single_point_gives_inner_products(self):
        p = (2, -3)
        f = support_function(PointSet.from_points(2, [p]))
        for x in signed_vectors(2):
            assert f(x) == (0 if x == zero(2) else dot(p, x))

    def test_hole_values(self):
        f = support_function(HOLE)
        assert f((1,)) == 2
        assert f((-1,)) == 0

    def test_always_finite(self):
        f = support_function(random_point_set(2, 2, 0.4, 3))
        assert all(v != INF for _, v in f.entries())

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            support_function(PointSet.from_points(1, []))

    @staticmethod
    def assert_definition(B):
        """The table against max over members of the inner product."""
        values = support_function(B).values
        assert values == tuple(max(sum(map(mul, p, x)) for p in B)
                               for x in signed_vectors(B.dim))
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_one_point_sets_match_definition(self, dim):
        rng = random.Random(dim)
        for _ in range(5):
            self.assert_definition(PointSet.from_points(
                dim, [[rng.randint(-5, 5) for _ in range(dim)]]))

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_large_coordinates_match_definition(self, dim):
        rng = random.Random(dim)
        for size in (1, 2, 7):
            self.assert_definition(PointSet.from_points(dim, [
                [rng.choice((-10 ** 6, 10 ** 6, 10 ** 6 - 1, 0))
                 for _ in range(dim)] for _ in range(size)]))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_random_sets_match_definition(self, dim):
        rng = random.Random(dim)
        for _ in range(4):
            self.assert_definition(random_point_set(
                dim, rng.randint(1, 2), rng.choice((0.05, 0.2, 0.6)),
                rng.randrange(2 ** 32)))

    @pytest.mark.parametrize("size", [64, 65, 129])
    def test_member_counts_around_the_fold_match_definition(self, size):
        # Rows are folded 64 members at a time after the first; the last
        # member in order, (9, 9, 9), alone attains f(1, 1, 1).
        rng = random.Random(size)
        points = {(9, 9, 9)}
        while len(points) < size:
            points.add(tuple(rng.randint(-5, 5) for _ in range(3)))
        B = PointSet.from_points(3, points)
        assert len(B) == size and B.points[-1] == (9, 9, 9)
        self.assert_definition(B)
        assert support_function(B)((1, 1, 1)) == 27


class TestIsBsConvex:
    def test_diagonal_is_convex_with_function_certificate(self, capsys):
        verdict = is_bs_convex(DIAGONAL)
        assert verdict.passed
        assert verdict.witness["function"] == support_function(DIAGONAL)
        cli.emit(verdict, False)
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"]["function"]["kind"] == "function"

    def test_hole_fails_round_trip(self):
        verdict = is_bs_convex(HOLE)
        assert not verdict.passed
        assert verdict.witness["reason"] == "round_trip_mismatch"
        assert verdict.witness["extra_points"] == ((1,),)
        assert verdict.witness["missing_points"] == ()

    def test_singleton_is_convex(self):
        assert is_bs_convex(PointSet.from_points(3, [(1, -2, 0)])).passed

    def test_cube_diagonal_support_function_not_bisubmodular(self):
        # a two-coordinate step cannot cross a three-coordinate gap, and
        # the failure already shows up in the support-function table
        b = PointSet.from_points(3, [(0, 0, 0), (1, 1, 1)])
        verdict = is_bs_convex(b)
        assert not verdict.passed
        assert verdict.witness["reason"] == "support_function_not_bisubmodular"
        assert verdict.witness["violation"] == {
            "x": (-1, 0, 1), "y": (-1, 1, 0),
            "meet": (-1, 0, 0), "join": (-1, 1, 1),
            "lhs": 0, "rhs": 1,
        }


def l1_ball(dim, without_origin=False):
    """The integer points at L1 distance at most 1 from the origin."""
    return PointSet.from_points(dim, [
        p for p in product((-1, 0, 1), repeat=dim)
        if sum(map(abs, p)) <= 1 and (any(p) or not without_origin)])


class TestOracleScaling:
    """L1 balls whose support tables the 9^dim pair scan could not check in
    a minute; the local test and the depth-first walk take well under one."""

    @pytest.mark.parametrize("dim", [7, 8])
    def test_l1_ball_passes(self, dim):
        assert is_bs_convex(l1_ball(dim)).passed

    def test_dim8_ball_without_origin_fails(self):
        verdict = is_bs_convex(l1_ball(8, without_origin=True))
        assert not verdict.passed
        assert verdict.witness["reason"] == "round_trip_mismatch"
        assert verdict.witness["extra_points"] == ((0,) * 8,)


class TestRandomBisubmodular:
    def test_samples_satisfy_the_inequality(self):
        for seed in range(5):
            f = random_bisubmodular(1, 2, seed)
            assert check_bisubmodular(f).passed
            assert f((1,)) + f((-1,)) >= 0

    def test_zero_range_gives_zero_function(self):
        f = random_bisubmodular(1, 0, seed=9)
        assert all(v == 0 for _, v in f.entries())

    def test_reproducible_table(self):
        f = random_bisubmodular(2, 3, seed=12345)
        assert f.values == (1, 1, 1, 2, 0, 2, 3, 1, 3)
        assert f == random_bisubmodular(2, 3, seed=12345)

    def test_dimension_cap(self):
        # Dim 3 is refused up front: a draw there used up its budget.
        for dim in (3, 4):
            with pytest.raises(ValueError):
                random_bisubmodular(dim, 2, seed=0)

    def test_budget_exhaustion(self):
        with pytest.raises(RejectionBudgetExceeded):
            random_bisubmodular(2, 5, seed=0, max_attempts=1)

    @pytest.mark.parametrize("dim, value_range, digest", [
        # Width 1: every draw is 0, yet each still consumes the stream.
        (1, 0, "a386fc51303ef9f3820fade716544d03"
               "a9a1a7eaaae7ea0fcc444ca66f3c250a"),
        # Width 3, which the acceptance corpus never draws.
        (2, 1, "e9592f96ae3f9c55a69813446234bbe6"
               "f203c5d43df2d025e8fa3429c4809820"),
    ])
    def test_seeded_tables_pinned(self, dim, value_range, digest):
        tables = [random_bisubmodular(dim, value_range, seed).values
                  for seed in range(20)]
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


class TestComposedGenerator:
    def test_reproducible_and_bounded(self):
        f = random_bisubmodular_via_submodular(3, seed=4)
        assert f.values == (2, 2, 3, 2, 1, 2, 3, 2, 3, 1, 1, 2, 1, 0,
                            1, 2, 1, 2, 2, 2, 3, 2, 1, 2, 2, 1, 2)
        assert f == random_bisubmodular_via_submodular(3, seed=4)
        assert all(abs(v) <= 5 for _, v in f.entries())
        assert check_bisubmodular(f).passed

    def test_max_points_cap_respected(self):
        f = random_bisubmodular_via_submodular(3, seed=11, max_points=15)
        assert 1 <= len(enumerate_integer_points(f)) <= 15


class _TableFeed:
    """Stands in for random.Random: hands out one table's values, then
    zeros, to getrandbits (the library's draws) or to randint (the
    reference's).  Values within the drawn width are taken as they come."""

    def __init__(self, values):
        self._values = chain(values, repeat(0))

    def getrandbits(self, bits):
        return next(self._values)

    def randint(self, lo, hi):
        return next(self._values)


class TestSamplersFollowReference:
    """The samplers against the reference loops in tests/oracles.py, which
    call randint once per value and build a BisubFunction per draw."""

    @staticmethod
    def outcome(sampler, *args, **kwargs):
        try:
            return sampler(*args, **kwargs).values
        except RejectionBudgetExceeded:
            return None

    @pytest.mark.parametrize("width", range(1, 22))
    def test_draws_follow_randint_stream(self, width):
        for seed in range(50):
            lo = seed % 7 - 3
            hi = lo + width - 1
            ours, theirs = random.Random(seed), random.Random(seed)
            count = 1 + seed % 30
            assert (bspoly.oracle._draws(ours, lo, hi, count)
                    == [theirs.randint(lo, hi) for _ in range(count)])
            assert ours.random() == theirs.random()

    def test_draws_refuse_an_empty_range(self):
        with pytest.raises(ValueError):
            bspoly.oracle._draws(random.Random(0), 1, 0, 1)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("value_range", [0, 1, 2, 3])
    def test_every_attempt_aligned(self, dim, value_range):
        # Seeds 4 and 6 accept a dim-2 range-1 table at attempts 29 and 4,
        # seed 2 a range-3 table at attempt 15: each budget below and above
        # those attempts must agree.
        for seed in (0, 2, 4, 6):
            for budget in range(1, 41):
                assert (self.outcome(random_bisubmodular, dim, value_range,
                                     seed, max_attempts=budget)
                        == self.outcome(oracles.random_bisubmodular, dim,
                                        value_range, seed,
                                        max_attempts=budget))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("max_points", [None, 15])
    def test_composed_tables_equal(self, dim, max_points):
        for seed in range(30):
            assert (random_bisubmodular_via_submodular(
                        dim, seed, max_points=max_points).values
                    == oracles.random_bisubmodular_via_submodular(
                        dim, seed, max_points=max_points).values)

    def test_dim4_raises_in_both(self):
        for seed in range(3):
            for sampler in (random_bisubmodular_via_submodular,
                            oracles.random_bisubmodular_via_submodular):
                with pytest.raises(RejectionBudgetExceeded):
                    sampler(4, seed)

    def test_pair_lists_decide_every_dim3_table(self):
        # Each table of {0, 1, 2}^7 is fed first; a rejected one is
        # followed by the zero table, which both samplers accept.
        accepted = 0
        for drawn in product((0, 1, 2), repeat=7):
            table = [0, *drawn]
            ours = bspoly.oracle._random_monotone_submodular(
                _TableFeed(drawn), 3)
            assert ours == oracles._random_monotone_submodular(
                _TableFeed(drawn), 3)
            assert ours in (table, [0] * 8)
            accepted += ours == table
        assert 1 < accepted < 3 ** 7


class TestCorpusPinned:
    def test_corpus_tables_digest(self, instance_corpus):
        # sha256 over the values of all 530 acceptance-corpus tables, so a
        # generator change that alters any seeded table shows up here
        _, items = instance_corpus
        digest = hashlib.sha256(
            repr([f.values for f, _ in items]).encode()).hexdigest()
        assert len(items) == 530
        assert digest == ("a63c56ae3b60bcbed2760574c2cd57e9"
                          "657a4b2f6ae53bbb1b76feff18123f9e")


class TestRandomPointSet:
    def test_full_density_gives_whole_box(self):
        b = random_point_set(2, 1, 1.0, seed=0)
        assert len(b) == 9

    def test_reproducible_subset(self):
        b = random_point_set(1, 2, 0.5, seed=7)
        assert list(b) == [(-2,), (-1,), (1,)]

    def test_never_empty(self):
        for seed in range(30):
            assert len(random_point_set(1, 1, 0.05, seed)) >= 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_point_set(2, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_point_set(0, 1, 0.5, seed=0)


class TestOracleSoundness:
    def test_generated_sets_are_bs_convex_jump_systems(self):
        fs = [random_bisubmodular(1, 3, seed) for seed in range(4)]
        fs += [random_bisubmodular(2, 2, seed) for seed in range(4)]
        fs += [random_bisubmodular_via_submodular(3, seed, max_points=12)
               for seed in range(2)]
        for f in fs:
            b = enumerate_integer_points(f)
            if len(b) == 0:
                continue
            assert is_bs_convex(b).passed
            assert check_jump_system(b).passed
            # every displacement lies in the cone of feasible directions
            for p in b:
                for q in b:
                    assert in_conical_hull(
                        feasible_directions(f, p), sub(q, p))

    def test_round_trip_identity(self):
        for seed in range(4):
            f = random_bisubmodular(2, 2, seed)
            b = enumerate_integer_points(f)
            if len(b) == 0:
                continue
            assert enumerate_integer_points(support_function(b)) == b


class TestHarness:
    def test_singleton_batch_all_pass(self):
        report = run_equivalence_harness([
            PointSet.from_points(2, [(0, 0)]),
            PointSet.from_points(2, [(3, -1)]),
        ])
        assert report.total == 2
        assert report.ok
        [(statuses, count)] = report.counts
        assert statuses == ("PASS",) * 5
        assert count == 2

    def test_exhaustive_instance_count(self):
        sets = list(exhaustive_point_sets(1, 1))
        assert [b.points for b in sets] == [((0,),), ((1,),), ((0,), (1,))]
        report = run_equivalence_harness(sets)
        assert report.total == 3
        assert report.ok

    def test_negative_grid_range_is_refused(self):
        with pytest.raises(ValueError, match="^grid_range must be nonnegative$"):
            exhaustive_point_sets(1, -1)

    def test_grid_cap_guards_blowup(self):
        with pytest.raises(ValueError):
            exhaustive_point_sets(2, 4)

    def test_grid_cap_refuses_before_building_the_grid(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built before the cap check")

        monkeypatch.setattr(bspoly.oracle, "product", no_grid)
        with pytest.raises(ValueError, match="cap is 16"):
            exhaustive_point_sets(5, 1)

    def test_report_jsonable_shape(self, capsys):
        report = run_equivalence_harness([HOLE])
        [built] = cli._encoded(report)["counts"]
        assert list(built["verdicts"]) == list(VERDICT_ORDER)
        cli.emit(report, False)
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 1
        assert doc["disagreements"] == []
        assert doc["implication_violations"] == []
        [row] = doc["counts"]
        assert row["count"] == 1
        assert row["verdicts"]["jump_system"] == "PASS"
        assert row["verdicts"]["delta_exc"] == "FAIL"
        assert sorted(row["verdicts"]) == sorted(VERDICT_ORDER)

    def test_every_checker_call_runs_in_process(self, monkeypatch, capsys):
        sets = list(exhaustive_point_sets(1, 2))
        cli.emit(run_equivalence_harness(sets), False)
        expected = capsys.readouterr().out
        calls = []
        real = bspoly.axioms.check_delta_exc

        def counting(B):
            calls.append(B)
            return real(B)

        monkeypatch.setattr(bspoly.axioms, "check_delta_exc", counting)
        report = run_equivalence_harness(sets)
        assert len(calls) == 7
        cli.emit(report, False)
        assert capsys.readouterr().out == expected

    def test_random_sets_are_drawn_as_the_harness_reaches_them(
            self, monkeypatch, capsys):
        log = []
        draw = bspoly.oracle.random_point_set
        check = bspoly.axioms.check_delta_exc

        def logged_draw(*args):
            log.append("draw")
            return draw(*args)

        def logged_check(B):
            log.append("check")
            return check(B)

        monkeypatch.setattr(bspoly.oracle, "random_point_set", logged_draw)
        monkeypatch.setattr(bspoly.axioms, "check_delta_exc", logged_check)
        code = cli.main(["fuzz", "--dim", "2", "--count", "4", "--seed", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 4
        assert log == ["draw", "check"] * 4

    def test_exhaustive_sets_are_built_as_the_harness_reaches_them(
            self, monkeypatch, capsys):
        log = []
        check = bspoly.axioms.check_delta_exc

        class LoggedPointSet:
            @staticmethod
            def from_points(*args):
                log.append("build")
                return PointSet.from_points(*args)

        def logged_check(B):
            log.append("check")
            return check(B)

        monkeypatch.setattr(bspoly.oracle, "PointSet", LoggedPointSet)
        monkeypatch.setattr(bspoly.axioms, "check_delta_exc", logged_check)
        code = cli.main(["fuzz", "--dim", "1", "--exhaustive", "--range", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 7
        assert log == ["build", "check"] * 7

    def test_verdicts_of_agreeing_sets_are_not_retained(self, monkeypatch):
        real = bspoly.axioms.check_bs_exc
        returned = []
        alive_at_call = []

        def tracked(B):
            gc.collect()
            alive_at_call.append(sum(ref() is not None for ref in returned))
            verdict = real(B)
            returned.append(weakref.ref(verdict))
            return verdict

        # Only the record of the set just checked may still be held while
        # the next set runs; bs-exc's certificates make records large.
        monkeypatch.setattr(bspoly.axioms, "check_bs_exc", tracked)
        report = run_equivalence_harness(exhaustive_point_sets(1, 2))
        assert report.ok
        assert len(alive_at_call) == 7
        assert max(alive_at_call) <= 1, alive_at_call

    def test_disagreement_report(self, monkeypatch, capsys):
        def forced_fail(B):
            return verdict_fail({"reason": "forced", "at": (1,),
                                 "value": Fraction(1, 2)})

        # bs-exc and jump disagree with the other routes on every set, so
        # the report carries full records, which no real batch produces.
        monkeypatch.setattr(bspoly.axioms, "check_bs_exc", forced_fail)
        monkeypatch.setattr(bspoly.axioms, "check_jump_system", forced_fail)
        report = run_equivalence_harness(
            [PointSet.from_points(1, [(0,), (1,)])])
        assert not report.ok
        assert len(report.disagreements) == 1
        assert [item["kind"] for item in report.implication_violations] == [
            "delta_exc_without_jump_system"]
        forced = {"status": "FAIL",
                  "witness": {"reason": "forced", "at": [1], "value": "1/2"}}
        record = {
            "points": [[0], [1]],
            "delta_exc": {"status": "PASS", "witness": None},
            "bs_exc": forced,
            "oracle": {"status": "PASS", "witness": {"function": {
                "kind": "function", "dim": 1,
                "entries": [{"x": [-1], "f": 0}, {"x": [1], "f": 1}]}}},
            "jump_system": forced,
            "hole_free": {"status": "PASS", "witness": None},
        }
        cli.emit(report, False)
        assert json.loads(capsys.readouterr().out) == {
            "total": 1,
            "counts": [{"verdicts": {"delta_exc": "PASS", "bs_exc": "FAIL",
                                     "oracle": "PASS", "jump_system": "FAIL",
                                     "hole_free": "PASS"},
                        "count": 1}],
            "disagreements": [record],
            "implication_violations": [
                {"kind": "delta_exc_without_jump_system", "record": record}],
        }

        code = cli.main(["fuzz", "--dim", "1", "--exhaustive", "--range", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        expected = run_equivalence_harness(exhaustive_point_sets(1, 1))
        assert len(expected.disagreements) == 3
        cli.emit(expected, False)
        assert out == capsys.readouterr().out
        assert json.loads(out)["disagreements"][0]["bs_exc"] == forced


def _signed_permutation(rng, dim):
    """A random signed permutation followed by a shift of up to 50 per
    coordinate, as a map on points, its inverse on points, and its inverse
    on steps (which the shift leaves alone)."""
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    shift = [rng.randint(-50, 50) for _ in range(dim)]

    def forward(p):
        return tuple(e * p[u] + t for e, u, t in zip(signs, perm, shift))

    def inverse(y, offset):
        p = [0] * dim
        for e, u, a, t in zip(signs, perm, y, offset):
            p[u] = e * (a - t)
        return tuple(p)

    return (forward, lambda y: inverse(y, shift),
            lambda y: inverse(y, [0] * dim))


class TestSymmetry:
    """All five verdicts are invariant under signed permutations of the
    coordinates and integer shifts.  A permutation also changes the order
    in which the scans and the lattice walk meet the points."""

    @staticmethod
    def sample_sets():
        densities = (0.3, 0.6, 0.9)
        sets = [random_point_set(2, 2, densities[seed % 3], seed)
                for seed in range(150)]
        sets += [random_point_set(3, 1, densities[seed % 3], seed)
                 for seed in range(120)]
        functions = [random_bisubmodular(2, 2, seed) for seed in range(15)]
        functions += [random_bisubmodular_via_submodular(3, seed, max_points=15)
                      for seed in range(15)]
        sets += [enumerate_integer_points(f) for f in functions]
        return [b for b in sets if len(b)]

    def test_verdicts_witnesses_and_certificates(self):
        rng = random.Random(5)
        replays = {
            "delta_exc": oracles.replay_delta_witness,
            "jump_system": oracles.replay_jump_witness,
            "hole_free": oracles.replay_hole_witness,
            "oracle": oracles.replay_bs_convex_witness,
            "bs_exc": lambda b, w: not oracles.brute_force_decomposition_exists(
                b, w["p"], w["q"]),
        }
        seen = set()
        for b in self.sample_sets():
            point, back, step_back = _signed_permutation(rng, b.dim)
            image = PointSet.from_points(b.dim, map(point, b))
            before = bspoly.oracle._evaluate(b)
            after = bspoly.oracle._evaluate(image)
            for name in VERDICT_ORDER:
                assert before[name].status == after[name].status, (b, name)
                seen.add((name, after[name].status))
                if not after[name].passed:
                    assert replays[name](image, after[name].witness), (b, name)
            if after["bs_exc"].passed:
                certificates = after["bs_exc"].witness["decompositions"]
                pairs = set()
                for c in certificates:
                    dec = Decomposition(back(c["p"]), back(c["q"]),
                                        tuple(map(step_back, c["steps"])))
                    assert oracles.replay_decomposition(b, dec), b
                    pairs.add((dec.source, dec.target))
                assert pairs == set(product(b, b))
        assert seen == set(product(VERDICT_ORDER, ("PASS", "FAIL")))


class TestOrbitSweep:
    """Exhaustive grids up to their symmetries (tests/orbits.py).  The
    verdict counts were computed before the change that added this test."""

    def test_orbit_counts(self):
        # With the empty set, {0,1}^n has 3, 6, 22 and 402 classes for n = 1
        # to 4: the classes of Boolean functions of n variables under
        # permuting and complementing the inputs.  {0..3}^2 is under the
        # dihedral group of order 8.
        for dim, grid_range, expected in ((1, 1, 2), (2, 1, 5), (3, 1, 21),
                                          (4, 1, 401), (2, 3, 8547)):
            orbits = grid_orbits(dim, grid_range)
            assert len(orbits) == expected
            cells = (grid_range + 1) ** dim
            assert sum(size for _, size in orbits) == 2 ** cells - 1

    def test_binary_dim4_up_to_symmetry(self):
        fail = ("FAIL",) * 4 + ("PASS",)  # hole-free passes on {0,1}^n
        counts, weighted = Counter(), Counter()
        for b, size in grid_orbits(4, 1):
            report = run_equivalence_harness([b])
            assert report.ok, b
            [(pattern, _)] = report.counts
            counts[pattern] += 1
            weighted[pattern] += size
        assert counts == {fail: 311, ("PASS",) * 5: 90}
        # The full sweep of all 65,535 subsets has these counts.
        assert weighted == {fail: 59576, ("PASS",) * 5: 5959}
