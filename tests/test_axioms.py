"""Axiom checkers: frozen example verdicts, witness replay, implications.

Every FAIL witness is replayed against raw definitions (tests/oracles.py);
the implication structure between the axioms is asserted on random sets.
"""

from __future__ import annotations

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

import bspoly.axioms
import bspoly.exchange
import bspoly.ratlp
from bspoly import cli
from bspoly.axioms import (
    _coverage,
    _half_step_flow,
    _uncovered,
    _undecomposable,
    check_bs_exc,
    check_delta_exc,
    check_hole_free,
    check_jump_system,
)
from bspoly.core import PointSet, lattice_points
from bspoly.oracle import exhaustive_point_sets, random_point_set
import oracles
from cli_examples import DATA
from oracles import (
    brute_force_decomposition_exists,
    replay_delta_witness,
    replay_hole_witness,
    replay_jump_witness,
)

HOLE = PointSet.from_points(1, [(0,), (2,)])
WIDE_HOLE = PointSet.from_points(1, [(0,), (3,)])
DIAGONAL = PointSet.from_points(2, [(0, 0), (1, 1)])
SINGLETON = PointSet.from_points(2, [(4, -1)])


def box(radius, dim):
    return PointSet.from_points(
        dim, itertools.product(range(-radius, radius + 1), repeat=dim))


def ball(radius, dim):
    return PointSet.from_points(dim, [
        p for p in itertools.product(range(-radius, radius + 1), repeat=dim)
        if sum(map(abs, p)) <= radius])


def random_samples():
    sets = [random_point_set(1, 2, 0.5, seed) for seed in range(6)]
    sets += [random_point_set(2, 1, 0.5, seed) for seed in range(10)]
    sets += [random_point_set(2, 2, 0.2, seed) for seed in range(4)]
    sets += [random_point_set(3, 1, 0.2, seed) for seed in range(4)]
    return sets


class TestDeltaExc:
    def test_hole_fails_at_first_pair(self):
        verdict = check_delta_exc(HOLE)
        assert not verdict.passed
        assert verdict.witness == {"p": (0,), "q": (2,), "u": 1}

    def test_diagonal_passes(self):
        assert check_delta_exc(DIAGONAL).passed

    def test_singleton_passes(self):
        assert check_delta_exc(SINGLETON).passed

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_delta_exc(PointSet.from_points(1, []))


class TestJumpSystem:
    def test_hole_passes_via_double_step(self):
        assert check_jump_system(HOLE).passed

    def test_wide_hole_fails(self):
        verdict = check_jump_system(WIDE_HOLE)
        assert not verdict.passed
        assert verdict.witness == {"p": (0,), "q": (3,), "u": 1}

    def test_diagonal_passes(self):
        assert check_jump_system(DIAGONAL).passed

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_jump_system(PointSet.from_points(1, []))


class TestBsExc:
    def test_diagonal_passes_with_certificates(self):
        verdict = check_bs_exc(DIAGONAL)
        assert verdict.passed
        table = {(entry["p"], entry["q"]): entry["steps"]
                 for entry in verdict.witness["decompositions"]}
        assert table[((0, 0), (1, 1))] == ((1, 1), (1, 1))
        assert table[((0, 0), (0, 0))] == ()
        assert len(table) == 4

    def test_hole_fails_at_first_pair(self):
        verdict = check_bs_exc(HOLE)
        assert not verdict.passed
        assert verdict.witness["p"] == (0,)
        assert verdict.witness["q"] == (2,)
        assert verdict.witness["reason"] == "infeasible"

    def test_singleton_passes_with_empty_decomposition(self):
        verdict = check_bs_exc(SINGLETON)
        assert verdict.passed
        [entry] = verdict.witness["decompositions"]
        assert entry["steps"] == ()

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_bs_exc(PointSet.from_points(1, []))

    def test_checked_set_pickles_and_copies(self):
        B = PointSet.from_points(2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        verdict = check_bs_exc(B)
        for clone in (pickle.loads(pickle.dumps(B)), copy.deepcopy(B)):
            assert clone == B
            assert hash(clone) == hash(B)
            assert repr(clone) == repr(B)
            assert check_bs_exc(clone) == verdict
            assert check_delta_exc(clone) == check_delta_exc(B)


class TestHoleFree:
    def test_hole_found_with_coefficients(self):
        verdict = check_hole_free(HOLE)
        assert not verdict.passed
        assert verdict.witness["hole"] == (1,)
        assert verdict.witness["coefficients"] == (Fraction(1, 2),
                                                   Fraction(1, 2))

    def test_diagonal_passes(self):
        assert check_hole_free(DIAGONAL).passed

    def test_singleton_passes(self):
        assert check_hole_free(SINGLETON).passed

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_hole_free(PointSet.from_points(1, []))


class TestWitnessReplay:
    def test_delta_witnesses_reverify(self):
        replayed = 0
        for b in random_samples():
            verdict = check_delta_exc(b)
            if not verdict.passed:
                assert replay_delta_witness(b, verdict.witness)
                replayed += 1
        assert replayed > 0

    def test_jump_witnesses_reverify(self):
        replayed = 0
        for b in random_samples():
            verdict = check_jump_system(b)
            if not verdict.passed:
                assert replay_jump_witness(b, verdict.witness)
                replayed += 1
        assert replayed > 0

    def test_bs_exc_witnesses_reverify_by_exhaustive_search(self):
        replayed = 0
        for b in random_samples():
            verdict = check_bs_exc(b)
            if not verdict.passed:
                w = verdict.witness
                assert not brute_force_decomposition_exists(b, w["p"], w["q"])
                replayed += 1
        assert replayed > 0

    def test_hole_witnesses_reverify(self):
        replayed = 0
        for b in random_samples() + [HOLE]:
            verdict = check_hole_free(b)
            if not verdict.passed:
                assert replay_hole_witness(b, verdict.witness)
                replayed += 1
        assert replayed > 0


class TestImplications:
    def test_axiom_hierarchy_on_random_sets(self):
        for b in random_samples():
            delta = check_delta_exc(b).passed
            bs = check_bs_exc(b).passed
            jump = check_jump_system(b).passed
            holes = check_hole_free(b).passed
            assert delta == bs
            if delta:
                assert jump
                assert holes

    def test_jump_does_not_imply_delta(self):
        assert check_jump_system(HOLE).passed
        assert not check_delta_exc(HOLE).passed


class TestSharedScan:
    """The one-scan checkers against the per-pair reference in oracles."""

    @staticmethod
    def assert_same_verdicts(sets):
        for b in sets:
            assert check_delta_exc(b) == oracles.check_delta_exc(b)
            assert check_jump_system(b) == oracles.check_jump_system(b)

    def test_all_subsets_of_the_dim2_grid(self):
        sets = list(exhaustive_point_sets(2, 2))
        assert len(sets) == 511
        self.assert_same_verdicts(sets)

    def test_seeded_random_sets(self):
        sets = [random_point_set(3, 1, 0.6, seed) for seed in range(20)]
        sets += [random_point_set(3, 2, 0.2, seed) for seed in range(10)]
        sets += [random_point_set(4, 1, 0.3, seed) for seed in range(10)]
        sets += [random_point_set(4, 1, 0.5, seed) for seed in range(30)]
        sets += [random_point_set(3, 1, 1.0, 0), random_point_set(4, 1, 1.0, 0)]
        self.assert_same_verdicts(sets)

    def test_coverage_stream_matches_reference(self, scan_family):
        for b in scan_family:
            assert list(_uncovered(b)) == list(oracles.uncovered(b))

    def test_scan_does_not_call_phi_b_toward(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scan filtered Phi_B(p, q) per pair")

        monkeypatch.setattr(bspoly.exchange, "phi_b_toward", refuse)
        box = PointSet.from_points(3, itertools.product((-1, 0, 1), repeat=3))
        for b in (box, DIAGONAL):
            assert check_delta_exc(b).passed
            assert check_jump_system(b).passed
        assert check_delta_exc(HOLE).witness == {"p": (0,), "q": (2,), "u": 1}
        assert check_jump_system(HOLE).passed
        assert not check_jump_system(WIDE_HOLE).passed


@pytest.fixture(scope="module")
def flow_family():
    """The sets the half-step flow is checked on: the 511 subsets of
    {0,1,2}^2, random subsets of {-1..1}^3, {-1..1}^4 and {-3..3}^2, two
    boxes and two L1 balls, and far-apart points."""
    sets = list(exhaustive_point_sets(2, 2))
    sets += [random_point_set(3, 1, 0.6, seed) for seed in range(300)]
    sets += [random_point_set(4, 1, 0.5, seed) for seed in range(40)]
    sets += [random_point_set(2, 3, 0.5, seed) for seed in range(100)]
    sets += [box(3, 2), box(1, 3), ball(2, 3), ball(1, 4)]
    sets += [PointSet.from_points(2, [(0, 0), (1000, -1000)]),
             PointSet.from_points(2, [(0, 0), (1, -1), (1000, -1000)])]
    return sets


class TestHalfStepFlow:
    """The flow that decides bs-exc against the decomposition LP."""

    def test_flow_matches_the_lp_on_every_pair(self, flow_family):
        pairs = 0
        for b in flow_family:
            refused = [(p, q) for p in b for q in b
                       if not isinstance(bspoly.exchange.decompose(b, p, q),
                                         bspoly.exchange.Decomposition)]
            assert list(_undecomposable(b)) == refused, b
            pairs += len(b) ** 2
        assert pairs == 224_856

    def test_verdicts_match_the_one_lp_per_pair_reference(self, flow_family):
        for b in flow_family:
            assert check_bs_exc(b) == oracles.check_bs_exc(b), b

    def test_first_choice_of_arc_is_undone(self):
        # p = (-1,-1,-1), q = (0,0,0): (1,0,1) + (0,1,0) reaches q, but
        # an augmenting path that takes (1,1,0) first must undo it.
        steps = ((0, 1, 0), (1, 0, 1), (1, 1, 0))
        units, partners = _coverage(steps, 3)
        assert _half_step_flow({0: 1, 2: 1, 4: 1}, units, partners)
        p = (-1, -1, -1)
        b = PointSet.from_points(
            3, [p, (0, 0, 0)] + [tuple(a + e for a, e in zip(p, alpha))
                                 for alpha in steps])
        assert bspoly.exchange.decompose(b, p, (0, 0, 0)).steps == (
            (0, 1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1))
        assert (p, (0, 0, 0)) not in set(_undecomposable(b))

    def test_far_apart_points_decided_by_flow(self):
        far = (1000, -1000)
        b = PointSet.from_points(2, [(0, 0), (1, -1), far])
        assert _half_step_flow({0: 1000, 3: 1000}, *_coverage(
            b.step_index[(0, 0)], 2))
        assert list(_undecomposable(b)) == [((1, -1), far), (far, (0, 0)),
                                            (far, (1, -1))]

    def test_box_minus_a_point_solves_one_lp(self, monkeypatch):
        # The one-LP-per-pair scan solves 6,216 LPs before the witness.
        b = PointSet.from_points(4, [p for p in box(1, 4)
                                     if p != (1, 1, 1, 0)])
        expected = oracles.check_bs_exc(b)
        calls = []
        real = bspoly.ratlp.solve

        def counted(lp):
            calls.append(lp)
            return real(lp)

        monkeypatch.setattr(bspoly.ratlp, "solve", counted)
        verdict = check_bs_exc(b)
        assert len(calls) == 1
        assert verdict == expected
        assert verdict.witness == {"p": (1, 1, 1, -1), "q": (0, 1, 1, 1),
                                   "reason": "infeasible",
                                   "optimal_value": None}

    @pytest.mark.parametrize("answer,b", [(True, HOLE), (False, DIAGONAL)])
    def test_lying_flow_raises(self, monkeypatch, answer, b):
        monkeypatch.setattr(bspoly.axioms, "_half_step_flow",
                            lambda *args: answer)
        with pytest.raises(RuntimeError):
            check_bs_exc(b)

    def test_lying_flow_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(bspoly.axioms, "_half_step_flow",
                            lambda *args: True)
        code = cli.main(["check", "bs-exc", str(DATA / "set_hole.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: the flow decomposes")


class TestHoleFreeStepBounds:
    """The step-bound filter against the full box scan in oracles."""

    @staticmethod
    def assert_same_verdicts(sets):
        for b in sets:
            assert check_hole_free(b) == oracles.check_hole_free(b)

    @staticmethod
    def hull_calls(monkeypatch, b):
        calls = []
        real = bspoly.ratlp.in_convex_hull

        def counted(points, target):
            calls.append(target)
            return real(points, target)

        monkeypatch.setattr(bspoly.ratlp, "in_convex_hull", counted)
        return check_hole_free(b), len(calls)

    def test_all_subsets_of_the_dim2_grid(self):
        sets = list(exhaustive_point_sets(2, 2))
        assert len(sets) == 511
        self.assert_same_verdicts(sets)

    def test_seeded_random_sets(self):
        sets = [random_point_set(3, 1, 0.6, seed) for seed in range(100)]
        sets += [random_point_set(2, 3, 0.4, seed) for seed in range(200)]
        sets += [random_point_set(4, 1, 0.5, seed) for seed in range(50)]
        self.assert_same_verdicts(sets)

    def test_corpus_sets(self, instance_corpus):
        _, items = instance_corpus
        assert len(items) == 530
        self.assert_same_verdicts(points for _, points in items)

    def test_l1_ball_needs_no_lp(self, monkeypatch):
        ball = PointSet.from_points(6, [
            p for p in itertools.product((-1, 0, 1), repeat=6)
            if sum(map(abs, p)) <= 1])
        verdict, calls = self.hull_calls(monkeypatch, ball)
        assert verdict.passed
        assert calls == 0

    def test_long_diagonal_fails_after_one_lp(self, monkeypatch):
        b = PointSet.from_points(2, [(0, 0), (3000, 3000)])
        verdict, calls = self.hull_calls(monkeypatch, b)
        assert not verdict.passed
        assert verdict.witness["hole"] == (1, 1)
        assert replay_hole_witness(b, verdict.witness)
        assert calls == 1

    def test_two_points_in_dim12_need_no_lp(self, monkeypatch):
        e1 = (1,) + (0,) * 11
        b = PointSet.from_points(12, [(0,) * 12, e1])
        verdict, calls = self.hull_calls(monkeypatch, b)
        assert verdict.passed
        assert calls == 0

    @pytest.mark.parametrize("dim,length", [(2, 1500), (3, 150)])
    def test_long_diagonal_passes_without_lp(self, monkeypatch, dim, length):
        # The bounding box has length**dim points; the walk visits the
        # diagonal only.
        b = PointSet.from_points(dim, [(i,) * dim for i in range(length)])
        verdict, calls = self.hull_calls(monkeypatch, b)
        assert verdict.passed
        assert calls == 0

    def test_wide_square_corners_fail_after_one_lp(self, monkeypatch):
        b = PointSet.from_points(2, itertools.product((0, 1000), repeat=2))
        verdict, calls = self.hull_calls(monkeypatch, b)
        assert not verdict.passed
        assert verdict.witness["hole"] == (0, 1)
        assert replay_hole_witness(b, verdict.witness)
        assert calls == 1

    def test_walk_is_lazy(self):
        walk = lattice_points((0, 0, 0), (10 ** 6,) * 3, ())
        assert next(walk) == (0, 0, 0)
        assert next(walk) == (0, 0, 1)
