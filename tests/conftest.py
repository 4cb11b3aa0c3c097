"""Shared fixtures: the seeded instance corpus, exhaustive harness reports,
and a session-wide recorder for every LP vertex the decomposition solver
returns.  The corpus and reports are session-scoped because several
acceptance criteria must run against the same generated instances."""

from __future__ import annotations

import time

import pytest
from hypothesis import settings

import bspoly.exchange
import bspoly.ratlp
from bspoly import (
    check_bs_exc,
    check_delta_exc,
    check_jump_system,
    enumerate_integer_points,
    exhaustive_point_sets,
    random_bisubmodular,
    random_bisubmodular_via_submodular,
    random_point_set,
    run_equivalence_harness,
)

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile("ci")


class _RecordingRatlp:
    """Stand-in for the ratlp module that logs optimal vertices."""

    def __init__(self, real):
        self._real = real
        self.vertices = []

    def __getattr__(self, name):
        return getattr(self._real, name)

    def solve(self, lp):
        result = self._real.solve(lp)
        if result.status == self._real.OPTIMAL:
            self.vertices.append(result.x)
        return result


@pytest.fixture(scope="session")
def lp_vertex_log():
    """Every optimal vertex produced inside decompose during the session."""
    recorder = _RecordingRatlp(bspoly.ratlp)
    patcher = pytest.MonkeyPatch()
    patcher.setattr(bspoly.exchange, "ratlp", recorder)
    yield recorder.vertices
    patcher.undo()


@pytest.fixture(scope="session")
def instance_corpus(lp_vertex_log):
    """530 seeded integral bisubmodular functions with their integer points.

    Mix: dim-1 and dim-2 tables from uniform rejection sampling plus dim-3
    tables from the composed generator (uniform rejection is hopeless at
    dim 3); all values lie in [-5, 5].  Returns (build_seconds, items).
    """
    start = time.perf_counter()
    corpus = []
    for seed in range(260):
        corpus.append(random_bisubmodular(1, 5, seed))
    for seed in range(90):
        corpus.append(random_bisubmodular(2, 2, seed))
    for seed in range(60):
        corpus.append(random_bisubmodular(2, 3, seed))
    for seed in range(120):
        corpus.append(random_bisubmodular_via_submodular(3, seed, max_points=15))
    items = [(f, enumerate_integer_points(f)) for f in corpus]
    return time.perf_counter() - start, items


@pytest.fixture(scope="session")
def corpus_axiom_runtimes(instance_corpus):
    """Run the three axiom checkers over the corpus once, timed.

    Returns (elapsed_seconds, verdicts) where verdicts maps checker name to
    the list of verdicts in corpus order.
    """
    start = time.perf_counter()
    verdicts = {"delta_exc": [], "jump_system": [], "bs_exc": []}
    for _, points in instance_corpus[1]:
        verdicts["delta_exc"].append(check_delta_exc(points))
        verdicts["jump_system"].append(check_jump_system(points))
        verdicts["bs_exc"].append(check_bs_exc(points))
    return time.perf_counter() - start, verdicts


criterion_lines = []


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def dim1_exhaustive_report(lp_vertex_log):
    start = time.perf_counter()
    report = run_equivalence_harness(exhaustive_point_sets(1, 4))
    return time.perf_counter() - start, report


@pytest.fixture(scope="session")
def dim2_exhaustive_report(lp_vertex_log):
    start = time.perf_counter()
    report = run_equivalence_harness(exhaustive_point_sets(2, 2))
    return time.perf_counter() - start, report


@pytest.fixture(scope="session")
def scan_family():
    """The 641 sets the step index and the coverage scan are checked on:
    the 511 subsets of {0,1,2}^2, then 100 dim-3 and 30 dim-4 random
    subsets of {-1..1}^dim at density 0.5."""
    sets = list(exhaustive_point_sets(2, 2))
    sets += [random_point_set(3, 1, 0.5, seed) for seed in range(100)]
    sets += [random_point_set(4, 1, 0.5, seed) for seed in range(30)]
    return sets
