"""The workloads: inputs made from a seed, and one pass of checked ops.

An op calls bspoly through its CLI entry point or its public API, times
itself, and checks its output.  It returns an OpResult, raises WrongOutput
when bspoly answered wrongly, or raises one of its expected_errors when a
known defect makes it fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# CLI axiom name -> end-to-end metric of the time spent in that checker.
CHECKER_METRICS = {
    "delta-exc": "delta_exc_s",
    "jump": "jump_s",
    "bs-exc": "bs_exc_s",
    "hole-free": "hole_free_s",
    "bs-convex": "bs_convex_s",
}
# The same checkers by their API names, in the order the ops run them.
API_CHECKERS = (
    ("axioms", "check_delta_exc", "delta_exc_s"),
    ("axioms", "check_jump_system", "jump_s"),
    ("axioms", "check_bs_exc", "bs_exc_s"),
    ("axioms", "check_hole_free", "hole_free_s"),
    ("oracle", "is_bs_convex", "bs_convex_s"),
)

PINNED = json.loads((Path(__file__).parent / "pinned_sha256.json").read_text())


class WrongOutput(Exception):
    """bspoly returned, but not the expected exit code or output."""


@dataclass
class OpResult:
    checker_s: dict = field(default_factory=dict)
    # Seconds per user-visible item; None means the op is one item.
    item_s: list | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], OpResult]
    expected_errors: tuple = ()


def _run_cli(bs, argv):
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bs.cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _expect(condition, what):
    if not condition:
        raise WrongOutput(what)


class CheckerClock:
    """Times the five checkers at the names the fuzz harness calls.

    Consecutive calls on one point set add up to that set's item time.
    """

    def __init__(self, bs):
        self.bs = bs
        self.checker_s = dict.fromkeys(CHECKER_METRICS.values(), 0.0)
        self.item_s = []
        self._last = None
        self._saved = []

    def _timed(self, fn, metric):
        def timed(B):
            start = time.perf_counter()
            verdict = fn(B)
            seconds = time.perf_counter() - start
            self.checker_s[metric] += seconds
            if B is self._last:
                self.item_s[-1] += seconds
            else:
                self._last = B
                self.item_s.append(seconds)
            return verdict
        return timed

    def __enter__(self):
        for module, attr, metric in API_CHECKERS:
            owner = getattr(self.bs, module)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(original, metric))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._last = None


def _signed_permutation(rng, dim):
    """A seeded coordinate permutation with sign flips.

    It maps BS-convex sets to BS-convex sets of the same size and shape, so
    the checkers see new inputs for each workload seed at the same cost.
    """
    order = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    return lambda p: tuple(sign * p[i] for sign, i in zip(signs, order))


# -- fuzz-mixed --------------------------------------------------------------

def fuzz_mixed(bs, seed, root, tmp):
    """The cross-validation command on two exhaustive grids and a random batch.

    The random batch is the same for every workload seed: its costliest sets
    set item_tail_ms, and a batch drawn anew for each seed moved that metric
    by 29 % over ten seeds.
    """
    out_path = os.path.join(tmp, "fuzz.json")
    batches = []
    for dim, grid in ((1, 4), (2, 2)):
        golden = root / "tests" / "golden" / f"fuzz_dim{dim}_exhaustive.json"
        batches.append((f"fuzz dim {dim} exhaustive {{0..{grid}}}",
                        ["--dim", str(dim), "--exhaustive", "--range", str(grid)],
                        golden.read_bytes(), None))
    count = 300
    batches.append((f"fuzz dim 3 random x{count}",
                    ["--dim", "3", "--count", str(count),
                     "--seed", "0",
                     "--box-radius", "1", "--density", "0.6"],
                    None, count))

    def op(argv, golden, count):
        def run():
            with CheckerClock(bs) as clock:
                _, code, out, err = _run_cli(bs, ["fuzz", *argv, "--out", out_path])
            _expect(code == 0 and out == "" and err == "",
                    f"exit code {code}, stderr {err[:200]!r}")
            with open(out_path, "rb") as handle:
                report = handle.read()
            if golden is not None:
                _expect(report == golden, "report differs from the golden file")
            else:
                doc = json.loads(report)
                _expect(doc["total"] == count and not doc["disagreements"]
                        and not doc["implication_violations"],
                        "random batch is not ok")
            return OpResult(dict(clock.checker_s), clock.item_s)
        return run

    return [Op(label, op(argv, golden, count))
            for label, argv, golden, count in batches]


# -- check-ladder ------------------------------------------------------------

def _box(dim, radius):
    return list(itertools.product(range(-radius, radius + 1), repeat=dim))


def _l1_ball(dim, radius):
    return [p for p in _box(dim, radius) if sum(map(abs, p)) <= radius]


FIXED_RUNGS = (
    ("box-d2-r3", 2, _box(2, 3)),
    ("box-d3-r1", 3, _box(3, 1)),
    ("ball-d3-r2", 3, _l1_ball(3, 2)),
    ("ball-d4-r1", 4, _l1_ball(4, 1)),
    ("ball-d6-r1", 6, _l1_ball(6, 1)),
)
GENERATED_RUNGS = 3


def check_ladder(bs, seed, root, tmp):
    """Every set checker through `bspoly check` on PASS rungs of growing size.

    The generated rungs are the point sets of the composed dim-3 tables of
    seeds 0, 1, 2, moved by seeded signed permutations, so their cost does
    not depend on the workload seed.
    """
    rng = random.Random(seed)
    rungs = [(name, dim, points, PINNED) for name, dim, points in FIXED_RUNGS]
    for table_seed in range(GENERATED_RUNGS):
        f = bs.oracle.random_bisubmodular_via_submodular(3, table_seed, max_points=15)
        move = _signed_permutation(rng, 3)
        points = [move(p) for p in bs.bisubmod.enumerate_integer_points(f)]
        rungs.append((f"generated-d3-{table_seed}", 3, points, None))

    def op(name, path, n, axiom, pinned):
        def run():
            seconds, code, out, err = _run_cli(bs, ["check", axiom, path])
            _expect(code == 0 and err == "",
                    f"exit code {code}, stderr {err[:200]!r}")
            if pinned is not None:
                digest = hashlib.sha256(out.encode()).hexdigest()
                _expect(digest == pinned[f"{name}/{axiom}"],
                        "stdout differs from the pinned hash")
            else:
                doc = json.loads(out)
                _expect(doc["status"] == "PASS", "verdict is not PASS")
                if axiom == "bs-exc":
                    _expect(len(doc["witness"]["decompositions"]) == n * n,
                            "one decomposition per ordered pair expected")
            return OpResult({CHECKER_METRICS[axiom]: seconds})
        return run

    ops = []
    for name, dim, points, pinned in rungs:
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "set", "dim": dim,
                       "points": [list(p) for p in points]}, handle)
        for axiom in CHECKER_METRICS:
            ops.append(Op(f"check {axiom} {name} ({len(points)} points)",
                          op(name, path, len(points), axiom, pinned)))
    return ops


# -- function-corpus ---------------------------------------------------------

# (label, generator attribute, arguments before the table seed, keyword
# arguments, number of tables).  Table seeds are 0, 1, ... as in the
# acceptance corpus of the test suite.
CORPUS_FAMILIES = (
    ("dim 1 range 5", "random_bisubmodular", (1, 5), {}, 40),
    ("dim 2 range 2", "random_bisubmodular", (2, 2), {}, 25),
    ("dim 2 range 3", "random_bisubmodular", (2, 3), {}, 16),
    ("dim 3 composed", "random_bisubmodular_via_submodular", (3,),
     {"max_points": 15}, 25),
)
DIM4_OPS = 3


def function_corpus(bs, seed, root, tmp):
    """The acceptance-corpus recipe: generate, enumerate, check every set.

    The tables are fixed, because the cost of rejection sampling varies so
    much from table to table that a corpus of seeded tables which fits in a
    run does not cost the same twice.  The workload seed instead moves each
    enumerated set by a signed permutation before it is checked.
    """
    rng = random.Random(seed)

    def corpus_op(attr, args, kwargs, table_seed, move):
        def run():
            f = getattr(bs.oracle, attr)(*args, table_seed, **kwargs)
            points = bs.bisubmod.enumerate_integer_points(f)
            B = bs.PointSet.from_points(points.dim, map(move, points))
            checker_s = {}
            for module, name, metric in API_CHECKERS:
                start = time.perf_counter()
                verdict = getattr(getattr(bs, module), name)(B)
                checker_s[metric] = time.perf_counter() - start
                _expect(verdict.passed, f"{name} does not PASS")
            return OpResult(checker_s)
        return run

    def dim4_op(table_seed):
        def run():
            f = bs.oracle.random_bisubmodular_via_submodular(4, table_seed)
            _expect(bs.oracle.check_bisubmodular(f).passed,
                    "generated table is not bisubmodular")
            return OpResult()
        return run

    ops = []
    for label, attr, args, kwargs, count in CORPUS_FAMILIES:
        for table_seed in range(count):
            move = _signed_permutation(rng, args[0])
            ops.append(Op(f"{label} seed {table_seed}",
                          corpus_op(attr, args, kwargs, table_seed, move)))
    for table_seed in range(DIM4_OPS):
        ops.append(Op(f"dim 4 composed seed {table_seed}", dim4_op(table_seed),
                      expected_errors=(bs.oracle.RejectionBudgetExceeded,)))
    return ops


WORKLOADS = {
    "fuzz-mixed": fuzz_mixed,
    "check-ladder": check_ladder,
    "function-corpus": function_corpus,
}
