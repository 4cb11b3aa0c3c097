"""Run one bspoly benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload check-ladder --seed 1 --seconds 34 --trace 0

The package is imported from the checkout's src/ in this one process, with
BSPOLY_THREADS cleared so the fuzz harness forks no pool.  A run repeats
whole passes over the workload's ops while the next pass should end within
--seconds, and reports medians per op.  --trace 1 instead runs untraced,
traced, traced and untraced passes and reports the per-layer metrics; the
work counters of the two traced passes must be identical.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
from tracer import Tracer
from workloads import CHECKER_METRICS, WORKLOADS, WrongOutput

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TAIL_SAMPLES = 10  # samples a tail percentile must have beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    *((metric, "s") for metric in CHECKER_METRICS.values()),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_bspoly():
    """Import bspoly afresh from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bspoly" / "__init__.py").is_file():
        raise SetupError(f"no bspoly package under {src}")
    for name in [m for m in sys.modules if m == "bspoly" or m.startswith("bspoly.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    bs = importlib.import_module("bspoly")
    importlib.import_module("bspoly.cli")
    if Path(bs.__file__).resolve().parent != (src / "bspoly").resolve():
        raise SetupError(f"imported bspoly from {bs.__file__}")
    return bs


class Tally:
    """Samples of every op across passes, and the failures seen."""

    def __init__(self, ops):
        self.ops = ops
        self.seconds = [[] for _ in ops]
        self.results = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs and unexpected errors
        self.pass_walls = []

    def run_pass(self) -> float:
        start = time.perf_counter()
        for index, op in enumerate(self.ops):
            self.attempted += 1
            op_start = time.perf_counter()
            result = None
            try:
                result = op.run()
            except WrongOutput as exc:
                self.problems.append(f"{op.label}: {exc}")
            except op.expected_errors:
                pass
            except Exception:
                self.problems.append(
                    f"{op.label}: {traceback.format_exc(limit=3).strip()}")
            self.seconds[index].append(time.perf_counter() - op_start)
            self.results[index].append(result)
            self.failed += result is None
        self.pass_walls.append(time.perf_counter() - start)
        return self.pass_walls[-1]

    def end_to_end(self, setup_s: float) -> tuple[dict, str]:
        wall_s = sum(statistics.median(s) for s in self.seconds)
        checker_s = {
            metric: sum(statistics.median(r.checker_s.get(metric, 0.0)
                                          if r else 0.0 for r in results)
                        for results in self.results)
            for metric in CHECKER_METRICS.values()}
        items = []
        items_per_pass = 0
        for seconds, results in zip(self.seconds, self.results):
            for k, (op_s, result) in enumerate(zip(seconds, results)):
                own = result.item_s if result and result.item_s is not None else [op_s]
                items.extend(own)
                if k == 0:
                    items_per_pass += len(own)
        items.sort()
        tail_pct = max(50, math.floor(100 * (1 - TAIL_SAMPLES / items_per_pass)))
        tail_rank = max(1, math.ceil(tail_pct / 100 * len(items)))
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "items_per_s": items_per_pass / wall_s,
            "ok_share": 1 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **checker_s,
            "item_p50_ms": 1000 * statistics.median(items),
            "item_tail_ms": 1000 * items[tail_rank - 1],
        }
        note = (f"item_tail_ms is p{tail_pct} of {len(items)} item samples "
                f"({len(items) - tail_rank} beyond it); "
                f"{items_per_pass} items per pass")
        return values, note


def traced(tally: Tally, bs) -> tuple[dict, list]:
    """Untraced, traced, traced, untraced passes; per-layer values.

    The overhead is the mean traced pass minus the mean untraced pass; the
    symmetric order cancels a steady drift of the machine's speed.
    """
    untraced = [tally.run_pass()]
    tracer = Tracer()
    layers.install(tracer, bs)
    walls, counts, self_s = [], [], []
    try:
        for _ in range(2):
            tracer.reset()
            walls.append(tally.run_pass())
            counts.append(dict(tracer.counts))
            self_s.append(dict(tracer.self_s))
    finally:
        tracer.restore()
    untraced.append(tally.run_pass())
    mismatched = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k, 0) != counts[1].get(k, 0))
    mean_self_s = {k: (self_s[0].get(k, 0.0) + self_s[1].get(k, 0.0)) / 2
                   for k in self_s[0].keys() | self_s[1].keys()}
    values = layers.values(counts[0], mean_self_s)
    values["trace.overhead_s"] = (sum(walls) - sum(untraced)) / 2
    return values, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("BSPOLY_THREADS", None)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bs = import_bspoly()
            ops = WORKLOADS[args.workload](
                bs, args.seed, ROOT, tempfile.mkdtemp(dir=tmp_root))
            setup_times.append(time.perf_counter() - start)
        tally = Tally(ops)

        print(f"bspoly bench: workload={args.workload} seed={args.seed} "
              f"trace={args.trace} python={platform.python_version()} "
              f"nproc={os.cpu_count()} single process, BSPOLY_THREADS cleared")
        mismatched = []
        if args.trace:
            values, mismatched = traced(tally, bs)
            units = dict(layers.PER_LAYER)
            note = "values per pass; self_s is the mean of the traced passes"
        else:
            # Another pass only if it should end within --seconds.
            start = time.perf_counter()
            tally.run_pass()
            while (time.perf_counter() - start + statistics.mean(tally.pass_walls)
                   <= args.seconds):
                tally.run_pass()
            values, note = tally.end_to_end(statistics.median(setup_times))
            units = dict(END_TO_END)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    walls = ", ".join(f"{w:.3f}" for w in tally.pass_walls)
    print(f"{len(tally.pass_walls)} passes of {len(tally.ops)} ops ({walls} s); {note}")
    for problem in tally.problems[:5]:
        print(f"wrong: {problem}")
    if mismatched:
        print("work counters differ between traced passes: "
              + ", ".join(mismatched[:10]))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems and not mismatched,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
