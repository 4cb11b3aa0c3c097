"""Which bspoly functions the traced run wraps, where, and what it reports.

Each function is patched at the name where bspoly looks it up, so calls
made inside the package are seen too.  Metric names use the module that
defines the function.
"""

from __future__ import annotations

import os
import sys

COUNT, SECONDS, RATIO, BYTES = "count", "s", "ratio", "B"


def _count(key, value):
    def observe(tracer, args, result):
        tracer.counts[key] += value(args, result)
    return observe


def _passes(name):
    return _count(name + ".passed", lambda args, verdict: verdict.passed)


def _pairs(name):
    """Ordered pairs scanned: all of them on PASS, up to the witness on FAIL."""
    def observe(tracer, args, verdict):
        points = args[0].points
        n = len(points)
        if verdict.passed:
            scanned = n * n
        else:
            w = verdict.witness
            scanned = (points.index(tuple(w["p"])) * n
                       + points.index(tuple(w["q"])) + 1)
        tracer.counts[name + ".passed"] += verdict.passed
        tracer.counts[name + ".pairs"] += scanned
    return observe


def _solve(tracer, args, result):
    lp = args[0]
    tracer.counts["ratlp.solve.cells"] += lp.num_rows * lp.num_cols
    tracer.counts["ratlp.solve.optimal"] += result.status == "optimal"


def _in_convex_hull(tracer, args, result):
    tracer.counts["ratlp.in_convex_hull.inside"] += bool(result[0])
    if tracer.parent() == "axioms.check_hole_free":
        tracer.counts["axioms.check_hole_free.candidates"] += 1


def _emit(tracer, args, result):
    out = args[2] if len(args) > 2 else None
    # Each CLI call in the bench writes into a fresh stdout buffer.
    written = os.path.getsize(out) if out else sys.stdout.tell()
    tracer.counts["cli.emit.bytes"] += written


def install(tracer, bs) -> None:
    """Patch every traced lookup site of the package modules in bs."""
    points_out = _count("bisubmod.enumerate_integer_points.points_out",
                        lambda a, r: len(r))
    sites = [
        (bs.exchange, "phi_toward", "core.phi_toward", None, True),
        (bs.exchange, "phi_steps", "core.phi_steps", None, False),
        (bs.exchange, "phi_b_toward", "exchange.phi_b_toward",
         _count("exchange.phi_b_toward.steps_out", lambda a, r: len(r)), True),
        (bs.exchange, "phi_b", "exchange.phi_b", None, True),
        (bs.exchange, "decompose", "exchange.decompose",
         _count("exchange.decompose.found",
                lambda a, r: isinstance(r, bs.exchange.Decomposition)), True),
        (bs.ratlp, "solve", "ratlp.solve", _solve, True),
        (bs.ratlp, "in_convex_hull", "ratlp.in_convex_hull", _in_convex_hull, True),
        (bs.axioms, "check_delta_exc", "axioms.check_delta_exc",
         _pairs("axioms.check_delta_exc"), True),
        (bs.axioms, "check_jump_system", "axioms.check_jump_system",
         _pairs("axioms.check_jump_system"), True),
        (bs.axioms, "check_bs_exc", "axioms.check_bs_exc",
         _pairs("axioms.check_bs_exc"), True),
        (bs.axioms, "check_hole_free", "axioms.check_hole_free",
         _passes("axioms.check_hole_free"), True),
        (bs.bisubmod.BisubFunction, "from_table",
         "bisubmod.BisubFunction.from_table", None, True),
        (bs.bisubmod, "polyhedron_contains", "bisubmod.polyhedron_contains",
         _count("bisubmod.polyhedron_contains.hits", lambda a, r: bool(r)), False),
        (bs.bisubmod, "enumerate_integer_points",
         "bisubmod.enumerate_integer_points", points_out, True),
        (bs.oracle, "check_bisubmodular", "bisubmod.check_bisubmodular",
         _passes("bisubmod.check_bisubmodular"), True),
        (bs.oracle, "enumerate_integer_points",
         "bisubmod.enumerate_integer_points", points_out, True),
        (bs.oracle, "support_function", "oracle.support_function", None, True),
        (bs.oracle, "is_bs_convex", "oracle.is_bs_convex",
         _passes("oracle.is_bs_convex"), True),
        (bs.oracle, "random_bisubmodular", "oracle.random_bisubmodular", None, True),
        (bs.oracle, "random_bisubmodular_via_submodular",
         "oracle.random_bisubmodular_via_submodular", None, True),
        (bs.cli, "run_equivalence_harness", "oracle.run_equivalence_harness",
         None, True),
        (bs.cli, "main", "cli.main", None, True),
        (bs.cli, "load_instance", "cli.load_instance", None, True),
        (bs.cli, "emit", "cli.emit", _emit, True),
    ]
    for owner, attr, name, observe, span in sites:
        tracer.patch_attr(owner, attr, name, observe, span)
    # The CLI captured the checker objects in dicts at import time.
    for key, fn in list(bs.cli.SET_CHECKERS.items()):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tracer.patch_item(bs.cli.SET_CHECKERS, key, name)
    tracer.patch_item(bs.cli.FUNCTION_CHECKERS, "bisubmodular",
                      "bisubmod.check_bisubmodular")


# Ratio metric -> counter of useful outcomes; the base is the function's calls.
_RATIOS = {
    "exchange.decompose.found_ratio": "exchange.decompose.found",
    "ratlp.solve.optimal_ratio": "ratlp.solve.optimal",
    "ratlp.in_convex_hull.inside_ratio": "ratlp.in_convex_hull.inside",
    "axioms.check_delta_exc.pass_ratio": "axioms.check_delta_exc.passed",
    "axioms.check_jump_system.pass_ratio": "axioms.check_jump_system.passed",
    "axioms.check_bs_exc.pass_ratio": "axioms.check_bs_exc.passed",
    "axioms.check_hole_free.pass_ratio": "axioms.check_hole_free.passed",
    "bisubmod.check_bisubmodular.pass_ratio": "bisubmod.check_bisubmodular.passed",
    "bisubmod.polyhedron_contains.hit_ratio": "bisubmod.polyhedron_contains.hits",
    "oracle.is_bs_convex.pass_ratio": "oracle.is_bs_convex.passed",
}


def _metrics():
    rows = []

    def fn(name, *extra, timed=True):
        rows.append((name + ".calls", COUNT))
        if timed:
            rows.append((name + ".self_s", SECONDS))
        for suffix in extra:
            unit = (RATIO if suffix.endswith("_ratio")
                    else BYTES if suffix == "bytes" else COUNT)
            rows.append((f"{name}.{suffix}", unit))

    fn("core.phi_toward")
    fn("core.phi_steps", timed=False)
    fn("exchange.phi_b_toward", "steps_out")
    fn("exchange.phi_b")
    fn("exchange.decompose", "found_ratio")
    fn("ratlp.solve", "cells", "optimal_ratio")
    fn("ratlp.in_convex_hull", "inside_ratio")
    for checker in ("check_delta_exc", "check_jump_system", "check_bs_exc"):
        fn("axioms." + checker, "pairs", "pass_ratio")
    fn("axioms.check_hole_free", "candidates", "pass_ratio")
    fn("bisubmod.check_bisubmodular", "pass_ratio")
    fn("bisubmod.BisubFunction.from_table")
    fn("bisubmod.enumerate_integer_points", "points_out")
    fn("bisubmod.polyhedron_contains", "hit_ratio", timed=False)
    fn("oracle.support_function")
    fn("oracle.is_bs_convex", "pass_ratio")
    fn("oracle.random_bisubmodular", "failed")
    fn("oracle.random_bisubmodular_via_submodular", "failed")
    fn("oracle.run_equivalence_harness")
    fn("cli.main")
    fn("cli.load_instance")
    fn("cli.emit", "bytes")
    rows.append(("trace.overhead_s", SECONDS))
    return tuple(rows)


PER_LAYER = _metrics()


def values(counts, self_s) -> dict:
    """Per-layer metric values of one pass, trace.overhead_s excluded."""
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[:-len(".self_s")], 0.0)
        elif metric in _RATIOS:
            name = metric.rsplit(".", 1)[0]
            calls = counts.get(name + ".calls", 0)
            out[metric] = counts.get(_RATIOS[metric], 0) / calls if calls else 0.0
        else:
            out[metric] = counts.get(metric, 0)
    return out
