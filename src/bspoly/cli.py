"""Command-line front end: parse JSON instances, dispatch checkers, emit JSON.

Exit codes: 0 for PASS / found / no disagreement, 1 for FAIL / not found /
disagreement, 2 for usage or parse errors and any other error, 130 when
interrupted (Ctrl-C).  Commands that build a 3^dim table (check bs-convex,
check bisubmodular, enumerate and fuzz) exit 2 up front above
MAX_TABLE_DIM; the exchange checkers take any dim.
All output is a single JSON document on stdout with sorted keys and fixed
separators, so identical invocations are byte-identical; --pretty trades
that for readability.
+inf is spelled "inf" in instance files and output, since JSON has no
infinity literal.
emit is the one encoder, and this module alone knows an output shape: a
function is written as the instance file load_instance reads.  json.dumps
writes the verdict as it is, without a copy, so check bs-exc on {-1..1}^5
prints 7.1 MB at a peak of about 48 MB RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from fractions import Fraction
from typing import Optional

from . import axioms, exchange, oracle
from .bisubmod import (INF, MAX_TABLE_DIM, BisubFunction, check_bisubmodular,
                       enumerate_integer_points)
from .core import PointSet, Verdict, zero
from .oracle import run_equivalence_harness


# random_point_set lists every cell of {-r..r}^dim before it draws, so
# fuzz refuses a larger random box up front instead of running out of memory.
MAX_RANDOM_BOX_CELLS = 10 ** 6


class CliError(ValueError):
    """Malformed input or arguments; reported on stderr with exit code 2."""


SET_CHECKERS = {
    "delta-exc": axioms.check_delta_exc,
    "bs-exc": axioms.check_bs_exc,
    "jump": axioms.check_jump_system,
    "hole-free": axioms.check_hole_free,
    "bs-convex": oracle.is_bs_convex,
}
FUNCTION_CHECKERS = {
    "bisubmodular": check_bisubmodular,
}


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{what} must be an integer, got {value!r}")
    return value


def _int_vector(raw, dim: int, what: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != dim:
        raise CliError(f"{what} {raw!r} is not a length-{dim} list")
    return tuple(_require_int(e, f"{what} entry") for e in raw)


def _require_table_dim(dim: int) -> None:
    if dim > MAX_TABLE_DIM:
        raise CliError(f"dim {dim} is above {MAX_TABLE_DIM}, the largest "
                       f"dim whose 3^dim table is built")


def load_instance(path: str):
    """Parse an instance file into a PointSet or a BisubFunction."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise CliError("instance file must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("set", "function"):
        raise CliError('instance "kind" must be "set" or "function"')
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise CliError('"dim" must be a positive integer')
    if kind == "set":
        points = doc.get("points")
        if not isinstance(points, list):
            raise CliError('"points" must be a list of integer vectors')
        return PointSet.from_points(
            dim, [_int_vector(p, dim, "point") for p in points])
    _require_table_dim(dim)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise CliError('"entries" must be a list of {"x": ..., "f": ...}')
    table = {}
    for item in entries:
        if not isinstance(item, dict) or "x" not in item or "f" not in item:
            raise CliError(f'entry {item!r} needs keys "x" and "f"')
        x = _int_vector(item["x"], dim, "argument")
        if x in table:
            raise CliError(f"duplicate entry for argument {list(x)}")
        value = item["f"]
        table[x] = INF if value == "inf" else _require_int(
            value, f"value at {list(x)}")
    # The zero argument always maps to 0, whatever the file says.
    table.pop(zero(dim), None)
    # from_table rejects an argument entry outside {-1, 0, 1}.
    return BisubFunction.from_table(dim, table)


def _parse_point(text: str, dim: int) -> tuple:
    try:
        point = tuple(int(token) for token in text.split(","))
    except ValueError as exc:
        raise CliError(f"cannot parse point {text!r}") from exc
    if len(point) != dim:
        raise CliError(f"point {text!r} has {len(point)} entries, expected {dim}")
    return point


def _encoded(obj):
    """What json cannot write: a Fraction as "n" or "n/d", a Verdict as its
    status and witness with a top-level +inf value as "inf", a BisubFunction
    as the instance file load_instance reads, an EquivalenceReport as the
    fuzz report with uncopied records, and any other mapping as a dict.
    Any other infinity makes emit raise ValueError."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Verdict):
        witness = obj.witness
        if witness is not None:
            witness = {key: "inf" if value == INF else value
                       for key, value in witness.items()}
        return {"status": obj.status, "witness": witness}
    if isinstance(obj, BisubFunction):
        entries = [{"x": x, "f": value} for x, value in obj.finite_constraints]
        return {"kind": "function", "dim": obj.dim, "entries": entries}
    if isinstance(obj, oracle.EquivalenceReport):
        counts = [{"verdicts": dict(zip(oracle.VERDICT_ORDER, statuses)),
                   "count": count} for statuses, count in obj.counts]
        return {"total": obj.total, "counts": counts,
                "disagreements": obj.disagreements,
                "implication_violations": obj.implication_violations}
    if isinstance(obj, Mapping):
        return dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(doc, pretty: bool, out: Optional[str] = None) -> None:
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    text = json.dumps(doc, default=_encoded, allow_nan=False, sort_keys=True,
                      **layout)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            print(text, file=handle)


def cmd_check(args) -> int:
    instance = load_instance(args.file)
    if args.axiom in SET_CHECKERS:
        if not isinstance(instance, PointSet):
            raise CliError(f'axiom "{args.axiom}" needs a "set" instance')
        if args.axiom == "bs-convex":
            _require_table_dim(instance.dim)
        verdict = SET_CHECKERS[args.axiom](instance)
    else:
        if not isinstance(instance, BisubFunction):
            raise CliError(f'axiom "{args.axiom}" needs a "function" instance')
        verdict = FUNCTION_CHECKERS[args.axiom](instance)
    emit(verdict, args.pretty)
    return 0 if verdict.passed else 1


def cmd_decompose(args) -> int:
    instance = load_instance(args.file)
    if not isinstance(instance, PointSet):
        raise CliError("decompose needs a \"set\" instance")
    p = _parse_point(args.p, instance.dim)
    q = _parse_point(args.q, instance.dim)
    result = exchange.decompose(instance, p, q)
    if isinstance(result, exchange.Decomposition):
        steps = [{"step": step, "mult": mult}
                 for step, mult in result.multiplicities()]
        emit({"found": True, "p": p, "q": q, "steps": steps}, args.pretty)
        return 0
    emit({"found": False, "p": p, "q": q, "reason": result.reason,
          "optimal_value": result.optimal_value}, args.pretty)
    return 1


def cmd_enumerate(args) -> int:
    instance = load_instance(args.file)
    if not isinstance(instance, BisubFunction):
        raise CliError("enumerate needs a \"function\" instance")
    box = None
    if args.box is not None:
        try:
            lo, hi = (int(token) for token in args.box.split(","))
        except ValueError as exc:
            raise CliError(f"cannot parse box {args.box!r}; expected lo,hi") from exc
        box = ((lo,) * instance.dim, (hi,) * instance.dim)
    points = enumerate_integer_points(instance, box)
    emit(points.points, args.pretty)
    return 0


def cmd_fuzz(args) -> int:
    if args.dim < 1:
        raise CliError("dim must be >= 1")
    _require_table_dim(args.dim)
    if args.exhaustive:
        if args.range is None:
            raise CliError("--exhaustive requires --range")
        for flag in ("count", "seed", "box_radius", "density"):
            if getattr(args, flag) is not None:
                raise CliError(f"--{flag.replace('_', '-')} does not apply "
                               f"to --exhaustive")
        if args.range < 0:
            raise CliError("--range must be nonnegative")
        point_sets = oracle.exhaustive_point_sets(args.dim, args.range)
    else:
        if args.count is None:
            raise CliError("random mode requires --count (or pass --exhaustive)")
        if args.range is not None:
            raise CliError("--range only applies to --exhaustive")
        if args.count < 0:
            raise CliError("--count must be nonnegative")
        seed = 0 if args.seed is None else args.seed
        radius = 2 if args.box_radius is None else args.box_radius
        density = 0.5 if args.density is None else args.density
        cells = (2 * radius + 1) ** args.dim
        if cells > MAX_RANDOM_BOX_CELLS:
            raise CliError(f"--box-radius {radius} gives {cells} cells in "
                           f"dim {args.dim}; cap is {MAX_RANDOM_BOX_CELLS}")
        point_sets = (oracle.random_point_set(args.dim, radius, density,
                                              seed + i)
                      for i in range(args.count))
    # Both sources are lazy, so each checked set is freed before the next.
    report = run_equivalence_harness(point_sets)
    emit(report, args.pretty, args.out)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bspoly",
        description="Decide BS-convexity of finite integer point sets and "
                    "certify the equivalent exchange axioms.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true",
                        help="indent the JSON output (not byte-stable)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[shared],
                           help="run one checker on an instance file")
    check.add_argument("axiom",
                       choices=sorted(SET_CHECKERS) + sorted(FUNCTION_CHECKERS))
    check.add_argument("file")
    check.set_defaults(handler=cmd_check)

    decompose = sub.add_parser("decompose", parents=[shared],
                               help="find a half-step decomposition from p to q")
    decompose.add_argument("file")
    decompose.add_argument("--p", required=True, metavar="X,Y,...")
    decompose.add_argument("--q", required=True, metavar="X,Y,...")
    decompose.set_defaults(handler=cmd_decompose)

    enumerate_ = sub.add_parser("enumerate", parents=[shared],
                                help="list the integer points of a function's polyhedron")
    enumerate_.add_argument("file")
    enumerate_.add_argument("--box", metavar="LO,HI",
                            help="scalar bounds applied to every coordinate")
    enumerate_.set_defaults(handler=cmd_enumerate)

    fuzz = sub.add_parser("fuzz", parents=[shared],
                          help="run the five-checker equivalence harness")
    fuzz.add_argument("--dim", type=int, required=True)
    fuzz.add_argument("--exhaustive", action="store_true",
                      help="all nonempty subsets of the grid {0..range}^dim")
    fuzz.add_argument("--range", type=int, default=None)
    fuzz.add_argument("--count", type=int, default=None,
                      help="number of seeded random point sets")
    fuzz.add_argument("--seed", type=int, default=None)
    fuzz.add_argument("--box-radius", type=int, default=None)
    fuzz.add_argument("--density", type=float, default=None)
    fuzz.add_argument("--out", default=None,
                      help="write the report to this path instead of stdout")
    fuzz.set_defaults(handler=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # Exit 1 means FAIL, so every error, a crash included, must exit 2.
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
