"""The documented command-line examples, frozen as golden stdout files.

Each row is (name, argv, expected exit code).  The golden file for a row is
golden/<name>.json and holds the exact bytes the command must print.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

TESTS_DIR = pathlib.Path(__file__).resolve().parent
DATA = TESTS_DIR / "data"
GOLDEN = TESTS_DIR / "golden"

EXAMPLES = (
    ("check_delta_exc_hole",
     ["check", "delta-exc", str(DATA / "set_hole.json")], 1),
    ("check_jump_hole",
     ["check", "jump", str(DATA / "set_hole.json")], 0),
    ("check_bisubmodular_zero",
     ["check", "bisubmodular", str(DATA / "func_zero_dim1.json")], 0),
    ("decompose_diagonal",
     ["decompose", str(DATA / "set_diagonal.json"), "--p", "0,0",
      "--q", "1,1"], 0),
    ("decompose_hole",
     ["decompose", str(DATA / "set_hole.json"), "--p", "0", "--q", "2"], 1),
    ("decompose_same_point",
     ["decompose", str(DATA / "set_diagonal.json"), "--p", "1,1",
      "--q", "1,1"], 0),
    ("enumerate_interval",
     ["enumerate", str(DATA / "func_interval.json")], 0),
    ("enumerate_empty",
     ["enumerate", str(DATA / "func_empty_polyhedron.json")], 0),
    ("enumerate_zero_function",
     ["enumerate", str(DATA / "func_zero_dim2.json")], 0),
    ("fuzz_dim1_exhaustive",
     ["fuzz", "--dim", "1", "--exhaustive", "--range", "4"], 0),
    ("fuzz_dim2_exhaustive",
     ["fuzz", "--dim", "2", "--exhaustive", "--range", "2"], 0),
    ("fuzz_empty_batch",
     ["fuzz", "--dim", "1", "--count", "0"], 0),
    ("fuzz_dim2_random",
     ["fuzz", "--dim", "2", "--count", "60", "--seed", "0", "--box-radius",
      "1", "--density", "0.6"], 0),
)


def run_cli(argv, timeout=None):
    """Run the CLI in a fresh interpreter; return (exit code, stdout, stderr).

    A timeout in seconds makes a hang raise subprocess.TimeoutExpired.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "bspoly.cli", *argv], capture_output=True,
        timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr
