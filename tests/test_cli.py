"""Command-line behavior: golden outputs, exit codes, and input validation.

Each invocation runs in a fresh interpreter so the byte-stability claims
cover the real entry point, not an in-process shortcut.  The exceptions are
the out-of-memory and interrupt tests, which patch a checker in process
because exhausting real memory or sending a signal is not an option, and
the function-encoding tests, which pair emit with load_instance directly.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from bspoly import cli
from bspoly.bisubmod import INF, BisubFunction
from bspoly.core import PointSet
from bspoly.oracle import random_bisubmodular, support_function
from cli_examples import DATA, EXAMPLES, GOLDEN, run_cli


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestGoldenExamples:
    @pytest.mark.parametrize("name,argv,expected_exit", EXAMPLES,
                             ids=[row[0] for row in EXAMPLES])
    def test_output_matches_golden(self, name, argv, expected_exit):
        code, out, err = run_cli(argv)
        assert code == expected_exit
        assert err == b""
        assert out == (GOLDEN / f"{name}.json").read_bytes()

    def test_pretty_renders_the_same_document(self):
        name, argv, expected_exit = EXAMPLES[0]
        code, out, _ = run_cli([argv[0], "--pretty", *argv[1:]])
        assert code == expected_exit
        golden = (GOLDEN / f"{name}.json").read_bytes()
        assert out != golden
        assert json.loads(out) == json.loads(golden)


class TestCheckCommand:
    def test_missing_file(self):
        code, out, err = run_cli(["check", "delta-exc", "no-such-file.json"])
        assert code == 2
        assert out == b""
        assert err.startswith(b"error:")

    def test_malformed_json(self, tmp_path):
        for name, text in (("broken.json", "{not json"),
                           ("nested.json", "[" * 200000 + "]" * 200000)):
            path = tmp_path / name
            path.write_text(text)
            code, _, err = run_cli(["check", "delta-exc", str(path)])
            assert code == 2
            assert err.startswith(b"error:")
            assert err.count(b"\n") == 1

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def exhausted(_):
            raise MemoryError
        monkeypatch.setitem(cli.SET_CHECKERS, "delta-exc", exhausted)
        code = cli.main(["check", "delta-exc", str(DATA / "set_hole.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: MemoryError\n"

    def test_unexpected_error_exits_2_with_one_line(self, tmp_path):
        # A dim-40 table is far above the table cap; whatever stops it,
        # the error must not leave with exit 1, which means FAIL.
        path = write(tmp_path, "huge.json",
                     {"kind": "function", "dim": 40, "entries": []})
        for argv in (["check", "bisubmodular", path], ["enumerate", path]):
            code, out, err = run_cli(argv)
            assert code == 2
            assert out == b""
            assert err.startswith(b"error:")
            assert err.count(b"\n") == 1

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(_):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli.SET_CHECKERS, "bs-exc", interrupted)
        try:
            code = cli.main(["check", "bs-exc", str(DATA / "set_hole.json")])
        except KeyboardInterrupt:
            # Escaping here would stop the whole test session.
            pytest.fail("KeyboardInterrupt escaped cli.main")
        captured = capsys.readouterr()
        assert code == 130
        assert captured.out == ""
        assert captured.err == "error: interrupted\n"

    def test_unknown_axiom_rejected_by_parser(self):
        code, _, _ = run_cli(["check", "nonsense",
                              str(DATA / "set_hole.json")])
        assert code == 2

    def test_kind_mismatch_both_ways(self):
        code, _, err = run_cli(["check", "bisubmodular",
                                str(DATA / "set_hole.json")])
        assert code == 2
        assert b'"function" instance' in err
        code, _, err = run_cli(["check", "delta-exc",
                                str(DATA / "func_interval.json")])
        assert code == 2
        assert b'"set" instance' in err

    def test_bs_exc_certificate_of_the_dim4_box_is_pinned(self, tmp_path):
        # 81 points, 6,561 decomposition LPs: every certificate byte of a
        # PASS run on {-1..1}^4, pinned by its digest.
        box = [list(p) for p in itertools.product((-1, 0, 1), repeat=4)]
        path = write(tmp_path, "box4.json",
                     {"kind": "set", "dim": 4, "points": box})
        code, out, err = run_cli(["check", "bs-exc", path])
        assert (code, err) == (0, b"")
        assert len(out) == 617_154
        assert hashlib.sha256(out).hexdigest() == (
            "61807ce2e2566c3339f74905fe009256d7f2bf1fd180d5b9862337d12a66ef0d")

    def test_bs_convex_axiom_on_set(self):
        code, out, _ = run_cli(["check", "bs-convex",
                                str(DATA / "set_hole.json")])
        assert code == 1
        assert json.loads(out)["witness"]["reason"] == "round_trip_mismatch"

    def test_duplicate_points_are_deduplicated(self, tmp_path):
        path = write(tmp_path, "dup.json",
                     {"kind": "set", "dim": 1, "points": [[0], [0], [1]]})
        code, out, _ = run_cli(["check", "delta-exc", path])
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_wrong_length_point_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json",
                     {"kind": "set", "dim": 2, "points": [[0]]})
        code, _, err = run_cli(["check", "delta-exc", path])
        assert code == 2
        assert err.startswith(b"error:")

    def test_duplicate_function_entry_rejected(self, tmp_path):
        path = write(tmp_path, "dupf.json", {
            "kind": "function", "dim": 1,
            "entries": [{"x": [1], "f": 0}, {"x": [1], "f": 1}],
        })
        code, _, err = run_cli(["check", "bisubmodular", path])
        assert code == 2
        assert b"duplicate entry" in err

    def test_non_signed_argument_rejected(self, tmp_path):
        path = write(tmp_path, "badarg.json", {
            "kind": "function", "dim": 1, "entries": [{"x": [2], "f": 0}],
        })
        code, _, err = run_cli(["check", "bisubmodular", path])
        assert code == 2
        assert err == b"error: signed vector entry 2 not in {-1, 0, 1}\n"

    def test_fractional_value_rejected(self, tmp_path):
        path = write(tmp_path, "frac.json", {
            "kind": "function", "dim": 1, "entries": [{"x": [1], "f": 1.5}],
        })
        code, _, err = run_cli(["check", "bisubmodular", path])
        assert code == 2
        assert err.startswith(b"error:")

    def test_inf_values_accepted(self, tmp_path):
        path = write(tmp_path, "inf.json", {
            "kind": "function", "dim": 1,
            "entries": [{"x": [1], "f": "inf"}, {"x": [-1], "f": 0}],
        })
        code, out, _ = run_cli(["check", "bisubmodular", path])
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_infinite_witness_value_spelled_inf(self, tmp_path):
        path = write(tmp_path, "rhs_inf.json", {
            "kind": "function", "dim": 2,
            "entries": [{"x": [1, 0], "f": 0}, {"x": [0, 1], "f": 0}],
        })
        code, out, err = run_cli(["check", "bisubmodular", path])
        assert code == 1
        assert err == b""
        assert out == (b'{"status":"FAIL","witness":{"join":[1,1],"lhs":0,'
                       b'"meet":[0,0],"rhs":"inf","x":[0,1],"y":[1,0]}}\n')
        code, out, err = run_cli(["check", "--pretty", "bisubmodular", path])
        assert (code, err) == (1, b"")
        assert b'\n    "rhs": "inf",\n' in out
        assert b"Infinity" not in out

    def test_zero_argument_entry_is_ignored(self, tmp_path):
        path = write(tmp_path, "zero.json", {
            "kind": "function", "dim": 1,
            "entries": [{"x": [0], "f": 7},
                        {"x": [1], "f": 1}, {"x": [-1], "f": 0}],
        })
        code, out, _ = run_cli(["enumerate", path])
        assert code == 0
        assert json.loads(out) == [[0], [1]]


class TestFunctionEncoding:
    def test_shape_and_finite_entries_only(self, capsys):
        cli.emit(support_function(PointSet.from_points(1, [(0,), (2,)])),
                 False)
        out = capsys.readouterr().out
        assert out == ('{"dim":1,"entries":[{"f":0,"x":[-1]},{"f":2,"x":[1]}],'
                       '"kind":"function"}\n')
        assert json.loads(out) == {
            "kind": "function",
            "dim": 1,
            "entries": [{"x": [-1], "f": 0}, {"x": [1], "f": 2}],
        }

    def test_function_round_trips_through_its_instance_file(self, tmp_path):
        functions = [random_bisubmodular(dim, 2, seed)
                     for dim in (1, 2) for seed in range(20)]
        partial = BisubFunction.from_table(
            2, {(1, 0): 1, (0, -1): 0, (-1, 1): INF, (1, 1): 3})
        assert INF in partial.values
        functions.append(partial)
        path = str(tmp_path / "f.json")
        for f in functions:
            cli.emit(f, False, path)
            assert cli.load_instance(path) == f


class TestTableDimCap:
    """Commands that build a 3^dim table refuse above MAX_TABLE_DIM = 10."""

    def two_point_set(self, tmp_path):
        return write(tmp_path, "two.json", {
            "kind": "set", "dim": 11,
            "points": [[0] * 11, [1] + [0] * 10]})

    def test_bs_convex_refuses_where_delta_exc_answers(self, tmp_path):
        path = self.two_point_set(tmp_path)
        code, out, err = run_cli(["check", "bs-convex", path], timeout=60)
        assert code == 2
        assert out == b""
        assert err == (b"error: dim 11 is above 10, the largest dim whose "
                       b"3^dim table is built\n")
        code, out, _ = run_cli(["check", "delta-exc", path], timeout=60)
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_refusal_comes_before_any_work(self, tmp_path, monkeypatch,
                                           capsys):
        calls = []

        def record(*args):
            calls.append(args)

        monkeypatch.setitem(cli.SET_CHECKERS, "bs-convex", record)
        monkeypatch.setattr(cli, "run_equivalence_harness", record)
        monkeypatch.setattr(cli.BisubFunction, "from_table", record)
        function = write(tmp_path, "f11.json",
                         {"kind": "function", "dim": 11, "entries": []})
        for argv in (["check", "bs-convex", self.two_point_set(tmp_path)],
                     ["check", "bisubmodular", function],
                     ["enumerate", function, "--box", "0,0"],
                     ["fuzz", "--dim", "11", "--exhaustive", "--range", "0"]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("error: dim 11 ")
        assert calls == []

    def test_cap_itself_is_accepted(self, tmp_path):
        path = write(tmp_path, "f10.json",
                     {"kind": "function", "dim": 10, "entries": []})
        code, out, _ = run_cli(["enumerate", path, "--box", "0,0"],
                               timeout=60)
        assert code == 0
        assert json.loads(out) == [[0] * 10]


class TestDecomposeCommand:
    def test_point_outside_set(self):
        code, _, err = run_cli(["decompose", str(DATA / "set_hole.json"),
                                "--p", "5", "--q", "2"])
        assert code == 2
        assert b"not a member" in err

    def test_unparsable_point(self):
        code, _, err = run_cli(["decompose", str(DATA / "set_hole.json"),
                                "--p", "zero", "--q", "2"])
        assert code == 2
        assert err.startswith(b"error:")

    def test_dimension_mismatch_point(self):
        code, _, err = run_cli(["decompose", str(DATA / "set_diagonal.json"),
                                "--p", "0", "--q", "1,1"])
        assert code == 2
        assert err.startswith(b"error:")

    def test_positive_optimum_prints_fraction_as_string(self, tmp_path):
        path = write(tmp_path, "diamond.json", {
            "kind": "set", "dim": 2,
            "points": [[0, 0], [1, 1], [1, -1], [2, 0]],
        })
        code, out, err = run_cli(["decompose", path, "--p", "0,0",
                                  "--q", "2,0"])
        assert code == 1
        assert err == b""
        assert out == (b'{"found":false,"optimal_value":"2","p":[0,0],'
                       b'"q":[2,0],"reason":"positive_optimum"}\n')

    def test_function_instance_rejected(self):
        code, _, err = run_cli(["decompose", str(DATA / "func_interval.json"),
                                "--p", "0", "--q", "1"])
        assert code == 2
        assert b'"set" instance' in err


class TestEnumerateCommand:
    def test_unbounded_needs_box(self, tmp_path):
        path = write(tmp_path, "unbounded.json", {
            "kind": "function", "dim": 1, "entries": [{"x": [1], "f": 1}],
        })
        code, _, err = run_cli(["enumerate", path])
        assert code == 2
        assert b"error:" in err
        # a negative low end needs the = form, as usual for dash-prefixed values
        code, out, _ = run_cli(["enumerate", path, "--box=-2,2"])
        assert code == 0
        assert json.loads(out) == [[-2], [-1], [0], [1]]

    def test_negative_coordinates_via_equals_form(self, tmp_path):
        path = write(tmp_path, "neg.json", {
            "kind": "set", "dim": 1, "points": [[-1], [0]],
        })
        code, out, _ = run_cli(["decompose", path, "--p=-1", "--q=0"])
        assert code == 0
        assert json.loads(out)["steps"] == [{"mult": 2, "step": [1]}]

    def test_box_parse_errors(self):
        path = str(DATA / "func_interval.json")
        for bad in ("a,b", "1", "1,2,3"):
            code, _, err = run_cli(["enumerate", path, "--box", bad])
            assert code == 2
            assert err.startswith(b"error:")

    def test_set_instance_rejected(self):
        code, _, err = run_cli(["enumerate", str(DATA / "set_hole.json")])
        assert code == 2
        assert b'"function" instance' in err


class TestFuzzCommand:
    def test_mode_flag_conflicts(self):
        cases = (
            ["fuzz", "--dim", "1", "--exhaustive"],
            ["fuzz", "--dim", "1", "--exhaustive", "--range", "2",
             "--count", "3"],
            ["fuzz", "--dim", "1"],
            ["fuzz", "--dim", "1", "--count", "3", "--range", "2"],
        )
        for argv in cases:
            code, _, err = run_cli(argv)
            assert code == 2
            assert err.startswith(b"error:")

    def test_out_of_range_arguments_exit_2(self):
        cases = (
            ["fuzz", "--dim", "0", "--count", "0"],
            ["fuzz", "--dim", "0", "--exhaustive", "--range", "1"],
            ["fuzz", "--dim", "1", "--count", "-1"],
            ["fuzz", "--dim", "1", "--exhaustive", "--range", "-1"],
        )
        for argv in cases:
            code, out, err = run_cli(argv)
            assert code == 2, argv
            assert out == b""
            assert err.startswith(b"error:")
            assert err.count(b"\n") == 1

    def test_negative_range_refused_by_its_flag_name(self):
        code, out, err = run_cli(["fuzz", "--dim", "1", "--exhaustive",
                                  "--range", "-1"])
        assert (code, out, err) == (
            2, b"", b"error: --range must be nonnegative\n")

    def test_oversized_random_box_refused_up_front(self):
        code, out, err = run_cli(["fuzz", "--dim", "10", "--count", "1",
                                  "--box-radius", "2"])
        assert (code, out, err) == (
            2, b"", b"error: --box-radius 2 gives 9765625 cells in dim 10; "
                    b"cap is 1000000\n")

    def test_out_file_receives_the_report(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(["fuzz", "--dim", "1", "--exhaustive",
                                  "--range", "4", "--out", str(out_path)])
        assert code == 0
        assert out == b""
        assert err == b""
        assert out_path.read_bytes() == (
            GOLDEN / "fuzz_dim1_exhaustive.json").read_bytes()

    def test_tiny_density_exits_2_instead_of_hanging(self):
        code, out, err = run_cli(["fuzz", "--dim", "1", "--count", "1",
                                  "--density", "1e-300", "--box-radius", "1"],
                                 timeout=60)
        assert code == 2
        assert out == b""
        assert err.startswith(b"error: no nonempty point set in 1000 passes")
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("flag,value", [("--seed", "3"),
                                            ("--box-radius", "-4"),
                                            ("--density", "5")])
    def test_random_only_option_refused_under_exhaustive(self, flag, value):
        code, out, err = run_cli(["fuzz", "--dim", "1", "--exhaustive",
                                  "--range", "1", flag, value])
        assert (code, out) == (2, b"")
        assert err == f"error: {flag} does not apply to --exhaustive\n".encode()

    def test_random_mode_is_seed_deterministic(self):
        argv = ["fuzz", "--dim", "2", "--count", "5", "--seed", "42",
                "--box-radius", "1"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] in (0, 1)
        report = json.loads(first[1])
        assert report["total"] == 5
