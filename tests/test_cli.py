"""End-to-end command line tests: golden outputs, exit codes, enumeration counts."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from maxplus import (
    DEFAULT_MAX_CYCLES,
    NEG_INF,
    BasisResult,
    Digraph,
    MpMatrix,
    MpVector,
    ScaledBasis,
    SearchStats,
    SpanOracle,
    TwoSidedSystem,
    cycle_path_generators,
    double_description,
    extremal_basis,
    format_scalar,
    format_vector,
    generator_enumeration,
    in_supereig,
    max_cycle_mean,
    nonneg_elementary_cycles,
    parse_matrix,
    parse_scalar,
    parse_vector,
    render_matrix,
    unit,
)
from maxplus import cli, digraph, extremals, reference
from maxplus.semiring import integer_scaled
from support import (
    EXAMPLE_BASIS_TEXT,
    EXAMPLE_TEXT,
    chain_into_loop,
    example_matrix,
    fractional_matrix,
    rand_matrix,
    zero_critical_cycle,
)

ALL_ZEROS_3 = "0 0 0\n0 0 0\n0 0 0\n"
BASIS_BLOB = "\n".join(EXAMPLE_BASIS_TEXT) + "\n"


@pytest.fixture
def example_file(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text(EXAMPLE_TEXT)
    return str(f)


def write(tmp_path, text, name="m.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def run_module(module, *args):
    """``python -m module args`` with this checkout's ``src`` importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestBasis:
    def test_golden(self, example_file, capsys):
        assert cli.main(["basis", example_file]) == 0
        out = capsys.readouterr()
        assert out.out == BASIS_BLOB
        assert out.err == ""

    def test_methods_byte_identical(self, example_file, capsys):
        outputs = []
        for m in ("extremal", "wang2020", "dd"):
            assert cli.main(["basis", example_file, "--method", m]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] == BASIS_BLOB

    def test_methods_byte_identical_random(self, tmp_path, capsys):
        rng = random.Random(99)
        for _ in range(6):
            f = write(tmp_path, render_matrix(rand_matrix(rng, rng.randint(2, 5))))
            outs = []
            for m in ("extremal", "wang2020", "dd"):
                assert cli.main(["basis", f, "--method", m]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] == outs[2]

    def test_json_payload(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "n": 5,
            "lambda": "5/4",
            "solvable": True,
            "basis": [
                [None, 0, None, None, None],
                [None, 0, None, None, -2],
                [None, 0, None, -9, -2],
                [None, 0, 0, None, None],
                [None, 0, 0, -5, None],
                [-3, -4, 0, -2, None],
                [-2, -3, None, -1, 0],
                [-1, -2, None, 0, None],
                [0, -1, None, None, None],
                [0, -1, None, None, -2],
            ],
            # paths counts the feeder path walk's steps, candidates its
            # accepted emissions (rotation terminals and steps)
            "stats": {"cycles": 4, "paths": 41, "candidates": 36, "duplicates": 26},
        }

    def test_json_stats_by_method(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--json", "--method", "wang2020"]) == 0
        w = json.loads(capsys.readouterr().out)
        assert w["stats"] == {
            "cycles": 4,
            "paths": 21,
            "candidates": 62,
            "duplicates": 24,
        }
        assert cli.main(["basis", example_file, "--json", "--method", "dd"]) == 0
        d = json.loads(capsys.readouterr().out)
        # dd prunes every row to the partial cone's extremals: the basis
        assert d["stats"] == {"cycles": 0, "paths": 0, "candidates": 10, "duplicates": 0}

    def test_lambda_flag_golden(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--lambda", "5/4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "-1/2 -1/4 0 -3/4 -inf"
        assert lines[1] == "-1/2 -1/4 0 -3/4 -1"

    def test_lambda_flag_equals_preshifted_file(self, example_file, tmp_path, capsys):
        shifted = example_matrix().shift(-Fraction(5, 4))
        pre = write(tmp_path, render_matrix(shifted))
        assert cli.main(["basis", example_file, "--lambda", "5/4"]) == 0
        via_flag = capsys.readouterr().out
        assert cli.main(["basis", pre]) == 0
        assert capsys.readouterr().out == via_flag

    def test_lambda_json_reports_shifted_mean(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--json", "--lambda", "5/4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == "0"
        assert payload["solvable"] is True
        assert payload["basis"][0] == ["-1/2", "-1/4", 0, "-3/4", None]

    def test_unsolvable_diagnostic(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--lambda", "2"]) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "no proper solution: maximum cycle mean -3/4 is negative\n"
        )

    def test_unsolvable_json(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--json", "--lambda", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == "-3/4"
        assert payload["solvable"] is False
        assert payload["basis"] == []

    def test_unsolvable_answered_under_a_small_cap(self, tmp_path, capsys):
        # Every arc is -1, so lambda(A) = -1 and the solution space holds
        # no proper vector.  Enumerating the cycles or dd's pairs would
        # pass a cap of 10; no route needs to.
        f = write(tmp_path, "-1 -1 -1 -1 -1 -1 -1\n" * 7)
        cap = ["--max-cycles", "10"]
        for method in cli.METHODS:
            assert cli.main(["basis", f, "--method", method, *cap]) == 0, method
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "no proper solution: maximum cycle mean -1 is negative\n"
            assert cli.main(["basis", f, "--method", method, "--json", *cap]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["solvable"] is False
            assert payload["basis"] == []
            assert payload["stats"] == {
                "cycles": 0, "paths": 0, "candidates": 0, "duplicates": 0
            }
        assert cli.main(["verify", f, *cap]) == 0
        assert capsys.readouterr().out.startswith("OK: 3 methods agree, |basis|=0\n")

    @pytest.mark.parametrize("method", ["extremal", "wang2020"])
    def test_one_enumeration_per_route(self, example_file, capsys, monkeypatch, method):
        calls = {"nonneg_elementary_cycles": [], "feeder_paths": []}

        def counting(name):
            fn = getattr(digraph, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapper = counting(name)
            for module in (cli, extremals, reference):
                monkeypatch.setattr(module, name, wrapper)
        assert cli.main(["basis", example_file, "--method", method]) == 0
        assert capsys.readouterr().out == BASIS_BLOB
        assert len(calls["nonneg_elementary_cycles"]) == 1
        walked = sorted(args[1].nodes for args in calls["feeder_paths"])
        if method == "extremal":
            # the search walks the feeder paths as a tree and lists none
            assert walked == []
        else:
            assert walked == [(0, 1), (0, 1, 2, 3), (1,), (1, 2)]

    @pytest.mark.parametrize("method", ["extremal", "wang2020", "dd"])
    def test_one_digraph_per_route(self, example_file, capsys, monkeypatch, method):
        built = []
        from_matrix = digraph.Digraph.from_matrix.__func__

        def counting(cls, a):
            built.append(a)
            return from_matrix(cls, a)

        monkeypatch.setattr(digraph.Digraph, "from_matrix", classmethod(counting))
        assert cli.main(["basis", example_file, "--method", method]) == 0
        assert capsys.readouterr().out == BASIS_BLOB
        assert len(built) == 1

    @pytest.mark.parametrize("seed", [7, 9, 11])
    def test_dd_agrees_with_extremal_at_14(self, tmp_path, capsys, seed):
        # Random n=14 matrices with about 30% of the arcs present, under
        # the default cap; each route takes about a second or less.
        a = rand_matrix(random.Random(seed), 14, neg_inf_p=0.7)
        f = write(tmp_path, render_matrix(a))
        assert cli.main(["basis", f, "--method", "extremal"]) == 0
        want = capsys.readouterr().out
        assert want
        assert cli.main(["basis", f, "--method", "dd"]) == 0
        assert capsys.readouterr().out == want

    def test_bad_lambda_values(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--lambda", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main(["basis", example_file, "--lambda=-inf"]) == 2
        assert "must be finite" in capsys.readouterr().err


class TestGenerators:
    @pytest.mark.parametrize(
        "method,count", [("extremal", 16), ("wang2020", 38), ("dd", 23)]
    )
    def test_counts(self, example_file, capsys, method, count):
        assert cli.main(["generators", example_file, "--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == count
        basis_lines = set(EXAMPLE_BASIS_TEXT)
        assert basis_lines <= set(lines)


class TestLambdaCommand:
    def test_worked_example(self, example_file, capsys):
        assert cli.main(["lambda", example_file]) == 0
        assert capsys.readouterr().out == "5/4\n"

    def test_acyclic(self, tmp_path, capsys):
        f = write(tmp_path, "-inf 0\n-inf -inf\n")
        assert cli.main(["lambda", f]) == 0
        assert capsys.readouterr().out == "-inf\n"

    def test_python_dash_m(self, example_file, capsys):
        assert cli.main(["lambda", example_file]) == 0
        want = capsys.readouterr().out
        for module in ("maxplus", "maxplus.cli"):
            done = run_module(module, "lambda", example_file)
            assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


class TestCycles:
    def test_golden(self, example_file, capsys):
        assert cli.main(["cycles", example_file]) == 0
        assert capsys.readouterr().out == (
            "1 2\t2\n"
            "1 2 3 4\t5\n"
            "2\t1\n"
            "2 3\t1\n"
        )

    def test_cap_boundary(self, example_file, capsys):
        assert cli.main(["cycles", example_file, "--max-cycles", "10"]) == 0
        capsys.readouterr()
        assert cli.main(["cycles", example_file, "--max-cycles", "9"]) == 3
        assert "error:" in capsys.readouterr().err


class TestCheck:
    @pytest.mark.parametrize(
        "vec,member,extremal",
        [
            ("0 -1 -inf -inf -inf", "yes", "yes"),
            ("1 0 4 2 3", "yes", "no"),
            ("0 0 0 0 0", "yes", "no"),
            ("0 -inf -inf -inf -inf", "no", "no"),
        ],
    )
    def test_verdicts(self, example_file, capsys, vec, member, extremal):
        assert cli.main(["check", example_file, "--vector", vec]) == 0
        assert capsys.readouterr().out == (
            f"member: {member}\nextremal: {extremal}\n"
        )

    def test_scale_invariance(self, example_file, capsys):
        assert cli.main(["check", example_file, "--vector", "7 6 -inf -inf -inf"]) == 0
        assert capsys.readouterr().out == "member: yes\nextremal: yes\n"

    @pytest.mark.parametrize(
        "vec, cap, code",
        [
            # on {2} the only elementary cycle is the loop at node 2
            ("-inf 0 -inf -inf -inf", 1, 0),
            # on {1, 2, 4}: the loops at 1 and 2 and the 2-cycle between
            # them, three elementary cycles counted, two nonnegative
            ("-1 -2 -inf 0 -inf", 2, 3),
            ("-1 -2 -inf 0 -inf", 4, 0),
            # full support: the cycles of A itself
            ("0 0 0 0 0", 4, 3),
        ],
    )
    def test_cap_counts_the_matrix_on_the_support(
        self, example_file, capsys, vec, cap, code
    ):
        # check enumerates A with every arc into or out of a node off
        # supp(x) removed, so --max-cycles bounds that enumeration alone
        argv = ["check", example_file, "--vector", vec, "--max-cycles", str(cap)]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out == "member: yes\nextremal: yes\n"
        else:
            assert out == "" and err.startswith("error: more than")

    def test_wrong_arity(self, example_file, capsys):
        assert cli.main(["check", example_file, "--vector", "0 1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_ok(self, example_file, capsys):
        assert cli.main(["verify", example_file]) == 0
        out = capsys.readouterr()
        assert out.out == (
            "OK: 3 methods agree, |basis|=10\n"
            "stats: cycles=4 paths=41 candidates=36 duplicates=26\n"
        )
        assert out.err == ""

    def test_random_matrices(self, tmp_path, capsys):
        rng = random.Random(7)
        for _ in range(5):
            f = write(tmp_path, render_matrix(rand_matrix(rng, rng.randint(2, 5))))
            assert cli.main(["verify", f]) == 0
            assert capsys.readouterr().out.startswith("OK: 3 methods agree")

    def test_mismatch_reporting(self, example_file, capsys, monkeypatch):
        stats = SearchStats(0, 0, 0, 0)

        def fake(a, cap):
            full = ScaledBasis([unit(2, 0), unit(2, 1)])
            short = ScaledBasis([unit(2, 0)])
            return {
                "extremal": BasisResult(full, 0, True, stats),
                "wang2020": BasisResult(short, 0, True, stats),
                "dd": BasisResult(full, 0, True, stats),
            }

        monkeypatch.setattr(cli, "_three_bases", fake)
        assert cli.main(["verify", example_file]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "MISMATCH: extremal found 2 vectors, wang2020 found 1" in out.err
        assert "only extremal: -inf 0" in out.err


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert cli.main(["basis", "/nonexistent/matrix.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        f = write(tmp_path, "1 2\n3\n")
        assert cli.main(["basis", f]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2")

    def test_cycle_cap_exceeded(self, tmp_path, capsys):
        f = write(tmp_path, ALL_ZEROS_3)
        assert cli.main(["basis", f, "--max-cycles", "2"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,steps", [("basis", 14), ("generators", 16)])
    def test_feeder_path_step_cap(self, example_file, capsys, command, steps):
        # The example's ten elementary cycles fit under either cap.  The
        # walks of the loop at node 2 take the most steps of one cycle: 14
        # pruned by the oracle, 16 unpruned for the generating set.
        argv = [command, example_file, "--method", "extremal", "--max-cycles"]
        assert cli.main([*argv, str(steps)]) == 0
        assert capsys.readouterr().out
        assert cli.main([*argv, str(steps - 1)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: more than {steps - 1} feeder path steps from one cycle; "
            "raise the cap to proceed\n"
        )

    def test_dd_pair_cap_on_long_chain(self, tmp_path, capsys):
        # Without the cap dd forms about 36,000 pairs here, each of
        # dimension 60; with it, every dd route stops at the first row
        # past the cap.
        f = write(tmp_path, render_matrix(chain_into_loop(60)))
        for argv in (
            ["basis", f, "--method", "dd"],
            ["generators", f, "--method", "dd"],
            ["verify", f],
        ):
            started = time.perf_counter()
            assert cli.main([*argv, "--max-cycles", "1000"]) == 3, argv
            assert time.perf_counter() - started < 30
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error: more than 1000 double description pairs")
            assert out.err.count("\n") == 1

    def test_bad_method_rejected(self, example_file, capsys):
        assert cli.main(["basis", example_file, "--method", "magic"]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_bytes(b"\xff\xfe0\n")
        assert cli.main(["lambda", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_utf8_bom_file(self, example_file, tmp_path, capsys):
        f = tmp_path / "bom.txt"
        f.write_bytes(b"\xef\xbb\xbf" + EXAMPLE_TEXT.encode("utf-8"))
        assert cli.main(["basis", example_file]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["basis", str(f)]) == 0
        assert capsys.readouterr().out == plain == BASIS_BLOB
        # a BOM does not make other encodings readable
        f.write_bytes(b"\xef\xbb\xbf0 1\n\xff 0\n")
        assert cli.main(["basis", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_cycle_cap(self, example_file, capsys):
        assert cli.main(["cycles", example_file, "--max-cycles", "-5"]) == 2
        assert capsys.readouterr().err.startswith("error: --max-cycles")
        assert cli.main(["lambda", example_file, "--max-cycles", "0"]) == 0

    def test_repeated_calls_match_fresh_processes(self, example_file, capsys, monkeypatch):
        # main reuses one parser; a usage error must not leave state behind
        # that changes the next calls.
        monkeypatch.setenv("COLUMNS", "80")
        for args, code in (
            (["basis", example_file, "--method", "magic"], 2),
            (["lambda", example_file], 0),
            (["cycles", example_file, "--max-cycles", "9"], 3),
        ):
            assert cli.main(args) == code
            out = capsys.readouterr()
            done = run_module("maxplus", *args)
            assert (code, out.out, out.err) == (done.returncode, done.stdout, done.stderr)

    @pytest.mark.parametrize(
        "digit", ["\u0663", "\uff10"], ids=["arabic-indic", "fullwidth"]
    )
    @pytest.mark.parametrize("where", ["matrix", "vector", "lambda"])
    def test_non_ascii_digits_rejected(self, tmp_path, capsys, where, digit):
        # int() and Fraction() read these as 3 and 0; the grammar allows 0-9 only
        f = tmp_path / "m.txt"
        text = f"{digit} -inf\n-inf 0\n" if where == "matrix" else "0 -inf\n-inf 0\n"
        f.write_text(text, encoding="utf-8")
        argv = {
            "matrix": ["basis", str(f)],
            "vector": ["check", str(f), "--vector", f"0 {digit}"],
            "lambda": ["basis", str(f), "--lambda", digit],
        }[where]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and repr(digit) in out.err

    def test_exponent_tokens_rejected_quickly(self, example_file, tmp_path):
        # Fraction would expand 1e999999999 into a billion-digit integer.
        huge = write(tmp_path, "1e999999999\n", name="huge.txt")
        for args in (
            ["basis", example_file, "--lambda", "1e999999999"],
            ["lambda", huge],
        ):
            done = run_module("maxplus", *args)
            assert done.returncode == 2
            assert done.stderr.startswith("error:")

    @pytest.mark.parametrize("spelling", ["-inf", "-Inf", "-INF"])
    def test_neg_inf_spellings(self, example_file, tmp_path, capsys, spelling):
        f = write(tmp_path, f"{spelling} 0\n{spelling} 2\n")
        assert cli.main(["basis", f]) == 0
        assert capsys.readouterr().out == "-inf 0\n0 0\n"
        vec = f"0 -1 {spelling} {spelling} {spelling}"
        assert cli.main(["check", example_file, "--vector", vec]) == 0
        assert capsys.readouterr().out == "member: yes\nextremal: yes\n"

    @pytest.mark.parametrize("spelling", ["-iNf", "inf", "+inf"])
    @pytest.mark.parametrize("where", ["matrix", "vector"])
    def test_other_inf_spellings_rejected(self, tmp_path, capsys, where, spelling):
        text = f"{spelling} 0\n0 0\n" if where == "matrix" else "-inf 0\n0 0\n"
        f = write(tmp_path, text)
        argv = {
            "matrix": ["basis", f],
            "vector": ["check", f, "--vector", f"0 {spelling}"],
        }[where]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and repr(spelling) in out.err

    def test_leading_blank_line(self, tmp_path, capsys):
        f = write(tmp_path, "\n0 1\n2 3\n")
        assert cli.main(["basis", f]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: line 1: blank line before the matrix\n"


def times_w(k: int) -> str:
    """Decimal digits of k * (10**4300 - 1) for 1 <= k <= 9.

    Spelled out by hand: for k > 1 the value has 4,301 digits, past
    CPython's default int/str conversion limit.
    """
    return ("" if k == 1 else str(k - 1)) + "9" * 4299 + str(10 - k)


class TestLargeValues:
    """Tokens of up to 4,300 digits, whose sums outgrow that many digits."""

    W = times_w(1)
    CYCLE3 = f"-inf {W} -inf\n-inf -inf {W}\n{W} -inf -inf\n"
    BASIS3 = [
        ["-" + times_w(2), "0", "-" + times_w(1)],
        ["-" + times_w(1), "-" + times_w(2), "0"],
        ["0", "-" + times_w(1), "-" + times_w(2)],
    ]

    @pytest.mark.parametrize("args", [
        ["basis"],
        ["basis", "--method", "wang2020"],
        ["basis", "--method", "dd"],
        ["generators", "--method", "wang2020"],
    ])
    def test_three_cycle_vectors(self, tmp_path, capsys, args):
        f = write(tmp_path, self.CYCLE3)
        assert cli.main([args[0], f, *args[1:]]) == 0
        want = "".join(" ".join(row) + "\n" for row in self.BASIS3)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_three_cycle_json(self, tmp_path, capsys, method):
        f = write(tmp_path, self.CYCLE3)
        assert cli.main(["basis", f, "--method", method, "--json"]) == 0
        basis = ", ".join("[" + ", ".join(row) + "]" for row in self.BASIS3)
        head = f'{{"n": 3, "lambda": "{self.W}", "solvable": true, "basis": [{basis}], '
        assert capsys.readouterr().out.startswith(head)

    def test_cycle_weights(self, tmp_path, capsys):
        two = write(tmp_path, f"-inf {self.W}\n{self.W} -inf\n", name="two.txt")
        assert cli.main(["cycles", two]) == 0
        assert capsys.readouterr().out == f"1 2\t{times_w(2)}\n"
        assert cli.main(["cycles", write(tmp_path, self.CYCLE3)]) == 0
        assert capsys.readouterr().out == f"1 2 3\t{times_w(3)}\n"

    def test_conversion_limit_restored(self, tmp_path, capsys):
        f = write(tmp_path, self.CYCLE3)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert cli.main(["cycles", f]) == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    def test_digit_runs_bounded_at_4300(self, tmp_path, capsys):
        for token in ("9" * 4301, "1/" + "7" * 4301, "0." + "1" * 4301):
            assert cli.main(["lambda", write(tmp_path, token + "\n")]) == 2
            assert "bad scalar token" in capsys.readouterr().err
        assert cli.main(["lambda", write(tmp_path, "0." + "1" * 4300 + "\n")]) == 0

    def test_accepted_tokens_do_not_depend_on_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
        done = run_module("maxplus", "lambda", write(tmp_path, "8" * 700 + "\n"))
        assert (done.returncode, done.stdout, done.stderr) == (0, "8" * 700 + "\n", "")

    def test_max_cycles_parsed_under_lifted_limit(self, tmp_path, capsys):
        f = write(tmp_path, "0\n")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli.main(["lambda", f, "--max-cycles", "8" * 700]) == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("where", ["matrix", "vector", "lambda"])
    def test_long_bad_token_echo_is_bounded(self, tmp_path, capsys, where):
        token = "9" * 4301
        f = write(tmp_path, f"{token} 0\n0 0\n" if where == "matrix" else "0 0\n0 0\n")
        argv = {
            "matrix": ["lambda", f],
            "vector": ["check", f, "--vector", "0 " + token],
            "lambda": ["basis", f, "--lambda", token],
        }[where]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200
        assert "'" + "9" * 40 + "'... (4301 characters)" in err


def json_scalar(e):
    """The JSON value of an exact entry: null, an integer, or "p/q"."""
    if e is NEG_INF:
        return None
    return int(e) if e.denominator == 1 else str(e)


def library_output(a, command, method="extremal", *, as_json=False, vec=None):
    """(stdout, stderr) of a command, formatted from the routes run on a as given."""
    result = None
    if command == "basis":
        result = cli._basis_by_method(a, method, DEFAULT_MAX_CYCLES)
        if as_json:
            payload = {
                "n": len(a),
                "lambda": format_scalar(result.cycle_mean),
                "solvable": result.solvable,
                "basis": [[json_scalar(e) for e in v] for v in result.basis],
                "stats": result.stats._asdict(),
            }
            return json.dumps(payload) + "\n", ""
        lines = [format_vector(v) for v in result.basis]
    elif command == "generators":
        if method == "extremal":
            result = generator_enumeration(a)
            vectors = result.basis
        elif method == "wang2020":
            vectors = cycle_path_generators(a).scaled_set()
        else:
            vectors = double_description(TwoSidedSystem.supereigen(a)).vectors
        lines = [format_vector(v) for v in vectors]
    elif command == "lambda":
        lines = [format_scalar(max_cycle_mean(Digraph.from_matrix(a)))]
    elif command == "cycles":
        lines = [
            " ".join(str(v + 1) for v in c.nodes) + "\t" + format_scalar(c.weight)
            for c in nonneg_elementary_cycles(Digraph.from_matrix(a))
        ]
    else:
        x = parse_vector(vec, len(a))
        member = in_supereig(a, x)
        extremal = member and SpanOracle(a)(x.scaled())
        lines = [
            f"member: {'yes' if member else 'no'}",
            f"extremal: {'yes' if extremal else 'no'}",
        ]
    err = ""
    if result is not None and not result.solvable:
        err = (
            "no proper solution: maximum cycle mean "
            f"{format_scalar(result.cycle_mean)} is negative\n"
        )
    return "".join(line + "\n" for line in lines), err


def fractional_cases():
    rng = random.Random(2024)
    cases = []
    for n in (3, 4, 4, 5, 5, 6):
        a = fractional_matrix(rng, n, neg_inf_p=0.45)
        cases.append(a)
        if max_cycle_mean(Digraph.from_matrix(a)) is not NEG_INF:
            cases.append(zero_critical_cycle(a))
    return cases


class TestIntegerRescale:
    """The CLI runs every route on k A, k the LCM of A's denominators."""

    def run(self, capsys, argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr()
        return out.out, out.err

    @pytest.mark.parametrize("case", range(len(fractional_cases())))
    def test_same_output_as_routes_on_fractions(self, tmp_path, capsys, case):
        a = fractional_cases()[case]
        assert integer_scaled(a)[0] > 1
        f = write(tmp_path, render_matrix(a))
        for method in cli.METHODS:
            want = library_output(a, "basis", method)
            assert self.run(capsys, ["basis", f, "--method", method]) == want
            want = library_output(a, "basis", method, as_json=True)
            got = self.run(capsys, ["basis", f, "--method", method, "--json"])
            assert got == want
            want = library_output(a, "generators", method)
            assert self.run(capsys, ["generators", f, "--method", method]) == want
        for command in ("lambda", "cycles"):
            assert self.run(capsys, [command, f]) == library_output(a, command)
        lam = max_cycle_mean(Digraph.from_matrix(a))
        shifts = ["-2/7"] + ([] if lam is NEG_INF else [format_scalar(lam)])
        for shift in shifts:
            b = a.shift(-parse_scalar(shift))
            for method in cli.METHODS:
                argv = ["basis", f, "--method", method, f"--lambda={shift}"]
                assert self.run(capsys, argv) == library_output(b, "basis", method)
                want = library_output(b, "basis", method, as_json=True)
                assert self.run(capsys, [*argv, "--json"]) == want
        rng = random.Random(case)
        vectors = [format_vector(v) for v in extremal_basis(a).basis]
        vectors += [
            " ".join(
                "-inf" if rng.random() < 0.3 else format_scalar(
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                )
                for _ in range(len(a))
            )
            for _ in range(4)
        ]
        for vec in vectors:
            if vec.split() == ["-inf"] * len(a):
                continue
            want = library_output(a, "check", vec=vec)
            assert self.run(capsys, ["check", f, "--vector", vec]) == want

    def test_lambda_shift_to_whole_entries_prints_json_ints(self, tmp_path, capsys):
        # shifted by -1/2 every entry is a whole number, held as a Fraction
        f = write(tmp_path, "-1/2 5/2\n-inf 1/2\n")
        for method in cli.METHODS:
            argv = ["basis", f, "--json", "--lambda", "1/2", "--method", method]
            payload = json.loads(self.run(capsys, argv)[0])
            assert payload["basis"] == [[None, 0], [0, -2]]

    def test_check_with_other_denominators(self, tmp_path, capsys):
        a = parse_matrix("0 1/2 -inf\n-1/2 0 3/2\n-inf -5/2 -1/2\n").matrix
        f = write(tmp_path, render_matrix(a))
        verdicts = set()
        for vec in ("0 -1/3 -inf", "0 -1/3 -4/3", "-1/3 0 -7/3", "2/3 0 -inf",
                    "-inf 1/3 -inf", "-inf 1/3 -7/3"):
            out = self.run(capsys, ["check", f, "--vector", vec])
            assert out == library_output(a, "check", vec=vec)
            verdicts.add(out[0])
        assert len(verdicts) == 3

    def test_no_fraction_reaches_the_routes(self, tmp_path, capsys, monkeypatch):
        seen = []

        def recording(name, entries):
            fn = getattr(cli, name)

            def wrapper(*args, **kwargs):
                seen.extend(type(e) for e in entries(args[0]))
                return fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        recording("extremal_basis", lambda a: [e for row in a for e in row])
        recording(
            "double_description",
            lambda s: [e for lower, upper in s.rows for e in (*lower, *upper)],
        )
        for a in fractional_cases():
            out, _ = self.run(capsys, ["verify", write(tmp_path, render_matrix(a))])
            assert out.startswith("OK: 3 methods agree")
        assert seen and Fraction not in seen and int in seen

    def test_mismatch_lines_divided_back(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "0 1/2\n-1/2 0\n")
        stats = SearchStats(0, 0, 0, 0)

        def fake(a, cap):
            assert a == ((0, 1), (-1, 0))
            full = ScaledBasis([MpVector([0, -1]), MpVector([-3, 0])])
            short = ScaledBasis([MpVector([0, -1])])
            return {
                "extremal": BasisResult(full, 0, True, stats),
                "wang2020": BasisResult(short, 0, True, stats),
                "dd": BasisResult(full, 0, True, stats),
            }

        monkeypatch.setattr(cli, "_three_bases", fake)
        assert cli.main(["verify", f]) == 1
        assert "  only extremal: -3/2 0\n" in capsys.readouterr().err

    def test_mismatch_lines_of_the_second_route(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "0 1/2\n-1/2 0\n")
        stats = SearchStats(0, 0, 0, 0)

        def fake(a, cap):
            short = ScaledBasis([MpVector([0, -1])])
            full = ScaledBasis([MpVector([0, -1]), MpVector([-3, 0])])
            return {
                "extremal": BasisResult(short, 0, True, stats),
                "wang2020": BasisResult(full, 0, True, stats),
                "dd": BasisResult(short, 0, True, stats),
            }

        monkeypatch.setattr(cli, "_three_bases", fake)
        assert cli.main(["verify", f]) == 1
        assert capsys.readouterr().err == (
            "MISMATCH: extremal found 1 vectors, wang2020 found 2\n"
            "  only wang2020: -3/2 0\n"
        )

    @pytest.fixture
    def no_int_str_limit(self):
        # The printed values have denominators of about 17,200 digits.
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(before)

    def test_large_denominators(self, tmp_path, capsys, no_int_str_limit):
        q0, q1, q2, q3 = (10**4299 + c for c in (1, 3, 7, 9))
        a = MpMatrix.from_rows([
            [NEG_INF, Fraction(5, q0), NEG_INF, Fraction(-1, q2)],
            [NEG_INF, NEG_INF, Fraction(5, q2), NEG_INF],
            [Fraction(-1, q3), NEG_INF, NEG_INF, Fraction(1, q1)],
            [Fraction(-2, q0), 0, NEG_INF, NEG_INF],
        ])
        assert integer_scaled(a)[0].bit_length() > 57000
        f = write(tmp_path, render_matrix(a))
        for method in cli.METHODS:
            want = library_output(a, "basis", method)
            assert want[0]
            assert self.run(capsys, ["basis", f, "--method", method]) == want
        want = library_output(a, "generators", "wang2020")
        assert self.run(capsys, ["generators", f, "--method", "wang2020"]) == want
        for command in ("lambda", "cycles"):
            assert self.run(capsys, [command, f]) == library_output(a, command)
