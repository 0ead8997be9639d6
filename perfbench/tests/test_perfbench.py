"""Tests of the benchmark itself: seeded inputs, the guard, the checks.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import support  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from maxplus import (  # noqa: E402
    TwoSidedSystem,
    cli,
    cycle_path_generators,
    double_description,
    parse_matrix,
)


@pytest.fixture(scope="module")
def generated():
    return {w: workloads.generate(w, 7) for w in workloads.WORKLOADS}


def test_seed_regenerates_identical_inputs(generated):
    for w in workloads.WORKLOADS:
        again = workloads.generate(w, 7)
        assert [(c.name, c.text, c.lam, c.raw_text) for c in again] == [
            (c.name, c.text, c.lam, c.raw_text) for c in generated[w]
        ]
        other = workloads.generate(w, 8)
        assert [c.text for c in other] != [c.text for c in generated[w]]


def library_guard_values(text: str) -> tuple[int, int]:
    """G and the dd peak by the library's own constructions, prefix by prefix."""
    a = parse_matrix(text).matrix
    g = len(cycle_path_generators(a).vectors)
    system = TwoSidedSystem.supereigen(a)
    peak = max(
        len(double_description(TwoSidedSystem(system.dimension, system.rows[:k])).vectors)
        for k in range(len(a) + 1)
    )
    return g, peak


def within(values: dict, guard: workloads.Guard) -> bool:
    return (
        guard.g_min <= values["G"] <= guard.g_max
        and guard.dd_min <= values["dd_peak"] <= guard.dd_max
        and values["dd_pairs"] <= guard.pairs_max
    )


def test_guard_holds(generated):
    slot_guard, shifted_guard = {}, {}
    for family, size, copies, shifted, guard in workloads.STRUCTURED_SLOTS:
        label = "x".join(map(str, size)) if isinstance(size, tuple) else str(size)
        slot_guard[f"{family}-{label}"] = guard
        shifted_guard[f"{family}-{label}-shifted"] = shifted
    for w, cases in generated.items():
        for case in cases:
            assert library_guard_values(case.text) == (case.guard["G"], case.guard["dd_peak"])
            if w == "rand-int":
                assert within(case.guard, workloads.RAND_INT_GUARD)
            elif w == "small-batch":
                assert within(case.guard, workloads.SMALL_BATCH_GUARD)
            elif case.lam is not None:
                assert within(case.guard, shifted_guard[case.name.split("-", 1)[1]])
                assert case.lam == support.brute_max_cycle_mean(parse_matrix(case.raw_text).matrix)
            else:
                slot = case.name.split("-", 1)[1]
                assert within(case.guard, slot_guard[slot])
    cells = [
        (c.guard["G"], workloads.dd_work(c.guard["dd_peak"], c.guard["dd_pairs"]))
        for c in generated["rand-int"]
    ]
    per_cell = workloads.RAND_INT_PER_CELL
    assert len(cells) == len(workloads.RAND_INT_CELLS) * per_cell
    for k, (g, d) in enumerate(cells):
        (g_lo, g_hi), (d_lo, d_hi) = workloads.RAND_INT_CELLS[k // per_cell]
        assert g_lo <= g < g_hi and d_lo <= d < d_hi
    negative = [c for c in generated["small-batch"] if c.guard.get("G") == 0]
    assert len(negative) >= workloads.SMALL_BATCH_NEGATIVE


# -- the checker ----------------------------------------------------------

EXAMPLE_OUT = "".join(line + "\n" for line in support.EXAMPLE_BASIS_TEXT)
SMALL = "0 -2 -inf\n-inf -1 1\n-3 -inf -inf\n"


def example():
    return checks.expected_for(support.EXAMPLE_TEXT, support, list(support.EXAMPLE_BASIS_TEXT))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_checker_accepts_the_worked_example():
    assert checks.check_basis(example(), 0, EXAMPLE_OUT, "") is None


def test_checker_rejects_a_dropped_basis_vector():
    lines = EXAMPLE_OUT.splitlines(keepends=True)
    assert checks.check_basis(example(), 0, "".join(lines[:-1]), "") is not None


@pytest.mark.parametrize("which", ["small", "largest rand-int"])
def test_span_check_catches_a_vector_dropped_by_every_route(tmp_path, generated, which):
    """Away from the worked example a dropped vector still breaks the
    generating set's span, whichever route dropped it and however large
    the set is."""
    if which == "small":
        text = SMALL
    else:
        text = max(generated["rand-int"], key=lambda c: c.guard["G"]).text
    exp = checks.expected_for(text, support)
    n = len(exp.matrix)
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    code, out, _ = run_cli(["basis", str(path)])
    basis = [checks.parse_vec(line, n) for line in out.splitlines()]
    assert len(basis) >= 2
    code, gens, _ = run_cli(["generators", str(path), "--method", "wang2020"])
    assert checks.check_generators(exp, basis, code, gens) is None
    for k in range(len(basis)):
        dropped = basis[:k] + basis[k + 1:]
        assert "outside the span" in checks.check_generators(exp, dropped, code, gens)


def alter_entry(line: str) -> str:
    """The line with its last finite entry raised by one."""
    tokens = line.split(" ")
    i = max(j for j, t in enumerate(tokens) if t != "-inf")
    tokens[i] = str(checks.parse_scalar(tokens[i]) + 1)
    return " ".join(tokens)


def test_checker_rejects_an_altered_entry():
    lines = EXAMPLE_OUT.splitlines()
    for k in range(len(lines)):
        bad = lines[:k] + [alter_entry(lines[k])] + lines[k + 1:]
        assert checks.check_basis(example(), 0, "\n".join(bad) + "\n", "") is not None


def test_checker_rejects_wrong_codes_and_texts():
    exp = example()
    assert checks.check_basis(exp, 1, EXAMPLE_OUT, "") == "exit code 1"
    assert checks.check_verify(exp, 10, 0, "OK: 3 methods agree, |basis|=9\nstats: cycles=1\n")
    assert checks.check_verify(exp, 10, 0, "OK: 3 methods agree, |basis|=10\nstats: cycles=1\n") is None
    assert checks.check_text(exp.lam_line + "\n", 0, "5/4\n") is None
    assert checks.check_text(exp.lam_line + "\n", 0, "5/3\n") is not None
    blame = checks.agreement({"a": "x\n", "b": "x\n", "c": "y\n"})
    assert blame == {"a": None, "b": None, "c": "basis bytes differ between routes"}


def test_check_vector_expectations(tmp_path):
    exp = example()
    basis = [checks.parse_vec(line, 5) for line in support.EXAMPLE_BASIS_TEXT]
    vec, want = checks.check_vector(exp, basis)
    assert checks.is_solution(exp.matrix, checks.parse_vec(vec, 5))
    path = tmp_path / "example.txt"
    path.write_text(support.EXAMPLE_TEXT)
    assert run_cli(["check", str(path), f"--vector={vec}"]) == (0, want, "")
    assert checks.check_vector(exp, None)[1] is None


# -- the worker -----------------------------------------------------------


def drop_last_line(out: str) -> str:
    return "".join(out.splitlines(keepends=True)[:-1])


def alter_first_line(out: str) -> str:
    lines = out.splitlines(keepends=True)
    return alter_entry(lines[0].rstrip("\n")) + "\n" + "".join(lines[1:])


@pytest.mark.parametrize("corrupt", [drop_last_line, alter_first_line])
def test_worker_counts_a_corrupted_route_and_keeps_going(tmp_path, generated, corrupt):
    manifest = worker.add_example(
        run.write_inputs(generated["structured"][:3], tmp_path), support, tmp_path
    )
    cases = manifest["cases"]
    assert cases[-1]["name"] == "example"
    calls_per_case = 10  # 3 basis, verify, 3 generators, lambda, cycles, check

    w = worker.Workload(cli, support, manifest)
    w.run_round()
    assert w.failures == [] and w.attempted == len(cases) * calls_per_case

    def corrupted_dd(argv):
        code, out, err = run_cli(argv)
        if argv[0] == "basis" and "dd" in argv:
            out = corrupt(out)
        sys.stdout.write(out)
        sys.stderr.write(err)
        return code

    w = worker.Workload(SimpleNamespace(main=corrupted_dd), support, manifest)
    w.run_round()
    w.run_round()
    assert w.attempted == 2 * len(cases) * calls_per_case
    assert {f["call"] for f in w.failures} == {"basis --method dd"}
    assert len(w.failures) == 2 * len(cases)


def test_round_times_are_wall_times_scaled_by_the_calibration(tmp_path, generated):
    w = worker.Workload(cli, support, run.write_inputs(generated["small-batch"][:4], tmp_path))
    totals = w.run_round()
    samples = w.calibration_s
    assert len(samples) >= 2
    assert w.scale == pytest.approx(calibrate.REFERENCE_S * len(samples) / sum(samples))
    for group in worker.GROUPS:
        assert totals[group] == pytest.approx(sum(w.call_times[group]) * w.scale)


def test_traced_round_reports_every_layer_and_restores(tmp_path, generated):
    original = cli.extremal_basis
    w = worker.Workload(cli, support, run.write_inputs(generated["rand-int"][:2], tmp_path))
    w.run_round()
    t = tracer_mod.Tracer()
    restore = t.install()
    w.tracer = t
    try:
        w.run_round()
    finally:
        restore()
    assert cli.extremal_basis is original
    totals = t.totals()
    assert [name for name, _ in tracer_mod.LAYER_METRICS] == list(totals)
    for name in ("cli.main.calls", "semiring.in_span.calls", "semiring.residual.calls",
                 "reference.SpanOracle.call.calls", "extremals.cycle_terminals.calls",
                 "reference.double_description.calls", "digraph.from_matrix.calls"):
        assert totals[name] > 0, name
    assert totals["cli.main.calls"] == 2 * 10
    assert 0 < totals["reference.SpanOracle.call.distinct"] <= totals["reference.SpanOracle.call.calls"]
    assert totals["semiring.residual.finite"] <= totals["semiring.residual.calls"]
    assert w.failures == []


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "small-batch", "--seed", "5", "--seconds", "1",
                           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_compare_reads_a_failed_run_as_the_worst_value():
    import compare

    ok = [1.0, 1.1, 0.9]
    failed = [1.0, math.nan, 1.0]
    assert compare.verdict(ok, failed, "lower", 0.25)["verdict"] == "regression"
    assert compare.verdict(failed, ok, "lower", 0.25)["verdict"] == "unresolved"
    assert compare.verdict(ok, ok, "lower", 0.25)["verdict"].startswith("within bound")
