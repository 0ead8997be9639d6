"""The benchmark's tracer must still find every name it patches.

``perfbench/tracer.py`` looks each patched name up in a module's
``__dict__``, so a refactor that drops one breaks ``--trace 1``.  This
catches it in the fast suite, together with the traced contract the
benchmark's own tests rely on: ``check`` builds a ``SpanOracle`` and the
``extremal`` route does not, and the ``extremal`` route reaches both of its
growth steps through the names the tracer patches.

The benchmark's own tests (``perfbench/tests``, outside this suite) also
read the library.  They rebuild each workload's size guard with
``TwoSidedSystem``, ``GeneratorSet.vectors`` and ``parse_matrix(...).matrix``
and assert that ``check`` calls ``reference.SpanOracle``; the tracer
patches ``SpanOracle.__init__`` and ``__call__`` and takes ``len()`` of
the generator sets ``cycle_path_generators`` and ``double_description``
return.  :func:`test_library_reads_the_benchmark_guard` pins those names
here, on the ``structured`` and ``small-batch`` inputs of seed 7, and
:func:`test_benchmark_imports_resolve` checks every name the benchmark
imports from ``maxplus``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from maxplus import (
    TwoSidedSystem,
    cli,
    cycle_path_generators,
    double_description,
    parse_matrix,
    reference,
)
from support import EXAMPLE_TEXT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, perfbench's own imports resolved."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_install_patches_and_restore_puts_back(tracer):
    originals = (cli.extremal_basis, reference.in_span)
    restore = tracer.Tracer().install()
    try:
        assert cli.extremal_basis is not originals[0]
        assert reference.in_span is not originals[1]
    finally:
        restore()
    assert (cli.extremal_basis, reference.in_span) == originals


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["check", "--vector", "1 0 -inf 2 3"], 1),
        (["basis", "--method", "extremal"], 0),
    ],
    ids=["check", "basis-extremal"],
)
def test_span_oracle_builds(tracer, tmp_path, capsys, argv, builds):
    f = tmp_path / "a.txt"
    f.write_text(EXAMPLE_TEXT)
    t = tracer.Tracer()
    restore = t.install()
    try:
        assert cli.main([argv[0], str(f), *argv[1:]]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert t.totals()["reference.SpanOracle.build.calls"] == builds


def test_search_runs_through_both_growth_steps(tracer, tmp_path, capsys):
    # The tracer times cycle_terminals and path_extremals as the module
    # globals extremal_basis calls; inlining either step hides its time.
    f = tmp_path / "a.txt"
    f.write_text(EXAMPLE_TEXT)
    t = tracer.Tracer()
    restore = t.install()
    try:
        assert cli.main(["basis", str(f), "--method", "extremal"]) == 0
    finally:
        restore()
    capsys.readouterr()
    totals = t.totals()
    # one call of each per cycle, the walk covering the feeder paths of
    # every extremal rotation (nine here) as trees: the shared step memo
    # skips formed steps, not the calls the benchmark times
    assert totals["extremals.cycle_terminals.calls"] == 4
    assert totals["extremals.path_extremals.calls"] == 4
    assert totals["extremals.candidates"] == 36
    assert totals["extremals.duplicates"] == 26


def test_benchmark_imports_resolve():
    # A library deletion must not silently break the benchmark, whose own
    # tests this suite does not collect.
    names = 0
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module.split(".")[0] != "maxplus":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (path.name, alias.name)
                names += 1
    assert names


def library_guard_values(text):
    """G and the dd peak over row prefixes, by the library's constructions."""
    a = parse_matrix(text).matrix
    g = len(cycle_path_generators(a).vectors)
    system = TwoSidedSystem.supereigen(a)
    peak = max(
        len(double_description(TwoSidedSystem(system.dimension, system.rows[:k])).vectors)
        for k in range(len(a) + 1)
    )
    return g, peak


@pytest.mark.parametrize("workload", ["structured", "small-batch"])
def test_library_reads_the_benchmark_guard(workloads, workload):
    for case in workloads.generate(workload, 7):
        want = (case.guard["G"], case.guard["dd_peak"])
        assert library_guard_values(case.text) == want, case.name
