"""The benchmark's tracer must still find every name it patches.

``perfbench/tracer.py`` looks each patched name up in a module's
``__dict__``, so a refactor that drops one breaks ``--trace 1``.  This
catches it in the fast suite, together with the traced contract the
benchmark's own tests rely on: ``check`` builds a ``SpanOracle`` and the
``extremal`` route does not, and the ``extremal`` route reaches both of its
growth steps through the names the tracer patches.
"""

import importlib.util
from pathlib import Path

import pytest

from maxplus import cli, reference
from support import EXAMPLE_TEXT

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # one call per cycle and per feeder path: the shared step memo skips
    # formed steps, not the calls the benchmark times
    assert totals["extremals.cycle_terminals.calls"] == 4
    assert totals["extremals.path_extremals.calls"] == 21
    assert totals["extremals.candidates"] == 43
    assert totals["extremals.duplicates"] == 33
