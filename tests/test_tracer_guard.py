"""The benchmark's tracer must still find every name it patches.

``perfbench/tracer.py`` looks each patched name up in a module's
``__dict__``, so a refactor that drops one breaks ``--trace 1``.  This
catches it in the fast suite.
"""

import importlib.util
from pathlib import Path

from maxplus import cli, reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_install_patches_and_restore_puts_back():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = (cli.extremal_basis, reference.in_span)
    restore = tracer.Tracer().install()
    try:
        assert cli.extremal_basis is not originals[0]
        assert reference.in_span is not originals[1]
    finally:
        restore()
    assert (cli.extremal_basis, reference.in_span) == originals
