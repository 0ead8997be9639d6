"""README's Python code blocks, run as written."""

import re
from fractions import Fraction
from pathlib import Path

from support import EXAMPLE_BASIS_TEXT, EXAMPLE_TEXT

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    """The bodies of README's ```python blocks, in order."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 2
    return blocks


def run_block(source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    return namespace


def test_worked_example(tmp_path, monkeypatch, capsys):
    (tmp_path / "A.txt").write_text(EXAMPLE_TEXT)
    monkeypatch.chdir(tmp_path)
    namespace = run_block(python_blocks()[0])
    assert capsys.readouterr().out.splitlines() == EXAMPLE_BASIS_TEXT
    assert namespace["result"].cycle_mean == Fraction(5, 4)
    assert namespace["result"].solvable is True


def test_library_surface_imports():
    namespace = run_block(python_blocks()[1])
    assert "TangentOracle" in namespace and "max_cycle_mean" in namespace
