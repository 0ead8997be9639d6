"""The package runs on the standard library alone."""

import subprocess
import sys
from pathlib import Path

import pytest

from maxplus import cli

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_networkx():
    # every module the import loads is the package's own or the standard
    # library's, so no networkx and no other third-party module
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import maxplus.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] not in sys.stdlib_module_names | {'maxplus'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
