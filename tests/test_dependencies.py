"""The package runs on the standard library alone."""

import ast
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


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # each costs start-up time on every run; json is imported by --json alone
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import maxplus.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def test_package_imports_no_dataclasses_or_pathlib():
    # read statically: site may load pathlib before the package does
    banned = {"dataclasses", "pathlib"}
    found = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in banned]
    assert found == []


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
