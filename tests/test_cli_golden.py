"""Frozen stdout bytes and exit codes of every subcommand on seeded matrices.

``golden/cli_stdout.json`` holds, for about thirty matrices, each matrix's
text and the argv, exit code and stdout of every call made on it.  The
test replays each call and requires the same exit code and the same bytes,
so any change in output, however small, shows here.  The cases cover
chains into a loop, block-triangular matrices, fractional weights,
complete digraphs, zero-weight critical cycles, ``--lambda`` shifts,
-inf-heavy random matrices, the trivial 1x1 cases and runs past
``--max-cycles``.

To rebuild the file (only when an output change is intended):

    PYTHONPATH=src:tests python tests/test_cli_golden.py

Before it writes, the rebuild prints each call whose exit code or stdout
differs from the file on disk, then their count.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from maxplus import NEG_INF, cli, render_matrix
from support import (
    EXAMPLE_TEXT,
    block_triangular,
    brute_max_cycle_mean,
    chain_into_loop,
    complete_matrix,
    fractional_matrix,
    rand_matrix,
    zero_critical_cycle,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _matrices() -> list[tuple[str, str, str | None]]:
    """(name, matrix text, --lambda value or None) for every case."""
    rng = random.Random("cli-golden")
    cases: list[tuple[str, str, str | None]] = [
        ("example", EXAMPLE_TEXT, "5/4"),
        ("one-zero", "0\n", None),
        ("one-negative", "-1\n", "-1"),
        ("one-neg-inf", "-inf\n", None),
        ("acyclic", "-inf 1 -inf\n-inf -inf 2\n-inf -inf -inf\n", None),
    ]
    for n in (4, 7, 10):
        cases.append((f"chain-{n}", render_matrix(chain_into_loop(n)), None))
    for n in (6, 9):
        cases.append((f"chain-rand-{n}", render_matrix(chain_into_loop(n, rng)), None))
    for sizes in ((2, 2), (3, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)):
        label = "x".join(map(str, sizes))
        cases.append((f"block-{label}", render_matrix(block_triangular(rng, sizes)), None))
    for n in (3, 4, 5, 6):
        a = fractional_matrix(rng, n)
        lam = brute_max_cycle_mean(a)
        shift = None if lam is NEG_INF else str(lam)
        cases.append((f"fraction-{n}", render_matrix(a), shift))
    for n in (3, 4, 5):
        cases.append((f"complete-{n}", render_matrix(complete_matrix(rng, n)), None))
    for n in (5, 6):
        while True:
            a = rand_matrix(rng, n, neg_inf_p=0.5)
            if brute_max_cycle_mean(a) is not NEG_INF:
                break
        cases.append((f"zero-critical-{n}", render_matrix(zero_critical_cycle(a)), None))
    cases.append(
        (
            "zero-critical-block",
            render_matrix(zero_critical_cycle(block_triangular(rng, (3, 3)))),
            None,
        )
    )
    for n in (6, 7, 8, 8, 8):
        a = rand_matrix(rng, n, neg_inf_p=0.7)
        cases.append((f"sparse-{n}-{len(cases)}", render_matrix(a), None))
    return cases


def _calls(text: str, lam: str | None) -> list[list[str]]:
    """Every argv run on one matrix; ``FILE`` stands for its path."""
    n = len(text.splitlines())
    calls = []
    for method in cli.METHODS:
        calls.append(["basis", "FILE", "--method", method])
        calls.append(["basis", "FILE", "--method", method, "--json"])
        if lam is not None:
            calls.append(["basis", "FILE", "--method", method, f"--lambda={lam}"])
    for method in cli.METHODS:
        calls.append(["generators", "FILE", "--method", method])
    calls += [["verify", "FILE"], ["lambda", "FILE"], ["cycles", "FILE"]]
    calls.append(["check", "FILE", "--vector", " ".join(["0"] * n)])
    # Enumeration caps: dd is left out, since it counts other work.
    calls.append(["cycles", "FILE", "--max-cycles", "1"])
    calls.append(["basis", "FILE", "--max-cycles", "1"])
    calls.append(["basis", "FILE", "--method", "wang2020", "--max-cycles", "2"])
    return calls


def _replay(text: str, calls: list[list[str]], path: Path) -> list[dict]:
    path.write_text(text, encoding="utf-8")
    out = []
    for argv in calls:
        code, stdout = run_cli([str(path) if a == "FILE" else a for a in argv])
        out.append({"argv": argv, "exit": code, "stdout": stdout})
    return out


def build(tmp: Path) -> list[dict]:
    """Every case, with each call's exit code and stdout from this checkout."""
    cases = []
    for name, text, lam in _matrices():
        calls = _calls(text, lam)
        # The first basis vector, when there is one, is checked as well.
        first = _replay(text, calls[:1], tmp)[0]["stdout"].splitlines()
        if first:
            calls.append(["check", "FILE", "--vector", first[0]])
        cases.append(
            {"name": name, "matrix": text, "calls": _replay(text, calls, tmp)}
        )
    return cases


def changed_calls(old: list[dict], new: list[dict]) -> list[str]:
    """One line per call of ``new`` whose exit code or stdout differs from
    the same case and argv in ``old``, or that ``old`` lacks."""
    before = {
        (case["name"], tuple(call["argv"])): call
        for case in old
        for call in case["calls"]
    }
    lines = []
    for case in new:
        for call in case["calls"]:
            was = before.get((case["name"], tuple(call["argv"])))
            if was is None:
                what = "new call"
            else:
                what = " and ".join(
                    label
                    for key, label in (("exit", "exit code"), ("stdout", "stdout"))
                    if was[key] != call[key]
                )
                what = what and what + " changed"
            if what:
                lines.append(f"{case['name']}: {' '.join(call['argv'])}: {what}")
    return lines


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# Read at collection; a missing file fails the coverage test below.
@pytest.mark.parametrize(
    "case", _golden() if GOLDEN.exists() else [], ids=lambda c: c["name"]
)
def test_stdout_and_exit_code_match(case, tmp_path):
    calls = [c["argv"] for c in case["calls"]]
    got = _replay(case["matrix"], calls, tmp_path / "m.txt")
    for want, have in zip(case["calls"], got):
        assert (have["exit"], have["stdout"]) == (want["exit"], want["stdout"]), want["argv"]


def test_changed_calls_names_each_difference():
    call = {"argv": ["lambda", "FILE"], "exit": 0, "stdout": "1\n"}
    old = [{"name": "m", "matrix": "1\n", "calls": [call]}]
    same = [{"name": "m", "matrix": "1\n", "calls": [dict(call)]}]
    assert changed_calls(old, same) == []
    new = [
        {
            "name": "m",
            "matrix": "1\n",
            "calls": [
                {**call, "exit": 3, "stdout": ""},
                {"argv": ["cycles", "FILE"], "exit": 0, "stdout": ""},
            ],
        }
    ]
    assert changed_calls(old, new) == [
        "m: lambda FILE: exit code and stdout changed",
        "m: cycles FILE: new call",
    ]
    new[0]["calls"][0]["exit"] = 0
    assert changed_calls(old, new)[0] == "m: lambda FILE: stdout changed"


def test_golden_covers_every_subcommand():
    cases = _golden()
    assert len(cases) >= 30
    seen = {c["argv"][0] for case in cases for c in case["calls"]}
    assert seen == set(cli._COMMANDS)
    assert {c["exit"] for case in cases for c in case["calls"]} >= {0, 3}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = build(Path(tmp) / "m.txt")
    changed = changed_calls(_golden() if GOLDEN.exists() else [], data)
    for line in changed:
        print(line)
    print(f"{len(changed)} calls changed")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
