"""Compare two commits with the benchmark, in alternating pairs.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are commits of this repository (exported with ``git
archive``) or directories holding a checkout.  Both are measured by the
benchmark code of the checkout this script is in, on every workload of
``BENCHMARK.json`` and for its ``run_seconds``.  Pair i runs seed
``FIRST_SEED + i`` on both sides, base first when i is even and head
first when i is odd.  The inputs are made by the benchmark alone, so both
sides of a pair get the same files.

For every workload and end-to-end metric the report gives each side's
median and quartiles, the share of pairs the head won (ties count for
neither side) and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` when a base run failed (its worker ran past its time
  limit), ``regression`` when only a head run did;
* ``unresolved`` when the base's own spread (quartile distance over
  median) is wider than the bound, unless every head run is better than
  every base run;
* ``regression`` when the head's median is worse than the base's by more
  than the bound;
* ``improved`` when at least ten pairs ran, the head won at least nine
  tenths of them and the medians differ by more than the base's quartile
  distance;
* ``within bound`` otherwise.

The full record is written to ``perfbench/out/compare-<base>-<head>.json``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RUN_TIMEOUT = 900
PAIRS = 10
FIRST_SEED = 1000
MIN_PAIRS_FOR_GAIN = 10


def materialize(ref: str) -> tuple[Path, str]:
    """A directory holding ``ref``'s src/ and tests/, and its label."""
    path = Path(ref)
    if path.is_dir():
        return path.resolve(), path.resolve().name
    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", ref + "^{commit}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    tree = BENCH_DIR / ".work" / "compare" / sha
    if not (tree / "src").is_dir():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", sha, "src", "tests"],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree, sha


def run_once(tree: Path, label: str, workload: str, seed: int, seconds: int) -> dict:
    """One run's JSON result; a run that printed one but exited with 1
    (its worker ran past its time limit) comes back with no metrics."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--root", str(tree), "--commit", label,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT, cwd=REPO)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"perfbench: run failed on {label}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """A failed run's value is NaN; it decides the verdict on its own."""
    sign = 1 if better == "lower" else -1
    base_failed, head_failed = (any(map(math.isnan, runs)) for runs in (base, head))
    if base_failed or head_failed:
        return {"base": {"runs": base}, "head": {"runs": head},
                "verdict": "unresolved" if base_failed else "regression"}
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    spread = (b3 - b1) / bm if bm else 0.0
    worse_by = sign * (hm - bm) / bm if bm else 0.0
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if spread > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "regression"
    elif len(base) < MIN_PAIRS_FOR_GAIN:
        word = "within bound (too few pairs to claim a gain)"
    elif wins >= 0.9 * len(base) and abs(hm - bm) > (b3 - b1) and worse_by < 0:
        word = "improved"
    else:
        word = "within bound"
    return {
        "base": {"median": bm, "q1": b1, "q3": b3, "runs": base},
        "head": {"median": hm, "q1": h1, "q3": h3, "runs": head},
        "win_share": wins / len(base),
        "base_spread": spread,
        "worse_by": worse_by,
        "bound": bound,
        "verdict": word,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_tree, base_label), (head_tree, head_label) = map(materialize, argv)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    report = {"base": base_label, "head": head_label, "pairs": PAIRS,
              "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                tree, label = (base_tree, base_label) if side == "base" else (head_tree, head_label)
                runs[side].append(run_once(tree, label, workload, seed, seconds))
                print(f"{workload} pair {i} {side} done", file=sys.stderr)
        rows = {}
        for m in metrics:
            base, head = (
                [r["metrics"].get(m["name"], {}).get("value", math.nan) for r in runs[side]]
                for side in ("base", "head")
            )
            rows[m["name"]] = verdict(base, head, m["better"], m["bound"])
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        report["workloads"][workload] = {"metrics": rows, "failed": failed}
        print(f"\n{workload}: {PAIRS} pairs, failed calls base {failed['base']} "
              f"head {failed['head']}")
        print(f"{'metric':<18} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30} "
              f"{'wins':>5}  verdict (bound)")
        for m in metrics:
            r = rows[m["name"]]
            b, h = r["base"], r["head"]
            if "median" not in b:
                print(f"{m['name']:<18} {'a run failed':>30} {'':>30} {'':>5}  {r['verdict']}")
                continue
            print(f"{m['name']:<18} {b['median']:>10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                  f"{h['median']:>10.4f} [{h['q1']:.4f}, {h['q3']:.4f}] "
                  f"{r['win_share']:>5.2f}  {r['verdict']} ({m['bound']}) {m['unit']}")
    out = BENCH_DIR / "out" / f"compare-{base_label[:12]}-{head_label[:12]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nrecord: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
