"""Seeded benchmark of every ``maxplus`` subcommand and ``--method``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rand-int --seed 1 --seconds 30 --trace 0

The seed alone makes the workload's matrix files (see ``workloads.py``);
the program under test receives only those files and argv.  A worker
process then drives ``maxplus.cli.main`` over them (see ``worker.py``)
and checks every output.

``--trace 0`` prints the end-to-end metrics: one timed batch total per
route or subcommand group, the share of calls that passed their checks,
the worker's peak resident memory, and ``setup_s``, the median time of a
fresh interpreter running ``import maxplus.cli``.  Every time is in
reference seconds: wall seconds corrected for the machine's speed by a
calibration task timed alongside (see ``calibrate.py``).  ``--trace 1``
prints the per-layer metrics of a traced run instead (see ``tracer.py``),
with the tracing overhead.  ``MAXPLUS_THREADS`` is removed from the
environment of every process started, so the CLI's default pool (one
thread per core) is what is measured; all processes run on one CPU.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  A fuller record, with the environment stamp and every
failed check, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import calibrate
import workloads
from tracer import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_ROOT = BENCH_DIR.parent
SETUP_SPAWNS = 9
SETUP_TIMEOUT = 60.0


def worker_timeout(seconds: float) -> float:
    """The worker stops starting rounds at ``seconds`` but always finishes
    the round it is in and runs at least one; past this it is stopped."""
    return 2 * seconds + 60


END_TO_END = (
    ("setup_s", "s"),
    ("basis.extremal_s", "s"),
    ("basis.wang2020_s", "s"),
    ("basis.dd_s", "s"),
    ("verify_s", "s"),
    ("inspect_s", "s"),
    ("pass_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def program_files(root: Path) -> list[Path]:
    return [root / "src" / "maxplus" / "cli.py", root / "tests" / "support.py"]


def clean_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MAXPLUS_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def stamp(root: Path, args, cpus: list[int]) -> dict:
    threads = os.environ.get("MAXPLUS_THREADS")
    commit = args.commit
    if commit is None and (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    try:
        nx_version = version("networkx")
    except PackageNotFoundError:
        nx_version = "not installed"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_to_cpu": cpus[0],
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "networkx": nx_version,
        "MAXPLUS_THREADS": "unset" if threads is None else f"was {threads!r}, unset for the run",
    }


def measure_setup(root: Path) -> list[float]:
    """Reference seconds of fresh interpreters importing ``maxplus.cli``, one
    at a time, with a calibration sample after each.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    round every time up to that grid; a timer kills a hung child instead.
    """
    env = clean_env(root)
    times = []
    clock = calibrate.Calibrator()
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import maxplus.cli"], env=env, cwd=root)
        watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
        watchdog.start()
        code = proc.wait()
        times.append(time.perf_counter() - start)
        watchdog.cancel()
        if code != 0:
            raise SystemExit(f"perfbench: import maxplus.cli exited with {code}")
        clock.sample()
    return [t * clock.factor() for t in times]


def write_inputs(cases, work: Path) -> dict:
    entries = []
    for k, case in enumerate(cases):
        path = work / f"m{k:03d}.txt"
        path.write_text(case.text)
        entry = {"name": case.name, "file": str(path), "guard": case.guard}
        if case.lam is not None:
            raw = work / f"m{k:03d}-raw.txt"
            raw.write_text(case.raw_text)
            entry.update(lam=str(case.lam), raw_file=str(raw))
        entries.append(entry)
    return {"cases": entries}


def run_worker(root: Path, work: Path, manifest: dict, args, spans: Path | None) -> dict | None:
    """The worker's result, or None when it ran past its time limit."""
    manifest_path, result_path = work / "manifest.json", work / "worker.json"
    manifest_path.write_text(json.dumps(manifest))
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        str(root),
        str(manifest_path),
        str(result_path),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = clean_env(root)
    env.pop("PYTHONPATH")  # the worker puts root/src first itself
    try:
        proc = subprocess.run(cmd, env=env, cwd=BENCH_DIR, timeout=worker_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def report_timed(result: dict, setup: list[float]) -> dict[str, float]:
    metrics = {"setup_s": statistics.median(setup)}
    for group, rounds in result["rounds"].items():
        metrics[group] = statistics.median(rounds)
    metrics["pass_share"] = 1 - result["failed"] / result["attempted"]
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    print(f"{'metric':<18} {'median':>10}  unit   tail")
    print(f"{'setup_s':<18} {metrics['setup_s']:>10.4f}  s      "
          f"max {max(setup):.4f} s over {len(setup)} spawns")
    for group, rounds in result["rounds"].items():
        label, value, count = result["tails"][group]
        print(f"{group:<18} {metrics[group]:>10.4f}  s      max {max(rounds):.4f} s over "
              f"{len(rounds)} rounds; per call {label} {value * 1000:.2f} ms (wall) of {count}")
    print(f"{'pass_share':<18} {metrics['pass_share']:>10.4f}  ratio  fail_share "
          f"{result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}")
    print(f"{'peak_rss_mb':<18} {metrics['peak_rss_mb']:>10.1f}  MB     worker process")
    print(calibration_line(result["calibration_s"]))
    return metrics


def calibration_line(samples: list[float]) -> str:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return (f"calibration task: {len(samples)} samples, quartiles "
            f"{q[0] * 1000:.2f} / {q[1] * 1000:.2f} / {q[2] * 1000:.2f} ms wall, reference "
            f"{calibrate.REFERENCE_S * 1000:.2f} ms")


def report_traced(result: dict) -> dict[str, float]:
    metrics = dict(result["layers"])
    metrics["trace.overhead_s"] = result["overhead_s"]
    for name, unit in LAYER_METRICS + (("trace.overhead_s", "s"),):
        print(f"{name:<42} {metrics[name]:>14.4f}  {unit}")
    print(f"traced rounds {result['traced_s']} s, untraced {result['untraced_s']} s, "
          f"{result['spans']} spans")
    print(calibration_line(result["calibration_s"]))
    return metrics


def units() -> dict[str, str]:
    return dict(END_TO_END + LAYER_METRICS + (("trace.overhead_s", "s"),))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="maxplus CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                    help="checkout whose src/ is measured [the one holding this script]")
    ap.add_argument("--commit", help="commit label for the stamp [git HEAD of --root]")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    missing = [str(p) for p in program_files(root) if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the program, missing {missing}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Everything runs on one CPU, children included: the vCPUs of a shared
    # host change speed independently, the calibration task can only track
    # the one it runs on, and a pool's threads handing the GIL across two
    # of them waited on the slower.  The pool keeps its default size.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    started = time.perf_counter()
    info = stamp(root, args, cpus)
    cases = workloads.generate(args.workload, args.seed)
    generation_s = time.perf_counter() - started
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = BENCH_DIR / "out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifest = write_inputs(cases, work)
        setup = [] if args.trace else measure_setup(root)
        spans = out_dir / f"spans-{tag}.jsonl" if args.trace else None
        result = run_worker(root, work, manifest, args, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    guard = workloads.guard_summary(args.workload)
    shown = {k: v for k, v in guard.items() if k not in ("cells", "slots")}
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} matrices and the worked "
          f"example, guard {shown}, generated in {generation_s:.1f} s (not timed)")
    print("stamp " + json.dumps(info))
    if result is None:
        # A failed run, not a crash: compare.py reads it as the worst value.
        print(f"perfbench: worker stopped after {worker_timeout(args.seconds):.0f} s")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics = report_traced(result) if args.trace else report_timed(result, setup)
    for f in result["failures"][:10]:
        print(f"FAILED {f['case']} {f['call']}: {f['reason']}")
    unit = units()
    record = {
        "stamp": info,
        "guard": guard,
        "cases": [{"name": c["name"], **c["guard"]} for c in manifest["cases"]],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
        "worker": result,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
