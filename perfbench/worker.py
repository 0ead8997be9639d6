"""Drive the ``maxplus`` CLI over one workload's matrix files and time it.

Runs in its own process, started by ``run.py``, so that its peak resident
memory is the workload's alone.  Every call goes through the public
``maxplus.cli.main(argv)``, one after another, with stdout and stderr
captured; the time of a call is the wall time of ``main`` alone.  Checks
run outside the timed region and a failed check never stops the run.

A round makes every call on every matrix of the workload, matrix by
matrix: the three ``basis`` routes, ``verify``, then the ``inspect``
calls (``generators`` by all three methods, ``lambda``, ``cycles`` and
``check``).  Going matrix by matrix spreads every group's calls over the
whole round, so a change in the machine's speed during a round reaches
every group alike.  The calibration task of ``calibrate.py`` runs between
cases, about every quarter second, and turns the wall time of a round's
calls into reference seconds.  Rounds repeat while
the time budget allows; each group's metric is the median of its
per-round totals in reference seconds.

With ``--trace 1`` untraced and traced rounds alternate instead, and the
result holds the per-layer metrics of the traced rounds and the
difference between the two, the tracing overhead.

Usage: worker.py ROOT MANIFEST RESULT --seconds S --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import checks

ROUTES = ("extremal", "wang2020", "dd")
GROUPS = ("basis.extremal_s", "basis.wang2020_s", "basis.dd_s", "verify_s", "inspect_s")


def load_program(root: Path):
    """Import ``maxplus.cli`` and ``tests/support.py`` from ``root`` only."""
    src, tests = root / "src", root / "tests"
    for need in (src / "maxplus" / "cli.py", tests / "support.py"):
        if not need.is_file():
            raise SystemExit(f"perfbench: missing {need}; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(tests)]
    import maxplus
    import maxplus.cli
    import support

    if Path(maxplus.__file__).resolve().parent != (src / "maxplus").resolve():
        raise SystemExit(f"perfbench: imported maxplus from {maxplus.__file__}, not {src}")
    return maxplus.cli, support


def add_example(manifest: dict, support, work: Path) -> dict:
    """The manifest with the README's worked example appended as a case.

    Its matrix and its ten basis vectors both come from
    ``tests/support.py``; the file is written to ``work``.
    """
    path = work / "example.txt"
    path.write_text(support.EXAMPLE_TEXT)
    return {**manifest, "cases": manifest["cases"] + [{"name": "example", "file": str(path)}]}


class Workload:
    """The calls of one workload and the checks of their outputs."""

    def __init__(self, cli, support, manifest: dict):
        self.cli = cli
        self.cases = manifest["cases"]
        example = list(support.EXAMPLE_BASIS_TEXT)
        self.expected = [
            checks.expected_for(
                Path(c["file"]).read_text(),
                support,
                example if c["name"] == "example" else None,
            )
            for c in self.cases
        ]
        self.agreed: dict[int, str | None] = {}
        self.basis: dict[int, list | None] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self._verdicts: dict[tuple, str | None] = {}
        self.call_times: dict[str, list[float]] = {g: [] for g in GROUPS}
        self.case_times: dict[str, list[float]] = {}
        self.calibration_s: list[float] = []
        self.scale = 1.0
        self.tracer = None

    # -- one call --------------------------------------------------------

    def call(self, argv: list[str]) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_call()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed call, not a stop
                code = None
                err.write(f"exception: {exc!r}")
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def judge(self, k: int, what: str, code, out: str, err: str, check) -> None:
        """Count one call and record it when its check fails."""
        self.attempted += 1
        key = (k, what, code, out, err[:200])
        if key not in self._verdicts:
            self._verdicts[key] = (
                f"exception: {err}" if code is None else check()
            )
        reason = self._verdicts[key]
        if reason is not None:
            self.failures.append({"case": self.cases[k]["name"], "call": what, "reason": reason})

    # -- one round -------------------------------------------------------

    def run_round(self) -> dict[str, float]:
        """Every call on every case, case by case; summed reference seconds
        per group.

        The calibration task is sampled at the start, after a case once
        ``calibrate.INTERVAL_S`` has passed, and after the last case;
        ``self.scale`` is the round's factor from wall to reference seconds.
        """
        totals = dict.fromkeys(GROUPS, 0.0)
        first = not self.case_times
        clock = calibrate.Calibrator()
        for k in range(len(self.cases)):
            times = self.run_case(k)
            for group, t in times.items():
                totals[group] += t
                if first:
                    self.case_times.setdefault(group, []).append(t)
            if clock.due():
                clock.sample()
        clock.sample()
        self.calibration_s.extend(clock.samples)
        self.scale = clock.factor()
        return {group: t * self.scale for group, t in totals.items()}

    def run_case(self, k: int) -> dict[str, float]:
        case, exp = self.cases[k], self.expected[k]
        path = case["file"]
        times = dict.fromkeys(GROUPS, 0.0)

        def timed(group, argv):
            elapsed, code, out, err = self.call(argv)
            times[group] += elapsed
            self.call_times[group].append(elapsed)
            return code, out, err

        outputs = {}
        for route in ROUTES:
            argv = ["basis", case.get("raw_file", path), "--method", route]
            if case.get("lam") is not None:
                argv.append(f"--lambda={case['lam']}")
            outputs[route] = timed(f"basis.{route}_s", argv)
        if k not in self.agreed:
            self.settle(k, outputs)
        for route, (code, out, err) in outputs.items():
            self.judge(k, f"basis --method {route}", code, out, err,
                       lambda: self.check_basis(k, code, out, err))

        basis = self.basis[k]
        code, out, err = timed("verify_s", ["verify", path])
        size = None if basis is None else len(basis)
        self.judge(k, "verify", code, out, err,
                   lambda: checks.check_verify(exp, size, code, out))

        for route in ROUTES:
            code, out, err = timed("inspect_s", ["generators", path, "--method", route])
            self.judge(k, f"generators --method {route}", code, out, err,
                       lambda: checks.check_generators(exp, basis, code, out))
        code, out, err = timed("inspect_s", ["lambda", path])
        self.judge(k, "lambda", code, out, err,
                   lambda: checks.check_text(exp.lam_line + "\n", code, out))
        code, out, err = timed("inspect_s", ["cycles", path])
        want_cycles = "".join(line + "\n" for line in exp.cycle_lines)
        self.judge(k, "cycles", code, out, err,
                   lambda: checks.check_text(want_cycles, code, out))
        vec, want = checks.check_vector(exp, basis)
        code, out, err = timed("inspect_s", ["check", path, f"--vector={vec}"])
        self.judge(k, "check", code, out, err, lambda: (
            "no agreed basis to derive the expectation"
            if want is None
            else checks.check_text(want, code, out)
        ))
        return times

    def settle(self, k: int, outputs: dict[str, tuple]) -> None:
        """Fix case k's agreed basis from the first call of every route.

        The agreed basis is the output that a majority of routes printed,
        when it also passes :func:`checks.check_basis`; otherwise there is
        none and every call of the case that needs it fails its check.
        """
        printed = {r: out if code == 0 else f"exit {code}" for r, (code, out, _) in outputs.items()}
        blame = checks.agreement(printed)
        agreed = next((printed[r] for r in printed if blame[r] is None), None)
        exp = self.expected[k]
        if agreed is not None and checks.check_basis(
            exp, 0, agreed, checks.UNSOLVABLE_PREFIX
        ) is None:
            self.agreed[k] = agreed
            self.basis[k] = [checks.parse_vec(line, len(exp.matrix)) for line in agreed.splitlines()]
        else:
            self.agreed[k] = None
            self.basis[k] = None

    def check_basis(self, k: int, code, out: str, err: str) -> str | None:
        reason = checks.check_basis(self.expected[k], code, out, err)
        if reason is None and out != self.agreed[k]:
            reason = "basis bytes differ between routes"
        return reason


def tail(xs: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    if len(xs) < 20:
        return "max", xs[-1]
    p = int(100 * (len(xs) - 10) / len(xs))
    return f"p{p}", xs[min(len(xs) - 1, int(len(xs) * p / 100))]


def timed_run(w: Workload, seconds: float) -> dict:
    """Rounds until the next one would pass ``seconds``; at least one."""
    started = time.perf_counter()
    rounds: list[dict[str, float]] = []
    while True:
        t0 = time.perf_counter()
        rounds.append(w.run_round())
        if time.perf_counter() - started + (time.perf_counter() - t0) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "rounds": {g: [r[g] for r in rounds] for g in GROUPS},
        "tails": {g: tail(w.call_times[g]) + (len(w.call_times[g]),) for g in GROUPS},
        "peak_rss_mb": peak_kb / 1024,
        "case_times": w.case_times,
        "calibration_s": w.calibration_s,
    }


def traced_run(w: Workload, seconds: float, spans_path: str | None) -> dict:
    """Untraced and traced rounds in turn, at least one pair."""
    from tracer import LAYER_METRICS, Tracer

    SECONDS = {name for name, unit in LAYER_METRICS if unit == "s"}

    tracer = Tracer()
    started = time.perf_counter()
    untraced, traced, layers = [], [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(sum(w.run_round().values()))
        restore = tracer.install()
        w.tracer = tracer
        before = tracer.totals()
        try:
            traced.append(sum(w.run_round().values()))
        finally:
            restore()
            w.tracer = None
        after = tracer.totals()
        layers.append({
            k: (after[k] - before[k]) * (w.scale if k in SECONDS else 1) for k in after
        })
        if time.perf_counter() - started + (time.perf_counter() - t0) > seconds:
            break
    if spans_path:
        tracer.write(spans_path)
    return {
        "layers": {k: statistics.median([lay[k] for lay in layers]) for k in layers[0]},
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead_s": statistics.median(traced) - statistics.median(untraced),
        "spans": len(tracer.spans),
        "calibration_s": w.calibration_s,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path)
    ap.add_argument("manifest", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    cli, support = load_program(args.root)
    manifest = add_example(json.loads(args.manifest.read_text()), support, args.manifest.parent)
    w = Workload(cli, support, manifest)
    if args.trace:
        result = traced_run(w, args.seconds, args.spans)
    else:
        result = timed_run(w, args.seconds)
    result.update(attempted=w.attempted, failed=len(w.failures), failures=w.failures)
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
