"""Per-layer spans and counters, recorded from outside the program.

:meth:`Tracer.install` replaces public functions of ``maxplus`` with timed
wrappers in the namespaces where their callers look them up (for example
``maxplus.cli.extremal_basis`` and ``maxplus.reference.in_span``) and
returns a function that puts the originals back.  No code in ``src/`` is
changed.

Spans are kept in memory as tuples ``(id, name, start, end, parent,
call, thread)``.  ``call`` numbers the CLI invocation the span belongs
to.  The parent of a span is the innermost open span on its own thread;
a span opened on a pool worker with nothing open on that thread takes
the innermost open span of the thread that installed the tracer, which is
the call blocked on the pool.  A layer's self time is its duration minus
the union of its children's intervals, so with two workers the blocked
caller is charged only for time no child covers.

``semiring.residual`` runs millions of times per call; it gets counters
only, no spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

# (metric name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("semiring.in_span.calls", "count"),
    ("semiring.in_span.s", "s"),
    ("semiring.in_span.gens", "count"),
    ("semiring.residual.calls", "count"),
    ("semiring.residual.finite", "count"),
    ("reference.extremal_filter.calls", "count"),
    ("reference.extremal_filter.s", "s"),
    ("reference.extremal_filter.in", "count"),
    ("reference.extremal_filter.out", "count"),
    ("reference.SpanOracle.build.calls", "count"),
    ("reference.SpanOracle.build.s", "s"),
    ("reference.SpanOracle.call.calls", "count"),
    ("reference.SpanOracle.call.s", "s"),
    ("reference.SpanOracle.call.distinct", "count"),
    ("reference.double_description.calls", "count"),
    ("reference.double_description.s", "s"),
    ("reference.double_description.out", "count"),
    ("reference.cycle_path_generators.calls", "count"),
    ("reference.cycle_path_generators.s", "s"),
    ("reference.cycle_path_generators.out", "count"),
    ("digraph.nonneg_elementary_cycles.calls", "count"),
    ("digraph.nonneg_elementary_cycles.s", "s"),
    ("digraph.nonneg_elementary_cycles.out", "count"),
    ("digraph.feeder_paths.calls", "count"),
    ("digraph.feeder_paths.s", "s"),
    ("digraph.feeder_paths.out", "count"),
    ("digraph.from_matrix.calls", "count"),
    ("digraph.from_matrix.s", "s"),
    ("digraph.max_cycle_mean.calls", "count"),
    ("digraph.max_cycle_mean.s", "s"),
    ("extremals.extremal_basis.calls", "count"),
    ("extremals.extremal_basis.s", "s"),
    ("extremals.cycle_terminals.calls", "count"),
    ("extremals.cycle_terminals.s", "s"),
    ("extremals.path_extremals.calls", "count"),
    ("extremals.path_extremals.s", "s"),
    ("extremals.candidates", "count"),
    ("extremals.duplicates", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("matrixio.parse_matrix.calls", "count"),
    ("matrixio.parse_matrix.s", "s"),
)

def _self_time_key(name: str) -> str:
    """The metric holding the self time of spans called ``name``."""
    return "cli.main.self_s" if name == "cli.main" else name + ".s"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.call = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._counter_sets: list[defaultdict] = []
        self._lock = threading.Lock()
        self._distinct: dict[int, set] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._home_stack if threading.get_ident() == self._home else []
            self._local.stack = stack
        return stack

    def counters(self) -> defaultdict:
        """This thread's counters; merged by :meth:`totals`."""
        c = getattr(self._local, "counters", None)
        if c is None:
            c = defaultdict(int)
            self._local.counters = c
            with self._lock:
                self._counter_sets.append(c)
        return c

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(counters, args, result)`` counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._home_stack[-1] if tracer._home_stack else None
            )
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.call, threading.get_ident())
                )
            c = tracer.counters()
            c[name + ".calls"] += 1
            if after is not None:
                after(c, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap the layers; returns the function that restores them."""
        import maxplus.cli as cli
        import maxplus.digraph as digraph
        import maxplus.extremals as extremals
        import maxplus.reference as reference
        import maxplus.semiring as semiring

        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        def out_len(key):
            def after(c, args, result):
                c[key] += len(result)
            return after

        def filter_after(c, args, result):
            c["reference.extremal_filter.in"] += len(args[0])
            c["reference.extremal_filter.out"] += len(result)

        def basis_after(c, args, result):
            c["extremals.candidates"] += result.stats.candidates
            c["extremals.duplicates"] += result.stats.duplicates

        def in_span_after(c, args, result):
            c["semiring.in_span.gens"] += len(args[1])

        def wrap_everywhere(modules, attr, name, after=None):
            w = self.timed(name, getattr(modules[0], attr), after)
            for m in modules:
                patch(m, attr, w)

        wrap_everywhere([cli], "main", "cli.main")
        wrap_everywhere([cli], "parse_matrix", "matrixio.parse_matrix")
        wrap_everywhere([cli, extremals], "extremal_basis", "extremals.extremal_basis", basis_after)
        wrap_everywhere([extremals], "cycle_terminals", "extremals.cycle_terminals")
        wrap_everywhere([extremals], "path_extremals", "extremals.path_extremals")
        wrap_everywhere([cli, extremals], "max_cycle_mean", "digraph.max_cycle_mean")
        wrap_everywhere(
            [cli, extremals, reference],
            "nonneg_elementary_cycles",
            "digraph.nonneg_elementary_cycles",
            out_len("digraph.nonneg_elementary_cycles.out"),
        )
        wrap_everywhere(
            [cli, extremals, reference],
            "feeder_paths",
            "digraph.feeder_paths",
            out_len("digraph.feeder_paths.out"),
        )
        wrap_everywhere(
            [cli, reference],
            "cycle_path_generators",
            "reference.cycle_path_generators",
            out_len("reference.cycle_path_generators.out"),
        )
        wrap_everywhere(
            [cli],
            "double_description",
            "reference.double_description",
            out_len("reference.double_description.out"),
        )
        wrap_everywhere([cli], "extremal_filter", "reference.extremal_filter", filter_after)
        wrap_everywhere([reference], "in_span", "semiring.in_span", in_span_after)

        from_matrix = digraph.Digraph.__dict__["from_matrix"].__func__
        patch(
            digraph.Digraph,
            "from_matrix",
            classmethod(self.timed("digraph.from_matrix", from_matrix)),
        )

        oracle_cls = reference.SpanOracle
        patch(oracle_cls, "__init__", self.timed("reference.SpanOracle.build", oracle_cls.__init__))
        tracer = self

        def oracle_after(c, args, result):
            with tracer._lock:
                seen = tracer._distinct.setdefault(id(args[0]), set())
                fresh = args[1] not in seen
                seen.add(args[1])
            if fresh:
                c["reference.SpanOracle.call.distinct"] += 1

        patch(
            oracle_cls,
            "__call__",
            self.timed("reference.SpanOracle.call", oracle_cls.__call__, oracle_after),
        )

        residual = semiring.residual
        neg_inf = semiring.NEG_INF

        def counted_residual(v, w):
            r = residual(v, w)
            c = tracer.counters()
            c["semiring.residual.calls"] += 1
            if r is not neg_inf:
                c["semiring.residual.finite"] += 1
            return r

        patch(semiring, "residual", counted_residual)

        def restore():
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

        return restore

    # -- reporting -------------------------------------------------------

    def begin_call(self) -> None:
        """Start a new CLI invocation; oracle instances never span calls."""
        self.call += 1
        self._distinct.clear()

    def totals(self) -> dict[str, float]:
        """Every per-layer metric: merged counters plus self times."""
        out: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
        with self._lock:
            for c in self._counter_sets:
                for k, v in c.items():
                    if k in out:
                        out[k] += v
        for name, secs in self_times(self.spans).items():
            out[_self_time_key(name)] += secs
        return out

    def write(self, path: str) -> None:
        """Write the spans, one JSON array per line, oldest first."""
        with open(path, "w") as f:
            f.write('["id","name","start","end","parent","call","thread"]\n')
            for span in sorted(self.spans, key=lambda s: s[2]):
                f.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Sum over spans of each name of duration minus children's covered time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, name, start, end, parent, call, thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, call, thread in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return out
