"""Seeded inputs for the benchmark's workloads, and the size guard.

Every input set is a pure function of the workload name and the seed:
one ``random.Random(f"{workload}:{seed}")`` drives every choice, so the
same seed gives the same matrix files byte for byte.

The size guard is computed before any timing and admits a matrix only
when both of its parts stay inside the workload's bounds:

* ``G``, the size of the closed-form generating set (one generator per
  rotation arc of each nonnegative elementary cycle, one per step of each
  maximal feeder path), counted with capped cycle and feeder-path
  enumerations and abandoned as soon as it passes the bound;
* ``dd_peak``, the largest generator set that double description holds
  after any row prefix, grown one row at a time and abandoned as soon as
  it passes the bound.

At a fixed size and density ``G`` ranges from 0 to over 10^7, and one
admitted-looking n=8 matrix can keep ``--method dd`` busy for minutes, so
without the guard a seed could hang the benchmark.

Generation uses no code of the program under test: the cycles, feeder
paths, cycle means and double description steps here run on plain rows
with the arithmetic of ``checks.py``.  Two commits therefore get the same
files for the same seed, whatever they change in the library.

Inside the guard, ``rand-int`` is stratified: each seed fills the same
fixed list of (G, dd work) cells with one matrix each.  The time of a
route over the batch then depends on the seed far less than a free draw
would, which is what lets a per-seed total be compared across seeds.

Every workload also runs the README's worked example; the worker adds it
from ``tests/support.py``, so it is not generated here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from checks import leq, row_apply, scaled

# Cap on enumerated cycles (of any weight) or feeder paths while counting
# G; a matrix that reaches it is rejected.
ENUM_CAP = 1_000

Entry = Union[int, Fraction, None]  # None stands for -inf


@dataclass(frozen=True)
class Guard:
    """Admission bounds on G, the dd peak set size and the dd pair count.

    Bounds are inclusive; ``pairs_max`` caps the satisfier x violator
    pairs that double description combines over all rows.
    """

    g_min: int
    g_max: int
    dd_min: int
    dd_max: int
    pairs_max: int

    def as_dict(self) -> dict:
        return {
            "G": [self.g_min, self.g_max],
            "dd_peak": [self.dd_min, self.dd_max],
            "dd_pairs_max": self.pairs_max,
        }


# rand-int: -inf share 0.6-0.8 (finite density 0.2-0.4), integer weights
# in [-5, 5], n in {8, 10, 12}.  Each cell is a box in (G, dd work) filled
# by the same number of matrices per seed, so every seed carries the same
# mix of cheap and expensive matrices.  G sets the cost of the closed-form
# filter (about G^2 span tests); dd work, peak^2 + 25 x pairs, sets the
# cost of the dd route (its filter plus its row steps; the weight 25 is
# fitted to measured times).  The bounds sit below the largest sizes the
# routes handle, so that a round fits in one run.  Matrices of equal dd
# work still differ in dd time by a factor of two, so the dd work is spread
# over many mid-sized matrices, not a few large ones.
RAND_INT_GUARD = Guard(300, 749, 0, 200, 1500)
# Per n, the part of the -inf share range where draws most often land
# inside the guard; larger matrices need sparser draws.
RAND_INT_NEG_INF_SHARE = {8: (0.6, 0.7), 10: (0.7, 0.8), 12: (0.75, 0.8)}
RAND_INT_CELLS = tuple(
    (g, d)
    for g in ((300, 380), (380, 480), (480, 600), (600, 750))
    for d in ((0, 6000), (6000, 14000), (14000, 24000), (24000, 36000))
)
# With one matrix per cell the batch's wang2020 and dd times still spread
# 0.15 between seeds; three per cell average that down.
RAND_INT_PER_CELL = 3


def dd_work(peak: int, pairs: int) -> int:
    return peak * peak + 25 * pairs


# small-batch measures per-call fixed costs, so no matrix may carry much
# dd work: with dd peak up to 200 a handful of n=6 matrices at 0.1 s each
# set half the workload's dd time, and which ones a seed draws swung it by
# 50 %.  With dd peak <= 60 and dd pairs <= 300 the slowest dd call takes
# about 20 ms, against 4 ms on average, and 96 % of the matrices a dd peak
# of 200 admits still pass.
SMALL_BATCH_GUARD = Guard(0, 60, 0, 60, 300)
# Small enough for several rounds per run, for the same reason.
SMALL_BATCH_SIZE = 120
SMALL_BATCH_NEGATIVE = 12  # cases with lambda < 0


@dataclass(frozen=True)
class Case:
    """One matrix of a workload.

    ``text`` is the matrix file every subcommand reads.  When ``lam`` is
    set the case is lambda-shifted: ``text`` holds A - lam, and ``basis``
    instead reads ``raw_text`` (A itself) with ``--lambda=lam``.
    """

    name: str
    text: str
    lam: Fraction | None = None
    raw_text: str | None = None
    guard: dict = field(default_factory=dict)


def render(rows: list[list[Entry]]) -> str:
    return "".join(
        " ".join("-inf" if e is None else str(e) for e in row) + "\n"
        for row in rows
    )


class _CapReached(Exception):
    pass


def elementary_cycles(rows: list[list[Entry]], cap: int | None = None) -> list[tuple] | None:
    """Node tuples of every elementary cycle, each anchored at its smallest
    node; None when there are more than ``cap``.

    Depth-first from each start node over larger nodes only, restricted to
    the larger nodes that can reach the start again.
    """
    n = len(rows)
    succ = [[j for j, e in enumerate(row) if e is not None] for row in rows]
    found: list[tuple] = []

    def walk(start: int, back: set[int], path: list[int], on_path: set[int]) -> None:
        for j in succ[path[-1]]:
            if j == start:
                found.append(tuple(path))
                if cap is not None and len(found) > cap:
                    raise _CapReached
            elif j in back and j not in on_path:
                path.append(j)
                on_path.add(j)
                walk(start, back, path, on_path)
                path.pop()
                on_path.discard(j)

    try:
        for s in range(n):
            back, frontier = set(), [s]
            while frontier:
                v = frontier.pop()
                for u in range(s + 1, n):
                    if rows[u][v] is not None and u not in back:
                        back.add(u)
                        frontier.append(u)
            walk(s, back, [s], {s})
    except _CapReached:
        return None
    return found


def cycle_weight(rows: list[list[Entry]], nodes: tuple) -> int | Fraction:
    return sum(rows[u][nodes[(k + 1) % len(nodes)]] for k, u in enumerate(nodes))


def max_cycle_mean(rows: list[list[Entry]]) -> Fraction | None:
    """Largest mean weight over all cycles; None (-inf) when there are none."""
    means = [Fraction(cycle_weight(rows, c), len(c)) for c in elementary_cycles(rows)]
    return max(means, default=None)


def feeder_steps(rows: list[list[Entry]], cycle: tuple, cap: int) -> int:
    """Steps over all maximal feeder paths of a cycle (one generator each).

    A feeder path ends on the cycle, has its other nodes outside it, and
    cannot be extended backwards by a fresh outside node.  Raises
    ``_CapReached`` past ``cap`` paths.
    """
    n = len(rows)
    pred = [[u for u in range(n) if rows[u][v] is not None] for v in range(n)]
    on_cycle = set(cycle)
    paths = steps = 0

    def grow(head: int, length: int, used: set[int]) -> None:
        nonlocal paths, steps
        fresh = [u for u in pred[head] if u not in on_cycle and u not in used]
        if not fresh:
            if length >= 2:
                paths += 1
                if paths > cap:
                    raise _CapReached
                steps += length - 1
            return
        for u in fresh:
            used.add(u)
            grow(u, length + 1, used)
            used.discard(u)

    for end in cycle:
        grow(end, 1, {end})
    return steps


def closed_form_count(rows: list[list[Entry]], g_max: int) -> int | None:
    """G, or None once it passes ``g_max`` or an enumeration passes the cap."""
    cycles = elementary_cycles(rows, ENUM_CAP)
    if cycles is None:
        return None
    g = 0
    try:
        for c in cycles:
            if cycle_weight(rows, c) >= 0:
                g += len(c) + feeder_steps(rows, c, ENUM_CAP)
                if g > g_max:
                    return None
    except _CapReached:
        return None
    return g


def _shift(v: tuple, c: Entry) -> tuple:
    return tuple(None if c is None or e is None else e + c for e in v)


def _join(v: tuple, w: tuple) -> tuple:
    return tuple(b if a is None else a if b is None else max(a, b) for a, b in zip(v, w))


def dd_prefix(rows: list[list[Entry]], dd_max: int, pairs_max: int) -> tuple[int, int] | None:
    """(peak set size, satisfier x violator pairs) of double description.

    Grows the row prefix of the system x <= A (x) one row at a time with
    the step of double description: satisfiers stay, and each satisfier v
    and violator w add (w_i) v join ((A x)_i of v) w, scaled.  The set
    after k rows is the one double description gives on the first k rows.
    None once the set passes ``dd_max`` or the pair count passes
    ``pairs_max``.
    """
    n = len(rows)
    current = {tuple(0 if j == i else None for j in range(n)) for i in range(n)}
    peak, pairs = len(current), 0
    for i, row in enumerate(rows):
        sat, vio = [], []
        for v in current:
            lo, up = v[i], row_apply(row, v)
            if leq(lo, up):
                sat.append((v, up))
            else:
                vio.append((v, lo))
        pairs += len(sat) * len(vio)
        if pairs > pairs_max:
            return None
        new = {v for v, _ in sat}
        for v, up_v in sat:
            for w, lo_w in vio:
                z = _join(_shift(v, lo_w), _shift(w, up_v))
                if any(e is not None for e in z):
                    new.add(scaled(z))
                    if len(new) > dd_max:
                        return None
        current = new
        peak = max(peak, len(current))
    return peak, pairs


def admit(rows: list[list[Entry]], guard: Guard) -> dict | None:
    """Guard values of a matrix, or None when the guard rejects it."""
    g = closed_form_count(rows, guard.g_max)
    if g is None or g < guard.g_min:
        return None
    dd = dd_prefix(rows, guard.dd_max, guard.pairs_max)
    if dd is None or dd[0] < guard.dd_min:
        return None
    return {"G": g, "dd_peak": dd[0], "dd_pairs": dd[1]}


def _random_rows(
    rng: random.Random, n: int, neg_inf_share: float, lo: int, hi: int
) -> list[list[Entry]]:
    return [
        [None if rng.random() < neg_inf_share else rng.randint(lo, hi) for _ in range(n)]
        for _ in range(n)
    ]


def _shifted(rows: list[list[Entry]], lam: Fraction) -> list[list[Entry]]:
    return [[None if e is None else _norm(e - lam) for e in row] for row in rows]


def _norm(x: Fraction | int) -> Fraction | int:
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def rand_int(seed: int) -> list[Case]:
    """``RAND_INT_PER_CELL`` admitted random integer matrices per cell of
    ``RAND_INT_CELLS``, cell by cell."""
    rng = random.Random(f"rand-int:{seed}")
    guard = RAND_INT_GUARD
    found: dict[int, list[Case]] = {k: [] for k in range(len(RAND_INT_CELLS))}
    while any(len(cases) < RAND_INT_PER_CELL for cases in found.values()):
        n = rng.choice((8, 10, 12))
        rows = _random_rows(rng, n, rng.uniform(*RAND_INT_NEG_INF_SHARE[n]), -5, 5)
        g = closed_form_count(rows, guard.g_max)
        if g is None or g < guard.g_min:
            continue
        open_cells = [
            k
            for k, ((lo, hi), _) in enumerate(RAND_INT_CELLS)
            if lo <= g < hi and len(found[k]) < RAND_INT_PER_CELL
        ]
        if not open_cells:
            continue
        # No open cell takes more dd work than this, so stop the dd run there.
        work_max = max(RAND_INT_CELLS[k][1][1] for k in open_cells)
        dd = dd_prefix(
            rows, min(guard.dd_max, math.isqrt(work_max)), min(guard.pairs_max, work_max // 25)
        )
        if dd is None:
            continue
        work = dd_work(*dd)
        for k in open_cells:
            lo, hi = RAND_INT_CELLS[k][1]
            if lo <= work < hi:
                guard_values = {"G": g, "dd_peak": dd[0], "dd_pairs": dd[1]}
                name = f"rand-int/{k:02d}{'abcd'[len(found[k])]}-n{n}"
                found[k].append(Case(name, render(rows), guard=guard_values))
                break
    return [case for k in sorted(found) for case in found[k]]


def _chain(rng: random.Random, n: int) -> list[list[Entry]]:
    """A path 1 -> 2 -> ... -> n feeding a nonnegative self-loop at n."""
    rows: list[list[Entry]] = [[None] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rng.randint(-3, 3)
    rows[n - 1][n - 1] = rng.randint(0, 2)
    return rows


def _block_triangular(rng: random.Random, sizes: tuple[int, ...]) -> list[list[Entry]]:
    """Strongly connected diagonal blocks, arcs only from earlier to later blocks."""
    n = sum(sizes)
    rows: list[list[Entry]] = [[None] * n for _ in range(n)]
    start = 0
    for size in sizes:
        nodes = list(range(start, start + size))
        for k, u in enumerate(nodes):
            rows[u][nodes[(k + 1) % size]] = rng.randint(-3, 2)
            for v in nodes:
                if rows[u][v] is None and rng.random() < 0.25:
                    rows[u][v] = rng.randint(-4, 1)
        for u in nodes:
            for v in range(start + size, n):
                if rng.random() < 0.2:
                    rows[u][v] = rng.randint(-4, 2)
        start += size
    return rows


def _fractional(rng: random.Random, n: int) -> list[list[Entry]]:
    return [
        [
            None
            if rng.random() < 0.55
            else _norm(Fraction(rng.randint(-12, 8), rng.choice((2, 3, 4, 6))))
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _complete(rng: random.Random, n: int) -> list[list[Entry]]:
    return [[rng.randint(-8, 2) for _ in range(n)] for _ in range(n)]


# (family, size argument, copies, guard of the lambda-shifted copy or None
# for none, guard).  Each slot has its own narrow guard so that a seed
# changes the weights but hardly the work; wide windows let one fractional
# n=7 matrix swing the dd route by seconds, and dd peak windows twice as
# wide as these swung the workload's dd time by 15 % between seeds.
# Shifting makes the critical cycles weigh zero, which can multiply the dd
# set (with fractional weights a shifted dd peak of 130 already costs
# 0.7 s), so the shifted copy has a guard of its own.  Complete digraphs
# stop at n=5: at n=6 the admissible ones have G of 1,200 to 1,500, and one
# such matrix alone sets the wang2020 time of the whole workload.
STRUCTURED_SLOTS = (
    ("chain", 24, 2, None, Guard(24, 24, 0, 24, 3000)),
    ("chain", 30, 1, None, Guard(30, 30, 0, 30, 5000)),
    ("block", (3, 3, 3), 3, Guard(1, 1500, 25, 55, 650), Guard(20, 60, 35, 70, 700)),
    ("block", (3, 4, 3), 2, None, Guard(20, 80, 80, 125, 1500)),
    ("block", (4, 3), 3, Guard(1, 1500, 20, 55, 400), Guard(15, 50, 25, 55, 450)),
    ("fraction", 6, 3, Guard(1, 1500, 22, 48, 300), Guard(50, 90, 22, 46, 120)),
    ("fraction", 7, 3, None, Guard(110, 140, 57, 80, 300)),
    ("complete", 4, 3, Guard(1, 1500, 0, 90, 800), Guard(20, 60, 10, 30, 500)),
    ("complete", 5, 4, Guard(1, 1500, 0, 90, 800), Guard(100, 140, 30, 100, 1000)),
)

_FAMILIES = {
    "chain": _chain,
    "block": _block_triangular,
    "fraction": _fractional,
    "complete": _complete,
}


def structured(seed: int) -> list[Case]:
    """Seeded structural families, each drawn until its slot's guard admits it.

    A slot with a shifted guard must also be admitted by it once shifted
    by its maximum cycle mean, where every critical cycle weighs zero.
    """
    rng = random.Random(f"structured:{seed}")
    cases = []
    for k, (family, size, copies, shifted_guard, guard) in enumerate(STRUCTURED_SLOTS):
        label = "x".join(map(str, size)) if isinstance(size, tuple) else str(size)
        for copy in range(copies):
            name = f"structured/{k:02d}{'abcd'[copy]}-{family}-{label}"
            while True:
                rows = _FAMILIES[family](rng, size)
                text = render(rows)
                values = admit(rows, guard)
                if values is None:
                    continue
                if shifted_guard is None:
                    cases.append(Case(name, text, guard=values))
                    break
                lam = max_cycle_mean(rows)
                if lam is None or lam == 0:
                    continue
                shifted_rows = _shifted(rows, lam)
                shifted_text = render(shifted_rows)
                shifted_values = admit(shifted_rows, shifted_guard)
                if shifted_values is None:
                    continue
                cases.append(Case(name, text, guard=values))
                cases.append(
                    Case(
                        name + "-shifted",
                        shifted_text,
                        lam=_norm(lam),
                        raw_text=text,
                        guard=shifted_values,
                    )
                )
                break
    return cases


def small_batch(seed: int) -> list[Case]:
    """``SMALL_BATCH_SIZE`` - 1 matrices with n <= 6 and G <= 60; the
    worked example, which the worker adds to every workload, makes up the
    batch.  The first ``SMALL_BATCH_NEGATIVE`` have lambda < 0 (no proper
    solution); the rest have lambda >= 0.  Sizes cycle through 2..6.
    """
    rng = random.Random(f"small-batch:{seed}")
    cases = []
    for k in range(SMALL_BATCH_SIZE - 1):
        n = 2 + k % 5
        want_negative = k < SMALL_BATCH_NEGATIVE
        while True:
            rows = _random_rows(rng, n, rng.uniform(0.3, 0.7), -5, 5 if not want_negative else 1)
            text = render(rows)
            lam = max_cycle_mean(rows)
            if (lam is None or lam < 0) != want_negative:
                continue
            guard = admit(rows, SMALL_BATCH_GUARD)
            if guard is not None:
                break
        cases.append(Case(f"small-batch/{k:03d}-n{n}", text, guard=guard))
    return cases


GENERATORS = {"rand-int": rand_int, "structured": structured, "small-batch": small_batch}
WORKLOADS = tuple(GENERATORS)


def guard_summary(workload: str) -> dict:
    """The guard values a workload admits by, for the run record."""
    if workload == "rand-int":
        return {**RAND_INT_GUARD.as_dict(), "cells": [list(c) for c in RAND_INT_CELLS]}
    if workload == "structured":
        slots = {
            f"{family}-{size}": {
                **guard.as_dict(),
                "copies": copies,
                "shifted": None if shifted is None else shifted.as_dict(),
            }
            for family, size, copies, shifted, guard in STRUCTURED_SLOTS
        }
        return {"slots": slots}
    return SMALL_BATCH_GUARD.as_dict()


def generate(workload: str, seed: int) -> list[Case]:
    return GENERATORS[workload](seed)
