"""Shared test data and independent brute-force oracles.

The oracles here deliberately avoid the production code paths: cycles come
from a plain recursive DFS rather than the library's enumerator, the cycle
mean is a maximum over explicit cycle weights rather than a recurrence, and
feeder-path maximality is checked by restricted reachability rather than by
the enumerator's leaf rule, and span membership joins the principal
solution over every generator rather than pruning by support.  Agreement
between the two sides is then meaningful evidence.
"""

from __future__ import annotations

import random
from fractions import Fraction

from typing import Iterable

from maxplus import (
    Digraph,
    ExtReal,
    ImproperVectorError,
    MpMatrix,
    MpVector,
    NEG_INF,
    cycle_path_generators,
    max_cycle_mean,
    parse_matrix,
    parse_vector,
    residual,
    row_satisfied,
    unit,
)

EXAMPLE_TEXT = """\
-3 1 -inf -inf -inf
1 1 1 -inf -inf
-inf 0 -inf 2 -inf
1 -inf -5 -inf -7
-2 -2 -7 1 -inf
"""

# The ten scaled extremals of the running example, canonical order.
EXAMPLE_BASIS_TEXT = [
    "-inf 0 -inf -inf -inf",
    "-inf 0 -inf -inf -2",
    "-inf 0 -inf -9 -2",
    "-inf 0 0 -inf -inf",
    "-inf 0 0 -5 -inf",
    "-3 -4 0 -2 -inf",
    "-2 -3 -inf -1 0",
    "-1 -2 -inf 0 -inf",
    "0 -1 -inf -inf -inf",
    "0 -1 -inf -inf -2",
]


def example_matrix() -> MpMatrix:
    return parse_matrix(EXAMPLE_TEXT).matrix


def example_basis_vectors() -> list[MpVector]:
    return [parse_vector(s, 5) for s in EXAMPLE_BASIS_TEXT]


def rand_matrix(
    rng: random.Random,
    n: int,
    neg_inf_p: float = 0.5,
    lo: int = -5,
    hi: int = 5,
) -> MpMatrix:
    return MpMatrix.from_rows(
        [
            [
                NEG_INF if rng.random() < neg_inf_p else rng.randint(lo, hi)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def rand_vector(
    rng: random.Random,
    n: int,
    neg_inf_p: float = 0.3,
    lo: int = -5,
    hi: int = 5,
) -> MpVector:
    return MpVector(
        NEG_INF if rng.random() < neg_inf_p else rng.randint(lo, hi)
        for _ in range(n)
    )


def brute_elementary_cycles(a: MpMatrix) -> list[tuple[int, ...]]:
    """Every elementary cycle, anchored at its smallest node.

    Plain DFS: grow paths from each start node over larger-numbered nodes
    only, closing back to the start.  Anchoring at the smallest node makes
    each rotation class appear exactly once.
    """
    n = len(a)
    found: list[tuple[int, ...]] = []

    def dfs(start: int, node: int, path: list[int], onpath: set[int]) -> None:
        for j in range(n):
            if a[node][j] is NEG_INF:
                continue
            if j == start:
                found.append(tuple(path))
            elif j > start and j not in onpath:
                onpath.add(j)
                path.append(j)
                dfs(start, j, path, onpath)
                path.pop()
                onpath.discard(j)

    for s in range(n):
        dfs(s, s, [s], {s})
    return found


def brute_cycle_weight(a: MpMatrix, nodes: tuple[int, ...]) -> ExtReal:
    total: ExtReal = 0
    for k, u in enumerate(nodes):
        total = total + a[u][nodes[(k + 1) % len(nodes)]]
    return total


def brute_max_cycle_mean(a: MpMatrix) -> ExtReal:
    best: ExtReal = NEG_INF
    for nodes in brute_elementary_cycles(a):
        mean = Fraction(brute_cycle_weight(a, nodes), len(nodes))
        if mean > best:
            best = mean
    return best


def naive_apply(a: MpMatrix, x: MpVector) -> MpVector:
    """Matrix-vector product by explicit loops, no shared helpers."""
    n = len(a)
    out = []
    for i in range(n):
        acc: ExtReal = NEG_INF
        for j in range(n):
            aij = a[i][j]
            if aij is NEG_INF or x[j] is NEG_INF:
                continue
            term = aij + x[j]
            if acc is NEG_INF or term > acc:
                acc = term
        out.append(acc)
    return MpVector(out)


def valid_feeder_path(
    a: MpMatrix, cycle_nodes: tuple[int, ...], path_nodes: tuple[int, ...]
) -> bool:
    """Definition check for maximal feeder paths, by restricted reachability.

    The path must be elementary with at least two nodes, follow arcs of the
    matrix digraph, touch the cycle's node set only at its final node, and
    be maximal: no node outside the cycle and the path can reach the path's
    first node through intermediate nodes that avoid both.
    """
    jset = set(cycle_nodes)
    m = len(path_nodes)
    if m < 2 or len(set(path_nodes)) != m:
        return False
    if path_nodes[-1] not in jset:
        return False
    if any(v in jset for v in path_nodes[:-1]):
        return False
    for u, v in zip(path_nodes, path_nodes[1:]):
        if a[u][v] is NEG_INF:
            return False
    blocked = jset | set(path_nodes)
    head = path_nodes[0]
    n = len(a)
    for start in range(n):
        if start in blocked:
            continue
        # search from start over nodes outside blocked, arcs of the digraph
        seen = {start}
        frontier = [start]
        reachable = False
        while frontier and not reachable:
            u = frontier.pop()
            for v in range(n):
                if a[u][v] is NEG_INF:
                    continue
                if v == head:
                    reachable = True
                    break
                if v not in blocked and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if reachable:
            return False
    return True


def brute_feeder_paths(
    a: MpMatrix, cycle_nodes: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """All maximal feeder paths by exhaustive enumeration plus the checker."""
    jset = set(cycle_nodes)
    n = len(a)
    candidates: set[tuple[int, ...]] = set()

    def grow(seq: list[int]) -> None:
        head = seq[0]
        for u in range(n):
            if u in jset or u in seq:
                continue
            if a[u][head] is NEG_INF:
                continue
            candidates.add((u, *seq))
            grow([u, *seq])

    for end in cycle_nodes:
        grow([end])
    return {p for p in candidates if valid_feeder_path(a, cycle_nodes, p)}


def brute_in_span(v: MpVector, gens: Iterable[MpVector]) -> bool:
    """Whether v is a max-plus combination of the given generators.

    Uses the principal solution: v lies in the span iff the join of
    residual(v, w) + w over all generators w reproduces v exactly.
    """
    acc: list[ExtReal] = [NEG_INF] * len(v)
    for w in gens:
        c = residual(v, w)
        if c is NEG_INF:
            continue
        for i, wi in enumerate(w):
            e = c + wi
            if acc[i] < e:
                acc[i] = e
    return all(a == b for a, b in zip(acc, v))


def combine_row(a: MpMatrix, i: int, x: MpVector, y: MpVector) -> MpVector:
    """Mix y into x without leaving row i's solution set.

    Returns  (y_i) (x)  join  (A_i (x)) (y).  When x satisfies row i, the
    result does too, whatever y is; the c6 lemma test checks this.
    """
    return brute_join(x.scale(y[i]), y.scale(a.row_apply(i, x)))


def mk(rows) -> MpMatrix:
    """Shorthand matrix builder for literal test data."""
    return MpMatrix.from_rows(rows)


def on_support(a: MpMatrix, v: MpVector) -> MpMatrix:
    """A with every arc whose tail or head is -inf in v removed."""
    s = {i for i, e in enumerate(v) if e is not NEG_INF}
    return mk(
        [[e if {i, j} <= s else NEG_INF for j, e in enumerate(row)] for i, row in enumerate(a)]
    )


# Structured families.  Each builder returns an MpMatrix; the random ones
# draw every weight from the given generator, so a seed fixes the matrix.


def chain_into_loop(n: int, rng: random.Random | None = None) -> MpMatrix:
    """A path 1 -> 2 -> ... -> n feeding a self-loop of weight 0 at n.

    Arc weights come from ``rng`` when given, else from a fixed pattern.
    Its basis has n vectors, but double description counts about n^3/6
    satisfier/violator pairs on it, of which it forms n(n-1)/2.
    """
    rows: list[list[ExtReal]] = [[NEG_INF] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rng.randint(-3, 3) if rng else i % 7 - 3
    rows[n - 1][n - 1] = 0
    return MpMatrix.from_rows(rows)


def block_triangular(rng: random.Random, sizes: tuple[int, ...]) -> MpMatrix:
    """Strongly connected diagonal blocks, arcs only from earlier to later blocks."""
    n = sum(sizes)
    rows: list[list[ExtReal]] = [[NEG_INF] * n for _ in range(n)]
    start = 0
    for size in sizes:
        nodes = range(start, start + size)
        for k, u in enumerate(nodes):
            rows[u][nodes[(k + 1) % size]] = rng.randint(-3, 2)
            for v in nodes:
                if rows[u][v] is NEG_INF and rng.random() < 0.25:
                    rows[u][v] = rng.randint(-4, 1)
            for v in range(start + size, n):
                if rng.random() < 0.2:
                    rows[u][v] = rng.randint(-4, 2)
        start += size
    return MpMatrix.from_rows(rows)


def _exact(x: Fraction) -> ExtReal:
    return int(x) if x.denominator == 1 else x


def fractional_matrix(
    rng: random.Random, n: int, neg_inf_p: float = 0.55
) -> MpMatrix:
    """Random weights p/q with q in {2, 3, 4, 6}, integral ones stored as int."""
    return MpMatrix.from_rows(
        [
            [
                NEG_INF
                if rng.random() < neg_inf_p
                else _exact(Fraction(rng.randint(-12, 8), rng.choice((2, 3, 4, 6))))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def complete_matrix(rng: random.Random, n: int) -> MpMatrix:
    """Every arc present, weights mostly negative so few cycles are nonnegative."""
    return MpMatrix.from_rows(
        [[rng.randint(-8, 2) for _ in range(n)] for _ in range(n)]
    )


def zero_critical_cycle(a: MpMatrix) -> MpMatrix:
    """``a`` shifted by minus its maximum cycle mean: critical cycles weigh 0.

    ``a`` must have a cycle.  The shift is exact, so integral results stay
    ``int`` and the rest become ``Fraction``.
    """
    lam = brute_max_cycle_mean(a)
    return MpMatrix.from_rows(
        [[e if e is NEG_INF else _exact(Fraction(e - lam)) for e in row] for row in a]
    )


def ring_with_chords(rng: random.Random, n: int) -> MpMatrix:
    """A Hamiltonian cycle with random weights and one random arc per node."""
    rows: list[list[ExtReal]] = [[NEG_INF] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = rng.randint(-3, 3)
        rows[i][rng.randrange(n)] = rng.randint(-6, 0)
    return MpMatrix.from_rows(rows)


def wider_cases() -> list[MpMatrix]:
    """Structured families, then random n in {8, 10} with 20 to 400
    closed-form generators."""

    def cycle_mean(a: MpMatrix) -> ExtReal:
        return max_cycle_mean(Digraph.from_matrix(a))

    rng = random.Random(42009)
    cases = [chain_into_loop(n) for n in (2, 5, 12, 20)]
    cases += [chain_into_loop(n, rng) for n in (7, 15)]
    cases += [
        block_triangular(rng, sizes)
        for sizes in ((2, 2), (3, 3, 3), (2, 3, 2), (4, 3), (2, 2, 2, 2))
    ]
    cases += [fractional_matrix(rng, n) for n in (4, 5, 6, 6)]
    cases += [complete_matrix(rng, n) for n in (1, 2, 3, 4, 5)]
    cases += [
        zero_critical_cycle(a)
        for a in (
            complete_matrix(rng, 4),
            block_triangular(rng, (3, 3)),
            fractional_matrix(rng, 5, neg_inf_p=0.3),
            ring_with_chords(rng, 6),
        )
    ]
    # A member with no proper solution gives three empty bases; shifted so
    # that its critical cycles weigh zero, it has a basis to compare.
    cases = [
        zero_critical_cycle(a) if NEG_INF < cycle_mean(a) < 0 else a
        for a in cases
    ]
    found = 0
    while found < 16:
        a = rand_matrix(rng, (8, 10)[found % 2], neg_inf_p=0.75)
        if cycle_mean(a) < 0 or not 20 <= len(cycle_path_generators(a)) <= 400:
            continue
        cases.append(a)
        found += 1
    return cases


NI = NEG_INF


# The max-plus vector operations as first written: each entry goes through
# Python's max and + and -inf's reflected operators.  The kernel's
# -inf-aware versions must give equal values of the same types.


def brute_join(v: MpVector, w: MpVector) -> MpVector:
    return MpVector(map(max, v, w))


def brute_scale(v: MpVector, c: ExtReal) -> MpVector:
    return MpVector(c + e for e in v)


def brute_normalized(v: MpVector) -> tuple[ExtReal, MpVector]:
    m = max(v)
    if m is NEG_INF:
        raise ImproperVectorError("cannot normalize the all -inf vector")
    if m == 0:
        return 0, v
    return m, MpVector(e - m for e in v)


def brute_mp_dot(row: Iterable[ExtReal], x: Iterable[ExtReal]) -> ExtReal:
    return max(a + b for a, b in zip(row, x))


def brute_apply(a: MpMatrix, x: MpVector) -> MpVector:
    return MpVector(max(p + q for p, q in zip(row, x)) for row in a)


def _brute_dd(rows) -> tuple[tuple[MpVector, ...], int, int]:
    """Double description as first written, on (lower, upper) row pairs.

    Returns the final generators, the satisfier/violator pairs formed over
    all rows, and how many of those pairs have a satisfier whose upper
    side is finite.
    """
    d = len(rows[0][0])
    current = sorted(
        MpVector(0 if j == i else NEG_INF for j in range(d)) for i in range(d)
    )
    pairs = finite_upper = 0
    for lower, upper in rows:
        scored = [(v, brute_mp_dot(lower, v), brute_mp_dot(upper, v)) for v in current]
        sat = [(v, lo, up) for (v, lo, up) in scored if lo <= up]
        vio = [(w, lo) for (w, lo, up) in scored if lo > up]
        pairs += len(sat) * len(vio)
        finite_upper += sum(up is not NEG_INF for (_, _, up) in sat) * len(vio)
        new = [v for (v, _, _) in sat]
        for v, _, up_v in sat:
            for w, lo_w in vio:
                z = brute_join(brute_scale(v, lo_w), brute_scale(w, up_v))
                if any(e is not NEG_INF for e in z):
                    new.append(z)
        current = sorted({brute_normalized(z)[1] for z in new})
    return tuple(current), pairs, finite_upper


def brute_double_description(rows) -> tuple[tuple[MpVector, ...], int]:
    """Double description as first written, on (lower, upper) row pairs.

    Returns the final generators and the satisfier/violator pairs formed
    over all rows.
    """
    current, pairs, _ = _brute_dd(rows)
    return current, pairs


def brute_finite_upper_pairs(rows) -> int:
    """The pairs of :func:`brute_double_description` whose satisfier has a
    finite upper side: the only pairs whose boundary point can be new.
    """
    return _brute_dd(rows)[2]


def recording(oracle, steps: list):
    """Wrap an oracle so every (vector, verdict) it gives lands in steps."""

    def record(v: MpVector) -> bool:
        ok = oracle(v)
        steps.append((v, ok))
        return ok

    return record


# The search's two growth loops as first written: a join/scale chain per
# step, then a separate scaling pass.  The double description step the
# search now uses must give the same vectors.


def brute_cycle_terminals(a: MpMatrix, cycle, oracle) -> dict:
    """start node -> (steps, unscaled grown vector, scaled form, verdict)."""
    n = len(a)
    runs = {}
    for r in range(len(cycle.nodes)):
        nodes = cycle.nodes[r:] + cycle.nodes[:r]
        t = len(nodes)
        v = unit(n, nodes[0])
        steps = 0
        while steps <= t - 2 and not row_satisfied(a, nodes[steps], v):
            w = a[nodes[steps]][nodes[steps + 1]]
            v = brute_join(unit(n, nodes[steps + 1]), v.scale(w))
            steps += 1
        scaled = v.scaled()
        runs[nodes[0]] = (steps, v, scaled, oracle(scaled))
    return runs


def brute_path_extremals(a: MpMatrix, nodes, terminal: MpVector, oracle) -> tuple:
    """(emitted vectors, every (vector, verdict) step) along one feeder path,
    given by its node tuple."""
    n = len(a)
    v = terminal
    out, trace = [], []
    for q in range(len(nodes) - 2, -1, -1):
        node = nodes[q]
        if a[node][node] >= 0:
            break
        v = brute_join(v, unit(n, node).scale(a.row_apply(node, v)))
        scaled = v.scaled()
        ok = oracle(scaled)
        trace.append((scaled, ok))
        if not ok:
            break
        out.append(scaled)
    return out, trace


def brute_path_generators(a: MpMatrix, structure) -> list[MpVector]:
    """The closed-form family as first written, in the library's order.

    Every entry is set by joining a scaled unit vector: a cycle generator
    walks its rotation, each feeder path step raises one path node.
    """
    n = len(a)
    out: list[MpVector] = []
    for cycle, paths in structure:
        nodes = cycle.nodes
        t = len(nodes)
        gens = []
        for j in range(t):
            x = unit(n, nodes[0])
            val: ExtReal = 0
            for s in range(t - 1):
                credit = cycle.weight if s == j else 0
                val = val + credit - a[nodes[s]][nodes[s + 1]]
                x = brute_join(x, brute_scale(unit(n, nodes[s + 1]), val))
            gens.append(x)
        out.extend(gens)
        for p_nodes in paths:
            x = gens[(nodes.index(p_nodes[-1]) - 1) % t]
            c = x[p_nodes[-1]]
            for p in range(len(p_nodes) - 2, -1, -1):
                c = c + a[p_nodes[p]][p_nodes[p + 1]]
                x = brute_join(x, brute_scale(unit(n, p_nodes[p]), c))
                out.append(x)
    return out
