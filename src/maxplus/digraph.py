"""Precedence digraphs of max-plus matrices and their cycle structure.

A square matrix A induces the digraph with an arc i -> j of weight a[i][j]
for every finite entry.  This module finds its strongly connected
components with Tarjan's algorithm (SIAM J. Comput. 1(2), 1972), enumerates
its nonnegative elementary cycles with Johnson's circuit search (SIAM J.
Comput. 4(1), 1975) and the maximal feeder paths into a cycle, and computes
the maximum cycle mean exactly with Karp's recurrence run per strongly
connected component.  All three walks keep explicit stacks, so depth is not
bounded by the interpreter's recursion limit.

Cycle and path enumeration can be exponential, so both honor a hard cap and
raise :class:`CycleLimitError` when it is exceeded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .semiring import NEG_INF, ExtReal, MpMatrix

DEFAULT_MAX_CYCLES = 1_000_000


class CycleLimitError(RuntimeError):
    """An enumeration exceeded the configured cycle/path cap."""


class Cycle(NamedTuple):
    """Elementary cycle as a rotation-anchored node tuple plus total weight.

    ``nodes`` lists each node once, in arc order; the closing arc returns to
    ``nodes[0]``.  A self-loop is a one-node tuple.  The canonical anchor is
    the smallest node.
    """

    nodes: tuple[int, ...]
    weight: ExtReal


class Digraph:
    """Immutable adjacency view of a square max-plus matrix.

    ``succ[i]`` holds a pair (j, a_ij) per arc out of i and ``pred[j]``
    the tail i of each arc into j, both in ascending node order.
    """

    __slots__ = ("n", "succ", "pred")

    def __init__(self, n: int, arcs: dict[tuple[int, int], ExtReal]):
        self.n = n
        succ: list[list[tuple[int, ExtReal]]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for (i, j), w in sorted(arcs.items()):
            succ[i].append((j, w))
            pred[j].append(i)
        self.succ = tuple(map(tuple, succ))
        self.pred = tuple(map(tuple, pred))

    @classmethod
    def from_matrix(cls, a: MpMatrix) -> "Digraph":
        arcs = {
            (i, j): w
            for i, row in enumerate(a)
            for j, w in enumerate(row)
            if w is not NEG_INF
        }
        return cls(len(a), arcs)


def nonneg_elementary_cycles(
    d: Digraph, max_cycles: int | None = DEFAULT_MAX_CYCLES
) -> list[Cycle]:
    """All elementary cycles of nonnegative weight, canonically anchored.

    Returns one Cycle per rotation class, sorted by node tuple.  Every
    enumerated elementary cycle counts toward ``max_cycles``, nonnegative
    or not; exceeding the cap raises CycleLimitError.
    """
    out = []
    seen = 0
    for nodes, w in _circuits(d):
        seen += 1
        if max_cycles is not None and seen > max_cycles:
            raise CycleLimitError(
                f"more than {max_cycles} elementary cycles; "
                "raise the cap to proceed"
            )
        if w >= 0:
            out.append(Cycle(nodes, w))
    out.sort(key=lambda c: c.nodes)
    return out


def _cyclic_components(d: Digraph, first: int = 0) -> list[list[int]]:
    """Tarjan's strongly connected components of the subgraph on the nodes
    >= ``first``, keeping only those that contain a cycle.

    ``work`` holds the depth-first path as (node, iterator over its
    untried successors) pairs.
    """
    n = d.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    count = 0
    for root in range(first, n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(d.succ[root]))]
        while work:
            v, succ = work[-1]
            for w, _ in succ:
                if w < first:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(d.succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    k = stack.index(v)
                    comp = stack[k:]
                    del stack[k:]
                    for u in comp:
                        on_stack[u] = False
                    if len(comp) > 1 or v in d.pred[v]:
                        comps.append(comp)
    return comps


def _circuits(d: Digraph) -> Iterator[tuple[tuple[int, ...], ExtReal]]:
    """Johnson's search: every elementary circuit once, from its least node,
    with its total arc weight.

    The circuits whose least node is s lie in the strongly connected
    component of s on the nodes >= s, so s jumps to the least node of a
    component with a cycle.  A node stays blocked while every path from
    it back to s meets the current path; ``waiting[u]`` holds the nodes
    to unblock when u is unblocked.  ``weights[k]`` weighs ``path[:k + 1]``,
    summed in arc order from 0, so it has the type a left fold would give.
    """
    s = 0
    while comps := _cyclic_components(d, s):
        comp = min(comps, key=min)
        s = min(comp)
        inside = set(comp)
        succ = {v: [(w, c) for w, c in d.succ[v] if w in inside] for v in comp}
        blocked = {s}
        waiting: dict[int, set[int]] = {v: set() for v in comp}
        path = [s]
        weights: list[ExtReal] = [0]
        work = [iter(succ[s])]
        closed = [False]
        while work:
            for w, c in work[-1]:
                if w == s:
                    yield tuple(path), weights[-1] + c
                    closed[-1] = True
                elif w not in blocked:
                    path.append(w)
                    weights.append(weights[-1] + c)
                    blocked.add(w)
                    work.append(iter(succ[w]))
                    closed.append(False)
                    break
            else:
                work.pop()
                weights.pop()
                v = path.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    todo = [v]
                    while todo:
                        u = todo.pop()
                        if u in blocked:
                            blocked.discard(u)
                            todo.extend(waiting[u])
                            waiting[u].clear()
                else:
                    for w, _ in succ[v]:
                        waiting[w].add(v)
        s += 1


def feeder_paths(
    d: Digraph, cycle: Cycle, max_paths: int | None = DEFAULT_MAX_CYCLES
) -> list[tuple[int, ...]]:
    """All maximal feeder paths of a cycle, as node tuples in sorted order.

    A feeder path, the tuple (l_1, ..., l_m), has m >= 2 distinct nodes,
    consecutive arcs in the digraph, only l_m inside the cycle's node set,
    and is maximal: every predecessor of l_1 already lies in the cycle or
    on the path.  Maximal paths are exactly the leaves of the
    backward-extension search, so a depth-first walk over fresh outside
    predecessors finds each exactly once.  The walk keeps an explicit
    stack, so path length is not bounded by the interpreter's recursion
    limit.
    """
    jset = set(cycle.nodes)
    out: list[tuple[int, ...]] = []

    for end in cycle.nodes:
        # path[k] is the node at depth k (path[0] = end, path[-1] = head);
        # untried[k] holds the fresh predecessors of path[k] not yet walked.
        path = [end]
        used = {end}
        untried = [[u for u in d.pred[end] if u not in jset]]
        while untried:
            if not untried[-1]:
                untried.pop()
                used.discard(path.pop())
                continue
            u = untried[-1].pop()
            path.append(u)
            used.add(u)
            fresh = [p for p in d.pred[u] if p not in jset and p not in used]
            if fresh:
                untried.append(fresh)
                continue
            if max_paths is not None and len(out) >= max_paths:
                raise CycleLimitError(
                    f"more than {max_paths} feeder paths; "
                    "raise the cap to proceed"
                )
            out.append(tuple(reversed(path)))
            used.discard(path.pop())
    out.sort()
    return out


def max_cycle_mean(d: Digraph) -> ExtReal:
    """Maximum mean weight over all cycles of the digraph.

    Karp's recurrence, run independently inside each strongly connected
    component: with F[k][v] the best weight of a k-arc walk from a fixed
    source, the component's value is
    max over v of min over k of (F[m][v] - F[k][v]) / (m - k).
    Exact rational output; NEG_INF when the digraph is acyclic.  Each
    candidate mean is held as its (weight difference, length) pair and
    compared by cross-multiplication; the one Fraction is built at the end.
    """
    best: tuple[ExtReal, int] | None = None
    for comp in _cyclic_components(d):
        nodes = sorted(comp)
        m = len(nodes)
        idx = {v: k for k, v in enumerate(nodes)}
        arcs = [
            (idx[u], idx[v], w)
            for u in nodes
            for v, w in d.succ[u]
            if v in idx
        ]
        table: list[list[ExtReal]] = [[NEG_INF] * m for _ in range(m + 1)]
        table[0][0] = 0
        for k in range(1, m + 1):
            prev, cur = table[k - 1], table[k]
            for ui, vi, w in arcs:
                f = prev[ui]
                if f is NEG_INF:
                    continue
                cand = f + w
                old = cur[vi]
                if old is NEG_INF or cand > old:
                    cur[vi] = cand
        last = table[m]
        for vi in range(m):
            top = last[vi]
            if top is NEG_INF:
                continue
            worst: tuple[ExtReal, int] | None = None
            for k in range(m):
                f = table[k][vi]
                if f is NEG_INF:
                    continue
                diff, length = top - f, m - k
                if worst is None or diff * worst[1] < worst[0] * length:
                    worst = diff, length
            # A length-m walk in an m-node component repeats a node, so a
            # strictly shorter walk to vi exists and worst is set.
            if worst is not None and (
                best is None or worst[0] * best[1] > best[0] * worst[1]
            ):
                best = worst
    return NEG_INF if best is None else Fraction(*best)
