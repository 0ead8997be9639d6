"""Precedence digraphs of max-plus matrices and their cycle structure.

A square matrix A induces the digraph with an arc i -> j of weight a[i][j]
for every finite entry.  This module enumerates the nonnegative elementary
cycles of that digraph, the maximal feeder paths into a cycle, and computes
the maximum cycle mean exactly with Karp's recurrence run per strongly
connected component.

Cycle and path enumeration can be exponential, so both honor a hard cap and
raise :class:`CycleLimitError` when it is exceeded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import networkx as nx

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

    @property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)


class FeederPath(NamedTuple):
    """Elementary path whose only contact with a cycle is its final node.

    Feeder paths are backward-maximal: the first node has no predecessor
    outside the cycle's node set and the path itself, so no further
    extension at the head is possible.
    """

    nodes: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.nodes[-1]


class Digraph:
    """Immutable adjacency view of a square max-plus matrix."""

    __slots__ = ("n", "succ", "pred", "_weights")

    def __init__(self, n: int, arcs: dict[tuple[int, int], ExtReal]):
        self.n = n
        self._weights = dict(arcs)
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for (i, j) in arcs:
            succ[i].append(j)
            pred[j].append(i)
        self.succ = tuple(tuple(sorted(s)) for s in succ)
        self.pred = tuple(tuple(sorted(p)) for p in pred)

    @classmethod
    def from_matrix(cls, a: MpMatrix) -> "Digraph":
        arcs = {
            (i, j): w
            for i, row in enumerate(a)
            for j, w in enumerate(row)
            if w is not NEG_INF
        }
        return cls(len(a), arcs)

    def weight(self, i: int, j: int) -> ExtReal:
        return self._weights.get((i, j), NEG_INF)

    def has_arc(self, i: int, j: int) -> bool:
        return (i, j) in self._weights


def _nx_graph(d: Digraph) -> "nx.DiGraph":
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from((i, j) for (i, j) in d._weights)
    return g


def cycle_weight(d: Digraph, nodes: tuple[int, ...]) -> ExtReal:
    """Total arc weight around an elementary cycle given by its node tuple."""
    total: ExtReal = 0
    for k, u in enumerate(nodes):
        v = nodes[(k + 1) % len(nodes)]
        w = d.weight(u, v)
        if w is NEG_INF:
            raise ValueError(f"missing arc {u} -> {v}")
        total = total + w
    return total


def _canonical(nodes: tuple[int, ...]) -> tuple[int, ...]:
    # Anchor the rotation at the smallest node; elementary, so it is unique.
    r = nodes.index(min(nodes))
    return nodes[r:] + nodes[:r]


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
    for raw in nx.simple_cycles(_nx_graph(d)):
        seen += 1
        if max_cycles is not None and seen > max_cycles:
            raise CycleLimitError(
                f"more than {max_cycles} elementary cycles; "
                "raise the cap to proceed"
            )
        nodes = _canonical(tuple(raw))
        w = cycle_weight(d, nodes)
        if w >= 0:
            out.append(Cycle(nodes, w))
    out.sort(key=lambda c: c.nodes)
    return out


def rotations(cycle: Cycle) -> list[Cycle]:
    """The t rotations of a length-t cycle, each anchored at a different node."""
    nodes = cycle.nodes
    return [
        Cycle(nodes[r:] + nodes[:r], cycle.weight) for r in range(len(nodes))
    ]


def feeder_paths(
    d: Digraph, cycle: Cycle, max_paths: int | None = DEFAULT_MAX_CYCLES
) -> list[FeederPath]:
    """All maximal feeder paths of a cycle, sorted by node tuple.

    A feeder path (l_1, ..., l_m) has m >= 2 distinct nodes, consecutive
    arcs in the digraph, only l_m inside the cycle's node set, and is
    maximal: every predecessor of l_1 already lies in the cycle or on the
    path.  Maximal paths are exactly the leaves of the backward-extension
    search, so a depth-first walk over fresh outside predecessors finds
    each exactly once.  The walk keeps an explicit stack, so path length
    is not bounded by the interpreter's recursion limit.
    """
    jset = cycle.node_set
    out: list[FeederPath] = []

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
            out.append(FeederPath(tuple(reversed(path))))
            used.discard(path.pop())
    out.sort(key=lambda p: p.nodes)
    return out


def max_cycle_mean(a: MpMatrix) -> ExtReal:
    """Maximum mean weight over all cycles of the matrix digraph.

    Karp's recurrence, run independently inside each strongly connected
    component: with F[k][v] the best weight of a k-arc walk from a fixed
    source, the component's value is
    max over v of min over k of (F[m][v] - F[k][v]) / (m - k).
    Exact rational output; NEG_INF when the digraph is acyclic.
    """
    d = Digraph.from_matrix(a)
    best: ExtReal = NEG_INF
    for comp in nx.strongly_connected_components(_nx_graph(d)):
        if len(comp) == 1:
            (v,) = comp
            if not d.has_arc(v, v):
                continue
        nodes = sorted(comp)
        m = len(nodes)
        idx = {v: k for k, v in enumerate(nodes)}
        arcs = [
            (idx[u], idx[v], d.weight(u, v))
            for u in nodes
            for v in d.succ[u]
            if v in comp
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
            worst: ExtReal | None = None
            for k in range(m):
                f = table[k][vi]
                if f is NEG_INF:
                    continue
                mean = Fraction(top - f, m - k)
                if worst is None or mean < worst:
                    worst = mean
            # A length-m walk in an m-node component repeats a node, so a
            # strictly shorter walk to vi exists and worst is set.
            if worst is not None and (best is NEG_INF or worst > best):
                best = worst
    return best
