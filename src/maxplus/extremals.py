"""Direct search for the scaled extremals of {x : A (x) >= x}.

The solution set (with the bottom vector adjoined) is a finitely generated
subsemimodule whose unique scaled basis consists of its scaled extremal
vectors.  The search walks the matrix digraph:

* :func:`cycle_terminals` grows one candidate per rotation of a
  nonnegative elementary cycle, stopping as soon as the grown vector
  satisfies its current row.

* :func:`path_extremals` extends an extremal cycle candidate backward
  along a maximal feeder path, emitting a candidate per step and pruning
  the whole path at the first non-extremal step.

* :func:`extremal_basis` runs both over every nonnegative cycle and every
  maximal feeder path and returns the deduplicated canonical basis.

The first two grow a candidate by the double description step,
:func:`maxplus.semiring.boundary_point`, the one ``dd`` uses: each step
lands the vector on the boundary of one row, already scaled.

Extremality of each candidate is decided by an oracle predicate on scaled
vectors; the default, :class:`TangentOracle`, decides it locally from A
and the vector alone, so the search never builds the closed-form
generating set.  Passing a predicate that always answers True turns the
search into a plain generator enumeration, useful for comparing against
the reference constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .digraph import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    Digraph,
    FeederPath,
    max_cycle_mean,
    rotations,
)
# Unused here; kept so perfbench/tracer.py can patch them in this module.
from .digraph import feeder_paths, nonneg_elementary_cycles  # noqa: F401
from .reference import cycle_structure
from .semiring import (
    NEG_INF, ExtReal, MpMatrix, MpVector, ScaledBasis, boundary_point, unit
)

Oracle = Callable[[MpVector], bool]


def always_extremal(v: MpVector) -> bool:
    """Oracle that accepts everything; turns the search into enumeration."""
    return True


def row_satisfied(a: MpMatrix, i: int, x: MpVector) -> bool:
    """Whether x satisfies row i of A (x) >= x."""
    return a.row_apply(i, x) >= x[i]


def in_supereig(a: MpMatrix, x: MpVector) -> bool:
    """Whether x is a proper solution of A (x) >= x."""
    return x.is_proper and all(
        a.row_apply(i, x) >= x[i] for i in range(len(a))
    )


class TangentOracle:
    """Local extremality test for the scaled solutions of A (x) >= x.

    The minimality criterion of Butkovic, Schneider & Sergeev (LAA 421,
    2007) as the tangent hypergraph of Allamigeon, Gaubert & Goubault (DCG
    49, 2013): each tight row k in supp(x), with T_k the columns attaining
    max_j a_kj + x_j = x_k, gives the hyperedge T_k -> k unless k is in
    T_k.  Lowering the coordinates in X by a small amount keeps x a
    solution exactly when X is closed (T_k inside X forces k into X), so x
    is extremal exactly when some node lies in the closure of every {j},
    j in supp(x).  Closures grow from a worklist with one counter per edge
    for its tails still missing.  An edge {u} -> k puts the closure of k
    inside that of u, so closures start only where a forward walk over such
    edges stops, and cover every node that reaches the start along them.
    The covered set thus holds the tail u of every such edge whose head it
    holds, so a walk from an uncovered node never meets a covered one.
    Callers guarantee v solves A (x) >= x and is scaled; verdicts are
    memoized.
    """

    __slots__ = ("_rows", "_cache")

    def __init__(self, a: MpMatrix):
        self._rows = [
            [(j, w) for j, w in enumerate(row) if w is not NEG_INF] for row in a
        ]
        self._cache: dict[MpVector, bool] = {}

    def __call__(self, v: MpVector) -> bool:
        hit = self._cache.get(v)
        if hit is None:
            hit = self._cache[v] = self._extremal(v)
        return hit

    def _extremal(self, x: MpVector) -> bool:
        supp = [k for k, e in enumerate(x) if e is not NEG_INF]
        single: dict[int, list[int]] = {}  # u -> k of each edge {u} -> k
        back: dict[int, list[int]] = {}  # k -> u of each edge {u} -> k
        multi: dict[int, list[int]] = {}  # u -> the edges with u in their tail
        heads: list[int] = []
        sizes: list[int] = []
        for k in supp:
            best, tails = NEG_INF, []
            for j, w in self._rows[k]:
                if x[j] is NEG_INF:
                    continue
                s = w + x[j]
                if best is NEG_INF or s > best:
                    best, tails = s, [j]
                elif s == best:
                    tails.append(j)
            if best != x[k] or k in tails:
                continue
            if len(tails) == 1:
                single.setdefault(tails[0], []).append(k)
                back.setdefault(k, []).append(tails[0])
            else:
                for u in tails:
                    multi.setdefault(u, []).append(len(heads))
                heads.append(k)
                sizes.append(len(tails))
        common: set[int] | None = None
        covered: set[int] = set()
        for j in supp:
            if j in covered:
                continue
            walk, r = {j}, j
            while True:
                nxt = next((k for k in single.get(r, ()) if k not in walk), None)
                if nxt is None:
                    break
                walk.add(nxt)
                r = nxt
            need = sizes.copy()
            closure, todo = {r}, [r]
            while todo:
                u = todo.pop()
                for k in single.get(u, ()):
                    if k not in closure:
                        closure.add(k)
                        todo.append(k)
                for e in multi.get(u, ()):
                    need[e] -= 1
                    if not need[e] and heads[e] not in closure:
                        closure.add(heads[e])
                        todo.append(heads[e])
            common = closure if common is None else common & closure
            if not common:
                return False
            covered.add(r)
            todo = [r]
            while todo:
                for u in back.get(todo.pop(), ()):
                    if u not in covered:
                        covered.add(u)
                        todo.append(u)
        return True


@dataclass(frozen=True)
class RotationRun:
    """Outcome of growing one rotation of a cycle.

    ``steps`` counts grow steps actually taken (0 to t-1); the run stops
    early as soon as the current vector satisfies its current row.
    ``scaled`` is the grown vector, scaled, and ``extremal`` the oracle's
    verdict on it.
    """

    steps: int
    scaled: MpVector
    extremal: bool


def cycle_terminals(
    a: MpMatrix, cycle: Cycle, oracle: Oracle
) -> dict[int, RotationRun]:
    """Grow a solution along every rotation of a nonnegative cycle.

    For rotation (j_1, ..., j_t) the candidate starts as the unit vector
    at j_1 and, while the current row j_p is still violated, absorbs the
    next unit vector at the arc's cost:

        v <- e(j_{p+1})  join  (a[j_p][j_{p+1}]) (v)

    which is the boundary point of row j_p with e(j_{p+1}) the satisfier
    and v the violator.  The loop always ends in a solution: either a row
    check succeeded early, or all t-1 steps ran and the cycle's
    nonnegative weight closes the final row.  Returns the run of each
    rotation by its start node, in rotation order.
    """
    if cycle.weight < 0:
        raise ValueError("cycle must have nonnegative weight")
    n = len(a)
    runs: dict[int, RotationRun] = {}
    for rot in rotations(cycle):
        nodes = rot.nodes
        t = len(nodes)
        v = unit(n, nodes[0])
        steps = 0
        while steps <= t - 2 and not row_satisfied(a, nodes[steps], v):
            node, nxt = nodes[steps], nodes[steps + 1]
            w = a[node][nxt]
            if w is NEG_INF:
                raise ValueError(
                    f"cycle arc {node} -> {nxt} is not an arc of the matrix"
                )
            v = boundary_point(unit(n, nxt), v[node], v, w)
            steps += 1
        runs[nodes[0]] = RotationRun(steps, v, oracle(v))
    return runs


def path_extremals(
    a: MpMatrix, path: FeederPath, terminal: MpVector, oracle: Oracle
) -> list[MpVector]:
    """Extend an extremal cycle candidate backward along a feeder path.

    Walking the path (l_1, ..., l_m) from the cycle end inward, each step
    absorbs the unit vector at the next node:

        v <- v  join  (A_l (v)) (e(l))

    which is the boundary point of row l with v the satisfier and e(l) the
    violator.  Stops without emitting when the node's own unit vector is
    already a solution of its row (a self-loop of nonnegative weight), and
    stops after the first non-extremal step; later steps of this path
    cannot be extremal either.  Emits scaled vectors in step order.

    ``terminal`` is the grown vector of the rotation anchored at the
    path's endnode; any scalar multiple gives the same emissions.
    """
    nodes = path.nodes
    if len(nodes) < 2:
        raise ValueError("feeder path needs at least two nodes")
    n = len(a)
    v = terminal
    out: list[MpVector] = []
    for q in range(len(nodes) - 2, -1, -1):
        node = nodes[q]
        if a[node][node] >= 0:
            break
        v = boundary_point(v, 0, unit(n, node), a.row_apply(node, v))
        if not oracle(v):
            break
        out.append(v)
    return out


@dataclass(frozen=True)
class SearchStats:
    """Work counters for one basis search.

    ``candidates`` counts oracle-accepted emissions with multiplicity;
    ``duplicates`` is how many of those repeated an earlier emission.
    Both are independent of traversal order.
    """

    cycles: int
    paths: int
    candidates: int
    duplicates: int


@dataclass(frozen=True)
class BasisResult:
    """Scaled basis of {x : A (x) >= x} plus search diagnostics."""

    basis: ScaledBasis
    cycle_mean: ExtReal
    solvable: bool
    stats: SearchStats


def extremal_basis(
    a: MpMatrix,
    *,
    oracle: Oracle | None = None,
    max_cycles: int | None = DEFAULT_MAX_CYCLES,
) -> BasisResult:
    """Scaled basis of the solutions of A (x) >= x.

    Proper solutions exist exactly when the maximum cycle mean is
    nonnegative; otherwise the basis is empty.  With the default oracle
    the result is the set of scaled extremals, the unique scaled basis.
    With ``oracle=always_extremal`` the search keeps every grown vector
    and returns the full enumeration instead (a generating set, usually
    redundant).

    The cycles and feeder paths are enumerated once, by
    :func:`maxplus.reference.cycle_structure` on the digraph Karp reads.
    The default oracle is a :class:`TangentOracle`, which reads only A and
    the candidate.  Cycles are searched one after another, in cycle order.
    """
    d = Digraph.from_matrix(a)
    lam = max_cycle_mean(d)
    solvable = lam >= 0
    if not solvable:
        return BasisResult(ScaledBasis(()), lam, False, SearchStats(0, 0, 0, 0))
    structure = cycle_structure(d, max_cycles)
    if oracle is None:
        oracle = TangentOracle(a)
    pool: list[MpVector] = []
    for cycle, paths in zip(structure.cycles, structure.paths):
        runs = cycle_terminals(a, cycle, oracle)
        pool.extend(r.scaled for r in runs.values() if r.extremal)
        for path in paths:
            run = runs[path.end]
            if run.extremal:
                pool.extend(path_extremals(a, path, run.scaled, oracle))
    basis = ScaledBasis(pool)
    stats = SearchStats(
        cycles=len(structure.cycles),
        paths=sum(map(len, structure.paths)),
        candidates=len(pool),
        duplicates=len(pool) - len(basis),
    )
    return BasisResult(basis, lam, True, stats)


def generator_enumeration(
    a: MpMatrix,
    *,
    max_cycles: int | None = DEFAULT_MAX_CYCLES,
) -> BasisResult:
    """The search with every candidate kept: a scaled generating set."""
    return extremal_basis(a, oracle=always_extremal, max_cycles=max_cycles)


def is_extremal(a: MpMatrix, x: MpVector) -> bool:
    """Whether x is a scaled-extremal direction of the solution set.

    True exactly when x is a proper solution that is not a max-plus
    combination of solutions other than its own multiples, decided locally
    by :class:`TangentOracle`.  Builds a fresh oracle per call; use one
    oracle directly when testing many vectors against one matrix.
    """
    if not in_supereig(a, x):
        return False
    return TangentOracle(a)(x.scaled())
