"""Direct search for the scaled extremals of {x : A (x) >= x}.

The solution set (with the bottom vector adjoined) is a finitely generated
subsemimodule whose unique scaled basis consists of its scaled extremal
vectors.  The search walks the matrix digraph:

* :func:`cycle_terminals` grows one candidate per rotation of a
  nonnegative elementary cycle, stopping as soon as the grown vector
  satisfies its current row, and returns the scaled terminals the oracle
  accepts, as plain vectors by start node.

* :func:`path_extremals` extends those terminals backward over the
  cycle's feeder paths, one depth-first tree walk from each start node:
  one candidate per step, and no step below a non-extremal one.

* :func:`extremal_basis` calls each once per nonnegative cycle and
  returns the deduplicated canonical basis.

The first two grow a candidate by the double description step,
:func:`maxplus.semiring.boundary_point`, the one ``dd`` uses: each step
lands the vector on the boundary of one row, already scaled.  One search
forms each step once: its calls share a memo keyed by the identity of the
vector a step starts from, and rotations start from the shared unit
vectors, so a step reached again by another rotation or cycle is looked
up.  Each memo value holds its start vector, so no key's id is
reused while the search runs.

Extremality of each candidate is decided by an oracle predicate on scaled
vectors; the default, :class:`TangentOracle`, decides it locally from A
and the vector alone, so the search never builds the closed-form
generating set.  Passing a predicate that always answers True turns the
search into a plain generator enumeration, useful for comparing against
the reference constructions.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .digraph import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    CycleLimitError,
    Digraph,
    max_cycle_mean,
    nonneg_elementary_cycles,
)
# Unused here since the search walks feeder paths as a tree; kept so
# perfbench/tracer.py can patch it in this module.
from .digraph import feeder_paths  # noqa: F401
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


def cycle_terminals(
    a: MpMatrix, cycle: Cycle, oracle: Oracle, *, steps: dict | None = None
) -> dict[int, MpVector]:
    """Grow a solution along every rotation of a nonnegative cycle.

    For rotation (j_1, ..., j_t) the candidate starts as the unit vector
    at j_1 and, while the current row j_p is still violated, absorbs the
    next unit vector at the arc's cost:

        v <- e(j_{p+1})  join  (a[j_p][j_{p+1}]) (v)

    which is the boundary point of row j_p with e(j_{p+1}) the satisfier
    and v the violator.  The loop always ends in a solution: either a row
    check succeeded early, or all t-1 steps ran and the cycle's
    nonnegative weight closes the final row.  Each step adds one node to
    the support, so a terminal with s finite entries took s-1 steps.  The
    oracle is asked about every terminal, in rotation order; the scaled
    terminals it accepts are returned by start node, in that order.

    ``steps`` is the step memo of one search (see :func:`extremal_basis`),
    keyed ``(id(v), j_p, j_{p+1})`` with value ``(v, grown)``, ``grown``
    None when row j_p already holds at v; None means a fresh memo for
    this call.  Every rotation starts from the shared unit vector, so
    rotations that share a prefix form its steps once.
    """
    if cycle.weight < 0:
        raise ValueError("cycle must have nonnegative weight")
    if steps is None:
        steps = {}
    n = len(a)
    out: dict[int, MpVector] = {}
    for r in range(len(cycle.nodes)):
        nodes = cycle.nodes[r:] + cycle.nodes[:r]
        v = unit(n, nodes[0])
        for node, nxt in zip(nodes, nodes[1:]):
            key = (id(v), node, nxt)
            hit = steps.get(key)
            if hit is None:
                grown = None
                if not row_satisfied(a, node, v):
                    w = a[node][nxt]
                    if w is NEG_INF:
                        raise ValueError(
                            f"cycle arc {node} -> {nxt} is not an arc of "
                            "the matrix"
                        )
                    grown = boundary_point(unit(n, nxt), v[node], v, w)
                hit = steps[key] = (v, grown)
            if hit[1] is None:
                break
            v = hit[1]
        if oracle(v):
            out[nodes[0]] = v
    return out


def path_extremals(
    a: MpMatrix,
    d: Digraph,
    cycle: Cycle,
    terminals: dict[int, MpVector],
    oracle: Oracle,
    *,
    steps: dict | None = None,
    max_steps: int | None = None,
) -> tuple[list[MpVector], int]:
    """Extend a cycle's extremal candidates backward over its feeder paths.

    ``terminals`` maps nodes of ``cycle`` to the grown vectors of the
    rotations anchored there, as :func:`cycle_terminals` returns them; any
    scalar multiple gives the same emissions.  From each start, in the
    dict's order, a depth-first walk over fresh predecessors outside the
    cycle (``d.pred``): each tree node is a path (l_q, ..., l_m = start),
    a suffix of some maximal feeder path of
    :func:`maxplus.digraph.feeder_paths`, entered once.  The step into l
    absorbs the unit vector at l:

        v <- v  join  (A_l (v)) (e(l))

    which is the boundary point of row l with v the satisfier and e(l) the
    violator.  A node whose own unit vector already solves its row (a
    self-loop of nonnegative weight) is not entered, and a step the oracle
    rejects is not extended: no longer path through either can give an
    extremal.  Returns the scaled vectors of the accepted steps, in walk
    order, and the number of steps walked; the step that would pass
    ``max_steps`` raises CycleLimitError.

    ``steps`` is the step memo of one search (see :func:`extremal_basis`),
    keyed ``(id(v), l)`` with value ``(v, grown)``; None means a fresh
    memo for this call.  Walks from the same terminal, in other cycles,
    form their shared steps once; the oracle still sees every step.
    """
    if steps is None:
        steps = {}
    n = len(a)
    out: list[MpVector] = []
    taken = 0
    for end, terminal in terminals.items():
        if end not in cycle.nodes:
            raise ValueError(f"walk start {end} is not a node of the cycle")
        # The cycle's nodes and those on the current path are never
        # entered.  Each frame is (node, its grown vector, its fresh
        # predecessors not yet tried).
        used = set(cycle.nodes)
        stack = [(end, terminal, [u for u in d.pred[end] if u not in used])]
        while stack:
            node, v, untried = stack[-1]
            if not untried:
                stack.pop()
                used.discard(node)
                continue
            u = untried.pop()
            loop = a[u][u]
            if loop is not NEG_INF and loop >= 0:
                continue
            if max_steps is not None and taken >= max_steps:
                raise CycleLimitError(
                    f"more than {max_steps} feeder path steps from one "
                    "cycle; raise the cap to proceed"
                )
            taken += 1
            key = (id(v), u)
            hit = steps.get(key)
            if hit is None:
                grown = boundary_point(v, 0, unit(n, u), a.row_apply(u, v))
                hit = steps[key] = (v, grown)
            v = hit[1]
            if not oracle(v):
                continue
            out.append(v)
            used.add(u)
            stack.append((u, v, [p for p in d.pred[u] if p not in used]))
    return out, taken


class SearchStats(NamedTuple):
    """Work counters for one basis search.

    ``paths`` counts the feeder path steps walked (see
    :func:`path_extremals`); ``candidates`` counts oracle-accepted
    emissions, extremal rotation terminals and accepted steps, with
    multiplicity; ``duplicates`` is how many of those repeated an earlier
    emission.  All are independent of traversal order.
    """

    cycles: int
    paths: int
    candidates: int
    duplicates: int


class BasisResult(NamedTuple):
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

    The cycles are enumerated once, by
    :func:`maxplus.digraph.nonneg_elementary_cycles` on the digraph Karp
    reads; the feeder paths are walked as a tree from each extremal
    rotation, never listed.  ``max_cycles`` caps the cycles and the feeder
    path steps of each cycle; exceeding it raises CycleLimitError.  The
    default oracle is a :class:`TangentOracle`, which reads only A and the
    candidate.  Cycles are searched one after another, in cycle order,
    with one :func:`cycle_terminals` and one :func:`path_extremals` call
    each.  All calls of one search share one step memo, so each growth
    step is formed once; the oracle is still asked about every candidate.
    Only the distinct emissions are kept, the first of equal ones: a
    cycle's terminals come before its walk's emissions, and no terminal
    equals an emission of the same cycle, whose support leaves the cycle.
    """
    d = Digraph.from_matrix(a)
    lam = max_cycle_mean(d)
    solvable = lam >= 0
    if not solvable:
        return BasisResult(ScaledBasis(()), lam, False, SearchStats(0, 0, 0, 0))
    cycles = nonneg_elementary_cycles(d, max_cycles)
    if oracle is None:
        oracle = TangentOracle(a)
    steps: dict = {}
    found: set[MpVector] = set()
    candidates = walked = 0
    for cycle in cycles:
        terminals = cycle_terminals(a, cycle, oracle, steps=steps)
        out, taken = path_extremals(
            a, d, cycle, terminals, oracle, steps=steps, max_steps=max_cycles
        )
        found.update(terminals.values())
        found.update(out)
        candidates += len(terminals) + len(out)
        walked += taken
    basis = ScaledBasis(found)
    stats = SearchStats(
        cycles=len(cycles),
        paths=walked,
        candidates=candidates,
        duplicates=candidates - len(basis),
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
