"""Independent reference constructions for supereigenvector spaces.

Two self-contained ways to produce a generating set of the solution space
of A (x) >= x, used to cross-check the extremal search:

* :func:`cycle_path_generators` walks every nonnegative elementary cycle
  and every maximal feeder path and writes down explicit generators in
  closed form, one per cycle rotation arc and one per path step.

* :func:`double_description` incrementally intersects half-spaces of a
  general two-sided system lower (x) <= upper (x), starting from the unit
  vectors and combining satisfier/violator pairs row by row with
  :func:`maxplus.semiring.boundary_point`, the step the search grows its
  candidates with.

Both return generating sets that usually contain redundant vectors;
:func:`extremal_filter` reduces any generating set to the scaled extremals,
which form the unique scaled basis of the generated subsemimodule.
``check`` decides extremality with :class:`SpanOracle`, a span test
against the closed-form set that shares nothing with the search's criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, NamedTuple

from .digraph import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    CycleLimitError,
    Digraph,
    FeederPath,
    feeder_paths,
    nonneg_elementary_cycles,
)
from .semiring import (
    NEG_INF,
    ExtReal,
    MpMatrix,
    MpVector,
    ScaledBasis,
    SpanIndex,
    boundary_point,
    in_span,
    mp_dot,
    unit,
)


@dataclass(frozen=True)
class GeneratorSet:
    """Vectors spanning a subsemimodule."""

    vectors: tuple[MpVector, ...]

    def scaled_set(self) -> tuple[MpVector, ...]:
        """Distinct scaled forms of the generators, canonically sorted."""
        return tuple(sorted({v.scaled() for v in self.vectors}))

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


class SystemRow(NamedTuple):
    """One inequality row: lower (x) <= upper (x)."""

    lower: MpVector
    upper: MpVector


@dataclass(frozen=True)
class TwoSidedSystem:
    """Finite system of one-sided rows lower_k (x) <= upper_k (x)."""

    dimension: int
    rows: tuple[SystemRow, ...]

    def __post_init__(self):
        for k, row in enumerate(self.rows):
            if len(row.lower) != self.dimension or len(row.upper) != self.dimension:
                raise ValueError(f"row {k} does not match dimension {self.dimension}")

    @classmethod
    def supereigen(cls, a: MpMatrix) -> "TwoSidedSystem":
        """The system x <= A (x), one row per matrix row."""
        n = len(a)
        return cls(n, tuple(SystemRow(unit(n, i), a[i]) for i in range(n)))


class CycleStructure(NamedTuple):
    """The nonnegative elementary cycles of a matrix and their feeder paths.

    ``paths[k]`` holds the maximal feeder paths of ``cycles[k]``.  This is
    the one walk every cycle-based route makes over a matrix.
    """

    cycles: tuple[Cycle, ...]
    paths: tuple[tuple[FeederPath, ...], ...]


def cycle_structure(
    d: Digraph, max_cycles: int | None = DEFAULT_MAX_CYCLES
) -> CycleStructure:
    """Enumerate the cycles, then the feeder paths of each, once.

    ``max_cycles`` caps the cycle enumeration and each cycle's path
    enumeration; exceeding it raises CycleLimitError.
    """
    cycles = tuple(nonneg_elementary_cycles(d, max_cycles))
    paths = tuple(tuple(feeder_paths(d, c, max_cycles)) for c in cycles)
    return CycleStructure(cycles, paths)


def _cycle_generators(a: MpMatrix, cycle: Cycle) -> list[MpVector]:
    """One generator per rotation arc of the cycle.

    Generator j puts 0 at the anchor node and walks the cycle, paying back
    each arc weight; the cycle's total weight is credited once, on arc j.
    Crediting on the closing arc (j = t-1) yields the pure debt vector.
    """
    nodes = cycle.nodes
    t = len(nodes)
    out = []
    for j in range(t):
        entries: list[ExtReal] = [NEG_INF] * len(a)
        entries[nodes[0]] = 0
        val: ExtReal = 0
        for s in range(t - 1):
            credit = cycle.weight if s == j else 0
            val = val + credit - a[nodes[s]][nodes[s + 1]]
            entries[nodes[s + 1]] = val
        out.append(MpVector(entries))
    return out


def _path_generators(
    a: MpMatrix, cycle: Cycle, cycle_gens: list[MpVector], path_nodes: tuple[int, ...]
) -> list[MpVector]:
    """One generator per step of a feeder path, walked from the cycle out.

    Starts from the cycle generator whose credited arc enters the path's
    endnode, then raises one path node at a time to the accumulated arc
    weight into the cycle.  Each raised entry was -inf: the cycle
    generator is finite on the cycle's nodes only, and a feeder path is
    elementary and meets the cycle only at its endnode.  So raising it
    (a join with a scaled unit vector) is writing it.
    """
    nodes = cycle.nodes
    end = path_nodes[-1]
    entries = list(cycle_gens[(nodes.index(end) - 1) % len(nodes)])
    c = entries[end]
    out = []
    for p in range(len(path_nodes) - 2, -1, -1):
        c = c + a[path_nodes[p]][path_nodes[p + 1]]
        entries[path_nodes[p]] = c
        out.append(MpVector(entries))
    return out


def cycle_path_generators(
    a: MpMatrix,
    *,
    structure: CycleStructure | None = None,
    max_cycles: int | None = DEFAULT_MAX_CYCLES,
) -> GeneratorSet:
    """Closed-form generating set of {x : A (x) >= x}.

    Every solution is a max-plus combination of these vectors.  The set is
    deliberately unfiltered; apply :func:`extremal_filter` to reduce it to
    the scaled basis.  Pass the matrix's :func:`cycle_structure` to reuse
    an enumeration already made; otherwise one is made here.  For each
    cycle, its rotation generators come first, then its path generators.
    """
    if structure is None:
        structure = cycle_structure(Digraph.from_matrix(a), max_cycles)
    vectors: list[MpVector] = []
    for cycle, paths in zip(structure.cycles, structure.paths):
        gens = _cycle_generators(a, cycle)
        vectors.extend(gens)
        for path in paths:
            vectors.extend(_path_generators(a, cycle, gens, path.nodes))
    return GeneratorSet(tuple(vectors))


def double_description(
    system: TwoSidedSystem, max_pairs: int | None = DEFAULT_MAX_CYCLES
) -> GeneratorSet:
    """Generators of {x : lower (x) <= upper (x)} by row-wise intersection.

    Maintains generators of the cone cut out by the rows seen so far,
    beginning with the unit vectors (no rows).  For each row, satisfiers
    survive as they are; each satisfier/violator pair contributes its
    :func:`boundary_point`  (lower_k (w)) (v)  join  (upper_k (v)) (w),
    which lands exactly on the row's boundary of feasibility.  Generators
    are kept in scaled deduplicated form after every row.

    ``max_pairs`` caps the satisfier/violator pairs summed over the rows;
    a row that would pass it raises CycleLimitError before any of its
    pairs is formed.
    """
    d = system.dimension
    current: list[MpVector] = sorted(unit(d, i) for i in range(d))
    pairs = 0
    for row in system.rows:
        sat: list[tuple[MpVector, ExtReal]] = []
        vio: list[tuple[MpVector, ExtReal]] = []
        for v in current:
            lo, up = mp_dot(row.lower, v), mp_dot(row.upper, v)
            if lo is NEG_INF or (up is not NEG_INF and lo <= up):
                sat.append((v, up))
            else:
                vio.append((v, lo))
        pairs += len(sat) * len(vio)
        if max_pairs is not None and pairs > max_pairs:
            raise CycleLimitError(
                f"more than {max_pairs} double description pairs; "
                "raise the cap to proceed"
            )
        # Satisfiers are scaled already; insertion order decides which of
        # two equal vectors (say 1 and Fraction(1)) the set keeps.
        new = {v for v, _ in sat}
        for v, up_v in sat:
            for w, lo_w in vio:
                z = boundary_point(v, lo_w, w, up_v)
                if z is not None:
                    new.add(z)
        current = sorted(new)
    return GeneratorSet(tuple(current))


def extremal_filter(gens: Iterable[MpVector]) -> ScaledBasis:
    """Reduce a generating set to its scaled extremals.

    A scaled generator is extremal exactly when it is not a combination of
    the other scaled generators, and only those whose support lies inside
    its own can take part.  So the distinct scaled vectors are decided one
    support at a time, in ascending order of support size, then mask, then
    vector: a total order, so the work does not depend on set iteration
    order.  One :class:`SpanIndex` grows a support group at a time.  The
    whole group enters before any of it is tested, since a vector may lean
    on others of its own support, and a vector found redundant leaves at
    once.  The scaled extremals belong to every scaled generating set, so
    the index holds only the group and the extremals found so far, which
    still span every vector already decided.  The result is the unique
    scaled basis.
    """
    masks = SpanIndex({v.scaled() for v in gens}).masks
    order = sorted(masks, key=lambda v: (masks[v].bit_count(), masks[v], v))
    index = SpanIndex()
    keep = []
    for _, group in groupby(order, masks.__getitem__):
        group = list(group)
        for v in group:
            index.add(v)
        for v in group:
            if in_span(v, index, v):
                index.discard(v)
            else:
                keep.append(v)
    return ScaledBasis(keep)


class SpanOracle:
    """Extremality test against the closed-form generating set of a matrix.

    A scaled solution v is extremal exactly when it is not a combination
    of the other scaled generators; extremals belong to every scaled
    generating set, so testing against this particular one is conclusive.
    Callers guarantee v solves A (x) >= x and is scaled.  The generators
    sit in a :class:`SpanIndex` built once and never changed.
    """

    __slots__ = ("_gens",)

    def __init__(self, a: MpMatrix, *, max_cycles: int | None = DEFAULT_MAX_CYCLES):
        gens = cycle_path_generators(a, max_cycles=max_cycles)
        self._gens = SpanIndex(gens.scaled_set())

    def __call__(self, v: MpVector) -> bool:
        return not in_span(v, self._gens, v)
