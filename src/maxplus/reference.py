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
  candidates with.  Both modes run one row loop over the generators and
  their support masks; they differ only in how a row's new points join.
  Pruned, only the extremals of each partial cone join, decided by span
  tests (:func:`maxplus.semiring.in_span`), and so it returns the scaled
  basis itself.

Unpruned, both return generating sets that usually contain redundant
vectors; :func:`extremal_filter` reduces any generating set to the scaled
extremals, which form the unique scaled basis of the generated
subsemimodule.
``check`` decides extremality with :class:`SpanOracle`, a span test
against the closed-form set that shares nothing with the search's criterion,
built on A restricted to the vector's support, whose closed form holds
every generator of A that can take part in the vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

from .digraph import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    CycleLimitError,
    Digraph,
    feeder_paths,
    nonneg_elementary_cycles,
)
from .semiring import (
    NEG_INF,
    ExtReal,
    MpMatrix,
    MpVector,
    ScaledBasis,
    boundary_point,
    in_span,
    support_masks,
    unit,
)


@dataclass(frozen=True)
class GeneratorSet:
    """Vectors spanning a subsemimodule."""

    vectors: tuple[MpVector, ...]

    def scaled_set(self) -> tuple[MpVector, ...]:
        """Distinct scaled forms of the generators, canonically sorted.

        Shared feeder path suffixes repeat generators, so each distinct
        one is scaled once.
        """
        return tuple(sorted({v.scaled() for v in dict.fromkeys(self.vectors)}))

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


@dataclass(frozen=True)
class TwoSidedSystem:
    """Finite system of one-sided rows lower_k (x) <= upper_k (x).

    Each row is the pair (lower_k, upper_k).
    """

    dimension: int
    rows: tuple[tuple[MpVector, MpVector], ...]

    def __post_init__(self):
        for k, (lower, upper) in enumerate(self.rows):
            if len(lower) != self.dimension or len(upper) != self.dimension:
                raise ValueError(f"row {k} does not match dimension {self.dimension}")

    @classmethod
    def supereigen(cls, a: MpMatrix) -> "TwoSidedSystem":
        """The system x <= A (x), one row per matrix row."""
        n = len(a)
        return cls(n, tuple((unit(n, i), a[i]) for i in range(n)))


def cycle_structure(
    d: Digraph, max_cycles: int | None = DEFAULT_MAX_CYCLES
) -> list[tuple[Cycle, list[tuple[int, ...]]]]:
    """Enumerate the cycles, then the feeder paths of each, once.

    Returns one ``(cycle, paths)`` pair per nonnegative elementary cycle,
    in cycle order, ``paths`` its :func:`maxplus.digraph.feeder_paths`.
    This is the one walk the closed form and :class:`SpanOracle` make over
    a matrix; the ``extremal`` search walks feeder paths as a tree instead.
    ``max_cycles`` caps the cycle enumeration and each cycle's path
    enumeration; exceeding it raises CycleLimitError.
    """
    cycles = nonneg_elementary_cycles(d, max_cycles)
    return [(c, feeder_paths(d, c, max_cycles)) for c in cycles]


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
    structure: list[tuple[Cycle, list[tuple[int, ...]]]] | None = None,
    max_cycles: int | None = DEFAULT_MAX_CYCLES,
) -> GeneratorSet:
    """Closed-form generating set of {x : A (x) >= x}.

    Every solution is a max-plus combination of these vectors.  The set is
    deliberately unfiltered; apply :func:`extremal_filter` to reduce it to
    the scaled basis.  Pass the matrix's :func:`cycle_structure`, its
    ``(cycle, paths)`` pairs, to reuse an enumeration already made;
    otherwise one is made here.  For each cycle, its rotation generators
    come first, then its path generators.
    """
    if structure is None:
        structure = cycle_structure(Digraph.from_matrix(a), max_cycles)
    vectors: list[MpVector] = []
    for cycle, paths in structure:
        gens = _cycle_generators(a, cycle)
        vectors.extend(gens)
        for path in paths:
            vectors.extend(_path_generators(a, cycle, gens, path))
    return GeneratorSet(tuple(vectors))


def double_description(
    system: TwoSidedSystem,
    max_pairs: int | None = DEFAULT_MAX_CYCLES,
    *,
    prune: bool = False,
) -> GeneratorSet:
    """Generators of {x : lower (x) <= upper (x)} by row-wise intersection.

    Maintains generators of the cone cut out by the rows seen so far,
    beginning with the unit vectors (no rows).  For each row, satisfiers
    survive as they are; each violator w is paired with every satisfier v
    whose upper_k (v) is finite, and the pair contributes its
    :func:`boundary_point`  (lower_k (w)) (v)  join  (upper_k (v)) (w),
    which lands exactly on the row's boundary of feasibility.  A satisfier
    with upper_k (v) = -inf has lower_k (v) = -inf too, so its boundary
    point with any violator is a multiple of v itself: it is carried
    over unpaired.  Generators are kept in scaled deduplicated form, each
    mapped to its support mask, in one dict that every row updates.

    ``prune`` picks only a row's last step, the one that adds the new
    boundary points not already held.  With it they are admitted by
    :func:`_admit_extremals`, so the set is cut down after every row to
    the scaled extremals of the cone cut out so far and the result is the
    scaled basis of the solution set: a satisfier was extremal in the
    larger cone and lies in the smaller one, so it stays extremal and is
    not tested again.  Without it every new point is added, untested.

    ``max_pairs`` caps the boundary points formed, summed over the rows:
    a row forms one per violator and satisfier with finite upper_k.  A
    row that would pass the cap raises CycleLimitError before any of its
    pairs is formed.
    """
    d = system.dimension
    masks = support_masks(unit(d, i) for i in range(d))
    formed = 0
    for row in system.rows:
        lower, upper = (
            [(j, a) for j, a in enumerate(side) if a is not NEG_INF] for side in row
        )
        paired: list[tuple[MpVector, ExtReal]] = []
        vio: list[tuple[MpVector, ExtReal]] = []
        for v in sorted(masks):
            lo, up = _sparse_dot(lower, v), _sparse_dot(upper, v)
            if lo is not NEG_INF and (up is NEG_INF or lo > up):
                vio.append((v, lo))
            elif up is not NEG_INF:
                paired.append((v, up))
        formed += len(paired) * len(vio)
        if max_pairs is not None and formed > max_pairs:
            raise CycleLimitError(
                f"more than {max_pairs} double description pairs; "
                "raise the cap to proceed"
            )
        # A boundary point is finite exactly where v or w is, since
        # lower_k (w) and upper_k (v) are finite: its mask is theirs
        # joined, and none is recomputed.  The satisfiers stay, so of two
        # equal vectors (say 1 and Fraction(1)) the one held or formed
        # first is kept.
        vio_masks = [masks.pop(w) for w, _ in vio]
        fresh: dict[MpVector, int] = {}
        for v, up_v in paired:
            mask_v = masks[v]
            for (w, lo_w), mask_w in zip(vio, vio_masks):
                z = boundary_point(v, lo_w, w, up_v)
                if z not in masks:
                    fresh.setdefault(z, mask_v | mask_w)
        if prune:
            _admit_extremals(masks, fresh)
        else:
            masks.update(fresh)
    return GeneratorSet(tuple(sorted(masks)))


def _sparse_dot(entries: list[tuple[int, ExtReal]], x: MpVector) -> ExtReal:
    """:func:`maxplus.semiring.mp_dot` of a row with x, the row given by
    its finite (j, row[j]) in ascending j.

    The first largest sum in ascending j wins, as ``max`` picks it, so the
    value and its type (1 or Fraction(1)) are those of ``mp_dot``.
    """
    best: ExtReal = NEG_INF
    for j, a in entries:
        b = x[j]
        if b is not NEG_INF:
            s = a + b
            if best is NEG_INF or s > best:
                best = s
    return best


def extremal_filter(gens: Iterable[MpVector]) -> ScaledBasis:
    """Reduce a generating set to its scaled extremals.

    A scaled generator is extremal exactly when it is not a combination of
    the other scaled generators.  The distinct scaled vectors are decided
    by :func:`_admit_extremals` into an empty dict; those it keeps are
    the unique scaled basis.
    """
    masks: dict[MpVector, int] = {}
    _admit_extremals(masks, support_masks(v.scaled() for v in gens))
    return ScaledBasis(masks)


def _admit_extremals(masks: dict[MpVector, int], fresh: dict[MpVector, int]) -> None:
    """Add to ``masks`` those of the scaled vectors ``fresh`` maps to their
    support masks that are not combinations of the others and of the
    vectors ``masks`` holds, which must all be extremal.

    Only vectors whose support lies inside a vector's own can take part
    in it, so the vectors are decided one support at a time, in ascending
    order of support size, then mask, then vector: a total order, so the
    work does not depend on iteration order.  The whole group enters
    ``masks`` before any of it is tested, since a vector may lean on others
    of its own support, and a vector found redundant leaves at once.  The
    scaled extremals belong to every scaled generating set, so ``masks``
    holds only the group and the extremals found so far, which still span
    every vector already decided.

    A group of one is kept untested when the supports held inside its
    own do not cover it.  Those vectors are the extremals decided so far
    (and, for the double description, the previous cone's satisfiers);
    no combination of them reaches a coordinate they all miss, so the
    vector is extremal, the verdict :func:`in_span` would give.  A group
    of two or more covers itself.  The held supports are kept as a set of
    masks that a group's mask stays in even when all of the group leaves:
    the last of it to leave was a combination of vectors still held, whose
    supports cover its own, so every later cover is the same.
    """
    supports = set(masks.values())
    order = sorted(fresh, key=lambda v: (fresh[v].bit_count(), fresh[v], v))
    for mask, group in groupby(order, fresh.__getitem__):
        group = list(group)
        tested = len(group) > 1 or _covered(mask, supports)
        supports.add(mask)
        for v in group:
            masks[v] = mask
        if tested:
            for v in group:
                if in_span(v, masks, v):
                    del masks[v]


def _covered(mask: int, supports: set[int]) -> bool:
    """Whether the supports lying inside ``mask`` together cover it."""
    outside = ~mask
    reach = 0
    for m in supports:
        if not m & outside:
            reach |= m
            if reach == mask:
                return True
    return False


class SpanOracle:
    """Extremality test against the closed-form generating set of a matrix.

    A scaled solution v is extremal exactly when it is not a combination
    of the other scaled generators; extremals belong to every scaled
    generating set, so testing against this particular one is conclusive.
    Callers guarantee v solves A (x) >= x and is scaled.  The generators
    sit in a :func:`~maxplus.semiring.support_masks` dict built once and
    never changed.

    ``check`` builds it on A_S, A with every arc into or out of a node off
    S = supp(v) removed.  Only generators with support inside S take part
    in v, and those are A_S's: the cycles inside S are the same, each feeder
    path suffix inside S ends a maximal feeder path in both digraphs, and
    a generator reads only its cycle's and suffix's arc weights.  v solves
    A_S (x) >= x too, as (A v)_i = (A_S v)_i on S.
    """

    __slots__ = ("_gens",)

    def __init__(self, a: MpMatrix, *, max_cycles: int | None = DEFAULT_MAX_CYCLES):
        gens = cycle_path_generators(a, max_cycles=max_cycles)
        self._gens = support_masks(gens.scaled_set())

    def __call__(self, v: MpVector) -> bool:
        return not in_span(v, self._gens, v)
