"""Exact max-plus supereigenvector bases.

Computes the unique scaled basis (the scaled extremal vectors) of the
solution space of A (x) >= x over the semiring (R union {-inf}, max, +),
with exact rational arithmetic throughout.  Three independent routes are
provided and cross-checkable: a pruned direct search over cycles and
feeder paths, a closed-form generating set reduced by an extremality
filter, and tropical double description.
"""

from .digraph import (
    DEFAULT_MAX_CYCLES,
    Cycle,
    CycleLimitError,
    Digraph,
    feeder_paths,
    max_cycle_mean,
    nonneg_elementary_cycles,
)
from .extremals import (
    BasisResult,
    SearchStats,
    TangentOracle,
    always_extremal,
    cycle_terminals,
    extremal_basis,
    generator_enumeration,
    in_supereig,
    is_extremal,
    path_extremals,
    row_satisfied,
)
from .matrixio import (
    MatrixDocument,
    MatrixParseError,
    parse_matrix,
    parse_vector,
    render_matrix,
)
from .reference import (
    GeneratorSet,
    SpanOracle,
    TwoSidedSystem,
    cycle_path_generators,
    cycle_structure,
    double_description,
    extremal_filter,
)
from .semiring import (
    NEG_INF,
    DimensionError,
    ExtReal,
    ImproperVectorError,
    MpMatrix,
    MpVector,
    ScaledBasis,
    boundary_point,
    bottom,
    format_scalar,
    format_vector,
    in_span,
    mp_dot,
    parse_scalar,
    residual,
    support_masks,
    unit,
    vector,
)

__version__ = "0.1.0"

__all__ = [
    "BasisResult",
    "Cycle",
    "CycleLimitError",
    "DEFAULT_MAX_CYCLES",
    "Digraph",
    "DimensionError",
    "ExtReal",
    "GeneratorSet",
    "ImproperVectorError",
    "MatrixDocument",
    "MatrixParseError",
    "MpMatrix",
    "MpVector",
    "NEG_INF",
    "ScaledBasis",
    "SearchStats",
    "SpanOracle",
    "TangentOracle",
    "TwoSidedSystem",
    "always_extremal",
    "bottom",
    "boundary_point",
    "cycle_path_generators",
    "cycle_structure",
    "cycle_terminals",
    "double_description",
    "extremal_basis",
    "extremal_filter",
    "feeder_paths",
    "format_scalar",
    "format_vector",
    "generator_enumeration",
    "in_span",
    "in_supereig",
    "is_extremal",
    "max_cycle_mean",
    "mp_dot",
    "nonneg_elementary_cycles",
    "parse_matrix",
    "parse_scalar",
    "parse_vector",
    "path_extremals",
    "render_matrix",
    "residual",
    "row_satisfied",
    "support_masks",
    "unit",
    "vector",
]
