"""Exact arithmetic over the max-plus semiring.

Scalars live in R union {-inf} with join ``max`` and product ``+``.  Finite
values are plain ``int`` or ``fractions.Fraction`` objects (never floats, so
every comparison is exact), and the bottom element is the module-level
singleton ``NEG_INF``.  Python's own ``max`` and ``+`` then act as the
semiring operations directly, which keeps general code free of wrapper
overhead.

The hot vector operations (``MpVector.scale``, ``scaled``, ``mp_dot``,
``row_apply``, :func:`boundary_point`, the double description step, and
:func:`in_span` over a dict of support masks) never hand ``NEG_INF`` to an
operator: they test each entry with ``is NEG_INF`` and apply ``max``,
``+`` and ``-`` to finite entries only, which are then plain ``int`` and
``Fraction`` arithmetic.  The results are the values and types the plain
operators give: a tie keeps the left (first) entry, as ``max`` does, and
int/Fraction mixes follow Python's own rules.  :func:`in_span` reads its
dict in one pass; whether the supports inside a vector cover it is
asked once per support group by the admission that
``reference.extremal_filter`` and the pruned double description share.

Vectors, square matrices and :class:`ScaledBasis` are thin immutable tuple
subclasses; index a matrix as ``a[i]`` for a row and ``a[i][j]`` for an
entry.  Dimension mismatches raise :class:`DimensionError`; scaling the
vector that is -inf in every coordinate raises :class:`ImproperVectorError`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Union


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class ImproperVectorError(ValueError):
    """The all -inf vector was used where a proper vector is required."""


class _NegInf:
    """Bottom element: neutral for max, absorbing for +.

    A single instance exists.  Arithmetic and comparisons interoperate with
    ``int`` and ``Fraction`` through the reflected operator protocol, so
    expressions like ``max(NEG_INF, 2)`` and ``3 + NEG_INF`` just work.
    Subtracting -inf from anything is undefined and raises.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_NegInf":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other: object) -> "_NegInf":
        if isinstance(other, (int, Fraction, _NegInf)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "_NegInf":
        # (-inf) - finite is -inf; (-inf) - (-inf) is undefined.
        if isinstance(other, (int, Fraction)):
            return self
        if isinstance(other, _NegInf):
            raise ArithmeticError("(-inf) - (-inf) is undefined")
        return NotImplemented

    def __rsub__(self, other: object) -> "_NegInf":
        raise ArithmeticError("cannot subtract -inf")

    def __neg__(self) -> "_NegInf":
        raise ArithmeticError("-inf has no additive inverse")

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return True
        if isinstance(other, _NegInf):
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, _NegInf)):
            return True
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, _NegInf)):
            return False
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return False
        if isinstance(other, _NegInf):
            return True
        return NotImplemented

    def __repr__(self) -> str:
        return "-inf"

    def __reduce__(self):
        return (_NegInf, ())


NEG_INF = _NegInf()

ExtReal = Union[int, Fraction, _NegInf]


def as_scalar(x: object) -> ExtReal:
    """Coerce ``x`` to a semiring scalar, rejecting floats and other types."""
    if isinstance(x, (int, Fraction, _NegInf)) and not isinstance(x, bool):
        return x
    raise TypeError(f"not a max-plus scalar: {x!r}")


class MpVector(tuple):
    """Dense max-plus vector.

    Entries are ``int``, ``Fraction``, or ``NEG_INF``.  Being a tuple, a
    vector hashes, compares lexicographically (with -inf below every finite
    value), and iterates like any sequence.  Construction does not validate
    entries; use :func:`vector` at trust boundaries.
    """

    __slots__ = ()

    def scale(self, c: ExtReal) -> "MpVector":
        """Add the scalar ``c`` to every entry (max-plus scalar multiple)."""
        if c is NEG_INF:
            return MpVector([NEG_INF] * len(self))
        return MpVector([e if e is NEG_INF else c + e for e in self])

    def scaled(self) -> "MpVector":
        """The unique scalar multiple with largest entry 0.

        Raises ImproperVectorError when every entry is -inf, since then no
        scalar multiple has largest entry 0.
        """
        z = _top_at_zero(self)
        if z is None:
            raise ImproperVectorError("cannot scale the all -inf vector")
        return z

    @property
    def is_proper(self) -> bool:
        """True when at least one entry is finite."""
        return any(e is not NEG_INF for e in self)


def _top_at_zero(z: list[ExtReal] | MpVector) -> MpVector | None:
    """z shifted so that its largest entry is 0; None when all are -inf.

    A vector whose largest entry is 0 already comes back as it is.
    """
    finite = [e for e in z if e is not NEG_INF]
    if not finite:
        return None
    m = max(finite)
    if m == 0:
        return z if isinstance(z, MpVector) else MpVector(z)
    return MpVector([e if e is NEG_INF else e - m for e in z])


def vector(entries: Iterable[object]) -> MpVector:
    """Build an MpVector, validating every entry."""
    return MpVector(as_scalar(e) for e in entries)


@cache
def unit(n: int, i: int) -> MpVector:
    """The i-th max-plus unit vector: 0 at position i, -inf elsewhere.

    Memoized: every call with the same (n, i) returns the same immutable
    object, so searches keyed by vector identity share it.
    """
    if not 0 <= i < n:
        raise DimensionError(f"unit index {i} out of range for dimension {n}")
    return MpVector(0 if j == i else NEG_INF for j in range(n))


def bottom(n: int) -> MpVector:
    """The all -inf vector of dimension n."""
    return MpVector(NEG_INF for _ in range(n))


def mp_dot(row: Iterable[ExtReal], x: Iterable[ExtReal]) -> ExtReal:
    """Max-plus inner product: max over k of row[k] + x[k]."""
    sums = [a + b for a, b in zip(row, x) if a is not NEG_INF and b is not NEG_INF]
    return max(sums) if sums else NEG_INF


class MpMatrix(tuple):
    """Square max-plus matrix stored as a tuple of MpVector rows."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]]) -> "MpMatrix":
        """Build and validate a square matrix from nested iterables."""
        vecs = [vector(r) for r in rows]
        n = len(vecs)
        if n == 0:
            raise DimensionError("matrix must have at least one row")
        for i, r in enumerate(vecs):
            if len(r) != n:
                raise DimensionError(
                    f"row {i} has {len(r)} entries, expected {n}"
                )
        return cls(vecs)

    @classmethod
    def identity(cls, n: int) -> "MpMatrix":
        """Max-plus identity: 0 on the diagonal, -inf off it."""
        return cls(unit(n, i) for i in range(n))

    def row_apply(self, i: int, x: MpVector) -> ExtReal:
        """Single component of the product: max over j of a[i][j] + x[j]."""
        if len(x) != len(self):
            raise DimensionError(
                f"row of width {len(self)} against vector of dimension {len(x)}"
            )
        return mp_dot(self[i], x)

    def shift(self, c: ExtReal) -> "MpMatrix":
        """Add the finite scalar ``c`` to every entry.

        Shifting by -lam turns the eigenproblem A(x) >= lam(x) into the
        plain supereigenvector problem for the shifted matrix.
        """
        if c is NEG_INF:
            raise ValueError("shift amount must be finite")
        return MpMatrix(row.scale(c) for row in self)


def integer_scaled(a: MpMatrix) -> tuple[int, MpMatrix]:
    """``(k, k A)`` for k the LCM of the denominators of A's Fraction entries.

    Every finite entry of k A is an ``int``.  For an integer k > 0, x -> k x
    is an order-preserving automorphism of (R u {-inf}, max, +): x solves
    A (x) >= x exactly when k x solves (k A) (x) >= x, and scaled vectors,
    extremals, cycle weights and cycle means map to k times themselves.
    With no Fraction entry this is ``(1, a)``, the same matrix object.
    """
    dens = [e.denominator for row in a for e in row if isinstance(e, Fraction)]
    if not dens:
        return 1, a
    k = lcm(*dens)
    return k, MpMatrix(
        MpVector([e if e is NEG_INF else int(e * k) for e in row]) for row in a
    )


def unscaled(x: ExtReal, k: int) -> ExtReal:
    """x / k exactly, the inverse of :func:`integer_scaled`'s map.

    An ``int`` when k divides x; ``NEG_INF`` stays.
    """
    if k == 1 or x is NEG_INF:
        return x
    q = Fraction(x, k)
    return q.numerator if q.denominator == 1 else q


def boundary_point(
    v: MpVector, lo_w: ExtReal, w: MpVector, up_v: ExtReal
) -> MpVector | None:
    """The scaled entrywise max of ``v.scale(lo_w)`` and ``w.scale(up_v)``.

    The double description step for a row lower (x) <= upper (x): v
    satisfies the row, with ``up_v`` = upper (v); w violates it, with
    ``lo_w`` = lower (w) finite.  The combination lands on the row's
    boundary.  None when it is the all -inf vector.  Ties keep the v side,
    as ``max`` does.
    """
    if len(v) != len(w):
        raise DimensionError(
            f"boundary point of vectors of dimension {len(v)} and {len(w)}"
        )
    z = [
        (b if b is NEG_INF else up_v + b)
        if a is NEG_INF
        else lo_w + a
        if b is NEG_INF
        else (x if (x := lo_w + a) >= (y := up_v + b) else y)
        for a, b in zip(v, w)
    ]
    return _top_at_zero(z)


def residual(v: MpVector, w: MpVector) -> ExtReal:
    """Largest scalar c with c + w <= v entrywise; NEG_INF when none exists.

    Finite exactly when the support of w is contained in the support of v
    (and w is proper).  This is the residuation v / w, the basic tool for
    testing span membership.
    """
    if len(v) != len(w):
        raise DimensionError(
            f"residual of vectors of dimension {len(v)} and {len(w)}"
        )
    best: ExtReal | None = None
    for vi, wi in zip(v, w):
        if wi is NEG_INF:
            continue
        if vi is NEG_INF:
            return NEG_INF
        d = vi - wi
        if best is None or d < best:
            best = d
    if best is None:
        raise ImproperVectorError("residual by the all -inf vector")
    return best


def _support_mask(x: MpVector) -> int:
    """Bit i set exactly when entry i is finite."""
    mask = 0
    for i, e in enumerate(x):
        if e is not NEG_INF:
            mask |= 1 << i
    return mask


def support_masks(gens: Iterable[MpVector] = ()) -> dict[MpVector, int]:
    """Each proper generator, all of one dimension, mapped to its support mask.

    This is the dict :func:`in_span` reads.  A caller that already knows a
    generator's support mask may insert it, or ``del`` a generator, itself
    between tests.  Of two equal generators (say 1 and Fraction(1)) the
    first is the key kept, as ``dict`` keeps it.
    """
    masks: dict[MpVector, int] = {}
    dimension = None
    for w in gens:
        if dimension is None:
            dimension = len(w)
        elif len(w) != dimension:
            raise DimensionError(f"generators of dimension {dimension} and {len(w)}")
        mask = _support_mask(w)
        if not mask:
            raise ImproperVectorError("the all -inf vector as a generator")
        masks[w] = mask
    return masks


def in_span(
    v: MpVector, masks: dict[MpVector, int], skip: MpVector | None = None
) -> bool:
    """Whether v is a max-plus combination of the generators other than skip.

    The generators come as the keys of ``masks``, each mapped to its
    support mask (:func:`support_masks`), so the masks are reused across
    tests, v's own included when v is one of them.
    Only a generator w whose support lies inside the support of v can take
    part, with coefficient residual(v, w); since residual(v, w) + w <= v,
    v lies in the span iff every finite coordinate of v is reached exactly
    by some such term (the principal solution).  The test is one pass
    over the dict: a generator outside v's support, or one that meets no
    coordinate still to reach, is passed over without a residual, and the
    answer is yes as soon as every coordinate is reached, no after the
    pass.  A coordinate that no support inside v's holds is never reached,
    so the answer is no then too; the support-group admission in
    ``reference`` asks that cheaper question first for a group of one.
    """
    if masks and len(v) != (d := len(next(iter(masks)))):
        raise DimensionError(
            f"vector of dimension {len(v)} against generators of dimension {d}"
        )
    todo = masks.get(v) or _support_mask(v)
    outside = ~todo
    for w, mask in masks.items():
        if mask & outside:
            continue
        bits = mask & todo
        if not bits or w == skip:
            continue
        c = residual(v, w)
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            if c + w[i] == v[i]:
                todo ^= low
            bits ^= low
        if not todo:
            return True
    return not todo


class ScaledBasis(tuple):
    """Canonically ordered set of scaled vectors, as a tuple.

    Every member has largest entry 0, members are pairwise distinct, and
    the tuple is sorted ascending lexicographically with -inf below every
    finite value.  Two bases, or a basis and a plain tuple, compare equal
    exactly when they hold the same vectors in that order.
    """

    __slots__ = ()

    def __new__(cls, vectors: Iterable[MpVector] = ()) -> "ScaledBasis":
        uniq = sorted(set(vectors))
        for v in uniq:
            if max(v) != 0:
                raise ValueError(f"not scaled: {format_vector(v)}")
        return super().__new__(cls, uniq)

    @property
    def vectors(self) -> tuple[MpVector, ...]:
        """The members as a plain tuple."""
        return tuple(self)


# Every digit run is bounded at CPython's default int/str conversion limit.
# The CLI lifts that limit while it runs a command, so there this bound
# alone decides, whatever PYTHONINTMAXSTRDIGITS says.
# re.ASCII keeps \d to 0-9: int() and Fraction() read other Unicode digits.
_SCALAR_TOKEN = re.compile(
    r"[-+]?(?:\d{1,4300}(?:/\d{1,4300})?|\d{0,4300}\.\d{1,4300}|\d{1,4300}\.)",
    re.ASCII,
)
# Plain integers, the common token, skip Fraction.
_INT_TOKEN = re.compile(r"[-+]?\d{1,4300}", re.ASCII)


def _quoted(token: str) -> str:
    """repr of the token, cut to its first 40 characters when longer."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


def format_scalar(x: ExtReal) -> str:
    """Render a scalar as '-inf', an integer, or 'p/q' in lowest terms."""
    if x is NEG_INF:
        return "-inf"
    return str(x)


def parse_scalar(token: str) -> ExtReal:
    """Parse '-inf', integer, fraction 'p/q', or exact decimal tokens.

    '-Inf' and '-INF' read as '-inf' too; no other spelling of infinity
    does.  Decimals are converted exactly: '2.5' becomes 5/2, never a float.
    Raises ValueError on anything else, exponent notation included: a
    token like '1e999999999' would make Fraction build a huge power of ten.
    A run of more than 4,300 digits is rejected too.  The error message
    quotes a long token by its first 40 characters and its length.
    """
    tok = token.strip()
    if tok in ("-inf", "-Inf", "-INF"):
        return NEG_INF
    try:
        if _INT_TOKEN.fullmatch(tok):
            return int(tok)
        if _SCALAR_TOKEN.fullmatch(tok):
            f = Fraction(tok)
            return int(f) if f.denominator == 1 else f
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar token {_quoted(token)}") from exc
    raise ValueError(f"bad scalar token {_quoted(token)}")


def format_vector(x: MpVector) -> str:
    return " ".join(["-inf" if e is NEG_INF else str(e) for e in x])
