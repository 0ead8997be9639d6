"""Output checks that do not trust the route under test.

All arithmetic here is the benchmark's own: scalars are ``Fraction`` or
``None`` (for -inf), parsed from the CLI's text output, and the only
library code involved is the brute-force oracles of ``tests/support.py``,
which themselves avoid the production code paths.

Each ``check_*`` function returns ``None`` when an output is right and a
one-line reason when it is wrong.  A wrong output never raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Scalar = Optional[Union[int, Fraction]]  # None is -inf
Vec = tuple  # tuple[Scalar, ...]

UNSOLVABLE_PREFIX = "no proper solution: maximum cycle mean "


class BadToken(ValueError):
    pass


def parse_scalar(tok: str) -> Scalar:
    """None for '-inf'; an int when integral, since int arithmetic is far
    faster than Fraction's and compares and hashes alike."""
    if tok == "-inf":
        return None
    try:
        x = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise BadToken(f"bad token {tok!r}") from None
    return int(x) if x.denominator == 1 else x


def fmt_scalar(x) -> str:
    """'-inf', an integer, or 'p/q' in lowest terms (the CLI's format)."""
    if x is None or not isinstance(x, (int, Fraction)):
        return "-inf"
    return str(Fraction(x))


def fmt_vec(v: Sequence[Scalar]) -> str:
    return " ".join(fmt_scalar(e) for e in v)


def parse_matrix_text(text: str) -> list[list[Scalar]]:
    return [[parse_scalar(t) for t in line.split()] for line in text.splitlines() if line.strip()]


def parse_vec(line: str, n: int) -> Vec:
    toks = line.split(" ")
    if len(toks) != n:
        raise BadToken(f"expected {n} entries, got {len(toks)}: {line!r}")
    return tuple(parse_scalar(t) for t in toks)


def add(a: Scalar, b: Scalar) -> Scalar:
    return None if a is None or b is None else a + b


def leq(a: Scalar, b: Scalar) -> bool:
    if a is None:
        return True
    return b is not None and a <= b


def row_apply(row: Sequence[Scalar], x: Vec) -> Scalar:
    best: Scalar = None
    for a, b in zip(row, x):
        s = add(a, b)
        if s is not None and (best is None or s > best):
            best = s
    return best


def is_solution(a: list[list[Scalar]], x: Vec) -> bool:
    """x is proper and A (x) >= x."""
    if all(e is None for e in x):
        return False
    return all(leq(x[i], row_apply(a[i], x)) for i in range(len(a)))


def is_scaled(x: Vec) -> bool:
    finite = [e for e in x if e is not None]
    return bool(finite) and max(finite) == 0


def scaled(x: Vec) -> Vec:
    m = max(e for e in x if e is not None)
    return tuple(None if e is None else e - m for e in x)


def order_key(x: Vec) -> tuple:
    """Canonical order of the CLI: lexicographic, -inf below every finite."""
    return tuple((0, 0) if e is None else (1, e) for e in x)


def in_span(v: Vec, gens: Sequence[Vec]) -> bool:
    """v is a max-plus combination of gens (principal-solution test)."""
    acc: list[Scalar] = [None] * len(v)
    for w in gens:
        c: Scalar = None
        ok = True
        for vi, wi in zip(v, w):
            if wi is None:
                continue
            if vi is None:
                ok = False
                break
            d = vi - wi
            if c is None or d < c:
                c = d
        if not ok or c is None:
            continue
        for i, wi in enumerate(w):
            if wi is not None and (acc[i] is None or c + wi > acc[i]):
                acc[i] = c + wi
    return all(x == y for x, y in zip(acc, v))


@dataclass
class Expected:
    """What the program must print for one matrix, from independent code."""

    matrix: list[list[Scalar]]
    lam_line: str
    cycle_lines: list[str]
    solvable: bool
    example: list[str] | None = None  # exact basis lines, worked example only


def expected_for(text: str, support, example_lines: list[str] | None = None) -> Expected:
    """Brute-force expectations from ``tests/support.py`` oracles."""
    from maxplus import parse_matrix  # the oracles take the library's matrix type

    a = parse_matrix(text).matrix
    lam = support.brute_max_cycle_mean(a)
    cycles = []
    for nodes in support.brute_elementary_cycles(a):
        w = support.brute_cycle_weight(a, nodes)
        if w >= 0:
            cycles.append((nodes, w))
    cycles.sort()
    lines = [f"{' '.join(str(v + 1) for v in nodes)}\t{fmt_scalar(w)}" for nodes, w in cycles]
    solvable = isinstance(lam, (int, Fraction)) and lam >= 0
    return Expected(parse_matrix_text(text), fmt_scalar(lam), lines, solvable, example_lines)


def check_basis(exp: Expected, code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if not exp.solvable:
        if out:
            return "stdout not empty for lambda < 0"
        if not err.startswith(UNSOLVABLE_PREFIX):
            return "no diagnostic on stderr for lambda < 0"
        return None
    lines = out.splitlines()
    if not lines:
        return "empty basis for lambda >= 0"
    if exp.example is not None and lines != exp.example:
        return "worked example basis differs from the README's ten vectors"
    n = len(exp.matrix)
    prev = None
    for line in lines:
        try:
            x = parse_vec(line, n)
        except BadToken as exc:
            return str(exc)
        if not is_scaled(x):
            return f"not scaled: {line}"
        if not is_solution(exp.matrix, x):
            return f"not a solution of A x >= x: {line}"
        if prev is not None and not order_key(prev) < order_key(x):
            return f"not in canonical order: {line}"
        prev = x
    return None


def agreement(outputs: dict[str, str]) -> dict[str, str | None]:
    """Blame for routes whose basis bytes differ from the others'.

    A route is blamed when another output is held by more routes than its
    own; when no output has a majority every route is blamed.
    """
    counts: dict[str, int] = {}
    for out in outputs.values():
        counts[out] = counts.get(out, 0) + 1
    top = max(counts.values())
    winners = [o for o, c in counts.items() if c == top]
    blame: dict[str, str | None] = {}
    for route, out in outputs.items():
        if len(winners) == 1 and out == winners[0]:
            blame[route] = None
        else:
            blame[route] = "basis bytes differ between routes"
    return blame


def check_verify(exp: Expected, basis_size: int | None, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if basis_size is None:
        return "no agreed basis to compare against"
    if len(lines) != 2 or lines[0] != f"OK: 3 methods agree, |basis|={basis_size}":
        return f"unexpected verify output: {lines[:1]}"
    if not lines[1].startswith("stats: cycles="):
        return "missing stats line"
    return None


def check_generators(
    exp: Expected, basis: list[Vec] | None, code: int, out: str
) -> str | None:
    """Every line is a scaled solution, the basis lies inside the set and
    every line lies in the span of the basis.

    The span test is the only check that catches a basis vector dropped by
    every route at once, since the agreed basis is what the other checks
    compare against.
    """
    if code != 0:
        return f"exit code {code}"
    if basis is None:
        return "no agreed basis to compare against"
    n = len(exp.matrix)
    vecs = []
    for line in out.splitlines():
        try:
            x = parse_vec(line, n)
        except BadToken as exc:
            return str(exc)
        if not is_scaled(x) or not is_solution(exp.matrix, x):
            return f"generator is not a scaled solution: {line}"
        vecs.append(x)
    present = set(vecs)
    for b in basis:
        if b not in present:
            return f"basis vector missing from the generating set: {fmt_vec(b)}"
    for x in vecs:
        if not in_span(x, basis):
            return f"generator outside the span of the basis: {fmt_vec(x)}"
    return None


def check_text(expected: str, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if out != expected:
        return "stdout differs from the brute-force oracle"
    return None


def check_vector(exp: Expected, basis: list[Vec] | None) -> tuple[str, str | None]:
    """The vector ``check`` is run with, and its expected stdout.

    With a nonempty basis the vector is the join of the first and last
    basis vector shifted by 3: always a solution, extremal exactly when
    its scaled form is a basis vector.  Otherwise it is the first unit
    vector.  The expectation is None when no agreed basis exists.
    """
    n = len(exp.matrix)
    if basis:
        first, last = basis[0], basis[-1]
        x = tuple(
            None if a is None and b is None else max(e for e in (a, b) if e is not None) + 3
            for a, b in zip(first, last)
        )
    else:
        x = tuple(Fraction(0) if i == 0 else None for i in range(n))
    if basis is None:
        return fmt_vec(x), None
    member = is_solution(exp.matrix, x)
    extremal = member and scaled(x) in set(basis)
    yes = {True: "yes", False: "no"}
    return fmt_vec(x), f"member: {yes[member]}\nextremal: {yes[extremal]}\n"
