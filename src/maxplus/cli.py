"""Command line driver.

Subcommands:

* ``basis FILE``       scaled basis of A (x) >= x (methods: extremal, wang2020, dd)
* ``generators FILE``  unreduced generating set by the same methods
* ``lambda FILE``      maximum cycle mean, exact
* ``cycles FILE``      nonnegative elementary cycles with weights
* ``check FILE --vector "..."``  membership and extremality of one vector
* ``verify FILE``      recompute the basis three ways and compare

Exit codes: 0 success, 1 verify mismatch, 2 usage or parse error,
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Iterable

from .digraph import (
    DEFAULT_MAX_CYCLES,
    CycleLimitError,
    Digraph,
    max_cycle_mean,
    nonneg_elementary_cycles,
)
# Unused here; kept so perfbench/tracer.py can patch it in this module.
from .digraph import feeder_paths  # noqa: F401
from .extremals import (
    BasisResult,
    SearchStats,
    extremal_basis,
    generator_enumeration,
    in_supereig,
)
from .matrixio import MatrixParseError, parse_matrix, parse_vector
from .reference import (
    SpanOracle,
    TwoSidedSystem,
    cycle_path_generators,
    cycle_structure,
    double_description,
    extremal_filter,
)
from .semiring import (
    NEG_INF,
    MpMatrix,
    MpVector,
    ScaledBasis,
    format_scalar,
    format_vector,
    integer_scaled,
    parse_scalar,
    unscaled,
)

METHODS = ("extremal", "wang2020", "dd")


class UsageError(ValueError):
    """Bad flag value."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Scaled bases of max-plus supereigenvector spaces, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, method: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="matrix file (n lines of n tokens)")
        p.add_argument(
            "--max-cycles",
            type=int,
            default=DEFAULT_MAX_CYCLES,
            metavar="K",
            help="abort (exit 3) past K enumerated cycles, K feeder paths "
            "of one cycle (wang2020, check), K feeder path steps walked from "
            "one cycle (extremal), or K dd boundary points formed; check "
            "counts the cycles and paths of A restricted to the vector's "
            "support [%(default)s]",
        )
        if method:
            p.add_argument(
                "--method",
                choices=METHODS,
                default="extremal",
                help="computation route [%(default)s]",
            )
        return p

    p_basis = add("basis", "scaled basis of the solution space", method=True)
    p_basis.add_argument("--json", action="store_true", help="machine-readable output")
    p_basis.add_argument(
        "--lambda",
        dest="lam",
        metavar="L",
        help="solve A(x) >= L(x) instead (finite exact scalar)",
    )
    add("generators", "unreduced generating set", method=True)
    add("lambda", "maximum cycle mean")
    add("cycles", "nonnegative elementary cycles")
    p_check = add("check", "membership and extremality of one vector")
    p_check.add_argument(
        "--vector", required=True, metavar="V", help="n space-separated entries"
    )
    add("verify", "cross-check all three methods")
    return parser


def _load(path: str) -> MpMatrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8-sig")).matrix


def _effective(args) -> tuple[int, MpMatrix]:
    """``(k, k A)`` for the file's A, shifted by ``--lambda`` when given.

    k is the LCM of A's denominators (see ``integer_scaled``), so every
    route runs on ints; values are divided by k only where they are printed.
    """
    a = _load(args.file)
    lam = getattr(args, "lam", None)
    if lam is not None:
        try:
            shift = parse_scalar(lam)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if shift is NEG_INF:
            raise UsageError("--lambda must be finite")
        a = a.shift(-shift)
    return integer_scaled(a)


def _line(v: MpVector, k: int) -> str:
    """The printed form of v / k, for v computed on k A."""
    if k == 1:
        return format_vector(v)
    return format_vector(MpVector([unscaled(e, k) for e in v]))


def _write_lines(vectors: Iterable[MpVector], k: int) -> None:
    """Print each vector's :func:`_line`, all in one write."""
    sys.stdout.write("".join([f"{_line(v, k)}\n" for v in vectors]))


def _basis_by_method(a: MpMatrix, method: str, cap: int) -> BasisResult:
    if method == "extremal":
        return extremal_basis(a, max_cycles=cap)
    d = Digraph.from_matrix(a)
    lam = max_cycle_mean(d)
    if method == "wang2020":
        structure = cycle_structure(d, cap)
        gens = cycle_path_generators(a, structure=structure)
        scaled = {v.scaled() for v in dict.fromkeys(gens.vectors)}
        basis = extremal_filter(scaled)
        stats = SearchStats(
            cycles=len(structure),
            paths=sum(len(paths) for _, paths in structure),
            candidates=len(gens.vectors),
            duplicates=len(gens.vectors) - len(scaled),
        )
    else:
        gens = double_description(TwoSidedSystem.supereigen(a), cap, prune=True)
        basis = ScaledBasis(gens.vectors)
        stats = SearchStats(0, 0, len(gens.vectors), 0)
    return BasisResult(basis, lam, lam >= 0, stats)


def _json_scalar(e):
    if e is NEG_INF:
        return None
    if isinstance(e, int):
        return e
    return str(e)


def _print_unsolvable(result: BasisResult, k: int) -> None:
    if not result.solvable:
        print(
            "no proper solution: maximum cycle mean "
            f"{format_scalar(unscaled(result.cycle_mean, k))} is negative",
            file=sys.stderr,
        )


def _cmd_basis(args) -> int:
    k, a = _effective(args)
    result = _basis_by_method(a, args.method, args.max_cycles)
    if args.json:
        payload = {
            "n": len(a),
            "lambda": format_scalar(unscaled(result.cycle_mean, k)),
            "solvable": result.solvable,
            "basis": [
                [_json_scalar(unscaled(e, k)) for e in v] for v in result.basis
            ],
            "stats": dataclasses.asdict(result.stats),
        }
        print(json.dumps(payload))
        return 0
    _print_unsolvable(result, k)
    _write_lines(result.basis, k)
    return 0


def _cmd_generators(args) -> int:
    k, a = _effective(args)
    cap = args.max_cycles
    if args.method == "extremal":
        result = generator_enumeration(a, max_cycles=cap)
        _print_unsolvable(result, k)
        vectors = result.basis.vectors
    elif args.method == "wang2020":
        gens = cycle_path_generators(a, max_cycles=cap)
        vectors = gens.scaled_set()
    else:
        vectors = double_description(TwoSidedSystem.supereigen(a), cap).vectors
    _write_lines(vectors, k)
    return 0


def _cmd_lambda(args) -> int:
    k, a = _effective(args)
    print(format_scalar(unscaled(max_cycle_mean(Digraph.from_matrix(a)), k)))
    return 0


def _cmd_cycles(args) -> int:
    k, a = _effective(args)
    for c in nonneg_elementary_cycles(Digraph.from_matrix(a), args.max_cycles):
        nodes = " ".join(str(v + 1) for v in c.nodes)
        print(f"{nodes}\t{format_scalar(unscaled(c.weight, k))}")
    return 0


def _on_support(a: MpMatrix, x: MpVector) -> MpMatrix:
    """A with every arc into or out of a node off supp(x) set to -inf: a
    ``SpanOracle`` built on it judges x as one built on A does."""
    off = [e is NEG_INF for e in x]
    return MpMatrix(
        MpVector([NEG_INF if off[i] or off[j] else e for j, e in enumerate(row)])
        for i, row in enumerate(a)
    )


def _cmd_check(args) -> int:
    k, a = _effective(args)
    x = parse_vector(args.vector, len(a))
    if k != 1:
        x = MpVector([e if e is NEG_INF else e * k for e in x])
    member = in_supereig(a, x)
    extremal = False
    if member:
        oracle = SpanOracle(_on_support(a, x), max_cycles=args.max_cycles)
        extremal = oracle(x.scaled())
    print(f"member: {'yes' if member else 'no'}")
    print(f"extremal: {'yes' if extremal else 'no'}")
    return 0


def _three_bases(a: MpMatrix, cap: int) -> dict[str, BasisResult]:
    return {m: _basis_by_method(a, m, cap) for m in METHODS}


def _cmd_verify(args) -> int:
    k, a = _effective(args)
    results = _three_bases(a, args.max_cycles)
    bases = {m: r.basis for m, r in results.items()}
    names = list(bases)
    for other in names[1:]:
        if bases[names[0]] != bases[other]:
            left, right = bases[names[0]], bases[other]
            print(
                f"MISMATCH: {names[0]} found {len(left)} vectors, "
                f"{other} found {len(right)}",
                file=sys.stderr,
            )
            only_left = [v for v in left if v not in right]
            only_right = [v for v in right if v not in left]
            for v in only_left[:5]:
                print(f"  only {names[0]}: {_line(v, k)}", file=sys.stderr)
            for v in only_right[:5]:
                print(f"  only {other}: {_line(v, k)}", file=sys.stderr)
            return 1
    s = results["extremal"].stats
    print(f"OK: 3 methods agree, |basis|={len(bases['extremal'])}")
    print(
        f"stats: cycles={s.cycles} paths={s.paths} "
        f"candidates={s.candidates} duplicates={s.duplicates}"
    )
    return 0


_COMMANDS = {
    "basis": _cmd_basis,
    "generators": _cmd_generators,
    "lambda": _cmd_lambda,
    "cycles": _cmd_cycles,
    "check": _cmd_check,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # Exact values outgrow the int/str conversion limit (sums of long
    # tokens, say), and --max-cycles is converted while parsing, so the
    # limit is lifted first; parse_scalar bounds the tokens themselves.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if args.max_cycles < 0:
            raise UsageError(f"--max-cycles must be >= 0, got {args.max_cycles}")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (UsageError, MatrixParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CycleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
