"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
without ``-s`` they appear in pytest's captured output and the verdicts in
the ``-v`` listing.  Every criterion is checked at full strength — exact
equality for golden values, the stated counts for randomized suites, and
the stated wall-clock budgets.
"""

import functools
import random
import time
from fractions import Fraction

from maxplus import (
    Cycle,
    Digraph,
    MpMatrix,
    NEG_INF,
    ScaledBasis,
    SpanOracle,
    TwoSidedSystem,
    always_extremal,
    cycle_path_generators,
    cycle_terminals,
    double_description,
    extremal_basis,
    extremal_filter,
    feeder_paths,
    in_supereig,
    max_cycle_mean,
    nonneg_elementary_cycles,
    path_extremals,
    rotations,
    row_satisfied,
    unit,
    vector,
)
from support import (
    brute_in_span,
    brute_join,
    brute_max_cycle_mean,
    combine_row,
    example_basis_vectors,
    example_matrix,
    rand_matrix,
    rand_vector,
    recording,
    wider_cases,
)


def criterion(cid, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {cid}: {desc}", flush=True)
                raise
            dt = time.perf_counter() - t0
            print(f"PASS {cid}: {desc} [{dt:.2f}s]", flush=True)

        return wrapper

    return deco


def cycle_mean(a):
    return max_cycle_mean(Digraph.from_matrix(a))


def three_route_bases(a):
    search = extremal_basis(a).basis
    closed = extremal_filter(cycle_path_generators(a))
    dd = extremal_filter(double_description(TwoSidedSystem.supereigen(a)))
    return search, closed, dd


@criterion("c1", "golden 5x5 basis, exact, < 1 s")
def test_c1_golden_basis():
    a = example_matrix()
    t0 = time.perf_counter()
    result = extremal_basis(a)
    elapsed = time.perf_counter() - t0
    assert result.basis == ScaledBasis(example_basis_vectors())
    assert elapsed < 1.0


@criterion("c2", "golden cycle classes and feeder paths, exact sets")
def test_c2_combinatorics():
    a = example_matrix()
    d = Digraph.from_matrix(a)
    cycles = nonneg_elementary_cycles(d, None)
    assert [(c.nodes, c.weight) for c in cycles] == [
        ((0, 1), 2),
        ((0, 1, 2, 3), 5),
        ((1,), 1),
        ((1, 2), 1),
    ]
    loop = next(c for c in cycles if c.nodes == (1,))
    paths = feeder_paths(d, loop, None)
    assert {p.nodes for p in paths} == {
        (2, 3, 4, 0, 1),
        (2, 3, 4, 1),
        (3, 4, 2, 1),
        (4, 2, 3, 0, 1),
        (4, 3, 0, 1),
        (4, 3, 2, 1),
    }


@criterion("c3", "path-search walkthrough traces match the worked example")
def test_c3_walkthrough_traces():
    a = example_matrix()
    d = Digraph.from_matrix(a)
    loop = Cycle((1,), 1)
    oracle = SpanOracle(a)
    terminal = cycle_terminals(a, loop, oracle)[1].scaled

    def trace_for(nodes):
        path = next(p for p in feeder_paths(d, loop, None) if p.nodes == nodes)
        steps = []
        path_extremals(a, path, terminal, recording(oracle, steps))
        return steps

    ni = NEG_INF
    # longest path: three accepted extensions, then the saturated
    # full-support candidate is rejected and the walk stops
    assert trace_for((4, 2, 3, 0, 1)) == [
        (vector([0, -1, ni, ni, ni]), True),
        (vector([-1, -2, ni, 0, ni]), True),
        (vector([-3, -4, 0, -2, ni]), True),  # scaled (1,0,4,2,-inf)
        (vector([-3, -4, 0, -2, -1]), False),  # scaled (1,0,4,2,3)
    ]
    # rejection prunes the rest of the path
    assert trace_for((4, 3, 2, 1)) == [
        (vector([ni, 0, 0, ni, ni]), True),
        (vector([ni, 0, 0, -5, ni]), True),
        (vector([ni, 0, 0, -5, -2]), False),
    ]
    # the deep -9 component only appears on this feeder path
    assert trace_for((2, 3, 4, 1)) == [
        (vector([ni, 0, ni, ni, -2]), True),
        (vector([ni, 0, ni, -9, -2]), True),
        (vector([ni, 0, 0, -9, -2]), False),
    ]


@criterion("c4", "200 random matrices: three routes agree, generators spanned, < 5 min")
def test_c4_three_route_agreement():
    rng = random.Random(42001)
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        a = rand_matrix(rng, n, neg_inf_p=0.5, lo=-5, hi=5)
        if cycle_mean(a) < 0:
            continue
        search, closed, dd = three_route_bases(a)
        assert search == closed
        assert search == dd
        assert closed == dd
        members = list(search)
        for g in cycle_path_generators(a).scaled_set():
            assert brute_in_span(g, members)
        done += 1
    assert time.perf_counter() - t0 < 300.0


@criterion("c9", "three routes agree on structured families and random n in {8, 10}")
def test_c9_wider_three_route_agreement():
    for a in wider_cases():
        search, closed, dd = three_route_bases(a)
        assert search == closed, a
        assert search == dd, a
        members = list(search)
        for g in cycle_path_generators(a).scaled_set():
            assert brute_in_span(g, members)


@criterion("c5", "soundness: 1000 member checks and 1000 join checks")
def test_c5_soundness():
    rng = random.Random(55001)
    member_checks = 0
    join_checks = 0
    guard = 0
    while (member_checks < 1000 or join_checks < 1000) and guard < 4000:
        guard += 1
        a = rand_matrix(rng, rng.randint(2, 6))
        basis = extremal_basis(a).basis
        members = list(basis)
        for v in members:
            assert in_supereig(a, v)
            assert max(v) == 0
            assert not brute_in_span(v, [w for w in members if w != v])
            member_checks += 1
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                z = brute_join(x, y)
                if z in basis:
                    assert z == x or z == y
                join_checks += 1
    assert member_checks >= 1000 and join_checks >= 1000


@criterion("c6", "lemma suite: 1000 checks per law")
def test_c6_lemmas():
    rng = random.Random(66001)

    # a row-i solution joined with any scaled partner stays a row-i solution
    checks = 0
    while checks < 1000:
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        x = rand_vector(rng, n)
        y = rand_vector(rng, n)
        for i in range(n):
            if row_satisfied(a, i, x):
                assert row_satisfied(a, i, combine_row(a, i, x, y))
                checks += 1

    # a unit vector solves every row it has no support in
    checks = 0
    while checks < 1000:
        n = rng.randint(2, 6)
        a = rand_matrix(rng, n)
        i = rng.randrange(n)
        for j in range(n):
            if j != i:
                assert row_satisfied(a, j, unit(n, i))
                checks += 1

    # full-length runs terminate with suffix arc-weight sums along the cycle,
    # each measured from the entry at the rotation's last node
    checks = 0
    while checks < 1000:
        a = rand_matrix(rng, rng.randint(2, 6))
        for c in nonneg_elementary_cycles(Digraph.from_matrix(a), None):
            if len(c.nodes) < 2:
                continue
            for start, r in cycle_terminals(a, c, always_extremal).items():
                t = len(c.nodes)
                if r.steps != t - 1:
                    continue
                rot = next(
                    rr.nodes for rr in rotations(c) if rr.nodes[0] == start
                )
                suffix = 0
                for l in range(t - 2, -1, -1):
                    suffix = a[rot[l]][rot[l + 1]] + suffix
                    assert r.scaled[rot[l]] - r.scaled[rot[-1]] == suffix
                checks += 1


@criterion("c7", "cycle mean: Karp matches brute force; negative mean empties all routes")
def test_c7_cycle_mean():
    rng = random.Random(77001)
    for _ in range(500):
        a = rand_matrix(rng, rng.randint(1, 6))
        assert cycle_mean(a) == brute_max_cycle_mean(a)
    assert cycle_mean(example_matrix()) == Fraction(5, 4)
    found = 0
    while found < 20:
        a = rand_matrix(rng, rng.randint(2, 5))
        if cycle_mean(a) >= 0:
            continue
        search, closed, dd = three_route_bases(a)
        assert len(search) == len(closed) == len(dd) == 0
        found += 1


@criterion("c8", "trivial cases: identity bases and 1x1 matrices")
def test_c8_trivial_cases():
    for n in range(1, 6):
        basis = extremal_basis(MpMatrix.identity(n)).basis
        assert basis == ScaledBasis([unit(n, i) for i in range(n)])
    for a00, solvable in [
        (0, True),
        (3, True),
        (Fraction(1, 2), True),
        (-1, False),
        (Fraction(-1, 3), False),
        (NEG_INF, False),
    ]:
        basis = extremal_basis(MpMatrix.from_rows([[a00]])).basis
        if solvable:
            assert basis == ScaledBasis([vector([0])])
        else:
            assert len(basis) == 0
