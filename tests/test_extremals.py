"""Search layer: row membership, cycle growth, path extension, full basis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    Cycle,
    CycleLimitError,
    Digraph,
    MpMatrix,
    ScaledBasis,
    SearchStats,
    SpanOracle,
    TangentOracle,
    always_extremal,
    cycle_path_generators,
    cycle_terminals,
    extremal_basis,
    extremal_filter,
    feeder_paths,
    format_vector,
    generator_enumeration,
    in_supereig,
    is_extremal,
    nonneg_elementary_cycles,
    path_extremals,
    row_satisfied,
    unit,
    vector,
)
from maxplus import cli, extremals, reference
from support import (
    EXAMPLE_BASIS_TEXT,
    EXAMPLE_TEXT,
    NI,
    block_triangular,
    brute_cycle_terminals,
    brute_feeder_paths,
    brute_in_span,
    brute_join,
    brute_path_extremals,
    chain_into_loop,
    combine_row,
    complete_matrix,
    example_basis_vectors,
    example_matrix,
    fractional_matrix,
    mk,
    rand_matrix,
    rand_vector,
    recording,
    zero_critical_cycle,
)


def v5(*entries):
    return vector(entries)


class TestMembership:
    def test_row_satisfied(self):
        a = example_matrix()
        e2 = unit(5, 1)
        assert row_satisfied(a, 0, e2)  # row 1 against e2: 1 >= -inf
        assert row_satisfied(a, 1, e2)  # row 2 against e2: 1 >= 0
        assert not row_satisfied(a, 0, unit(5, 0))  # a11 = -3 < 0
        assert not row_satisfied(a, 4, unit(5, 4))  # row 5 has no diagonal arc

    def test_in_supereig(self):
        a = example_matrix()
        for b in example_basis_vectors():
            assert in_supereig(a, b)
        assert not in_supereig(a, unit(5, 0))
        assert not in_supereig(a, vector([NI] * 5))

    def test_units_satisfy_foreign_rows(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = rand_matrix(rng, n)
            i, j = rng.sample(range(n), 2)
            assert row_satisfied(a, j, unit(n, i))


class TestCombineRow:
    def test_example_step(self):
        # the first path-extension step behind the (-inf,0,-inf,-inf,-2) member
        a = example_matrix()
        assert row_satisfied(a, 4, unit(5, 1))
        z = combine_row(a, 4, unit(5, 1), unit(5, 4))
        assert z == v5(NI, 0, NI, NI, -2)
        assert row_satisfied(a, 4, z)

    def test_keeps_row_membership(self):
        rng = random.Random(83)
        for _ in range(200):
            n = rng.randint(1, 6)
            a = rand_matrix(rng, n)
            x = rand_vector(rng, n)
            y = rand_vector(rng, n)
            for i in range(n):
                if row_satisfied(a, i, x):
                    assert row_satisfied(a, i, combine_row(a, i, x, y))


def steps_taken(terminal):
    """Growth steps behind a rotation terminal: each one adds a node."""
    return sum(e is not NI for e in terminal) - 1


class TestCycleTerminals:
    def test_loop(self):
        a = example_matrix()
        run = cycle_terminals(a, Cycle((1,), 1), always_extremal)
        assert list(run) == [1]
        assert run[1] == unit(5, 1)
        assert steps_taken(run[1]) == 0

    def test_two_cycle(self):
        a = example_matrix()
        by_start = cycle_terminals(a, Cycle((0, 1), 2), always_extremal)
        assert list(by_start) == [0, 1]  # rotation order
        assert steps_taken(by_start[0]) == 1
        assert by_start[0] == v5(0, -1, NI, NI, NI)
        assert by_start[1] == unit(5, 1)  # stopped before growing
        assert steps_taken(by_start[1]) == 0

    def test_four_cycle(self):
        a = example_matrix()
        by_start = cycle_terminals(a, Cycle((0, 1, 2, 3), 5), always_extremal)
        assert list(by_start) == [0, 1, 2, 3]
        assert by_start[1] == unit(5, 1)
        assert by_start[0] == v5(0, -1, NI, NI, NI)  # (1, 0, ...)
        assert by_start[3] == v5(-1, -2, NI, 0, NI)  # (1, 0, -inf, 2)
        assert by_start[2] == v5(-3, -4, 0, -2, NI)  # (1, 0, 4, 2)
        assert steps_taken(by_start[2]) == 3  # the full run
        # every grown vector solves the whole system
        for x in by_start.values():
            assert in_supereig(a, x)

    def test_keeps_only_the_accepted_rotations(self):
        # the oracle sees every terminal, in rotation order; the rotation
        # from 0 grows to (0, -3, -3), which is not extremal, and is left out
        a = mk([[NI, 3, 3], [NI, NI, 0], [2, 2, NI]])
        cycle = Cycle((0, 1, 2), 5)
        seen = []
        got = cycle_terminals(a, cycle, recording(TangentOracle(a), seen))
        assert seen == [
            (vector([0, -3, -3]), False),
            (vector([NI, 0, 0]), True),
            (vector([-2, NI, 0]), True),
        ]
        assert list(got) == [1, 2]
        assert got == {1: vector([NI, 0, 0]), 2: vector([-2, NI, 0])}

    def test_full_run_suffix_weights(self):
        # after a full run the grown vector pays the remaining arcs of the
        # cycle: entry at the l-th rotation node, less the entry at the last,
        # is the arc weight sum from l to the end
        rng = random.Random(7001)
        seen = 0
        while seen < 50:
            a = rand_matrix(rng, rng.randint(2, 6))
            cycles = nonneg_elementary_cycles(Digraph.from_matrix(a), None)
            for c in cycles:
                if len(c.nodes) < 2:
                    continue
                run = cycle_terminals(a, c, always_extremal)
                for start, x in run.items():
                    t = len(c.nodes)
                    if steps_taken(x) != t - 1:
                        continue
                    r = c.nodes.index(start)
                    rot = c.nodes[r:] + c.nodes[:r]
                    suffix = 0
                    for l in range(t - 2, -1, -1):
                        suffix = a[rot[l]][rot[l + 1]] + suffix
                        assert x[rot[l]] - x[rot[-1]] == suffix
                    seen += 1

    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError):
            cycle_terminals(mk([[-1]]), Cycle((0,), -1), always_extremal)

    def test_rejects_non_cycle(self):
        with pytest.raises(ValueError):
            cycle_terminals(example_matrix(), Cycle((0, 2), 0), always_extremal)


def path_digraph(a, path):
    """The digraph of one feeder path's arcs: the walk from its end is it."""
    return Digraph(len(a), {(u, v): a[u][v] for u, v in zip(path, path[1:])})


def walk_path(a, path, terminal, oracle, cycle=None):
    """path_extremals along one feeder path: (emissions, steps walked).

    ``cycle`` defaults to a loop at the path's end; the walk reads only its
    node set.
    """
    cycle = cycle or Cycle((path[-1],), 0)
    return path_extremals(
        a, path_digraph(a, path), cycle, {path[-1]: terminal}, oracle
    )


class TestPathExtremals:
    def trace(self, a, path, terminal, oracle=None):
        steps = []
        out, taken = walk_path(
            a, path, terminal, recording(oracle or SpanOracle(a), steps)
        )
        assert taken == len(steps)
        return out, steps

    def test_longest_path_prunes_at_step_four(self):
        a = example_matrix()
        out, steps = self.trace(a, (4, 2, 3, 0, 1), unit(5, 1))
        assert steps == [
            (v5(0, -1, NI, NI, NI), True),
            (v5(-1, -2, NI, 0, NI), True),
            (v5(-3, -4, 0, -2, NI), True),
            (v5(-3, -4, 0, -2, -1), False),
        ]
        assert out == [s[0] for s in steps[:3]]

    def test_full_walk_reaches_last_extremal(self):
        a = example_matrix()
        out, steps = self.trace(a, (4, 3, 0, 1), unit(5, 1))
        assert [s[1] for s in steps] == [True, True, True]
        assert out[-1] == v5(-2, -3, NI, -1, 0)

    def test_prune_after_duplicate_emission(self):
        a = example_matrix()
        out, steps = self.trace(a, (2, 3, 4, 0, 1), unit(5, 1))
        assert steps == [
            (v5(0, -1, NI, NI, NI), True),
            (v5(0, -1, NI, NI, -2), True),
            (v5(-1, -2, NI, 0, -3), False),
        ]
        assert out == [v5(0, -1, NI, NI, NI), v5(0, -1, NI, NI, -2)]

    def test_short_paths(self):
        a = example_matrix()
        cases = {
            (4, 3, 2, 1): [
                (v5(NI, 0, 0, NI, NI), True),
                (v5(NI, 0, 0, -5, NI), True),
                (v5(NI, 0, 0, -5, -2), False),
            ],
            (3, 4, 2, 1): [
                (v5(NI, 0, 0, NI, NI), True),
                (v5(NI, 0, 0, NI, -2), False),
            ],
            (2, 3, 4, 1): [
                (v5(NI, 0, NI, NI, -2), True),
                (v5(NI, 0, NI, -9, -2), True),
                (v5(NI, 0, 0, -9, -2), False),
            ],
        }
        for nodes, want in cases.items():
            out, steps = self.trace(a, nodes, unit(5, 1))
            assert steps == want, nodes
            assert out == [v for v, ok in want if ok]

    def test_scale_invariance(self):
        a = example_matrix()
        p = (4, 3, 0, 1)
        base, _ = self.trace(a, p, unit(5, 1))
        shifted, _ = self.trace(a, p, unit(5, 1).scale(7))
        assert base == shifted

    def test_nonneg_self_loop_stops_before_emitting(self):
        a = mk([[0, NI], [1, 0]])
        out, steps = self.trace(a, (0, 1), unit(2, 1), always_extremal)
        assert out == [] and steps == []

    def test_tree_walk_of_the_worked_example_loop(self):
        # The six feeder paths of the loop at node 2 share suffixes: the
        # walk enters each distinct suffix once, in depth-first order from
        # the largest predecessor, and none below a rejected step (14 of
        # the 16; the unpruned walk takes all 16).
        a = example_matrix()
        d = Digraph.from_matrix(a)
        loop = Cycle((1,), 1)
        assert len(feeder_paths(d, loop, None)) == 6
        steps = []
        out, taken = path_extremals(
            a, d, loop, {1: unit(5, 1)}, recording(SpanOracle(a), steps)
        )
        assert steps == [
            (v5(NI, 0, NI, NI, -2), True),  # 5 2
            (v5(NI, 0, NI, -9, -2), True),  # 4 5 2
            (v5(NI, 0, 0, -9, -2), False),  # 3 4 5 2
            (v5(NI, 0, 0, NI, NI), True),  # 3 2
            (v5(NI, 0, 0, NI, -2), False),  # 5 3 2
            (v5(NI, 0, 0, -5, NI), True),  # 4 3 2
            (v5(NI, 0, 0, -5, -2), False),  # 5 4 3 2
            (v5(0, -1, NI, NI, NI), True),  # 1 2
            (v5(0, -1, NI, NI, -2), True),  # 5 1 2
            (v5(-1, -2, NI, 0, -3), False),  # 4 5 1 2
            (v5(-1, -2, NI, 0, NI), True),  # 4 1 2
            (v5(-2, -3, NI, -1, 0), True),  # 5 4 1 2
            (v5(-3, -4, 0, -2, NI), True),  # 3 4 1 2
            (v5(-3, -4, 0, -2, -1), False),  # 5 3 4 1 2
        ]
        assert taken == 14
        assert out == [v for v, ok in steps if ok]

    def test_step_cap_counts_across_walks(self):
        # One call walks from both rotations of the 2-cycle on nodes 0, 1,
        # in the terminals' order; the cap counts the steps of both walks.
        a = example_matrix()
        d = Digraph.from_matrix(a)
        two = Cycle((0, 1), 2)
        terminals = cycle_terminals(a, two, always_extremal)
        assert list(terminals) == [0, 1]

        def walk(starts, **kwargs):
            starts = {s: terminals[s] for s in starts}
            return path_extremals(a, d, two, starts, always_extremal, **kwargs)

        assert walk([0])[1] == 7 and walk([1], max_steps=8)[1] == 8
        out, taken = walk([0, 1])
        assert taken == 15 and len(out) == 15  # every suffix, unpruned
        assert out == walk([0])[0] + walk([1])[0]
        assert walk([0, 1], max_steps=15)[1] == 15
        with pytest.raises(CycleLimitError, match="more than 14 feeder path steps"):
            walk([0, 1], max_steps=14)
        # each walk alone fits under 8 steps, the two together do not
        with pytest.raises(CycleLimitError, match="more than 8 "):
            walk([0, 1], max_steps=8)

    def test_rejects_start_off_the_cycle(self):
        with pytest.raises(ValueError):
            path_extremals(
                example_matrix(),
                Digraph.from_matrix(example_matrix()),
                Cycle((1,), 1),
                {0: unit(5, 0)},
                always_extremal,
            )


def growth_cases():
    """Random int and fractional matrices, n <= 7, then structured ones."""
    rng = random.Random(9191)
    cases = [
        rand_matrix(rng, n, rng.choice((0.4, 0.6))) if k % 2
        else fractional_matrix(rng, n)
        for k, n in enumerate(rng.randint(2, 7) for _ in range(60))
    ]
    cases += [chain_into_loop(n) for n in (2, 9)] + [chain_into_loop(7, rng)]
    cases += [block_triangular(rng, sizes) for sizes in ((3, 3), (2, 3, 2))]
    cases += [complete_matrix(rng, n) for n in (3, 5)]
    cases += [
        zero_critical_cycle(a)
        for a in (
            complete_matrix(rng, 4),
            block_triangular(rng, (3, 2)),
            fractional_matrix(rng, 5, neg_inf_p=0.3),
        )
    ]
    return cases


class TestGrowthMatchesBrute:
    """Both growth loops against the join/scale chains they replaced."""

    @pytest.mark.parametrize("kind", ["always", "tangent"])
    def test_same_runs_and_emissions(self, kind):
        runs = steps = 0
        for a in growth_cases():
            d = Digraph.from_matrix(a)
            try:
                cycles = nonneg_elementary_cycles(d, 2000)
                structure = [(c, feeder_paths(d, c, 2000)) for c in cycles]
            except CycleLimitError:
                continue
            oracle = always_extremal if kind == "always" else TangentOracle(a)
            for cycle, paths in structure:
                got = cycle_terminals(a, cycle, oracle)
                every = cycle_terminals(a, cycle, always_extremal)
                want = brute_cycle_terminals(a, cycle, oracle)
                assert list(every) == list(want)
                assert list(got) == [s for s, run in want.items() if run[3]]
                for start, (n_steps, _, scaled, ok) in want.items():
                    x = every[start]
                    assert (steps_taken(x), x) == (n_steps, scaled)
                    assert format_vector(x) == format_vector(scaled)
                    if ok:
                        assert format_vector(got[start]) == format_vector(x)
                    else:
                        assert start not in got
                    runs += 1
                for path in paths:
                    trace = []
                    out, _ = walk_path(
                        a, path, every[path[-1]], recording(oracle, trace),
                        cycle,
                    )
                    # the brute loop starts from the unscaled grown vector
                    want_out, want_trace = brute_path_extremals(
                        a, path, want[path[-1]][1], oracle
                    )
                    assert out == want_out
                    assert trace == want_trace
                    assert list(map(format_vector, out)) == list(
                        map(format_vector, want_out)
                    )
                    steps += len(trace)
        assert runs > 2000 and steps > 5000


entries = st.one_of(
    st.just(NI),
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return MpMatrix.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.sampled_from(["always", "tangent"]))
def test_walk_emits_the_union_of_its_feeder_paths(a, kind):
    """The tree walk from each rotation against every maximal feeder path
    into its start, each walked alone by the brute loop."""
    oracle = always_extremal if kind == "always" else TangentOracle(a)
    d = Digraph.from_matrix(a)
    for cycle in nonneg_elementary_cycles(d, None):
        paths = brute_feeder_paths(a, cycle.nodes)
        # every rotation's terminal, accepted or not, starts a walk
        every = cycle_terminals(a, cycle, always_extremal)
        outs, steps = [], 0
        for end, x in every.items():
            out, taken = path_extremals(a, d, cycle, {end: x}, oracle)
            outs += out
            steps += taken
            emitted, walked, accepted = set(), set(), set()
            for p in paths:
                if p[-1] != end:
                    continue
                want_out, trace = brute_path_extremals(a, p, x, oracle)
                emitted.update(want_out)
                # trace step k (from 0) enters the suffix p[len(p) - 2 - k:]
                suffixes = [p[len(p) - 2 - k:] for k in range(len(trace))]
                walked.update(suffixes)
                accepted.update(suffixes[: len(want_out)])
            assert set(out) == emitted
            assert len(out) == len(accepted)
            assert taken == len(walked)
        # one call walks from every start in turn
        assert path_extremals(a, d, cycle, every, oracle) == (outs, steps)


class TestExtremalBasis:
    def test_worked_example(self):
        a = example_matrix()
        r = extremal_basis(a)
        assert r.solvable
        assert list(r.basis) == sorted(example_basis_vectors())
        assert r.stats.cycles == 4
        assert r.stats.paths == 41  # the walk steps of the nine extremal rotations
        assert r.stats.candidates == 36
        assert r.stats.candidates - r.stats.duplicates == 10
        assert r.stats.duplicates >= 0

    def test_unsolvable(self):
        r = extremal_basis(mk([[-1, NI], [NI, -2]]))
        assert not r.solvable
        assert len(r.basis) == 0
        assert r.stats.cycles == 0

    def test_members_are_sound_and_independent(self):
        rng = random.Random(55)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(2, 5))
            r = extremal_basis(a)
            vs = list(r.basis)
            for i, v in enumerate(vs):
                assert in_supereig(a, v)
                assert max(v) == 0
                assert not brute_in_span(v, vs[:i] + vs[i + 1 :])

    def test_pairwise_joins_leave_the_basis(self):
        # v = x join y with v in the basis forces v to be x or y
        a = example_matrix()
        basis = extremal_basis(a).basis
        for x in basis:
            for y in basis:
                j = brute_join(x, y)
                if j in basis:
                    assert j == x or j == y

    def test_oracle_plumbing_does_not_change_result(self):
        class FreshEachTime:
            def __init__(self, a):
                self.a = a

            def __call__(self, v):
                return SpanOracle(self.a)(v)

        rng = random.Random(99)
        for _ in range(8):
            a = rand_matrix(rng, rng.randint(2, 4))
            default = extremal_basis(a)
            injected = extremal_basis(a, oracle=SpanOracle(a))
            no_memo = extremal_basis(a, oracle=FreshEachTime(a))
            assert default.basis == injected.basis == no_memo.basis
            assert default.stats == injected.stats == no_memo.stats

    def test_identity_gives_units(self):
        for n in range(1, 6):
            r = extremal_basis(MpMatrix.identity(n))
            assert list(r.basis) == sorted(unit(n, i) for i in range(n))

    def test_one_by_one(self):
        assert list(extremal_basis(mk([[3]])).basis) == [vector([0])]
        assert list(extremal_basis(mk([[0]])).basis) == [vector([0])]
        assert list(extremal_basis(mk([[-1]])).basis) == []


class TestGeneratorEnumeration:
    def test_contains_basis_and_spans_it(self):
        a = example_matrix()
        basis = extremal_basis(a).basis
        gens = generator_enumeration(a).basis
        assert len(gens) == 16
        for v in basis:
            assert v in gens
        for g in gens:
            assert in_supereig(a, g)
            assert brute_in_span(g, basis)

    def test_randoms(self):
        rng = random.Random(4242)
        for _ in range(15):
            a = rand_matrix(rng, rng.randint(2, 5))
            basis = extremal_basis(a).basis
            gens = generator_enumeration(a).basis
            assert set(basis.vectors) <= set(gens.vectors)
            for g in gens:
                assert in_supereig(a, g)
                assert brute_in_span(g, basis)


# A value-keyed step memo changed entry types in generator_enumeration's
# output on this matrix: Fraction(0) and 0 are equal keys.
FRACTION_7 = """\
-inf -5 0 2 -1/3 -inf 5
-inf -inf -9 -1/2 -7 -inf -inf
-inf 2 1 -inf 9 0 4
-inf 5/3 -inf -inf -inf -inf 1
1/2 -inf -inf 0 -inf -inf 1
-inf -1 6 -inf -inf -2 2
-inf 3 -inf -9 -4 -8 -inf
"""


def fraction_7() -> MpMatrix:
    """FRACTION_7 with every finite entry a Fraction, integral ones too."""
    return MpMatrix.from_rows(
        [NI if t == "-inf" else Fraction(t) for t in line.split()]
        for line in FRACTION_7.splitlines()
    )


def memo_free_search(a, oracle, max_cycles):
    """extremal_basis's loop with each growth call on a fresh step memo."""
    d = Digraph.from_matrix(a)
    cycles = nonneg_elementary_cycles(d, max_cycles)
    pool, walked = [], 0
    for cycle in cycles:
        terminals = cycle_terminals(a, cycle, oracle)
        out, taken = path_extremals(a, d, cycle, terminals, oracle)
        pool += [*terminals.values(), *out]
        walked += taken
    basis = ScaledBasis(pool)
    stats = SearchStats(len(cycles), walked, len(pool), len(pool) - len(basis))
    return basis, stats


def typed(basis):
    return [[(type(e), e) for e in v] for v in basis]


class TestSharedSteps:
    """One search forms each growth step once and finds the same basis."""

    @pytest.mark.parametrize("kind", ["extremal", "enumeration"])
    def test_matches_memo_free_search(self, kind):
        searched = 0
        for a in growth_cases() + [fraction_7()]:
            if kind == "extremal":
                search, oracle = extremal_basis, TangentOracle(a)
            else:
                search, oracle = generator_enumeration, always_extremal
            got = search(a, max_cycles=2000)
            if not got.solvable:
                assert got.stats == SearchStats(0, 0, 0, 0)
                continue
            want, stats = memo_free_search(a, oracle, 2000)
            assert got.basis == want
            assert got.stats == stats
            assert typed(got.basis) == typed(want)
            searched += 1
        assert searched > 50

    @staticmethod
    def boundary_points(monkeypatch, a):
        """Boundary points formed by the search and by the memo-free loop."""
        formed = [0]
        step = extremals.boundary_point

        def counted(*args):
            formed[0] += 1
            return step(*args)

        monkeypatch.setattr(extremals, "boundary_point", counted)
        shared = extremal_basis(a)
        shared_count, formed[0] = formed[0], 0
        basis, stats = memo_free_search(a, TangentOracle(a), None)
        assert (shared.basis, shared.stats) == (basis, stats)
        return shared_count, formed[0]

    def test_example_forms_fewer_boundary_points(self, monkeypatch):
        shared, free = self.boundary_points(monkeypatch, example_matrix())
        assert free == 49
        assert shared < free

    def test_random_forms_under_a_fifth(self, monkeypatch):
        a = rand_matrix(random.Random(9), 11, neg_inf_p=0.7)
        shared, free = self.boundary_points(monkeypatch, a)
        assert shared * 5 < free

    def test_units_are_shared(self):
        assert unit(6, 2) is unit(6, 2)
        assert unit(6, 2) == vector([NI, NI, 0, NI, NI, NI])


class TestIsExtremal:
    def test_worked_example_verdicts(self):
        a = example_matrix()
        assert is_extremal(a, v5(1, 0, NI, 2, 3))  # scales to a basis member
        assert not is_extremal(a, v5(1, 0, 4, 2, 3))  # a join of members
        assert not is_extremal(a, unit(5, 0))  # not even a member
        assert not is_extremal(a, vector([NI] * 5))

    def test_identity(self):
        assert is_extremal(MpMatrix.identity(2), unit(2, 0))
        assert not is_extremal(MpMatrix.identity(2), vector([0, 0]))


class TestTangentOracle:
    # (matrix, vector, extremal): each row is named for the rule it pins.
    CASES = {
        # row 2 is tight with argmax {0, 1}: the edge {0, 1} -> 2 joins the
        # closure of {0, 1} (rows 0 and 1 imply each other) to node 2
        "two-node tail": (mk([[NI, 0, NI], [0, NI, NI], [0, 0, NI]]), (0, 0, 0), True),
        # a tight row attained at its own zero diagonal gives no edge
        "zero diagonal": (mk([[0, 0], [NI, 0]]), (0, 0), False),
        "zero diagonal, unit": (mk([[0, 0], [NI, 0]]), (0, NI), True),
        # both rows slack: lowering either coordinate alone stays a solution
        "slack rows": (mk([[NI, 2], [0, NI]]), (0, -1), False),
        "tight rows": (mk([[NI, 2], [0, NI]]), (0, -2), True),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_hand_built(self, name):
        a, entries, want = self.CASES[name]
        v = vector(entries)
        assert in_supereig(a, v)
        assert TangentOracle(a)(v) is want
        assert SpanOracle(a)(v) is want

    def test_worked_example_joins(self):
        a = example_matrix()
        oracle = TangentOracle(a)
        members = example_basis_vectors()
        assert all(oracle(b) for b in members)
        for x in members:
            for y in members:
                j = brute_join(x, y).scaled()
                if j != x and j != y:
                    assert not oracle(j)

    @pytest.mark.parametrize("kind", ["int", "fractional"])
    def test_matches_span_oracle(self, kind):
        # every vector the search asks about, and max-combinations of basis
        # vectors, most of which are not extremal
        rng = random.Random(8080)
        asked = extremal = 0
        for _ in range(30):
            n = rng.randint(2, 7)
            if kind == "int":
                a = rand_matrix(rng, n, rng.choice((0.4, 0.6)))
            else:
                a = fractional_matrix(rng, n)
            try:
                span = SpanOracle(a, max_cycles=2000)
            except CycleLimitError:
                continue
            probes = set()

            def recorded(v):
                probes.add(v)
                return span(v)

            basis = list(extremal_basis(a, oracle=recorded).basis)
            for _ in range(20 if basis else 0):
                z = rng.choice(basis)
                for w in rng.sample(basis, min(len(basis), rng.randint(1, 3))):
                    z = brute_join(z, w.scale(rng.randint(-2, 2)))
                probes.add(z.scaled())
            tangent = TangentOracle(a)
            for v in probes:
                assert tangent(v) == span(v), (a, v)
                asked += 1
                extremal += span(v)
        assert asked > 300
        assert extremal < asked / 2

    def test_long_chain_matches_closed_form(self):
        a = chain_into_loop(400)
        basis = extremal_basis(a).basis
        assert len(basis) == 400
        assert basis == extremal_filter(cycle_path_generators(a))


def test_extremal_route_never_builds_the_closed_form(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("the extremal route used the closed form")

    monkeypatch.setattr(reference, "cycle_path_generators", boom)
    monkeypatch.setattr(reference, "SpanOracle", boom)
    f = tmp_path / "a.txt"
    f.write_text(EXAMPLE_TEXT)
    assert cli.main(["basis", str(f), "--method", "extremal"]) == 0
    assert capsys.readouterr().out.splitlines() == EXAMPLE_BASIS_TEXT
    assert is_extremal(example_matrix(), v5(1, 0, NI, 2, 3))
