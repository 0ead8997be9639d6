"""Search layer: row membership, cycle growth, path extension, full basis."""

import random

import pytest

from maxplus import (
    Cycle,
    CycleLimitError,
    Digraph,
    FeederPath,
    MpMatrix,
    SpanOracle,
    TangentOracle,
    always_extremal,
    cycle_path_generators,
    cycle_structure,
    cycle_terminals,
    extremal_basis,
    extremal_filter,
    format_vector,
    generator_enumeration,
    in_supereig,
    is_extremal,
    nonneg_elementary_cycles,
    path_extremals,
    rotations,
    row_satisfied,
    unit,
    vector,
)
from maxplus import cli, reference
from support import (
    EXAMPLE_BASIS_TEXT,
    EXAMPLE_TEXT,
    NI,
    block_triangular,
    brute_cycle_terminals,
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


class TestCycleTerminals:
    def test_loop(self):
        a = example_matrix()
        run = cycle_terminals(a, Cycle((1,), 1), always_extremal)
        assert list(run) == [1]
        r = run[1]
        assert r.steps == 0
        assert r.scaled == unit(5, 1)

    def test_two_cycle(self):
        a = example_matrix()
        by_start = cycle_terminals(a, Cycle((0, 1), 2), always_extremal)
        assert list(by_start) == [0, 1]  # rotation order
        assert by_start[0].steps == 1
        assert by_start[0].scaled == v5(0, -1, NI, NI, NI)
        assert by_start[1].scaled == unit(5, 1)  # stopped before growing
        assert by_start[1].steps == 0

    def test_four_cycle(self):
        a = example_matrix()
        by_start = cycle_terminals(a, Cycle((0, 1, 2, 3), 5), always_extremal)
        assert by_start[1].scaled == unit(5, 1)
        assert by_start[0].scaled == v5(0, -1, NI, NI, NI)  # (1, 0, ...)
        assert by_start[3].scaled == v5(-1, -2, NI, 0, NI)  # (1, 0, -inf, 2)
        assert by_start[2].scaled == v5(-3, -4, 0, -2, NI)  # (1, 0, 4, 2)
        assert by_start[2].steps == 3  # the full run
        # every grown vector solves the whole system
        for r in by_start.values():
            assert in_supereig(a, r.scaled)

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
                for start, r in run.items():
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
                    seen += 1

    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError):
            cycle_terminals(mk([[-1]]), Cycle((0,), -1), always_extremal)

    def test_rejects_non_cycle(self):
        with pytest.raises(ValueError):
            cycle_terminals(example_matrix(), Cycle((0, 2), 0), always_extremal)


class TestPathExtremals:
    def path(self, *nodes):
        return FeederPath(tuple(nodes))

    def trace(self, a, path, terminal, oracle=None):
        steps = []
        out = path_extremals(
            a, path, terminal, recording(oracle or SpanOracle(a), steps)
        )
        return out, steps

    def test_longest_path_prunes_at_step_four(self):
        a = example_matrix()
        out, steps = self.trace(a, self.path(4, 2, 3, 0, 1), unit(5, 1))
        assert steps == [
            (v5(0, -1, NI, NI, NI), True),
            (v5(-1, -2, NI, 0, NI), True),
            (v5(-3, -4, 0, -2, NI), True),
            (v5(-3, -4, 0, -2, -1), False),
        ]
        assert out == [s[0] for s in steps[:3]]

    def test_full_walk_reaches_last_extremal(self):
        a = example_matrix()
        out, steps = self.trace(a, self.path(4, 3, 0, 1), unit(5, 1))
        assert [s[1] for s in steps] == [True, True, True]
        assert out[-1] == v5(-2, -3, NI, -1, 0)

    def test_prune_after_duplicate_emission(self):
        a = example_matrix()
        out, steps = self.trace(a, self.path(2, 3, 4, 0, 1), unit(5, 1))
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
            out, steps = self.trace(a, self.path(*nodes), unit(5, 1))
            assert steps == want, nodes
            assert out == [v for v, ok in want if ok]

    def test_scale_invariance(self):
        a = example_matrix()
        p = self.path(4, 3, 0, 1)
        base, _ = self.trace(a, p, unit(5, 1))
        shifted, _ = self.trace(a, p, unit(5, 1).scale(7))
        assert base == shifted

    def test_nonneg_self_loop_stops_before_emitting(self):
        a = mk([[0, NI], [1, 0]])
        out, steps = self.trace(a, self.path(0, 1), unit(2, 1), always_extremal)
        assert out == [] and steps == []

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            path_extremals(
                example_matrix(), FeederPath((1,)), unit(5, 1), always_extremal
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
            try:
                structure = cycle_structure(Digraph.from_matrix(a), 2000)
            except CycleLimitError:
                continue
            oracle = always_extremal if kind == "always" else TangentOracle(a)
            for cycle, paths in zip(structure.cycles, structure.paths):
                got = cycle_terminals(a, cycle, oracle)
                want = brute_cycle_terminals(a, cycle, oracle)
                assert list(got) == list(want)
                for start, (n_steps, _, scaled, ok) in want.items():
                    r = got[start]
                    assert (r.steps, r.scaled, r.extremal) == (n_steps, scaled, ok)
                    assert format_vector(r.scaled) == format_vector(scaled)
                    runs += 1
                for path in paths:
                    trace = []
                    out = path_extremals(
                        a, path, got[path.end].scaled, recording(oracle, trace)
                    )
                    # the brute loop starts from the unscaled grown vector
                    want_out, want_trace = brute_path_extremals(
                        a, path, want[path.end][1], oracle
                    )
                    assert out == want_out
                    assert trace == want_trace
                    assert list(map(format_vector, out)) == list(
                        map(format_vector, want_out)
                    )
                    steps += len(trace)
        assert runs > 2000 and steps > 5000


class TestExtremalBasis:
    def test_worked_example(self):
        a = example_matrix()
        r = extremal_basis(a)
        assert r.solvable
        assert list(r.basis) == sorted(example_basis_vectors())
        assert r.stats.cycles == 4
        assert r.stats.paths == 21
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
