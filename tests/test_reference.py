"""Reference layer: closed-form generators, double description, filtering."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import reference, semiring
from maxplus import (
    NEG_INF,
    Cycle,
    CycleLimitError,
    Digraph,
    GeneratorSet,
    ImproperVectorError,
    MpMatrix,
    MpVector,
    ScaledBasis,
    SpanOracle,
    TwoSidedSystem,
    cycle_path_generators,
    cycle_structure,
    double_description,
    extremal_basis,
    extremal_filter,
    in_supereig,
    mp_dot,
    unit,
    vector,
)
from support import (
    NI,
    block_triangular,
    brute_double_description,
    brute_finite_upper_pairs,
    brute_in_span,
    brute_join,
    brute_mp_dot,
    brute_normalized,
    brute_path_generators,
    brute_scale,
    chain_into_loop,
    complete_matrix,
    fractional_matrix,
    zero_critical_cycle,
    example_basis_vectors,
    example_matrix,
    mk,
    on_support,
    rand_matrix,
    wider_cases,
)


def brute_extremal(v, scaled):
    """Not in the span of the other scaled generators, by the principal solution."""
    return not brute_in_span(v, [w for w in scaled if w != v])


def satisfies(system, x):
    """Whether x satisfies every row, by the brute-force inner product."""
    return all(
        brute_mp_dot(lower, x) <= brute_mp_dot(upper, x)
        for lower, upper in system.rows
    )


def brute_filter(vectors):
    """The scaled extremals, each scaled vector tested against all the others.

    Equal scaled vectors keep the first one met, as a set does.
    """
    scaled = list(dict.fromkeys(brute_normalized(v)[1] for v in vectors))
    return ScaledBasis(v for v in scaled if brute_extremal(v, scaled))


small_entries = st.one_of(
    st.just(NI), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=2)
)
proper_vector_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(small_entries, min_size=n, max_size=n)
        .map(MpVector)
        .filter(lambda v: v.is_proper),
        min_size=1,
        max_size=10,
    )
)


def v5(*entries):
    return vector(entries)


def only_cycle(a, cycle):
    """The matrix's cycle structure cut down to one of its cycles."""
    return [p for p in cycle_structure(Digraph.from_matrix(a)) if p[0] == cycle]


class TestCyclePathGenerators:
    def test_loop_generator(self):
        a = example_matrix()
        s = only_cycle(a, Cycle((1,), 1))
        gens = cycle_path_generators(a, structure=s)
        # one generator for the loop itself plus one per step of six paths
        [(_, paths)] = s
        assert len(paths) == 6
        assert len(gens) == 1 + sum(len(p) - 1 for p in paths)
        assert gens.vectors[0] == unit(5, 1)

    def test_two_cycle_scaled_forms(self):
        a = example_matrix()
        gens = cycle_path_generators(a, structure=only_cycle(a, Cycle((0, 1), 2)))
        # the rotation generators come first, one per arc
        cycle_vecs = gens.vectors[:2]
        assert sorted(v.scaled() for v in cycle_vecs) == [
            v5(-1, 0, NI, NI, NI),
            v5(0, -1, NI, NI, NI),
        ]

    def test_path_chain_vectors(self):
        # the longest feeder path contributes its whole chain, unscaled
        a = example_matrix()
        gens = cycle_path_generators(a, structure=only_cycle(a, Cycle((1,), 1)))
        chain = [
            v5(1, 0, NI, NI, NI),
            v5(1, 0, NI, 2, NI),
            v5(1, 0, 4, 2, NI),
            v5(1, 0, 4, 2, -3),
        ]
        got = set(gens.vectors)
        for link in chain:
            assert link in got

    def test_matches_join_form(self):
        # each path step writes one entry in place of a join; same vectors,
        # same order, same entry types
        rng = random.Random(8080)
        cases = [rand_matrix(rng, rng.randint(2, 7)) for _ in range(30)]
        cases += [fractional_matrix(rng, rng.randint(3, 7)) for _ in range(20)]
        cases += [chain_into_loop(n) for n in (2, 9)] + [chain_into_loop(12, rng)]
        cases += [block_triangular(rng, sizes) for sizes in ((3, 2), (2, 3, 2))]
        for a in cases:
            s = cycle_structure(Digraph.from_matrix(a))
            want = brute_path_generators(a, s)
            assert typed(cycle_path_generators(a, structure=s).vectors) == typed(want)

    def test_worked_example_counts(self):
        gens = cycle_path_generators(example_matrix())
        assert len(gens.vectors) == 62
        assert len(gens.scaled_set()) == 38

    def test_every_generator_solves_the_system(self):
        rng = random.Random(2718)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 6))
            for g in cycle_path_generators(a).vectors:
                assert in_supereig(a, g)

    def test_generators_span_the_basis_and_back(self):
        rng = random.Random(31)
        for _ in range(15):
            a = rand_matrix(rng, rng.randint(2, 5))
            basis = extremal_basis(a).basis
            gens = cycle_path_generators(a)
            scaled = list(gens.scaled_set())
            for b in basis:
                assert brute_in_span(b, scaled)
            for g in scaled:
                assert brute_in_span(g, basis)


class TestTwoSidedSystem:
    def test_supereigen_rows(self):
        a = example_matrix()
        sys5 = TwoSidedSystem.supereigen(a)
        assert sys5.dimension == 5
        assert sys5.rows[2] == (unit(5, 2), a[2])
        for b in example_basis_vectors():
            assert satisfies(sys5, b)
        assert not satisfies(sys5, unit(5, 0))

    def test_row_dimension_check(self):
        with pytest.raises(ValueError):
            TwoSidedSystem(3, ((unit(2, 0), unit(2, 1)),))
        with pytest.raises(ValueError):
            TwoSidedSystem(2, ((unit(2, 0), unit(3, 1)),))

    def test_row_must_be_a_pair(self):
        e0, e1 = unit(2, 0), unit(2, 1)
        for row in ((e0,), (e0, e1, e1)):
            with pytest.raises(ValueError):
                TwoSidedSystem(2, (row,))

    def test_rejects_attribute_assignment(self):
        system = TwoSidedSystem.supereigen(example_matrix())
        for name in ("dimension", "rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(system, name, 0)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip_keeps_type_and_value(self, round_trip):
        system = TwoSidedSystem.supereigen(example_matrix())
        got = round_trip(system)
        assert type(got) is TwoSidedSystem
        assert got == system


class TestDoubleDescription:
    def test_no_rows_returns_units(self):
        got = double_description(TwoSidedSystem(3, ()))
        assert list(got.vectors) == sorted(unit(3, i) for i in range(3))

    def test_one_by_one(self):
        assert list(
            double_description(TwoSidedSystem.supereigen(mk([[0]]))).vectors
        ) == [vector([0])]
        assert (
            list(double_description(TwoSidedSystem.supereigen(mk([[-1]]))).vectors)
            == []
        )

    def test_members_satisfy_their_rows(self):
        rng = random.Random(606)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 5))
            system = TwoSidedSystem.supereigen(a)
            for v in double_description(system).vectors:
                assert satisfies(system, v)
                assert max(v) == 0

    def test_worked_example_spans_basis(self):
        a = example_matrix()
        dd = double_description(TwoSidedSystem.supereigen(a))
        assert len(dd.vectors) == 23
        for b in example_basis_vectors():
            assert brute_in_span(b, dd.vectors)

    def test_complete_on_small_grids(self):
        # every grid vector solving the system must lie in the span
        rng = random.Random(77)
        values = (NEG_INF, -2, -1, 0, 1)
        for _ in range(3):
            a = rand_matrix(rng, 3, neg_inf_p=0.4, lo=-2, hi=2)
            system = TwoSidedSystem.supereigen(a)
            gens = list(double_description(system).vectors)
            for entries in itertools.product(values, repeat=3):
                x = vector(entries)
                if not x.is_proper:
                    continue
                member = in_supereig(a, x)
                assert member == brute_in_span(x.scaled(), gens), (a, x)

    def test_general_system_not_just_supereigen(self):
        # one row comparing two coordinates: x1 <= x2 within dimension 2
        lower, upper = unit(2, 0), unit(2, 1)
        got = double_description(TwoSidedSystem(2, ((lower, upper),)))
        for v in got.vectors:
            assert mp_dot(lower, v) <= mp_dot(upper, v)
        # e2 survives; e1 is cut but recombines with e2 on the boundary
        assert unit(2, 1) in got.vectors
        assert vector([0, 0]) in got.vectors


@st.composite
def tied_systems(draw):
    """x <= A (x) for a small A of ints, halves and -inf, so ties abound."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just(NEG_INF),
        st.integers(-2, 2),
        st.integers(-4, 4).map(lambda k: Fraction(k, 2)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return TwoSidedSystem.supereigen(MpMatrix(MpVector(r) for r in rows))


def typed(vectors):
    """Each entry with its type, so that 1 and Fraction(1) differ."""
    return [[(e, type(e)) for e in v] for v in vectors]


class TestDoubleDescriptionStep:
    """The one-pass row step against double description as first written."""

    @settings(max_examples=150, deadline=None)
    @given(tied_systems())
    def test_same_vectors_of_the_same_types(self, system):
        want, _ = brute_double_description(system.rows)
        assert typed(double_description(system).vectors) == typed(want)

    def test_structured_families(self):
        for a in structured_families():
            system = TwoSidedSystem.supereigen(a)
            want, _ = brute_double_description(system.rows)
            assert typed(double_description(system).vectors) == typed(want)


def structured_families():
    rng = random.Random(5)
    return [
        chain_into_loop(12),
        block_triangular(rng, (3, 2, 3)),
        fractional_matrix(rng, 5, neg_inf_p=0.3),
        zero_critical_cycle(complete_matrix(rng, 4)),
    ]


def cap_is_the_formed_count(system, prune) -> int:
    """The run passes with the cap at the boundary points it forms and
    raises at one less; returns that count."""
    formed = boundary_point_calls(system, prune=prune)
    want = double_description(system, None, prune=prune).vectors
    assert double_description(system, formed, prune=prune).vectors == want
    if formed:
        with pytest.raises(CycleLimitError, match=f"more than {formed - 1} "):
            double_description(system, formed - 1, prune=prune)
    return formed


class TestDoubleDescriptionCap:
    @pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
    def test_cap_is_the_boundary_point_count(self, prune):
        system = TwoSidedSystem.supereigen(chain_into_loop(8))
        assert cap_is_the_formed_count(system, prune) > 0

    @settings(max_examples=100, deadline=None)
    @given(tied_systems(), st.booleans())
    def test_cap_is_the_boundary_point_count_on_tied_systems(self, system, prune):
        cap_is_the_formed_count(system, prune)

    def test_default_cap_and_zero(self):
        system = TwoSidedSystem.supereigen(example_matrix())
        assert len(double_description(system).vectors) == 23
        with pytest.raises(CycleLimitError):
            double_description(system, 0)
        # No pairs at all: a system whose rows every generator satisfies.
        assert double_description(TwoSidedSystem.supereigen(mk([[0]])), 0).vectors == (
            vector([0]),
        )

    def test_long_chain_stops_early(self):
        # The chain forms 120 * 119 / 2 = 7,140 boundary points in all.
        system = TwoSidedSystem.supereigen(chain_into_loop(120))
        with pytest.raises(CycleLimitError):
            double_description(system, 5_000)


def boundary_point_calls(system, *, prune=False) -> int:
    """How many boundary points ``double_description`` forms on the system."""
    calls = []
    step = reference.boundary_point

    def counting(*args):
        calls.append(args)
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "boundary_point", counting)
        double_description(system, None, prune=prune)
    return len(calls)


class TestDoubleDescriptionWork:
    """A satisfier with upper side -inf is carried over, never paired."""

    @settings(max_examples=100, deadline=None)
    @given(tied_systems())
    def test_one_step_per_finite_upper_pair(self, system):
        want = brute_finite_upper_pairs(system.rows)
        assert boundary_point_calls(system) == want

    def test_chain_skips_pairs(self):
        system = TwoSidedSystem.supereigen(chain_into_loop(12))
        _, pairs = brute_double_description(system.rows)
        calls = boundary_point_calls(system)
        assert calls == brute_finite_upper_pairs(system.rows)
        assert calls < pairs

    def test_long_chain_matches_the_search(self):
        a = chain_into_loop(120)
        got = double_description(TwoSidedSystem.supereigen(a)).vectors
        assert len(got) == 120
        assert set(got) == set(extremal_basis(a).basis.vectors)


def unpruned_without_span_tests(system):
    """``double_description(system)`` with every span test made to raise."""

    def refuse(*args):
        raise AssertionError("unpruned double description made a span test")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "in_span", refuse)
        mp.setattr(reference, "_admit_extremals", refuse)
        return double_description(system)


class TestUnprunedDoubleDescription:
    """Without ``prune`` the row loop both modes share makes no span test,
    and returns the vectors, of the same types, as first written."""

    @settings(max_examples=100, deadline=None)
    @given(tied_systems())
    def test_no_span_test_on_tied_systems(self, system):
        want, _ = brute_double_description(system.rows)
        assert typed(unpruned_without_span_tests(system).vectors) == typed(want)

    def test_no_span_test_on_a_long_chain(self):
        system = TwoSidedSystem.supereigen(chain_into_loop(30))
        want, _ = brute_double_description(system.rows)
        assert typed(unpruned_without_span_tests(system).vectors) == typed(want)


def pruned_prefixes_match(system):
    """After every row prefix, the pruned set is the filtered unpruned set,
    by value; by type too when every entry is an int or -inf."""
    ints = all(
        e is NEG_INF or type(e) is int for row in system.rows for side in row for e in side
    )
    for k in range(1, len(system.rows) + 1):
        rows = system.rows[:k]
        got = double_description(TwoSidedSystem(system.dimension, rows), None, prune=True)
        want = extremal_filter(brute_double_description(rows)[0])
        assert got.vectors == want.vectors
        if ints:
            assert typed(got.vectors) == typed(want.vectors)


def brute_rows(system):
    """Per row, the satisfiers among the extremals of the previous prefix,
    the distinct scaled boundary points not among them (the row's new
    points), and the extremals of the prefix the row ends."""
    d = system.dimension
    prev = [unit(d, i) for i in range(d)]
    for k, (lower, upper) in enumerate(system.rows):
        scored = [(v, brute_mp_dot(lower, v), brute_mp_dot(upper, v)) for v in prev]
        sat = [(v, up) for v, lo, up in scored if lo <= up]
        vio = [(w, lo) for w, lo, up in scored if lo > up]
        new = set()
        for v, up in sat:
            for w, lo in vio:
                z = brute_join(brute_scale(v, lo), brute_scale(w, up))
                new.add(brute_normalized(z)[1])
        prev = extremal_filter(brute_double_description(system.rows[: k + 1])[0]).vectors
        satisfiers = [v for v, _ in sat]
        yield satisfiers, sorted(new - set(satisfiers)), prev


def support(v) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(v) if e is not NEG_INF)


def brute_tested_points(system) -> tuple[list[MpVector], list[list[MpVector]]]:
    """The new points a pruned run must span-test, all rows' together and
    sorted, and per row those it must keep untested.

    A new point p is tested exactly when the supports inside supp(p) of
    the row's satisfiers and of its other new points together make up
    supp(p).  Otherwise no combination of the vectors held beside p
    reaches the coordinates they all miss, so p is extremal.
    """
    tested, kept = [], []
    for satisfiers, new, extremals in brute_rows(system):
        kept.append([])
        for p in new:
            s = support(p)
            inside = [support(w) for w in satisfiers + new if w != p and support(w) <= s]
            if frozenset().union(*inside) == s:
                tested.append(p)
            else:
                assert p in extremals
                kept[-1].append(p)
    return sorted(tested), kept


def span_tests(run):
    """The vectors ``run()`` hands to ``reference.in_span``, in call order,
    and what it returns."""
    tested = []
    span = reference.in_span

    def counting(v, gens, skip=None):
        tested.append(v)
        return span(v, gens, skip)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "in_span", counting)
        return tested, run()


class TestPrunedDoubleDescription:
    """``prune=True`` keeps the extremals of each partial cone."""

    @settings(max_examples=150, deadline=None)
    @given(tied_systems())
    def test_every_prefix_is_the_filtered_set(self, system):
        pruned_prefixes_match(system)

    def test_structured_families(self):
        for a in structured_families():
            pruned_prefixes_match(TwoSidedSystem.supereigen(a))

    @settings(max_examples=100, deadline=None)
    @given(tied_systems())
    def test_only_new_points_are_tested(self, system):
        # Which new points reach in_span, not their verdicts: a point whose
        # support the vectors inside it do not cover is kept untested.
        held = []
        admit = reference._admit_extremals

        def recording(masks, fresh):
            admit(masks, fresh)
            held.append(set(masks))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reference, "_admit_extremals", recording)
            tested, _ = span_tests(lambda: double_description(system, None, prune=True))
        want_tested, want_kept = brute_tested_points(system)
        assert sorted(tested) == want_tested
        assert len(held) == len(want_kept)
        for after_row, kept in zip(held, want_kept):
            assert set(kept) <= after_row

    @pytest.mark.parametrize("n", [30, 120])
    def test_chain_points_are_kept_by_support(self, n):
        # Every point of a chain reaches a coordinate no smaller support
        # held beside it does, so none of them needs a span test.
        system = TwoSidedSystem.supereigen(chain_into_loop(n))
        tested, got = span_tests(lambda: double_description(system, None, prune=True))
        assert tested == []
        assert len(got.vectors) == n
        assert got.vectors == double_description(system, None).vectors

    def test_group_enters_before_it_is_tested(self):
        # The last row forms (-3, -4, 0) = (-3, -inf, 0) join -1 (-3, -3, 0),
        # which sorts before the point of its own support it leans on.
        rows = (
            (v5(0, NI, 2), v5(NI, 1, 2)),
            (v5(-2, 1, -2), v5(1, NI, NI)),
            (v5(1, NI, NI), v5(0, 0, -2)),
        )
        got = double_description(TwoSidedSystem(3, rows), None, prune=True)
        assert got.vectors == (v5(-3, NI, 0), v5(-3, -3, 0))
        pruned_prefixes_match(TwoSidedSystem(3, rows))

    def test_worked_example_is_the_basis(self):
        system = TwoSidedSystem.supereigen(example_matrix())
        got = double_description(system, prune=True)
        assert ScaledBasis(got.vectors) == ScaledBasis(example_basis_vectors())
        assert len(double_description(system).vectors) == 23


class TestExtremalFilter:
    def test_removes_joins(self):
        x = vector([0, -1])
        y = vector([-1, 0])
        got = extremal_filter([x, y, vector([0, 0])])
        assert list(got) == [y, x]

    def test_single_vector(self):
        assert list(extremal_filter([vector([0, NI])])) == [vector([0, NI])]

    def test_scales_before_filtering(self):
        got = extremal_filter([vector([3, 2]), vector([-1, 0])])
        assert list(got) == [vector([-1, 0]), vector([0, -1])]

    def test_idempotent(self):
        rng = random.Random(14)
        for _ in range(15):
            a = rand_matrix(rng, rng.randint(2, 5))
            once = extremal_filter(cycle_path_generators(a))
            twice = extremal_filter(once.vectors)
            assert once == twice

    def test_rejects_improper(self):
        with pytest.raises(ImproperVectorError):
            extremal_filter([vector([NI, NI])])

    @given(proper_vector_lists)
    def test_verdicts_match_principal_solution(self, vs):
        scaled = sorted({v.scaled() for v in vs})
        want = [v for v in scaled if brute_extremal(v, scaled)]
        assert list(extremal_filter(vs)) == want

    def test_uncovered_singleton_is_kept_untested(self):
        # z alone has support {0, 1, 2}, and no smaller support reaches
        # coordinate 2: it is kept without a span test.  w alone has
        # support {0, 1}, which x and y cover: it is tested, and dropped.
        x, y = vector([0, NI, NI]), vector([NI, 0, NI])
        w, z = vector([0, 0, NI]), vector([0, -1, 0])
        for vs in itertools.permutations([x, y, w, z]):
            tested, got = span_tests(lambda: extremal_filter(vs))
            assert tested == [w]
            assert got == brute_filter(vs) == ScaledBasis([x, y, z])

    def test_join_leaning_on_a_later_vector_of_its_support(self):
        # v = u1 join (-1)u2 shares its support with both and sorts before
        # u2, so u2 must be in the index when v is tested
        u1, u2 = vector([-3, 0]), vector([0, -3])
        v = brute_join(u1, u2.scale(-1))
        assert u1 < v < u2
        for vs in itertools.permutations([v, u1, u2]):
            assert list(extremal_filter(vs)) == [u1, u2]

    def test_matches_brute_on_wider_families(self):
        for a in wider_cases():
            closed = cycle_path_generators(a)
            dd = double_description(TwoSidedSystem.supereigen(a))
            # the third input is one-shot: the filter must read it once
            for gens, same in ((closed, closed), (dd, dd), ((v for v in closed), closed)):
                got = extremal_filter(gens)
                assert typed(got) == typed(brute_filter(same)), a

    def test_work_does_not_depend_on_input_order(self, monkeypatch):
        calls = []
        residual = semiring.residual

        def counted(v, w):
            calls.append(None)
            return residual(v, w)

        monkeypatch.setattr(semiring, "residual", counted)
        rng = random.Random(1009)
        vectors = list(cycle_path_generators(rand_matrix(rng, 8, neg_inf_p=0.6)))
        counts, bases = set(), set()
        for _ in range(5):
            rng.shuffle(vectors)
            calls.clear()
            bases.add(extremal_filter(vectors))
            counts.add(len(calls))
        assert len(bases) == 1
        assert len(counts) == 1 and counts.pop() > 0

    def test_worked_example_both_routes(self):
        a = example_matrix()
        want = ScaledBasis(example_basis_vectors())
        from_gens = extremal_filter(cycle_path_generators(a))
        from_dd = extremal_filter(double_description(TwoSidedSystem.supereigen(a)))
        assert from_gens == want
        assert from_dd == want


class TestBasesEqual:
    def test_equal_and_not(self):
        x = ScaledBasis([vector([0, -1]), vector([-1, 0])])
        y = ScaledBasis([vector([-1, 0]), vector([0, -1])])
        z = ScaledBasis([vector([0, -1])])
        assert x == y
        assert x != z


class TestSpanOracle:
    def test_verdicts_on_worked_example(self):
        a = example_matrix()
        oracle = SpanOracle(a)
        members = example_basis_vectors()
        for b in members:
            assert oracle(b)
        # a join that is itself a member must be one of its operands;
        # any other join is non-extremal
        for x in members:
            for y in members:
                j = brute_join(x, y).scaled()
                if j != x and j != y:
                    assert not oracle(j)

    def test_repeated_calls_are_consistent(self):
        a = example_matrix()
        oracle = SpanOracle(a)
        v = example_basis_vectors()[3]
        assert oracle(v) == oracle(v)

    def test_matches_unfiltered_filter(self):
        # the oracle's accept set over scaled generators equals the filter output
        rng = random.Random(404)
        for _ in range(10):
            a = rand_matrix(rng, rng.randint(2, 5))
            gens = cycle_path_generators(a)
            oracle = SpanOracle(a)
            accepted = [g for g in gens.scaled_set() if oracle(g)]
            assert accepted == list(extremal_filter(gens))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    def test_verdicts_match_principal_solution(self, seed):
        # generators and joins of pairs of them: all solutions, some extremal
        rng = random.Random(seed)
        a = rand_matrix(rng, rng.randint(2, 5))
        scaled = cycle_path_generators(a).scaled_set()
        oracle = SpanOracle(a)
        probes = list(scaled)
        probes += [brute_join(x, y) for x, y in itertools.combinations(scaled[:8], 2)]
        for v in probes:
            assert oracle(v) == brute_extremal(v, scaled), (a, v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_verdicts_on_the_support_match(self, seed, fractional):
        # Only generators with support inside supp(v) can take part in v,
        # and those of A are the generators of A restricted to supp(v), so
        # an oracle built on the restriction, as check builds it, agrees.
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        a = fractional_matrix(rng, n) if fractional else rand_matrix(rng, n)
        scaled = cycle_path_generators(a).scaled_set()
        oracle = SpanOracle(a)
        probes = list(scaled)
        probes += [
            brute_join(x, y).scaled() for x, y in itertools.combinations(scaled[:8], 2)
        ]
        for v in probes:
            assert SpanOracle(on_support(a, v))(v) == oracle(v), (a, v)


class TestGeneratorSet:
    def test_scaled_set_dedupes(self):
        g = GeneratorSet((vector([1, 0]), vector([0, -1]), vector([2, 1])))
        assert g.scaled_set() == (vector([0, -1]),)
        assert len(g) == 3

    def test_routes_return_tuples(self):
        a = example_matrix()
        system = TwoSidedSystem.supereigen(a)
        for gens in (
            cycle_path_generators(a),
            double_description(system),
            double_description(system, prune=True),
        ):
            assert type(gens) is GeneratorSet
            assert isinstance(gens, tuple)
            assert gens.vectors == tuple(gens)
            assert len(gens) == len(gens.vectors) > 0
            assert [gens[i] for i in range(len(gens))] == list(gens.vectors)
