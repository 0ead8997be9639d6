"""Graph layer: arcs, cycle enumeration, feeder paths, maximum cycle mean."""

import random
from fractions import Fraction

import pytest

from maxplus import (
    NEG_INF,
    Cycle,
    CycleLimitError,
    Digraph,
    MpMatrix,
    feeder_paths,
    max_cycle_mean,
    nonneg_elementary_cycles,
    rotations,
)
from support import (
    NI,
    brute_cycle_weight,
    brute_elementary_cycles,
    brute_feeder_paths,
    brute_max_cycle_mean,
    example_matrix,
    mk,
    rand_matrix,
)


def cycles_of(a, cap=None):
    return nonneg_elementary_cycles(Digraph.from_matrix(a), cap)


def mean_of(a):
    return max_cycle_mean(Digraph.from_matrix(a))


class TestDigraph:
    def test_worked_example_arcs(self):
        d = Digraph.from_matrix(example_matrix())
        assert sum(map(len, d.succ)) == 14
        assert d.weight(0, 0) == -3
        assert d.weight(1, 2) == 1
        assert d.weight(2, 3) == 2
        assert d.weight(3, 4) == -7
        assert d.weight(0, 2) is NEG_INF
        assert not d.has_arc(4, 4)
        assert d.succ[1] == (0, 1, 2)
        assert d.pred[1] == (0, 1, 2, 4)

    def test_no_arcs(self):
        d = Digraph.from_matrix(mk([[NI]]))
        assert not d.has_arc(0, 0)
        assert d.succ[0] == ()

    def test_identity_loops(self):
        d = Digraph.from_matrix(MpMatrix.identity(3))
        arcs = [(i, j, d.weight(i, j)) for i in range(3) for j in d.succ[i]]
        assert arcs == [(0, 0, 0), (1, 1, 0), (2, 2, 0)]


class TestCycleEnumeration:
    def test_worked_example_cycles(self):
        got = cycles_of(example_matrix())
        assert [(c.nodes, c.weight) for c in got] == [
            ((0, 1), 2),
            ((0, 1, 2, 3), 5),
            ((1,), 1),
            ((1, 2), 1),
        ]

    def test_identity(self):
        got = cycles_of(MpMatrix.identity(2))
        assert [(c.nodes, c.weight) for c in got] == [((0,), 0), ((1,), 0)]

    def test_single_arc_no_cycle(self):
        assert cycles_of(mk([[NI, 0], [NI, NI]])) == []

    def test_negative_cycles_excluded(self):
        got = cycles_of(mk([[-1, 0], [0, NI]]))
        assert [(c.nodes, c.weight) for c in got] == [((0, 1), 0)]

    def test_matches_brute_force(self):
        rng = random.Random(333)
        for _ in range(40):
            a = rand_matrix(rng, rng.randint(1, 6), neg_inf_p=0.45)
            want = {
                nodes
                for nodes in brute_elementary_cycles(a)
                if brute_cycle_weight(a, nodes) >= 0
            }
            got = cycles_of(a)
            assert {c.nodes for c in got} == want
            for c in got:
                assert c.weight == brute_cycle_weight(a, c.nodes)
                assert c.nodes[0] == min(c.nodes)
                assert len(set(c.nodes)) == len(c.nodes)
            assert [c.nodes for c in got] == sorted(c.nodes for c in got)

    def test_cap_counts_every_enumerated_cycle(self):
        # the running example has 10 elementary cycles, 4 of them nonnegative
        a = example_matrix()
        assert len(brute_elementary_cycles(a)) == 10
        assert len(cycles_of(a, 10)) == 4
        with pytest.raises(CycleLimitError):
            cycles_of(a, 9)

    def test_cap_boundary_matches_brute_force(self):
        rng = random.Random(4242)
        tried = 0
        while tried < 40:
            a = rand_matrix(rng, rng.randint(1, 7), neg_inf_p=rng.choice([0.3, 0.5, 0.7]))
            k = len(brute_elementary_cycles(a))
            if k == 0:
                continue
            assert cycles_of(a, k) == cycles_of(a)
            with pytest.raises(CycleLimitError):
                cycles_of(a, k - 1)
            tried += 1

    def test_cap_none_means_unbounded(self):
        assert len(cycles_of(example_matrix(), None)) == 4


class TestRotations:
    def test_four_rotations(self):
        c = Cycle((0, 1, 2, 3), 5)
        rots = rotations(c)
        assert [r.nodes for r in rots] == [
            (0, 1, 2, 3),
            (1, 2, 3, 0),
            (2, 3, 0, 1),
            (3, 0, 1, 2),
        ]
        assert all(r.weight == 5 for r in rots)
        assert all(set(r.nodes) == set(c.nodes) for r in rots)

    def test_loop_has_one(self):
        assert [r.nodes for r in rotations(Cycle((2,), 1))] == [(2,)]


class TestFeederPaths:
    def test_worked_example_loop_paths(self):
        a = example_matrix()
        d = Digraph.from_matrix(a)
        loop = Cycle((1,), 1)
        got = [p.nodes for p in feeder_paths(d, loop)]
        assert got == [
            (2, 3, 4, 0, 1),
            (2, 3, 4, 1),
            (3, 4, 2, 1),
            (4, 2, 3, 0, 1),
            (4, 3, 0, 1),
            (4, 3, 2, 1),
        ]

    def test_no_paths_into_identity_loop(self):
        d = Digraph.from_matrix(MpMatrix.identity(3))
        assert feeder_paths(d, Cycle((0,), 0)) == []

    def test_two_node_chain(self):
        # single arc 0 -> 1 feeding the loop at 1
        a = mk([[NI, 3], [NI, 0]])
        d = Digraph.from_matrix(a)
        got = feeder_paths(d, Cycle((1,), 0))
        assert [p.nodes for p in got] == [(0, 1)]
        assert got[0].end == 1

    def test_matches_brute_force(self):
        rng = random.Random(1009)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(2, 5), neg_inf_p=0.45)
            d = Digraph.from_matrix(a)
            for c in cycles_of(a):
                got = {p.nodes for p in feeder_paths(d, c)}
                assert got == brute_feeder_paths(a, c.nodes), (a, c)

    def test_path_cap(self):
        # complete 4-graph: each 2-cycle has 4 maximal feeder paths
        a = mk([[0] * 4 for _ in range(4)])
        d = Digraph.from_matrix(a)
        c = Cycle((0, 1), 0)
        assert len(feeder_paths(d, c)) == 4
        with pytest.raises(CycleLimitError):
            feeder_paths(d, c, 3)

    def test_long_chain_into_loop(self):
        # 0 -> 1 -> ... -> 1199 with a loop at 1199: one path deeper than
        # the default recursion limit
        n = 1200
        arcs = {(i, i + 1): 0 for i in range(n - 1)}
        arcs[(n - 1, n - 1)] = 0
        got = feeder_paths(Digraph(n, arcs), Cycle((n - 1,), 0))
        assert [p.nodes for p in got] == [tuple(range(n))]


class TestMaxCycleMean:
    def test_worked_example(self):
        assert mean_of(example_matrix()) == Fraction(5, 4)

    def test_identity(self):
        assert mean_of(MpMatrix.identity(4)) == 0

    def test_acyclic(self):
        assert mean_of(mk([[NI, 5], [NI, NI]])) is NEG_INF
        assert mean_of(mk([[NI]])) is NEG_INF

    def test_single_entry(self):
        assert mean_of(mk([[-7]])) == -7

    def test_mean_not_weight(self):
        # weight 6 over length 3 beats weight 1 loops only if 2 > 1
        a = mk([[NI, 3, NI], [NI, 1, 3], [0, NI, NI]])
        assert mean_of(a) == 2

    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(1, 6)
            p = rng.choice([0.3, 0.5, 0.8])
            a = rand_matrix(rng, n, neg_inf_p=p)
            want = brute_max_cycle_mean(a)
            got = mean_of(a)
            if want is NEG_INF:
                assert got is NEG_INF
            else:
                assert got == want, (a, got, want)


class TestDeepGraphs:
    """Graphs deeper than the default recursion limit."""

    N = 1200

    def test_one_long_cycle(self):
        d = Digraph(self.N, {(i, (i + 1) % self.N): 1 for i in range(self.N)})
        assert max_cycle_mean(d) == 1
        got = nonneg_elementary_cycles(d)
        assert [(c.nodes, c.weight) for c in got] == [(tuple(range(self.N)), self.N)]

    def test_long_chain_into_loop(self):
        arcs = {(i, i + 1): 0 for i in range(self.N - 1)}
        arcs[(self.N - 1, self.N - 1)] = 2
        d = Digraph(self.N, arcs)
        assert max_cycle_mean(d) == 2
        got = nonneg_elementary_cycles(d)
        assert [(c.nodes, c.weight) for c in got] == [((self.N - 1,), 2)]
