"""Scalar and vector layer: semiring laws, residuation, span membership."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    DimensionError,
    ImproperVectorError,
    MpMatrix,
    MpVector,
    ScaledBasis,
    bottom,
    boundary_point,
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
from maxplus.semiring import as_scalar, integer_scaled, unscaled
from support import (
    brute_apply,
    brute_in_span,
    brute_join,
    brute_mp_dot,
    brute_normalized,
    brute_scale,
    example_matrix,
    fractional_matrix,
    naive_apply,
    rand_matrix,
    rand_vector,
)

import random

finite = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
scalars = st.one_of(st.just(NEG_INF), finite)


def vectors(n: int):
    return st.lists(scalars, min_size=n, max_size=n).map(MpVector)


def in_index(v, gens):
    """in_span over the masks of the generators, built at once."""
    return in_span(v, support_masks(gens))


def mask_of(w):
    """w's support mask, bit by bit: bit i set when entry i is finite."""
    return sum(1 << i for i, e in enumerate(w) if e is not NEG_INF)


def in_grown_span(v, gens):
    """in_span over a dict grown one generator at a time by plain
    insertion, which must equal the dict support_masks builds at once."""
    fresh = support_masks(gens)
    masks = {}
    for w in gens:
        masks[w] = mask_of(w)
    assert masks == fresh
    return in_span(v, masks)


def product(a, x):
    """A (x), one row_apply per row."""
    return MpVector(a.row_apply(i, x) for i in range(len(a)))


@st.composite
def span_cases(draw):
    """(v, generators): proper generators with repeats, and a v that is
    random, a combination of some generators, or the all -inf vector."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(vectors(n).filter(lambda w: w.is_proper), max_size=6))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    kind = draw(st.sampled_from(["random", "combination", "bottom"]))
    if kind == "bottom":
        return bottom(n), gens
    if kind == "random" or not gens:
        return draw(vectors(n)), gens
    v = bottom(n)
    for w in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4)):
        v = brute_join(v, w.scale(draw(finite)))
    return v, gens


class TestScalarLaws:
    @given(scalars, scalars, scalars)
    def test_join_associative_commutative(self, a, b, c):
        assert max(max(a, b), c) == max(a, max(b, c))
        assert max(a, b) == max(b, a)

    @given(scalars)
    def test_join_idempotent_with_bottom_neutral(self, a):
        assert max(a, a) == a
        assert max(a, NEG_INF) == a

    @given(scalars, scalars, scalars)
    def test_product_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(scalars)
    def test_product_units(self, a):
        assert a + 0 == a
        assert a + NEG_INF is NEG_INF

    @given(scalars, scalars, scalars)
    def test_product_distributes_over_join(self, a, b, c):
        assert a + max(b, c) == max(a + b, a + c)


class TestScalarOrder:
    def test_bottom_below_everything(self):
        assert NEG_INF < -(10**30)
        assert NEG_INF < Fraction(-999, 7)
        assert not NEG_INF < NEG_INF
        assert NEG_INF <= NEG_INF
        assert max(NEG_INF, 2) == 2
        assert max(2, NEG_INF) == 2

    def test_bottom_arithmetic_guards(self):
        with pytest.raises(ArithmeticError):
            -NEG_INF
        with pytest.raises(ArithmeticError):
            3 - NEG_INF
        with pytest.raises(ArithmeticError):
            NEG_INF - NEG_INF
        assert NEG_INF - 3 is NEG_INF

    def test_exact_fraction_mixing(self):
        assert Fraction(1, 2) + Fraction(1, 2) == 1
        assert max(Fraction(1, 3), 0) == Fraction(1, 3)
        # hashing must agree across int and Fraction so sets deduplicate
        assert hash(MpVector((1, 0))) == hash(MpVector((Fraction(1), Fraction(0))))
        assert MpVector((1, 0)) == MpVector((Fraction(1), Fraction(0)))


class TestVectorOps:
    def test_join_scale_examples(self):
        x = vector([0, -1, NEG_INF])
        y = vector([-2, 1, 3])
        assert boundary_point(x, 0, y, 0) == vector([-3, -2, 0])
        assert x.scale(2) == vector([2, 1, NEG_INF])
        assert y.scale(NEG_INF) == vector([NEG_INF] * 3)

    @given(st.integers(1, 6).flatmap(vectors), finite, finite)
    def test_scale_composes(self, x, c, d):
        assert x.scale(c).scale(d) == x.scale(c + d)
        assert x.scale(0) == x

    def test_normalized(self):
        x = vector([3, NEG_INF, 1])
        sc = x.scaled()
        assert sc == vector([0, NEG_INF, -2])
        assert sc.scaled() is sc
        with pytest.raises(ImproperVectorError):
            vector([NEG_INF, NEG_INF]).scaled()

    @given(st.integers(1, 6).flatmap(vectors))
    def test_normalized_properties(self, x):
        if not x.is_proper:
            with pytest.raises(ImproperVectorError):
                x.scaled()
            return
        sc = x.scaled()
        assert max(sc) == 0
        assert sc.scale(max(x)) == x
        assert [e is NEG_INF for e in sc] == [e is NEG_INF for e in x]

    def test_support(self):
        assert vector([0, NEG_INF, 2]).is_proper
        assert unit(4, 2).is_proper
        assert not vector([NEG_INF]).is_proper


# Few values, ints and Fractions both, so int/Fraction ties such as 1
# against Fraction(2, 2) come up often; plus -inf.
tied = st.one_of(
    st.just(NEG_INF),
    st.integers(-3, 3),
    st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
)


def tied_vectors(n: int):
    return st.lists(tied, min_size=n, max_size=n).map(MpVector)


def same(x, y) -> bool:
    """Equal, with every entry (or the scalar itself) of the same type."""
    if isinstance(x, tuple):
        return x == y and list(map(type, x)) == list(map(type, y))
    return x == y and type(x) is type(y)


pairs_of_vectors = st.integers(1, 6).flatmap(
    lambda n: st.tuples(tied_vectors(n), tied_vectors(n))
)


class TestKernelMatchesBrute:
    """The -inf-aware vector operations give the plain operators' results."""

    def test_int_fraction_ties_keep_the_left_entry(self):
        x, y = vector([1, Fraction(2, 2)]), vector([Fraction(2, 2), 1])
        got = boundary_point(x, 0, y, 0)
        assert same(got, brute_normalized(brute_join(x, y))[1])
        assert [type(e) for e in got] == [int, Fraction]
        assert same(mp_dot(vector([0, 0]), y), Fraction(1))
        assert same(mp_dot(vector([0, 0]), x), 1)

    @given(st.integers(1, 6).flatmap(tied_vectors), tied)
    def test_scale(self, x, c):
        assert same(x.scale(c), brute_scale(x, c))

    @given(st.integers(1, 6).flatmap(tied_vectors))
    def test_normalized_and_scaled(self, x):
        if not x.is_proper:
            for f in (MpVector.scaled, brute_normalized):
                with pytest.raises(ImproperVectorError):
                    f(x)
            return
        assert same(x.scaled(), brute_normalized(x)[1])

    @given(pairs_of_vectors)
    def test_mp_dot(self, xy):
        x, y = xy
        assert same(mp_dot(x, y), brute_mp_dot(x, y))

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(tied_vectors(n), min_size=n, max_size=n).map(MpMatrix),
                tied_vectors(n),
            )
        )
    )
    def test_apply_and_row_apply(self, ax):
        a, x = ax
        assert same(product(a, x), brute_apply(a, x))
        for i in range(len(a)):
            assert same(a.row_apply(i, x), brute_mp_dot(a[i], x))

    def test_all_neg_inf(self):
        bot = bottom(3)
        assert same(bot.scale(2), brute_scale(bot, 2))
        assert same(vector([1, 2, 3]).scale(NEG_INF), bottom(3))
        assert mp_dot(bot, vector([0, 1, 2])) is NEG_INF
        assert product(MpMatrix.identity(3), bot) == bot


def unit_or_tied(n: int):
    """A unit vector (the search's satisfier or violator) or any vector."""
    return st.one_of(st.integers(0, n - 1).map(lambda i: unit(n, i)), tied_vectors(n))


class TestBoundaryPoint:
    """The double description step against the join/scale/scale composition."""

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                unit_or_tied(n),
                tied.filter(lambda c: c is not NEG_INF),
                unit_or_tied(n),
                tied,
            )
        )
    )
    def test_matches_brute(self, case):
        v, lo_w, w, up_v = case
        z = brute_join(brute_scale(v, lo_w), brute_scale(w, up_v))
        got = boundary_point(v, lo_w, w, up_v)
        if z.is_proper:
            assert same(got, brute_normalized(z)[1])
        else:
            assert got is None

    def test_tie_keeps_the_v_side(self):
        v, w = vector([1, 2]), vector([Fraction(1), NEG_INF])
        got = boundary_point(v, 0, w, 0)
        assert same(got, vector([-1, 0]))
        assert same(got, brute_normalized(brute_join(v, w))[1])

    def test_all_neg_inf_is_none(self):
        assert boundary_point(bottom(3), 1, bottom(3), 0) is None
        assert boundary_point(bottom(2), 1, unit(2, 0), NEG_INF) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            boundary_point(unit(3, 0), 0, unit(2, 0), 0)
        with pytest.raises(DimensionError):
            boundary_point(unit(2, 0), 0, unit(3, 0), NEG_INF)


class TestMatVec:
    def test_worked_example_products(self):
        a = example_matrix()
        e2 = unit(5, 1)
        assert product(a, e2) == vector([1, 1, 0, NEG_INF, -2])
        assert a.row_apply(0, e2) == 1
        assert a.row_apply(4, vector([1, 0, 4, 2, NEG_INF])) == 3
        shifted = a.shift(-Fraction(5, 4))
        assert shifted[0][0] == Fraction(-17, 4)
        assert shifted[4][4] is NEG_INF

    def test_bottom_absorbs(self):
        a = example_matrix()
        bot = vector([NEG_INF] * 5)
        assert product(a, bot) == bot

    def test_against_naive_double_loop(self):
        rng = random.Random(91)
        for _ in range(80):
            n = rng.randint(1, 6)
            a = rand_matrix(rng, n)
            x = rand_vector(rng, n)
            assert product(a, x) == naive_apply(a, x)

    def test_identity_is_neutral(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 5)
            x = rand_vector(rng, n)
            assert product(MpMatrix.identity(n), x) == x

    def test_mp_dot(self):
        assert mp_dot(vector([1, NEG_INF]), vector([2, 5])) == 3
        assert mp_dot(vector([NEG_INF, NEG_INF]), vector([0, 0])) is NEG_INF


class TestResidual:
    def test_examples(self):
        v = vector([2, 0, NEG_INF])
        w = vector([1, -1, NEG_INF])
        assert residual(v, w) == 1
        # support of w not inside support of v
        assert residual(vector([2, NEG_INF, 0]), vector([1, -1, NEG_INF])) is NEG_INF
        with pytest.raises(ImproperVectorError):
            residual(v, vector([NEG_INF] * 3))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
    def test_residual_is_largest_multiplier(self, vw):
        v, w = vw
        if not w.is_proper:
            return
        c = residual(v, w)
        if c is NEG_INF:
            # some coordinate of w is finite where v is not
            assert any(
                wi is not NEG_INF and vi is NEG_INF for vi, wi in zip(v, w)
            )
            return
        below = w.scale(c)
        assert all(b <= a for a, b in zip(v, below))
        bumped = w.scale(c + 1)
        assert any(not b <= a for a, b in zip(v, bumped))


class TestInSpan:
    def test_self_membership(self):
        v = vector([0, -2, NEG_INF])
        assert in_span(v, support_masks([v]))
        assert in_span(v, support_masks([v.scale(-5)]))

    def test_combination_membership(self):
        x = vector([0, -1, NEG_INF])
        y = vector([-1, 0, NEG_INF])
        assert in_span(brute_join(x, y), support_masks([x, y]))
        assert not in_span(vector([0, 0, 0]), support_masks([x, y]))

    def test_empty_generators_span_only_bottom(self):
        assert in_span(vector([NEG_INF, NEG_INF]), {})
        assert not in_span(vector([0, NEG_INF]), {})

    def test_monotone_in_generators(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 5)
            gens = [rand_vector(rng, n, 0.3) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if g.is_proper]
            if not gens:
                continue
            coeffs = [rng.randint(-4, 4) for _ in gens]
            combo = gens[0].scale(coeffs[0])
            for g, c in zip(gens[1:], coeffs[1:]):
                combo = brute_join(combo, g.scale(c))
            assert in_span(combo, support_masks(gens))
            extra = rand_vector(rng, n)
            if extra.is_proper:
                assert in_span(combo, support_masks(gens + [extra]))

    @given(span_cases())
    def test_agrees_with_principal_solution(self, case):
        v, gens = case
        want = brute_in_span(v, gens)
        assert in_span(v, support_masks(gens)) == want
        assert in_grown_span(v, gens) == want

    @given(span_cases(), st.data())
    def test_skip_leaves_out_every_copy(self, case, data):
        v, gens = case
        skip = data.draw(st.sampled_from(gens + [v]))
        masks = support_masks(gens)
        want = brute_in_span(v, [w for w in gens if w != skip])
        assert in_span(v, masks, skip) == want
        assert len(masks) == len(set(gens))

    def test_duplicates_keep_their_first_key(self):
        ints, fracs = vector([1, 0, NEG_INF]), vector([Fraction(1), 0, NEG_INF])
        for first, second in [(ints, fracs), (fracs, ints)]:
            masks = support_masks([first, second])
            assert masks == {first: 0b011}
            (key,) = masks
            assert [type(e) for e in key] == [type(e) for e in first]

    @given(span_cases(), st.data())
    def test_grown_index_matches_fresh(self, case, data):
        # grow part of the dict by insertion, around a del, as the
        # filter does group by group
        v, gens = case
        k = data.draw(st.integers(0, len(gens)))
        masks = support_masks(gens[:k])
        gone = data.draw(st.sampled_from(gens[:k])) if k else None
        if gone is not None:
            del masks[gone]
        for w in gens[k:]:
            masks[w] = mask_of(w)
        fresh = support_masks([w for w in gens[:k] if w != gone] + gens[k:])
        assert masks == fresh
        for skip in [None, v, *gens]:
            assert in_span(v, masks, skip) == in_span(v, fresh, skip)

    @given(span_cases(), st.data())
    def test_discard_removes_every_copy(self, case, data):
        v, gens = case
        if not gens:
            return
        gone = data.draw(st.sampled_from(gens))
        masks = support_masks(gens)
        del masks[gone]
        rest = [w for w in gens if w != gone]
        assert masks == support_masks(rest)
        assert in_span(v, masks) == brute_in_span(v, rest)

    @pytest.mark.parametrize(
        "check",
        [pytest.param(in_index, id="in_span"), brute_in_span, in_grown_span],
    )
    def test_generator_of_other_dimension(self, check):
        with pytest.raises(DimensionError):
            check(vector([0, -1]), [vector([0, -1, 0])])
        with pytest.raises(DimensionError):
            check(vector([0, -1]), [vector([0, 0]), vector([0])])
        with pytest.raises(DimensionError):
            check(bottom(2), [vector([0])])

    @pytest.mark.parametrize(
        "check",
        [pytest.param(in_index, id="in_span"), brute_in_span, in_grown_span],
    )
    def test_improper_generator(self, check):
        with pytest.raises(ImproperVectorError):
            check(vector([0, -1]), [vector([0, 0]), bottom(2)])
        with pytest.raises(ImproperVectorError):
            check(bottom(2), [bottom(2)])


class TestInputChecks:
    """Each check on a library input raises its error, with its message."""

    @pytest.mark.parametrize(
        "call,error,match",
        [
            pytest.param(
                lambda: unit(3, 3), DimensionError, "out of range", id="unit-index"
            ),
            pytest.param(
                lambda: MpMatrix.from_rows([]),
                DimensionError,
                "at least one row",
                id="no-rows",
            ),
            pytest.param(
                lambda: MpMatrix.from_rows([[0, 0], [0]]),
                DimensionError,
                "row 1 has 1 entries, expected 2",
                id="ragged-row",
            ),
            pytest.param(
                lambda: MpMatrix.identity(2).row_apply(0, vector([0])),
                DimensionError,
                "width 2 against vector of dimension 1",
                id="row-apply-dimension",
            ),
            pytest.param(
                lambda: MpMatrix.identity(2).shift(NEG_INF),
                ValueError,
                "must be finite",
                id="shift-neg-inf",
            ),
            pytest.param(
                lambda: as_scalar(0.5), TypeError, "not a max-plus scalar", id="float"
            ),
            pytest.param(
                lambda: as_scalar(True), TypeError, "not a max-plus scalar", id="bool"
            ),
            pytest.param(
                lambda: support_masks([vector([0, 0]), vector([0])]),
                DimensionError,
                "generators of dimension 2 and 1",
                id="mixed-generators",
            ),
            pytest.param(
                lambda: support_masks([bottom(2)]),
                ImproperVectorError,
                "all -inf vector as a generator",
                id="improper-generator",
            ),
            pytest.param(
                lambda: in_span(vector([0]), support_masks([vector([0, 0])])),
                DimensionError,
                "vector of dimension 1 against generators of dimension 2",
                id="span-dimension",
            ),
        ],
    )
    def test_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestScaledBasis:
    def test_dedup_and_order(self):
        a = vector([0, -1])
        b = vector([-1, 0])
        basis = ScaledBasis([b, a, b])
        assert list(basis) == sorted([a, b])
        assert len(basis) == 2
        assert a in basis
        assert basis == ScaledBasis([a, b])

    def test_rejects_unscaled(self):
        with pytest.raises(ValueError):
            ScaledBasis([vector([1, 0])])
        with pytest.raises(ValueError):
            ScaledBasis([vector([NEG_INF, NEG_INF])])

    def test_empty(self):
        assert len(ScaledBasis(())) == 0


class TestScalarText:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("-inf", NEG_INF),
            ("0", 0),
            ("-7", -7),
            ("5/4", Fraction(5, 4)),
            ("-9/3", -3),
            ("2.5", Fraction(5, 2)),
            ("-0.75", Fraction(-3, 4)),
        ],
    )
    def test_parse(self, token, value):
        got = parse_scalar(token)
        assert got == value
        if value is NEG_INF:
            assert got is NEG_INF

    def test_parse_rejects_junk(self):
        for bad in ("inf", "nan", "x", "1/0", "", "1e3", "1e999999999",
                    "\u0663", "\uff10", "1/\u0663", "\u0663.5"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    @given(scalars)
    def test_format_parse_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    def test_format_vector(self):
        assert format_vector(vector([0, NEG_INF, Fraction(1, 2)])) == "0 -inf 1/2"

    @pytest.mark.parametrize(
        "token",
        ["0", "-0", "+5", "-7", "0042", "9" * 4300],
        ids=["0", "-0", "+5", "-7", "0042", "4300-digits"],
    )
    def test_integer_tokens_parse_to_int(self, token):
        got = parse_scalar(token)
        assert type(got) is int
        assert got == int(Fraction(token))

    @pytest.mark.parametrize(
        "token",
        ["9" * 4301, "1/" + "7" * 4301, "x" * 5000],
        ids=["digits", "denominator", "junk"],
    )
    def test_long_bad_token_quoted_by_prefix(self, token):
        with pytest.raises(ValueError) as err:
            parse_scalar(token)
        message = str(err.value)
        assert len(message) < 100
        assert repr(token[:40])[:-1] in message
        assert f"({len(token)} characters)" in message

    def test_short_bad_token_quoted_whole(self):
        with pytest.raises(ValueError, match=r"^bad scalar token '1/0'$"):
            parse_scalar("1/0")


class TestIntegerScaled:
    def test_integer_matrix_is_returned_as_is(self):
        a = rand_matrix(random.Random(5), 6)
        k, b = integer_scaled(a)
        assert k == 1
        assert b is a

    def test_integral_fractions_become_ints(self):
        # a --lambda shift can leave Fraction entries of denominator 1
        a = MpMatrix.from_rows([[Fraction(-1), Fraction(2)], [NEG_INF, 0]])
        k, b = integer_scaled(a)
        assert k == 1
        assert [[type(e) for e in row] for row in b] == [[int, int], [type(NEG_INF), int]]
        assert b == a

    @pytest.mark.parametrize("seed", range(6))
    def test_fractional_matrix_scales_to_ints(self, seed):
        a = fractional_matrix(random.Random(seed), 6, neg_inf_p=0.3)
        k, b = integer_scaled(a)
        dens = [e.denominator for row in a for e in row if isinstance(e, Fraction)]
        assert dens and k == math.lcm(*dens) > 1
        for row, scaled_row in zip(a, b):
            for e, s in zip(row, scaled_row):
                if e is NEG_INF:
                    assert s is NEG_INF
                else:
                    assert type(s) is int and s == k * e
                    assert unscaled(s, k) == e

    def test_unscaled(self):
        assert unscaled(NEG_INF, 6) is NEG_INF
        assert unscaled(Fraction(1, 3), 1) == Fraction(1, 3)
        got = unscaled(-12, 6)
        assert type(got) is int and got == -2
        assert unscaled(-9, 6) == Fraction(-3, 2)
        assert unscaled(Fraction(7, 2), 6) == Fraction(7, 12)

    @given(vectors(4))
    def test_scaled_vectors_map_to_scaled_vectors(self, v):
        if not v.is_proper:
            return
        k, m = integer_scaled(MpMatrix([v] * 4))
        kx = m[0].scaled()
        assert kx == MpVector(e if e is NEG_INF else k * e for e in v.scaled())
        assert MpVector(unscaled(e, k) for e in kx) == v.scaled()
