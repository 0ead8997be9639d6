"""Text format: parsing, rendering, locations in error messages."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    MatrixParseError,
    MpMatrix,
    parse_matrix,
    parse_vector,
    render_matrix,
    vector,
)
from support import EXAMPLE_TEXT, NI, example_matrix, mk

entry = st.one_of(
    st.just(NEG_INF),
    st.integers(-99, 99),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)


class TestParseMatrix:
    def test_worked_example(self):
        doc = parse_matrix(EXAMPLE_TEXT)
        assert len(doc.matrix) == 5
        assert doc.matrix[0][0] == -3
        assert doc.matrix[2][3] == 2
        assert doc.matrix[4][4] is NEG_INF

    def test_single_entry(self):
        assert parse_matrix("0\n").matrix == mk([[0]])
        assert parse_matrix("-inf").matrix == mk([[NI]])

    def test_fractions_and_decimals(self):
        doc = parse_matrix("1/2 -0.25\n3 -inf\n")
        assert doc.matrix[0][0] == Fraction(1, 2)
        assert doc.matrix[0][1] == Fraction(-1, 4)
        assert isinstance(doc.matrix[1][0], int)

    def test_trailing_blank_lines_ok(self):
        assert len(parse_matrix("0 1\n2 3\n\n\n").matrix) == 2

    def test_ragged_row_reports_line(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("1 2\n3\n")
        assert err.value.line == 2
        assert "expected 2" in str(err.value)

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("1 2\n3 x\n")
        assert err.value.line == 2
        assert err.value.column == 2
        assert "'x'" in str(err.value)

    def test_blank_line_inside(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("1 2 3\n\n4 5 6\n7 8 9\n")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("")
        with pytest.raises(MatrixParseError):
            parse_matrix("\n\n")

    def test_float_like_tokens_are_exact(self):
        m = parse_matrix("0.1\n").matrix
        assert m[0][0] == Fraction(1, 10)


class TestRenderMatrix:
    def test_worked_example_round_trip(self):
        a = example_matrix()
        assert parse_matrix(render_matrix(a)).matrix == a
        assert render_matrix(a).splitlines()[0] == "-3 1 -inf -inf -inf"

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_round_trip(self, rows):
        a = MpMatrix.from_rows(rows)
        assert parse_matrix(render_matrix(a)).matrix == a


class TestParseVector:
    def test_basic(self):
        assert parse_vector("0 -inf 5/4", 3) == vector([0, NI, Fraction(5, 4)])

    def test_wrong_arity(self):
        with pytest.raises(MatrixParseError):
            parse_vector("0 1", 3)

    def test_bad_token_column(self):
        with pytest.raises(MatrixParseError) as err:
            parse_vector("0 oops 2", 3)
        assert err.value.column == 2
