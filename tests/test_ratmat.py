"""Exact-core tests: determinant, solve, and the p/q text format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkparity.ratmat import (
    DimensionError,
    Matrix,
    det,
    format_rational,
    integer_kernel,
    parse_rational,
    solve,
)
from oracles import cofactor_det


def random_int_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_identity():
    assert det(Matrix.identity(3)) == 1
    assert det(Matrix(0, 0, ())) == 1


def test_det_2x2_hand():
    assert det(Matrix.from_rows([[1, 2], [3, 4]])) == -2


def test_det_non_square_raises():
    with pytest.raises(DimensionError):
        det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_oracle_on_random_integers():
    rng = random.Random(20240601)
    for trial in range(220):
        n = rng.randint(1, 6)
        rows = random_int_matrix(rng, n)
        assert det(Matrix.from_rows(rows)) == cofactor_det(rows), rows


def test_det_matches_cofactor_oracle_on_rationals():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det(Matrix.from_rows(rows)) == cofactor_det(rows)


def test_solve_identity():
    b = [Fraction(3), Fraction(-1), Fraction(7, 2)]
    result = solve(Matrix.identity(3), b)
    assert result.solution == tuple(b)
    assert solve(Matrix.identity(0), []).solution == ()


def test_solve_diagonal():
    result = solve(Matrix.from_rows([[2, 0], [0, 2]]), [Fraction(2), Fraction(4)])
    assert result.solution == (Fraction(1), Fraction(2))


def test_solve_singular():
    result = solve(Matrix.from_rows([[1, 1], [1, 1]]), [Fraction(1), Fraction(2)])
    assert result.is_singular
    assert result.solution is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(Matrix.identity(2), [Fraction(1)])
    with pytest.raises(DimensionError):
        solve(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]), [Fraction(1), Fraction(2)])


def random_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]


def test_solve_then_substitute_is_exact():
    # rational entries make solve clear row denominators of [a | -b]
    for draw in (random_int_matrix, random_rational_matrix):
        rng = random.Random(99)
        solved = 0
        while solved < 80:
            n = rng.randint(1, 6)
            rows = draw(rng, n)
            b = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
            m = Matrix.from_rows(rows)
            result = solve(m, b)
            if result.is_singular:
                assert det(m) == 0
                continue
            x = result.solution
            for i in range(n):
                assert sum(m[i, j] * x[j] for j in range(n)) == b[i]
            solved += 1


def test_det_zero_iff_solve_singular():
    rng = random.Random(5)
    for trial in range(120):
        n = rng.randint(2, 5)
        rows = random_int_matrix(rng, n, -3, 3)
        if trial % 3 == 0:
            rows[n - 1] = rows[0][:]  # force a repeated row
        m = Matrix.from_rows(rows)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        assert (det(m) == 0) == solve(m, b).is_singular


def test_matrix_entry_count_validated():
    with pytest.raises(DimensionError):
        Matrix(2, 2, (Fraction(1), Fraction(2), Fraction(3)))


def test_matrix_ragged_rows_rejected():
    with pytest.raises(DimensionError):
        Matrix.from_rows([[1, 2], [3]])


@st.composite
def _kernel_matrices(draw):
    """m×(m+r) integer matrices, m <= 7, r <= 3; a third have a repeated
    leading column and a third a repeated row, so the leading block is
    singular."""
    m = draw(st.integers(1, 7))
    r = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=m + r, max_size=m + r)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    shape = draw(st.sampled_from(["random", "column", "row"]))
    if m > 1 and shape != "random":
        src, dst = draw(st.permutations(range(m)))[:2]
        if shape == "column":
            for each in rows:
                each[dst] = each[src]
        else:
            rows[dst] = rows[src][:]
    return rows


@given(_kernel_matrices())
@settings(max_examples=120, deadline=None)
def test_integer_kernel_matches_cramer_oracle(rows):
    m = len(rows)
    trailing = range(m, len(rows[0]))
    basis = integer_kernel(rows)
    if cofactor_det([r[:m] for r in rows]) == 0:
        assert basis is None
        return
    assert basis is not None and len(basis) == len(trailing)
    for column, x in zip(trailing, basis):
        assert all(type(v) is int for v in x)
        assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)
        assert x[column] != 0
        assert all(x[other] == 0 for other in trailing if other != column)
        # the Cramer vector of [leading block | this column]: signed maximal
        # minors, nonzero at m here
        block = [r[:m] + [r[column]] for r in rows]
        cramer = [
            (-1) ** i * cofactor_det([r[:i] + r[i + 1:] for r in block]) for i in range(m + 1)
        ]
        own = x[:m] + (x[column],)
        assert all(xi * cramer[m] == own[m] * ci for xi, ci in zip(own, cramer))


def test_integer_kernel_rejects_wrong_shape():
    for rows in (
        [],                         # no rows
        [[1, 2], [3, 4]],           # m×m
        [[1, 2], [3, 4], [5, 6]],   # narrower than square
        [[1, 2, 3], [4, 5]],        # ragged
        [[1, 2, 3], [4, 5, 6, 7]],  # ragged, the second row wider
    ):
        with pytest.raises(DimensionError):
            integer_kernel(rows)


rationals = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**6
)


@given(rationals)
@settings(max_examples=200)
def test_parse_render_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_plain_integer_and_signs():
    assert parse_rational("7") == 7
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("+4/8") == Fraction(1, 2)
    for token, value in (("+5", 5), ("-0", 0), ("007", 7), ("-12/8", Fraction(-3, 2)),
                         (" 10/4\n", Fraction(5, 2))):
        assert parse_rational(token) == value
        assert type(parse_rational(token)) is Fraction
    assert format_rational(Fraction(4, 1)) == "4"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(-12) == "-12"


@pytest.mark.parametrize(
    "bad", ["1.5", "a", "1/0", "1/00", "2/-3", "1e3", "", "1 / 2", "\u0663", "\u0663/\u0664"]
)
def test_parse_rejects_non_rational_text(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
