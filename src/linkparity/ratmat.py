"""Exact rational matrices: fraction-free determinants and linear solving.

The scalar type is ``fractions.Fraction`` (aliased ``Rational``): always
reduced, positive denominator, arbitrary precision.  Determinants and solves
clear denominators row-wise and then run Bareiss fraction-free elimination
over Python integers, so intermediate entries stay bounded by minors of the
input instead of blowing up the way naive fraction elimination does.  No
floating point is used anywhere.

``integer_kernel`` stays in the integers throughout: for an m×(m+r) integer
matrix it runs the same elimination once and then one fraction-free back
substitution per trailing column, giving a kernel basis of integer vectors
with no ``Fraction``.  ``solve`` is the single kernel vector of [a | -b],
divided by its last entry.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import quote_input

Rational = Fraction

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(_INTEGER_RE.pattern + r"(/[0-9]+)?")


class DimensionError(ValueError):
    """Matrix shapes do not fit the requested operation."""


def parse_integer(text: str) -> int:
    """Parse an ASCII ``[+-]?[0-9]+`` literal, surrounding whitespace stripped.

    The integer form ``parse_rational`` accepts, and no other: no ``_``, no
    digits outside ASCII.
    """
    token = text.strip()
    if not _INTEGER_RE.fullmatch(token):
        raise ValueError(f"not an integer literal: {quote_input(text)}")
    return int(token)


def parse_rational(text: str) -> Fraction:
    """Parse the ``p/q`` text form (``p`` alone meaning ``p/1``)."""
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"not a rational literal: {quote_input(text)}")
    if "/" not in token:
        return Fraction(int(token))
    numerator, denominator = token.split("/")
    # the denominator is read first: a zero one is refused whatever the numerator
    q = int(denominator)
    if q == 0:
        raise ValueError(f"zero denominator: {quote_input(text)}")
    return Fraction(int(numerator), q)


def format_rational(value: Fraction | int) -> str:
    """Render as ``p/q``, or plain ``p`` when the denominator is 1.

    ``value`` is a ``Fraction`` or an ``int``, whose ``str`` is already that
    form, so it is not converted.
    """
    return str(value)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        materialized = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
        nrows = len(materialized)
        ncols = len(materialized[0]) if materialized else 0
        if any(len(row) != ncols for row in materialized):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, tuple(x for row in materialized for x in row))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(
            Fraction(1) if i == j else Fraction(0)
            for i in range(n) for j in range(n)
        ))

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(index)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a square linear solve: a unique solution, or singular."""

    solution: tuple[Fraction, ...] | None

    @property
    def is_singular(self) -> bool:
        return self.solution is None


def _clear_row_denominators(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a row by the lcm of its denominators; return (integer row, scale)."""
    scale = lcm(*(x.denominator for x in row)) if row else 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _bareiss_eliminate(rows: list[list[int]], width: int) -> int | None:
    """Fraction-free forward elimination in place.

    ``rows`` is a square-system augmented matrix (``len(rows)`` equations,
    ``width`` >= ``len(rows)`` columns).  Returns the sign of the row
    permutation used, or None if the leading square block is singular.
    Divisions by the previous pivot are exact (Bareiss).
    """
    n = len(rows)
    sign = 1
    prev = 1
    for p in range(n):
        pivot_row = next((r for r in range(p, n) if rows[r][p] != 0), None)
        if pivot_row is None:
            return None
        if pivot_row != p:
            rows[p], rows[pivot_row] = rows[pivot_row], rows[p]
            sign = -sign
        pivot = rows[p][p]
        for i in range(p + 1, n):
            ri = rows[i]
            head = ri[p]
            rp = rows[p]
            for j in range(p + 1, width):
                ri[j] = (pivot * ri[j] - head * rp[j]) // prev
            ri[p] = 0
        prev = pivot
    return sign


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    int_rows = []
    denominator = 1
    for i in range(n):
        int_row, scale = _clear_row_denominators(m.row(i))
        int_rows.append(int_row)
        denominator *= scale
    sign = _bareiss_eliminate(int_rows, n)
    if sign is None:
        return Fraction(0)
    return Fraction(sign * int_rows[n - 1][n - 1], denominator)


def solve(a: Matrix, b: Sequence[Fraction]) -> SolveResult:
    """Solve ``a @ x = b`` exactly for square ``a``.

    Returns a unique solution when ``det(a) != 0`` and singular otherwise.
    Each row of [a | -b] is cleared of denominators, a positive scale that
    keeps its kernel, so ``integer_kernel`` finds an integer (y, t) with
    a·y = t·b and t != 0 exactly when ``a`` is regular; then x = y / t, one
    ``Fraction`` per entry.  A 0×0 system has the empty solution.
    """
    if not a.is_square:
        raise DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    if len(b) != a.rows:
        raise DimensionError(f"right-hand side length {len(b)} != {a.rows} rows")
    if a.rows == 0:
        return SolveResult(())
    basis = integer_kernel([
        _clear_row_denominators(a.row(i) + (-Fraction(b[i]),))[0] for i in range(a.rows)
    ])
    if basis is None:
        return SolveResult(None)
    *scaled, t = basis[0]
    return SolveResult(tuple(Fraction(x, t) for x in scaled))


def integer_kernel(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...] | None:
    """A basis of the kernel of an m×(m+r) integer matrix, m, r >= 1.

    Returns None when the leading m×m block is singular.  Otherwise the
    kernel is r-dimensional, and basis vector f is zero at every trailing
    column but m + f, where it holds the leading block's determinant up to
    sign, which makes every entry an integer (Cramer's rule on the leading
    block and column m + f).  One Bareiss elimination is followed by one
    fraction-free back substitution per trailing column, in which every
    division is exact, so no ``Fraction`` is formed.
    """
    m = len(rows)
    width = len(rows[0]) if rows else 0
    if m == 0 or width <= m or any(len(row) != width for row in rows):
        raise DimensionError(f"integer_kernel needs an m×(m+r) matrix, m, r >= 1; got {m} rows")
    upper = [list(row) for row in rows]
    if _bareiss_eliminate(upper, width) is None:
        return None
    scale = upper[m - 1][m - 1]
    basis = []
    for column in range(m, width):
        x = [0] * width
        x[column] = scale
        for i in range(m - 1, -1, -1):
            row = upper[i]
            acc = row[column] * scale
            for j in range(i + 1, m):
                acc += row[j] * x[j]
            x[i] = -acc // row[i]
        basis.append(tuple(x))
    return tuple(basis)
