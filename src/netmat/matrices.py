"""Exact matrix algebra over nonnegative integer counts extended with INF.

Cells are plain Python integers (unbounded) or the INF sentinel marking node
pairs with no connecting path.  CountMatrix holds arbitrary extended counts;
BinaryMatrix restricts every cell to {0, 1} and converts implicitly toward
counts because it simply is one.  All values are immutable and every
operation is a pure function, so matrices are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, repeat

from .errors import (
    DimensionMismatch,
    InfiniteOperand,
    NegativeResult,
    UndefinedProduct,
)


class _Unreachable:
    """Sentinel for "no path exists"; orders above every finite count."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __lt__(self, other):
        if other is INF or isinstance(other, int):
            return False
        return NotImplemented

    def __le__(self, other):
        if other is INF:
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if other is INF:
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if other is INF or isinstance(other, int):
            return True
        return NotImplemented


INF = _Unreachable()

ExtendedCount = int | _Unreachable


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Square matrix of extended counts; row = source node, column = sink node.

    ``has_inf`` records whether any cell is INF, so operations can take a
    whole-row path when neither operand has one.
    """

    cells: tuple[tuple[ExtendedCount, ...], ...]
    has_inf: bool = field(init=False, repr=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", rows)
        n = len(rows)
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        has_inf = None
        if set(map(len, rows)) == {n}:
            has_inf = self._fast_check(rows)
        if has_inf is None:
            # The per-cell loop raises naming the first bad row or cell.
            self._slow_check(rows, n)
            has_inf = any(v is INF for row in rows for v in row)
        object.__setattr__(self, "has_inf", has_inf)

    @staticmethod
    def _fast_check(rows) -> bool | None:
        # Whole-matrix form of _cell_ok over every cell: whether the matrix
        # holds INF, or None when some cell may be bad.
        types = set(map(type, chain.from_iterable(rows)))
        if types == {int}:
            return False if min(chain.from_iterable(rows)) >= 0 else None
        if not types <= {int, _Unreachable}:
            return None
        values = set(chain.from_iterable(rows))
        values.discard(INF)
        if any(type(v) is not int or v < 0 for v in values):
            return None
        return True

    def _slow_check(self, rows, n: int) -> None:
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
            for j, v in enumerate(row):
                if not self._cell_ok(v):
                    raise ValueError(
                        f"cell ({i}, {j}) = {v!r} is not {self._cell_domain()}"
                    )

    @staticmethod
    def _cell_ok(v) -> bool:
        return v is INF or (type(v) is int and v >= 0)

    @staticmethod
    def _cell_domain() -> str:
        return "a nonnegative integer or INF"

    @property
    def n(self) -> int:
        return len(self.cells)

    def __getitem__(self, key: tuple[int, int]) -> ExtendedCount:
        i, j = key
        return self.cells[i][j]

    def __eq__(self, other):
        # Cell-level equality across CountMatrix and BinaryMatrix.
        if isinstance(other, CountMatrix):
            return self.cells == other.cells
        return NotImplemented

    def __hash__(self):
        return hash(self.cells)

    @classmethod
    def zeros(cls, n: int):
        """All-zero matrix of dimension n."""
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        return cls(((0,) * n,) * n)


class BinaryMatrix(CountMatrix):
    """Count matrix whose every cell is 0 or 1."""

    @staticmethod
    def _fast_check(rows) -> bool | None:
        types = set(map(type, chain.from_iterable(rows)))
        if types == {int} and set(chain.from_iterable(rows)) <= {0, 1}:
            return False
        return None

    @staticmethod
    def _cell_ok(v) -> bool:
        return type(v) is int and (v == 0 or v == 1)

    @staticmethod
    def _cell_domain() -> str:
        return "0 or 1"


def _same_dimension(x: CountMatrix, y: CountMatrix) -> None:
    if x.n != y.n:
        raise DimensionMismatch(f"{x.n}x{x.n} vs {y.n}x{y.n}")


# Maps a cell to its binarization: 0 and INF to 0, any other count to 1.
_BIT = {0: 0, INF: 0}.get


def binarize(m: CountMatrix) -> BinaryMatrix:
    """1 where the cell is a finite positive count, 0 where it is 0 or INF."""
    return BinaryMatrix(tuple(tuple(map(_BIT, row, repeat(1))) for row in m.cells))


# The _*_rows functions are the elementwise operations on row tuples, given
# whether either operand holds INF; the identity evaluator calls them
# directly, so it builds no matrix.  Without INF whole rows go through map;
# with INF per-cell loops raise at the first cell that has no value.


def _rowwise(op, x, y) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(map(op, xr, yr)) for xr, yr in zip(x, y))


def hadamard(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise product of two matrices of equal dimension.

    INF times a positive count (or INF) stays INF.  INF times 0 has no
    meaningful value and raises UndefinedProduct.  The result is binary
    whenever both operands are binary.
    """
    _same_dimension(x, y)
    cls = (
        BinaryMatrix
        if isinstance(x, BinaryMatrix) and isinstance(y, BinaryMatrix)
        else CountMatrix
    )
    return cls(_hadamard_rows(x.cells, y.cells, x.has_inf or y.has_inf))


def _hadamard_rows(x, y, has_inf: bool) -> tuple[tuple, ...]:
    if not has_inf:
        return _rowwise(operator.mul, x, y)
    rows = []
    for i, (xr, yr) in enumerate(zip(x, y)):
        row = []
        for j, (a, b) in enumerate(zip(xr, yr)):
            if a is INF or b is INF:
                other = b if a is INF else a
                if other == 0:
                    raise UndefinedProduct(f"INF * 0 at cell ({i}, {j})")
                row.append(INF)
            else:
                row.append(a * b)
        rows.append(tuple(row))
    return tuple(rows)


def ew_add(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise sum; both operands must be finite everywhere."""
    _same_dimension(x, y)
    return CountMatrix(_add_rows(x.cells, y.cells, x.has_inf or y.has_inf))


def _add_rows(x, y, has_inf: bool) -> tuple[tuple[int, ...], ...]:
    if has_inf:
        for i, (xr, yr) in enumerate(zip(x, y)):
            for j, (a, b) in enumerate(zip(xr, yr)):
                if a is INF or b is INF:
                    raise InfiniteOperand(f"INF operand at cell ({i}, {j})")
    return _rowwise(operator.add, x, y)


def ew_sub(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise difference x - y.

    Cells where x is INF stay INF (unreachable minus anything finite is
    still unreachable).  A finite cell of x paired with a larger y cell, or
    with an INF y cell, raises NegativeResult; INF - INF raises
    InfiniteOperand.
    """
    _same_dimension(x, y)
    return CountMatrix(_sub_rows(x.cells, y.cells, x.has_inf or y.has_inf))


def _sub_rows(x, y, has_inf: bool) -> tuple[tuple, ...]:
    if not has_inf:
        rows = _rowwise(operator.sub, x, y)
        if min(map(min, rows)) >= 0:
            return rows
    rows = []
    for i, (xr, yr) in enumerate(zip(x, y)):
        row = []
        for j, (a, b) in enumerate(zip(xr, yr)):
            if a is INF:
                if b is INF:
                    raise InfiniteOperand(f"INF - INF at cell ({i}, {j})")
                row.append(INF)
            elif b is INF or b > a:
                raise NegativeResult(f"{a!r} - {b!r} at cell ({i}, {j})")
            else:
                row.append(a - b)
        rows.append(tuple(row))
    return tuple(rows)

