"""Exact matrix algebra over nonnegative integer counts extended with INF.

A matrix is its rows: cells are plain Python integers (unbounded) or the
INF sentinel marking node pairs with no connecting path.  There is one
matrix class, CountMatrix; a binarization is a CountMatrix whose cells
happen to be 0 and 1, with no tag beside the rows saying so.  All values
are immutable and every operation is a pure function, so matrices are safe
to share across threads.

Cells are validated where data comes in, and only there: the public
CountMatrix constructor and the two matrix parsers of ``fileio`` run one
per-cell loop, which names the first bad row or cell.  Matrices the
package computes skip that loop through the private ``_trusted``
constructor, because their cells are valid by construction: binarize and
the row kernels map valid cells to valid cells (or raise), and the
adjacency, distance, external and utilization builders emit only 0/1
flags, hop counts, INF and counts, as tuples of tuples.

binarize alone knows the hat rule.  It translates a matrix's row-major byte
buffer (``_byte_buffer``, also read by the CSV writer) in one call when
every cell fits in a byte, and maps any other matrix cell by cell.  The
bundles' hats are ``hat`` descriptors, which call binarize the first time
a hat is read, so a reader that never reads a hat never makes it.

The cell rules ``_mul_cell``, ``_add_cell`` and ``_sub_cell`` are the only
code that knows the elementwise rules for INF and negative differences.
The identity evaluator (``netmat.identities``) maps the plain operators
over flat cell columns and hands every INF operand and negative difference
to them.  The row kernels ``_hadamard_rows``, ``_add_rows`` and
``_sub_rows`` do the same over rows; they serve the wrappers and the
utilization cross-checks, and ``_first_bad_cell`` is the cross-checks'
walk for the first cell where two matrices differ.  Each kernel is one
driver, ``_elementwise``, and one cell rule per operator.  The driver
checks dimensions, then maps whole rows with the operator.  INF has no
arithmetic, so an INF operand makes that map raise TypeError, and only
then are the cells walked in row-major order with the cell rule, which
decides the INF cells and raises at the first cell with no value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import total_ordering
from itertools import count, repeat

from .errors import (
    DimensionMismatch,
    InfiniteOperand,
    NegativeResult,
    UndefinedProduct,
)


@total_ordering
class _Unreachable:
    """Sentinel for "no path exists"; orders above every finite count.

    It has no arithmetic: INF + 1, 1 + INF, INF - 1, 1 - INF, INF * 0,
    0 * INF and INF * INF raise TypeError, which the evaluators rely on.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __lt__(self, other):
        if other is INF or isinstance(other, int):
            return False
        return NotImplemented


INF = _Unreachable()

ExtendedCount = int | _Unreachable


@dataclass(frozen=True)
class CountMatrix:
    """Square matrix of extended counts; row = source node, column = sink node."""

    cells: tuple[tuple[ExtendedCount, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", rows)
        n = len(rows)
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
            for j, v in enumerate(row):
                if not (v is INF or (type(v) is int and v >= 0)):
                    raise ValueError(
                        f"cell ({i}, {j}) = {v!r} is not a nonnegative integer or INF"
                    )

    @classmethod
    def _trusted(cls, rows: tuple[tuple[ExtendedCount, ...], ...]):
        # For cells netmat itself computed (module docstring): rows must be
        # an n-tuple of n-tuples of valid cells.
        m = object.__new__(cls)
        # Writing the instance dict skips the frozen __setattr__ as well.
        m.__dict__["cells"] = rows
        return m

    @property
    def n(self) -> int:
        return len(self.cells)

    def __getitem__(self, key: tuple[int, int]) -> ExtendedCount:
        i, j = key
        return self.cells[i][j]


def _byte_buffer(m: CountMatrix) -> bytes | None:
    # The cells in row-major order, one byte each; None if one is INF or > 255.
    try:
        return b"".join(map(bytes, m.cells))
    except (TypeError, ValueError):
        return None


# Maps a cell to its binarization: 0 and INF to 0, any other count to 1;
# _HAT does the same for a byte buffer's cells.
_BIT = {0: 0, INF: 0}.get
_HAT = bytes([0]) + bytes([1]) * 255


def binarize(m: CountMatrix) -> CountMatrix:
    """1 where the cell is a finite positive count, 0 where it is 0 or INF."""
    raw = _byte_buffer(m)
    if raw is not None:
        return CountMatrix._trusted(tuple(zip(*[iter(raw.translate(_HAT))] * m.n)))
    return CountMatrix._trusted(tuple(tuple(map(_BIT, row, repeat(1))) for row in m.cells))


class hat:
    """A bundle's binarization of one of its count fields, made on first read.

    ``Phat = hat()`` in a bundle class reads as ``binarize(self.P)``: the
    count field is the attribute's name without its ``hat`` suffix.  The
    first read stores the binarization in the instance ``__dict__``, which
    shadows this non-data descriptor, so every later read is a plain
    attribute lookup returning the same matrix.  Two threads that both
    read an unmade hat each compute the same value and one of them is
    kept, which is harmless.
    """

    __slots__ = ("name", "count")

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.count = name.removesuffix("hat")

    def __get__(self, bundle, owner=None):
        if bundle is None:
            return self
        m = bundle.__dict__[self.name] = binarize(bundle.__dict__[self.count])
        return m


def _check_dimensions(x, y) -> None:
    if len(x) != len(y):
        raise DimensionMismatch(f"{len(x)}x{len(x)} vs {len(y)}x{len(y)}")


def _elementwise(op, cell_rule, x, y) -> tuple[tuple, ...]:
    # op over every cell pair of x and y, whole rows mapped from C with no
    # Python frame per row.  An INF operand makes op raise TypeError (see
    # _Unreachable), and only then are the cells walked with cell_rule.
    _check_dimensions(x, y)
    try:
        return tuple(map(tuple, map(map, repeat(op), x, y)))
    except TypeError:
        pass
    return _walk(cell_rule, x, y)


def _walk(cell_rule, x, y) -> tuple[tuple, ...]:
    # cell_rule(a, b, i, j) for every cell (i, j), in row-major order, so the
    # first cell that raises is the first in that order.
    row_pairs = enumerate(zip(x, y))
    return tuple(tuple(map(cell_rule, xr, yr, repeat(i), count())) for i, (xr, yr) in row_pairs)


def _first_bad_cell(x, y):
    # (i, j, a, b) of the first cell in row-major order where a != b, else
    # None; equal matrices take one comparison.
    _check_dimensions(x, y)
    if x == y:
        return None
    for i, (xr, yr) in enumerate(zip(x, y)):
        for j, (a, b) in enumerate(zip(xr, yr)):
            if a != b:
                return i, j, a, b
    return None


def hadamard(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise product of two matrices of equal dimension.

    INF times a positive count (or INF) stays INF.  INF times 0 has no
    meaningful value and raises UndefinedProduct.  The product of two 0/1
    matrices is 0/1.
    """
    return CountMatrix._trusted(_hadamard_rows(x.cells, y.cells))


def _mul_cell(a, b, i, j):
    if a is not INF and b is not INF:
        return a * b
    if a == 0 or b == 0:
        raise UndefinedProduct(f"INF * 0 at cell ({i}, {j})")
    return INF


def _hadamard_rows(x, y) -> tuple[tuple, ...]:
    return _elementwise(operator.mul, _mul_cell, x, y)


def ew_add(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise sum; both operands must be finite everywhere."""
    return CountMatrix._trusted(_add_rows(x.cells, y.cells))


def _add_cell(a, b, i, j):
    if a is INF or b is INF:
        raise InfiniteOperand(f"INF operand at cell ({i}, {j})")
    return a + b


def _add_rows(x, y) -> tuple[tuple[int, ...], ...]:
    return _elementwise(operator.add, _add_cell, x, y)


def ew_sub(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise difference x - y.

    Cells where x is INF stay INF (unreachable minus anything finite is
    still unreachable).  A finite cell of x paired with a larger y cell, or
    with an INF y cell, raises NegativeResult; INF - INF raises
    InfiniteOperand.
    """
    return CountMatrix._trusted(_sub_rows(x.cells, y.cells))


def _sub_cell(a, b, i, j):
    if a is INF:
        if b is INF:
            raise InfiniteOperand(f"INF - INF at cell ({i}, {j})")
        return INF
    # INF orders above every count, so this also rejects a finite a - INF.
    if b > a:
        raise NegativeResult(f"{a!r} - {b!r} at cell ({i}, {j})")
    return a - b


def _sub_rows(x, y) -> tuple[tuple, ...]:
    rows = _elementwise(operator.sub, _sub_cell, x, y)
    if min(map(min, rows)) < 0:
        _walk(_sub_cell, x, y)  # raises at the first negative cell
    return rows
