"""Exact matrix algebra over nonnegative integer counts extended with INF.

A matrix is its rows: cells are plain Python integers (unbounded) or the
INF sentinel marking node pairs with no connecting path.  There is one
matrix class, CountMatrix; a binarization is a CountMatrix whose cells
happen to be 0 and 1, with no tag beside the rows saying so.  All values
are immutable and every operation is a pure function, so matrices are safe
to share across threads.

Cells are validated where data comes in, and only there: the public
CountMatrix constructor runs one per-cell loop, which names the first bad
row or cell.  Matrices the package computes skip that loop through the
private ``_trusted`` constructor, because their cells are valid by
construction: binarize and the cell rules map valid cells to valid cells
(or raise), and the adjacency, distance, external and utilization builders
emit only 0/1 flags, hop counts, INF and counts, as tuples of tuples.

binarize alone knows the hat rule.  It translates a matrix's row-major byte
buffer (``_byte_buffer``, also read by the CSV writer) in one call when
every cell fits in a byte, and maps any other matrix cell by cell.  The
bundles' hats are ``hat`` descriptors, which call binarize the first time
a hat is read, so a reader that never reads a hat never makes it.

The cell rules ``_mul_cell``, ``_add_cell`` and ``_sub_cell`` are the only
code that knows the elementwise rules for INF and negative differences.
``_walk`` is the one cell walk: it applies a cell rule to two flat columns
of cells in order, naming each entry by its row-major cell, so the first
entry that raises names the first such cell.  ``_first_failing`` is the
one finder of the first entry where two columns fail a test.  The identity
evaluator (``netmat.identities``) maps the plain operators over flat cell
columns and hands every INF operand and negative difference to ``_walk``;
the ``build_utilization`` cross-checks name a mismatch with
``_first_failing``, as the evaluator names a witness.  ``hadamard``,
``ew_add`` and ``ew_sub`` walk every cell with their cell rule, so their
results and exceptions are the cell rules' by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import chain, compress, count, repeat

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


def _walk(cell_rule, x, y, n: int, cells) -> list:
    # cell_rule(a, b, i, j) for every entry, in order, with (i, j) the
    # entry's row-major cell of an n x n matrix, so the first entry that
    # raises names the cell.
    return [cell_rule(a, b, *divmod(c, n)) for a, b, c in zip(x, y, cells)]


def _first_failing(bad, x, y) -> int:
    # The index of the first entry where bad(a, b) holds; one must.
    return next(compress(count(), map(bad, x, y)))


def _cellwise(cell_rule, x: CountMatrix, y: CountMatrix) -> CountMatrix:
    n = x.n
    if n != y.n:
        raise DimensionMismatch(n, y.n)
    flat = chain.from_iterable
    column = _walk(cell_rule, flat(x.cells), flat(y.cells), n, range(n * n))
    return CountMatrix._trusted(tuple(zip(*[iter(column)] * n)))


def hadamard(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise product of two matrices of equal dimension.

    INF times a positive count (or INF) stays INF.  INF times 0 has no
    meaningful value and raises UndefinedProduct.  The product of two 0/1
    matrices is 0/1.
    """
    return _cellwise(_mul_cell, x, y)


def _mul_cell(a, b, i, j):
    if a is not INF and b is not INF:
        return a * b
    if a == 0 or b == 0:
        raise UndefinedProduct(f"INF * 0 at cell ({i}, {j})")
    return INF


def ew_add(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise sum; both operands must be finite everywhere."""
    return _cellwise(_add_cell, x, y)


def _add_cell(a, b, i, j):
    if a is INF or b is INF:
        raise InfiniteOperand(f"INF operand at cell ({i}, {j})")
    return a + b


def ew_sub(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    """Elementwise difference x - y.

    Cells where x is INF stay INF (unreachable minus anything finite is
    still unreachable).  A finite cell of x paired with a larger y cell, or
    with an INF y cell, raises NegativeResult; INF - INF raises
    InfiniteOperand.
    """
    return _cellwise(_sub_cell, x, y)


def _sub_cell(a, b, i, j):
    if a is INF:
        if b is INF:
            raise InfiniteOperand(f"INF - INF at cell ({i}, {j})")
        return INF
    # INF orders above every count, so this also rejects a finite a - INF.
    if b > a:
        raise NegativeResult(f"{a!r} - {b!r} at cell ({i}, {j})")
    return a - b
