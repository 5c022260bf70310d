import operator
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from netmat import INF, InfiniteOperand, NegativeResult, NetmatError, UndefinedProduct
from netmat.errors import DimensionMismatch
from netmat.matrices import (
    CountMatrix,
    _Unreachable,
    binarize,
    ew_add,
    ew_sub,
    hadamard,
)

from oracles import (
    binarize_cells,
    ew_add_cells,
    ew_leq,
    ew_sub_cells,
    hadamard_cells,
    is_zero,
    mutually_exclusive,
    zeros,
)


@st.composite
def matrices(draw, max_n=4, max_val=5, allow_inf=False, n=None, binary=False):
    if n is None:
        n = draw(st.integers(1, max_n))
    cell = st.integers(0, 1 if binary else max_val)
    if allow_inf:
        cell = st.one_of(cell, st.just(INF))
    rows = draw(
        st.lists(
            st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    return CountMatrix(tuple(tuple(r) for r in rows))


@st.composite
def matrix_pairs(draw, **kw):
    n = draw(st.integers(1, 4))
    return draw(matrices(n=n, **kw)), draw(matrices(n=n, **kw))


class TestConstruction:
    def test_rows_normalized_to_tuples(self):
        m = CountMatrix([[0, 1], [2, 3]])
        assert m.cells == ((0, 1), (2, 3))
        assert m.n == 2
        assert m[1, 0] == 2

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            CountMatrix(((0, 1), (2,)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CountMatrix(())

    def test_rejects_negative_and_bool_cells(self):
        with pytest.raises(ValueError):
            CountMatrix(((-1,),))
        with pytest.raises(ValueError):
            CountMatrix(((True,),))

    def test_zeros(self):
        assert zeros(3) == CountMatrix(((0,) * 3,) * 3)

    @pytest.mark.parametrize(
        "bad, shown", [(True, "True"), (1.0, "1.0"), (-1, "-1"), (_Unreachable(), "INF")]
    )
    @pytest.mark.parametrize("later_ok", [True, False])
    def test_first_bad_cell_named(self, bad, shown, later_ok):
        # Neither the INF at (0, 1) nor a later bad cell at (1, 1) is named.
        with pytest.raises(
            ValueError,
            match=re.escape(f"cell (1, 0) = {shown} is not a nonnegative integer or INF"),
        ):
            CountMatrix(((0, INF), (bad, 0 if later_ok else -5)))

    def test_bad_cell_before_short_row_is_named_first(self):
        with pytest.raises(ValueError, match=re.escape("cell (0, 1) = -1 is not")):
            CountMatrix(((0, -1), (2,)))
        with pytest.raises(ValueError, match=re.escape("row 1 has 1 cells, expected 3")):
            CountMatrix(((0, 1, 0), (2,), (-1, 0, 0)))


class TestInfOrdering:
    def test_inf_above_every_finite(self):
        assert 10**18 < INF
        assert INF > 0
        assert INF >= INF
        assert INF <= INF
        assert not INF < INF
        assert not INF <= 5
        assert 5 <= INF

    @pytest.mark.parametrize(
        "other, lt, le, gt, ge",
        [
            (0, False, False, True, True),
            (1, False, False, True, True),
            (10**18, False, False, True, True),
            (True, False, False, True, True),
            (INF, False, True, False, True),
        ],
    )
    def test_truth_table(self, other, lt, le, gt, ge):
        # INF < other, INF <= other, INF > other, INF >= other, then the same
        # four comparisons with the operands swapped.
        assert (INF < other, INF <= other, INF > other, INF >= other) == (lt, le, gt, ge)
        assert (other > INF, other >= INF, other < INF, other <= INF) == (lt, le, gt, ge)

    @pytest.mark.parametrize("other", [1.5, "a"])
    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_orders_only_against_counts(self, op, other):
        with pytest.raises(TypeError):
            op(INF, other)
        with pytest.raises(TypeError):
            op(other, INF)

    def test_inf_not_equal_to_counts(self):
        assert INF != 0
        assert INF != 1
        assert INF == INF

    @pytest.mark.parametrize(
        "op, a, b",
        [
            (operator.add, INF, 1),
            (operator.add, 1, INF),
            (operator.mul, INF, 0),
            (operator.mul, 0, INF),
            (operator.sub, INF, 1),
            (operator.sub, 1, INF),
            (operator.mul, INF, INF),
        ],
    )
    def test_inf_has_no_arithmetic(self, op, a, b):
        # The identity evaluator leaves the plain operators for the cell
        # walk on this TypeError.
        with pytest.raises(TypeError):
            op(a, b)


class TestBinarize:
    def test_inf_and_zero_drop_to_zero(self):
        assert binarize(CountMatrix(((0, 1), (INF, 0)))) == CountMatrix(
            ((0, 1), (0, 0))
        )

    def test_zero_matrix_fixed(self):
        assert binarize(zeros(3)) == zeros(3)

    def test_positive_finite_to_one(self):
        assert binarize(CountMatrix(((0, 2), (3, 0)))) == CountMatrix(((0, 1), (1, 0)))

    @given(matrices(allow_inf=True))
    def test_idempotent(self, m):
        once = binarize(m)
        assert binarize(once) == once


class TestHadamard:
    def test_binary_mask(self):
        x = CountMatrix(((1, 0), (0, 1)))
        y = CountMatrix(((5, 7), (9, 3)))
        assert hadamard(x, y) == CountMatrix(((5, 0), (0, 3)))

    def test_zero_annihilates(self):
        x = CountMatrix(((4, 9), (1, 7)))
        assert hadamard(x, zeros(2)) == zeros(2)

    def test_inf_times_zero_is_undefined(self):
        with pytest.raises(UndefinedProduct):
            hadamard(CountMatrix(((INF,),)), CountMatrix(((0,),)))
        with pytest.raises(UndefinedProduct):
            hadamard(CountMatrix(((0,),)), CountMatrix(((INF,),)))

    def test_inf_times_positive_and_inf(self):
        m = hadamard(CountMatrix(((INF, INF),) * 2), CountMatrix(((3, INF),) * 2))
        assert m.cells == ((INF, INF), (INF, INF))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^2x2 vs 3x3$"):
            hadamard(zeros(2), zeros(3))
        with pytest.raises(DimensionMismatch, match=r"^3x3 vs 2x2$"):
            hadamard(zeros(3), zeros(2))

    def test_binary_operands_give_binary_result(self):
        out = hadamard(CountMatrix(((1, 0), (1, 1))), CountMatrix(((1, 1), (0, 1))))
        assert out.cells == ((1, 0), (0, 1))

    @given(matrix_pairs())
    def test_commutative(self, pair):
        x, y = pair
        assert hadamard(x, y) == hadamard(y, x)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[matrices(n=n)] * 3)))
    def test_associative(self, triple):
        x, y, z = triple
        assert hadamard(hadamard(x, y), z) == hadamard(x, hadamard(y, z))

    @given(matrix_pairs())
    def test_binarize_distributes_over_product(self, pair):
        x, y = pair
        assert binarize(hadamard(x, y)) == hadamard(binarize(x), binarize(y))


class TestAddSub:
    def test_add(self):
        assert ew_add(
            CountMatrix(((1, 2), (0, 0))), CountMatrix(((0, 1), (4, 0)))
        ) == CountMatrix(((1, 3), (4, 0)))

    def test_add_zero_is_identity(self):
        x = CountMatrix(((3, 1), (0, 9)))
        assert ew_add(x, zeros(2)) == x

    def test_add_rejects_inf(self):
        with pytest.raises(InfiniteOperand):
            ew_add(CountMatrix(((INF,),)), CountMatrix(((1,),)))

    def test_sub_zero_is_identity(self):
        x = CountMatrix(((3, INF), (0, 9)))
        assert ew_sub(x, zeros(2)) == x

    def test_sub_inf_minus_finite_stays_inf(self):
        assert ew_sub(CountMatrix(((INF,),)), CountMatrix(((0,),))) == CountMatrix(
            ((INF,),)
        )

    def test_sub_negative_rejected(self):
        with pytest.raises(NegativeResult):
            ew_sub(CountMatrix(((1,),)), CountMatrix(((2,),)))
        with pytest.raises(NegativeResult):
            ew_sub(CountMatrix(((1,),)), CountMatrix(((INF,),)))

    def test_sub_inf_minus_inf_rejected(self):
        with pytest.raises(InfiniteOperand):
            ew_sub(CountMatrix(((INF,),)), CountMatrix(((INF,),)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^2x2 vs 3x3$"):
            ew_add(zeros(2), zeros(3))
        with pytest.raises(DimensionMismatch, match=r"^3x3 vs 2x2$"):
            ew_add(zeros(3), zeros(2))
        with pytest.raises(DimensionMismatch, match=r"^2x2 vs 3x3$"):
            ew_sub(zeros(2), zeros(3))
        with pytest.raises(DimensionMismatch, match=r"^3x3 vs 2x2$"):
            ew_sub(zeros(3), zeros(2))

    @given(matrix_pairs())
    def test_add_then_sub_round_trips(self, pair):
        x, y = pair
        assert ew_sub(ew_add(x, y), y) == x


class TestOrder:
    def test_examples(self):
        assert not ew_leq(CountMatrix(((2,),)), CountMatrix(((1,),)))
        assert ew_leq(CountMatrix(((2,),)), CountMatrix(((INF,),)))
        assert not ew_leq(CountMatrix(((INF,),)), CountMatrix(((10**9,),)))

    @given(matrices(allow_inf=True))
    def test_reflexive(self, m):
        assert ew_leq(m, m)

    @given(matrix_pairs(allow_inf=True))
    def test_antisymmetric(self, pair):
        x, y = pair
        if ew_leq(x, y) and ew_leq(y, x):
            assert x == y

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[matrices(n=n, allow_inf=True)] * 3)))
    def test_transitive(self, triple):
        x, y, z = triple
        if ew_leq(x, y) and ew_leq(y, z):
            assert ew_leq(x, z)

    @given(matrix_pairs())
    def test_chains_by_construction(self, pair):
        x, delta = pair
        y = ew_add(x, delta)
        assert ew_leq(x, y)


class TestZeroAndExclusivity:
    def test_is_zero(self):
        assert is_zero(CountMatrix(((0,),)))
        assert not is_zero(CountMatrix(((1, 0), (0, 1))))
        assert not is_zero(CountMatrix(((INF,),)))

    def test_self_exclusive_only_when_zero(self):
        x = CountMatrix(((1, 0), (0, 0)))
        assert not mutually_exclusive(x, x)
        assert mutually_exclusive(zeros(2), zeros(2))

    def test_inf_counts_as_nonzero(self):
        x = CountMatrix(((INF, 0), (0, 0)))
        y = CountMatrix(((0, 1), (1, 0)))
        assert mutually_exclusive(x, y)
        assert not mutually_exclusive(x, CountMatrix(((1, 0), (0, 0))))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mutually_exclusive(zeros(2), zeros(3))

    @given(matrix_pairs(allow_inf=True))
    def test_symmetric(self, pair):
        x, y = pair
        assert mutually_exclusive(x, y) == mutually_exclusive(y, x)

    @given(matrix_pairs(allow_inf=True))
    def test_agrees_with_zero_product_when_defined(self, pair):
        x, y = pair
        try:
            product = hadamard(x, y)
        except UndefinedProduct:
            return
        assert mutually_exclusive(x, y) == is_zero(product)


class TestBinaryIdempotence:
    @given(matrices(allow_inf=True))
    def test_binary_self_product_is_fixed_point(self, m):
        b = binarize(m)
        assert hadamard(b, b) == b


def _outcome(op, *args):
    try:
        m = op(*args)
    except NetmatError as e:
        return type(e), str(e)
    return type(m), m.cells


# INF only in the last row, after a finite row.
_INF_LAST_ROW = (CountMatrix(((3, 2), (1, INF))), CountMatrix(((1, 2), (1, 3))))
# INF * 0 in the last row after finite rows; x - y is negative in row 0.
_INF_TIMES_0_LAST_ROW = (CountMatrix(((1, 2), (INF, 1))), CountMatrix(((2, 3), (0, 1))))
# The walk meets the negative 1 - 2 at (0, 1) before an INF - INF in a
# later row, or later in the same row.
_NEGATIVE_BEFORE_INF_MINUS_INF = (
    CountMatrix(((INF, 1), (INF, 0))),
    CountMatrix(((0, 2), (INF, 0))),
)
_NEGATIVE_BEFORE_INF_MINUS_INF_SAME_ROW = (
    CountMatrix(((3, 1, INF), (0, 0, 0), (0, 0, 0))),
    CountMatrix(((0, 2, INF), (0, 0, 0), (0, 0, 0))),
)
# A finite cell minus INF is negative.
_FINITE_MINUS_INF = (CountMatrix(((INF, 2), (0, 0))), CountMatrix(((1, INF), (0, 0))))


class TestMatchesPerCellReference:
    """The wrappers over the one cell walk give the per-cell reference's
    result, or its exception and message."""

    @example(_INF_LAST_ROW)
    @example(_INF_TIMES_0_LAST_ROW)
    @given(matrix_pairs(allow_inf=True, max_val=3))
    def test_hadamard(self, pair):
        x, y = pair
        assert _outcome(hadamard, x, y) == _outcome(hadamard_cells, x, y)

    @given(matrix_pairs(binary=True))
    def test_hadamard_binary(self, pair):
        x, y = pair
        assert _outcome(hadamard, x, y) == _outcome(hadamard_cells, x, y)

    @example(_INF_LAST_ROW)
    @example(_INF_TIMES_0_LAST_ROW)
    @given(matrix_pairs(allow_inf=True, max_val=3))
    def test_ew_add(self, pair):
        x, y = pair
        assert _outcome(ew_add, x, y) == _outcome(ew_add_cells, x, y)

    @example(_INF_LAST_ROW)
    @example(_INF_TIMES_0_LAST_ROW)
    @example(_NEGATIVE_BEFORE_INF_MINUS_INF)
    @example(_NEGATIVE_BEFORE_INF_MINUS_INF_SAME_ROW)
    @example(_FINITE_MINUS_INF)
    @given(st.booleans().flatmap(lambda inf: matrix_pairs(allow_inf=inf, max_val=3)))
    def test_ew_sub(self, pair):
        x, y = pair
        assert _outcome(ew_sub, x, y) == _outcome(ew_sub_cells, x, y)

    # Cells from one domain: single digits, counts past one byte, or either
    # with INF; only a matrix of bytes takes the byte-buffer path.
    @example(CountMatrix(((255, 0), (1, 255))))
    @example(CountMatrix(((255, 0), (1, 256))))
    @example(CountMatrix(((3, 0), (1, INF))))
    @example(CountMatrix(((300, 0), (1, INF))))
    @given(
        st.tuples(st.sampled_from([9, 300]), st.booleans()).flatmap(
            lambda domain: matrices(max_val=domain[0], allow_inf=domain[1])
        )
    )
    def test_binarize(self, m):
        assert _outcome(binarize, m) == _outcome(binarize_cells, m)

    def test_sub_names_first_negative_cell(self):
        x = CountMatrix(((3, 1), (0, 4)))
        y = CountMatrix(((1, 2), (1, 0)))
        with pytest.raises(NegativeResult, match=re.escape("1 - 2 at cell (0, 1)")):
            ew_sub(x, y)
