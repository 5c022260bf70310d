import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netmat import INF, InfiniteOperand, NegativeResult, NetmatError, UndefinedProduct
from netmat.errors import DimensionMismatch
from netmat.matrices import (
    BinaryMatrix,
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
    return (BinaryMatrix if binary else CountMatrix)(tuple(tuple(r) for r in rows))


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

    def test_binary_rejects_two_and_inf(self):
        with pytest.raises(ValueError):
            BinaryMatrix(((2,),))
        with pytest.raises(ValueError):
            BinaryMatrix(((INF,),))

    def test_binary_equals_count_with_same_cells(self):
        assert BinaryMatrix(((0, 1), (1, 0))) == CountMatrix(((0, 1), (1, 0)))

    def test_zeros(self):
        assert CountMatrix.zeros(3) == CountMatrix(((0,) * 3,) * 3)
        assert isinstance(BinaryMatrix.zeros(2), BinaryMatrix)

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
        with pytest.raises(ValueError, match=re.escape(f"cell (1, 0) = {shown} is not 0 or 1")):
            BinaryMatrix(((0, 1), (bad, 1 if later_ok else 2)))

    def test_binary_names_first_out_of_range_cell(self):
        with pytest.raises(ValueError, match=re.escape("cell (0, 1) = 2 is not 0 or 1")):
            BinaryMatrix(((0, 2), (INF, 1)))
        with pytest.raises(ValueError, match=re.escape("cell (0, 1) = INF is not 0 or 1")):
            BinaryMatrix(((0, INF), (2, 1)))

    def test_bad_cell_before_short_row_is_named_first(self):
        with pytest.raises(ValueError, match=re.escape("cell (0, 1) = -1 is not")):
            CountMatrix(((0, -1), (2,)))
        with pytest.raises(ValueError, match=re.escape("row 1 has 1 cells, expected 3")):
            CountMatrix(((0, 1, 0), (2,), (-1, 0, 0)))

    @given(matrices(allow_inf=True))
    def test_has_inf_recorded(self, m):
        assert m.has_inf == any(v is INF for row in m.cells for v in row)
        assert not binarize(m).has_inf


class TestInfOrdering:
    def test_inf_above_every_finite(self):
        assert 10**18 < INF
        assert INF > 0
        assert INF >= INF
        assert INF <= INF
        assert not INF < INF
        assert not INF <= 5
        assert 5 <= INF

    def test_inf_not_equal_to_counts(self):
        assert INF != 0
        assert INF != 1
        assert INF == INF


class TestBinarize:
    def test_inf_and_zero_drop_to_zero(self):
        assert binarize(CountMatrix(((0, 1), (INF, 0)))) == BinaryMatrix(
            ((0, 1), (0, 0))
        )

    def test_zero_matrix_fixed(self):
        assert binarize(CountMatrix.zeros(3)) == BinaryMatrix.zeros(3)

    def test_positive_finite_to_one(self):
        assert binarize(CountMatrix(((0, 2), (3, 0)))) == BinaryMatrix(((0, 1), (1, 0)))

    @given(matrices(allow_inf=True))
    def test_idempotent(self, m):
        once = binarize(m)
        assert binarize(once) == once


class TestHadamard:
    def test_binary_mask(self):
        x = BinaryMatrix(((1, 0), (0, 1)))
        y = CountMatrix(((5, 7), (9, 3)))
        assert hadamard(x, y) == CountMatrix(((5, 0), (0, 3)))

    def test_zero_annihilates(self):
        x = CountMatrix(((4, 9), (1, 7)))
        assert hadamard(x, CountMatrix.zeros(2)) == CountMatrix.zeros(2)

    def test_inf_times_zero_is_undefined(self):
        with pytest.raises(UndefinedProduct):
            hadamard(CountMatrix(((INF,),)), CountMatrix(((0,),)))
        with pytest.raises(UndefinedProduct):
            hadamard(CountMatrix(((0,),)), CountMatrix(((INF,),)))

    def test_inf_times_positive_and_inf(self):
        m = hadamard(CountMatrix(((INF, INF),) * 2), CountMatrix(((3, INF),) * 2))
        assert m.cells == ((INF, INF), (INF, INF))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hadamard(CountMatrix.zeros(2), CountMatrix.zeros(3))

    def test_binary_operands_give_binary_result(self):
        out = hadamard(BinaryMatrix(((1, 0), (1, 1))), BinaryMatrix(((1, 1), (0, 1))))
        assert isinstance(out, BinaryMatrix)

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
        assert ew_add(x, CountMatrix.zeros(2)) == x

    def test_add_rejects_inf(self):
        with pytest.raises(InfiniteOperand):
            ew_add(CountMatrix(((INF,),)), CountMatrix(((1,),)))

    def test_sub_zero_is_identity(self):
        x = CountMatrix(((3, INF), (0, 9)))
        assert ew_sub(x, CountMatrix.zeros(2)) == x

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
        with pytest.raises(DimensionMismatch):
            ew_add(CountMatrix.zeros(2), CountMatrix.zeros(3))
        with pytest.raises(DimensionMismatch):
            ew_sub(CountMatrix.zeros(2), CountMatrix.zeros(3))

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
        assert mutually_exclusive(CountMatrix.zeros(2), CountMatrix.zeros(2))

    def test_inf_counts_as_nonzero(self):
        x = CountMatrix(((INF, 0), (0, 0)))
        y = CountMatrix(((0, 1), (1, 0)))
        assert mutually_exclusive(x, y)
        assert not mutually_exclusive(x, CountMatrix(((1, 0), (0, 0))))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mutually_exclusive(CountMatrix.zeros(2), CountMatrix.zeros(3))

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
    return type(m), m.cells, m.has_inf


class TestMatchesPerCellReference:
    """Whole-row paths give the per-cell result, or its exception and message."""

    @given(matrix_pairs(allow_inf=True, max_val=3))
    def test_hadamard(self, pair):
        x, y = pair
        assert _outcome(hadamard, x, y) == _outcome(hadamard_cells, x, y)

    @given(matrix_pairs(binary=True))
    def test_hadamard_binary(self, pair):
        x, y = pair
        assert _outcome(hadamard, x, y) == _outcome(hadamard_cells, x, y)

    @given(matrix_pairs(allow_inf=True, max_val=3))
    def test_ew_add(self, pair):
        x, y = pair
        assert _outcome(ew_add, x, y) == _outcome(ew_add_cells, x, y)

    @given(st.booleans().flatmap(lambda inf: matrix_pairs(allow_inf=inf, max_val=3)))
    def test_ew_sub(self, pair):
        x, y = pair
        assert _outcome(ew_sub, x, y) == _outcome(ew_sub_cells, x, y)

    @given(matrices(allow_inf=True))
    def test_binarize(self, m):
        assert _outcome(binarize, m) == _outcome(binarize_cells, m)

    def test_sub_names_first_negative_cell(self):
        x = CountMatrix(((3, 1), (0, 4)))
        y = CountMatrix(((1, 2), (1, 0)))
        with pytest.raises(NegativeResult, match=re.escape("1 - 2 at cell (0, 1)")):
            ew_sub(x, y)
