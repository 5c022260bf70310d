"""Every error the package raises survives pickling whole."""

import pickle

import pytest

from netmat import errors

# One instance of each NetmatError subclass, built as the package builds it.
ERRORS = (
    errors.DimensionMismatch(3, 4),
    errors.UndefinedProduct("INF * 0 at cell (0, 1)"),
    errors.InfiniteOperand("INF operand at cell (0, 1)"),
    errors.NegativeResult("1 - 2 at cell (0, 1)"),
    errors.TrajectoryError("node index 9 not in graph with 4 nodes"),
    errors.TooShort("trajectory has 1 node(s), need at least 2"),
    errors.RepeatedNode("node 0 visited twice"),
    errors.MissingEdge("A", "C"),
    errors.CrossCheckFailure("T + Tc = L violated at cell (0, 1): counted 1, derived 2"),
    errors.ParseError("duplicate edge A B", "g.txt", 2),
    errors.UnknownIdentity("no catalogued identity named 'X'"),
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_subclass_is_covered():
    assert {type(e) for e in ERRORS} == set(_subclasses(errors.NetmatError))


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_survives_pickling(error):
    twin = pickle.loads(pickle.dumps(error))
    assert type(twin) is type(error)
    assert str(twin) == str(error)
    assert twin.args == error.args
    assert vars(twin) == vars(error)
    for name in ("src", "dst", "source", "line"):
        assert getattr(twin, name, None) == getattr(error, name, None)

