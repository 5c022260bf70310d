"""Exception hierarchy shared across the package."""


class NetmatError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(NetmatError):
    """Matrices of sizes a and b were combined; args stay (a, b) so it pickles."""

    def __str__(self):
        a, b = self.args
        return f"{a}x{a} vs {b}x{b}"


class UndefinedProduct(NetmatError):
    """A Hadamard cell tried to multiply INF by 0, which has no value."""


class InfiniteOperand(NetmatError):
    """An elementwise operation met INF where only finite counts are allowed."""


class NegativeResult(NetmatError):
    """An elementwise subtraction would have produced a negative count."""


class TrajectoryError(NetmatError):
    """A trajectory violates its structural constraints."""


class TooShort(TrajectoryError):
    """Trajectory has fewer than two nodes."""


class RepeatedNode(TrajectoryError):
    """Trajectory visits the same node more than once."""


class MissingEdge(TrajectoryError):
    """A consecutive trajectory pair is not an edge of the graph."""

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        super().__init__(f"no edge {src} -> {dst}")


class CrossCheckFailure(NetmatError):
    """Direct counting and the algebraic reconstruction disagree.

    Raised with the violated identity and the first witness cell; signals an
    implementation bug or mismatched inputs, never bad user data.
    """


class ParseError(NetmatError):
    """An input file could not be parsed; carries source and line context."""

    def __init__(self, message, source=None, line=None):
        self.source = source
        self.line = line
        if source is not None and line is not None:
            message = f"{source}:{line}: {message}"
        elif source is not None:
            message = f"{source}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownIdentity(NetmatError):
    """An identity id is not present in the catalogue."""
