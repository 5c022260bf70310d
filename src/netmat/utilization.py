"""Utilization matrices aggregated from acyclic trajectories.

Every matrix is a sum of per-trajectory contributions, so aggregation order
never matters and all cells stay finite.  For one trajectory and an ordered
node pair (i, j) with i strictly before j:

    F   counts the pair when j immediately follows i (the edge is traversed)
    D   counts every such pair (origin-destination at any distance)
    L   counts pairs separated by at least one intermediate node
    T   the L pairs where the graph does offer a direct edge (unused here)
    Tc  the L pairs where no direct edge exists at all

The five count matrices are counted in one backward walk per trajectory
over packed rows: each matrix row is one Python int holding a w-bit field
per column, and each trajectory position adds whole bitmasks of the nodes
after it.  w is the smallest of 8, 16, 32 and 64 bits that holds the number
of trajectories.  A trajectory never repeats a node, so it adds at most 1 to
any cell, no cell exceeds the trajectory count and no field carries into
its neighbour.  Construction then cross-checks the unpacked matrices
against their algebraic reconstructions and refuses to return a bundle that
violates one.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .errors import (
    CrossCheckFailure,
    MissingEdge,
    RepeatedNode,
    TooShort,
    TrajectoryError,
)
from .matrices import BinaryMatrix, CountMatrix, binarize, ew_add, hadamard
from .structure import Graph, StructureBundle


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of distinct node indices visited by one moving agent."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise TooShort(f"trajectory has {len(nodes)} node(s), need at least 2")
        seen = set()
        for v in nodes:
            if v in seen:
                raise RepeatedNode(f"node {v} visited twice")
            seen.add(v)


def validate_trajectory(t: Trajectory, g: Graph) -> None:
    """Check a trajectory against a graph; raises on the first violation."""
    n = g.n
    for v in t.nodes:
        if not 0 <= v < n:
            raise TrajectoryError(f"node index {v} not in graph with {n} nodes")
    edges = g.edges
    for i, j in zip(t.nodes, t.nodes[1:]):
        if (i, j) not in edges:
            raise MissingEdge(g.labels[i], g.labels[j])


@dataclass(frozen=True)
class Dataset:
    """A graph together with trajectories recorded on it; validated on build.

    ``trajectories`` may be any iterable.  Each trajectory is validated as
    it is taken from the iterable, before the next one is requested.
    """

    graph: Graph
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajectories = []
        for t in self.trajectories:
            validate_trajectory(t, self.graph)
            trajectories.append(t)
        object.__setattr__(self, "trajectories", tuple(trajectories))


@dataclass(frozen=True)
class UtilizationBundle:
    """The five utilization matrices of one dataset plus their binarizations."""

    F: CountMatrix
    D: CountMatrix
    L: CountMatrix
    T: CountMatrix
    Tc: CountMatrix
    Fhat: BinaryMatrix
    Dhat: BinaryMatrix
    Lhat: BinaryMatrix
    That: BinaryMatrix
    Tchat: BinaryMatrix


# array typecode of each unsigned field width in bytes, chosen by itemsize
# because the letters map to different sizes on different platforms.
_TYPECODES = {array(c).itemsize: c for c in "QLIH"}


def _unpack(rows: list[int], n: int, w: int) -> CountMatrix:
    size = n * w // 8
    if w == 8:
        # One byte per field: the little-endian bytes are the row's cells.
        return CountMatrix(tuple(r.to_bytes(size, "little") for r in rows))
    # In native byte order memoryview reads each field as one item; on a
    # big-endian host the bytes list the last column first.
    code = _TYPECODES[w // 8]
    cells = tuple(
        memoryview(r.to_bytes(size, sys.byteorder)).cast(code).tolist() for r in rows
    )
    if sys.byteorder == "big":
        cells = tuple(row[::-1] for row in cells)
    return CountMatrix(cells)


def _count_all(d: Dataset) -> tuple[CountMatrix, ...]:
    # Column j of a packed row is the field at bit w*j (module docstring).
    # The direct / indirect split uses the dataset's own edge set.
    n = d.graph.n
    w = 8
    while len(d.trajectories) >> w:
        w *= 2
    bit = [1 << (w * j) for j in range(n)]
    adj = [0] * n
    for i, j in d.graph.edges:
        adj[i] |= bit[j]
    f, dd, l, t, tc = ([0] * n for _ in range(5))
    for traj in d.trajectories:
        nodes = traj.nodes
        # Walking backwards, nb is the bit of the node right after i and
        # after the mask of the nodes at least two steps after i.
        nb = bit[nodes[-1]]
        after = 0
        for i in reversed(nodes[:-1]):
            f[i] += nb
            l[i] += after
            ta = after & adj[i]
            t[i] += ta
            tc[i] += after ^ ta
            dd[i] += after | nb
            after |= nb
            nb = bit[i]
    return tuple(_unpack(rows, n, w) for rows in (f, dd, l, t, tc))


def _cross_check(name: str, counted: CountMatrix, derived: CountMatrix) -> None:
    if counted.cells == derived.cells:
        return
    for i, (cr, dr) in enumerate(zip(counted.cells, derived.cells)):
        for j, (a, b) in enumerate(zip(cr, dr)):
            if a != b:
                raise CrossCheckFailure(
                    f"{name} violated at cell ({i}, {j}): counted {a!r}, derived {b!r}"
                )


def build_utilization(d: Dataset, s: StructureBundle) -> UtilizationBundle:
    """Aggregate all five utilization matrices and their binarizations.

    The counted matrices are verified against their algebraic forms
    (T = A o L, Tc = Ehat o D, L = T + Tc, D = F + T + Tc); any disagreement
    raises CrossCheckFailure naming the identity and the witness cell.
    """
    f, dd, l, t, tc = _count_all(d)
    _cross_check("T = A o L", t, hadamard(s.A, l))
    _cross_check("Tc = Ehat o D", tc, hadamard(s.Ehat, dd))
    _cross_check("L = T + Tc", l, ew_add(t, tc))
    # L has just matched T + Tc cell for cell, so F + L is F + T + Tc.
    _cross_check("D = F + T + Tc", dd, ew_add(f, l))
    return UtilizationBundle(
        F=f,
        D=dd,
        L=l,
        T=t,
        Tc=tc,
        Fhat=binarize(f),
        Dhat=binarize(dd),
        Lhat=binarize(l),
        That=binarize(t),
        Tchat=binarize(tc),
    )


def is_fully_utilized(u: UtilizationBundle, s: StructureBundle) -> bool:
    """True iff every edge carries at least one trajectory (Fhat equals A)."""
    return u.Fhat == s.A
