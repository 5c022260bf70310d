"""Utilization matrices aggregated from acyclic trajectories.

Every matrix is a sum of per-trajectory contributions, so aggregation order
never matters and all cells stay finite.  For one trajectory and an ordered
node pair (i, j) with i strictly before j:

    F   counts the pair when j immediately follows i (the edge is traversed)
    D   counts every such pair (origin-destination at any distance)
    L   counts pairs separated by at least one intermediate node
    T   the L pairs where the graph does offer a direct edge (unused here)
    Tc  the L pairs where no direct edge exists at all

F, D and L are counted in one backward walk per trajectory over packed
rows: each matrix row is one Python int holding an 8-bit field per column,
and each trajectory position adds whole bitmasks of the nodes after it.  A
trajectory never repeats a node, so it adds at most 1 to any cell, and only
to the rows of the nodes it walks out of.  A row walked at most 255 times
therefore holds no field above 255, and no field carries into its
neighbour.  The counts are unpacked at w bits, the smallest of 8, 16, 32
and 64 that holds the number of trajectories, which no cell exceeds.  When
w is 8, no row can be walked 256 times.  Otherwise the walk keeps a count
per row: each time a row has been walked 255 times, its three 8-bit rows
are added into w-bit per-row totals and cleared, and what is left of every
row is added once at the end.  So a row is widened during the walk only as
often as its own traffic needs, never the whole matrix at once.

T and Tc are not walked.  A and Ehat never share a nonzero cell, so L
splits into T = A o L and Tc = Ehat o L (the paper's A o Ehat = 0 split).
Once the walk is done, each row of L is masked with the w-bit fields of
its row's edges: the masked row is T's and the rest is Tc's.  Fields hold
whole counts and never carry, so masking each row once after the walk
gives the same counts as masking every step's addend.  Construction then
cross-checks all five unpacked matrices against their algebraic
reconstructions, computed as row tuples from A, Ehat and the counts, and
refuses to return a bundle that violates one.

Unpacking joins the packed rows of all five matrices into one bytes
buffer, reads it as one flat run of 5*n*n cells of w bits and cuts that run
into 5*n rows of n, the same way at every field width.  Unpacked counts are
nonnegative ints by construction, so every matrix of the bundle is built
without a validating scan (see ``netmat.matrices``).  The five hats are
made by ``netmat.matrices.binarize``, the only code that knows the hat
rule, the first time each is read; a reader that reads no hat, such as a
hunt for a relation between counts, makes none of them.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, and_, mul, ne, xor

from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    MissingEdge,
    RepeatedNode,
    TooShort,
    TrajectoryError,
)
from .matrices import CountMatrix, _first_failing, hat
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
        # Whole-tuple checks first; the walks only name the first fault.
        if not all(map(isinstance, nodes, repeat(int))):
            v = next(v for v in nodes if not isinstance(v, int))
            raise TrajectoryError(f"node {v!r} is not an integer node index")
        if len(set(nodes)) != len(nodes):
            seen = set()
            for v in nodes:
                if v in seen:
                    raise RepeatedNode(f"node {v} visited twice")
                seen.add(v)

    @classmethod
    def _trusted(cls, nodes: tuple[int, ...]):
        # For paths netmat walks itself and lines the trajectory reader has
        # checked: at least 2 nodes, none repeated.
        t = object.__new__(cls)
        t.__dict__["nodes"] = nodes
        return t


def validate_trajectory(t: Trajectory, g: Graph) -> None:
    """Check a trajectory against a graph; raises on the first violation."""
    nodes = t.nodes
    n = g.n
    if min(nodes) < 0 or max(nodes) >= n:
        v = next(v for v in nodes if not 0 <= v < n)
        raise TrajectoryError(f"node index {v} not in graph with {n} nodes")
    edges = g.edges
    if not edges.issuperset(zip(nodes, nodes[1:])):
        i, j = next(e for e in zip(nodes, nodes[1:]) if e not in edges)
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
        g = self.graph
        if not isinstance(g, Graph):
            raise ValueError(f"dataset graph must be a Graph, got {g!r}")
        trajectories = []
        for i, t in enumerate(self.trajectories):
            if not isinstance(t, Trajectory):
                raise TrajectoryError(f"trajectory {i} is {t!r}, not a Trajectory")
            validate_trajectory(t, g)
            trajectories.append(t)
        object.__setattr__(self, "trajectories", tuple(trajectories))

    @classmethod
    def _trusted(cls, graph: Graph, trajectories: tuple[Trajectory, ...]):
        # For datasets netmat generates: every trajectory walks edges of graph.
        d = object.__new__(cls)
        d.__dict__.update(graph=graph, trajectories=trajectories)
        return d


@dataclass(frozen=True)
class UtilizationBundle:
    """The five utilization matrices of one dataset and their hats.

    The fields are the five counts; each hat is made from its count the
    first time it is read (``netmat.matrices.hat``).
    """

    F: CountMatrix
    D: CountMatrix
    L: CountMatrix
    T: CountMatrix
    Tc: CountMatrix
    Fhat = hat()
    Dhat = hat()
    Lhat = hat()
    That = hat()
    Tchat = hat()


# array typecode of each unsigned field width in bytes, chosen by itemsize
# because the letters map to different sizes on different platforms.
_TYPECODES = {array(c).itemsize: c for c in "QLIHB"}


def _unpack(counts: list[list[int]], n: int, w: int) -> tuple[CountMatrix, ...]:
    # Each packed matrix's counts, cut from one run into rows of n, n rows
    # per matrix (module docstring).  In native byte order memoryview reads
    # each field as one item; on a big-endian host the bytes list each
    # row's last column first.
    size = n * w // 8
    raw = b"".join([r.to_bytes(size, sys.byteorder) for rows in counts for r in rows])
    cells = zip(*[iter(memoryview(raw).cast(_TYPECODES[w // 8]))] * n)
    if sys.byteorder == "big":
        cells = (row[::-1] for row in cells)
    return tuple(CountMatrix._trusted(tuple(islice(cells, n))) for _ in counts)


def _count_all(d: Dataset) -> tuple[CountMatrix, ...]:
    # F, D and L are walked; T and Tc are L's rows split by the w-bit mask
    # of each row's edges.  Column j of a packed row is the field at bit
    # w*j, 8 during the walk (module docstring).
    n = d.graph.n
    w = 8
    while len(d.trajectories) >> w:
        w *= 2
    bit = [1 << (8 * j) for j in range(n)]
    rows = f, dd, l = [[0] * n for _ in range(3)]
    wide = w > 8
    if wide:
        k = w // 8
        totals = [[0] * n for _ in range(3)]
        walks = [0] * n
        # Byte j of an 8-bit row lands on byte k*j, the low byte of field j
        # of a w-bit row; the other bytes stay 0.
        spread = bytearray(n * k)

        def widen(i):
            for m, total in zip(rows, totals):
                spread[::k] = m[i].to_bytes(n, "little")
                total[i] += int.from_bytes(spread, "little")
                m[i] = 0
            walks[i] = 0

    for traj in d.trajectories:
        nodes = traj.nodes
        # Walking backwards, nb is the bit of the node right after i and
        # after the mask of the nodes at least two steps after i.
        nb = bit[nodes[-1]]
        after = 0
        for i in reversed(nodes[:-1]):
            f[i] += nb
            l[i] += after
            after |= nb
            dd[i] += after
            nb = bit[i]
            if wide:
                walks[i] += 1
                if walks[i] == 255:
                    widen(i)
    if wide:
        for i in range(n):
            widen(i)
        f, dd, l = totals
    adj = [0] * n
    for i, j in d.graph.edges:
        adj[i] |= ((1 << w) - 1) << (w * j)
    t = list(map(and_, l, adj))
    return _unpack((f, dd, l, t, list(map(xor, l, t))), n, w)


def _cross_check(name: str, counted: CountMatrix, op, x: CountMatrix, y: CountMatrix) -> None:
    # op over the rows of x and y, which are finite: A and Ehat are 0/1 and
    # the counts are ints.  Only a mismatch is flattened to name its cell.
    derived = tuple(map(tuple, map(map, repeat(op), x.cells, y.cells)))
    if counted.cells != derived:
        a = list(chain.from_iterable(counted.cells))
        b = list(chain.from_iterable(derived))
        k = _first_failing(ne, a, b)
        i, j = divmod(k, counted.n)
        raise CrossCheckFailure(
            f"{name} violated at cell ({i}, {j}): counted {a[k]!r}, derived {b[k]!r}"
        )


def build_utilization(d: Dataset, s: StructureBundle) -> UtilizationBundle:
    """Aggregate all five utilization matrices; their hats are made when read.

    The counted matrices are verified against their algebraic forms
    (T = A o L, Tc = Ehat o D, L = T + Tc, D = F + T + Tc); any disagreement
    raises CrossCheckFailure naming the identity and the witness cell.  A
    structure of another dimension than the dataset's graph raises
    DimensionMismatch.
    """
    n = d.graph.n
    if s.A.n != n:
        # The cross-checks' maps would stop at the smaller matrix.
        raise DimensionMismatch(s.A.n, n)
    counts = f, dd, l, t, tc = _count_all(d)
    _cross_check("T = A o L", t, mul, s.A, l)
    _cross_check("Tc = Ehat o D", tc, mul, s.Ehat, dd)
    _cross_check("L = T + Tc", l, add, t, tc)
    # L has just matched T + Tc cell for cell, so F + L is F + T + Tc.
    _cross_check("D = F + T + Tc", dd, add, f, l)
    return UtilizationBundle(*counts)


def is_fully_utilized(u: UtilizationBundle, s: StructureBundle) -> bool:
    """True iff every edge carries at least one trajectory (Fhat equals A)."""
    return u.Fhat == s.A
