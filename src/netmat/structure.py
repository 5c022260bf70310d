"""Structural matrices of a directed graph: adjacency, distance, external.

The distance matrix counts edges on shortest directed paths (hop counts),
found by breadth-first search from every node; diagonal cells are fixed at
0 even when a cycle returns to the node, so binarized structural matrices
always have inert zero diagonals.  Self-loops are rejected outright for the
same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .matrices import INF, BinaryMatrix, CountMatrix, binarize, ew_sub


def check_labels(labels: tuple[str, ...]) -> None:
    """Raise ValueError unless labels are nonempty, whitespace-free, unique strings."""
    seen = set()
    for lbl in labels:
        if not isinstance(lbl, str) or not lbl or any(c.isspace() for c in lbl):
            raise ValueError(f"label {lbl!r} must be a nonempty whitespace-free token")
        if lbl in seen:
            raise ValueError(f"duplicate node label {lbl!r}")
        seen.add(lbl)


@dataclass(frozen=True)
class Graph:
    """Directed graph over labelled nodes; edges are (source, sink) index pairs."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        labels = tuple(self.labels)
        edges = frozenset((i, j) for i, j in self.edges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        n = len(labels)
        if n < 1:
            raise ValueError("graph needs at least one node")
        check_labels(labels)
        for i, j in edges:
            if not (isinstance(i, int) and isinstance(j, int)):
                raise ValueError(f"edge {(i, j)!r} must be a pair of node indices")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a node outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"self-loop at node {i} is not allowed")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    def successors(self) -> dict[int, tuple[int, ...]]:
        """Adjacency lists keyed by source node, sorted for deterministic walks."""
        out: dict[int, list[int]] = {}
        for i, j in self.edges:
            out.setdefault(i, []).append(j)
        return {i: tuple(sorted(js)) for i, js in sorted(out.items())}


@dataclass(frozen=True)
class StructureBundle:
    """The five structural matrices of one graph.

    A   adjacency (1 where a directed edge exists)
    P   shortest-path hop counts, INF where unreachable, 0 on the diagonal
    E   P - A: hops beyond the direct edge, so positive exactly where a pair
        is reachable but has no direct edge
    """

    A: BinaryMatrix
    P: CountMatrix
    Phat: BinaryMatrix
    E: CountMatrix
    Ehat: BinaryMatrix


def build_adjacency(g: Graph) -> BinaryMatrix:
    """Adjacency matrix of the graph; not necessarily symmetric."""
    return BinaryMatrix(
        tuple(
            tuple(1 if (i, j) in g.edges else 0 for j in range(g.n))
            for i in range(g.n)
        )
    )


def distance_matrix(a: BinaryMatrix) -> CountMatrix:
    """All-pairs shortest hop counts via breadth-first search from each node.

    Off-diagonal cells hold the minimum number of edges on any directed
    path, INF when no path exists; diagonal cells are 0 by convention.
    """
    n = a.n
    succ = [list(compress(range(n), row)) for row in a.cells]
    rows = []
    for src in range(n):
        dist = [INF] * n
        dist[src] = 0
        frontier = [src]
        hops = 0
        while frontier:
            hops += 1
            reached = []
            for u in frontier:
                for w in succ[u]:
                    if dist[w] is INF:
                        dist[w] = hops
                        reached.append(w)
            frontier = reached
        rows.append(tuple(dist))
    return CountMatrix(tuple(rows))


def external_matrix(p: CountMatrix, a: BinaryMatrix) -> CountMatrix:
    """E = P - A: INF where unreachable, 0 where a direct edge exists."""
    return ew_sub(p, a)


def build_structure(g: Graph) -> StructureBundle:
    """Build A, P, E and their binarizations for one graph."""
    a = build_adjacency(g)
    p = distance_matrix(a)
    e = external_matrix(p, a)
    return StructureBundle(A=a, P=p, Phat=binarize(p), E=e, Ehat=binarize(e))
