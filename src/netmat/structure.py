"""Structural matrices of a directed graph: adjacency, distance, external.

The distance matrix counts edges on shortest directed paths (hop counts),
found by breadth-first search from every node; diagonal cells are fixed at
0 even when a cycle returns to the node, so binarized structural matrices
always have inert zero diagonals.  Self-loops are rejected outright for the
same reason.

The search works a set of nodes at a time: a node set is one int whose
byte j is 1 for node j, so an adjacency row's bytes are its node's
successor set and one hop is an OR of the frontier's successor sets.  A hop
count of 1 is exactly an edge, so the external matrix is the distance
matrix with its 1 cells mapped to 0.

The hats Phat and Ehat are made by ``netmat.matrices.binarize`` the first
time a reader asks for them, so a bundle only ever holds the hats read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .matrices import INF, CountMatrix, hat


def check_labels(labels: tuple[str, ...]) -> None:
    """Raise ValueError unless labels are unique, nonempty, whitespace-free
    strings that the graph text format can write back: no ``#`` (a comment)
    and no ``nodes:`` prefix (the header)."""
    seen = set()
    for lbl in labels:
        if not isinstance(lbl, str) or not lbl or any(c.isspace() for c in lbl):
            raise ValueError(f"label {lbl!r} must be a nonempty whitespace-free token")
        if "#" in lbl or lbl.startswith("nodes:"):
            raise ValueError(f"label {lbl!r} must not contain '#' or start with 'nodes:'")
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

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], edges: frozenset[tuple[int, int]]):
        # For graphs netmat builds itself (the generators) and graph files
        # the parser has checked: labels must pass check_labels and edges be
        # a frozenset of in-range index pairs with no self-loop.
        g = object.__new__(cls)
        g.__dict__.update(labels=labels, edges=edges)
        return g

    @property
    def n(self) -> int:
        return len(self.labels)

    def successors(self) -> dict[int, tuple[int, ...]]:
        """Adjacency lists keyed by source node, sorted for deterministic walks."""
        out: dict[int, list[int]] = {}
        for i, j in sorted(self.edges):
            out.setdefault(i, []).append(j)
        return {i: tuple(js) for i, js in out.items()}


@dataclass(frozen=True)
class StructureBundle:
    """The three structural matrices of one graph and their two hats.

    A   adjacency (1 where a directed edge exists)
    P   shortest-path hop counts, INF where unreachable, 0 on the diagonal
    E   P - A: hops beyond the direct edge, so positive exactly where a pair
        is reachable but has no direct edge

    The fields are A, P and E; Phat and Ehat are made from P and E the
    first time they are read (``netmat.matrices.hat``).
    """

    A: CountMatrix
    P: CountMatrix
    E: CountMatrix
    Phat = hat()
    Ehat = hat()


def build_adjacency(g: Graph) -> CountMatrix:
    """Adjacency matrix of the graph; not necessarily symmetric."""
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        rows[i][j] = 1
    return CountMatrix._trusted(tuple(map(tuple, rows)))


def distance_matrix(a: CountMatrix) -> CountMatrix:
    """All-pairs shortest hop counts via breadth-first search from each node.

    Off-diagonal cells hold the minimum number of edges on any directed
    path, INF when no path exists; diagonal cells are 0 by convention.
    Node sets are byte-sets (module docstring): each hop reads the
    frontier's nodes off its set's bytes, ORs their successor sets and
    masks out the nodes already seen, which leaves the next frontier.
    """
    n = a.n
    nodes = range(n)
    succ = [int.from_bytes(bytes(row), "little") for row in a.cells]
    everyone = int.from_bytes(b"\x01" * n, "little")
    rows = []
    for src in nodes:
        dist = [INF] * n
        dist[src] = 0
        unseen = everyone ^ (1 << (8 * src))
        frontier = succ[src] & unseen
        hops = 0
        while frontier:
            unseen ^= frontier
            hops += 1
            reach = 0
            for w in compress(nodes, frontier.to_bytes(n, "little")):
                dist[w] = hops
                reach |= succ[w]
            frontier = reach & unseen
        rows.append(tuple(dist))
    return CountMatrix._trusted(tuple(rows))


# Maps a hop count to its external count: an edge (1 hop) to 0, any other
# count or INF to itself.
_EDGE_HOP = {1: 0}.get


def external_matrix(p: CountMatrix) -> CountMatrix:
    """E = P - A: INF where unreachable, 0 where a direct edge exists.

    P is 1 exactly on the edges, so E is P with each 1 mapped to 0.
    """
    rows = tuple(tuple(map(_EDGE_HOP, row, row)) for row in p.cells)
    return CountMatrix._trusted(rows)


def build_structure(g: Graph) -> StructureBundle:
    """Build A, P and E for one graph; their hats are made when read."""
    a = build_adjacency(g)
    p = distance_matrix(a)
    return StructureBundle(A=a, P=p, E=external_matrix(p))
