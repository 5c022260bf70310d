"""Test-only second implementations kept independent of the library code paths."""

import csv
import io
from collections import deque

from netmat import (
    INF,
    Dataset,
    Graph,
    InfiniteOperand,
    NegativeResult,
    ParseError,
    UndefinedProduct,
)
from netmat.errors import DimensionMismatch, MissingEdge, RepeatedNode, TooShort, TrajectoryError
from netmat.identities import SYMBOLS, IdentitySpec, IdentityVerdict, Witness
from netmat.matrices import CountMatrix
from netmat.structure import StructureBundle
from netmat.utilization import UtilizationBundle


def bundle_matrices(s: StructureBundle, u: UtilizationBundle) -> dict[str, CountMatrix]:
    """The 15 matrices of two bundles by symbol, in the package's SYMBOLS
    order, each read off whichever bundle has it."""
    return {k: getattr(s if hasattr(s, k) else u, k) for k in SYMBOLS[:-1]}


def zeros(n: int) -> CountMatrix:
    """All-zero matrix of dimension n, through the validating constructor."""
    return CountMatrix(((0,) * n,) * n)


def floyd_warshall_distance_matrix(a: CountMatrix) -> CountMatrix:
    """Hop distances by Floyd-Warshall relaxation over every intermediate node."""
    n = a.n
    dist: list[list[int | None]] = [
        [0 if i == j else (1 if a.cells[i][j] else None) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is None or i == k:
                continue
            di = dist[i]
            for j in range(n):
                dkj = dk[j]
                if dkj is None:
                    continue
                alt = dik + dkj
                cur = di[j]
                if cur is None or alt < cur:
                    di[j] = alt
    return CountMatrix(
        tuple(tuple(INF if v is None else v for v in row) for row in dist)
    )


def bfs_shortest_path_cover(g: Graph) -> list[tuple[int, ...]]:
    """One shortest path per ordered pair at hop distance >= 2, as node
    tuples: a FIFO breadth-first search from each source over sorted
    successors, read back along the search tree's parent links."""
    succ = g.successors()
    cover = []
    for src in range(g.n):
        parent: dict[int, int | None] = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in succ.get(u, ()):
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        for dst in sorted(parent):
            if dst == src or (src, dst) in g.edges:
                continue
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            cover.append(tuple(reversed(path)))
    return cover


# Per-cell references for the elementwise operations: each visits cells in
# row-major order and raises at the first cell the operation cannot handle.


def binarize_cells(m: CountMatrix) -> CountMatrix:
    return CountMatrix(
        tuple(tuple(0 if (v is INF or v == 0) else 1 for v in row) for row in m.cells)
    )


def hadamard_cells(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    rows = []
    for i, (xr, yr) in enumerate(zip(x.cells, y.cells)):
        row = []
        for j, (a, b) in enumerate(zip(xr, yr)):
            if a is INF or b is INF:
                other = b if a is INF else a
                if other == 0:
                    raise UndefinedProduct(f"INF * 0 at cell ({i}, {j})")
                row.append(INF)
            else:
                row.append(a * b)
        rows.append(tuple(row))
    return CountMatrix(tuple(rows))


def ew_add_cells(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    rows = []
    for i, (xr, yr) in enumerate(zip(x.cells, y.cells)):
        row = []
        for j, (a, b) in enumerate(zip(xr, yr)):
            if a is INF or b is INF:
                raise InfiniteOperand(f"INF operand at cell ({i}, {j})")
            row.append(a + b)
        rows.append(tuple(row))
    return CountMatrix(tuple(rows))


def ew_sub_cells(x: CountMatrix, y: CountMatrix) -> CountMatrix:
    rows = []
    for i, (xr, yr) in enumerate(zip(x.cells, y.cells)):
        row = []
        for j, (a, b) in enumerate(zip(xr, yr)):
            if a is INF:
                if b is INF:
                    raise InfiniteOperand(f"INF - INF at cell ({i}, {j})")
                row.append(INF)
            elif b is INF or b > a:
                raise NegativeResult(f"{a!r} - {b!r} at cell ({i}, {j})")
            else:
                row.append(a - b)
        rows.append(tuple(row))
    return CountMatrix(tuple(rows))


# Whole-matrix predicates the tests assert with.


def _same_dimension(x: CountMatrix, y: CountMatrix) -> None:
    if x.n != y.n:
        raise DimensionMismatch(x.n, y.n)


def ew_leq(x: CountMatrix, y: CountMatrix) -> bool:
    """True iff x <= y in every cell, with INF as the maximum value."""
    _same_dimension(x, y)
    for xr, yr in zip(x.cells, y.cells):
        for a, b in zip(xr, yr):
            if not a <= b:
                return False
    return True


def is_zero(x: CountMatrix) -> bool:
    """True iff every cell equals 0 (INF counts as nonzero)."""
    for row in x.cells:
        for v in row:
            if v != 0:
                return False
    return True


def mutually_exclusive(x: CountMatrix, y: CountMatrix) -> bool:
    """True iff the matrices have no co-located nonzero cells.

    INF counts as nonzero.  Whenever hadamard(x, y) is defined, this agrees
    with is_zero(hadamard(x, y)), but it never trips over the INF * 0 case.
    """
    _same_dimension(x, y)
    for xr, yr in zip(x.cells, y.cells):
        for a, b in zip(xr, yr):
            if a != 0 and b != 0:
                return False
    return True


# Whole-matrix reference for identity evaluation: every operator node builds
# a validated matrix through the per-cell references above, both sides are
# complete before any cell is compared, and the first differing cell in
# row-major order is the witness.

_CELL_OPS = {"had": hadamard_cells, "add": ew_add_cells, "sub": ew_sub_cells}


def _eval_expr_materialized(expr, env: dict[str, CountMatrix]) -> CountMatrix:
    if isinstance(expr, str):
        try:
            return env[expr]
        except KeyError:
            raise ValueError(f"unknown symbol {expr!r} in expression") from None
    op, lhs, rhs = expr
    left = _eval_expr_materialized(lhs, env)
    right = _eval_expr_materialized(rhs, env)
    if op not in _CELL_OPS:
        raise ValueError(f"unknown operator {op!r} in expression")
    return _CELL_OPS[op](left, right)


def evaluate_identity_materialized(
    spec: IdentitySpec, s: StructureBundle, u: UtilizationBundle
) -> IdentityVerdict:
    env = bundle_matrices(s, u) | {"0": zeros(s.A.n)}
    try:
        lhs = _eval_expr_materialized(spec.lhs, env)
        rhs = _eval_expr_materialized(spec.rhs, env)
    except UndefinedProduct as e:
        raise UndefinedProduct(f"{spec.id}: {e}") from e
    for i, (lr, rr) in enumerate(zip(lhs.cells, rhs.cells)):
        for j, (a, b) in enumerate(zip(lr, rr)):
            if (not a <= b) if spec.relation == "leq" else a != b:
                return IdentityVerdict(spec, False, Witness(i, j, a, b))
    return IdentityVerdict(spec, True)


# Per-pair references for the utilization counts: each visits every ordered
# node pair of every trajectory, one matrix at a time.


def _grid(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _freeze(grid: list[list[int]]) -> CountMatrix:
    return CountMatrix(tuple(tuple(row) for row in grid))


def flow_matrix(d: Dataset) -> CountMatrix:
    """f(i, j) = number of trajectories traversing the edge (i, j)."""
    f = _grid(d.graph.n)
    for t in d.trajectories:
        for i, j in zip(t.nodes, t.nodes[1:]):
            f[i][j] += 1
    return _freeze(f)


def od_matrix(d: Dataset) -> CountMatrix:
    """d(i, j) = number of trajectories visiting i strictly before j."""
    m = _grid(d.graph.n)
    for t in d.trajectories:
        nodes = t.nodes
        for p in range(len(nodes)):
            row = m[nodes[p]]
            for q in range(p + 1, len(nodes)):
                row[nodes[q]] += 1
    return _freeze(m)


def indirect_flow_matrix(d: Dataset) -> CountMatrix:
    """l(i, j) = trajectories connecting i to j with >= 1 node in between."""
    m = _grid(d.graph.n)
    for t in d.trajectories:
        nodes = t.nodes
        for p in range(len(nodes)):
            row = m[nodes[p]]
            for q in range(p + 2, len(nodes)):
                row[nodes[q]] += 1
    return _freeze(m)


def alternative_route_matrix(d: Dataset, s: StructureBundle) -> CountMatrix:
    """Indirect flows between pairs that do have a direct edge (left unused)."""
    m = _grid(d.graph.n)
    a = s.A.cells
    for t in d.trajectories:
        nodes = t.nodes
        for p in range(len(nodes)):
            i = nodes[p]
            for q in range(p + 2, len(nodes)):
                j = nodes[q]
                if a[i][j]:
                    m[i][j] += 1
    return _freeze(m)


def substitute_route_matrix(d: Dataset, s: StructureBundle) -> CountMatrix:
    """Indirect flows between pairs with no direct edge at all."""
    m = _grid(d.graph.n)
    a = s.A.cells
    for t in d.trajectories:
        nodes = t.nodes
        for p in range(len(nodes)):
            i = nodes[p]
            for q in range(p + 2, len(nodes)):
                j = nodes[q]
                if not a[i][j]:
                    m[i][j] += 1
    return _freeze(m)


# Node-by-node references for trajectory ingest: each walks a trajectory one
# token or one node at a time and stops at the first fault.


def trajectory_fault(nodes, g: Graph) -> tuple[type, str] | None:
    """The exception type and message of the first fault that Trajectory
    plus validate_trajectory must report for nodes on g, or None."""
    if len(nodes) < 2:
        return TooShort, f"trajectory has {len(nodes)} node(s), need at least 2"
    for v in nodes:
        if not isinstance(v, int):
            return TrajectoryError, f"node {v!r} is not an integer node index"
    seen = set()
    for v in nodes:
        if v in seen:
            return RepeatedNode, f"node {v} visited twice"
        seen.add(v)
    for v in nodes:
        if not 0 <= v < g.n:
            return TrajectoryError, f"node index {v} not in graph with {g.n} nodes"
    for i, j in zip(nodes, nodes[1:]):
        if (i, j) not in g.edges:
            return MissingEdge, f"no edge {g.labels[i]} -> {g.labels[j]}"
    return None


def trajectories_by_token(text: str, g: Graph, source: str) -> tuple[tuple[int, ...], ...]:
    """The node tuples of a trajectory file, or the ParseError the loader
    must raise, found by looking up one token at a time."""
    index = {lbl: i for i, lbl in enumerate(g.labels)}
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        nodes = []
        for token in line.split():
            if token not in index:
                raise ParseError(f"unknown node label {token!r}", source, line_no)
            nodes.append(index[token])
        fault = trajectory_fault(nodes, g)
        if fault is not None:
            kind, message = fault
            raise ParseError(f"{kind.__name__}: {message}", source, line_no)
        out.append(tuple(nodes))
    return tuple(out)


def matrix_to_csv_rows(m: CountMatrix, labels: tuple[str, ...]) -> str:
    """Matrix CSV written row by row through the csv module, which applies
    str() to every cell and so spells INF as "INF"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", *labels])
    writer.writerows([label, *row] for label, row in zip(labels, m.cells))
    return buf.getvalue()
