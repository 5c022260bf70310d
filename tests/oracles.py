"""Test-only second implementations kept independent of the library code paths."""

from netmat import INF, Dataset, InfiniteOperand, NegativeResult, UndefinedProduct
from netmat.identities import IdentitySpec, IdentityVerdict, Witness
from netmat.matrices import BinaryMatrix, CountMatrix, _same_dimension
from netmat.structure import StructureBundle
from netmat.utilization import UtilizationBundle


def floyd_warshall_distance_matrix(a: BinaryMatrix) -> CountMatrix:
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


# Per-cell references for the elementwise operations: each visits cells in
# row-major order and raises at the first cell the operation cannot handle.


def binarize_cells(m: CountMatrix) -> BinaryMatrix:
    return BinaryMatrix(
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
    binary = isinstance(x, BinaryMatrix) and isinstance(y, BinaryMatrix)
    return (BinaryMatrix if binary else CountMatrix)(tuple(rows))


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
    env = {**vars(s), **vars(u), "0": CountMatrix.zeros(s.A.n)}
    try:
        lhs = _eval_expr_materialized(spec.lhs, env)
        rhs = _eval_expr_materialized(spec.rhs, env)
    except UndefinedProduct as e:
        raise UndefinedProduct(f"{spec.id}: {e}") from e
    for i, (lr, rr) in enumerate(zip(lhs.cells, rhs.cells)):
        for j, (a, b) in enumerate(zip(lr, rr)):
            if (not a <= b) if spec.relation == "leq" else a != b:
                return IdentityVerdict(spec.id, False, Witness(i, j, a, b), spec)
    return IdentityVerdict(spec.id, True, spec=spec)


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
