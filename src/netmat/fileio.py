"""Text serialization for graphs, trajectories, and matrices.

Formats:

  graph file        optional header ``nodes: lbl1 lbl2 ...`` fixing label
                    order and declaring isolated nodes, then one ``src dst``
                    edge per line; ``#`` starts a comment
  trajectory file   one trajectory per line as whitespace-separated node
                    labels; ``#`` starts a comment
  matrix CSV        header row and column of node labels, unreachable cells
                    spelled as the literal token ``INF``
  matrix JSON       {"n": ..., "labels": [...], "cells": [[...]]} with null
                    encoding unreachable cells

All writers emit LF newlines and a fixed ordering, so serialization is
byte-stable for equal inputs.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .errors import ParseError, TrajectoryError
from .matrices import INF, CountMatrix
from .structure import Graph, check_labels
from .utilization import Dataset, Trajectory


def _strip_comment(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def graph_to_text(g: Graph) -> str:
    lines = ["nodes: " + " ".join(g.labels)]
    lines.extend(f"{g.labels[i]} {g.labels[j]}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str, source: str = "<graph>") -> Graph:
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    header_seen = False
    edges_seen = False

    def intern(token: str, line_no: int) -> int:
        if token in index:
            return index[token]
        if header_seen:
            raise ParseError(
                f"label {token!r} is not declared in the nodes: header", source, line_no
            )
        index[token] = len(labels)
        labels.append(token)
        return index[token]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line.startswith("nodes:"):
            if header_seen:
                raise ParseError("duplicate nodes: header", source, line_no)
            if edges_seen:
                raise ParseError("nodes: header must precede edge lines", source, line_no)
            for token in line[len("nodes:") :].split():
                if token in index:
                    raise ParseError(f"duplicate node label {token!r}", source, line_no)
                index[token] = len(labels)
                labels.append(token)
            header_seen = True
            continue
        edges_seen = True
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'src dst', got {line!r}", source, line_no)
        i = intern(parts[0], line_no)
        j = intern(parts[1], line_no)
        if i == j:
            raise ParseError(f"self-loop {parts[0]!r} is not allowed", source, line_no)
        if (i, j) in edges:
            raise ParseError(f"duplicate edge {parts[0]} {parts[1]}", source, line_no)
        edges.add((i, j))
    if not labels:
        raise ParseError("graph file declares no nodes", source)
    try:
        return Graph(tuple(labels), frozenset(edges))
    except ValueError as e:
        raise ParseError(str(e), source) from e


def load_graph(path: str | Path) -> Graph:
    path = Path(path)
    return graph_from_text(path.read_text(encoding="utf-8"), source=str(path))


def trajectories_to_text(trajectories, labels: tuple[str, ...]) -> str:
    lines = [" ".join(labels[v] for v in t.nodes) for t in trajectories]
    return "\n".join(lines) + ("\n" if lines else "")


def _dataset_from_text(text: str, graph: Graph, source: str) -> Dataset:
    index = {lbl: i for i, lbl in enumerate(graph.labels)}
    line_no = None

    def parsed():
        # Dataset validates each trajectory as it is yielded, before the
        # next line is read, so line_no names the line of any failure and
        # errors surface in line order.
        nonlocal line_no
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            nodes = []
            for token in line.split():
                if token not in index:
                    raise ParseError(f"unknown node label {token!r}", source, line_no)
                nodes.append(index[token])
            yield Trajectory(tuple(nodes))

    try:
        return Dataset(graph, parsed())
    except TrajectoryError as e:
        raise ParseError(f"{type(e).__name__}: {e}", source, line_no) from e


def trajectories_from_text(
    text: str, graph: Graph, source: str = "<trajectories>"
) -> tuple[Trajectory, ...]:
    return _dataset_from_text(text, graph, source).trajectories


def load_trajectories(path: str | Path, graph: Graph) -> tuple[Trajectory, ...]:
    path = Path(path)
    return trajectories_from_text(
        path.read_text(encoding="utf-8"), graph, source=str(path)
    )


def load_dataset(graph_path: str | Path, trajectories_path: str | Path) -> Dataset:
    """A graph file and a trajectory file on it, each trajectory validated once."""
    graph = load_graph(graph_path)
    path = Path(trajectories_path)
    return _dataset_from_text(path.read_text(encoding="utf-8"), graph, source=str(path))


def matrix_to_csv(m: CountMatrix, labels: tuple[str, ...]) -> str:
    if len(labels) != m.n:
        raise ValueError(f"{len(labels)} labels for a {m.n}x{m.n} matrix")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv applies str() to every cell, which spells INF as "INF".
    writer.writerow(["", *labels])
    writer.writerows([label, *row] for label, row in zip(labels, m.cells))
    return buf.getvalue()


def _parse_cell(token: str, source: str, line_no: int):
    token = token.strip()
    if token == "INF":
        return INF
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"bad cell value {token!r}", source, line_no) from None
    if value < 0:
        raise ParseError(f"negative cell value {value}", source, line_no)
    return value


def _check_matrix_labels(labels, source: str, line_no: int | None = None) -> None:
    try:
        check_labels(labels)
    except ValueError as e:
        raise ParseError(str(e), source, line_no) from e


def matrix_from_csv(
    text: str, source: str = "<matrix>"
) -> tuple[CountMatrix, tuple[str, ...]]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise ParseError("empty matrix file", source)
    header = rows[0]
    if header[0].strip():
        raise ParseError("top-left header cell must be empty", source, 1)
    labels = tuple(h.strip() for h in header[1:])
    n = len(labels)
    if n == 0:
        raise ParseError("matrix header declares no labels", source, 1)
    _check_matrix_labels(labels, source, 1)
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} data rows, found {len(rows) - 1}", source)
    cells = []
    for i, row in enumerate(rows[1:]):
        line_no = i + 2
        if len(row) != n + 1:
            raise ParseError(
                f"expected {n + 1} columns, found {len(row)}", source, line_no
            )
        if row[0].strip() != labels[i]:
            raise ParseError(
                f"row label {row[0].strip()!r} does not match column label {labels[i]!r}",
                source,
                line_no,
            )
        cells.append(tuple(_parse_cell(tok, source, line_no) for tok in row[1:]))
    try:
        return CountMatrix(tuple(cells)), labels
    except ValueError as e:
        raise ParseError(str(e), source) from e


def cell_to_json(v):
    """JSON form of one cell: the count, or null for INF."""
    return None if v is INF else v


def matrix_to_json_obj(m: CountMatrix, labels: tuple[str, ...]) -> dict:
    if len(labels) != m.n:
        raise ValueError(f"{len(labels)} labels for a {m.n}x{m.n} matrix")
    return {
        "n": m.n,
        "labels": list(labels),
        "cells": [list(map(cell_to_json, row)) for row in m.cells],
    }


def matrix_from_json_obj(
    obj, source: str = "<matrix>"
) -> tuple[CountMatrix, tuple[str, ...]]:
    try:
        n = obj["n"]
        labels = obj["labels"]
        raw = obj["cells"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"matrix JSON missing field: {e}", source) from e
    if type(n) is not int:
        raise ParseError(f"matrix JSON n must be an integer, got {n!r}", source)
    if not isinstance(labels, (list, tuple)):
        raise ParseError(f"matrix JSON labels must be a list, got {labels!r}", source)
    labels = tuple(labels)
    _check_matrix_labels(labels, source)
    if not isinstance(raw, (list, tuple)):
        raise ParseError("matrix JSON cells must be a list of rows", source)
    if len(labels) != n or len(raw) != n:
        raise ParseError(f"matrix JSON shape disagrees with n={n}", source)
    cells = []
    for row in raw:
        if not isinstance(row, (list, tuple)):
            raise ParseError(f"matrix JSON row {row!r} is not a list", source)
        if len(row) != n:
            raise ParseError(f"matrix JSON row of length {len(row)}, expected {n}", source)
        cells.append(tuple(INF if v is None else v for v in row))
    try:
        return CountMatrix(tuple(cells)), labels
    except (ValueError, TypeError) as e:
        raise ParseError(str(e), source) from e


def matrix_from_json(text: str, source: str = "<matrix>"):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", source) from e
    return matrix_from_json_obj(obj, source)
