"""Reads graph and trajectory files; writes them and the matrices.

netmat reads no matrix back: ``compute`` writes the matrix formats, and the
test suite keeps the reference reader of each (``tests/oracles.py``).

Formats:

  graph file        optional header ``nodes: lbl1 lbl2 ...`` fixing label
                    order and declaring isolated nodes, then one ``src dst``
                    edge per line; ``#`` starts a comment
  trajectory file   one trajectory per line as whitespace-separated node
                    labels; ``#`` starts a comment
  matrix CSV        header row and column of node labels, unreachable cells
                    spelled as the literal token ``INF``; the csv module
                    writes the header and each row's label field, quoting a
                    label that holds ``,`` or ``"``, and the cells, which
                    never need quoting, are spelled directly: a matrix of
                    single digits by translating the matrix's byte buffer
                    (``netmat.matrices``) to ASCII and putting the commas
                    and newlines in by slice assignment, any other through
                    ``str`` once per distinct value
  matrix JSON       {"n": ..., "labels": [...], "cells": [[...]]} with null
                    encoding unreachable cells

All writers emit LF newlines and a fixed ordering, so serialization is
byte-stable for equal inputs.
"""

from __future__ import annotations

import csv
import io
from itertools import accumulate
from operator import add
from pathlib import Path

from .errors import ParseError, TrajectoryError
from .matrices import INF, CountMatrix, _byte_buffer
from .structure import Graph, check_labels
from .utilization import Dataset, Trajectory, validate_trajectory


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
    # The loop above rejected self-loops and duplicate edges, and its indices
    # are in range by construction; only the label rules remain.
    labels = tuple(labels)
    try:
        check_labels(labels)
    except ValueError as e:
        raise ParseError(str(e), source) from e
    return Graph._trusted(labels, frozenset(edges))


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark;
    ParseError naming the file if it is not UTF-8."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}", str(path)) from e


def load_graph(path: str | Path) -> Graph:
    path = Path(path)
    return graph_from_text(read_text(path), source=str(path))


def trajectories_to_text(trajectories, labels: tuple[str, ...]) -> str:
    lines = [" ".join(labels[v] for v in t.nodes) for t in trajectories]
    return "\n".join(lines) + ("\n" if lines else "")


def trajectories_from_text(
    text: str, graph: Graph, source: str = "<trajectories>"
) -> tuple[Trajectory, ...]:
    """Each line's trajectory, validated on graph; a fault names its line."""
    index = {lbl: i for i, lbl in enumerate(graph.labels)}
    edges = graph.edges
    trajectories = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        try:
            nodes = tuple(map(index.__getitem__, line.split()))
        except KeyError as e:
            # map stops at the first unknown token, which the error holds.
            raise ParseError(f"unknown node label {e.args[0]!r}", source, line_no) from None
        # Label lookup yields node indices in range, so whole-line tests of
        # length, repeats and edges decide the line.
        if (
            len(nodes) > 1
            and len(set(nodes)) == len(nodes)
            and edges.issuperset(zip(nodes, nodes[1:]))
        ):
            t = Trajectory._trusted(nodes)
        else:
            # The node-by-node checks name the first fault.
            try:
                t = Trajectory(nodes)
                validate_trajectory(t, graph)
            except TrajectoryError as e:
                raise ParseError(f"{type(e).__name__}: {e}", source, line_no) from e
        trajectories.append(t)
    return tuple(trajectories)


def load_trajectories(path: str | Path, graph: Graph) -> tuple[Trajectory, ...]:
    path = Path(path)
    return trajectories_from_text(read_text(path), graph, source=str(path))


def load_dataset(graph_path: str | Path, trajectories_path: str | Path) -> Dataset:
    """A graph file and a trajectory file on it, each trajectory validated once."""
    graph = load_graph(graph_path)
    return Dataset._trusted(graph, load_trajectories(trajectories_path, graph))


# Cell value -> its ASCII digit, for matrices whose every cell is below 10.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_ABOVE_9 = bytes(range(10, 256))


def _row_heads(labels: tuple[str, ...]) -> tuple[str, list[str]]:
    """The header line and each row's label field with its comma, as the
    csv module spells them: a label holding ``,`` or ``"`` is quoted."""
    buf = io.StringIO()
    write = csv.writer(buf, lineterminator="\n").writerow
    # writerow returns the length it wrote; a (label, "") row is the label
    # field, a comma and the newline.
    ends = list(accumulate([write(["", *labels]), *(write((lbl, "")) for lbl in labels)]))
    text = buf.getvalue()
    return text[: ends[0]], [text[start : end - 1] for start, end in zip(ends, ends[1:])]


def matrix_to_csv(m: CountMatrix, labels: tuple[str, ...]) -> str:
    if len(labels) != m.n:
        raise ValueError(f"{len(labels)} labels for a {m.n}x{m.n} matrix")
    header, heads = _row_heads(labels)
    n = m.n
    raw = _byte_buffer(m)
    # Deleting every byte above 9 leaves all n*n cells iff each is one digit.
    digits = b"" if raw is None else raw.translate(_DIGITS, _ABOVE_9)
    if len(digits) == n * n:
        # Every cell is one digit: fill the odd bytes of a row with commas
        # and put the newline in place of the last one.
        body = bytearray(b"," * (2 * n * n))
        body[::2] = digits
        body[2 * n - 1 :: 2 * n] = b"\n" * n
        rows = body.decode("ascii").splitlines(keepends=True)
    else:
        # str spells INF as "INF"; spell each distinct value once.
        spell = {v: str(v) for v in set().union(*m.cells)}.__getitem__
        rows = [",".join(map(spell, row)) + "\n" for row in m.cells]
    return header + "".join(map(add, heads, rows))


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
