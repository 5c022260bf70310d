"""Seeded, fixed-size input generation for the benchmark workloads.

The generator lives here rather than in the package so that the inputs stay
the same when the package's own generators change.  The seed decides which
edges exist and which nodes each trajectory visits; the node count, the edge
probability, the trajectory count and the schedule of target trajectory
lengths are fixed per workload, so the amount of work barely moves with the
seed.  The program only ever sees the written ``graph.txt`` and
``trajectories.txt``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class DatasetShape:
    n: int
    edge_prob: float
    trajectories: int
    max_len: int


@dataclass(frozen=True)
class Generated:
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, ...], ...]

    def stats(self) -> dict:
        """Sizes that set the amount of work: n, edges, trajectories,
        ordered pairs (counting work) and reachable pairs (structure)."""
        n = len(self.labels)
        succ: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            succ[i].append(j)
        reachable = 0
        for src in range(n):
            seen = {src}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in succ[u]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            reachable += len(seen) - 1
        return {
            "n": n,
            "edges": len(self.edges),
            "trajectories": len(self.paths),
            "ordered_pairs": sum(len(p) * (len(p) - 1) // 2 for p in self.paths),
            "reachable_pairs": reachable,
        }

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        graph = directory / "graph.txt"
        trajs = directory / "trajectories.txt"
        lines = ["nodes: " + " ".join(self.labels)]
        lines += [f"{self.labels[i]} {self.labels[j]}" for i, j in self.edges]
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trajs.write_text(
            "".join(" ".join(self.labels[v] for v in p) + "\n" for p in self.paths),
            encoding="utf-8",
        )
        return graph, trajs


def generate(shape: DatasetShape, seed: int) -> Generated:
    """Random digraph plus ``shape.trajectories`` simple paths along its edges.

    Trajectory k aims for ``2 + k mod (max_len - 1)`` nodes, so target
    lengths cover 2..max_len evenly whatever the seed.  Each walk starts at a
    node with a successor, so it has at least two nodes; it stops early at a
    node whose successors were all visited.
    """
    rng = random.Random(seed)
    n = shape.n
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < shape.edge_prob
    )
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    starts = [i for i in range(n) if succ[i]]
    if not starts:
        raise ValueError(f"shape {shape} with seed {seed} gave a graph with no edge")
    paths = []
    for k in range(shape.trajectories):
        target = 2 + k % (shape.max_len - 1)
        path = [rng.choice(starts)]
        visited = {path[0]}
        while len(path) < target:
            options = [w for w in succ[path[-1]] if w not in visited]
            if not options:
                break
            nxt = rng.choice(options)
            path.append(nxt)
            visited.add(nxt)
        paths.append(tuple(path))
    return Generated(tuple(f"v{i}" for i in range(n)), edges, tuple(paths))
