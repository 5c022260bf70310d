"""Seeded random instance generation for property sweeps and counterexample hunts.

Everything here is a pure function of its config and seed: the same inputs
always produce the same graph or dataset, bit for bit, so sweeps are
reproducible and independent generations can run in parallel.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .structure import Graph
from .utilization import Dataset, Trajectory

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(seed: int, salt: int) -> int:
    # Cheap splitmix-style derivation so graph and trajectory streams stay
    # decoupled while remaining a pure function of the config seed.
    return ((seed ^ salt) * _GOLDEN + salt) & _MASK64


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one random dataset; identical configs give identical output."""

    n: int
    edge_prob: float
    max_traj: int
    max_len: int
    allow_duplicates: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must be in [0, 1], got {self.edge_prob}")
        if self.max_traj < 0:
            raise ValueError(f"max_traj must be >= 0, got {self.max_traj}")
        if not 0 <= self.max_len <= self.n:
            raise ValueError(
                f"max_len must be between 0 and n={self.n}, got {self.max_len}"
            )


def gen_digraph(cfg: GenConfig) -> Graph:
    """Random directed graph: each ordered non-diagonal pair is an edge
    independently with probability edge_prob."""
    rng = random.Random(_mix(cfg.seed, 0x67726170))
    edges = set()
    for i in range(cfg.n):
        for j in range(cfg.n):
            if i != j and rng.random() < cfg.edge_prob:
                edges.add((i, j))
    labels = tuple(f"v{i}" for i in range(cfg.n))
    return Graph(labels, frozenset(edges))


def _random_path(
    succ: dict[int, tuple[int, ...]],
    starts: list[int],
    max_len: int,
    rng: random.Random,
) -> Trajectory | None:
    # Random simple directed path of 2..max_len nodes, or None if no start
    # node has an edge (or max_len < 2).  Dead-end walks are retried a
    # bounded number of times rather than backtracked.
    if max_len < 2 or not starts:
        return None
    for _ in range(12):
        target = rng.randint(2, max_len)
        cur = rng.choice(starts)
        path = [cur]
        visited = {cur}
        while len(path) < target:
            options = [w for w in succ.get(cur, ()) if w not in visited]
            if not options:
                break
            cur = rng.choice(options)
            path.append(cur)
            visited.add(cur)
        if len(path) >= 2:
            return Trajectory(tuple(path))
    return None


def _with_random_paths(
    g: Graph, cfg: GenConfig, salt: int, trajectories: list[Trajectory]
) -> Dataset:
    # Append up to max_traj random paths drawn from a stream salted apart
    # from the graph's; without allow_duplicates a path already present is
    # skipped, its draw still consumed.
    succ = g.successors()
    starts = sorted(succ)
    rng = random.Random(_mix(cfg.seed, salt))
    wanted = rng.randint(0, cfg.max_traj) if cfg.max_traj else 0
    seen = {t.nodes for t in trajectories}
    for _ in range(wanted):
        t = _random_path(succ, starts, cfg.max_len, rng)
        if t is None or (not cfg.allow_duplicates and t.nodes in seen):
            continue
        seen.add(t.nodes)
        trajectories.append(t)
    return Dataset(g, tuple(trajectories))


def gen_dataset(cfg: GenConfig) -> Dataset:
    """Random graph plus up to max_traj random trajectories."""
    return _with_random_paths(gen_digraph(cfg), cfg, 0x7472616A, [])


def _shortest_path_cover(g: Graph) -> list[Trajectory]:
    # One shortest path per ordered pair at hop distance >= 2, via BFS with
    # sorted adjacency so the cover is deterministic.
    succ = g.successors()
    cover: list[Trajectory] = []
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
            path.reverse()
            cover.append(Trajectory(tuple(path)))
    return cover


def gen_fully_utilized(cfg: GenConfig) -> Dataset:
    """Dataset whose trajectories cover every edge and every reachable pair.

    Each edge gets its own two-node trajectory, each pair at hop distance
    >= 2 gets one shortest-path trajectory, then random extras are appended.
    The edge cover makes the flow binarization equal the adjacency matrix;
    the pair cover makes the OD binarization equal the reachability matrix.
    """
    g = gen_digraph(cfg)
    cover = [Trajectory(e) for e in sorted(g.edges)] + _shortest_path_cover(g)
    return _with_random_paths(g, cfg, 0x66756C6C, cover)


def sweep_configs(
    count: int,
    *,
    base_seed: int = 0,
    max_n: int = 12,
    max_traj: int = 50,
    allow_duplicates: bool = True,
) -> Iterator[GenConfig]:
    """Deterministic stream of varied configs for bulk property sweeps."""
    rng = random.Random(base_seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        yield GenConfig(
            n=n,
            edge_prob=rng.random(),
            max_traj=rng.randint(0, max_traj),
            max_len=n if n < 2 else rng.randint(2, n),
            allow_duplicates=allow_duplicates,
            seed=rng.getrandbits(63),
        )
