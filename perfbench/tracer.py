"""In-memory span tracer that wraps the package's functions from outside.

Nothing under ``src/`` changes: ``install`` replaces each listed function in
every ``netmat`` module namespace that holds it, including the copies that
``from .x import name`` made, so calls between modules become nested spans.
Each span records its name, start, end and parent in flat arrays; spans stay
in memory until ``write_tsv`` at the end of the run.

Annotations (sizes read off an argument or a result) run on a paused clock,
so their cost shows in no span.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _reachable_pairs(args, result):
    from netmat.matrices import INF

    return sum(1 for row in result.cells for v in row if v is not INF) - result.n


def _ordered_pairs(args, result):
    return sum(len(t.nodes) * (len(t.nodes) - 1) // 2 for t in args[0].trajectories)


def _dataset_size(args, result):
    return len(result.trajectories) + len(result.graph.edges)


def _search_outcome(args, result):
    size = None if result is None else _dataset_size(args, result)
    return (args[0], size)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


# (module, function, annotation) for every function the traced run wraps.
# Per-trajectory validators and symbol lookups are left out: they run
# millions of times and no per-layer metric needs them.
TRACED = (
    ("fileio", "load_graph", None),
    ("fileio", "load_trajectories", None),
    ("fileio", "matrix_to_csv", _text_bytes),
    ("fileio", "matrix_to_json_obj", None),
    ("fileio", "graph_to_text", _text_bytes),
    ("fileio", "trajectories_to_text", _text_bytes),
    ("structure", "build_structure", None),
    ("structure", "build_adjacency", None),
    ("structure", "distance_matrix", _reachable_pairs),
    ("structure", "external_matrix", None),
    ("utilization", "build_utilization", _ordered_pairs),
    ("utilization", "is_fully_utilized", None),
    ("matrices", "hadamard", None),
    ("matrices", "ew_add", None),
    ("matrices", "ew_sub", None),
    ("matrices", "binarize", None),
    ("identities", "audit_dataset", None),
    ("identities", "evaluate_identity", None),
    ("identities", "search_counterexample", _search_outcome),
    ("identities", "render_table", None),
    ("identities", "report_to_json_obj", None),
    ("generators", "gen_dataset", _dataset_size),
    ("generators", "gen_digraph", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[int, object] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._paused = 0
        self._undo: list[tuple[object, str, object]] = []

    def _clock(self) -> int:
        return time.perf_counter_ns() - self._paused

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(self._clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self._clock()
        self._stack.pop()

    def _note(self, sid: int, annotate, args, result) -> None:
        t = time.perf_counter_ns()
        self.notes[sid] = annotate(args, result)
        self._paused += time.perf_counter_ns() - t

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, annotate=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if annotate is not None:
                self._note(sid, annotate, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "netmat" or k.startswith("netmat.")]
        for mod_name, fn_name, annotate in TRACED:
            original = getattr(importlib.import_module(f"netmat.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, annotate)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        from netmat.matrices import CountMatrix

        post_init = CountMatrix.__post_init__
        counters = self.counters

        def counted_post_init(matrix):
            post_init(matrix)
            counters["matrices_built"] += 1
            counters["cells_built"] += len(matrix.cells) ** 2

        self._patch(CountMatrix, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_tsv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.name)):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name[sid]]}\t"
                    f"{self.start[sid]}\t{self.end[sid]}\n"
                )


def summarize(tracer: Tracer, first: int, last: int) -> dict:
    """Inclusive time, self time, call count and annotations per span name
    over spans ``first..last-1``, plus per-hunt search counters.

    A span's self time is its duration minus its children's durations; the
    run is single-threaded, so children never overlap.
    """
    names, name, parent, start, end = (
        tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end
    )
    child = [0] * (last - first)
    for sid in range(first, last):
        p = parent[sid]
        if p >= first:
            child[p - first] += end[sid] - start[sid]
    incl: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for sid in range(first, last):
        key = names[name[sid]]
        dur = end[sid] - start[sid]
        incl[key] += dur
        self_ns[key] += dur - child[sid - first]
        calls[key] += 1

    # One entry per search_counterexample span: every instance is one
    # gen_dataset child followed by one evaluate_identity child; evaluations
    # beyond the instance count are spent shrinking the hit.
    searches: dict[int, dict] = {}
    search_id = tracer._name_ids.get("identities.search_counterexample")
    gen_id = tracer._name_ids.get("generators.gen_dataset")
    eval_id = tracer._name_ids.get("identities.evaluate_identity")
    for sid in range(first, last):
        p = parent[sid]
        if p < first or name[p] != search_id:
            continue
        entry = searches.setdefault(p, {"instances": 0, "evals": 0, "size_before": None})
        if name[sid] == gen_id:
            entry["instances"] += 1
            entry["size_before"] = tracer.notes[sid]
        elif name[sid] == eval_id:
            entry["evals"] += 1
    hunts = []
    for sid, entry in sorted(searches.items()):
        # A search that raised has no note; it counts as finding nothing.
        identity, size_after = tracer.notes.get(sid, (None, None))
        found = size_after is not None
        hunts.append(
            {
                "identity": identity,
                "instances_tried": entry["instances"],
                "first_hit_index": entry["instances"] - 1 if found else None,
                "shrink_evals": entry["evals"] - entry["instances"],
                "size_before": entry["size_before"] if found else None,
                "size_after": size_after,
            }
        )
    noted: Counter = Counter()
    for sid, value in tracer.notes.items():
        if first <= sid < last and isinstance(value, int):
            noted[names[name[sid]]] += value
    return {"incl_ns": incl, "self_ns": self_ns, "calls": calls, "noted": noted, "hunts": hunts}
