#!/usr/bin/env python3
"""netmat benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload city-200 --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from that
checkout's ``src/``.  A run generates the workload's inputs from the seed,
then drives the program as a closed loop with one client, each command
starting after the previous one returned.  A round is, in order:

  * ``netmat compute`` and ``netmat audit`` on the generated files, via
    ``netmat.cli.main(argv)``, ``file_ops`` times each;
  * ``netmat hunt <id> --budget B`` for every catalogue id, like
    ``scripts/run_identity_hunt.py``;
  * ``audit_dataset(gen_dataset(cfg))`` over ``sweep_configs(count,
    base_seed=seed)``, like ``scripts/run_soundness_sweep.py``.

Rounds repeat until ``--seconds`` have passed.  Every output of every round
is checked: exit codes, hunt outcomes, sweep soundness, and sha256 digests
against the pinned digests of ``pinned_digests.json`` (or, for a seed that
has none, against the first round).  Any exception, unexpected exit code or
mismatch counts as a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced (see
``tracer.py``) and it reports the per-layer metrics.  Outputs, inputs and
the span dump go to ``.perfbench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from inputs import DatasetShape, generate
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINNED = HERE / "pinned_digests.json"

MATRICES = ("A", "P", "Phat", "E", "Ehat", "F", "D", "L", "T", "Tc",
            "Fhat", "Dhat", "Lhat", "That", "Tchat")
GATED = ("UNIVERSAL", "MUTUAL_EXCLUSIVITY")
# At budget 100 every CLAIMED_AUDIT, NEGATIVE and FULLY_UTILIZED_ONLY id fell
# on seeds 0..199; at budget 10 the CLAIMED ids survive on about a third of
# them, so smaller hunts only check that the universal ids survive.
FALL_BUDGET = 100
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Workload:
    name: str
    shape: DatasetShape  # the compute / audit input
    file_ops: int  # compute and audit calls per round
    hunt_budget: int
    sweep_count: int
    # Seed of the hunt and the sweep; None means the workload seed.  The
    # large workloads run a small, fixed hunt and sweep as controls, since
    # 100 sweep configs vary too much in size from one seed to the next.
    search_seed: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("city-200", DatasetShape(200, 0.05, 750, 30), 1, 10, 100, 0),
        Workload("long-paths-120", DatasetShape(120, 0.3, 1500, 120), 1, 10, 100, 0),
        Workload("small-many", DatasetShape(64, 0.05, 200, 16), 5, 100, 300),
    )
}

END_TO_END = {
    "setup_s": "s",
    "compute_s": "s",
    "audit_s": "s",
    "hunt_catalogue_s": "s",
    "sweep_audits_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "structure.build_s": "s",
    "structure.distance_s": "s",
    "structure.reachable_pairs": "count",
    "utilization.build_s": "s",
    "utilization.self_s": "s",
    "utilization.ordered_pairs": "count",
    "matrices.hadamard_s": "s",
    "matrices.ew_add_s": "s",
    "matrices.ew_sub_s": "s",
    "matrices.binarize_s": "s",
    "matrices.matrices_built": "count",
    "matrices.cells_built": "count",
    "identities.audit_s": "s",
    "identities.evaluate_s": "s",
    "identities.evaluate_calls": "count",
    "identities.render_s": "s",
    "identities.search_s": "s",
    "search.instances_tried": "count",
    "search.first_hit_index": "count",
    "search.shrink_evals": "count",
    "search.size_before": "count",
    "search.size_after": "count",
    "generators.gen_s": "s",
    "generators.datasets": "count",
    "fileio.parse_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_written": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else part.encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:32]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


class Session:
    """One run: inputs, the round loop, its checks and its raw timings."""

    def __init__(self, workload: Workload, seed: int, pinned: dict | None, out: Path,
                 speed: HostSpeed):
        import netmat
        import netmat.cli

        self.netmat = netmat
        self.w = workload
        self.seed = seed
        self.search_seed = seed if workload.search_seed is None else workload.search_seed
        self.speed = speed
        self.pinned = pinned is not None
        self.expected: dict[str, str] = dict(pinned or {})
        # Timed segments of each passed operation, per kind; and of every
        # operation of the current round.
        self.times: dict[str, list[list]] = {k: [] for k in ("compute", "audit", "hunt", "sweep")}
        self.round_spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.problems: list[str] = []
        self.hunt_outcomes: dict[str, bool] = {}
        shutil.rmtree(out, ignore_errors=True)
        self.out = out
        generated = generate(workload.shape, seed)
        self.sizes = generated.stats()
        self.graph, self.trajectories = generated.write(out / "input")
        self.specs = netmat.list_identities()
        self.tracer: Tracer | None = None

    # -- operations: run(spans) times its calls as segments of ``spans``;
    # -- check(result) then inspects what they produced, untimed.

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.netmat.cli.main(argv)

    def _op(self, kind: str, out: Path | None, run, check) -> None:
        """One operation writing under ``out``, emptied first so that no
        earlier output can pass for this one's."""
        self.attempted += 1
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        span = self.tracer.span(f"op.{kind}") if self.tracer else contextlib.nullcontext()
        spans: list[tuple[float, float]] = []
        try:
            with span:
                result = run(spans)
            problem = check(result)
        except Exception as e:  # the loop must go on; the failure is counted
            problem = f"{type(e).__name__}: {e}"
        self.round_spans += spans
        if problem:
            self.problems.append(f"{kind}: {problem}")
        else:
            self.times[kind].append(spans)

    def _match(self, kind: str, digest: str) -> str | None:
        want = self.expected.setdefault(kind, digest)
        if want != digest:
            source = "pinned" if self.pinned else "first round"
            return f"digest {digest} differs from the {source} digest {want}"
        return None

    def _file_op(self, kind: str) -> None:
        out = self.out / kind
        argv = [kind, "--graph", str(self.graph), "--trajectories", str(self.trajectories),
                "--out", str(out)]

        def check(rc):
            if rc != 0:
                return f"exit code {rc}, expected 0"
            if kind == "compute":
                names = [f"{m}.csv" for m in MATRICES] + ["summary.json"]
                parts = [p for name in names for p in (name, (out / name).read_bytes())]
            else:
                report = json.loads((out / "audit_report.json").read_text(encoding="utf-8"))
                del report["inputs"]
                del report["descriptor"]["name"]
                parts = [_canonical(report)]
            return self._match(kind, _digest(parts))

        self._op(kind, out, lambda spans: self.speed.segment(lambda: self._cli(argv), spans),
                 check)

    def _hunt(self) -> None:
        budget = self.w.hunt_budget

        def run(spans):
            return [
                self.speed.segment(
                    lambda: self._cli(["hunt", spec.id, "--budget", str(budget),
                                       "--seed", str(self.search_seed),
                                       "--out", str(self.out / "hunt" / spec.id)]),
                    spans,
                )
                for spec in self.specs
            ]

        def check(codes):
            parts = []
            for spec, rc in zip(self.specs, codes):
                if rc != 0:
                    return f"{spec.id}: exit code {rc}, expected 0"
                out = self.out / "hunt" / spec.id
                report = (out / "hunt_report.json").read_bytes()
                found = json.loads(report)["found"]
                self.hunt_outcomes[spec.id] = found
                kind = spec.kind.value
                if found and kind in GATED:
                    return f"{spec.id} ({kind}) was falsified"
                if not found and kind not in GATED and budget >= FALL_BUDGET:
                    return f"{spec.id} ({kind}) survived {budget} instances"
                parts += [spec.id, report]
                if found:
                    parts += [(out / "graph.txt").read_bytes(),
                              (out / "trajectories.txt").read_bytes()]
            return self._match("hunt", _digest(parts))

        self._op("hunt", self.out / "hunt", run, check)

    def _sweep(self) -> None:
        nm = self.netmat

        def run(spans):
            return [
                self.speed.segment(lambda: nm.audit_dataset(nm.gen_dataset(cfg)), spans)
                for cfg in nm.sweep_configs(self.w.sweep_count, base_seed=self.search_seed)
            ]

        def check(reports):
            tally: Counter = Counter()
            for report in reports:
                for verdict in report.verdicts:
                    tally[f"{nm.get_identity(verdict.id).kind.value} {verdict.holds}"] += 1
            broken = sum(tally[f"{kind} False"] for kind in GATED)
            if broken:
                return f"{broken} universal or mutual-exclusivity verdicts failed"
            return self._match("sweep", _digest([_canonical(tally)]))

        self._op("sweep", None, run, check)

    def round(self) -> list[tuple[float, float]]:
        """Run one round; return the timed segments of all its operations."""
        self.round_spans = []
        for _ in range(self.w.file_ops):
            self._file_op("compute")
            self._file_op("audit")
        self._hunt()
        self._sweep()
        return self.round_spans


def measure_setup(speed: HostSpeed) -> list[list]:
    """Time SETUP_REPEATS fresh interpreters, each from its start until
    netmat.cli is imported (from this checkout's src/) and it exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, netmat.cli; "
            "sys.exit(0 if netmat.cli.__file__.startswith(sys.argv[1]) else 3)")
    times = []
    for _ in range(SETUP_REPEATS):
        spans: list[tuple[float, float]] = []
        proc = speed.segment(
            lambda: subprocess.run([sys.executable, "-c", code, str(SRC)], env=env), spans)
        if proc.returncode != 0:
            raise RuntimeError(f"importing netmat.cli from {SRC} exited {proc.returncode}")
        times.append(spans)
    return times


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 90, 75, 50):
        beyond = int(n * (1 - p / 100))
        if beyond >= 10:
            ranked = sorted(values)
            return f"p{p:g} {ranked[n - beyond - 1]:.4f} s ({beyond} beyond, {n} samples)"
    return f"no percentile has 10 samples beyond it ({n} samples)"


def layer_metrics(summary: dict, counters: Counter) -> dict[str, float]:
    incl = lambda *names: sum(summary["incl_ns"][n] for n in names) / 1e9  # noqa: E731
    self_s = lambda name: summary["self_ns"][name] / 1e9  # noqa: E731
    calls, noted, hunts = summary["calls"], summary["noted"], summary["hunts"]
    found = [h for h in hunts if h["size_after"] is not None]
    return {
        "structure.build_s": incl("structure.build_structure"),
        "structure.distance_s": incl("structure.distance_matrix"),
        "structure.reachable_pairs": noted["structure.distance_matrix"],
        "utilization.build_s": incl("utilization.build_utilization"),
        "utilization.self_s": self_s("utilization.build_utilization"),
        "utilization.ordered_pairs": noted["utilization.build_utilization"],
        "matrices.hadamard_s": incl("matrices.hadamard"),
        "matrices.ew_add_s": incl("matrices.ew_add"),
        "matrices.ew_sub_s": incl("matrices.ew_sub"),
        "matrices.binarize_s": incl("matrices.binarize"),
        "matrices.matrices_built": counters["matrices_built"],
        "matrices.cells_built": counters["cells_built"],
        "identities.audit_s": incl("identities.audit_dataset"),
        "identities.evaluate_s": incl("identities.evaluate_identity"),
        "identities.evaluate_calls": calls["identities.evaluate_identity"],
        "identities.render_s": incl("identities.render_table", "identities.report_to_json_obj"),
        "identities.search_s": incl("identities.search_counterexample"),
        "search.instances_tried": sum(h["instances_tried"] for h in hunts),
        "search.first_hit_index": sum(h["first_hit_index"] for h in found),
        "search.shrink_evals": sum(h["shrink_evals"] for h in hunts),
        "search.size_before": sum(h["size_before"] for h in found),
        "search.size_after": sum(h["size_after"] for h in found),
        "generators.gen_s": incl("generators.gen_dataset"),
        "generators.datasets": calls["generators.gen_dataset"],
        "fileio.parse_s": incl("fileio.load_graph", "fileio.load_trajectories"),
        "fileio.write_s": incl("fileio.matrix_to_csv", "fileio.graph_to_text",
                               "fileio.trajectories_to_text"),
        "fileio.bytes_written": sum(noted[n] for n in ("fileio.matrix_to_csv",
                                                        "fileio.graph_to_text",
                                                        "fileio.trajectories_to_text")),
        "cli.self_s": self_s("cli.main"),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 pinned: dict | None, out: Path) -> dict:
    """Run one benchmark; return the result object and a text report."""
    speed = HostSpeed()
    setup = measure_setup(speed)
    session = Session(workload, seed, pinned, out, speed)
    deadline = time.perf_counter() + seconds
    round_spans: dict[bool, list[list]] = {False: [], True: []}
    traced_rounds: list[tuple[dict, list]] = []
    tracer = Tracer() if trace else None
    r = 0
    # A traced run needs at least one traced and one untraced round.
    while r < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and r % 2 == 1
        if traced:
            first, before = len(tracer.name), Counter(tracer.counters)
            tracer.install()
            session.tracer = tracer
        try:
            spans = session.round()
        finally:
            if traced:
                tracer.uninstall()
                session.tracer = None
        round_spans[traced].append(spans)
        if traced:
            summary = summarize(tracer, first, len(tracer.name))
            traced_rounds.append((layer_metrics(summary, tracer.counters - before), spans))
        r += 1
    speed.calibrate()  # so that the last segments have a sample after them
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = [
        f"workload {workload.name}, seed {seed}, trace {int(trace)}: "
        + ", ".join(f"{k}={v}" for k, v in session.sizes.items())
        + f"; per round {workload.file_ops} compute + audit, hunt budget"
        f" {workload.hunt_budget} x {len(session.specs)} ids and a sweep of"
        f" {workload.sweep_count} configs, seed {session.search_seed}",
        f"rounds: {r}; host slowdown factor mean {speed.mean_factor():.3f}"
        " (times below, except setup, are at the reference host speed)",
    ]
    if trace:
        units = PER_LAYER
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            values = []
            for layers, spans in traced_rounds:
                value = layers[name]
                if units[name] == "s":
                    value /= speed.factor(spans[0][0], spans[-1][1])
                values.append(value)
            metrics[name] = statistics.median(values)
        traced_s, untraced_s = (
            statistics.median(speed.corrected(spans) for spans in round_spans[flag])
            for flag in (True, False)
        )
        metrics["trace.overhead_s"] = traced_s - untraced_s
        dump = out / "trace_spans.tsv"
        tracer.write_tsv(dump)
        (out / "trace_hunts.json").write_text(json.dumps(summary["hunts"], indent=1) + "\n")
        lines.append(f"{len(tracer.name)} spans written to {dump.relative_to(ROOT)}")
        lines.append("per-layer values: median over traced rounds of the round's total;"
                     f" traced round {traced_s:.4f} s, untraced {untraced_s:.4f} s")
    else:
        units = END_TO_END
        # Starting a process is not the work the reference loop resembles,
        # and correcting it made it noisier, so setup times stay uncorrected.
        samples = {kind: [speed.corrected(spans) for spans in ops]
                   for kind, ops in session.times.items()}
        samples["setup"] = [sum(e - s for s, e in spans) for spans in setup]
        raw = {kind: [sum(e - s for s, e in spans) for spans in ops]
               for kind, ops in {"setup": setup, **session.times}.items()}
        medians = {k: statistics.median(v) if v else float("nan") for k, v in samples.items()}
        metrics = {
            "setup_s": medians["setup"],
            "compute_s": medians["compute"],
            "audit_s": medians["audit"],
            "hunt_catalogue_s": medians["hunt"],
            "sweep_audits_per_s": workload.sweep_count / medians["sweep"],
            "peak_rss_mb": peak_rss_mb,
        }
        for kind, values in samples.items():
            lines.append(f"{kind}: median {medians[kind]:.4f} s, {tail(values)};"
                         f" uncorrected median {statistics.median(raw[kind] or [0]):.4f} s")
        (out / "samples.json").write_text(json.dumps({"corrected": samples, "raw": raw}) + "\n")
    failed = len(session.problems)
    lines.append(f"error_rate: {failed / session.attempted:g} "
                 f"({failed} failed / {session.attempted} attempted)")
    fell = sorted(k for k, v in session.hunt_outcomes.items() if v)
    lines.append(f"hunt: {len(fell)} ids falsified ({', '.join(fell)}), "
                 f"{len(session.hunt_outcomes) - len(fell)} survived")
    source = "pinned digests" if session.pinned else "the first round"
    lines.append(f"digests checked against {source}: "
                 + ", ".join(f"{k}={v}" for k, v in sorted(session.expected.items())))
    lines += [f"FAILED {p}" for p in session.problems[:20]]
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return {"result": result, "report": lines}


def load_pinned(workload: str, seed: int) -> dict | None:
    if not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def import_package() -> None:
    """Import netmat from this checkout's src/, never from anywhere else."""
    if not (SRC / "netmat" / "cli.py").is_file():
        raise SystemExit(f"error: no netmat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netmat.cli

    if not netmat.cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: netmat imported from {netmat.cli.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    import_package()
    outcome = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        load_pinned(args.workload, args.seed), OUT / args.workload,
    )
    print("\n".join(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
