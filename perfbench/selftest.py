#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that:

  * every workload, shrunk to a tiny size, reports every end-to-end metric
    untraced and every per-layer metric traced, each with its unit, and
    passes its own output checks;
  * a run given the right pinned digests passes, and a run given a pinned
    digest with one character changed is counted as a failure, for each of
    the compute, audit, hunt and sweep digests;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from hostspeed import HostSpeed
from inputs import DatasetShape

TINY_SHAPE = DatasetShape(n=12, edge_prob=0.3, trajectories=20, max_len=6)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def tiny(workload: run.Workload) -> run.Workload:
    return dataclasses.replace(workload, shape=TINY_SHAPE, file_ops=2, hunt_budget=3,
                               sweep_count=5)


def check_metrics(out) -> None:
    for workload in run.WORKLOADS.values():
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.run_workload(tiny(workload), 1, 0, trace, None, out)["result"]
            label = f"{workload.name} trace={int(trace)}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
            check(result["correct"] and result["failed"] == 0, f"{label}: {result}")
            check(result["attempted"] >= 1, label)
            check(set(result["metrics"]) == set(wanted), f"{label}: {sorted(result['metrics'])}")
            for name, metric in result["metrics"].items():
                check(metric["unit"] == wanted[name], f"{label}: unit of {name}")
                check(isinstance(metric["value"], (int, float)), f"{label}: value of {name}")
            print(f"ok   {label}: {len(wanted)} metrics")


def check_tampering(out) -> None:
    workload = tiny(run.WORKLOADS["small-many"])
    session = run.Session(workload, 2, None, out, HostSpeed())
    session.round()
    check(not session.problems, f"reference round failed: {session.problems}")
    pinned = dict(session.expected)
    check(set(pinned) == {"compute", "audit", "hunt", "sweep"}, f"digests: {pinned}")
    result = run.run_workload(workload, 2, 0, False, pinned, out)["result"]
    check(result["correct"] and result["failed"] == 0, f"untampered: {result}")
    print("ok   the pinned digests are accepted")
    for kind, digest in pinned.items():
        flipped = ("1" if digest[0] == "0" else "0") + digest[1:]
        result = run.run_workload(workload, 2, 0, False, {**pinned, kind: flipped}, out)["result"]
        check(not result["correct"] and result["failed"] >= 1, f"tampered {kind}: {result}")
        print(f"ok   a tampered {kind} digest is counted as a failure ({result['failed']} failed)")


def check_without_program(out) -> None:
    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "small-many", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0, f"exit code {proc.returncode} without the program")
    check('"metrics"' not in proc.stdout, f"printed a result without the program: {proc.stdout}")
    print(f"ok   without the program the benchmark exits {proc.returncode}: "
          f"{proc.stderr.strip().splitlines()[-1]}")


def main() -> int:
    run.import_package()
    out = run.OUT / "selftest"
    check_metrics(out)
    check_tampering(out)
    check_without_program(out)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
