#!/usr/bin/env python3
"""Audit the identity catalogue across a stream of seeded random datasets.

Prints per-class verdict tallies and exits 1 if any relation expected to
hold universally (UNIVERSAL or MUTUAL_EXCLUSIVITY) ever fails.  For the
first failure of each identity it prints the witness and a ``netmat gen``
command that regenerates the failing dataset.
"""

import argparse
import sys
import time
from collections import Counter

from netmat import audit_dataset, gen_dataset, sweep_configs
from netmat.cli import int_flag
from netmat.generators import GenConfig
from netmat.identities import GATED, IdentityClass


def replay_command(cfg: GenConfig) -> str:
    """The ``netmat gen`` command that writes the dataset gen_dataset(cfg) builds."""
    duplicates = "--allow-duplicates" if cfg.allow_duplicates else "--no-allow-duplicates"
    return (
        f"netmat gen --n {cfg.n} --edge-prob {cfg.edge_prob!r} --max-traj {cfg.max_traj} "
        f"--max-len {cfg.max_len} {duplicates} --seed {cfg.seed}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int_flag, default=1000, help="datasets to audit")
    parser.add_argument("--seed", type=int_flag, default=0, help="base seed for the config stream")
    parser.add_argument("--max-n", type=int_flag, default=12, help="largest node count")
    parser.add_argument("--max-traj", type=int_flag, default=50, help="largest trajectory count")
    args = parser.parse_args()
    if args.seed < 0:
        # random.Random seeds -s and s alike, so a negative seed would
        # repeat the run of its absolute value under another name.
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    if args.count < 0:
        parser.error(f"--count must be nonnegative, got {args.count}")
    if args.max_n < 1:
        parser.error(f"--max-n must be at least 1, got {args.max_n}")
    if args.max_traj < 0:
        parser.error(f"--max-traj must be nonnegative, got {args.max_traj}")

    holds: Counter = Counter()
    fails: Counter = Counter()
    first_failure = {}
    violations = 0

    start = time.perf_counter()
    for i, cfg in enumerate(
        sweep_configs(args.count, base_seed=args.seed, max_n=args.max_n, max_traj=args.max_traj)
    ):
        report = audit_dataset(gen_dataset(cfg))
        labels = report.descriptor["labels"]
        for verdict in report.verdicts:
            kind = verdict.spec.kind
            if verdict.holds:
                holds[kind.value] += 1
            else:
                fails[kind.value] += 1
                if verdict.id not in first_failure:
                    first_failure[verdict.id] = (i, cfg, verdict.witness.describe(labels))
                if kind in GATED:
                    violations += 1
    elapsed = time.perf_counter() - start

    print(f"audited {args.count} datasets in {elapsed:.2f}s (base seed {args.seed})")
    print(f"{'class':<22}{'holds':>10}{'fails':>10}")
    for kind in IdentityClass:
        print(f"{kind.value:<22}{holds[kind.value]:>10}{fails[kind.value]:>10}")
    if first_failure:
        print("\nfirst failure per identity (dataset index, config seed, witness, replay):")
        for ident, (idx, cfg, witness) in sorted(first_failure.items()):
            print(f"  {ident}: dataset #{idx} seed {cfg.seed} witness {witness}")
            print(f"    replay: {replay_command(cfg)}")
    if violations:
        print(f"\nSOUNDNESS VIOLATED: {violations} universal/mutual-exclusivity failures")
        return 1
    print("\nall universal and mutual-exclusivity relations held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
