#!/usr/bin/env python3
"""Run the counterexample search against every catalogued identity.

Universal relations are expected to survive the whole budget; the
count-level CLAIMED forms and the known-false NEGATIVE form should fall.
Exits 1 if any UNIVERSAL or MUTUAL_EXCLUSIVITY relation is falsified.
"""

import argparse
import sys
import time

from netmat import list_identities
from netmat.cli import int_flag
from netmat.identities import GATED, evaluate_on_dataset, search_counterexample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ids", nargs="*", help="identity ids (default: whole catalogue)")
    parser.add_argument("--budget", type=int_flag, default=1000)
    parser.add_argument("--seed", type=int_flag, default=0)
    parser.add_argument("--no-duplicates", action="store_true", help="forbid duplicate trajectories")
    args = parser.parse_args()
    if args.seed < 0:
        # random.Random seeds -s and s alike, so a negative seed would
        # repeat the run of its absolute value under another name.
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    if args.budget < 0:
        parser.error(f"--budget must be nonnegative, got {args.budget}")

    specs = list_identities()
    if args.ids:
        wanted = set(args.ids)
        specs = [s for s in specs if s.id in wanted]
        missing = wanted - {s.id for s in specs}
        if missing:
            parser.error(f"unknown ids: {', '.join(sorted(missing))}")

    violated = []
    print(f"{'identity':<18}{'class':<21}{'outcome'}")
    for spec in specs:
        start = time.perf_counter()
        found = search_counterexample(
            spec.id, args.budget, args.seed, allow_duplicates=not args.no_duplicates
        )
        elapsed = time.perf_counter() - start
        if found is None:
            outcome = f"survived {args.budget} instances ({elapsed:.2f}s)"
        else:
            witness = evaluate_on_dataset(spec, found).witness
            outcome = (
                f"FALSIFIED at {witness.describe(found.graph.labels)} "
                f"with {len(found.trajectories)} trajectories ({elapsed:.2f}s)"
            )
            if spec.kind in GATED:
                violated.append(spec.id)
        print(f"{spec.id:<18}{spec.kind.value:<21}{outcome}")
    if violated:
        print(f"\nSOUNDNESS VIOLATED: falsified {', '.join(violated)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
