#!/usr/bin/env python3
"""Run the counterexample search against every catalogued identity.

Universal relations are expected to survive the whole budget; the
count-level CLAIMED forms and the known-false NEGATIVE form should fall.
"""

import argparse
import sys
import time

from netmat import list_identities
from netmat.identities import evaluate_on_dataset, search_counterexample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ids", nargs="*", help="identity ids (default: whole catalogue)")
    parser.add_argument("--budget", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-duplicates", action="store_true", help="forbid duplicate trajectories")
    args = parser.parse_args()

    specs = list_identities()
    if args.ids:
        wanted = set(args.ids)
        specs = [s for s in specs if s.id in wanted]
        missing = wanted - {s.id for s in specs}
        if missing:
            print(f"unknown ids: {', '.join(sorted(missing))}", file=sys.stderr)
            return 2

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
        print(f"{spec.id:<18}{spec.kind.value:<21}{outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
