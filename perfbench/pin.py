#!/usr/bin/env python3
"""Pin output digests: run one untimed round per workload and seed, and
record the digests of its compute, audit, hunt and sweep outputs.

    python3 perfbench/pin.py --seeds 0-99 [--workload NAME ...] [--output FILE]

Run it on the commit whose outputs are the reference; entries already in
FILE are kept unless recomputed.  A round with any failed check is refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-127")
    parser.add_argument("--workload", nargs="+", choices=sorted(run.WORKLOADS),
                        default=sorted(run.WORKLOADS))
    parser.add_argument("--output", type=Path, default=run.PINNED)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.import_package()
    pinned = json.loads(args.output.read_text()) if args.output.is_file() else {}
    for name in args.workload:
        table = pinned.setdefault(name, {})
        for seed in range(lo, hi + 1):
            out = run.OUT / f"pin-{name}-{lo}"
            session = run.Session(run.WORKLOADS[name], seed, None, out, run.HostSpeed())
            session.round()
            if session.problems:
                print(f"{name} seed {seed}: {session.problems}", file=sys.stderr)
                return 1
            table[str(seed)] = session.expected
            print(f"{name} seed {seed}: {session.expected}", flush=True)
    pinned = {
        name: dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        for name, table in sorted(pinned.items())
    }
    args.output.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
