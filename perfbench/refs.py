#!/usr/bin/env python3
"""Reference optima of the benchmark's jobs.

    python3 perfbench/refs.py --workload schemes --seed 7   # print one run's references as JSON
    python3 perfbench/refs.py --workload schemes --seed 7 --part 1 --parts 2   # every other sub-seed
    python3 perfbench/refs.py --write                       # regenerate refs.json at the default seed

The committed refs.json lets a run at the default seed check a changed
oracle against fixed values instead of against itself.  A run at any other
seed calls this script in child processes before timing starts, so neither
their time nor their memory counts against the run.
"""

from __future__ import annotations

import argparse
import json

import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--part", type=int, default=0, help="compute only sub-seeds i with i %% PARTS == PART")
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--write", action="store_true", help=f"rewrite {wl.REFS_FILE.name}")
    args = parser.parse_args(argv)
    sk = wl.import_stabkit()
    if args.write:
        table = {
            "seed": wl.DEFAULT_SEED,
            "workloads": {
                name: wl.compute_references(sk, wl.jobs_for(name, wl.DEFAULT_SEED))
                for name in sorted(wl.WORKLOADS)
            },
        }
        with open(wl.REFS_FILE, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --write is given")
    jobs = [j for j in wl.jobs_for(args.workload, args.seed) if j.seed % args.parts == args.part]
    print(json.dumps(wl.compute_references(sk, jobs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
