#!/usr/bin/env python3
"""Run the default benchmark suite and write report.csv + summary.md.

Usage: python scripts/run_bench.py [outdir]

Runs every (instance, algo) pair one after another; rows are sorted before
writing so reports are reproducible.
"""

import csv
import sys
from pathlib import Path

from stabkit.cli import CSV_COLUMNS, run_bench

SUITE = {
    "oracle_limit": 12,
    "instances": [
        {"kind": "uniform", "n": 6, "seeds": list(range(1, 11))},
        {"kind": "uniform", "n": 10, "seeds": list(range(1, 11))},
        {"kind": "bounded", "n": 8, "delta": "1/2", "seeds": list(range(1, 11))},
    ],
    "algos": [
        {"name": "greedy"},
        {"name": "approx8"},
        {"name": "ptas", "eps": "1/2", "delta": "1/8"},
        {"name": "qptas", "eps": "1/2", "oracle_limit": 10},
    ],
}

LAMINAR_SUITE = {
    "oracle_limit": 12,
    "instances": [{"kind": "laminar", "n": 10, "seeds": list(range(1, 21))}],
    "algos": [{"name": "laminar-dp"}, {"name": "greedy"}, {"name": "approx8"}],
}


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("bench-out")
    outdir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    summaries = []
    for name, suite in (("general", SUITE), ("laminar", LAMINAR_SUITE)):
        rows, summary = run_bench(suite)
        all_rows.extend(rows)
        summaries.append(f"## {name}\n\n{summary}")
        print(f"{name}: {len(rows)} runs, all feasible")
    with open(outdir / "report.csv", "w", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(all_rows)
    (outdir / "summary.md").write_text("\n".join(summaries), encoding="utf-8")
    print(f"wrote {outdir / 'report.csv'} and {outdir / 'summary.md'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
