#!/usr/bin/env python3
"""One benchmark set-up in a fresh process, timed from the process's launch.

    python3 perfbench/setup_probe.py WORKLOAD SEED LAUNCH_NS

LAUNCH_NS is CLOCK_MONOTONIC in nanoseconds, read by the parent just before
it started this process.  The probe imports stabkit, generates the run's
instances and loads them back through the JSON wire format, then prints the
seconds since LAUNCH_NS.  So the time covers interpreter start-up and every
module stabkit pulls in, as a user's first command would pay them.

Host speed drifts within a single set-up, so every CALIBRATE_EVERY_S the
probe runs one calibration pass between two instances.  It prints the set-up
time without those passes and their median, by which the parent scales the
time to the reference speed.
"""

from __future__ import annotations

import sys
import time

import workloads as wl
from speed import calibrate

CALIBRATE_EVERY_S = 0.02
FINAL_CALIBRATIONS = 3


def main(argv: list[str]) -> int:
    workload, seed, launch_ns = argv
    cals: list[float] = []
    last = time.perf_counter()

    def calibrate_now_and_then() -> None:
        nonlocal last
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            cals.append(calibrate())
            last = time.perf_counter()

    sk = wl.import_stabkit()
    wl.load_instances(sk, wl.jobs_for(workload, int(seed)), between=calibrate_now_and_then)
    elapsed = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(launch_ns)) / 1e9 - sum(cals)
    cals.extend(calibrate() for _ in range(FINAL_CALIBRATIONS))
    print(elapsed, sorted(cals)[len(cals) // 2])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
