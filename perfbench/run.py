#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload setcover --seed 1 --seconds 16 --trace 0

One client runs the workload's jobs one after another in this single process
(closed loop).  After a first full pass it keeps cycling through the jobs until
``--seconds`` have passed.  A job's time is the median of its runs, and the
timing metrics weigh every job once.

Times are reported at a reference host speed.  Shared hosts drift by up to 2x
over seconds to minutes, far more than any bound worth setting, so a fixed
calibration loop that does not use stabkit runs before every job, and each
job's wall time is scaled by CALIBRATION_REF_S over the median calibration
time of the five nearest jobs.  The report also prints the raw figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

os.environ["STABKIT_THREADS"] = "1"

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from speed import CALIBRATION_REF_S, calibrate  # noqa: E402

# (name, unit, better)
END_TO_END = [
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("job_s_p90", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cost_ratio_mean", "ratio", "lower"),
    ("cost_ratio_max", "ratio", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]
SETUP_REPEATS = 7
REF_WORKERS = 2


def at_reference_speed(samples: list[tuple[float, float]]) -> list[float]:
    """Scale each (wall time, calibration time) pair, taken in run order, to the
    reference host speed, using the median calibration of its five nearest pairs."""
    cals = [c for _, c in samples]
    return [
        t * CALIBRATION_REF_S / statistics.median(cals[max(0, i - 2) : i + 3])
        for i, (t, _) in enumerate(samples)
    ]


def per_job(samples, times: list[float], traced: bool) -> list[float]:
    """Median time of each job over its traced or untraced runs, in job order,
    so that every job weighs the same however far the last pass got."""
    runs: dict[int, list[float]] = {}
    for (j, _, _, was_traced), t in zip(samples, times):
        if was_traced == traced:
            runs.setdefault(j, []).append(t)
    return [statistics.median(runs[j]) for j in sorted(runs)]


def set_up(workload: str, seed: int) -> tuple[float, float]:
    """Time SETUP_REPEATS set-ups, each in a fresh process (setup_probe.py),
    from its launch to the end of its JSON round trip.

    Each probe calibrates itself after its set-up.  Returns the median set-up
    time as raw and reference-speed seconds.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        launch_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(wl.HERE / "setup_probe.py"), workload, str(seed), str(launch_ns)],
            capture_output=True,
            text=True,
            timeout=150,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe exited with {done.returncode}: {done.stderr.strip()}")
        elapsed, calibration = map(float, done.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * CALIBRATION_REF_S / calibration)
    return statistics.median(raw), statistics.median(scaled)


def references(workload: str, seed: int) -> dict[str, Fraction | None]:
    """The committed table at the default seed; otherwise computed by REF_WORKERS
    child processes, each taking every REF_WORKERS-th sub-seed."""
    if seed == wl.DEFAULT_SEED:
        table = wl.committed_references(workload)
    else:
        cmd = [sys.executable, str(wl.HERE / "refs.py"), "--workload", workload, "--seed", str(seed)]
        children = [
            subprocess.Popen(cmd + ["--part", str(i), "--parts", str(REF_WORKERS)], stdout=subprocess.PIPE, text=True)
            for i in range(REF_WORKERS)
        ]
        table = {}
        try:
            for child in children:
                out, _ = child.communicate(timeout=150)
                if child.returncode != 0:
                    raise SystemExit(f"error: {' '.join(child.args)} exited with {child.returncode}")
                table.update(json.loads(out))
        finally:
            for child in children:
                child.kill()
                child.wait()
    return {key: None if v is None else Fraction(v) for key, v in table.items()}


class Runner:
    """Runs jobs, times them and checks every output outside the timed region."""

    def __init__(self, sk, jobs, insts, refs, solve):
        self.sk, self.jobs, self.insts, self.refs, self.solve = sk, jobs, insts, refs, solve
        n = len(jobs)
        self.samples: list[tuple[int, float, float, bool]] = []  # (job, wall, calibration, traced) per timed run
        self.output = [None] * n  # canonical output of the first run
        self.reason = [None] * n  # failure reason of the first run
        self.ratios: list[list[float]] = [[] for _ in range(n)]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, j: int, tracer=None) -> None:
        job = self.jobs[j]
        inst = self.insts[job.key]
        self.attempted += 1
        calibration = calibrate()
        if tracer is not None:
            tracer.job = j
        try:
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                output, stats = self.solve(self.sk, job, inst)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a raising job is a failed job, not a crashed run
            self._fail(j, f"raised {exc!r}")
            return
        self.samples.append((j, elapsed, calibration, tracer is not None))

        canonical = wl.canonical(self.sk, job, output)
        if self.output[j] is None:
            self.output[j] = canonical
            self.reason[j], self.ratios[j] = wl.check(
                self.sk, job, inst, output, stats, self.refs.get(job.key)
            )
        elif canonical != self.output[j]:
            self._fail(j, "output differs from its first run")
            return
        if self.reason[j] is not None:
            self._fail(j, self.reason[j])

    def _fail(self, j: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            job = self.jobs[j]
            self.failures.append(f"{job.algo} on {job.key}: {reason}")

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for out in self.output:
            digest.update((out if out is not None else "error").encode())
            digest.update(b"\n")
        return digest.hexdigest()


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    solve=wl.execute,
    subseeds: int | None = None,
) -> dict:
    """One benchmark run.  Returns the result object plus a ``report`` of text lines.

    ``solve`` and ``subseeds`` let the self-tests inject a broken solver and
    shrink the job list.
    """
    jobs = wl.jobs_for(workload, seed, subseeds)
    sk = wl.import_stabkit()
    insts = wl.load_instances(sk, jobs)
    setup_raw_s, setup_s = set_up(workload, seed)
    refs_start = time.perf_counter()
    refs = references(workload, seed)
    refs_s = time.perf_counter() - refs_start
    missing = {job.key for job in jobs} - refs.keys()
    if missing:
        raise SystemExit(f"error: no reference entry for {sorted(missing)[:3]}")

    runner = Runner(sk, jobs, insts, refs, solve)
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    if trace:
        tracer = spans.Tracer(sk)
        while passes == 0 or time.perf_counter() < deadline:
            for j in range(len(jobs)):
                runner.run(j)
            tracer.job = "setup"
            with tracer:
                wl.load_instances(sk, jobs)
            for j in range(len(jobs)):
                runner.run(j, tracer)
            passes += 1
    else:
        done = 0
        while done < len(jobs) or time.perf_counter() < deadline:
            runner.run(done % len(jobs))
            done += 1
        passes = done / len(jobs)
    wall_s = time.perf_counter() - start

    scaled = at_reference_speed([(t, c) for _, t, c, _ in runner.samples])
    timed = per_job(runner.samples, scaled, traced=False)
    raw = per_job(runner.samples, [t for _, t, _, _ in runner.samples], traced=False)
    cals = [c for _, _, c, _ in runner.samples]
    speed = CALIBRATION_REF_S / statistics.median(cals) if cals else 1.0
    ratios = [r for rs in runner.ratios for r in rs]
    if trace:
        traced = per_job(runner.samples, scaled, traced=True)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        layers = spans.layer_metrics(tracer.spans, passes)
        metrics = {k: layers[k] * speed if units[k] == "s" else layers[k] for k in units if k in layers}
        metrics["trace.overhead_frac"] = sum(traced) / sum(timed) - 1 if timed and traced else 0.0
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {
            "jobs_per_s": len(timed) / sum(timed) if timed else 0.0,
            "job_s_p50": statistics.median(timed) if timed else 0.0,
            "job_s_p90": statistics.quantiles(timed, n=10)[-1] if len(timed) > 1 else 0.0,
            "setup_s": setup_s,
            "cost_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
            "cost_ratio_max": max(ratios, default=0.0),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    failed_frac = runner.failed / runner.attempted
    report = [
        f"workload {workload} seed {seed}: {len(jobs)} jobs, {runner.attempted} runs "
        f"({passes:.2f} passes{', traced and untraced' if trace else ''}) in {wall_s:.2f} s; "
        f"references {refs_s:.2f} s",
        f"times at reference speed over {len(timed)} jobs, each the median of its runs; "
        f"host speed {speed:.3f} of the reference; "
        f"raw jobs_per_s {len(raw) / sum(raw) if raw else 0:.6g}, job_s_p50 {statistics.median(raw) if raw else 0:.6g} s, "
        f"setup_s {setup_raw_s:.6g} s",
        f"cost ratios over {len(ratios)} results with a reference",
        f"failed_frac {failed_frac:.6g} ratio ({runner.failed} of {runner.attempted} runs)",
        f"solutions_sha256 {runner.sha256()}",
        *(f"failure: {line}" for line in runner.failures),
        *(f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()),
    ]
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "report": report,
        "solutions_sha256": runner.sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    result.pop("solutions_sha256")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
