"""Job mixes of the benchmark workloads, their reference optima and per-job checks.

A *job* is one solver call on one seeded instance.  A workload is a fixed job
mix repeated over several sub-seeds derived from the run's ``--seed``; the
same seed always yields the same jobs in the same order.

Every function that touches the solver library takes the imported ``stabkit``
package as its first argument (``sk``), because the tracer swaps functions on
the live modules.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_FILE = HERE / "refs.json"

DEFAULT_SEED = 1
EPS = Fraction(1, 2)
PTAS_DELTA = Fraction(1, 8)
BOUNDED_DELTA = Fraction(1, 2)
# QPTAS with its derived parameters does not finish above the oracle limit,
# so the scheme workload overrides mu and klong and lowers the oracle limit
# to force real recursion.
QPTAS_OVERRIDES = {"mu": Fraction(1, 2), "klong": 4, "oracle_limit": 6}
EXACT_REACH = 20  # uniform instances up to this size get a reference optimum

BENCH_ALGOS = [
    {"name": "greedy"},
    {"name": "approx8"},
    {"name": "ptas", "eps": "1/2", "delta": "1/8"},
    {"name": "qptas", "eps": "1/2", "oracle_limit": 10},
]
BENCH_ORACLE_LIMIT = 12

# workload -> (sub-seeds per run, [(algo, generator kind, n), ...] per sub-seed)
WORKLOADS: dict[str, tuple[int, list[tuple[str, str, int]]]] = {
    "setcover": (
        19,
        [("exact", "uniform", n) for n in (12, 14, 16, 18)]
        + [("greedy", "uniform", n) for n in (16, 18, 20)],
    ),
    "laminar": (
        34,
        [("laminar-dp", "laminar", n) for n in (32, 40, 48, 56)]
        + [("approx8", "uniform", n) for n in (32, 40, 48, 56)],
    ),
    "schemes": (
        20,
        [("ptas", "bounded", n) for n in (16, 24, 32)]
        + [("qptas", "uniform", n) for n in (16, 20)],
    ),
    "cli-bench": (
        64,
        [("bench", "uniform", 10), ("bench", "bounded", 10), ("bench", "uniform", 8)],
    ),
}


@dataclass(frozen=True)
class Job:
    algo: str
    kind: str
    n: int
    seed: int

    @property
    def key(self) -> str:
        """Names the instance; jobs on the same instance share one reference."""
        return f"{self.kind}-n{self.n}-s{self.seed}"


def import_stabkit():
    """Import ``stabkit`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "stabkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no stabkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stabkit
    import stabkit.cli  # noqa: F401  (the cli-bench workload calls stabkit.cli.run_bench)

    if Path(stabkit.__file__).resolve().parent != SRC / "stabkit":
        raise SystemExit(f"error: imported stabkit from {stabkit.__file__}, not from {SRC}")
    return stabkit


def jobs_for(workload: str, seed: int, subseeds: int | None = None) -> list[Job]:
    count, mix = WORKLOADS[workload]
    if subseeds is not None:
        count = subseeds
    return [
        Job(algo, kind, n, seed * 1000 + i)
        for i in range(count)
        for algo, kind, n in mix
    ]


def generate(sk, job: Job):
    if job.kind == "uniform":
        return sk.gen_uniform(job.n, job.seed)
    if job.kind == "laminar":
        return sk.gen_laminar(job.n, job.seed)
    return sk.gen_bounded_ratio(job.n, BOUNDED_DELTA, job.seed)


def load_instances(sk, jobs: list[Job], between=None) -> dict[str, object]:
    """Generate each distinct instance and load it back through the JSON wire
    format, as the command line reads its input.  ``between`` is called after
    each instance; the set-up probe calibrates there."""
    out = {}
    for job in jobs:
        if job.key not in out:
            text = json.dumps(sk.instance_to_json(generate(sk, job)))
            out[job.key] = sk.instance_from_json(json.loads(text))
            if between is not None:
                between()
    return out


def bench_suite(job: Job) -> dict:
    return {
        "oracle_limit": BENCH_ORACLE_LIMIT,
        "instances": [{"kind": job.kind, "n": job.n, "seeds": [job.seed]}],
        "algos": BENCH_ALGOS,
    }


def execute(sk, job: Job, inst):
    """The timed call.  Returns (output, qptas RunStats or None)."""
    if job.algo == "exact":
        return sk.exact_opt(inst), None
    if job.algo == "greedy":
        return sk.greedy_cover(inst), None
    if job.algo == "laminar-dp":
        return sk.solve_laminar(inst), None
    if job.algo == "approx8":
        return sk.approx8(inst), None
    if job.algo == "ptas":
        return sk.ptas(inst, EPS, PTAS_DELTA), None
    if job.algo == "qptas":
        stats = sk.RunStats()
        params = sk.SchemeParams.derive(len(inst.rects), EPS, **QPTAS_OVERRIDES)
        return sk.qptas(inst, EPS, params=params, stats=stats), stats
    if job.algo == "bench":
        rows, _ = sk.cli.run_bench(bench_suite(job))
        return rows, None
    raise ValueError(f"unknown algo {job.algo!r}")


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference(sk, job: Job, inst) -> Fraction | None:
    """Optimum of the job's instance, or None when it is out of reach.

    Laminar instances use the laminar DP.  Uniform instances up to
    EXACT_REACH rects and all bounded instances add up the exact oracle over
    independent components; a component above the oracle limit gives None.
    """
    if job.kind == "laminar":
        return sk.solve_laminar(inst).cost
    if job.kind == "uniform" and job.n > EXACT_REACH:
        return None
    parts = sk.split_independent(inst)
    if any(len(p.rects) > sk.ORACLE_LIMIT for p in parts):
        return None
    return sum((sk.exact_opt(p).cost for p in parts), Fraction(0))


def compute_references(sk, jobs: list[Job]) -> dict[str, str | None]:
    insts = load_instances(sk, jobs)
    out = {}
    for job in jobs:
        if job.key not in out:
            ref = reference(sk, job, insts[job.key])
            out[job.key] = None if ref is None else str(ref)
    return out


def committed_references(workload: str) -> dict[str, str | None]:
    with open(REFS_FILE, encoding="utf-8") as fh:
        table = json.load(fh)
    if table["seed"] != DEFAULT_SEED:
        raise SystemExit(f"error: {REFS_FILE} holds seed {table['seed']}, not {DEFAULT_SEED}")
    return table["workloads"][workload]


# ---------------------------------------------------------------------------
# per-job checks
# ---------------------------------------------------------------------------


def _ratio_bound(job: Job) -> Fraction | float | None:
    if job.algo in ("exact", "laminar-dp"):
        return Fraction(1)
    if job.algo == "approx8":
        return Fraction(8)
    if job.algo == "greedy":
        return 1 + math.log(job.n)
    if job.algo == "ptas":
        return 1 + 17 * EPS
    return None


def check(sk, job: Job, inst, output, stats, ref: Fraction | None) -> tuple[str | None, list[float]]:
    """Return (failure reason or None, cost ratios against the reference).

    ``sk`` must expose the untraced functions: checks are not part of a job.
    """
    if job.algo == "bench":
        ratios = []
        for row in output:
            cost = Fraction(row["cost"])
            if ref is not None:
                if row["opt"] != str(ref):
                    return f"{row['algo']}: bench oracle {row['opt']} != reference {ref}", ratios
                if cost < ref:
                    return f"{row['algo']}: cost {cost} below reference {ref}", ratios
                ratios.append(float(cost / ref))
        return None, ratios

    report = sk.verify(inst, output)
    if not report.feasible:
        return f"infeasible, unstabbed {list(report.unstabbed_ids)}", []
    cost = output.cost
    if stats is not None and stats.normalized_cost != stats.paid_cost + stats.base_cost + stats.guess_cost:
        return "qptas cost split does not add up to its normalized cost", []
    if ref is None:
        return None, []
    if cost < ref:
        return f"cost {cost} below reference {ref}", []
    bound = _ratio_bound(job)
    ratio = cost / ref
    if bound is not None:
        exceeded = float(ratio) > bound + 1e-9 if isinstance(bound, float) else ratio > bound
        if exceeded:
            return f"ratio {float(ratio):.6f} breaks the declared bound {float(bound):.6f}", [float(ratio)]
    return None, [float(ratio)]


def canonical(sk, job: Job, output) -> str:
    """Byte form of a job's output for the run's solutions_sha256."""
    if job.algo == "bench":
        body = [{k: v for k, v in row.items() if k != "millis"} for row in output]
    else:
        body = sk.solution_to_json(output)
    return json.dumps(body, sort_keys=True, separators=(",", ":"))
