"""Command-line surface: solve, verify, decompose, gen, bench.

Exit codes: 0 ok, 1 infeasible or bound violation, 2 parameter error
(including unreadable or malformed input files), 3 budget error.  Bench rows
run one after another and are sorted before emission.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

from .approx8 import approx8
from .core import (
    BudgetError,
    InfeasibleError,
    Instance,
    OracleLimitError,
    ParameterError,
    Solution,
    TransformError,
    _json_entries,
    _json_int,
    as_scalar,
    instance_from_json,
    instance_to_json,
    shrink_solution,
    solution_from_json,
    solution_to_json,
    verify,
)
from .decompose import decompose, decomposition_to_json
from .gen import gen_bounded_ratio, gen_laminar, gen_uniform
from .laminar import solve_laminar
from .oracle import ORACLE_LIMIT, exact_opt, greedy_cover
from .schemes import SchemeParams, ptas, qptas

ALGOS = ("exact", "greedy", "laminar-dp", "approx8", "ptas", "qptas")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render(build, *args):
    """``build(*args)``: the JSON of a result, or a part of it.  A number
    longer than Python's int-to-string digit limit is a parameter error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParameterError(
            f"the result holds a number of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def solve_with(algo: str, inst: Instance, opts: dict) -> Solution:
    """Dispatch one solver run; shared by `solve` and `bench`."""
    if algo == "exact":
        limit = opts.get("oracle_limit")
        return exact_opt(inst, limit=ORACLE_LIMIT if limit is None else limit)
    if algo == "greedy":
        return greedy_cover(inst)
    if algo == "laminar-dp":
        return solve_laminar(inst)
    if algo == "approx8":
        return approx8(inst)
    if algo == "ptas":
        if opts.get("eps") is None or opts.get("delta") is None:
            raise ParameterError("ptas requires --eps and --delta")
        return ptas(inst, opts["eps"], opts["delta"])
    if algo == "qptas":
        if opts.get("eps") is None:
            raise ParameterError("qptas requires --eps")
        params = SchemeParams.derive(
            len(inst.rects),
            opts["eps"],
            mu=opts.get("mu"),
            klong=opts.get("klong"),
            oracle_limit=opts.get("oracle_limit"),
            node_budget=opts.get("node_budget"),
        )
        return qptas(inst, opts["eps"], params=params)
    raise ParameterError(f"unknown algorithm {algo!r}")


def cmd_solve(args) -> int:
    inst = instance_from_json(_read_json(args.input))
    opts = {
        "eps": args.eps,
        "delta": args.delta,
        "mu": args.mu,
        "klong": args.klong,
        "oracle_limit": args.oracle_limit,
        "node_budget": args.node_budget,
    }
    sol = solve_with(args.algo, inst, opts)
    if args.shrink:
        sol = shrink_solution(inst, sol)
    report = verify(inst, sol)
    _write_json(args.output, _render(solution_to_json, sol))
    if not report.feasible:
        print(f"solver produced an infeasible solution, unstabbed: {report.unstabbed_ids}", file=sys.stderr)
        return 1
    # Decimal, unlike float, has room for any cost that prints
    approx = Decimal(sol.cost.numerator) / sol.cost.denominator
    print(f"{args.algo}: {len(sol.segments)} segments, cost {sol.cost} ({approx:.6f})", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    inst = instance_from_json(_read_json(args.input))
    sol = solution_from_json(_read_json(args.solution))
    report = verify(inst, sol)
    _write_json(None, {
        "feasible": report.feasible,
        "unstabbed_ids": list(report.unstabbed_ids),
        "cost": _render(str, report.recomputed_cost),
    })
    return 0 if report.feasible else 1


def cmd_decompose(args) -> int:
    inst = instance_from_json(_read_json(args.input))
    dec = decompose(inst, args.eps)
    _write_json(args.output, _render(decomposition_to_json, dec))
    return 0


def _gen_instance(kind, n: int, seed: int, delta) -> Instance:
    """One seeded instance of a generator kind; shared by `gen` and `bench`."""
    if kind == "uniform":
        return gen_uniform(n, seed)
    if kind == "laminar":
        return gen_laminar(n, seed)
    if kind == "bounded":
        return gen_bounded_ratio(n, as_scalar(delta) if delta is not None else Fraction(1, 2), seed)
    raise ParameterError(f"unknown generator kind {kind!r}")


def cmd_gen(args) -> int:
    _write_json(args.output, instance_to_json(_gen_instance(args.kind, args.n, args.seed, args.delta)))
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["instance_id", "n", "seed", "algo", "params", "cost", "opt", "ratio", "feasible", "millis"]


def _algo_opts(algo_entry: dict, what: str) -> dict:
    opts = {}
    for key in ("eps", "delta", "mu"):
        if key in algo_entry:
            opts[key] = as_scalar(algo_entry[key])
    for key in ("klong", "oracle_limit", "node_budget"):
        if key in algo_entry:
            opts[key] = _json_int(algo_entry[key], f"{what}: {key}")
    return opts


def _declared_bound(algo: str, opts: dict, n: int) -> Fraction | float | None:
    """Worst-case cost/opt ratio the bench enforces per algorithm."""
    if algo in ("exact", "laminar-dp"):
        return Fraction(1)
    if algo == "approx8":
        return Fraction(8)
    if algo == "greedy":
        return 1 + math.log(n) if n >= 1 else 1.0
    if algo == "ptas":
        return 1 + 17 * opts["eps"]
    if algo == "qptas":
        return 1 + opts["eps"]
    return None


def _bench_row(
    instance_id: str, seed: int, algo: str, opts: dict, inst: Instance, oracle_limit: int
) -> dict:
    n = len(inst.rects)
    start = time.perf_counter()
    sol = solve_with(algo, inst, opts)
    millis = int((time.perf_counter() - start) * 1000)
    report = verify(inst, sol)
    if not report.feasible:
        raise InfeasibleError(
            f"{algo} produced an infeasible solution on {instance_id} (unstabbed {report.unstabbed_ids})"
        )
    opt = None
    if n <= oracle_limit:
        opt = exact_opt(inst, limit=oracle_limit).cost
    row = {
        "instance_id": instance_id,
        "n": n,
        "seed": seed,
        "algo": algo,
        "params": ";".join(f"{k}={v}" for k, v in sorted(opts.items())),
        "cost": str(sol.cost),
        "opt": str(opt) if opt is not None else "",
        "ratio": "",
        "feasible": "true",
        "millis": millis,
    }
    if opt is not None and opt > 0:
        ratio = sol.cost / opt
        row["ratio"] = f"{float(ratio):.6f}"
        bound = _declared_bound(algo, opts, n)
        if bound is not None:
            exceeded = float(ratio) > float(bound) + 1e-9 if isinstance(bound, float) else ratio > bound
            if exceeded:
                raise InfeasibleError(
                    f"{algo} ratio {float(ratio):.6f} exceeds declared bound {float(bound):.6f} on {instance_id}"
                )
    elif opt is not None and opt == 0:
        row["ratio"] = "1.000000" if sol.cost == 0 else ""
    return row


def run_bench(suite: dict) -> tuple[list[dict], str]:
    """Run every (instance, algo) pair of a suite; returns (rows, markdown summary).

    Any infeasible solver output or declared-bound violation raises, failing
    the bench run: it signals a solver bug, not a bad measurement.
    """
    # validate the whole suite before running anything
    algos = []
    for pos, entry in enumerate(_json_entries(suite, "algos", "bench suite"), start=1):
        if "name" not in entry:
            raise ParameterError(f'algo #{pos} has no "name"')
        algos.append((entry["name"], _algo_opts(entry, f"algo #{pos}")))
    oracle_limit = _json_int(suite.get("oracle_limit", 15), "oracle_limit")
    instances = []
    for pos, entry in enumerate(_json_entries(suite, "instances", "bench suite"), start=1):
        kind = entry.get("kind", "uniform")
        n = _json_int(entry.get("n"), f"instance #{pos}: n")
        seeds = entry.get("seeds", [0])
        if not isinstance(seeds, list):
            raise ParameterError(f"instance #{pos}: seeds must be a list, got {seeds!r}")
        for seed in seeds:
            seed = _json_int(seed, f"instance #{pos}: seed")
            inst = _gen_instance(kind, n, seed, entry.get("delta"))
            instances.append((f"{kind}-n{n}-s{seed}", seed, inst))

    rows = []
    for instance_id, seed, inst in instances:
        for name, opts in algos:
            rows.append(_bench_row(instance_id, seed, name, opts, inst, oracle_limit))
    rows.sort(key=lambda r: (r["instance_id"], r["algo"], r["params"]))

    by_algo: dict[str, list[float]] = {}
    for row in rows:
        if row["ratio"]:
            by_algo.setdefault(row["algo"], []).append(float(row["ratio"]))
    lines = ["| algo | runs | mean ratio | max ratio |", "| --- | --- | --- | --- |"]
    for algo in sorted(by_algo):
        ratios = by_algo[algo]
        lines.append(
            f"| {algo} | {len(ratios)} | {sum(ratios) / len(ratios):.6f} | {max(ratios):.6f} |"
        )
    if not by_algo:
        lines.append("| (no oracle-checked runs) | 0 | - | - |")
    return rows, "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    suite = _read_json(args.config)
    rows, summary = run_bench(suite)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if args.output is None or args.output == "-":
        sys.stdout.write(buf.getvalue())
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(summary)
    else:
        sys.stdout.write(summary)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _scalar_arg(text: str) -> Fraction:
    return as_scalar(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--algo", required=True, choices=ALGOS)
    p_solve.add_argument("-i", "--input", required=True)
    p_solve.add_argument("-o", "--output", default=None)
    p_solve.add_argument("--eps", type=_scalar_arg, default=None)
    p_solve.add_argument("--delta", type=_scalar_arg, default=None)
    p_solve.add_argument("--mu", type=_scalar_arg, default=None)
    p_solve.add_argument("--klong", type=int, default=None)
    p_solve.add_argument("--oracle-limit", type=int, default=None)
    p_solve.add_argument("--node-budget", type=int, default=None)
    p_solve.add_argument("--shrink", action="store_true", help="shrink segments onto their assigned rects")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file against an instance")
    p_verify.add_argument("-i", "--input", required=True)
    p_verify.add_argument("-s", "--solution", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="emit the strip/cut decomposition as JSON")
    p_dec.add_argument("-i", "--input", required=True)
    p_dec.add_argument("-o", "--output", default=None)
    p_dec.add_argument("--eps", type=_scalar_arg, required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--kind", required=True, choices=("uniform", "laminar", "bounded"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--delta", type=_scalar_arg, default=None)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark suite, emit CSV and a summary")
    p_bench.add_argument("-c", "--config", required=True)
    p_bench.add_argument("-o", "--output", default=None)
    p_bench.add_argument("-m", "--markdown", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (OracleLimitError, TransformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
