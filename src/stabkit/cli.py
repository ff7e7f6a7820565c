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
    _as_int,
    _json_entries,
    _rational,
    _unit,
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
from .oracle import ORACLE_LIMIT, _oracle_limit, exact_opt, greedy_cover
from .schemes import SchemeParams, ptas, qptas

# The one list of solver options: algorithm -> {option: (type, required)}.  A
# type is Fraction (an exact scalar) or int.  `solve` takes an option as a flag
# (--oracle-limit) and a bench algo entry as a key (oracle_limit); any option
# an algorithm does not read is a parameter error.
ALGO_OPTIONS: dict[str, dict[str, tuple[type, bool]]] = {
    "exact": {"oracle_limit": (int, False)},
    "greedy": {},
    "laminar-dp": {},
    "approx8": {},
    "ptas": {"eps": (Fraction, True), "delta": (Fraction, True)},
    "qptas": {
        "eps": (Fraction, True),
        "mu": (Fraction, False),
        "klong": (int, False),
        "oracle_limit": (int, False),
        "node_budget": (int, False),
    },
}
OPTION_TYPES = {name: kind for reads in ALGO_OPTIONS.values() for name, (kind, _) in reads.items()}


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``; None or ``-`` means stdout."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path: str | None, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=2) + "\n")


def _render(build, *args):
    """``build(*args)``: the JSON of a result, or a part of it.  A number
    longer than Python's int-to-string digit limit is a parameter error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParameterError(
            f"the result holds a number of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _flag(name: str) -> str:
    """The ``solve`` flag of an option: ``--oracle-limit`` for ``oracle_limit``."""
    return "--" + name.replace("_", "-")


def _check_options(algo, given, flags: bool = False) -> None:
    """Reject an unknown algorithm, an option it does not read, or a missing
    required one.  A message names only what the option table holds, never
    a name it does not: an option by its JSON key, as a bench suite writes
    it, or with ``flags`` by the flag ``solve`` reads."""
    if not isinstance(algo, str) or algo not in ALGO_OPTIONS:
        raise ParameterError(f"unknown algorithm; one of {', '.join(ALGO_OPTIONS)}")
    named, listed = (_flag, _flag) if flags else (repr, str)
    reads = ALGO_OPTIONS[algo]
    for name in given:
        if name not in reads:
            unread = f"option {named(name)}" if name in OPTION_TYPES else "an unknown option"
            raise ParameterError(f"{algo} does not read {unread}; it reads {', '.join(map(listed, reads)) or 'none'}")
    for name, (_, required) in reads.items():
        if required and name not in given:
            raise ParameterError(f"{algo} requires option {named(name)}")


def solve_with(algo: str, inst: Instance, opts: dict) -> Solution:
    """Dispatch one solver run on options ``_check_options`` passed; shared
    by `solve` and `bench`."""
    if algo == "exact":
        return exact_opt(inst, limit=opts.get("oracle_limit", ORACLE_LIMIT))
    if algo == "greedy":
        return greedy_cover(inst)
    if algo == "laminar-dp":
        return solve_laminar(inst)
    if algo == "approx8":
        return approx8(inst)
    if algo == "ptas":
        return ptas(inst, **opts)
    return qptas(inst, opts["eps"], params=SchemeParams.derive(len(inst.rects), **opts))


def cmd_solve(args) -> int:
    inst = instance_from_json(_read_json(args.input))
    opts = {name: getattr(args, name) for name in OPTION_TYPES if getattr(args, name) is not None}
    _check_options(args.algo, opts, flags=True)
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


KINDS = ("uniform", "laminar", "bounded")


def _gen_instance(kind, n: int, seed: int, delta) -> Instance:
    """One seeded instance of a generator kind from KINDS; shared by `gen` and `bench`."""
    if kind == "uniform":
        return gen_uniform(n, seed)
    if kind == "laminar":
        return gen_laminar(n, seed)
    return gen_bounded_ratio(n, Fraction(1, 2) if delta is None else delta, seed)


def cmd_gen(args) -> int:
    if args.delta is not None and args.kind != "bounded":
        raise ParameterError("--delta applies only to --kind bounded")
    _write_json(args.output, instance_to_json(_gen_instance(args.kind, args.n, args.seed, args.delta)))
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["instance_id", "n", "seed", "algo", "params", "cost", "opt", "ratio", "feasible", "millis"]


def _known_keys(entry: dict, keys, what: str) -> None:
    if any(key not in keys for key in entry):
        raise ParameterError(f"{what} reads only the keys {', '.join(keys)}")


def _algo_opts(algo_entry: dict, what: str) -> tuple[str, dict]:
    """(name, options) of a bench algo entry, checked and parsed; an error
    names the entry."""
    if "name" not in algo_entry:
        raise ParameterError(f'{what} has no "name"')
    algo = algo_entry["name"]
    given = {key: value for key, value in algo_entry.items() if key != "name"}
    try:
        _check_options(algo, given)
        opts = {
            key: _as_int(value, key) if ALGO_OPTIONS[algo][key][0] is int else _rational(value, key)
            for key, value in given.items()
        }
        # every solver checks its options before it reads the instance, so
        # a bad value fails here, before any row runs
        solve_with(algo, Instance(()), opts)
    except ParameterError as exc:
        raise ParameterError(f"{what}: {exc}") from exc
    return algo, opts


def _declared_bound(algo: str, opts: dict, n: int) -> Fraction | float:
    """Worst-case cost/opt ratio the bench enforces per algorithm."""
    if algo in ("exact", "laminar-dp"):
        return Fraction(1)
    if algo == "approx8":
        return Fraction(8)
    if algo == "greedy":
        return 1 + math.log(n)  # read only when opt > 0, so n >= 1
    if algo == "ptas":
        return 1 + 17 * opts["eps"]
    # qptas certifies 1 + eps only with its derived mu and klong; overridden,
    # they certify their own factor, which the bench does not bound
    return 1 + opts["eps"] if "mu" not in opts and "klong" not in opts else math.inf


def _bench_row(
    instance_id: str, seed: int, algo: str, opts: dict, inst: Instance, oracle_limit: int
) -> dict:
    n = len(inst.rects)
    start = time.perf_counter()
    try:
        sol = solve_with(algo, inst, opts)
    except ParameterError as exc:
        raise ParameterError(f"{instance_id} {algo}: {exc}") from exc
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
    algos = [
        _algo_opts(entry, f"algo #{pos}")
        for pos, entry in enumerate(_json_entries(suite, "algos", "bench suite"), start=1)
    ]
    _known_keys(suite, ("oracle_limit", "instances", "algos"), "bench suite")
    oracle_limit = _oracle_limit(suite.get("oracle_limit", 15))
    instances = []
    for pos, entry in enumerate(_json_entries(suite, "instances", "bench suite"), start=1):
        # checked whole, even when it lists no seed to generate
        what = f"instance #{pos}"
        kind = entry.get("kind", "uniform")
        if kind not in KINDS:
            raise ParameterError(f"{what}: kind must be one of {', '.join(KINDS)}")
        keys = ("kind", "n", "seeds", "delta") if kind == "bounded" else ("kind", "n", "seeds")
        _known_keys(entry, keys, what)
        n = _as_int(entry.get("n"), f"{what}: n", 0)
        seeds = entry.get("seeds", [0])
        if not isinstance(seeds, list):
            raise ParameterError(f"{what}: seeds must be a list, not {type(seeds).__name__}")
        delta = entry.get("delta")
        if delta is not None:
            delta = _unit(delta, f"{what}: delta", closed=True)
        for seed in seeds:
            seed = _as_int(seed, f"{what}: seed")
            inst = _gen_instance(kind, n, seed, delta)
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
    _write(args.output, buf.getvalue())
    _write(args.markdown, summary)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _scalar_arg(text: str) -> Fraction:
    """A scalar flag's value; argparse names the flag before the reason."""
    try:
        return as_scalar(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--algo", required=True, choices=tuple(ALGO_OPTIONS))
    p_solve.add_argument("-i", "--input", required=True)
    p_solve.add_argument("-o", "--output", default=None)
    for name, kind in OPTION_TYPES.items():
        p_solve.add_argument(_flag(name), type=_scalar_arg if kind is Fraction else int)
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
    p_gen.add_argument("--kind", required=True, choices=KINDS)
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
    except (OracleLimitError, OSError) as exc:  # OSError: an output file that cannot be written
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
