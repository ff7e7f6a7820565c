"""Spans around calls into stabkit's public functions, and per-layer metrics.

The tracer replaces each traced function on every ``stabkit`` module that
binds it (the package uses ``from .x import y``, so ``approx8`` lives in
``stabkit.approx8``, ``stabkit.decompose``, ``stabkit.cli`` and the package
itself).  ``solve_small`` imports ``greedy_cover`` lazily from
``stabkit.oracle``, which the same sweep covers.  Per-element predicates such
as ``stabs`` and ``Box.contains`` run ~10^5 times per job and are never
wrapped.  No file under ``src/`` is touched.

Spans stay in memory as ``[name, job, start_ns, end_ns, parent, extra]``;
self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns


def _reduce(args, kwargs, out):
    return {"in": len(args[1]), "kept": len(out)}


def _qptas(args, kwargs, out):
    stats = kwargs.get("stats")
    if stats is None:
        return None
    return {"nodes": stats.nodes, "guesses": stats.guesses, "max_depth": stats.max_depth}


# span name -> (defining module, function names, extra counts from (args, kwargs, output))
TRACED = {
    "core.candidate_segments": ("core", ["candidate_segments"], lambda a, k, o: {"out": len(o)}),
    "core.normalize": ("core", ["normalize"], None),
    "core.denormalize": ("core", ["denormalize"], None),
    "core.verify": ("core", ["verify"], None),
    "core.instance_from_json": ("core", ["instance_from_json"], None),
    "oracle.reduce_candidates": ("oracle", ["reduce_candidates"], _reduce),
    "oracle.exact_opt": ("oracle", ["exact_opt"], None),
    "oracle.greedy_cover": ("oracle", ["greedy_cover"], None),
    "laminar.solve_laminar": ("laminar", ["solve_laminar"], lambda a, k, o: {"rects": len(a[0].rects)}),
    "laminar.is_laminar": ("laminar", ["is_laminar"], None),
    "approx8.approx8": ("approx8", ["approx8"], None),
    "approx8.to_laminar": ("approx8", ["to_laminar"], None),
    "decompose.strip_partition": ("decompose", ["strip_partition"], None),
    "decompose.crossing_rects": (
        "decompose",
        ["crossing_rects"],
        lambda a, k, o: {"crossed": frozenset(r.id for r in o)},
    ),
    "decompose.horizontal_cuts": ("decompose", ["horizontal_cuts"], None),
    "schemes.guess_long": ("schemes", ["guess_long"], lambda a, k, o: {"guesses": len(o)}),
    "schemes.solve_small": ("schemes", ["solve_small"], None),
    "schemes.qptas": ("schemes", ["qptas"], _qptas),
    "cli.run_bench": ("cli", ["run_bench"], lambda a, k, o: {"rows": len(o[0])}),
    "gen": ("gen", ["gen_uniform", "gen_laminar", "gen_bounded_ratio"], None),
}

# (metric name, unit, better): the per-layer metrics a traced run prints
PER_LAYER = [
    ("oracle.reduce_candidates.calls", "count", "lower"),
    ("oracle.reduce_candidates.self_s", "s", "lower"),
    ("oracle.reduce_candidates.kept_ratio", "ratio", "lower"),
    ("oracle.exact_opt.calls", "count", "lower"),
    ("oracle.exact_opt.self_s", "s", "lower"),
    ("oracle.greedy_cover.calls", "count", "lower"),
    ("oracle.greedy_cover.self_s", "s", "lower"),
    ("core.candidate_segments.calls", "count", "lower"),
    ("core.candidate_segments.self_s", "s", "lower"),
    ("core.candidate_segments.out", "count", "lower"),
    ("laminar.solve_laminar.calls", "count", "lower"),
    ("laminar.solve_laminar.self_s", "s", "lower"),
    ("laminar.solve_laminar.rects_per_call", "count", "lower"),
    ("laminar.solve_laminar.self_under_strip_partition", "ratio", "lower"),
    ("laminar.is_laminar.calls", "count", "lower"),
    ("laminar.is_laminar.self_s", "s", "lower"),
    ("approx8.approx8.calls", "count", "lower"),
    ("approx8.approx8.self_s", "s", "lower"),
    ("approx8.to_laminar.calls", "count", "lower"),
    ("approx8.to_laminar.self_s", "s", "lower"),
    ("decompose.strip_partition.calls", "count", "lower"),
    ("decompose.strip_partition.self_s", "s", "lower"),
    ("decompose.strip_partition.shifts", "count", "lower"),
    ("decompose.crossing_rects.calls", "count", "lower"),
    ("decompose.crossing_rects.self_s", "s", "lower"),
    ("decompose.crossing_rects.distinct_ratio", "ratio", "lower"),
    ("decompose.horizontal_cuts.calls", "count", "lower"),
    ("decompose.horizontal_cuts.self_s", "s", "lower"),
    ("decompose.horizontal_cuts.approx8_calls", "count", "lower"),
    ("schemes.guess_long.calls", "count", "lower"),
    ("schemes.guess_long.self_s", "s", "lower"),
    ("schemes.guess_long.guesses", "count", "lower"),
    ("schemes.solve_small.calls", "count", "lower"),
    ("schemes.solve_small.self_s", "s", "lower"),
    ("schemes.qptas.calls", "count", "lower"),
    ("schemes.qptas.self_s", "s", "lower"),
    ("schemes.qptas.nodes", "count", "lower"),
    ("schemes.qptas.guesses", "count", "lower"),
    ("schemes.qptas.max_depth", "count", "lower"),
    ("schemes.qptas.guess_yield", "ratio", "higher"),
    ("core.normalize.calls", "count", "lower"),
    ("core.normalize.self_s", "s", "lower"),
    ("core.normalize.s", "s", "lower"),
    ("core.denormalize.calls", "count", "lower"),
    ("core.denormalize.self_s", "s", "lower"),
    ("core.denormalize.s", "s", "lower"),
    ("cli.run_bench.calls", "count", "lower"),
    ("cli.run_bench.self_s", "s", "lower"),
    ("cli.run_bench.rows", "count", "lower"),
    ("cli.run_bench.oracle_calls", "count", "lower"),
    ("cli.run_bench.oracle_s", "s", "lower"),
    ("core.verify.calls", "count", "lower"),
    ("core.verify.self_s", "s", "lower"),
    ("core.verify.s", "s", "lower"),
    ("gen.calls", "count", "lower"),
    ("gen.self_s", "s", "lower"),
    ("gen.s", "s", "lower"),
    ("core.instance_from_json.calls", "count", "lower"),
    ("core.instance_from_json.self_s", "s", "lower"),
    ("core.instance_from_json.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    """Wraps the TRACED functions of the imported ``stabkit`` package ``sk``.

    Use as a context manager around the calls to trace; ``job`` labels the
    spans opened while it is set.
    """

    def __init__(self, sk):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items() if name == "stabkit" or name.startswith("stabkit.")]
        for span_name, (home, functions, extra) in TRACED.items():
            for fn_name in functions:
                original = getattr(sys.modules[f"stabkit.{home}"], fn_name)
                wrapper = self._wrap(span_name, original, extra)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, self.job, perf_counter_ns(), 0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    Counts and times are per pass; ratios are over all passes.
    """
    durations = [s[3] - s[2] for s in spans]
    child_time = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] is not None:
            child_time[s[4]] += durations[i]

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0) + durations[i]
        own[s[0]] = own.get(s[0], 0) + durations[i] - child_time[i]

    def extras(name, key):
        return [s[5][key] for s in spans if s[0] == name and s[5] is not None]

    def children(parent_name, child_name):
        return [i for i, s in enumerate(spans) if s[0] == child_name and s[4] is not None and spans[s[4]][0] == parent_name]

    def under(i, ancestor):
        p = spans[i][4]
        while p is not None:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][4]
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls.get(name, 0) / passes
        out[f"{name}.s"] = total.get(name, 0) / 1e9 / passes
        out[f"{name}.self_s"] = own.get(name, 0) / 1e9 / passes

    out["oracle.reduce_candidates.kept_ratio"] = ratio(
        sum(extras("oracle.reduce_candidates", "kept")), sum(extras("oracle.reduce_candidates", "in"))
    )
    out["core.candidate_segments.out"] = sum(extras("core.candidate_segments", "out")) / passes
    out["laminar.solve_laminar.rects_per_call"] = ratio(
        sum(extras("laminar.solve_laminar", "rects")), calls.get("laminar.solve_laminar", 0)
    )
    lam = [i for i, s in enumerate(spans) if s[0] == "laminar.solve_laminar"]
    out["laminar.solve_laminar.self_under_strip_partition"] = ratio(
        sum(durations[i] - child_time[i] for i in lam if under(i, "decompose.strip_partition")),
        own.get("laminar.solve_laminar", 0),
    )

    crossed = children("decompose.strip_partition", "decompose.crossing_rects")
    distinct_per_partition: dict[int, set] = {}
    for i in crossed:
        distinct_per_partition.setdefault(spans[i][4], set()).add(spans[i][5]["crossed"])
    out["decompose.strip_partition.shifts"] = len(crossed) / passes
    out["decompose.crossing_rects.distinct_ratio"] = ratio(
        sum(len(v) for v in distinct_per_partition.values()), len(crossed)
    )
    out["decompose.horizontal_cuts.approx8_calls"] = (
        len(children("decompose.horizontal_cuts", "approx8.approx8")) / passes
    )
    out["schemes.guess_long.guesses"] = sum(extras("schemes.guess_long", "guesses")) / passes

    nodes = extras("schemes.qptas", "nodes")
    guesses = extras("schemes.qptas", "guesses")
    out["schemes.qptas.nodes"] = sum(nodes) / passes
    out["schemes.qptas.guesses"] = sum(guesses) / passes
    out["schemes.qptas.max_depth"] = max(extras("schemes.qptas", "max_depth"), default=0)
    out["schemes.qptas.guess_yield"] = ratio(sum(n - 1 for n in nodes), sum(guesses))

    oracle = children("cli.run_bench", "oracle.exact_opt")
    out["cli.run_bench.rows"] = sum(extras("cli.run_bench", "rows")) / passes
    out["cli.run_bench.oracle_calls"] = len(oracle) / passes
    out["cli.run_bench.oracle_s"] = sum(durations[i] for i in oracle) / 1e9 / passes
    out["trace.spans"] = len(spans) / passes
    return out
