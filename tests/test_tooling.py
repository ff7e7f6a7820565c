"""The benchmark harness must keep working against the library.

The tier-1 suite does not collect ``perfbench/``, so a change that removes a
traced function, or changes what the harness's jobs call, would pass here and
still break ``perfbench/run.py``.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stabkit
import stabkit.cli  # noqa: F401  (the tracer wraps stabkit.cli.run_bench)
from stabkit.approx8 import _approx8_prices, _rounded_spans

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """Load ``perfbench/<name>.py`` by path.  It is registered in sys.modules
    first, because dataclasses look their module up there."""
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def test_every_traced_function_resolves():
    spans = load("spans")
    assert spans.TRACED
    for span, (home, functions, _) in spans.TRACED.items():
        module = importlib.import_module(f"stabkit.{home}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{span}: no stabkit.{home}.{name}"
    # the tracer resolves the same names when it is built
    assert spans.Tracer(stabkit)._patches


def workload_jobs():
    wl = load("workloads")
    mixes = {(algo, kind) for _, mix in wl.WORKLOADS.values() for algo, kind, _ in mix}
    return [wl.Job(algo, kind, 6, 1) for algo, kind in sorted(mixes)]


@pytest.mark.parametrize("job", workload_jobs(), ids=lambda job: f"{job.algo}-{job.kind}")
def test_every_workload_job_runs_and_checks(job):
    wl = load("workloads")
    inst = wl.generate(stabkit, job)
    output, stats = wl.execute(stabkit, job, inst)
    ref = wl.reference(stabkit, job, inst)
    reason, _ = wl.check(stabkit, job, inst, output, stats, ref)
    assert reason is None


@pytest.mark.parametrize("algo, kind", [("laminar-dp", "laminar"), ("approx8", "uniform")])
def test_largest_laminar_workload_jobs_run_and_check(algo, kind):
    # the laminar workload's jobs reach n = 56; the jobs above stop at n = 6
    wl = load("workloads")
    job = wl.Job(algo, kind, 56, 1)
    assert (algo, kind, 56) in wl.WORKLOADS["laminar"][1]
    inst = wl.generate(stabkit, job)
    output, stats = wl.execute(stabkit, job, inst)
    ref = wl.reference(stabkit, job, inst)
    reason, _ = wl.check(stabkit, job, inst, output, stats, ref)
    assert reason is None


# sha256 of the canonical outputs, one a line, of each workload's first
# sub-seed at seed 1; a change that claims outputs byte-identical must not
# move any of them
FIRST_SUBSEED_SHA256 = {
    "cli-bench": "7eadce45a209932e3d6546be5b12c214ce3d7f04118c883cb5e84fef2ad7ccbb",
    "laminar": "61fd7a83ff89a1c623abb5a3bf8e332e217cc0e75d47cfb3dcdd69f1533506af",
    "schemes": "a513e108389a7e91b52109fdbd2da45070c6415695195d592cbee680e666e12c",
    "setcover": "b2547c9467cbd5d13811228a26d7af8f3c182885c7a0e26798586d7c10b6995b",
}


@pytest.mark.parametrize("workload", sorted(FIRST_SUBSEED_SHA256))
def test_first_subseed_outputs_are_byte_identical(workload):
    wl = load("workloads")
    assert sorted(wl.WORKLOADS) == sorted(FIRST_SUBSEED_SHA256)
    jobs = wl.jobs_for(workload, 1, subseeds=1)
    insts = wl.load_instances(stabkit, jobs)
    outputs = []
    for job in jobs:
        inst = insts[job.key]
        output, stats = wl.execute(stabkit, job, inst)
        # the per-job check, here also on qptas runs that decompose and guess
        reason, _ = wl.check(stabkit, job, inst, output, stats, wl.reference(stabkit, job, inst))
        assert reason is None, f"{job}: {reason}"
        outputs.append(wl.canonical(stabkit, job, output))
    assert hashlib.sha256("\n".join(outputs).encode()).hexdigest() == FIRST_SUBSEED_SHA256[workload]


def test_strip_partition_calls_the_crossing_test_binding(monkeypatch):
    # perfbench counts grid shifts as the crossing_rects calls the tracer sees
    # under strip_partition, and its self-test needs that count above zero
    module = importlib.import_module("stabkit.decompose")
    original = module.crossing_rects
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "crossing_rects", counted)
    module.strip_partition(stabkit.gen_uniform(5, 1), Fraction(1, 2))
    assert calls


@pytest.mark.parametrize(
    "home, names, run",
    [
        (
            "decompose",
            ("strip_partition", "horizontal_cuts"),
            lambda: stabkit.decompose(stabkit.gen_uniform(8, 1), Fraction(1, 2)),
        ),
        (
            "schemes",
            ("guess_long",),
            lambda: stabkit.qptas(
                stabkit.gen_uniform(6, 3),
                Fraction(1, 2),
                stabkit.SchemeParams.derive(6, Fraction(1, 2), mu=Fraction(1, 2), klong=4, oracle_limit=0),
            ),
        ),
    ],
    ids=["decompose", "qptas"],
)
def test_schemes_call_the_traced_stage_bindings(monkeypatch, home, names, run):
    # perfbench spans decompose's two stages and qptas's guessing through
    # these module bindings; a call that bypassed them, say through a private
    # helper, would leave those spans at zero
    module = importlib.import_module(f"stabkit.{home}")
    calls = {name: 0 for name in names}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    run()
    assert all(calls.values()), calls


def test_tracer_restores_every_binding():
    # perfbench times approx8, greedy_cover and exact_opt through the names
    # decompose, oracle and cli bind; a binding dropped or shadowed by a local
    # definition would escape its spans
    spans = load("spans")
    modules = {name: importlib.import_module(f"stabkit.{name}") for name in ("decompose", "oracle", "cli")}

    def bindings():
        return (modules["decompose"].approx8, modules["oracle"].greedy_cover, modules["cli"].exact_opt)

    before = bindings()
    assert before == (stabkit.approx8, stabkit.greedy_cover, stabkit.exact_opt)
    with spans.Tracer(stabkit):
        assert all(now is not then for now, then in zip(bindings(), before))
    assert bindings() == before


def test_strip_partition_keeps_the_traced_crossing_test_and_paid_cover():
    # perfbench spans the crossing test and the paid cover's approx8 call
    # under strip_partition; a partition that dropped either, or reached it
    # other than through the module's own bindings, would leave them at zero
    spans = load("spans")
    module = importlib.import_module("stabkit.decompose")
    assert module.approx8 is stabkit.approx8
    tracer = spans.Tracer(stabkit)
    with tracer:
        stabkit.decompose(stabkit.gen_uniform(8, 1), Fraction(1, 2))
    parents = {}
    for name, _, _, _, parent, _ in tracer.spans:
        parents.setdefault(name, set()).add(None if parent is None else tracer.spans[parent][0])
    assert parents["decompose.crossing_rects"] == {"decompose.strip_partition"}
    assert parents["approx8.approx8"] == {"decompose.strip_partition"}


def test_only_solve_laminar_checks_laminarity(monkeypatch):
    # the laminar DP trusts its spans: solve_laminar checks its instance
    # through the module's is_laminar binding, the one perfbench spans, while
    # approx8 and the decomposition's pricer hand the DP dyadic spans,
    # laminar by construction, without a check
    module = importlib.import_module("stabkit.laminar")
    original = module.is_laminar
    checked = []

    def counted(inst):
        checked.append(inst)
        return original(inst)

    monkeypatch.setattr(module, "is_laminar", counted)
    insts = [stabkit.gen_laminar(12, 1), stabkit.to_laminar(stabkit.gen_uniform(12, 1)), stabkit.Instance(())]
    for inst in insts:
        stabkit.solve_laminar(inst)
    assert checked == insts
    checked.clear()
    half = Fraction(1, 2)
    stabkit.approx8(stabkit.gen_uniform(12, 1))
    stabkit.decompose(stabkit.gen_uniform(8, 1), half)
    stabkit.ptas(stabkit.gen_bounded_ratio(16, half, 1), half, half)
    stabkit.qptas(
        stabkit.gen_uniform(6, 3), half, stabkit.SchemeParams.derive(6, half, mu=half, klong=4, oracle_limit=0)
    )
    assert checked == []


def _guesses_build_no_segment(inst):
    # a guess is its table rows; qptas builds segments only for the branch
    # it keeps, so guess_long itself should build none
    rows = stabkit.guess_long(inst, inst.max_width / 2, 8)
    assert any(keys for _, _, keys in rows)
    return ()


@pytest.mark.parametrize(
    "answer, inst",
    [
        (lambda inst: stabkit.exact_opt(inst).segments, stabkit.gen_uniform(16, 1)),
        # 26 blocks, each searched on its own
        (lambda inst: stabkit.exact_opt(inst, limit=40).segments, stabkit.gen_bounded_ratio(40, Fraction(1, 2), 1)),
        (lambda inst: stabkit.greedy_cover(inst).segments, stabkit.gen_uniform(20, 1)),
        (_guesses_build_no_segment, stabkit.gen_uniform(12, 1)),
    ],
    ids=["exact_opt", "exact_opt-blocks", "greedy_cover", "guess_long"],
)
def test_solvers_build_segments_only_for_their_answer(monkeypatch, answer, inst):
    # the candidate table holds plain (xl, xr, y) rows; a validated Segment
    # per table row was about a third of the table's time.  The answer's
    # segments are built from the table's exact rows, so they skip the
    # validator too
    original = stabkit.oracle._built
    built = []
    validated = []

    def counted(cls, *values):
        obj = original(cls, *values)
        if cls is stabkit.Segment:
            built.append(obj)
        return obj

    for module in (stabkit.oracle, stabkit.schemes):
        monkeypatch.setattr(module, "_built", counted)
    monkeypatch.setattr(stabkit.Segment, "__post_init__", lambda self: validated.append(self))
    want = answer(inst)
    assert tuple(built) == want
    assert validated == []


def test_approx8_builds_no_rounded_rect(monkeypatch):
    # approx8 and the decomposition's pricer round on integers and feed the
    # laminar DP directly; rounding on Fractions into validated Rects took
    # about a sixth of a seed-1 laminar workload pass under cProfile
    inst = stabkit.gen_uniform(40, 1)
    original = stabkit.Rect.__post_init__
    built = []

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(stabkit.Rect, "__post_init__", counted)
    sol = stabkit.approx8(inst)
    unit, _, price = _approx8_prices(inst)
    cost = price((1 << len(inst.rects)) - 1) * unit
    assert built == []
    assert cost == sol.cost > 0


def test_approx8_multiplies_no_fraction(monkeypatch):
    # approx8 stretches on integers and builds each end as one Fraction of
    # an integer and a power of two; an int times a Fraction took about
    # 1.7 us, against 0.5 us for Fraction(n, d)
    products = []

    def counted(name):
        original = getattr(Fraction, name)

        def product(self, other):
            products.append(name)
            return original(self, other)

        monkeypatch.setattr(Fraction, name, product)

    inst = stabkit.gen_uniform(40, 1)
    # x scaled up 2**12 and down 2**12: the unit 2**e of the rounded spans
    # is at least 1 on one and below 1 on the other
    scaled = [
        stabkit.Instance(tuple(stabkit.Rect(r.id, r.xl * f, r.xr * f, r.yb, r.yt) for r in inst.rects))
        for f in (Fraction(2**12), Fraction(1, 2**12))
    ]
    assert [_rounded_spans(s)[0] >= 0 for s in scaled] == [True, False]
    for name in ("__mul__", "__rmul__"):
        counted(name)
    sols = [stabkit.approx8(s) for s in scaled]
    assert products == []
    monkeypatch.undo()
    assert [sol.cost for sol in sols] == [stabkit.approx8(inst).cost * f for f in (2**12, Fraction(1, 2**12))]


def test_exact_opt_of_one_rect_builds_no_candidate_table(monkeypatch):
    # one rect's only row is its own span at its top edge; a table for it
    # was 571 of the 1,002 table builds on a seed-1 schemes pass
    built = []
    table = stabkit.oracle._candidate_table

    def recorded(inst, blocks=None):
        built.append(inst)
        return table(inst, blocks)

    monkeypatch.setattr(stabkit.oracle, "_candidate_table", recorded)
    inst = stabkit.Instance((stabkit.Rect(1, Fraction(1, 3), Fraction(5, 2), 0, Fraction(1, 7)),))
    sol = stabkit.exact_opt(inst)
    assert built == []
    assert sol.segments == (stabkit.Segment(Fraction(1, 3), Fraction(5, 2), Fraction(1, 7)),)
    stabkit.exact_opt(stabkit.gen_uniform(2, 1))
    assert len(built) == 1


def test_only_core_scales_coordinates():
    # every layer reads the instance's one integer view; a module that
    # scaled Fractions to integers on its own would rescale every
    # sub-instance again
    package = Path(stabkit.__file__).resolve().parent
    scaling = sorted(p.name for p in package.glob("*.py") if p.name != "core.py" and "_scaled" in p.read_text())
    assert scaling == []


def test_instance_loader_parses_each_distinct_string_once(monkeypatch):
    # a load once parsed every coordinate string, about 0.3 s of a 0.4 s
    # load of 16,000 grid rects; the parsed values are kept for one call
    # only, so a second load parses again
    doc = json.loads(json.dumps(stabkit.instance_to_json(stabkit.gen_uniform(200, 1))))
    distinct = {v for rect in doc["rects"] for v in rect.values()}
    original = stabkit.core.as_scalar
    parsed = []

    def counted(value):
        parsed.append(value)
        return original(value)

    monkeypatch.setattr(stabkit.core, "as_scalar", counted)
    for _ in range(2):
        inst = stabkit.instance_from_json(doc)
        assert sorted(parsed) == sorted(distinct) and len(distinct) < 100
        parsed.clear()
    assert inst == stabkit.gen_uniform(200, 1)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: stabkit.gen_uniform(200, 1),
        lambda: stabkit.gen_laminar(200, 1),
        lambda: stabkit.gen_bounded_ratio(200, Fraction(1, 2), 1),
    ],
    ids=["uniform", "laminar", "bounded"],
)
def test_generators_build_one_fraction_per_distinct_value(monkeypatch, generate):
    # rects that share a coordinate share its Fraction, built once from
    # the integer draw, and skip the Rect checks they pass by construction
    made = []

    def counted(*args):
        made.append(Fraction(*args))
        return made[-1]

    monkeypatch.setattr(stabkit.gen, "Fraction", counted)
    monkeypatch.setattr(stabkit.Rect, "__post_init__", lambda self: pytest.fail("a generated rect was checked"))
    inst = generate()
    values = [v for r in inst.rects for v in (r.xl, r.xr, r.yb, r.yt)]
    assert len(made) == len(set(values)) < len(values)
    assert {id(v) for v in values} == {id(v) for v in made}


def test_exact_path_runs_neither_greedy_nor_the_global_domination_pass(monkeypatch):
    # the search seeds its own incumbent from each root's dual pass, and the
    # candidate table settles domination per span; greedy serves only
    # greedy_cover, and the pairwise pass reduce_candidates serves no solver
    oracle = stabkit.oracle
    calls = {"_greedy": 0, "reduce_candidates": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    stabkit.exact_opt(stabkit.gen_uniform(16, 1))
    stabkit.exact_opt(stabkit.gen_bounded_ratio(40, Fraction(1, 2), 1), limit=40)
    stabkit.solve_small(stabkit.gen_uniform(8, 1), 8)
    assert calls == {"_greedy": 0, "reduce_candidates": 0}
    stabkit.greedy_cover(stabkit.gen_bounded_ratio(40, Fraction(1, 2), 1))
    assert calls == {"_greedy": 1, "reduce_candidates": 0}


REFERENCE_FREE_SOLVES = {
    "exact_opt": lambda: stabkit.exact_opt(stabkit.gen_uniform(16, 1)),
    "greedy_cover": lambda: stabkit.greedy_cover(stabkit.gen_uniform(20, 1)),
    "solve_laminar": lambda: stabkit.solve_laminar(stabkit.gen_laminar(32, 1)),
    "approx8": lambda: stabkit.approx8(stabkit.gen_uniform(32, 1)),
    "ptas": lambda: stabkit.ptas(stabkit.gen_bounded_ratio(16, Fraction(1, 2), 1), Fraction(1, 2), Fraction(1, 8)),
    # recurses once and guesses long segments
    "qptas": lambda: stabkit.qptas(
        stabkit.gen_uniform(16, 1),
        Fraction(1, 2),
        params=stabkit.SchemeParams.derive(16, Fraction(1, 2), mu=Fraction(1, 2), klong=4, oracle_limit=6),
    ),
    "decompose": lambda: stabkit.decompose(stabkit.gen_uniform(24, 1), Fraction(1, 2)),
    "run_bench": lambda: stabkit.cli.run_bench(
        {
            "oracle_limit": 12,
            "instances": [{"kind": "bounded", "n": 10, "seeds": [1]}],
            "algos": [
                {"name": "exact"},
                {"name": "greedy"},
                {"name": "approx8"},
                {"name": "ptas", "eps": "1/2", "delta": "1/8"},
                {"name": "qptas", "eps": "1/2", "oracle_limit": 10},
            ],
        }
    ),
}


@pytest.mark.parametrize("solver", sorted(REFERENCE_FREE_SOLVES))
def test_no_solver_runs_the_reference_candidate_functions(solver, monkeypatch):
    # candidate_segments and reduce_candidates are references the candidate
    # table is tested against; perfbench's spans on them read 0, and the
    # pairwise domination test is quadratic in the stab sets, so no solver
    # may reach either one
    ran = []
    for module, name in [(stabkit.core, "candidate_segments"), (stabkit.oracle, "reduce_candidates")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: ran.append(name))
    REFERENCE_FREE_SOLVES[solver]()
    assert ran == []


def test_only_guess_long_builds_the_full_candidate_table(monkeypatch):
    # a row across a gap between blocks is in no optimum and greedy never
    # picks it, so the exact, greedy and ptas paths sweep the table per
    # block; only a long-segment guess may need such a row
    table = stabkit.oracle._candidate_table
    calls = []

    def recorded(inst, blocks=None):
        calls.append(blocks)
        return table(inst, blocks)

    monkeypatch.setattr(stabkit.oracle, "_candidate_table", recorded)
    monkeypatch.setattr(stabkit.schemes, "_candidate_table", recorded)
    inst = stabkit.gen_bounded_ratio(16, Fraction(1, 2), 1)
    for solve in [
        stabkit.exact_opt,
        lambda inst: stabkit.solve_small(inst, 16),
        stabkit.greedy_cover,
        lambda inst: stabkit.ptas(inst, Fraction(1, 2), Fraction(1, 2)),
    ]:
        before = len(calls)
        solve(inst)
        assert len(calls) > before and None not in calls[before:]
    stabkit.guess_long(inst, Fraction(1, 2), 2)
    assert calls[-1] is None


def test_qptas_builds_one_full_table_per_guessed_chunk_and_bounds_on_it(monkeypatch):
    # a guess is skipped when its total plus a dual bound on its residual
    # reaches the best branch; that bound reads the chunk's full candidate
    # table, the one guess_long reads, so the chunk's table is built once
    schemes = stabkit.schemes
    table, guess, bound = schemes._candidate_table, schemes.guess_long, schemes._dual_bound
    built, guessed, bounded = [], [], []

    def recorded_table(inst, blocks=None):
        built.append((inst, blocks, table(inst, blocks)))
        return built[-1][2]

    def recorded_guess(chunk, min_len, k, _budget=None, _table=None):
        guessed.append((chunk, _table))
        return guess(chunk, min_len, k, _budget, _table)

    def recorded_bound(uncovered, order, covering, lengths, gap):
        bounded.append((covering, lengths))
        return bound(uncovered, order, covering, lengths, gap)

    monkeypatch.setattr(schemes, "_candidate_table", recorded_table)
    monkeypatch.setattr(schemes, "guess_long", recorded_guess)
    monkeypatch.setattr(schemes, "_dual_bound", recorded_bound)
    # perfbench's QPTAS_OVERRIDES on an instance of its schemes size: the
    # bound skips ten of its twelve guesses
    params = stabkit.SchemeParams.derive(20, Fraction(1, 2), mu=Fraction(1, 2), klong=4, oracle_limit=6)
    stats = stabkit.RunStats()
    stabkit.qptas(stabkit.gen_uniform(20, 1000), Fraction(1, 2), params, stats)
    assert (stats.guesses, stats.nodes) == (12, 3) and bounded
    assert [blocks for _, blocks, _ in built] == [None] * len(guessed)
    assert [(inst, t) for inst, _, t in built] == guessed
    assert all(g is t for (_, _, t), (_, g) in zip(built, guessed))
    served = {(id(t[3]), id(t[2])) for _, _, t in built}
    assert {(id(covering), id(lengths)) for covering, lengths in bounded} <= served


def test_decomposition_prices_masks_and_maps_each_rect_once(monkeypatch):
    # both stages carry pricer masks along their sweeps: a price takes an
    # integer mask, and each stage looks a rect's pricer bit up once per
    # call, not once per price
    module = importlib.import_module("stabkit.decompose")
    inst, eps = stabkit.gen_uniform(16, 1), Fraction(1, 2)
    parts = stabkit.strip_partition(inst, eps)
    prices = module._approx8_prices
    priced, looked_up = [], []

    class Bits(dict):
        def __getitem__(self, rect_id):
            looked_up.append(rect_id)
            return super().__getitem__(rect_id)

    def counted(sub):
        unit, bit, price = prices(sub)

        def counted_price(mask):
            priced.append(mask)
            return price(mask)

        return unit, Bits(bit), counted_price

    monkeypatch.setattr(module, "_approx8_prices", counted)
    stabkit.decompose(inst, eps)
    assert priced and all(type(mask) is int for mask in priced)
    assert len(looked_up) == len(inst.rects) + sum(len(strip.instance.rects) for strip in parts.strips)
