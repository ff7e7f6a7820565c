"""Acceptance suite: one test per criterion, one PASS line per criterion.

Everything is seeded and exact; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F

from stabkit import (
    GenConfig,
    Instance,
    Rect,
    RunStats,
    SchemeParams,
    Segment,
    SplitMix64,
    approx8,
    ceil_log2,
    denormalize,
    exact_opt,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    greedy_cover,
    horizontal_cuts,
    instance_to_json,
    is_laminar,
    normalize,
    ptas,
    qptas,
    solve_laminar,
    split_independent,
    stabs,
    strip_partition,
    to_laminar,
    verify,
)

from .helpers import strip_span


def report(criterion: str, detail: str) -> None:
    print(f"PASS  {criterion}: {detail}")


def test_c1_laminar_dp_exactness():
    worst_elapsed = 0.0
    for seed in range(200):
        n = seed % 10 + 1
        inst = gen_laminar(n, seed)
        start = time.perf_counter()
        sol = solve_laminar(inst)
        elapsed = time.perf_counter() - start
        worst_elapsed = max(worst_elapsed, elapsed)
        assert elapsed < 1.0, f"seed {seed}: solve took {elapsed:.3f}s"
        assert verify(inst, sol).feasible, f"seed {seed}: infeasible"
        assert sol.cost == exact_opt(inst).cost, f"seed {seed}: not optimal"
    report("C1 laminar-dp exactness", f"200/200 exact, slowest instance {worst_elapsed * 1000:.0f} ms")


def test_c2_eight_approximation():
    worst = F(0)
    for seed in range(200):
        n = seed % 12 + 1
        inst = gen_uniform(n, seed)
        sol = approx8(inst)
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible, f"seed {seed}: infeasible"
        assert sol.cost <= 8 * opt.cost, f"seed {seed}: ratio above 8"
        if opt.cost > 0:
            worst = max(worst, sol.cost / opt.cost)

    # rounding invariants on 1000 seeded rect/segment pairs
    rng = SplitMix64(20260809)
    rounded_family = []
    for i in range(1000):
        den = 1 << rng.below(4)
        xl = F(rng.below(64 * den) - 32 * den, den)
        w = F(rng.below(8 * den) + 1, den)
        yb = rng.below(16)
        r = Rect(i + 1, xl, xl + w, yb, yb + rng.below(6))
        rr = to_laminar(Instance((r,))).rects[0]
        assert r.width <= rr.width < 2 * r.width
        assert rr.width.numerator & (rr.width.numerator - 1) == 0
        assert rr.width.denominator & (rr.width.denominator - 1) == 0
        assert rr.xl <= r.xl and r.xr <= rr.xl + 2 * rr.width
        assert (rr.xl / rr.width).denominator == 1  # left-aligned on the width grid
        rounded_family.append(rr)
        # a random segment stabbing the rounded rect, stretched, stabs the original
        s = Segment(
            rr.xl - F(rng.below(9), 4),
            rr.xr + F(rng.below(9), 4),
            rr.yb + F(rng.below(5), 4) * (rr.yt - rr.yb),
        )
        assert stabs(s, rr)
        assert stabs(Segment(s.xl, 2 * s.xr - s.xl, s.y), r)  # stretched to [a, 2b - a]
    assert is_laminar(Instance(tuple(rounded_family)))
    report("C2 8-approximation", f"200/200 within 8x (worst {float(worst):.3f}), 1000 rounding checks")


def test_c3_strip_partition_bound():
    eps = F(1, 4)
    # wide rects packed tightly enough that some instances cross lines at
    # every grid shift, exercising the non-trivial paid cover
    cfg = GenConfig(x_range=(F(0), F(30)), w_min=F(7, 2), w_max=F(4))
    crossed_somewhere = 0
    for seed in range(50):
        n = seed % 10 + 1
        inst = gen_uniform(n, seed, cfg)
        parts = strip_partition(inst, eps)
        paid = sum((s.length for s in parts.segments), F(0))
        opt = exact_opt(inst).cost
        assert paid <= 16 * eps * opt, f"seed {seed}: paid {paid} above 4x opt {opt}"
        limit = inst.max_width / eps
        for strip in parts.strips:
            extent = max(r.xr for r in strip.instance.rects) - min(
                r.xl for r in strip.instance.rects
            )
            assert extent <= limit, f"seed {seed}: strip extent {extent} above {limit}"
        if parts.segments:
            crossed_somewhere += 1
    assert crossed_somewhere > 0, "fixture never paid for crossed rects; cover path untested"
    report("C3 strip partition", f"50/50 paid within 16*eps*OPT, {crossed_somewhere} with non-empty cover")


def test_c4_horizontal_cuts_bound():
    eps = F(1, 2)
    cfg = GenConfig(
        x_range=(F(0), F(3, 4)),
        y_range=(F(0), F(64)),
        w_min=F(9, 8),
        w_max=F(9, 8),
        h_max=F(1, 2),
        resolution=8,
    )
    with_cuts = 0
    for seed in range(50):
        n = 8 + seed % 3
        inst = gen_uniform(n, seed, cfg)
        cut = horizontal_cuts(inst, eps, inst.max_width, strip_span(inst))
        total = sum((s.length for s in cut.segments), F(0))
        opt = exact_opt(inst).cost
        assert total <= eps * opt, f"seed {seed}: cuts {total} above eps*opt"
        threshold = 8 * inst.max_width / eps**2
        for observed in cut.observed_costs[:-1]:
            assert observed > threshold, f"seed {seed}: non-final chunk below trigger"
        if cut.segments:
            with_cuts += 1
    assert with_cuts > 0, "fixture never produced a cut; sweep untested"
    report("C4 horizontal cuts", f"50/50 within eps*OPT, {with_cuts} instances produced cuts")


def test_c5_ptas_guarantee():
    eps = delta = F(1, 2)
    bound = 1 + 17 * eps
    start = time.perf_counter()
    for seed in range(50):
        n = seed % 8 + 1
        inst = gen_bounded_ratio(n, delta, seed)
        sol = ptas(inst, eps, delta)
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible, f"seed {seed}: infeasible"
        assert sol.cost <= bound * opt.cost, f"seed {seed}: above (1+17eps)"
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"suite took {elapsed:.0f}s, budget is 10 min"
    report("C5 ptas", f"50/50 within (1+17*eps), suite {elapsed:.1f}s")


def test_c6_qptas_guarantee():
    eps = F(1, 2)
    start = time.perf_counter()
    max_depth_seen = 0
    for seed in range(50):
        n = seed % 8 + 1
        inst = gen_uniform(n, seed)
        params = SchemeParams.derive(n, eps, oracle_limit=8, node_budget=10**6)
        stats = RunStats()
        sol = qptas(inst, eps, params=params, stats=stats)
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible, f"seed {seed}: infeasible"
        assert sol.cost <= (1 + eps) * opt.cost, f"seed {seed}: above (1+eps)"
        assert stats.max_depth <= ceil_log2(F(n) / eps) + 1, f"seed {seed}: recursion too deep"
        max_depth_seen = max(max_depth_seen, stats.max_depth)
    elapsed = time.perf_counter() - start
    assert elapsed < 900, f"suite took {elapsed:.0f}s, budget is 15 min"
    report("C6 qptas", f"50/50 within (1+eps), max depth {max_depth_seen}, suite {elapsed:.1f}s")


def test_c6_qptas_guarantee_through_guesses():
    # derived mu and klong with a small oracle limit: the root guesses and
    # recurses, so the guarantee is certified on the guessing path, not only
    # on the exact oracle at the root
    eps = F(1, 2)
    start = time.perf_counter()
    for seed in (1, 2, 3):
        inst = gen_uniform(12, seed)
        stats = RunStats()
        sol = qptas(inst, eps, params=SchemeParams.derive(12, eps, oracle_limit=6), stats=stats)
        assert stats.max_depth >= 1 and stats.guesses > 0, f"seed {seed}: no recursion"
        assert verify(inst, sol).feasible, f"seed {seed}: infeasible"
        assert sol.cost <= (1 + eps) * exact_opt(inst).cost, f"seed {seed}: above (1+eps)"
        assert stats.normalized_cost == stats.paid_cost + stats.base_cost + stats.guess_cost
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report("C6 qptas, recursing", f"3/3 within (1+eps) at n=12 with derived mu and klong, {elapsed:.2f}s")


def test_c7_oracle_self_consistency():
    for seed in range(100):
        n = seed % 8 + 1
        inst = gen_uniform(n, seed)
        opt = exact_opt(inst).cost
        recombined = sum((exact_opt(part).cost for part in split_independent(inst)), F(0))
        assert recombined == opt, f"seed {seed}: components do not add up"
        norm, transform = normalize(inst, F(1, 1000))
        back = denormalize(exact_opt(norm), transform)
        assert verify(inst, back).feasible, f"seed {seed}: round trip infeasible"
        assert back.cost == opt, f"seed {seed}: round trip changed opt"
    report("C7 oracle self-consistency", "100/100 invariant under split/round-trip")


def test_c8_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_json(gen_uniform(8, 11))))
    lam_path = tmp_path / "lam.json"
    lam_path.write_text(json.dumps(instance_to_json(gen_laminar(8, 11))))
    runs = {
        "exact": (inst_path, []),
        "greedy": (inst_path, []),
        "approx8": (inst_path, []),
        "ptas": (inst_path, ["--eps", "1/2", "--delta", "1/8"]),
        "qptas": (inst_path, ["--eps", "1/2", "--oracle-limit", "8"]),
        "laminar-dp": (lam_path, []),  # on a laminar fixture
    }
    for algo, (path, extra) in runs.items():
        blobs = set()
        for attempt in range(2):
            out = tmp_path / f"{algo}-{attempt}.json"
            res = subprocess.run(
                [sys.executable, "-m", "stabkit", "solve", "--algo", algo,
                 "-i", str(path), "-o", str(out), *extra],
                capture_output=True, text=True,
            )
            assert res.returncode == 0, f"{algo}: {res.stderr}"
            blobs.add(out.read_bytes())
        assert len(blobs) == 1, f"{algo}: outputs differ across runs"
    report("C8 determinism", "6 solvers byte-identical across reruns")


def test_c9_greedy_baseline():
    checked = 0
    for seed in range(60):
        n = seed % 15 + 1
        for inst in (gen_uniform(n, seed), gen_laminar(n, seed)):
            sol = greedy_cover(inst)
            opt = exact_opt(inst)
            assert verify(inst, sol).feasible, f"seed {seed}: infeasible"
            assert opt.cost <= sol.cost
            if opt.cost > 0:
                ratio = float(sol.cost / opt.cost)
                assert ratio <= 1 + math.log(n) + 1e-9, f"seed {seed}: ratio {ratio}"
                checked += 1
    report("C9 greedy baseline", f"{checked} runs within (1 + ln n)")
