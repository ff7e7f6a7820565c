"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

Runs are tiny: one sub-seed per workload and no time budget beyond the
first pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload, trace=False, **kwargs):
    return run.run_workload(workload, wl.DEFAULT_SEED, 0, trace, subseeds=1, **kwargs)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in result["report"])
        assert result["metrics"][name]["value"] > 0
    assert any(line.startswith("failed_frac 0 ") for line in result["report"])


def test_declared_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit, better) for name, unit, better in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER


def test_broken_solver_counts_failures_and_completes():
    def drop_one_segment(sk, job, inst):
        sol, stats = wl.execute(sk, job, inst)
        return sk.Solution(sol.segments[1:]), stats

    result = tiny("setcover", solve=drop_one_segment)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("failed_frac ") and not line.startswith("failed_frac 0 ") for line in result["report"])
    assert any("infeasible" in line for line in result["report"])


def test_raising_solver_is_a_failed_job():
    def boom(sk, job, inst):
        raise RuntimeError("boom")

    result = tiny("laminar", solve=boom)
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_run_matches_untraced(workload):
    plain = tiny(workload)
    traced = tiny(workload, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert traced["solutions_sha256"] == plain["solutions_sha256"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layer["gen.calls"] > 0 and layer["core.instance_from_json.calls"] > 0
    if workload == "cli-bench":
        assert layer["cli.run_bench.oracle_calls"] == layer["cli.run_bench.rows"] > 0
    if workload == "schemes":
        assert layer["schemes.qptas.nodes"] > layer["schemes.qptas.calls"] > 0
        assert layer["decompose.strip_partition.shifts"] > 0


def test_tracer_restores_every_binding():
    sk = wl.import_stabkit()
    decompose = sys.modules["stabkit.decompose"]

    def bindings():
        return (sk.approx8, decompose.approx8, sk.oracle.greedy_cover, sk.cli.exact_opt)

    before = bindings()
    tracer = spans.Tracer(sk)
    with tracer:
        assert all(now is not then for now, then in zip(bindings(), before))
        sk.approx8(sk.gen_uniform(4, 1))
    assert bindings() == before
    assert [s[0] for s in tracer.spans][:2] == ["gen", "approx8.approx8"]


def test_seed_changes_the_instances():
    sk = wl.import_stabkit()

    def corpus(seed):
        insts = wl.load_instances(sk, wl.jobs_for("schemes", seed, subseeds=1))
        return [sk.instance_to_json(i) for i in insts.values()]

    assert corpus(1) == corpus(1)
    assert corpus(1) != corpus(2)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laminar", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
